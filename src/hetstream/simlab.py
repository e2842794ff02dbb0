"""Seeded data generators and experiment drivers.

Streams are drawn from the true linear model with AR(1)-correlated Gaussian
covariates; covariate groups become visible at the configured event batches.
The drivers push each replicate through the engine and the baseline
estimators and aggregate bias/MSE tables or empirical rejection rates.

Replicates run serially; each one derives its generator from
(seed, replicate_index), so any replicate can be rerun on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, inference
from .batchstats import StreamSchema, compress_batch
from .engine import AccumulatorState, GRAM_SQUARED, new_stream
from .errors import HetstreamError, InvalidConfig

METHODS = ("AUE", "NUE", "AVE")


@dataclass(frozen=True)
class SimConfig:
    """One experiment: model truth, correlation case, stream layout, seeds."""

    p: int
    q: int
    beta: tuple[float, ...]
    theta: tuple[float, ...]
    sigma_sq: float
    n: int
    k: int
    j_max: int
    r: int = 0
    gamma: tuple[float, ...] = ()
    m: int = 0                      # batches between the two events (0: one event)
    corr_case: str = "correlated"
    rho_base: float = 0.5
    replications: int = 500
    seed: int = 0
    a: float | None = None          # optional multiplier applied to theta
    oracle_weights: bool = False    # non-random initial choices set to the truth
    weight_convention: str = GRAM_SQUARED

    def __post_init__(self):
        if len(self.beta) != self.p or len(self.theta) != self.q:
            raise InvalidConfig("beta/theta lengths must match p/q")
        if self.r and len(self.gamma) != self.r:
            raise InvalidConfig("gamma length must match r")
        if self.r and self.m < 1:
            raise InvalidConfig("a third covariate group needs m >= 1 middle batches")
        if self.sigma_sq < 0:
            raise InvalidConfig("sigma_sq must be nonnegative")
        if self.n < 1 or self.replications < 1:
            raise InvalidConfig("n and replications must be at least 1")
        if not 0 <= self.k < self.j_max:
            raise InvalidConfig("need 0 <= k < j_max")
        if self.r and self.k + self.m >= self.j_max:
            raise InvalidConfig("the second event must happen before j_max")
        if self.corr_case not in ("uncorrelated", "correlated"):
            raise InvalidConfig(f"unknown corr_case {self.corr_case!r}")
        if self.seed < 0:
            raise InvalidConfig("seed must be nonnegative")

    @property
    def effective_theta(self) -> np.ndarray:
        t = np.asarray(self.theta, dtype=np.float64)
        return t * self.a if self.a is not None else t

    def covariance(self) -> np.ndarray:
        """AR(1) covariance; the uncorrelated case zeroes cross-group blocks."""
        d = self.p + self.q + self.r
        idx = np.arange(d)
        sigma = self.rho_base ** np.abs(idx[:, None] - idx[None, :])
        if self.corr_case == "uncorrelated":
            bounds = [0, self.p, self.p + self.q, d]
            mask = np.zeros((d, d), dtype=bool)
            for g in range(3):
                lo, hi = bounds[g], bounds[g + 1]
                mask[lo:hi, lo:hi] = True
            sigma = np.where(mask, sigma, 0.0)
        return sigma


@dataclass(frozen=True)
class RawBatch:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None
    w: np.ndarray | None = None


@dataclass
class SimResult:
    """Flat records (method, checkpoint, metric, value)."""

    config: SimConfig
    records: list[tuple[str, float, str, float]] = field(default_factory=list)

    def add(self, method: str, checkpoint: float, metric: str, value: float) -> None:
        self.records.append((method, float(checkpoint), metric, float(value)))

    def value(self, method: str, checkpoint: float, metric: str) -> float:
        for m, c, k, v in self.records:
            if m == method and c == float(checkpoint) and k == metric:
                return v
        raise KeyError((method, checkpoint, metric))

    def to_csv(self, fh) -> None:
        fh.write("method,checkpoint,metric,value\n")
        for method, checkpoint, metric, value in self.records:
            fh.write(f"{method},{checkpoint:.12g},{metric},{value:.12g}\n")


def gen_stream(config: SimConfig, replicate_index: int) -> list[RawBatch]:
    """Raw batches of one replicate; deterministic in (seed, replicate_index)."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, replicate_index)))
    chol = np.linalg.cholesky(config.covariance())
    p, q, r = config.p, config.q, config.r
    beta = np.asarray(config.beta, dtype=np.float64)
    theta = config.effective_theta
    gamma = np.asarray(config.gamma, dtype=np.float64)
    second_event = config.k + config.m if r else None
    batches = []
    for j in range(1, config.j_max + 1):
        rows = rng.standard_normal((config.n, p + q + r)) @ chol.T
        y = rows[:, :p] @ beta + rows[:, p : p + q] @ theta
        if r:
            y = y + rows[:, p + q :] @ gamma
        if config.sigma_sq > 0:
            y = y + rng.normal(scale=np.sqrt(config.sigma_sq), size=config.n)
        if j <= config.k:
            width = p
        elif second_event is None or j <= second_event:
            width = p + q
        else:
            width = p + q + r
        # a view of the observed columns would keep the unobserved draws
        # alive with the batch; ascontiguousarray copies only when some
        # columns are dropped
        seen = np.ascontiguousarray(rows[:, :width])
        batches.append(
            RawBatch(
                x=seen[:, :p],
                y=y,
                z=seen[:, p : p + q] if width > p else None,
                w=seen[:, p + q :] if width > p + q else None,
            )
        )
    return batches


def drive_stream(
    config: SimConfig,
    replicate_index: int,
    checkpoints: tuple[int, ...],
    *,
    methods: tuple[str, ...] = METHODS,
    collect_tests: bool = False,
    alpha: float = 0.05,
):
    """Push one replicate through the selected estimators.

    Returns {(method, j): EstimateReport} and, when collect_tests is set,
    {(method, j): TestReport} as a second mapping.
    """
    schema = StreamSchema(config.p, config.q, config.r)
    stream = gen_stream(config, replicate_index)
    uncorrelated = config.corr_case == "uncorrelated"
    second_event = config.k + config.m + 1 if config.r else None

    aue: AccumulatorState | None = None
    if "AUE" in methods:
        aue = new_stream(schema, weight_convention=config.weight_convention)
    nue = baselines.NueState(config.p) if "NUE" in methods else None
    ave = baselines.AveState(config.p) if "AVE" in methods else None

    overrides: dict = {}
    if config.oracle_weights:
        sigma = config.covariance()
        overrides = dict(
            sigma0_sq=config.sigma_sq,
            theta0=config.effective_theta,
            e0_zz=sigma[config.p : config.p + config.q, config.p : config.p + config.q],
        )

    estimates: dict = {}
    tests: dict = {}
    check = set(checkpoints)

    for j, batch in enumerate(stream, start=1):
        stats = compress_batch(batch.x, batch.y, schema, z_rows=batch.z, w_rows=batch.w)
        if aue is not None:
            if j == config.k + 1:
                aue.begin_update_phase(stats, assume_uncorrelated=uncorrelated, **overrides)
            elif second_event is not None and j == second_event:
                aue.begin_second_update(stats)
            elif j <= config.k:
                aue.ingest_pre_change(stats)
            else:
                aue.ingest_post_change(stats)
        if nue is not None:
            nue.ingest(stats)
        if ave is not None:
            ave.ingest(stats)

        if j in check:
            if aue is not None:
                estimates[("AUE", j)] = aue.estimate()
                if collect_tests:
                    tests[("AUE", j)] = inference.test_theta_zero(aue, alpha)
            if nue is not None:
                estimates[("NUE", j)] = nue.estimate()
                if collect_tests:
                    tests[("NUE", j)] = nue.f_test_theta_zero(alpha)
            if ave is not None:
                estimates[("AVE", j)] = ave.estimate()
    if collect_tests:
        return estimates, tests
    return estimates


def _bias_mse(errors: np.ndarray) -> tuple[float, float]:
    """errors: (R, dim) stacked estimate-minus-truth vectors."""
    dim = errors.shape[1]
    bias = float(np.sum(np.abs(errors.mean(axis=0)))) / dim
    mse = float(np.mean(np.sum(errors**2, axis=1))) / dim
    return bias, mse


def run_bias_mse(config: SimConfig, checkpoints: tuple[int, ...] | None = None) -> SimResult:
    """Bias and MSE of every method's coefficient groups at the checkpoints."""
    if checkpoints is None:
        checkpoints = (config.j_max,)
    truth = {
        "beta": np.asarray(config.beta, dtype=np.float64),
        "theta": config.effective_theta,
        "gamma": np.asarray(config.gamma, dtype=np.float64),
    }

    def one(i):
        try:
            return drive_stream(config, i, tuple(checkpoints))
        except HetstreamError as exc:
            raise HetstreamError(f"replicate {i}: {exc}") from exc

    all_estimates = [one(i) for i in range(config.replications)]

    result = SimResult(config=config)
    groups = ["beta"] + (["theta"] if config.q else []) + (["gamma"] if config.r else [])
    for method in METHODS:
        for j in checkpoints:
            reports = [est[(method, j)] for est in all_estimates]
            for group in groups:
                values = [getattr(rep, group) for rep in reports]
                if any(v is None for v in values):
                    continue
                errors = np.vstack(values) - truth[group]
                bias, mse = _bias_mse(errors)
                result.add(method, j, f"bias_{group}", bias)
                result.add(method, j, f"mse_{group}", mse)
    return result


def run_power(
    config: SimConfig,
    j_grid: tuple[int, ...] | None = None,
    a_grid: tuple[float, ...] | None = None,
    alpha: float = 0.05,
) -> SimResult:
    """Empirical rejection rate of the added-covariate test.

    Sweeps either the checkpoint batch index (j_grid) or the coefficient
    multiplier (a_grid, evaluated at j_max); the grid point lands in the
    checkpoint column of the records.
    """
    result = SimResult(config=config)
    methods = ("AUE", "NUE")

    def rejection_rates(cfg: SimConfig, checkpoints: tuple[int, ...]) -> dict:
        def one(i):
            _, tests = drive_stream(
                cfg, i, checkpoints, methods=methods, collect_tests=True, alpha=alpha
            )
            return tests

        collected = [one(i) for i in range(cfg.replications)]
        rates = {}
        for method in methods:
            for j in checkpoints:
                flags = [t[(method, j)].reject for t in collected]
                rates[(method, j)] = float(np.mean(flags))
        return rates

    if a_grid is not None:
        for a in a_grid:
            rates = rejection_rates(replace(config, a=float(a)), (config.j_max,))
            for method in methods:
                result.add(method, float(a), "power", rates[(method, config.j_max)])
    else:
        if j_grid is None:
            j_grid = (config.j_max,)
        rates = rejection_rates(config, tuple(j_grid))
        for method in methods:
            for j in j_grid:
                result.add(method, j, "power", rates[(method, j)])
    return result


# ----------------------------------------------------------------------
# canonical experiment configurations
# ----------------------------------------------------------------------

def example1_config(
    param_set: str = "a",
    corr_case: str = "uncorrelated",
    n: int = 100,
    replications: int = 500,
    seed: int = 0,
) -> SimConfig:
    """One covariate addition at batch 11; parameter sets (a) and (b)."""
    if param_set == "a":
        beta, theta = (1.0, -1.0), (1.0,)
    elif param_set == "b":
        beta, theta = (1.0, -1.0, 2.0, -0.5, 0.5), (1.0, -1.0)
    else:
        raise InvalidConfig(f"unknown parameter set {param_set!r}")
    return SimConfig(
        p=len(beta), q=len(theta), beta=beta, theta=theta,
        sigma_sq=2.0, n=n, k=10, j_max=20,
        corr_case=corr_case, replications=replications, seed=seed,
    )


def example2_config(**kwargs) -> SimConfig:
    """Example 1 set (b) with the added group truly inactive (theta = 0)."""
    cfg = example1_config(param_set="b", **kwargs)
    return replace(cfg, theta=(0.0, 0.0))


def example3_config(
    a: float = 0.0,
    n: int = 100,
    replications: int = 500,
    seed: int = 0,
) -> SimConfig:
    """Test-size/power setting: correlated design, theta = a * (1, -1)."""
    return SimConfig(
        p=5, q=2,
        beta=(1.0, -1.0, 2.0, -0.5, 0.5), theta=(1.0, -1.0),
        sigma_sq=2.0, n=n, k=10, j_max=20,
        corr_case="correlated", replications=replications, seed=seed, a=a,
    )


def example4_config(
    sigma_sq: float = 2.0,
    n: int = 100,
    replications: int = 300,
    seed: int = 0,
) -> SimConfig:
    """Two additions: z from batch 11, w from batch 22, checkpoints 25/30.

    Table 4 has two noise panels, sigma_sq in {2, 4}; `replicate-table
    --table 4` runs both. The published AUE MSE(beta) cell that acceptance
    criterion 6 checks (0.003379 at j = 30) belongs to the sigma_sq = 4 panel.
    """
    return SimConfig(
        p=4, q=3, r=2,
        beta=(1.0, -1.0, 0.5, -0.5), theta=(1.0, -1.0, 0.5), gamma=(1.0, -0.5),
        sigma_sq=sigma_sq, n=n, k=10, m=11, j_max=30,
        corr_case="correlated", replications=replications, seed=seed,
    )
