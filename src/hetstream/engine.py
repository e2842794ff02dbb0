"""Streaming regression engine for covariate sets that expand mid-stream.

The engine ingests compressed batch statistics into per-segment cross
products, from which it derives the weighted cumulative matrices, the
homogenization maps that let pre-change data inform the post-change
parameters, and the residual sum of squares. Its state is a fixed number of
small matrices; raw data never need to be retained.

Ingesting only merges: queries, the residual sum included, solve on read,
and what they derive from the state is cached with one of two lifetimes, so
each Gram matrix is factored once for as long as it lives. Only the newest
segment ever changes: a batch merges into it and an event appends a new
one. So each segment's stacked Gram matrix and moment, its Cholesky factor
and its own least-squares fit are kept per segment, and a merge drops only
the merged segment's entries; frozen segments keep theirs across batches.
What depends on the weights or on the newest segment (the row weights
themselves, the pooled Grams, the refined maps, the homogenizing
embeddings, the bordered system and its solution) is kept per batch and
cleared by every mutator. The newest segment's factor serves the maps of
the group it revealed (their leading-block fits), its own fit and, in
Phase.PRE, where the bordered system is segment 0's Gram, the estimate and
the residual sum; an event batch's factor serves its maps, the initial
weight choices and the segment it opens. Neither cache is persisted.

The plug-in covariance is a by-product no other answer needs, so estimate()
leaves it to its report, which computes it on first read from a frozen
view of the state (see _frozen_view) that shares both caches.

Phases
------
Phase.PRE   only x observed; plain least squares on x.
Phase.ONE   z became observable at the first event; the bordered system
            fuses both segments through the estimated projection B-hat.
Phase.TWO   w became observable at the second event; the (p+q+r) system
            additionally uses C-hat and D-hat.

Weight conventions
------------------
"gram-squared" (default) multiplies every Gram contribution by the squared
row weight, i.e. rows are weighted before forming cross products. This is
internally consistent with the residual-sum and F formulas. "paper-linear"
applies the weight linearly to the Gram contributions instead and exists for
fidelity experiments; the residual-sum machinery is convention independent.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

import numpy as np

from . import linalg
from .batchstats import (
    PHASE_X,
    PHASE_XZ,
    PHASE_XZW,
    BatchStats,
    StreamSchema,
    merge,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidConfig,
    NotPositiveDefinite,
    PhaseMismatch,
    SingularMatrix,
)

GRAM_SQUARED = "gram-squared"
PAPER_LINEAR = "paper-linear"
CONVENTIONS = (GRAM_SQUARED, PAPER_LINEAR)

NON_RANDOM = "non-random"
ESTIMATED = "estimated-from-first-post-batch"

CASE_UNCORRELATED = "uncorrelated"
CASE_CORRELATED = "correlated"

# Residual variance below this relative floor counts as noiseless; the engine
# then falls back to unit weights instead of dividing by ~zero.
_VARIANCE_FLOOR_RTOL = 1e-12


class Phase(Enum):
    PRE = PHASE_X
    ONE = PHASE_XZ
    TWO = PHASE_XZW


@dataclass(frozen=True)
class WeightSpec:
    """Initial choices that define the two segment weights after the event.

    sigma0_sq is the initial choice of the post-change error variance,
    theta0 / e0_zz the initial choices of the new coefficients and the new
    covariates' second moment. The pre-change weight is the reciprocal root
    of sigma_eps_bar_sq = theta0' e0_zz theta0 + sigma0_sq, the post-change
    weight the reciprocal root of sigma0_sq.
    """

    sigma0_sq: float
    theta0: np.ndarray
    e0_zz: np.ndarray
    convention: str = GRAM_SQUARED
    provenance: str = ESTIMATED

    def __post_init__(self):
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=np.float64))
        object.__setattr__(self, "e0_zz", np.asarray(self.e0_zz, dtype=np.float64))
        if self.sigma0_sq <= 0.0:
            raise InvalidConfig("sigma0_sq must be positive")
        if self.convention not in CONVENTIONS:
            raise InvalidConfig(f"unknown weight convention {self.convention!r}")
        if self.sigma_eps_bar_sq < self.sigma0_sq - 1e-12 * self.sigma0_sq:
            raise InvalidConfig("e0_zz must be nonnegative definite")

    @property
    def sigma_eps_bar_sq(self) -> float:
        return float(self.theta0 @ self.e0_zz @ self.theta0 + self.sigma0_sq)

    @property
    def w1(self) -> float:
        return 1.0 / np.sqrt(self.sigma_eps_bar_sq)

    @property
    def w2(self) -> float:
        return 1.0 / np.sqrt(self.sigma0_sq)


@dataclass(frozen=True)
class SecondWeightSpec:
    """Initial choices taken at the second event (first batch exposing w).

    The three segment error variances nest: the final segment has sigma0_sq,
    the middle segment adds gamma0' e0_ww gamma0, and the first segment adds
    theta0' e0_zz theta0 on top of that.
    """

    sigma0_sq: float
    gamma0: np.ndarray
    theta0: np.ndarray
    e0_ww: np.ndarray
    e0_zz: np.ndarray
    provenance: str = ESTIMATED

    def __post_init__(self):
        for name in ("gamma0", "theta0", "e0_ww", "e0_zz"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.sigma0_sq <= 0.0:
            raise InvalidConfig("sigma0_sq must be positive")

    @property
    def sigma_mid_sq(self) -> float:
        return float(self.gamma0 @ self.e0_ww @ self.gamma0 + self.sigma0_sq)

    @property
    def sigma_pre_sq(self) -> float:
        return float(self.theta0 @ self.e0_zz @ self.theta0 + self.sigma_mid_sq)

    @property
    def w_pre(self) -> float:
        return 1.0 / np.sqrt(self.sigma_pre_sq)

    @property
    def w_mid(self) -> float:
        return 1.0 / np.sqrt(self.sigma_mid_sq)

    @property
    def w_post(self) -> float:
        return 1.0 / np.sqrt(self.sigma0_sq)


@dataclass(frozen=True)
class HomogenizationMap:
    """Estimated projections of missing covariate groups onto observed ones.

    b_hat maps z onto x, c_hat maps w onto x, d_hat maps w onto (x, z).
    The state records each as estimated on the first batch of the phase that
    revealed the group; with refinement on, current_maps() refits them on
    every batch that observed the group.
    """

    b_hat: np.ndarray
    c_hat: np.ndarray | None = None
    d_hat: np.ndarray | None = None
    estimated_on: int = 0

    def __post_init__(self):
        object.__setattr__(self, "b_hat", np.asarray(self.b_hat, dtype=np.float64))
        if self.c_hat is not None:
            object.__setattr__(self, "c_hat", np.asarray(self.c_hat, dtype=np.float64))
        if self.d_hat is not None:
            object.__setattr__(self, "d_hat", np.asarray(self.d_hat, dtype=np.float64))


class _OnFirstRead:
    """Descriptor of a report field given either its value or a function of
    no arguments that computes it; the function runs on the field's first
    read, and the report keeps its result in place of the function."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError(self.slot)   # the field has no default
        value = report.__dict__[self.slot]
        if callable(value):
            value = report.__dict__[self.slot] = value()
        return value

    def __set__(self, report, value):
        report.__dict__[self.slot] = value


@dataclass(frozen=True)
class EstimateReport:
    """Coefficient estimates with plug-in covariance and stream bookkeeping.

    A report from AccumulatorState.estimate() computes cov_plugin on its
    first read and then keeps it. It answers for the state as it was when
    estimate() ran, however far the stream has moved on since, and is None
    when that state could not estimate the covariance (InsufficientData or
    SingularMatrix).
    """

    beta: np.ndarray
    theta: np.ndarray | None
    gamma: np.ndarray | None
    theta_naive: np.ndarray | None
    cov_plugin: np.ndarray | None = _OnFirstRead()
    rho_hat: float
    n_total: int
    m_post: int
    case_label: str | None

    @property
    def coefficients(self) -> np.ndarray:
        parts = [self.beta]
        if self.theta is not None:
            parts.append(self.theta)
        if self.gamma is not None:
            parts.append(self.gamma)
        return np.concatenate(parts)


def _derived(method):
    """Cache a query helper's result in the state's per-batch cache, keyed
    on the helper and its arguments, until the next mutation clears it.
    Helpers of one segment's own sums use _per_segment instead. Callers
    must not write into the cached arrays."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = method(self, *args)
            return value

    return cached


def _per_segment(method):
    """Cache a helper that reads only segment ``s`` in the state's
    per-segment cache, until a batch is merged into that segment. Callers
    must not write into the cached arrays."""

    @functools.wraps(method)
    def cached(self, s):
        entries = self._segment_cache.setdefault(s, {})
        try:
            return entries[method.__name__]
        except KeyError:
            value = entries[method.__name__] = method(self, s)
            return value

    return cached


def _copy(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else a.copy()


def _gram_weight(w: float, convention: str) -> float:
    return w * w if convention == GRAM_SQUARED else w


def _by_group(maps: HomogenizationMap) -> list[list[np.ndarray | None]]:
    """Maps as fits[g - 1][s]: covariate group g projected onto the columns
    that segment s observes."""
    return [[maps.b_hat], [maps.c_hat, maps.d_hat]]


def _cholesky_or_none(gram: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of a Gram matrix; None when it fails the pivot rule."""
    try:
        return linalg.cholesky(gram)
    except NotPositiveDefinite:
        return None


def _fit_maps(gram: np.ndarray, widths, group: slice, lower=None) -> list[np.ndarray]:
    """Least-squares projections of the columns ``group`` of a Gram matrix
    onto its leading ``width`` columns, one per width. ``lower``, a
    Cholesky factor of the whole Gram matrix when given, factors every
    leading block at once; without it each block is factored alone."""
    if lower is None:
        return [linalg.solve_spd(gram[:w, :w], gram[:w, group]) for w in widths]
    return [linalg.solve_cholesky(lower, gram[:w, group]) for w in widths]


def _initial_choices(stats: BatchStats, lower: np.ndarray | None, **overrides) -> tuple[dict, str]:
    """Initial choices of a weight spec, each taken from its override when
    given, else from one fit of y on every group the event batch observes:
    the residual variance (sigma0_sq), each added group's coefficients
    (theta0, gamma0) and second moment (e0_zz, e0_ww). ``lower`` factors the
    batch's Gram matrix (None: it failed the pivot rule)."""
    if all(v is not None for v in overrides.values()):
        overrides["sigma0_sq"] = float(overrides["sigma0_sq"])
        return overrides, NON_RANDOM
    p, q = stats.p, stats.q
    dim = p + q + stats.r
    if stats.n <= dim:
        raise SingularMatrix(
            f"estimating the initial weight choices needs at least {dim + 1} "
            f"observations in the event batch (got n={stats.n}); "
            f"supply non-random overrides to lift the requirement"
        )
    if lower is None:
        raise SingularMatrix(
            "the event batch design is rank deficient; cannot estimate the "
            "initial weight choices"
        )
    moment = stats.full_moment()
    eta = linalg.solve_cholesky(lower, moment)
    sigma_sq = (stats.yty - float(moment @ eta)) / (stats.n - dim)
    if sigma_sq <= _VARIANCE_FLOOR_RTOL * max(stats.yty / stats.n, 1.0):
        warnings.warn(
            "event-batch residual variance is ~0 (noiseless data?); "
            "falling back to unit weights",
            stacklevel=3,
        )
        sigma_sq, eta = 1.0, np.zeros_like(eta)
    estimated = dict(
        sigma0_sq=float(sigma_sq),
        theta0=eta[p : p + q],
        e0_zz=stats.ztz / stats.n,
        gamma0=eta[p + q :],
        e0_ww=None if stats.wtw is None else stats.wtw / stats.n,
    )
    choices = {
        name: estimated[name] if value is None else value for name, value in overrides.items()
    }
    choices["sigma0_sq"] = float(choices["sigma0_sq"])
    return choices, ESTIMATED


class AccumulatorState:
    """Single-writer accumulator: ingestion mutates, queries only read.

    Construct via new_stream(). The state is serializable (see hetstream.io)
    and reconstructible from batch statistics alone.
    """

    def __init__(
        self,
        schema: StreamSchema,
        weight_convention: str = GRAM_SQUARED,
        refine_maps: bool = True,
    ):
        if weight_convention not in CONVENTIONS:
            raise InvalidConfig(f"unknown weight convention {weight_convention!r}")
        self.schema = schema
        self.convention = weight_convention
        # refine_maps: keep re-estimating the projection maps from all
        # accumulated post-event cross products instead of freezing the
        # designated-batch estimates. A single-batch projection carries
        # O(1/sqrt(n)) noise that never averages out of the estimator, so
        # refinement is the default; the frozen mode reproduces the
        # estimate-once construction exactly.
        self.refine_maps = refine_maps
        self.phase = Phase.PRE
        self.weights: WeightSpec | None = None
        self.weights2: SecondWeightSpec | None = None
        self.homog: HomogenizationMap | None = None
        self.case_label: str | None = None
        self.k_index: int | None = None   # batch index of the last x-only batch
        self.m_index: int | None = None   # batch index of the last (x,z) batch
        self.batch_count = 0
        self._segments: list[BatchStats] = [BatchStats.zeros(schema.p)]
        self._b_forced = False   # projection supplied/forced: never refine it
        self._cd_forced = False
        # derived quantities, never persisted: per batch (see _derived),
        # cleared by every mutator, and per segment (see _per_segment),
        # segment index -> entries, dropped when that segment is merged into
        self._cache: dict = {}
        self._segment_cache: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # weights and bookkeeping
    # ------------------------------------------------------------------

    @_derived
    def row_weights(self) -> tuple[float, ...]:
        """Row weight applied to each segment under the current phase."""
        if self.phase is Phase.PRE:
            return (1.0,)
        if self.phase is Phase.ONE:
            return (self.weights.w1, self.weights.w2)
        return (self.weights2.w_pre, self.weights2.w_mid, self.weights2.w_post)

    @_derived
    def gram_weights(self) -> tuple[float, ...]:
        return tuple(_gram_weight(w, self.convention) for w in self.row_weights())

    @property
    def n_total(self) -> int:
        return sum(seg.n for seg in self._segments)

    @property
    def m_post(self) -> int:
        return sum(seg.n for seg in self._segments[1:])

    # Weighted cumulative matrices, assembled from the per-segment raw sums.
    # Rescaling frozen segments at a phase transition is implicit: weights
    # are applied here, at read time, which is algebraically identical.

    @property
    def v_x(self) -> np.ndarray:
        g = self.gram_weights()
        return sum(gi * seg.xtx for gi, seg in zip(g, self._segments))

    @property
    def v_xz(self) -> np.ndarray | None:
        if self.phase is Phase.PRE:
            return None
        g = self.gram_weights()
        return sum(gi * seg.xtz for gi, seg in zip(g[1:], self._segments[1:]))

    @property
    def v_z(self) -> np.ndarray | None:
        if self.phase is Phase.PRE:
            return None
        g = self.gram_weights()
        return sum(gi * seg.ztz for gi, seg in zip(g[1:], self._segments[1:]))

    @property
    def wyy(self) -> float:
        w = self.row_weights()
        return float(sum(wi * wi * seg.yty for wi, seg in zip(w, self._segments)))

    @property
    def eta_tilde(self) -> np.ndarray:
        """Current coefficient vector (beta, theta[, gamma]); solves on read."""
        return self._solve_eta().copy()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest_pre_change(self, stats: BatchStats) -> "AccumulatorState":
        """Accumulate an x-only batch (weight 1 before any event)."""
        if self.phase is not Phase.PRE:
            raise PhaseMismatch("pre-change batch after a covariate addition")
        if stats.phase_tag != PHASE_X:
            raise PhaseMismatch(f"expected an x-only batch, got {stats.phase_tag!r}")
        if stats.p != self.schema.p:
            raise DimensionMismatch(f"batch has p={stats.p}, schema has p={self.schema.p}")
        self._merge_into(0, stats)
        return self

    def begin_update_phase(
        self,
        first_post_stats: BatchStats,
        *,
        sigma0_sq: float | None = None,
        theta0=None,
        e0_zz=None,
        b_hat=None,
        assume_uncorrelated: bool = False,
    ) -> "AccumulatorState":
        """Transition to Phase.ONE with the first batch that exposes z.

        The projection B-hat and, unless all three initial choices are
        supplied, the weight spec are estimated on this batch before it is
        ingested as the first post-change batch. assume_uncorrelated forces
        B-hat to zero (the uncorrelated-case formulas).
        """
        if self.phase is not Phase.PRE:
            raise PhaseMismatch("stream already has an (x, z) phase")
        if first_post_stats.phase_tag != PHASE_XZ:
            raise PhaseMismatch("the event batch must carry exactly the x and z groups")
        p = self.schema.p
        q = first_post_stats.q
        if first_post_stats.p != p:
            raise DimensionMismatch(f"batch has p={first_post_stats.p}, schema has p={p}")
        if self.schema.q and self.schema.q != q:
            raise DimensionMismatch(f"batch has q={q}, schema declares q={self.schema.q}")
        gram = first_post_stats.full_gram()
        lower = _cholesky_or_none(gram)

        # every step that can fail runs before the state changes, so a
        # failed event leaves no trace
        forced = bool(assume_uncorrelated) or b_hat is not None
        if assume_uncorrelated:
            b = np.zeros((p, q))
        elif b_hat is not None:
            b = np.asarray(b_hat, dtype=np.float64)
            if b.shape != (p, q):
                raise DimensionMismatch(f"b_hat has shape {b.shape}, expected ({p}, {q})")
        else:
            try:
                (b,) = _fit_maps(gram, (p,), slice(p, p + q), lower)
            except SingularMatrix as exc:
                raise SingularMatrix(
                    f"first post-change batch cannot identify the projection of z on x; "
                    f"it needs at least {p} observations with full-rank x "
                    f"(got n={first_post_stats.n})"
                ) from exc
        case = CASE_UNCORRELATED if not np.any(b) else CASE_CORRELATED

        choices, provenance = _initial_choices(
            first_post_stats, lower, sigma0_sq=sigma0_sq, theta0=theta0, e0_zz=e0_zz
        )
        weights = WeightSpec(**choices, convention=self.convention, provenance=provenance)
        self.schema = self.schema.with_q(q)
        self._b_forced = forced
        self.weights = weights
        self.homog = HomogenizationMap(b, estimated_on=self.batch_count + 1)
        self.case_label = case
        self.k_index = self.batch_count
        self.phase = Phase.ONE
        return self._open_segment(first_post_stats, gram, lower)

    def ingest_post_change(self, stats: BatchStats) -> "AccumulatorState":
        """Weighted accumulation of a batch carrying the current phase's groups."""
        if self.phase is Phase.PRE:
            raise PhaseMismatch("no covariate-addition event has happened yet")
        expected = self.phase.value
        if stats.phase_tag != expected:
            raise PhaseMismatch(
                f"expected a {expected!r} batch in this phase, got {stats.phase_tag!r}"
            )
        sch = self.schema
        if (stats.p, stats.q) != (sch.p, sch.q) or (expected == PHASE_XZW and stats.r != sch.r):
            raise DimensionMismatch(
                f"batch dims (p={stats.p}, q={stats.q}, r={stats.r}) do not match "
                f"schema (p={sch.p}, q={sch.q}, r={sch.r})"
            )
        self._merge_into(len(self._segments) - 1, stats)
        return self

    def begin_second_update(
        self,
        first_post_stats: BatchStats,
        *,
        sigma0_sq: float | None = None,
        gamma0=None,
        theta0=None,
        e0_ww=None,
        e0_zz=None,
        assume_uncorrelated: bool | None = None,
    ) -> "AccumulatorState":
        """Transition to Phase.TWO with the first batch that exposes w.

        C-hat and D-hat are estimated on this batch; initial choices for the
        second weight spec are re-estimated here as well (or overridden).
        assume_uncorrelated defaults to the stream's existing case label.
        """
        if self.phase is not Phase.ONE:
            raise PhaseMismatch("a second update requires an active (x, z) phase")
        if first_post_stats.phase_tag != PHASE_XZW:
            raise PhaseMismatch("the second event batch must carry the x, z and w groups")
        p, q = self.schema.p, self.schema.q
        r = first_post_stats.r
        if (first_post_stats.p, first_post_stats.q) != (p, q):
            raise DimensionMismatch("second event batch does not match the (p, q) schema")
        if self.schema.r and self.schema.r != r:
            raise DimensionMismatch(f"batch has r={r}, schema declares r={self.schema.r}")
        gram = first_post_stats.full_gram()
        lower = _cholesky_or_none(gram)

        # as in begin_update_phase, the state changes only once every step
        # that can fail has succeeded
        if assume_uncorrelated is None:
            assume_uncorrelated = self.case_label == CASE_UNCORRELATED
        if assume_uncorrelated:
            c = np.zeros((p, r))
            d = np.zeros((p + q, r))
        else:
            try:
                c, d = _fit_maps(gram, (p, p + q), slice(p + q, p + q + r), lower)
            except SingularMatrix as exc:
                raise SingularMatrix(
                    f"second event batch cannot identify the projections of w; it "
                    f"needs at least {p + q} full-rank observations "
                    f"(got n={first_post_stats.n})"
                ) from exc

        choices, provenance = _initial_choices(
            first_post_stats, lower, sigma0_sq=sigma0_sq, gamma0=gamma0, theta0=theta0,
            e0_ww=e0_ww, e0_zz=e0_zz,
        )
        weights2 = SecondWeightSpec(**choices, provenance=provenance)
        self.schema = self.schema.with_r(r)
        self._cd_forced = bool(assume_uncorrelated)
        self.weights2 = weights2
        self.homog = HomogenizationMap(
            self.homog.b_hat, c_hat=c, d_hat=d, estimated_on=self.homog.estimated_on
        )
        self.m_index = self.batch_count
        self.phase = Phase.TWO
        return self._open_segment(first_post_stats, gram, lower)

    def _open_segment(self, stats: BatchStats, gram: np.ndarray, lower) -> "AccumulatorState":
        """Ingest an event batch into a new segment, which then holds exactly
        the batch's sums: its Gram matrix and factor are the segment's own."""
        self._segments.append(BatchStats.zeros(stats.p, stats.q, stats.r))
        self.ingest_post_change(stats)
        self._segment_cache[len(self._segments) - 1] = {
            "_full": (gram, stats.full_moment()),
            "_factor": lower,
        }
        return self

    def _merge_into(self, s: int, stats: BatchStats) -> None:
        self._segments[s] = merge(self._segments[s], stats)
        self._cache.clear()
        self._segment_cache.pop(s, None)
        self.batch_count += 1

    # ------------------------------------------------------------------
    # system assembly
    # ------------------------------------------------------------------

    def _bounds(self) -> list[int]:
        """Column offsets of the covariate groups: segment s reveals group s,
        which spans columns bounds[s]:bounds[s + 1] of the homogenized vector
        and makes bounds[s + 1] observed columns."""
        sch = self.schema
        return list(accumulate((0, sch.p, sch.q, sch.r)[: len(self._segments) + 1]))

    @_per_segment
    def _full(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked Gram matrix and moment vector of segment s."""
        seg = self._segments[s]
        return seg.full_gram(), seg.full_moment()

    @_per_segment
    def _factor(self, s: int) -> np.ndarray | None:
        """Cholesky factor of segment s's Gram matrix; None when it fails
        the pivot rule."""
        return _cholesky_or_none(self._full(s)[0])

    @_derived
    def _pooled_gram(self, first: int) -> np.ndarray:
        """Unweighted Gram matrix of the columns segment ``first`` observes,
        pooled over that segment and every later one."""
        width = self._bounds()[first + 1]
        return sum(self._full(s)[0][:width, :width] for s in range(first, len(self._segments)))

    def current_maps(self) -> HomogenizationMap:
        """Projection maps in effect for estimation.

        With refinement on, each map is re-estimated from every batch that
        observed its covariate group (weights cancel within a segment, so
        the pooled unweighted cross products are the natural estimator);
        supplied or forced maps and too-small accumulations fall back to the
        designated-batch record. The arrays returned are copies.
        """
        maps = self._maps()
        return HomogenizationMap(
            _copy(maps.b_hat), _copy(maps.c_hat), _copy(maps.d_hat), maps.estimated_on
        )

    @_derived
    def _maps(self) -> HomogenizationMap:
        if self.homog is None:
            raise PhaseMismatch("no covariate-addition event has happened yet")
        if not self.refine_maps:
            return self.homog
        bounds = self._bounds()
        fits = _by_group(self.homog)
        forced = (self._b_forced, self._cd_forced)
        newest = len(self._segments) - 1
        for g in range(1, newest + 1):
            if forced[g - 1]:
                continue
            # the newest group's pooled Gram is the newest segment's own, so
            # that segment's factor serves its fits; when the whole Gram fails
            # the pivot rule, each leading block is factored alone
            lower = self._factor(g) if g == newest else None
            try:
                fits[g - 1] = _fit_maps(
                    self._pooled_gram(g),
                    bounds[1 : g + 1],
                    slice(bounds[g], bounds[g + 1]),
                    lower,
                )
            except SingularMatrix:
                pass
        (b,), (c, d) = fits
        return HomogenizationMap(b, c_hat=c, d_hat=d, estimated_on=self.homog.estimated_on)

    @_derived
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        """Bordered normal-equation system of the current phase.

        Segment s contributes the estimating equations of the groups it
        observes, with its homogenized prediction standing in for the groups
        it does not: A[:d_s] += g_s G_s E_s and b[:d_s] += g_s m_s.
        """
        embeddings = self._homog_embeddings()
        dim = embeddings[0].shape[1]
        a = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        for s, (g, emb) in enumerate(zip(self.gram_weights(), embeddings)):
            gram, moment = self._full(s)
            width = emb.shape[0]
            a[:width] += g * (gram @ emb)
            rhs[:width] += g * moment
        return a, rhs

    @_derived
    def _homog_embeddings(self) -> list[np.ndarray]:
        """Per segment, the map from observed covariates to the homogenized
        covariate vector (identity on observed groups, hat-matrices on the
        rest)."""
        bounds = self._bounds()
        k = len(self._segments)
        fits = _by_group(self._maps()) if k > 1 else []
        return [
            np.hstack([np.eye(bounds[s + 1])] + [fits[g - 1][s] for g in range(s + 1, k)])
            for s in range(k)
        ]

    @_derived
    def _sse_quadratic(self) -> float:
        """Fitted part of the weighted response norm, from the Gram matrix
        and moment vector of the weighted homogenized covariate rows. Always
        squared row weights: the weighted rows themselves carry the weight,
        whatever the estimator convention. With one segment they are
        segment 0's own, so its fit is the solve."""
        maps = self._homog_embeddings()
        dim = maps[0].shape[1]
        gram = np.zeros((dim, dim))
        moment = np.zeros(dim)
        for s, (w, seg, emb) in enumerate(zip(self.row_weights(), self._segments, maps)):
            if seg.n == 0:
                continue
            seg_gram, seg_moment = self._full(s)
            gram += w * w * (emb.T @ seg_gram @ emb)
            moment += w * w * (emb.T @ seg_moment)
        if not np.any(moment):
            return 0.0
        eta = self._segment_fit(0) if len(self._segments) == 1 else None
        if eta is None:
            eta = linalg.solve_consistent(gram, moment)
        return float(moment @ eta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @_derived
    def _solve_eta(self) -> np.ndarray:
        if self.n_total == 0:
            raise InsufficientData("no data ingested yet")
        if self.phase is not Phase.PRE and self.m_post == 0:
            raise InsufficientData("no post-change observations; theta is unidentified")
        if self.phase is Phase.PRE:
            # the one-segment bordered system is segment 0's own Gram
            eta = self._segment_fit(0)
            if eta is None:
                raise SingularMatrix("the pre-change design is rank deficient")
            return eta
        return linalg.solve_general(*self._system())

    def estimate(self) -> EstimateReport:
        """Current coefficient estimates with plug-in covariance.

        The report's cov_plugin is computed on its first read, from a frozen
        view of this state, so it answers for the state as it is now, even
        after later batches; it is None when the covariance cannot be
        estimated (InsufficientData, SingularMatrix).
        """
        eta = self._solve_eta().copy()
        p, q = self.schema.p, self.schema.q
        theta = gamma = None
        if self.phase is not Phase.PRE:
            theta = eta[p : p + q]
        if self.phase is Phase.TWO:
            gamma = eta[p + q :]
        try:
            naive = self.naive_theta()
        except (InsufficientData, SingularMatrix, PhaseMismatch):
            naive = None
        n = self.n_total
        return EstimateReport(
            beta=eta[:p],
            theta=theta,
            gamma=gamma,
            theta_naive=naive,
            cov_plugin=self._frozen_view()._covariance_or_none,
            rho_hat=self.m_post / n if n else 0.0,
            n_total=n,
            m_post=self.m_post,
            case_label=self.case_label,
        )

    def _frozen_view(self) -> "AccumulatorState":
        """Shallow copy that answers as this state does now, whatever this
        state ingests later. Mutators rebind attributes, replace or append
        segments, drop or replace one segment's entry in the per-segment
        cache and clear the per-batch cache in place; they never write into
        a BatchStats, a spec or a cached value. So the copy needs only its
        own segment list, per-batch cache and outer per-segment cache. It
        keeps the cached values, so a query on it repeats no work done
        here."""
        view = copy.copy(self)
        view._segments = list(self._segments)
        view._cache = dict(self._cache)
        view._segment_cache = dict(self._segment_cache)
        return view

    def _covariance_or_none(self) -> np.ndarray | None:
        try:
            return self.asymptotic_covariance()
        except (InsufficientData, SingularMatrix):
            return None

    def naive_theta(self) -> np.ndarray:
        """Theta block of the plain OLS fit on the newest segment only."""
        if self.phase is Phase.PRE:
            raise PhaseMismatch("theta does not exist before the first event")
        newest = len(self._segments) - 1
        if self._segments[newest].n == 0:
            raise InsufficientData("the current segment has no data yet")
        eta = self._segment_fit(newest)
        if eta is None:
            raise SingularMatrix("the current segment's design is rank deficient")
        p, q = self.schema.p, self.schema.q
        return eta[p : p + q].copy()

    def update_sse(self) -> float:
        """Residual sum of squares of the weighted homogenized fit: the
        weighted response norm less its fitted part, both read from the
        per-segment sums."""
        return max(self.wyy - self._sse_quadratic(), 0.0)

    @_per_segment
    def _segment_fit(self, index: int) -> np.ndarray | None:
        """Coefficients of the plain OLS fit within one segment; None when
        its design is rank deficient."""
        lower = self._factor(index)
        if lower is None:
            return None
        return linalg.solve_cholesky(lower, self._full(index)[1])

    def _segment_residual_variance(self, index: int) -> float | None:
        """Residual variance of the plain OLS fit within one segment."""
        seg = self._segments[index]
        dim = seg.p + seg.q + seg.r
        if seg.n <= dim:
            return None
        eta = self._segment_fit(index)
        if eta is None:
            return None
        rss = seg.yty - float(self._full(index)[1] @ eta)
        return max(rss, 0.0) / (seg.n - dim)

    def asymptotic_covariance(self) -> np.ndarray:
        """Plug-in sandwich covariance of the coefficient estimate.

        Scaled to the estimate itself (the root-N normalization is divided
        back out). In the uncorrelated case the cross-group blocks are zero
        by construction.
        """
        n = self.n_total
        if n == 0:
            raise InsufficientData("no data ingested yet")
        segs = self._segments
        k = len(segs)
        bounds = self._bounds()
        sigma = self._segment_residual_variance(k - 1)
        if sigma is None:
            raise InsufficientData(
                "the newest segment is too small to estimate the error variance"
            )
        eta = self._solve_eta()

        # filled from the newest segment back, so block (g, h) ends up pooled
        # over segments >= max(g, h): exactly those that observe both groups
        moments = np.zeros((bounds[-1], bounds[-1]))
        for s in reversed(range(k)):
            width = bounds[s + 1]
            moments[:width, :width] = self._pooled_gram(s) / sum(seg.n for seg in segs[s:])

        # a segment too small for its own residual variance nests the next
        # segment's variance plus the part of the group it cannot observe
        sigmas = [sigma]
        for s in reversed(range(k - 1)):
            own = self._segment_residual_variance(s)
            if own is None:
                block = slice(bounds[s + 1], bounds[s + 2])
                own = float(eta[block] @ moments[block, block] @ eta[block]) + sigmas[0]
            sigmas.insert(0, own)

        fracs = np.array([seg.n for seg in segs], dtype=np.float64) / n
        grams = np.array(self.gram_weights())
        sigmas = np.array(sigmas)
        c_row = np.array([np.sum(fracs[g:] * grams[g:]) for g in range(k)])
        d_row = np.array([np.sum(fracs[g:] * grams[g:] ** 2 * sigmas[g:]) for g in range(k)])
        group = np.repeat(np.arange(k), np.diff(bounds))
        if self.case_label == CASE_UNCORRELATED:
            moments = np.where(group[:, None] == group[None, :], moments, 0.0)
        omega = c_row[group][:, None] * moments
        phi = d_row[np.maximum.outer(group, group)] * moments
        omega_inv = linalg.solve_general(omega, np.eye(bounds[-1]))
        cov = omega_inv @ phi @ omega_inv.T / n
        return linalg.symmetrize(cov)


# ----------------------------------------------------------------------
# operation-style aliases over the state methods
# ----------------------------------------------------------------------

def new_stream(
    schema: StreamSchema,
    weight_convention: str = GRAM_SQUARED,
    refine_maps: bool = True,
) -> AccumulatorState:
    """Fresh Phase.PRE state with zeroed accumulators."""
    return AccumulatorState(
        schema, weight_convention=weight_convention, refine_maps=refine_maps
    )


def ingest_pre_change(state: AccumulatorState, stats: BatchStats) -> AccumulatorState:
    return state.ingest_pre_change(stats)


def begin_update_phase(state: AccumulatorState, first_post_stats: BatchStats, **options) -> AccumulatorState:
    return state.begin_update_phase(first_post_stats, **options)


def ingest_post_change(state: AccumulatorState, stats: BatchStats) -> AccumulatorState:
    return state.ingest_post_change(stats)


def begin_second_update(state: AccumulatorState, first_post_stats: BatchStats, **options) -> AccumulatorState:
    return state.begin_second_update(first_post_stats, **options)


def estimate(state: AccumulatorState) -> EstimateReport:
    return state.estimate()


def naive_theta(state: AccumulatorState) -> np.ndarray:
    return state.naive_theta()


def update_sse(state: AccumulatorState) -> float:
    return state.update_sse()


def asymptotic_covariance(state: AccumulatorState) -> np.ndarray:
    return state.asymptotic_covariance()
