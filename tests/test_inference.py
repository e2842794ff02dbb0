"""F-distribution functions and the added-covariate test."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate

import hetstream as hs
from hetstream.errors import InvalidDegrees, PhaseMismatch

from helpers import (
    ar1_cov,
    oracle_f_factor,
    random_stream_case,
    rel_err,
    run_stream_case,
)


def f_density(x, d1, d2):
    from scipy.special import betaln

    logpdf = (
        0.5 * d1 * np.log(d1) + 0.5 * d2 * np.log(d2)
        + (0.5 * d1 - 1.0) * np.log(x)
        - 0.5 * (d1 + d2) * np.log(d2 + d1 * x)
        - betaln(0.5 * d1, 0.5 * d2)
    )
    return np.exp(logpdf)


def quad_cdf(x, d1, d2):
    """Adaptive-integration oracle for the F CDF."""
    val, _ = scipy.integrate.quad(f_density, 0.0, x, args=(d1, d2), limit=200)
    return val


class TestFCdf:
    def test_zero(self):
        assert hs.f_cdf(0.0, 3, 7) == 0.0
        assert hs.f_cdf(-1.0, 3, 7) == 0.0

    def test_equal_df_median(self):
        for d in (1, 2, 5, 40):
            assert hs.f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_against_integration_oracle(self):
        for x, d1, d2 in [
            (3.0422, 2, 198),
            (0.5, 1, 10),
            (2.3, 5, 30),
            (1.7, 3, 1000),
            (10.0, 2, 4),
        ]:
            assert hs.f_cdf(x, d1, d2) == pytest.approx(quad_cdf(x, d1, d2), abs=1e-6)

    def test_reference_point(self):
        # 95th percentile of F(2, 198) sits at about 3.0422
        assert hs.f_cdf(3.0422, 2, 198) == pytest.approx(0.95, abs=1e-4)

    def test_monotone(self):
        xs = np.linspace(0.0, 30.0, 400)
        vals = [hs.f_cdf(x, 4, 17) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_invalid_degrees(self):
        with pytest.raises(InvalidDegrees):
            hs.f_cdf(1.0, 0, 5)
        with pytest.raises(InvalidDegrees):
            hs.f_cdf(1.0, 2, -1)


class TestFQuantile:
    def test_equal_df_median(self):
        for d in (1, 3, 25):
            assert hs.f_quantile(0.5, d, d) == pytest.approx(1.0, rel=1e-10)

    def test_round_trip_grid(self):
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            for d1 in (1, 2, 3, 5):
                for d2 in (10, 100, 1000):
                    x = hs.f_quantile(p, d1, d2)
                    assert abs(hs.f_cdf(x, d1, d2) - p) <= 1e-8

    def test_reference_point(self):
        # the integration oracle puts the 95th percentile of F(2, 198)
        # at 3.04152
        x = hs.f_quantile(0.95, 2, 198)
        assert x == pytest.approx(3.04152, abs=1e-4)
        assert quad_cdf(x, 2, 198) == pytest.approx(0.95, abs=1e-6)

    def test_invalid_level(self):
        with pytest.raises(InvalidDegrees):
            hs.f_quantile(0.0, 2, 3)
        with pytest.raises(InvalidDegrees):
            hs.f_quantile(1.0, 2, 3)


def _phase1_state(rng, theta_scale=0.0, n=60, batches=5, p=3, q=2, uncorrelated=False):
    dim = p + q
    chol = np.linalg.cholesky(ar1_cov(dim))
    beta = rng.normal(size=p)
    theta = theta_scale * rng.normal(size=q)
    state = hs.new_stream(hs.StreamSchema(p))

    def draw():
        rows = rng.standard_normal((n, dim)) @ chol.T
        y = rows[:, :p] @ beta + rows[:, p:] @ theta + rng.normal(size=n)
        return hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p, q), z_rows=rows[:, p:])

    for _ in range(2):
        rows = rng.standard_normal((n, dim)) @ chol.T
        y = rows[:, :p] @ beta + rows[:, p:] @ theta + rng.normal(size=n)
        state.ingest_pre_change(hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p)))
    state.begin_update_phase(draw(), assume_uncorrelated=uncorrelated)
    for _ in range(batches - 1):
        state.ingest_post_change(draw())
    return state


class TestFStatistic:
    def test_report_invariants(self):
        rng = np.random.default_rng(201)
        state = _phase1_state(rng, theta_scale=1.0)
        report = hs.test_theta_zero(state, alpha=0.05)
        assert report.f_value >= 0.0
        assert report.df1 == 2
        assert report.df2 == state.n_total - 2
        assert report.reject == (report.f_value > hs.f_quantile(0.95, report.df1, report.df2))
        assert report.p_value == pytest.approx(1.0 - hs.f_cdf(report.f_value, report.df1, report.df2))

    def test_alpha_half_median_rule(self):
        rng = np.random.default_rng(202)
        state = _phase1_state(rng, theta_scale=0.0)
        report = hs.test_theta_zero(state, alpha=0.5)
        median = hs.f_quantile(0.5, report.df1, report.df2)
        assert report.reject == (report.f_value > median)

    def test_noiseless_nonzero_theta_is_degenerate_infinity(self):
        rng = np.random.default_rng(203)
        p, q = 2, 1
        x = rng.standard_normal((30, p))
        z = rng.standard_normal((30, q))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0])
        state = hs.new_stream(hs.StreamSchema(p))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state.begin_update_phase(hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z))
        report = hs.f_statistic(state)
        assert report.degenerate
        assert report.f_value == np.inf
        assert report.reject

    def test_zero_map_reduces_to_plain_factor(self):
        # with the projection forced to zero the coupled factor equals the
        # plain two-block factor exactly
        rng = np.random.default_rng(204)
        state = _phase1_state(rng, theta_scale=1.0, uncorrelated=True)
        factor = hs.numerator_factor(state)
        plain = state.v_z - state.v_xz.T @ np.linalg.solve(state.v_x, state.v_xz)
        assert rel_err(factor, plain) <= 1e-12

    def test_phase_errors(self):
        state = hs.new_stream(hs.StreamSchema(2))
        with pytest.raises(PhaseMismatch):
            hs.f_statistic(state)

    def test_classical_df_flag(self):
        rng = np.random.default_rng(205)
        state = _phase1_state(rng, theta_scale=1.0)
        paper = hs.f_statistic(state)
        classical = hs.f_statistic(state, denominator_df="classical")
        assert classical.df2 == paper.df2 - state.schema.p
        # same numerator, smaller df2: the statistic shrinks proportionally
        assert classical.f_value == pytest.approx(
            paper.f_value * classical.df2 / paper.df2, rel=1e-12
        )


class TestNumeratorRecursion:
    def test_factor_matches_direct_assembly_on_streams(self):
        rng = np.random.default_rng(206)
        checked = 0
        for _ in range(10):
            case = random_stream_case(rng, allow_second=False)

            def check(state, raw, j):
                nonlocal checked
                if state.phase is not hs.Phase.ONE:
                    return
                try:
                    engine_factor = hs.numerator_factor(state)
                except hs.SingularMatrix:
                    return
                direct = oracle_f_factor(state, raw)
                assert rel_err(engine_factor, direct) <= 1e-8
                checked += 1

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_stream_case(case, check)
        assert checked > 40


class TestNullDistribution:
    def test_mean_near_one_under_null(self):
        # zero-map statistic is exactly calibrated under the null; moderate
        # Monte Carlo smoke, the acceptance suite runs the full calibration
        fs = []
        for rep in range(120):
            rng = np.random.default_rng((99, rep))
            state = _phase1_state(rng, theta_scale=0.0, n=80, batches=5, uncorrelated=True)
            fs.append(hs.f_statistic(state).f_value)
        assert 0.8 <= np.mean(fs) <= 1.25


def test_scipy_special_is_imported_on_first_use():
    # importing the package and its CLI skips scipy.special (several MB of
    # resident memory); the first F-distribution call loads it
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import hetstream, hetstream.cli",
        "assert 'scipy.special' not in sys.modules",
        "rng = np.random.default_rng(0)",
        "x, z = rng.standard_normal((40, 2)), rng.standard_normal((40, 1))",
        "y = x @ [1.0, -1.0] + z[:, 0] + rng.standard_normal(40)",
        "state = hetstream.new_stream(hetstream.StreamSchema(2))",
        "state.ingest_pre_change(hetstream.compress_batch(x, y, hetstream.StreamSchema(2)))",
        "schema = hetstream.StreamSchema(2, 1)",
        "state.begin_update_phase(hetstream.compress_batch(x, y, schema, z_rows=z))",
        "hetstream.test_theta_zero(state)",
        "assert 'scipy.special' in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
