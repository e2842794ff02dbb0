"""Engine tests: phase transitions, estimator identities, SSE recursion."""

import warnings

import numpy as np
import pytest

import hetstream as hs
from hetstream import io
from hetstream.batchstats import BatchStats
from hetstream.engine import (
    GRAM_SQUARED,
    NON_RANDOM,
    PAPER_LINEAR,
    HomogenizationMap,
    SecondWeightSpec,
    WeightSpec,
)
from hetstream.errors import (
    DimensionMismatch,
    InsufficientData,
    PhaseMismatch,
    SingularMatrix,
)

from helpers import (
    StreamCase,
    ar1_cov,
    oracle_one_shot,
    oracle_sse_direct,
    random_stream_case,
    rel_err,
    run_stream_case,
)

P2 = hs.StreamSchema(2)
UNIT_OVERRIDES = dict(sigma0_sq=1.0, theta0=np.zeros(1), e0_zz=np.eye(1))


def _xz_schema(p, q):
    return hs.StreamSchema(p, q)


class TestNewStream:
    def test_zero_state(self):
        state = hs.new_stream(P2)
        assert state.n_total == 0
        np.testing.assert_allclose(state.v_x, np.zeros((2, 2)))
        assert state.phase is hs.Phase.PRE

    def test_fresh_estimate_raises(self):
        with pytest.raises(InsufficientData):
            hs.new_stream(hs.StreamSchema(5)).estimate()

    def test_bad_convention(self):
        with pytest.raises(hs.InvalidConfig):
            hs.new_stream(P2, weight_convention="quadratic")


class TestPreChange:
    def test_exact_interpolation(self):
        state = hs.new_stream(hs.StreamSchema(1))
        state.ingest_pre_change(
            hs.compress_batch([[1.0], [-1.0]], [2.0, -2.0], hs.StreamSchema(1))
        )
        np.testing.assert_allclose(state.estimate().beta, [2.0])

    def test_pooled_ols_oracle(self):
        rng = np.random.default_rng(31)
        state = hs.new_stream(hs.StreamSchema(3))
        xs, ys = [], []
        for _ in range(3):
            x = rng.standard_normal((25, 3))
            y = x @ np.array([1.0, 2.0, -0.5]) + rng.normal(size=25)
            xs.append(x)
            ys.append(y)
            state.ingest_pre_change(hs.compress_batch(x, y, hs.StreamSchema(3)))
        pooled_x, pooled_y = np.vstack(xs), np.concatenate(ys)
        oracle = np.linalg.solve(pooled_x.T @ pooled_x, pooled_x.T @ pooled_y)
        assert rel_err(state.estimate().beta, oracle) <= 1e-10

    def test_duplicate_batch_is_fixed_point(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((20, 2))
        y = x @ np.array([1.0, -1.0]) + rng.normal(size=20)
        stats = hs.compress_batch(x, y, P2)
        state = hs.new_stream(P2).ingest_pre_change(stats)
        before = state.estimate().beta
        state.ingest_pre_change(stats)
        np.testing.assert_allclose(state.estimate().beta, before, rtol=1e-12)

    def test_wrong_phase_tag(self):
        rng = np.random.default_rng(33)
        stats = hs.compress_batch(
            rng.standard_normal((10, 2)), rng.standard_normal(10),
            hs.StreamSchema(2, 1), z_rows=rng.standard_normal((10, 1)),
        )
        with pytest.raises(PhaseMismatch):
            hs.new_stream(P2).ingest_pre_change(stats)


class TestBeginUpdate:
    def _pre_state(self, rng, p=2, n=40):
        state = hs.new_stream(hs.StreamSchema(p))
        x = rng.standard_normal((n, p))
        y = x @ np.arange(1.0, p + 1.0) + rng.normal(size=n)
        return state.ingest_pre_change(hs.compress_batch(x, y, hs.StreamSchema(p)))

    def test_z_equals_x_gives_identity_map(self):
        rng = np.random.default_rng(41)
        state = self._pre_state(rng)
        x = rng.standard_normal((30, 2))
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=30)
        stats = hs.compress_batch(x, y, hs.StreamSchema(2, 2), z_rows=x)
        state.begin_update_phase(stats, sigma0_sq=1.0, theta0=np.zeros(2), e0_zz=np.eye(2))
        np.testing.assert_allclose(state.homog.b_hat, np.eye(2), atol=1e-10)

    def test_orthogonal_xz_gives_zero_map(self):
        rng = np.random.default_rng(42)
        state = self._pre_state(rng)
        x = rng.standard_normal((30, 2))
        # orthogonalize z against x exactly
        z = rng.standard_normal((30, 1))
        z = z - x @ np.linalg.solve(x.T @ x, x.T @ z)
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=30)
        stats = hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z)
        state.begin_update_phase(stats, **UNIT_OVERRIDES)
        np.testing.assert_allclose(state.homog.b_hat, 0.0, atol=1e-12)
        # the label records the modeling choice, not the numeric value
        assert state.case_label == "correlated"
        forced = hs.new_stream(P2)
        x2 = np.random.default_rng(1).standard_normal((30, 2))
        y2 = x2 @ np.array([1.0, 2.0])
        forced.ingest_pre_change(hs.compress_batch(x2, y2, P2))
        forced.begin_update_phase(stats, assume_uncorrelated=True, **UNIT_OVERRIDES)
        assert forced.case_label == "uncorrelated"

    def test_projection_matches_closed_form(self):
        # AR(1)(0.5), p=2, q=1: population projection is (0, 0.5)
        rng = np.random.default_rng(43)
        state = self._pre_state(rng)
        chol = np.linalg.cholesky(ar1_cov(3))
        rows = rng.standard_normal((10_000, 3)) @ chol.T
        y = rows[:, :2] @ np.array([1.0, -1.0]) + rows[:, 2] * 2.0 + rng.normal(size=10_000)
        stats = hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1), z_rows=rows[:, 2:])
        state.begin_update_phase(stats)
        np.testing.assert_allclose(state.homog.b_hat.ravel(), [0.0, 0.5], atol=0.05)

    def test_small_event_batch_reports_requirement(self):
        rng = np.random.default_rng(44)
        state = self._pre_state(rng)
        stats = hs.compress_batch(
            rng.standard_normal((2, 2)), rng.standard_normal(2),
            hs.StreamSchema(2, 1), z_rows=rng.standard_normal((2, 1)),
        )
        with pytest.raises(SingularMatrix, match="at least"):
            state.begin_update_phase(stats)

    def test_double_event_rejected(self):
        rng = np.random.default_rng(45)
        state = self._pre_state(rng)
        x = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 1))
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=30)
        stats = hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z)
        state.begin_update_phase(stats, **UNIT_OVERRIDES)
        with pytest.raises(PhaseMismatch):
            state.begin_update_phase(stats)


class TestPostChange:
    def test_noiseless_exact_recovery(self):
        # post-change data only (empty pre segment): plain least squares
        rng = np.random.default_rng(51)
        x = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 1))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0])
        state = hs.new_stream(P2)
        state.begin_update_phase(
            hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z), **UNIT_OVERRIDES
        )
        report = state.estimate()
        np.testing.assert_allclose(report.beta, [1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(report.theta, [2.0], atol=1e-10)
        assert state.update_sse() <= 1e-8 * max(float(y @ y), 1.0)

    def test_merge_equivalence(self):
        rng = np.random.default_rng(52)
        schema = hs.StreamSchema(2, 1)

        def draw(n):
            x = rng.standard_normal((n, 2))
            z = rng.standard_normal((n, 1))
            y = x @ np.array([1.0, -1.0]) + z @ np.array([0.5]) + rng.normal(size=n)
            return hs.compress_batch(x, y, schema, z_rows=z)

        event = draw(30)
        b1, b2 = draw(15), draw(20)
        state_a = hs.new_stream(P2).begin_update_phase(event, **UNIT_OVERRIDES)
        state_a.ingest_post_change(b1).ingest_post_change(b2)
        state_b = hs.new_stream(P2).begin_update_phase(event, **UNIT_OVERRIDES)
        state_b.ingest_post_change(hs.merge(b1, b2))
        assert rel_err(state_a.estimate().coefficients, state_b.estimate().coefficients) <= 1e-10
        assert state_a.update_sse() == pytest.approx(state_b.update_sse(), rel=1e-8)

    def test_zero_variance_z_is_singular(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((30, 2))
        z = np.zeros((30, 1))
        y = x @ np.array([1.0, -1.0]) + rng.normal(size=30)
        state = hs.new_stream(P2)
        state.begin_update_phase(
            hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z), **UNIT_OVERRIDES
        )
        with pytest.raises(SingularMatrix):
            state.estimate()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(54)
        schema = hs.StreamSchema(2, 1)

        def draw(n):
            x = rng.standard_normal((n, 2))
            z = rng.standard_normal((n, 1))
            y = x @ np.array([1.0, -1.0]) + z @ np.array([0.5]) + rng.normal(size=n)
            return hs.compress_batch(x, y, schema, z_rows=z)

        event = draw(25)
        later = [draw(12) for _ in range(4)]

        def final_estimate(order):
            state = hs.new_stream(P2).begin_update_phase(event)
            for idx in order:
                state.ingest_post_change(later[idx])
            return state.estimate().coefficients

        base = final_estimate([0, 1, 2, 3])
        perm = final_estimate([3, 0, 2, 1])
        assert rel_err(base, perm) <= 1e-10


class TestRandomStreamIdentities:
    """Smaller version of the acceptance sweep, run per unit-test budget."""

    def test_online_equals_one_shot_and_sse_direct(self):
        rng = np.random.default_rng(2025)
        compared = 0
        for _ in range(25):
            case = random_stream_case(rng)

            def check(state, raw, j):
                nonlocal compared
                try:
                    engine_eta = state.eta_tilde
                except (InsufficientData, SingularMatrix):
                    return
                try:
                    oracle_eta, (a, rhs) = oracle_one_shot(state, raw, return_system=True)
                except np.linalg.LinAlgError:
                    return
                # the assembled systems must agree at every solvable step
                a_eng, rhs_eng = state._system()
                assert rel_err(a_eng, a) <= 1e-10
                assert rel_err(rhs_eng, rhs) <= 1e-10
                # the solve itself is only 1e-8-comparable when conditioning
                # leaves that many digits
                if np.linalg.cond(a) < 1e8:
                    assert rel_err(engine_eta, oracle_eta) <= 1e-8
                    sse_direct = oracle_sse_direct(state, raw)
                    # both routes subtract ~wyy-sized quantities: allow a
                    # cancellation floor on top of the relative tolerance
                    tol = 1e-8 * abs(sse_direct) + 1e-11 * max(state.wyy, 1.0)
                    assert abs(state.update_sse() - sse_direct) <= tol
                    compared += 1

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_stream_case(case, check)
        assert compared > 100

    def test_two_term_recursion_matches_accumulate_then_solve(self):
        # per-batch form: every post batch large enough to solve on its own
        rng = np.random.default_rng(77)
        for trial in range(8):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            k = int(rng.integers(0, 4))
            n_post = int(rng.integers(4, 9))
            dim = p + q
            chol = np.linalg.cholesky(ar1_cov(dim))
            truth = rng.normal(size=dim)
            # the per-batch two-term recursion presumes a fixed projection
            state = hs.new_stream(hs.StreamSchema(p), refine_maps=False)
            pre_x, pre_y = [], []
            for _ in range(k):
                n = int(rng.integers(p + 2, p + 20))
                rows = rng.standard_normal((n, dim)) @ chol.T
                y = rows @ truth + rng.normal(size=n)
                pre_x.append(rows[:, :p])
                pre_y.append(y)
                state.ingest_pre_change(hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p)))

            # frozen pre-change block for the recursion start
            post_batches = []
            for _ in range(n_post):
                n = int(rng.integers(dim + 5, dim + 25))
                rows = rng.standard_normal((n, dim)) @ chol.T
                y = rows @ truth + rng.normal(size=n)
                post_batches.append((rows[:, :p], rows[:, p:], y))

            x0, z0, y0 = post_batches[0]
            state.begin_update_phase(
                hs.compress_batch(x0, y0, hs.StreamSchema(p, q), z_rows=z0)
            )
            g0, g1 = state.gram_weights()
            b_hat = state.homog.b_hat
            if pre_x:
                sxx = np.vstack(pre_x).T @ np.vstack(pre_x)
                beta0 = np.linalg.solve(sxx, np.vstack(pre_x).T @ np.concatenate(pre_y))
            else:
                sxx = np.zeros((p, p))
                beta0 = np.zeros(p)
            a_prev = np.block(
                [
                    [g0 * sxx, g0 * sxx @ b_hat],
                    [np.zeros((q, p)), np.zeros((q, q))],
                ]
            )
            eta_prev = np.concatenate([beta0, np.zeros(q)])

            for idx, (x, z, y) in enumerate(post_batches):
                if idx > 0:
                    state.ingest_post_change(
                        hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z)
                    )
                design = np.hstack([x, z])
                w_j = g1 * design.T @ design
                rhs_j = g1 * design.T @ y
                eta_batch = np.linalg.solve(w_j, rhs_j)
                a_new = a_prev + w_j
                eta_new = np.linalg.solve(a_new, w_j @ eta_batch + a_prev @ eta_prev)
                assert rel_err(state.eta_tilde, eta_new) <= 1e-8
                a_prev, eta_prev = a_new, eta_new

    def test_case_reduction_with_forced_zero_map(self):
        # forcing the projection to zero must reproduce the plain two-block
        # system bit for bit, even on correlated data
        rng = np.random.default_rng(88)
        p, q = 3, 2
        dim = p + q
        chol = np.linalg.cholesky(ar1_cov(dim))
        truth = rng.normal(size=dim)
        state = hs.new_stream(hs.StreamSchema(p))
        pre_rows = rng.standard_normal((60, dim)) @ chol.T
        pre_y = pre_rows @ truth + rng.normal(size=60)
        state.ingest_pre_change(hs.compress_batch(pre_rows[:, :p], pre_y, hs.StreamSchema(p)))
        overrides = dict(sigma0_sq=1.3, theta0=truth[p:], e0_zz=ar1_cov(q))
        state.begin_update_phase(
            _stats_from(rng, chol, truth, p, q, 40), assume_uncorrelated=True, **overrides
        )
        for _ in range(3):
            state.ingest_post_change(_stats_from(rng, chol, truth, p, q, 30))

        g0, g1 = state.gram_weights()
        s0, s1 = state._segments
        plain = np.block(
            [
                [g0 * s0.xtx + g1 * s1.xtx, g1 * s1.xtz],
                [g1 * s1.xtz.T, g1 * s1.ztz],
            ]
        )
        rhs = np.concatenate([g0 * s0.xty + g1 * s1.xty, g1 * s1.zty])
        reference = np.linalg.solve(plain, rhs)
        assert rel_err(state.eta_tilde, reference) <= 1e-12


def _stats_from(rng, chol, truth, p, q, n):
    rows = rng.standard_normal((n, p + q)) @ chol.T
    y = rows @ truth + rng.normal(size=n)
    return hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p, q), z_rows=rows[:, p:])


class TestSse:
    def test_noiseless_stream_is_zero(self):
        rng = np.random.default_rng(91)
        p, q = 2, 1
        state = hs.new_stream(hs.StreamSchema(p))
        # pre-change data generated from the x-only model so it stays noiseless
        x = rng.standard_normal((25, p))
        y = x @ np.array([1.0, -1.0])
        state.ingest_pre_change(hs.compress_batch(x, y, hs.StreamSchema(p)))
        x = rng.standard_normal((25, p))
        z = rng.standard_normal((25, q))
        y = x @ np.array([1.0, -1.0])  # theta = 0 keeps homogenized residuals zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state.begin_update_phase(hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z))
        assert state.update_sse() <= 1e-8 * max(state.wyy, 1.0)

    def test_single_post_batch_base_case(self):
        rng = np.random.default_rng(92)
        p, q = 2, 1
        x = rng.standard_normal((40, p))
        z = rng.standard_normal((40, q))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0]) + rng.normal(size=40)
        state = hs.new_stream(hs.StreamSchema(p))
        state.begin_update_phase(
            hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z),
            sigma0_sq=2.0, theta0=np.array([2.0]), e0_zz=np.eye(1),
        )
        w2 = state.weights.w2
        design = np.hstack([x, z])
        eta = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ eta
        direct = w2 * w2 * float(resid @ resid)
        assert state.update_sse() == pytest.approx(direct, rel=1e-8)


class TestCovariance:
    def test_rho_one_theta_block_identity(self):
        # all-post stream: theta block equals sigma^2 (E[zz'])^{-1} / M
        rng = np.random.default_rng(101)
        p, q = 2, 1
        schema = hs.StreamSchema(p, q)
        state = hs.new_stream(hs.StreamSchema(p))
        batches = []
        for i in range(5):
            x = rng.standard_normal((60, p))
            z = rng.standard_normal((60, q))
            y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0]) + rng.normal(size=60)
            batches.append((x, z, y))
            stats = hs.compress_batch(x, y, schema, z_rows=z)
            if i == 0:
                state.begin_update_phase(stats, assume_uncorrelated=True)
            else:
                state.ingest_post_change(stats)
        cov = state.asymptotic_covariance()
        m = state.m_post
        design = np.hstack([np.vstack([b[0] for b in batches]), np.vstack([b[1] for b in batches])])
        yall = np.concatenate([b[2] for b in batches])
        eta = np.linalg.lstsq(design, yall, rcond=None)[0]
        rss = float((yall - design @ eta) @ (yall - design @ eta))
        sigma_hat = rss / (m - p - q)
        ezz = np.vstack([b[1] for b in batches]).T @ np.vstack([b[1] for b in batches]) / m
        expected = sigma_hat * np.linalg.inv(ezz) / m
        np.testing.assert_allclose(cov[p:, p:], expected, rtol=1e-8)

    def test_uncorrelated_case_block_diagonal(self):
        rng = np.random.default_rng(102)
        p, q = 2, 1
        case = StreamCase(
            p=p, q=q, r=0, k=3, m=0, batch_sizes=[30] * 8, sigma=1.0,
            convention=GRAM_SQUARED, overrides=True, uncorrelated=True, seed=5,
        )
        state, _ = run_stream_case(case, lambda *a: None)
        cov = state.asymptotic_covariance()
        np.testing.assert_allclose(cov[:p, p:], 0.0, atol=1e-15)

    def test_plugin_calibrated_under_linear_convention(self):
        # thinner Monte Carlo than the acceptance run, wider margin
        from hetstream.simlab import SimConfig, drive_stream

        cfg = SimConfig(
            p=2, q=1, beta=(1.0, -1.0), theta=(1.0,), sigma_sq=2.0,
            n=100, k=10, j_max=20, corr_case="uncorrelated",
            replications=250, seed=3, oracle_weights=True,
            weight_convention=PAPER_LINEAR,
        )
        etas, covs = [], []
        for rep in range(cfg.replications):
            report = drive_stream(cfg, rep, (20,), methods=("AUE",))[("AUE", 20)]
            etas.append(np.concatenate([report.beta, report.theta]))
            covs.append(report.cov_plugin)
        emp = np.cov(np.array(etas).T)
        plug = np.mean(covs, axis=0)
        assert np.linalg.norm(emp - plug) / np.linalg.norm(plug) <= 0.35

    def test_report_carries_covariance(self):
        rng = np.random.default_rng(103)
        case = StreamCase(
            p=2, q=1, r=0, k=2, m=0, batch_sizes=[25] * 6, sigma=1.0,
            convention=PAPER_LINEAR, overrides=False, uncorrelated=False, seed=9,
        )
        state, _ = run_stream_case(case, lambda *a: None)
        report = state.estimate()
        assert report.cov_plugin is not None
        assert report.cov_plugin.shape == (3, 3)
        np.testing.assert_allclose(report.cov_plugin, report.cov_plugin.T)


class TestPreChangeTarget:
    def test_pre_change_estimator_drifts_to_shifted_target(self):
        # on correlated designs the x-only estimator converges to beta + B theta
        rng = np.random.default_rng(111)
        p, q = 2, 1
        beta = np.array([1.0, -1.0])
        theta = np.array([2.0])
        b_population = np.array([0.0, 0.5])  # AR(1)(0.5) closed form
        chol = np.linalg.cholesky(ar1_cov(p + q))
        state = hs.new_stream(hs.StreamSchema(p))
        for _ in range(10):
            rows = rng.standard_normal((1000, p + q)) @ chol.T
            y = rows[:, :p] @ beta + rows[:, p:] @ theta + rng.normal(size=1000)
            state.ingest_pre_change(hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p)))
        target = beta + b_population * theta
        assert np.max(np.abs(state.estimate().beta - target)) < 0.05
        # and it is NOT close to beta itself
        assert np.max(np.abs(state.estimate().beta - beta)) > 0.5


class TestNaiveTheta:
    def test_single_noiseless_batch_exact(self):
        rng = np.random.default_rng(121)
        x = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 1))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0])
        state = hs.new_stream(P2)
        state.begin_update_phase(
            hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z), **UNIT_OVERRIDES
        )
        np.testing.assert_allclose(state.naive_theta(), [2.0], atol=1e-10)

    def test_consistency_large_sample(self):
        rng = np.random.default_rng(122)
        p, q = 2, 2
        theta = np.array([1.0, -1.0])
        chol = np.linalg.cholesky(ar1_cov(p + q))
        state = hs.new_stream(hs.StreamSchema(p))
        schema = hs.StreamSchema(p, q)
        for i in range(10):
            rows = rng.standard_normal((1000, p + q)) @ chol.T
            y = rows[:, :p] @ np.array([1.0, -1.0]) + rows[:, p:] @ theta + rng.normal(size=1000)
            stats = hs.compress_batch(rows[:, :p], y, schema, z_rows=rows[:, p:])
            if i == 0:
                state.begin_update_phase(stats)
            else:
                state.ingest_post_change(stats)
        np.testing.assert_allclose(state.naive_theta(), theta, atol=0.05)

    def test_phase_errors(self):
        state = hs.new_stream(P2)
        with pytest.raises(PhaseMismatch):
            state.naive_theta()


class TestOperationAliases:
    def test_module_level_ops_drive_a_stream(self):
        rng = np.random.default_rng(141)
        chol = np.linalg.cholesky(ar1_cov(3))
        truth = np.array([1.0, -1.0, 0.5])
        state = hs.new_stream(P2)
        rows = rng.standard_normal((30, 3)) @ chol.T
        y = rows @ truth + rng.normal(size=30)
        hs.ingest_pre_change(state, hs.compress_batch(rows[:, :2], y, P2))
        rows = rng.standard_normal((40, 3)) @ chol.T
        y = rows @ truth + rng.normal(size=40)
        hs.begin_update_phase(
            state, hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1), z_rows=rows[:, 2:])
        )
        rows = rng.standard_normal((40, 3)) @ chol.T
        y = rows @ truth + rng.normal(size=40)
        hs.ingest_post_change(
            state, hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1), z_rows=rows[:, 2:])
        )
        report = hs.estimate(state)
        assert report.theta is not None
        np.testing.assert_allclose(hs.naive_theta(state), state.naive_theta())
        assert hs.update_sse(state) == state.update_sse()
        np.testing.assert_allclose(hs.asymptotic_covariance(state), state.asymptotic_covariance())


class TestSecondUpdate:
    def test_orthogonal_w_reduces_to_first_phase_plus_block(self):
        rng = np.random.default_rng(131)
        p, q, r = 2, 1, 1
        x = rng.standard_normal((40, p))
        z = rng.standard_normal((40, q))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0]) + rng.normal(size=40)
        state = hs.new_stream(hs.StreamSchema(p))
        state.begin_update_phase(hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z))
        x2 = rng.standard_normal((50, p))
        z2 = rng.standard_normal((50, q))
        w2 = rng.standard_normal((50, r))
        xz = np.hstack([x2, z2])
        w2 = w2 - xz @ np.linalg.solve(xz.T @ xz, xz.T @ w2)  # exact orthogonality
        y2 = x2 @ np.array([1.0, -1.0]) + z2 @ np.array([2.0]) + w2 @ np.array([0.5]) + rng.normal(size=50)
        state.begin_second_update(
            hs.compress_batch(x2, y2, hs.StreamSchema(p, q, r), z_rows=z2, w_rows=w2)
        )
        np.testing.assert_allclose(state.homog.c_hat, 0.0, atol=1e-12)
        np.testing.assert_allclose(state.homog.d_hat, 0.0, atol=1e-12)

    def test_noiseless_three_phase_exact_recovery(self):
        # exactly orthogonalized segments make the estimating equations
        # interpolate: all three coefficient groups recovered exactly
        rng = np.random.default_rng(132)
        p, q, r = 2, 1, 1
        beta = np.array([1.0, -1.0])
        theta = np.array([2.0])
        gamma = np.array([0.5])

        def orth(a, b):
            return b - a @ np.linalg.solve(a.T @ a, a.T @ b)

        x0 = rng.standard_normal((30, p))
        z0 = orth(x0, rng.standard_normal((30, q)))
        w0 = orth(np.hstack([x0, z0]), rng.standard_normal((30, r)))
        y0 = x0 @ beta + z0 @ theta + w0 @ gamma
        state = hs.new_stream(hs.StreamSchema(p))
        state.ingest_pre_change(hs.compress_batch(x0, y0, hs.StreamSchema(p)))

        x1 = rng.standard_normal((30, p))
        z1 = rng.standard_normal((30, q))
        w1 = orth(np.hstack([x1, z1]), rng.standard_normal((30, r)))
        y1 = x1 @ beta + z1 @ theta + w1 @ gamma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state.begin_update_phase(
                hs.compress_batch(x1, y1, hs.StreamSchema(p, q), z_rows=z1),
                assume_uncorrelated=True, sigma0_sq=1.0, theta0=theta, e0_zz=np.eye(q),
            )
            x2 = rng.standard_normal((30, p))
            z2 = rng.standard_normal((30, q))
            w2 = rng.standard_normal((30, r))
            y2 = x2 @ beta + z2 @ theta + w2 @ gamma
            state.begin_second_update(
                hs.compress_batch(x2, y2, hs.StreamSchema(p, q, r), z_rows=z2, w_rows=w2),
                sigma0_sq=1.0, gamma0=gamma, theta0=theta, e0_ww=np.eye(r), e0_zz=np.eye(q),
                assume_uncorrelated=True,
            )
        report = state.estimate()
        np.testing.assert_allclose(report.beta, beta, atol=1e-9)
        np.testing.assert_allclose(report.theta, theta, atol=1e-9)
        np.testing.assert_allclose(report.gamma, gamma, atol=1e-9)

    def test_requires_phase_one(self):
        rng = np.random.default_rng(133)
        state = hs.new_stream(P2)
        stats = hs.compress_batch(
            rng.standard_normal((20, 2)), rng.standard_normal(20),
            hs.StreamSchema(2, 1, 1), z_rows=rng.standard_normal((20, 1)),
            w_rows=rng.standard_normal((20, 1)),
        )
        with pytest.raises(PhaseMismatch):
            state.begin_second_update(stats)


class TestFactorReuse:
    """The newest segment's Cholesky factor serves its maps' leading-block
    fits and its own fit; frozen segments keep their factors across
    batches. These pin the edges of that sharing."""

    P, Q, R = 2, 1, 2

    def _batch(self, rng, n, groups):
        p, q = self.P, self.Q
        x = rng.standard_normal((n, p))
        z = x @ np.array([[0.5], [-0.3]]) + rng.standard_normal((n, q))
        w1 = x @ np.array([0.2, 0.1]) + 0.4 * z[:, 0] + rng.standard_normal(n)
        y = x @ np.array([1.0, -1.0]) + 2.0 * z[:, 0] + 0.5 * w1 + rng.normal(size=n)
        if groups == 1:
            return hs.compress_batch(x, y, hs.StreamSchema(p))
        if groups == 2:
            return hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z)
        # two identical w columns: the (x, z, w) Gram is singular
        w = np.column_stack([w1, w1])
        return hs.compress_batch(x, y, hs.StreamSchema(p, q, self.R), z_rows=z, w_rows=w)

    def test_singular_newest_gram_still_fits_its_maps(self):
        # the full factor fails the pivot rule, so C and D fall back to
        # factoring their own leading blocks, which are well conditioned
        rng = np.random.default_rng(140)
        p, q, r = self.P, self.Q, self.R
        state = hs.new_stream(hs.StreamSchema(p))
        state.ingest_pre_change(self._batch(rng, 30, 1))
        state.begin_update_phase(self._batch(rng, 30, 2))
        state.ingest_post_change(self._batch(rng, 30, 2))
        two = [self._batch(rng, 25, 3) for _ in range(3)]
        with pytest.raises(SingularMatrix, match="rank deficient"):
            state.begin_second_update(two[0])
        state.begin_second_update(
            two[0], sigma0_sq=1.0, gamma0=np.zeros(r), theta0=np.zeros(q),
            e0_ww=np.eye(r), e0_zz=np.eye(q),
        )
        for stats in two[1:]:
            state.ingest_post_change(stats)
        gram = sum(stats.full_gram() for stats in two)
        maps = state.current_maps()
        w_cols = slice(p + q, p + q + r)
        np.testing.assert_allclose(
            maps.c_hat, np.linalg.solve(gram[:p, :p], gram[:p, w_cols]), rtol=1e-12
        )
        np.testing.assert_allclose(
            maps.d_hat, np.linalg.solve(gram[: p + q, : p + q], gram[: p + q, w_cols]),
            rtol=1e-12,
        )
        with pytest.raises(SingularMatrix):
            state.naive_theta()
        # the gamma block of the bordered system is singular too
        with pytest.raises(SingularMatrix):
            state.estimate()
        assert np.isfinite(state.update_sse()) and state.update_sse() > 0.0

    def test_rank_deficient_pre_design_raises(self):
        rng = np.random.default_rng(141)
        x = rng.standard_normal((20, 1))
        x = np.hstack([x, 2.0 * x])
        y = x[:, 0] + rng.normal(size=20)
        state = hs.new_stream(P2)
        state.ingest_pre_change(hs.compress_batch(x, y, P2))
        with pytest.raises(SingularMatrix):
            state.estimate()
        with pytest.raises(SingularMatrix):
            _ = state.eta_tilde
        # the residual sum falls back to a least-squares solve
        resid = y - x @ np.linalg.lstsq(x, y, rcond=None)[0]
        assert state.update_sse() == pytest.approx(resid @ resid, rel=1e-9)

    def test_reload_mid_phase_two_matches_warm_state(self, tmp_path):
        # the warm state keeps the frozen segments' factors and fits from
        # earlier batches; a reloaded state starts with no cache at all
        rng = np.random.default_rng(142)
        p, q, r = self.P, self.Q, 1
        dim = p + q + r
        warm = hs.new_stream(hs.StreamSchema(p))

        def rows(n):
            a = rng.standard_normal((n, dim)) @ np.linalg.cholesky(ar1_cov(dim)).T
            y = a @ np.linspace(1.0, -1.0, dim) + rng.normal(size=n)
            return a[:, :p], a[:, p : p + q], a[:, p + q :], y

        def answers(state):
            report = state.estimate()
            maps = state.current_maps()
            return [
                report.coefficients, report.theta_naive, report.cov_plugin,
                state.update_sse(), maps.b_hat, maps.c_hat, maps.d_hat,
            ]

        for j in range(1, 13):
            x, z, w, y = rows(20)
            if j <= 3:
                warm.ingest_pre_change(hs.compress_batch(x, y, hs.StreamSchema(p)))
            elif j <= 7:
                stats = hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z)
                if j == 4:
                    warm.begin_update_phase(stats)
                else:
                    warm.ingest_post_change(stats)
            else:
                stats = hs.compress_batch(x, y, hs.StreamSchema(p, q, r), z_rows=z, w_rows=w)
                if j == 8:
                    warm.begin_second_update(stats)
                else:
                    warm.ingest_post_change(stats)
            warm.estimate()
        assert warm.phase is hs.Phase.TWO
        io.save_state(warm, tmp_path / "state.npz")
        cold = io.load_state(tmp_path / "state.npz")
        for got, expected in zip(answers(cold), answers(warm)):
            np.testing.assert_array_equal(got, expected)


class TestWeightChoices:
    """Shapes and definiteness of the weight choices, checked once for
    either event, and the segment variances the one rule gives."""

    def _one_state(self, rng, p=2, q=1):
        x = rng.standard_normal((40, p))
        z = rng.standard_normal((40, q))
        y = x @ np.ones(p) + z @ np.ones(q) + rng.normal(size=40)
        state = hs.new_stream(hs.StreamSchema(p))
        state.begin_update_phase(hs.compress_batch(x, y, hs.StreamSchema(p, q), z_rows=z))
        return state

    def test_nested_variances(self):
        spec = hs.SecondWeightSpec(
            sigma0_sq=1.0, gamma0=[2.0], theta0=[1.0, 1.0], e0_ww=[[0.5]], e0_zz=np.eye(2),
        )
        assert spec.variances == (5.0, 3.0, 1.0)
        assert hs.WeightSpec(sigma0_sq=2.0, theta0=[3.0], e0_zz=[[1.0]]).variances == (11.0, 2.0)

    def test_scalar_theta0_for_one_column(self):
        spec = hs.WeightSpec(sigma0_sq=1.0, theta0=2.0, e0_zz=[[1.0]])
        assert spec.theta0.shape == (1,)
        assert spec.variances == (5.0, 1.0)

    @pytest.mark.parametrize("spec", [
        lambda: hs.WeightSpec(sigma0_sq=1.0, theta0=[1.0, 2.0], e0_zz=[[1.0]]),
        lambda: hs.SecondWeightSpec(
            sigma0_sq=1.0, gamma0=np.ones(3), theta0=[1.0], e0_ww=np.eye(2), e0_zz=[[1.0]]),
    ], ids=["theta0 of 2 with 1x1 e0_zz", "gamma0 of 3 with 2x2 e0_ww"])
    def test_moment_must_match_its_coefficients(self, spec):
        with pytest.raises(DimensionMismatch):
            spec()

    @pytest.mark.parametrize("choices", [
        dict(sigma0_sq=np.nan, theta0=[0.0], e0_zz=[[1.0]]),
        dict(sigma0_sq=1.0, theta0=[np.nan], e0_zz=[[1.0]]),
    ], ids=["sigma0_sq", "theta0"])
    def test_nan_choices_rejected(self, choices):
        with pytest.raises(hs.InvalidConfig):
            hs.WeightSpec(**choices)

    def test_first_event_choices_must_fit_the_group(self):
        rng = np.random.default_rng(140)
        x = rng.standard_normal((40, 2))
        z = rng.standard_normal((40, 1))
        stats = hs.compress_batch(x, x[:, 0] + z[:, 0], hs.StreamSchema(2, 1), z_rows=z)
        state = hs.new_stream(P2)
        with pytest.raises(DimensionMismatch):
            state.begin_update_phase(stats, sigma0_sq=1.0, theta0=np.ones(2), e0_zz=np.eye(2))
        assert state.phase is hs.Phase.PRE and state.weights is None
        state.begin_update_phase(stats, sigma0_sq=1.0, theta0=0.5, e0_zz=[[1.0]])
        assert state.row_weights() == (1.0 / np.sqrt(1.25), 1.0)

    def test_second_event_choices_must_fit_the_group(self):
        rng = np.random.default_rng(141)
        state = self._one_state(rng)
        rows = rng.standard_normal((40, 5))
        y = rows.sum(axis=1) + rng.normal(size=40)
        stats = hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1, 2),
                                  z_rows=rows[:, 2:3], w_rows=rows[:, 3:])
        with pytest.raises(DimensionMismatch):
            state.begin_second_update(stats, gamma0=np.ones(3), e0_ww=np.eye(3))
        assert state.phase is hs.Phase.ONE and state.weights2 is None

    def test_noiseless_warning_points_at_the_caller(self):
        # both events warn from the line that called them
        rng = np.random.default_rng(143)
        x = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 1))
        w = rng.standard_normal((30, 1))
        y = x @ np.array([1.0, -1.0]) + 2.0 * z[:, 0] + 0.5 * w[:, 0]
        state = hs.new_stream(P2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state.begin_update_phase(
                hs.compress_batch(x, x @ np.array([1.0, -1.0]) + 2.0 * z[:, 0],
                                  hs.StreamSchema(2, 1), z_rows=z))
            state.begin_second_update(
                hs.compress_batch(x, y, hs.StreamSchema(2, 1, 1), z_rows=z, w_rows=w))
        assert len(caught) == 2
        assert [c.filename for c in caught] == [__file__, __file__]


def _stats(scale):
    rows = np.arange(12.0).reshape(4, 3) + np.eye(4, 3)
    return hs.compress_batch(scale * rows[:, :2], rows[:, 2], hs.StreamSchema(2, 1), z_rows=rows[:, 2:])


# record type -> (a function giving a new record, records that differ from it
# in one field each)
EQUALITY_CASES = {
    "WeightSpec": (
        lambda: WeightSpec(1.0, np.ones(2), np.eye(2)),
        [
            WeightSpec(2.0, np.ones(2), np.eye(2)),
            WeightSpec(1.0, np.ones(2), 2 * np.eye(2)),
            WeightSpec(1.0, np.ones(2), np.eye(2), provenance=NON_RANDOM),
        ],
    ),
    "SecondWeightSpec": (
        lambda: SecondWeightSpec(1.0, np.ones(1), np.ones(2), np.eye(1), np.eye(2)),
        [
            SecondWeightSpec(1.0, np.full(1, 0.5), np.ones(2), np.eye(1), np.eye(2)),
            SecondWeightSpec(1.0, np.ones(1), np.ones(2), np.eye(1), 3 * np.eye(2)),
        ],
    ),
    "HomogenizationMap": (
        lambda: HomogenizationMap(np.ones((2, 2)), np.ones((2, 1)), np.ones((4, 1)), 3),
        [
            HomogenizationMap(np.ones((2, 2))),
            HomogenizationMap(np.ones((2, 2)), np.ones((2, 1)), np.zeros((4, 1)), 3),
            HomogenizationMap(np.ones((2, 2)), np.ones((2, 1)), np.ones((4, 1)), 4),
        ],
    ),
    "BatchStats": (
        lambda: _stats(1.0),
        [_stats(2.0), BatchStats(5, (2, 1, 0), _stats(1.0).cross), BatchStats.zeros(2, 1)],
    ),
}


@pytest.mark.parametrize("kind", sorted(EQUALITY_CASES))
def test_records_with_arrays_compare_by_value(kind):
    make, others = EQUALITY_CASES[kind]
    assert make() == make()
    assert not make() != make()
    for other in others:
        assert make() != other
        assert not make() == other
    assert make() != "a record"
