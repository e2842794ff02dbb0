"""Stream generation, experiment drivers, metric definitions."""

import io as std_io

import numpy as np
import pytest

import hetstream as hs
from hetstream.errors import InvalidConfig
from hetstream.simlab import (
    SimConfig,
    drive_stream,
    example1_config,
    example4_config,
    gen_stream,
    run_bias_mse,
    run_power,
)


def _tiny_config(**overrides):
    base = dict(
        p=2, q=1, beta=(1.0, -1.0), theta=(0.5,), sigma_sq=1.0,
        n=30, k=2, j_max=6, replications=3, seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            _tiny_config(beta=(1.0,))
        with pytest.raises(InvalidConfig):
            _tiny_config(k=6)
        with pytest.raises(InvalidConfig):
            _tiny_config(corr_case="independent")
        with pytest.raises(InvalidConfig):
            SimConfig(p=1, q=1, beta=(1.0,), theta=(1.0,), sigma_sq=1.0,
                      n=10, k=1, j_max=4, r=1, gamma=(1.0,), m=0)

    def test_covariance_uncorrelated_blocks(self):
        cfg = _tiny_config(corr_case="uncorrelated")
        sigma = cfg.covariance()
        assert sigma[0, 2] == 0.0 and sigma[1, 2] == 0.0
        assert sigma[0, 1] == pytest.approx(0.5)

    def test_theta_multiplier(self):
        cfg = _tiny_config(a=2.0)
        np.testing.assert_allclose(cfg.effective_theta, [1.0])


class TestGenStream:
    def test_deterministic(self):
        cfg = _tiny_config()
        s1 = gen_stream(cfg, 4)
        s2 = gen_stream(cfg, 4)
        for b1, b2 in zip(s1, s2):
            np.testing.assert_array_equal(b1.x, b2.x)
            np.testing.assert_array_equal(b1.y, b2.y)
        s3 = gen_stream(cfg, 5)
        assert not np.array_equal(s1[0].x, s3[0].x)

    def test_exposure_schedule(self):
        cfg = _tiny_config(k=2, j_max=6)
        stream = gen_stream(cfg, 0)
        assert stream[0].z is None and stream[1].z is None
        assert all(b.z is not None for b in stream[2:])
        cfg4 = example4_config(replications=1)
        stream4 = gen_stream(cfg4, 0)
        assert stream4[9].z is None and stream4[9].w is None
        assert stream4[10].z is not None and stream4[10].w is None
        assert stream4[20].w is None        # last middle batch (index 20 = batch 21)
        assert stream4[21].w is not None    # second event at batch 22

    def test_batches_keep_only_observed_columns(self):
        # every array of a batch lives in a buffer of exactly the columns the
        # batch exposes, so no unobserved draw stays alive with it
        cfg = example4_config(n=20, replications=1)
        for batch in gen_stream(cfg, 0):
            arrays = [a for a in (batch.x, batch.z, batch.w) if a is not None]
            width = sum(a.shape[1] for a in arrays)
            for a in arrays:
                while a.base is not None:
                    a = a.base
                assert a.nbytes == cfg.n * width * 8

    def test_empirical_covariance(self):
        cfg = _tiny_config(n=100_000, j_max=3, k=1, corr_case="correlated")
        stream = gen_stream(cfg, 0)
        rows = np.hstack([stream[2].x, stream[2].z])
        emp = rows.T @ rows / rows.shape[0]
        np.testing.assert_allclose(emp, cfg.covariance(), atol=0.02)

    def test_uncorrelated_cross_block(self):
        cfg = _tiny_config(n=100_000, j_max=3, k=1, corr_case="uncorrelated")
        stream = gen_stream(cfg, 0)
        x, z = stream[2].x, stream[2].z
        cross = x.T @ z / x.shape[0]
        assert np.max(np.abs(cross)) < 0.02


class TestMetrics:
    def test_bias_mse_definitions(self):
        from hetstream.simlab import _bias_mse

        errors = np.array([[0.2, -0.4], [0.0, 0.4]])
        bias, mse = _bias_mse(errors)
        # mean error (0.1, 0.0): L1 / dim = 0.05
        assert bias == pytest.approx(0.05)
        # squared norms (0.2, 0.16), mean 0.18, / dim = 0.09
        assert mse == pytest.approx(0.09)


class TestRunBiasMse:
    def test_deterministic_records(self):
        cfg = _tiny_config()
        r1 = run_bias_mse(cfg, (4, 6))
        r2 = run_bias_mse(cfg, (4, 6))
        assert r1.records == r2.records

    def test_noiseless_null_coefficients_are_exact(self):
        # with no noise and inactive added covariates every method
        # interpolates exactly
        cfg = _tiny_config(sigma_sq=0.0, theta=(0.0,), n=20, replications=3)
        result = run_bias_mse(cfg, (cfg.j_max,))
        for method in ("AUE", "NUE", "AVE"):
            assert result.value(method, cfg.j_max, "mse_beta") < 1e-20
            assert result.value(method, cfg.j_max, "bias_beta") < 1e-10

    def test_records_cover_all_methods_and_groups(self):
        cfg = example4_config(n=15, replications=2)
        result = run_bias_mse(cfg, (25, 30))
        methods = {m for m, *_ in result.records}
        metrics = {k for *_, k, _ in result.records}
        assert methods == {"AUE", "NUE", "AVE"}
        assert {"bias_beta", "mse_beta", "mse_theta", "mse_gamma"} <= metrics

    def test_csv_round_trip_format(self):
        cfg = _tiny_config()
        result = run_bias_mse(cfg, (6,))
        buf = std_io.StringIO()
        result.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "method,checkpoint,metric,value"
        assert len(lines) == len(result.records) + 1


class TestRunPower:
    def test_power_one_under_strong_signal(self):
        cfg = _tiny_config(theta=(4.0,), n=60, replications=4)
        result = run_power(cfg, j_grid=(cfg.j_max,))
        assert result.value("AUE", cfg.j_max, "power") == 1.0
        assert result.value("NUE", cfg.j_max, "power") == 1.0

    def test_a_grid_mode(self):
        cfg = _tiny_config(theta=(1.0,), replications=3)
        result = run_power(cfg, a_grid=(0.0, 2.0))
        assert {c for _, c, _, _ in result.records} == {0.0, 2.0}


class TestDriveStream:
    def test_example1_counts(self):
        cfg = example1_config(n=25, replications=1, corr_case="correlated")
        estimates = drive_stream(cfg, 0, (12, 20))
        report = estimates[("AUE", 20)]
        assert report.n_total == 25 * 20
        assert report.m_post == 25 * 10
        assert report.rho_hat == pytest.approx(0.5)
        assert report.case_label == "correlated"

    def test_uncorrelated_forces_zero_map(self):
        cfg = example1_config(n=25, replications=1, corr_case="uncorrelated")
        estimates = drive_stream(cfg, 0, (20,))
        assert estimates[("AUE", 20)].case_label == "uncorrelated"
