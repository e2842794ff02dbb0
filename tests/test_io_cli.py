"""Snapshot round trips, batch CSV parsing, config files, CLI sessions."""

import contextlib
import io as io_text
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import hetstream as hs
from hetstream import cli, simlab
from hetstream import io as hio
from hetstream.errors import InvalidConfig, SchemaMismatch

from helpers import ar1_cov, rel_err


def _phase1_state(rng, p=2, q=1, batches=4):
    chol = np.linalg.cholesky(ar1_cov(p + q))
    beta = np.array([1.0, -1.0])
    theta = np.array([0.5])
    state = hs.new_stream(hs.StreamSchema(p))
    for _ in range(2):
        rows = rng.standard_normal((25, p + q)) @ chol.T
        y = rows[:, :p] @ beta + rows[:, p:] @ theta + rng.normal(size=25)
        state.ingest_pre_change(hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p)))
    for i in range(batches):
        rows = rng.standard_normal((25, p + q)) @ chol.T
        y = rows[:, :p] @ beta + rows[:, p:] @ theta + rng.normal(size=25)
        stats = hs.compress_batch(rows[:, :p], y, hs.StreamSchema(p, q), z_rows=rows[:, p:])
        if i == 0:
            state.begin_update_phase(stats)
        else:
            state.ingest_post_change(stats)
    return state


class TestSnapshot:
    def test_round_trip_estimate_identical(self, tmp_path):
        rng = np.random.default_rng(401)
        state = _phase1_state(rng)
        before = state.estimate()
        path = tmp_path / "state.npz"
        hio.save_state(state, path)
        restored = hio.load_state(path)
        after = restored.estimate()
        assert rel_err(before.coefficients, after.coefficients) <= 1e-12
        assert restored.n_total == state.n_total
        assert restored.batch_count == state.batch_count
        assert restored.update_sse() == state.update_sse()  # bit-exact floats

    def test_round_trip_then_continue(self, tmp_path):
        rng = np.random.default_rng(402)
        state = _phase1_state(rng)
        path = tmp_path / "state.npz"
        hio.save_state(state, path)
        restored = hio.load_state(path)
        rows = np.random.default_rng(5).standard_normal((25, 3)) @ np.linalg.cholesky(ar1_cov(3)).T
        y = rows[:, :2] @ np.array([1.0, -1.0]) + rows[:, 2] * 0.5
        stats = hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1), z_rows=rows[:, 2:])
        state.ingest_post_change(stats)
        restored.ingest_post_change(stats)
        assert rel_err(state.estimate().coefficients, restored.estimate().coefficients) <= 1e-12

    def test_version_guard(self, tmp_path):
        rng = np.random.default_rng(410)
        state = _phase1_state(rng)
        path = tmp_path / "state.npz"
        hio.save_state(state, path)
        # tamper with the version field
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        meta["version"] = 99
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        with pytest.raises(InvalidConfig, match="version"):
            hio.load_state(path)

    def test_phase2_round_trip(self, tmp_path):
        rng = np.random.default_rng(403)
        state = _phase1_state(rng)
        rows = rng.standard_normal((30, 4))
        y = rows @ np.array([1.0, -1.0, 0.5, 0.25]) + rng.normal(size=30)
        state.begin_second_update(
            hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1, 1),
                              z_rows=rows[:, 2:3], w_rows=rows[:, 3:])
        )
        path = tmp_path / "state2.npz"
        hio.save_state(state, path)
        restored = hio.load_state(path)
        assert restored.phase is hs.Phase.TWO
        assert rel_err(state.estimate().coefficients, restored.estimate().coefficients) <= 1e-12
        np.testing.assert_array_equal(restored.homog.d_hat, state.homog.d_hat)

    TAMPERS = {
        "grown seg1_ztz": lambda meta, arrays: arrays.update(seg1_ztz=np.zeros((2, 2))),
        "missing seg2_xtw": lambda meta, arrays: arrays.pop("seg2_xtw"),
        "extra seg0_xtz": lambda meta, arrays: arrays.update(seg0_xtz=np.zeros((2, 1))),
        "cut h_d": lambda meta, arrays: arrays.update(h_d=arrays["h_d"][:2]),
        "cut seg_yty": lambda meta, arrays: arrays.update(seg_yty=arrays["seg_yty"][:2]),
        "segment tag": lambda meta, arrays: meta["segments"][1].update(phase_tag="xzw"),
    }

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_array_shapes_checked_on_load(self, tamper, tmp_path):
        rng = np.random.default_rng(414)
        state = _phase1_state(rng)
        rows = rng.standard_normal((30, 4))
        y = rows @ np.array([1.0, -1.0, 0.5, 0.25]) + rng.normal(size=30)
        state.begin_second_update(
            hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1, 1),
                              z_rows=rows[:, 2:3], w_rows=rows[:, 3:])
        )
        path = tmp_path / "state.npz"
        hio.save_state(state, path)
        _tamper(path, self.TAMPERS[tamper])
        with pytest.raises(hs.HetstreamError, match="not a readable state snapshot"):
            hio.load_state(path)

    # phase -> edits of the metadata's weight records and maps that the
    # phase does not give
    RECORD_TAMPERS = {
        "PRE with weights": ("PRE", lambda meta, arrays: meta.update(weights={"provenance": "estimated"})),
        "ONE without weights": ("ONE", lambda meta, arrays: meta.update(weights=None)),
        "ONE without homog": ("ONE", lambda meta, arrays: meta.update(homog=None)),
        "ONE with weights2": ("ONE", lambda meta, arrays: meta.update(weights2={"provenance": "estimated"})),
        "TWO without weights": ("TWO", lambda meta, arrays: meta.update(weights=None)),
        "TWO without weights2": ("TWO", lambda meta, arrays: meta.update(weights2=None)),
    }

    @pytest.mark.parametrize("tamper", sorted(RECORD_TAMPERS))
    def test_weight_records_checked_against_phase(self, tamper, tmp_path):
        phase, edit = self.RECORD_TAMPERS[tamper]
        path = tmp_path / "state.npz"
        hio.save_state(_state_in_phase(np.random.default_rng(416), phase), path)
        _tamper(path, edit)
        with pytest.raises(hs.HetstreamError, match=f"is (missing|present) in phase {phase}"):
            hio.load_state(path)

    @pytest.mark.parametrize("n", [-5, 2.5, True, "7", None])
    def test_segment_count_must_be_a_nonnegative_integer(self, n, tmp_path):
        path = tmp_path / "state.npz"
        hio.save_state(_state_in_phase(np.random.default_rng(417), "ONE"), path)
        _tamper(path, lambda meta, arrays: meta["segments"][0].update(n=n))
        with pytest.raises(hs.HetstreamError, match="segment 0 has n"):
            hio.load_state(path)

    # scalar metadata -> values of the wrong kind
    SCALAR_TAMPERS = {
        "batch_count": ["7", -1, 2.5, None, True],
        "case_label": ["maybe", 1, ["correlated"]],
        "refine_maps": ["no", 1, None],
        "b_forced": ["no", 0, None],
        "cd_forced": ["yes", 1.0, None],
        "convention": ["bogus", None],
    }

    @pytest.mark.parametrize("key", sorted(SCALAR_TAMPERS))
    def test_scalar_metadata_checked_on_load(self, key, tmp_path):
        path = tmp_path / "state.npz"
        for phase in ("PRE", "ONE"):
            for value in self.SCALAR_TAMPERS[key]:
                hio.save_state(_state_in_phase(np.random.default_rng(418), phase), path)
                _tamper(path, lambda meta, arrays: meta.update({key: value}))
                with pytest.raises(hs.HetstreamError, match=f"{key} = "):
                    hio.load_state(path)


def _state_in_phase(rng, phase: str) -> hs.AccumulatorState:
    if phase == "PRE":
        x = rng.standard_normal((25, 2))
        state = hs.new_stream(hs.StreamSchema(2))
        state.ingest_pre_change(hs.compress_batch(x, x @ [1.0, -1.0] + rng.normal(size=25), hs.StreamSchema(2)))
        return state
    state = _phase1_state(rng)
    if phase == "TWO":
        rows = rng.standard_normal((30, 4))
        y = rows @ np.array([1.0, -1.0, 0.5, 0.25]) + rng.normal(size=30)
        state.begin_second_update(
            hs.compress_batch(rows[:, :2], y, hs.StreamSchema(2, 1, 1),
                              z_rows=rows[:, 2:3], w_rows=rows[:, 3:])
        )
    return state


def _tamper(path, edit):
    """Rewrite a snapshot after ``edit(meta, arrays)`` changed its entries."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        arrays = {k: data[k] for k in data.files if k != "meta"}
    edit(meta, arrays)
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


class TestBatchCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(404)
        x = rng.standard_normal((8, 2))
        z = rng.standard_normal((8, 1))
        y = rng.standard_normal(8)
        path = tmp_path / "batch.csv"
        hio.write_batch_csv(path, x, y, z=z)
        rx, rz, rw, ry = hio.read_batch_csv(path)
        np.testing.assert_array_equal(rx, x)
        np.testing.assert_array_equal(rz, z)
        assert rw is None
        np.testing.assert_array_equal(ry, y)

    def test_schema_violation_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\n1.0\n")
        with pytest.raises(SchemaMismatch, match="line 3"):
            hio.read_batch_csv(path)
        path.write_text("x1,y\n1.0,abc\n")
        with pytest.raises(SchemaMismatch, match="line 2"):
            hio.read_batch_csv(path)

    def test_header_violations(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x3,y\n1.0,2.0,3.0\n")
        with pytest.raises(SchemaMismatch):
            hio.read_batch_csv(path)
        path.write_text("z1,y\n1.0,2.0\n")
        with pytest.raises(SchemaMismatch):
            hio.read_batch_csv(path)


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# demo\np = 2\nq = 1\nbeta = 1,-1\ntheta = 0.5\n"
            "sigma_sq = 1.0\nn = 30\nk = 2\nj_max = 6\nreplications = 3\nseed = 11\n"
        )
        cfg = hio.config_to_simconfig(hio.read_config(path))
        assert cfg.p == 2 and cfg.beta == (1.0, -1.0)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("p = 2\nq = 1\nbeta = 1,-1\ntheta = 0.5\nsigma_sq = 1\nk = 2\nj_max = 6\n")
        with pytest.raises(InvalidConfig, match="'n'"):
            hio.config_to_simconfig(hio.read_config(path))


# ----------------------------------------------------------------------
# CLI end-to-end
# ----------------------------------------------------------------------

def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hetstream", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def _parse_kv(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "p = 2\nq = 1\nbeta = 1,-1\ntheta = 0.5\nsigma_sq = 1.0\n"
        "n = 30\nk = 2\nj_max = 6\nreplications = 3\nseed = 11\n"
    )
    return path


class TestCliExperiments:
    def test_simulate_deterministic_bytes(self, tmp_path, config_file):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            proc = run_cli("simulate", "--config", str(config_file), "--seed", "7", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_missing_key_exit_2(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("p = 2\nq = 1\nbeta = 1,-1\ntheta = 0.5\nsigma_sq = 1\nk = 2\nj_max = 6\n")
        proc = run_cli("simulate", "--config", str(path))
        assert proc.returncode == 2
        assert "'n'" in proc.stderr

    def test_power_runs(self, tmp_path, config_file):
        out = tmp_path / "power.csv"
        proc = run_cli("power", "--config", str(config_file), "--j-grid", "4,6", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,checkpoint,metric,value"
        assert len(lines) == 5

    def test_replicate_table_small(self, tmp_path):
        out = tmp_path / "table4.csv"
        proc = run_cli(
            "replicate-table", "--table", "4", "--n", "15", "--replications", "2",
            "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        header = out.read_text().splitlines()[0]
        assert header == "panel,setting,n,j,method,metric,value"


class TestCliStreamSession:
    def _write_batch(self, rng, path, p=2, q=None, n=20, beta=(1.0, -1.0), theta=(0.5,), orth_z=False):
        x = rng.standard_normal((n, p))
        z = None
        y = x @ np.asarray(beta)
        if q:
            z = rng.standard_normal((n, q))
            if orth_z:
                z = z - x @ np.linalg.solve(x.T @ x, x.T @ z)
            y = y + z @ np.asarray(theta)
        y = y + rng.normal(size=n)
        hio.write_batch_csv(path, x, y, z=z)
        return x, z, y

    def test_ingest_estimate_matches_pooled_ols(self, tmp_path):
        rng = np.random.default_rng(405)
        state_path = tmp_path / "s.npz"
        xs, ys = [], []
        for i in range(3):
            batch = tmp_path / f"b{i}.csv"
            x, _, y = self._write_batch(rng, batch, q=None)
            xs.append(x)
            ys.append(y)
            proc = run_cli("ingest", "--state", str(state_path), "--batch", str(batch))
            assert proc.returncode == 0, proc.stderr
        proc = run_cli("estimate", "--state", str(state_path))
        assert proc.returncode == 0, proc.stderr
        kv = _parse_kv(proc.stdout)
        pooled_x, pooled_y = np.vstack(xs), np.concatenate(ys)
        oracle = np.linalg.solve(pooled_x.T @ pooled_x, pooled_x.T @ pooled_y)
        printed = np.array([float(kv["beta_1"]), float(kv["beta_2"])])
        # printed to at least 10 significant digits
        np.testing.assert_allclose(printed, oracle, rtol=1e-9)

    def test_add_z_event_logs_zero_map_for_orthogonal_design(self, tmp_path):
        rng = np.random.default_rng(406)
        state_path = tmp_path / "s.npz"
        pre = tmp_path / "pre.csv"
        self._write_batch(rng, pre, q=None, n=30)
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(pre)).returncode == 0
        event = tmp_path / "event.csv"
        self._write_batch(rng, event, q=1, n=30, orth_z=True)
        proc = run_cli("ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z")
        assert proc.returncode == 0, proc.stderr
        kv = _parse_kv(proc.stdout)
        assert abs(float(kv["b_hat_row1_1"])) < 1e-10
        assert abs(float(kv["b_hat_row2_1"])) < 1e-10

    def test_noiseless_nonzero_theta_test_rejects_with_infinite_f(self, tmp_path):
        rng = np.random.default_rng(407)
        state_path = tmp_path / "s.npz"
        event = tmp_path / "event.csv"
        x = rng.standard_normal((30, 2))
        z = rng.standard_normal((30, 1))
        y = x @ np.array([1.0, -1.0]) + z @ np.array([2.0])
        hio.write_batch_csv(event, x, y, z=z)
        proc = run_cli(
            "ingest", "--state", str(state_path), "--batch", str(event),
            "--event", "add-z", "--sigma0-sq", "1.0", "--theta0", "2.0", "--e0-zz", "1.0",
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("test", "--state", str(state_path), "--alpha", "0.05")
        assert proc.returncode == 0, proc.stderr
        kv = _parse_kv(proc.stdout)
        assert kv["reject"] == "true"
        assert kv["degenerate"] == "true"
        assert kv["f_value"] == "inf"

    def test_estimate_missing_state_exit_2(self, tmp_path):
        proc = run_cli("estimate", "--state", str(tmp_path / "nope.npz"))
        assert proc.returncode == 2

    def test_runtime_error_exit_3(self, tmp_path):
        # a single 1-row batch leaves the design rank deficient
        state_path = tmp_path / "s.npz"
        batch = tmp_path / "one.csv"
        batch.write_text("x1,x2,y\n1.0,2.0,3.0\n")
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(batch)).returncode == 0
        proc = run_cli("estimate", "--state", str(state_path))
        assert proc.returncode == 3

    def test_phase_violation_exit_4(self, tmp_path):
        rng = np.random.default_rng(408)
        state_path = tmp_path / "s.npz"
        event = tmp_path / "event.csv"
        self._write_batch(rng, event, q=1, n=30)
        assert run_cli(
            "ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z",
        ).returncode == 0
        # a second add-z is a protocol violation
        proc = run_cli("ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z")
        assert proc.returncode == 4

    def test_save_restore_equals_uninterrupted(self, tmp_path):
        rng = np.random.default_rng(409)
        batches = []
        for i in range(4):
            path = tmp_path / f"c{i}.csv"
            q = 1 if i >= 1 else None
            batches.append((path, q))
            self._write_batch(rng, path, q=q, n=25)
        # session A: state persisted between invocations (save + restore each step)
        state_path = tmp_path / "sess.npz"
        for i, (path, q) in enumerate(batches):
            args = ["ingest", "--state", str(state_path), "--batch", str(path)]
            if i == 1:
                args += ["--event", "add-z"]
            assert run_cli(*args).returncode == 0
        proc = run_cli("estimate", "--state", str(state_path))
        kv_a = _parse_kv(proc.stdout)
        # session B: one uninterrupted in-process run
        state = hs.new_stream(hs.StreamSchema(2))
        for i, (path, q) in enumerate(batches):
            x, z, w, y = hio.read_batch_csv(path)
            schema = hs.StreamSchema(2, 1 if z is not None else 0)
            stats = hs.compress_batch(x, y, schema, z_rows=z)
            if i == 0:
                state.ingest_pre_change(stats)
            elif i == 1:
                state.begin_update_phase(stats)
            else:
                state.ingest_post_change(stats)
        report = state.estimate()
        # the persisted state itself matches the uninterrupted run to 1e-12
        resumed = hio.load_state(state_path).estimate()
        assert rel_err(resumed.coefficients, report.coefficients) <= 1e-12
        # printed values carry 12 significant digits
        for j, b in enumerate(report.beta, start=1):
            assert float(kv_a[f"beta_{j}"]) == pytest.approx(b, rel=1e-10)
        assert float(kv_a["theta_1"]) == pytest.approx(report.theta[0], rel=1e-10)

    def test_state_path_used_as_given(self, tmp_path):
        rng = np.random.default_rng(411)
        state_path = tmp_path / "run.state"
        for i in range(2):
            batch = tmp_path / f"b{i}.csv"
            self._write_batch(rng, batch, n=100)
            proc = run_cli("ingest", "--state", str(state_path), "--batch", str(batch))
            assert proc.returncode == 0, proc.stderr
        assert _parse_kv(proc.stdout)["n_total"] == "200"
        assert not (tmp_path / "run.state.npz").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b0.csv", "b1.csv", "run.state"]
        proc = run_cli("estimate", "--state", str(state_path))
        assert proc.returncode == 0, proc.stderr
        assert _parse_kv(proc.stdout)["n_total"] == "200"

    def test_truncated_snapshot_exit_3(self, tmp_path):
        rng = np.random.default_rng(412)
        state_path = tmp_path / "s.npz"
        batch = tmp_path / "b.csv"
        self._write_batch(rng, batch, n=30)
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(batch)).returncode == 0
        data = state_path.read_bytes()
        state_path.write_bytes(data[: len(data) // 2])
        for command in (("estimate",), ("ingest", "--batch", str(batch))):
            proc = run_cli(command[0], "--state", str(state_path), *command[1:])
            assert proc.returncode == 3
            assert proc.stderr.startswith("error:")
            assert "Traceback" not in proc.stderr

    def test_snapshot_with_a_cut_block_exit_3(self, tmp_path):
        rng = np.random.default_rng(415)
        state_path = tmp_path / "s.npz"
        pre, event = tmp_path / "pre.csv", tmp_path / "event.csv"
        self._write_batch(rng, pre, n=30)
        self._write_batch(rng, event, q=3, n=30, theta=(0.5, -0.5, 0.25))
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(pre)).returncode == 0
        assert run_cli(
            "ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z",
        ).returncode == 0
        _tamper(state_path, lambda meta, arrays: arrays.update(seg1_ztz=arrays["seg1_ztz"][:2, :2]))
        proc = run_cli("estimate", "--state", str(state_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "seg" in proc.stderr and "Traceback" not in proc.stderr

    def test_string_batch_count_exit_3(self, tmp_path):
        rng = np.random.default_rng(420)
        state_path, batch = tmp_path / "s.npz", tmp_path / "b.csv"
        self._write_batch(rng, batch, n=30)
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(batch)).returncode == 0
        _tamper(state_path, lambda meta, arrays: meta.update(batch_count="7"))
        proc = run_cli("ingest", "--state", str(state_path), "--batch", str(batch))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "batch_count" in proc.stderr and "Traceback" not in proc.stderr

    def test_add_w_applies_overrides(self, tmp_path):
        rng = np.random.default_rng(413)
        state_path = tmp_path / "s.npz"
        event = tmp_path / "event.csv"
        self._write_batch(rng, event, q=1, n=30)
        assert run_cli(
            "ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z",
        ).returncode == 0
        second = tmp_path / "second.csv"
        x, z, w = (rng.standard_normal((30, d)) for d in (2, 1, 1))
        y = x @ np.array([1.0, -1.0]) + 0.5 * z[:, 0] + 0.25 * w[:, 0] + rng.normal(size=30)
        hio.write_batch_csv(second, x, y, z=z, w=w)
        proc = run_cli(
            "ingest", "--state", str(state_path), "--batch", str(second), "--event", "add-w",
            "--sigma0-sq", "7", "--theta0", "0.5", "--e0-zz", "2.0",
        )
        assert proc.returncode == 0, proc.stderr
        weights2 = hio.load_state(state_path).weights2
        assert weights2.sigma0_sq == 7.0
        np.testing.assert_array_equal(weights2.theta0, [0.5])
        np.testing.assert_array_equal(weights2.e0_zz, [[2.0]])

    @pytest.mark.parametrize("edit", [
        lambda meta, arrays: meta.update(weights=None),
        lambda meta, arrays: meta["segments"][0].update(n=-5),
    ], ids=["weights null", "negative n"])
    def test_snapshot_records_checked_exit_3(self, edit, tmp_path):
        rng = np.random.default_rng(419)
        state_path = tmp_path / "s.npz"
        pre, event = tmp_path / "pre.csv", tmp_path / "event.csv"
        self._write_batch(rng, pre, n=30)
        self._write_batch(rng, event, q=1, n=30)
        assert run_cli("ingest", "--state", str(state_path), "--batch", str(pre)).returncode == 0
        assert run_cli(
            "ingest", "--state", str(state_path), "--batch", str(event), "--event", "add-z",
        ).returncode == 0
        _tamper(state_path, edit)
        proc = run_cli("estimate", "--state", str(state_path))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


def test_cli_session_prints_the_library_estimates(tmp_path):
    # a short Example-4 stream fed batch by batch through the CLI (its rows
    # read back from CSV) prints, to its 12 digits, what the library gives
    # on the generator's own arrays after every batch (stream 3 of this seed
    # has an estimate on a 12-digit rounding boundary)
    cfg = replace(simlab.example4_config(seed=11501, replications=1), k=2, m=2, j_max=6)
    schema = hs.StreamSchema(cfg.p, cfg.q, cfg.r)
    state = hs.new_stream(hs.StreamSchema(cfg.p))
    state_path = str(tmp_path / "s.npz")
    for j, batch in enumerate(simlab.gen_stream(cfg, 3), start=1):
        path = str(tmp_path / f"batch{j}.csv")
        hio.write_batch_csv(path, batch.x, batch.y, z=batch.z, w=batch.w)
        stats = hs.compress_batch(batch.x, batch.y, schema, z_rows=batch.z, w_rows=batch.w)
        event = {cfg.k + 1: "add-z", cfg.k + cfg.m + 1: "add-w"}.get(j)
        if event == "add-z":
            state.begin_update_phase(stats)
        elif event == "add-w":
            state.begin_second_update(stats)
        elif state.phase is hs.Phase.PRE:
            state.ingest_pre_change(stats)
        else:
            state.ingest_post_change(stats)
        out = io_text.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["ingest", "--state", state_path, "--batch", path, "--print-estimate"]
            assert cli.main(argv + (["--event", event] if event else [])) == 0
        printed = _parse_kv(out.getvalue())
        report = state.estimate()
        for name in ("beta", "theta", "gamma"):
            values = getattr(report, name)
            for i, v in enumerate([] if values is None else values, start=1):
                assert printed[f"{name}_{i}"] == f"{float(v):.12g}", (j, name, i)
        assert printed["sse"] == f"{state.update_sse():.12g}"


class TestWeightChoiceFlags:
    """Override flags apply only at an event, with the group's widths."""

    def _main(self, *argv):
        err = io_text.StringIO()
        with contextlib.redirect_stdout(io_text.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, err.getvalue()

    def _one_state(self, tmp_path, rng):
        """A snapshot in phase ONE of a correlated design, and the path of
        a correlated (x, z, w) batch."""
        state_path = tmp_path / "s.npz"
        chol = np.linalg.cholesky(ar1_cov(4, 0.7))
        for name, groups in (("event", 2), ("second", 3)):
            rows = rng.standard_normal((40, 4)) @ chol.T
            y = rows @ np.array([1.0, -1.0, 0.5, 0.25]) + rng.normal(size=40)
            hio.write_batch_csv(tmp_path / f"{name}.csv", rows[:, :2], y, z=rows[:, 2:3],
                                w=rows[:, 3:] if groups == 3 else None)
        code, err = self._main("ingest", "--state", str(state_path), "--batch",
                               str(tmp_path / "event.csv"), "--event", "add-z")
        assert code == 0, err
        return state_path, tmp_path / "second.csv"

    @pytest.mark.parametrize("flags", [
        ["--sigma0-sq", "1"], ["--theta0", "0.5"], ["--e0-zz", "1"], ["--uncorrelated"],
    ], ids=lambda flags: flags[0])
    def test_override_flags_need_an_event(self, flags, tmp_path):
        state_path, _ = self._one_state(tmp_path, np.random.default_rng(420))
        before = state_path.read_bytes()
        batch = tmp_path / "more.csv"
        rng = np.random.default_rng(421)
        rows = rng.standard_normal((20, 3))
        hio.write_batch_csv(batch, rows[:, :2], rows.sum(axis=1), z=rows[:, 2:])
        code, err = self._main("ingest", "--state", str(state_path), "--batch", str(batch), *flags)
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error:") and "--event" in err
        assert state_path.read_bytes() == before

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_add_w_uncorrelated_forces_zero_maps(self, uncorrelated, tmp_path):
        state_path, second = self._one_state(tmp_path, np.random.default_rng(422))
        code, err = self._main("ingest", "--state", str(state_path), "--batch", str(second),
                               "--event", "add-w", *["--uncorrelated"] * uncorrelated)
        assert code == 0, err
        maps = hio.load_state(state_path).homog
        assert maps.c_hat.shape == (2, 1) and maps.d_hat.shape == (3, 1)
        assert (not np.any(maps.c_hat) and not np.any(maps.d_hat)) == uncorrelated

    @pytest.mark.parametrize("flags", [
        ["--theta0", "1,2", "--e0-zz", "1"], ["--theta0", "1,2", "--e0-zz", "1,1"],
    ], ids=["moment narrower than theta0", "both wider than z"])
    def test_wrong_width_choices_exit_3(self, flags, tmp_path):
        rng = np.random.default_rng(423)
        state_path = tmp_path / "s.npz"
        rows = rng.standard_normal((30, 3))
        batch = tmp_path / "event.csv"
        hio.write_batch_csv(batch, rows[:, :2], rows.sum(axis=1) + rng.normal(size=30), z=rows[:, 2:])
        code, err = self._main("ingest", "--state", str(state_path), "--batch", str(batch),
                               "--event", "add-z", "--sigma0-sq", "1", *flags)
        assert code == cli.EXIT_RUNTIME
        assert err.startswith("error:")
        assert not state_path.exists()

    SPEC_TAMPERS = {
        "theta0 and e0_zz widened": lambda meta, arrays: arrays.update(
            w_theta0=np.ones(2), w_e0_zz=np.eye(2)),
        "e0_zz widened": lambda meta, arrays: arrays.update(w_e0_zz=np.eye(2)),
        "gamma0 widened": lambda meta, arrays: arrays.update(
            w2_gamma0=np.ones(3), w2_e0_ww=np.eye(3)),
    }

    @pytest.mark.parametrize("tamper", sorted(SPEC_TAMPERS))
    def test_weight_spec_shapes_checked_on_load(self, tamper, tmp_path):
        path = tmp_path / "state.npz"
        hio.save_state(_state_in_phase(np.random.default_rng(424), "TWO"), path)
        _tamper(path, self.SPEC_TAMPERS[tamper])
        with pytest.raises(hs.DimensionMismatch):
            hio.load_state(path)
        code, err = self._main("estimate", "--state", str(path))
        assert code == cli.EXIT_RUNTIME and err.startswith("error:")
