"""The four benchmark workloads and the checks on their outputs.

Each workload drives the public API of hetstream from this process; the
CLI workload starts one child process at a time. Module functions are
looked up on their module at call time (``batchstats.compress_batch``,
``inference.test_theta_zero``, ...) so that the wrappers of the traced run,
installed on those attributes, see every call.

A workload is run in units: a stream for the stream workloads and for
cli-session, one pair of table runs for replicate-tables. ``prepare(index)``
builds a unit's inputs (that is the timed set-up) and ``unit`` runs it,
recording each call into the program with ``Recorder.call`` and each
finished step with ``Recorder.end_step``. Inputs depend only on the seed
and the unit index, so the checks on a unit's outputs, which need raw rows
and large least-squares fits, run after the measured pass on inputs built
again, and do not add to the pass's peak memory.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from hetstream import batchstats, cli, inference, io as hio, simlab
from hetstream.batchstats import StreamSchema
from hetstream.engine import Phase, new_stream

clock = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Relative tolerance of the library checks against raw-row least squares,
# and of the replicate records against their golden values.
CHECK_RTOL = 1e-8
GOLDEN_RTOL = 1e-9

# Unit index of the untimed warm-up pass; measured units count up from 0.
WARMUP_INDEX = 2**31 - 1

# A CLI child still running after this long is killed (a call takes well
# under a second).
CHILD_TIMEOUT_S = 120.0

# Set-up samples per pass, and the shortest sample: the replicate-tables
# inputs take microseconds to build, far too short to time once.
SETUP_REPS = 7
SETUP_SAMPLE_S = 0.01

# Machine-speed reference. A shared 2-core virtual machine changed speed by
# up to 1.65x from one minute to the next (a monitor stream took 43 ms in
# some windows and 72 ms in others), and fixed reference work slowed with
# it: the ratio of the two stayed within about 5%. Step times
# are therefore reported at reference speed: each step's wall time is divided
# by the slowness (reference time over its nominal time) measured right after
# it. A sample follows every ``every`` seconds of steps; a single sample is
# noisy, so each is replaced by the median of the REF_WINDOW samples centred
# on it. In-process work is referenced to a small numpy kernel, sampled after
# every REF_KERNEL_EVERY_S of steps; CLI calls, which are mostly interpreter
# start and imports, to a fresh interpreter importing the same numpy and
# scipy modules (the kernel tracked them worse than no reference at all),
# sampled after every REF_PROCESS_EVERY_S of calls (about two calls), so
# that the reference costs less time than the calls. Neither uses hetstream
# code, so no change to the program can move them.
REF_KERNEL_EVERY_S = 0.1
REF_PROCESS_EVERY_S = 1.0
REF_WINDOW = 9
REF_KERNEL_S = 0.004
REF_PROCESS_S = 0.5
_REF_RNG = np.random.default_rng(20210623)
_REF_B = _REF_RNG.standard_normal(9)
_REF_A = (lambda m: m @ m.T + 9.0 * np.eye(9))(_REF_RNG.standard_normal((9, 9)))


def kernel_slowness() -> float:
    """Time of a fixed kernel of small numpy solves and interpreter work,
    over REF_KERNEL_S."""
    t0 = clock()
    acc = 0.0
    for i in range(300):
        x = np.linalg.solve(_REF_A, _REF_B)
        acc += float(x @ x) + {"i": i}["i"]
    return (clock() - t0) / REF_KERNEL_S


def process_slowness() -> float:
    """Time of a fresh interpreter importing numpy, scipy.linalg and
    scipy.special, over REF_PROCESS_S."""
    t0 = clock()
    subprocess.run(
        [sys.executable, "-c", "import numpy, scipy.linalg, scipy.special"],
        cwd=BENCH_DIR, env=child_env(), capture_output=True, timeout=120, check=True,
    )
    return (clock() - t0) / REF_PROCESS_S


class Recorder:
    """Timings, counts and check outcomes of one measured or warm-up pass."""

    def __init__(self, slowness=kernel_slowness, every: float = REF_KERNEL_EVERY_S):
        self.slowness = slowness          # reference sampler and its interval,
        self.every = every                # see REF_WINDOW
        self.ops: dict[str, list[float]] = defaultdict(list)   # call kind -> durations (s)
        self.steps: list[float] = []      # durations of whole steps (s)
        self.setups: list[float] = []     # set-up samples (s per build, reference speed)
        self.batches = 0                  # stream batches in finished steps
        self.replicates = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.snapshot_bytes: int | None = None
        self.child_peak_mb = 0.0          # largest resident set of a CLI child
        self.refs: list[tuple[int, float]] = []   # (steps before the sample, slowness)
        self._step = 0.0
        self._unreferenced = 0.0

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one call into the program; it counts as one attempted operation."""
        self.attempted += 1
        t0 = clock()
        out = fn(*args, **kwargs)
        dt = clock() - t0
        self.ops[kind].append(dt)
        self._step += dt
        return out

    def end_step(self, batches: int = 0) -> None:
        self.steps.append(self._step)
        self._unreferenced += self._step
        self._step = 0.0
        self.batches += batches
        if self._unreferenced >= self.every:
            self.sample_reference()

    def sample_reference(self) -> None:
        self.refs.append((len(self.steps), self.slowness()))
        self._unreferenced = 0.0

    def scaled_steps(self) -> list[float]:
        """Step times at reference speed, each scaled by the smoothed
        reference sample taken first after it."""
        refs = [ref for _, ref in self.refs]
        half = REF_WINDOW // 2
        scaled, start = [], 0
        for k, (end, _) in enumerate(self.refs):
            ref = statistics.median(refs[max(0, k - half) : k + half + 1])
            scaled += [s / ref for s in self.steps[start:end]]
            start = end
        return scaled

    def speed_factor(self) -> float:
        """One over the pass's median slowness."""
        return 1.0 / statistics.median(ref for _, ref in self.refs)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")
        return bool(ok)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def guarded(rec: Recorder, fn, *args):
    """Run fn and return its result; an exception counts as one failed
    operation, is recorded, and gives None."""
    try:
        return fn(*args)
    except Exception:  # the run reports the failure and goes on
        rec.fail(traceback.format_exc(limit=3))
        return None


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    def warmup(self, rec: Recorder) -> list[tuple[int, object]]:
        """Run one untimed unit; return it as (index, kept outputs) for ``check_all``."""
        return [(WARMUP_INDEX, self.keep(self.unit(rec, self.prepare(WARMUP_INDEX))))]

    def keep(self, outputs):
        """What ``check`` needs of a unit's outputs, taken right after the
        unit (untimed and untraced)."""
        return outputs

    def check(self, rec: Recorder, inputs, outputs) -> None:
        """Checks made after the pass on what ``keep`` took of a unit's
        outputs; cli-session checks each call instead."""

    def finish(self, rec: Recorder) -> None:
        """Checks made on everything one measured pass produced."""

    def close(self) -> None:
        """Release what the workload created."""

    def recorder(self) -> Recorder:
        return Recorder()

    def peak_rss_mb(self, rec: Recorder) -> float:
        """Largest resident set of this process so far, in MB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# stream workloads: ingest-long and monitor
# ----------------------------------------------------------------------

def _stream_config(seed: int, k: int, m: int, j_max: int) -> simlab.SimConfig:
    """Example-4 model (p=4, q=3, r=2, correlated AR(1), 100 rows per batch)."""
    return replace(simlab.example4_config(seed=seed, replications=1), k=k, m=m, j_max=j_max)


def _ingest(state, batch, j: int, cfg: simlab.SimConfig, schema: StreamSchema) -> None:
    """Compress one raw batch and hand it to the engine call its index needs."""
    stats = batchstats.compress_batch(batch.x, batch.y, schema, z_rows=batch.z, w_rows=batch.w)
    if j == cfg.k + 1:
        state.begin_update_phase(stats)
    elif j == cfg.k + cfg.m + 1:
        state.begin_second_update(stats)
    elif j <= cfg.k:
        state.ingest_pre_change(stats)
    else:
        state.ingest_post_change(stats)


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def direct_sse(stream, cfg: simlab.SimConfig) -> float:
    """Weighted homogenized residual sum of a finished three-phase stream,
    computed from its raw rows alone.

    The segment weights come from the least-squares fit on the second event
    batch (the engine's estimated initial choices), the projection maps from
    every batch that observed the mapped group (the engine's refined maps).
    The residual sum is then one weighted least-squares fit over all rows.
    """
    k, k2, p, q = cfg.k, cfg.k + cfg.m, cfg.p, cfg.q
    cat = lambda seg, name: np.concatenate([getattr(b, name) for b in seg])  # noqa: E731
    seg0, seg1, seg2 = stream[:k], stream[k:k2], stream[k2:]
    x0, y0 = cat(seg0, "x"), cat(seg0, "y")
    x1, z1, y1 = cat(seg1, "x"), cat(seg1, "z"), cat(seg1, "y")
    x2, z2, w2, y2 = cat(seg2, "x"), cat(seg2, "z"), cat(seg2, "w"), cat(seg2, "y")

    ev = seg2[0]
    full = np.hstack([ev.x, ev.z, ev.w])
    eta = _lstsq(full, ev.y)
    resid = ev.y - full @ eta
    n, dim = full.shape
    sigma_post = float(resid @ resid) / (n - dim)
    theta0, gamma0 = eta[p : p + q], eta[p + q :]
    sigma_mid = float(gamma0 @ (ev.w.T @ ev.w / n) @ gamma0) + sigma_post
    sigma_pre = float(theta0 @ (ev.z.T @ ev.z / n) @ theta0) + sigma_mid

    b = _lstsq(np.vstack([x1, x2]), np.vstack([z1, z2]))
    c = _lstsq(x2, w2)
    d = _lstsq(np.hstack([x2, z2]), w2)
    rows = [
        (np.hstack([x0, x0 @ b, x0 @ c]), y0, sigma_pre),
        (np.hstack([x1, z1, np.hstack([x1, z1]) @ d]), y1, sigma_mid),
        (np.hstack([x2, z2, w2]), y2, sigma_post),
    ]
    design = np.vstack([h / np.sqrt(s) for h, _, s in rows])
    response = np.concatenate([y / np.sqrt(s) for _, y, s in rows])
    resid = response - design @ _lstsq(design, response)
    return float(resid @ resid)


class StreamWorkload(Workload):
    """Shared driver of ingest-long and monitor: feed whole streams, then check."""

    def __init__(self, cfg: simlab.SimConfig):
        self.cfg = cfg
        self.full_schema = StreamSchema(cfg.p, cfg.q, cfg.r)

    def prepare(self, index: int):
        return simlab.gen_stream(self.cfg, index)

    def unit(self, rec: Recorder, stream):
        state = new_stream(StreamSchema(self.cfg.p))
        pre_beta = None
        for j, batch in enumerate(stream, start=1):
            pre_beta = self.step(rec, state, batch, j, pre_beta)
        return state, pre_beta

    def keep(self, outputs):
        """The PRE estimate, the final update_sse() and n_total."""
        state, pre_beta = outputs
        return pre_beta, state.update_sse(), state.n_total

    def check(self, rec: Recorder, stream, outputs) -> None:
        pre_beta, got, n_total = outputs
        cfg = self.cfg
        x_pre = np.concatenate([b.x for b in stream[: cfg.k]])
        y_pre = np.concatenate([b.y for b in stream[: cfg.k]])
        rec.check(
            pre_beta is not None and np.allclose(pre_beta, _lstsq(x_pre, y_pre), rtol=CHECK_RTOL, atol=1e-12),
            "PRE-phase estimate equals least squares on the raw x rows",
        )
        expected = direct_sse(stream, cfg)
        rec.check(
            abs(got - expected) <= CHECK_RTOL * abs(expected),
            f"final update_sse {got!r} equals the raw-row residual sum {expected!r}",
        )
        rows = sum(b.y.shape[0] for b in stream)
        rec.check(n_total == rows, f"n_total {n_total} equals the {rows} rows fed")


class IngestLong(StreamWorkload):
    """One long Example-4 stream per unit, three equally long phases;
    estimate() only at each phase end."""

    def __init__(self, seed: int, smoke: bool):
        phase = 20 if smoke else 400
        super().__init__(_stream_config(seed, phase, phase, 3 * phase))
        self.phase_ends = (phase, 2 * phase, 3 * phase)

    def step(self, rec, state, batch, j, pre_beta):
        rec.call("ingest", _ingest, state, batch, j, self.cfg, self.full_schema)
        if j in self.phase_ends:
            report = rec.call("estimate", state.estimate)
            if j == self.cfg.k:
                pre_beta = report.beta
        rec.end_step(batches=1)
        return pre_beta


class Monitor(StreamWorkload):
    """Short Example-4 streams (events at batches 11 and 22, 30 batches);
    every batch is followed by estimate() and update_sse(), and in phase ONE
    by test_theta_zero()."""

    def __init__(self, seed: int, smoke: bool):
        super().__init__(_stream_config(seed, 10, 11, 30))

    def step(self, rec, state, batch, j, pre_beta):
        rec.call("ingest", _ingest, state, batch, j, self.cfg, self.full_schema)
        report = rec.call("estimate", state.estimate)
        rec.call("update_sse", state.update_sse)
        if state.phase is Phase.ONE:
            rec.call("test", inference.test_theta_zero, state)
        rec.end_step(batches=1)
        return report.beta if j == self.cfg.k else pre_beta


# ----------------------------------------------------------------------
# replicate-tables
# ----------------------------------------------------------------------

def table_configs(seed: int, replications: int):
    """The Table-4 and Table-1(b, correlated) experiments with their checkpoints."""
    return (
        (simlab.example4_config(replications=replications, seed=seed), (25, 30)),
        (simlab.example1_config("b", "correlated", replications=replications, seed=seed), (12, 16, 20)),
    )


GOLDEN_FILE = BENCH_DIR / "golden.json"
GOLDEN_SEED = 0
GOLDEN_REPLICATIONS = 4


def golden_records() -> list[list]:
    """Records of the golden experiments, in the layout of golden.json."""
    return [
        list(record)
        for cfg, checkpoints in table_configs(GOLDEN_SEED, GOLDEN_REPLICATIONS)
        for record in simlab.run_bias_mse(cfg, checkpoints).records
    ]


# Fewest replicates per setup for which the MSE ordering is checked. At 4
# replicates AUE's mse_beta exceeded NUE's for up to 9 of 40 seeds; at 100
# the largest AUE/NUE ratio seen over 16 seeds was 0.83.
ORDERING_MIN_REPLICATES = 100


class ReplicateTables(Workload):
    """Serial run_bias_mse on the Table-4 and Table-1(b, correlated) setups."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.replications = 1 if smoke else 4
        self._mse: dict[tuple[str, int], dict[str, float]] = {}
        self._replicates: dict[str, int] = {}

    def prepare(self, index: int):
        return table_configs(self.seed * 100_003 + index, self.replications)

    def warmup(self, rec: Recorder) -> list[tuple[int, object]]:
        """Run the golden experiments and compare every record."""
        golden = json.loads(GOLDEN_FILE.read_text())
        records = rec.call("golden", golden_records)
        rec.check(len(records) == len(golden), f"{len(records)} golden records, expected {len(golden)}")
        for got, want in zip(records, golden):
            rec.check(
                got[:3] == want[:3] and abs(got[3] - want[3]) <= GOLDEN_RTOL * abs(want[3]),
                f"golden record {want} reproduced (got {got})",
            )
        return []

    def unit(self, rec: Recorder, configs):
        results = [
            (rec.call("table", simlab.run_bias_mse, cfg, checkpoints), checkpoints)
            for cfg, checkpoints in configs
        ]
        rec.end_step(batches=sum(cfg.j_max * cfg.replications for cfg, _ in configs))
        rec.replicates += sum(cfg.replications for cfg, _ in configs)
        return results

    def check(self, rec: Recorder, configs, results) -> None:
        """Pool mse_beta over the pass's replicates (equal replicates per call)."""
        for result, checkpoints in results:
            setup = f"p={result.config.p}"
            self._replicates[setup] = self._replicates.get(setup, 0) + result.config.replications
            for j in checkpoints:
                pooled = self._mse.setdefault((setup, j), {"AUE": 0.0, "NUE": 0.0})
                for method in pooled:
                    pooled[method] += result.value(method, j, "mse_beta") * result.config.replications

    def finish(self, rec: Recorder) -> None:
        """AUE's pooled mse_beta stays below NUE's at every checkpoint."""
        for (setup, j), pooled in sorted(self._mse.items()):
            if self._replicates[setup] >= ORDERING_MIN_REPLICATES:
                rec.check(
                    pooled["AUE"] < pooled["NUE"],
                    f"{setup} batch {j}: AUE mse_beta {pooled['AUE']} below NUE {pooled['NUE']}",
                )
        self._mse.clear()
        self._replicates.clear()


# ----------------------------------------------------------------------
# cli-session
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _parse_kv(text: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def child_env() -> dict[str, str]:
    """Environment of CLI child processes: the package from this checkout's src."""
    env = {k: v for k, v in os.environ.items() if k != "HETSTREAM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd, env) -> tuple[int, str, float]:
    """Run a child process to its end, killing it after CHILD_TIMEOUT_S.
    Returns its exit code, its standard output and its own peak resident
    set in MB (from wait4)."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


class CliSession(Workload):
    """One Example-4 stream fed batch by batch through ``python -m hetstream``.

    Batch ``j`` is ingested (``--event add-z`` at the first z batch, ``add-w``
    at the first w batch); after even ``j`` an ``estimate`` call follows, after
    odd ``j`` in phase ONE a ``test`` call: 51 calls for the Example-4
    stream, every one a step. With
    ``in_process`` the same argument lists go to ``cli.main`` in this process
    (the traced run), so the per-layer figures exclude interpreter start.
    """

    def __init__(self, seed: int, smoke: bool, in_process: bool = False):
        cfg = simlab.example4_config(seed=seed, replications=1)
        self.cfg = replace(cfg, k=2, m=2, j_max=6) if smoke else cfg
        self.in_process = in_process
        OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        self.env = child_env()
        self.sessions = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def recorder(self) -> Recorder:
        if self.in_process:
            return Recorder()
        return Recorder(process_slowness, REF_PROCESS_EVERY_S)

    def peak_rss_mb(self, rec: Recorder) -> float:
        """Largest resident set of a measured ``python -m hetstream`` child,
        in MB; this process and the reference processes are left out."""
        return rec.child_peak_mb

    def prepare(self, index: int):
        """Write the stream's batch CSVs and the library's expected outputs."""
        cfg = self.cfg
        folder = self.work / f"stream{index}"
        folder.mkdir(exist_ok=True)
        state = new_stream(StreamSchema(cfg.p))
        schema = StreamSchema(cfg.p, cfg.q, cfg.r)
        calls = []
        for j, batch in enumerate(simlab.gen_stream(cfg, index), start=1):
            path = folder / f"batch{j:03d}.csv"
            hio.write_batch_csv(path, batch.x, batch.y, z=batch.z, w=batch.w)
            _ingest(state, batch, j, cfg, schema)
            event = {cfg.k + 1: "add-z", cfg.k + cfg.m + 1: "add-w"}.get(j)
            argv = ["ingest", "--batch", str(path)] + (["--event", event] if event else [])
            calls.append((argv, {"n_total": str(state.n_total)}, state.phase))
            if j % 2 == 0:
                report = state.estimate()
                expect = {"n_total": str(report.n_total), "sse": _fmt(state.update_sse())}
                for name in ("beta", "theta", "gamma"):
                    values = getattr(report, name)
                    for i, v in enumerate([] if values is None else values, start=1):
                        expect[f"{name}_{i}"] = _fmt(v)
                calls.append((["estimate"], expect, state.phase))
            elif state.phase is Phase.ONE:
                f_value = _fmt(inference.test_theta_zero(state).f_value)
                calls.append((["test"], {"f_value": f_value}, state.phase))
        return calls

    def run_cli(self, argv: list[str]) -> tuple[int, str, float]:
        """Exit code, standard output and the child's peak resident set
        (0 in process)."""
        if self.in_process:
            out = textio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(textio.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue(), 0.0
        return run_child([sys.executable, "-m", "hetstream", *argv], self.work, self.env)

    def warmup(self, rec: Recorder) -> list[tuple[int, object]]:
        """One ingest call on a throwaway state: loads the interpreter and
        the package files before timing."""
        self.unit(rec, self.prepare(WARMUP_INDEX)[:1])
        return []

    def unit(self, rec: Recorder, calls):
        """Run the stream's calls in order, checking each call's output."""
        self.sessions += 1
        state = str(self.work / f"state{self.sessions}.npz")
        for argv, expect, phase in calls:
            command = argv[0]
            code, out, peak_mb = rec.call(f"cli.{command}", self.run_cli, [command, "--state", state, *argv[1:]])
            rec.end_step(batches=1 if command == "ingest" else 0)
            rec.child_peak_mb = max(rec.child_peak_mb, peak_mb)
            if not rec.check(code == 0, f"`hetstream {' '.join(argv)}` exited with {code}"):
                return None
            printed = _parse_kv(out)
            for key, want in expect.items():
                rec.check(printed.get(key) == want, f"{command} printed {key} = {printed.get(key)}, library gives {want}")
            if command == "ingest" and phase is Phase.TWO:
                rec.snapshot_bytes = os.path.getsize(state)
        return None

    def startup(self, main_ingest_ms: float | None, reps: int) -> dict[str, float | None]:
        """cli.import_ms (a fresh interpreter importing hetstream.cli) and
        cli.startup_share (the part of a CLI ingest call spent before
        ``cli.main`` works), from child processes."""
        probe = "import time; t = time.perf_counter(); import hetstream.cli; print(time.perf_counter() - t)"
        first = self.prepare(0)[0][0]
        imports, calls = [], []
        for rep in range(reps):
            proc = subprocess.run(
                [sys.executable, "-c", probe], cwd=self.work, env=self.env,
                capture_output=True, text=True, timeout=120, check=True,
            )
            imports.append(float(proc.stdout) * 1e3)
            state = str(self.work / f"startup{rep}.npz")
            t0 = clock()
            subprocess.run(
                [sys.executable, "-m", "hetstream", "ingest", "--state", state, *first[1:]],
                cwd=self.work, env=self.env, capture_output=True, timeout=120, check=True,
            )
            calls.append((clock() - t0) * 1e3)
        call_ms = statistics.median(calls)
        return {
            "cli.import_ms": statistics.median(imports),
            "cli.startup_share": None if main_ingest_ms is None else (call_ms - main_ingest_ms) / call_ms,
        }


WORKLOADS = {
    "ingest-long": IngestLong,
    "monitor": Monitor,
    "replicate-tables": ReplicateTables,
    "cli-session": CliSession,
}


def make(name: str, seed: int, smoke: bool, in_process: bool = False):
    if name == "cli-session":
        return CliSession(seed, smoke, in_process=in_process)
    return WORKLOADS[name](seed, smoke)


def measure(workload, rec: Recorder, seconds: float, tracer=None) -> list[tuple[int, object]]:
    """Run whole units until ``seconds`` have passed (at least one unit).

    The pass's set-up samples come first: SETUP_REPS times, the first unit's
    inputs are built repeatedly for at least SETUP_SAMPLE_S, and the time per
    build, scaled by a kernel reference sample taken right after, is one
    sample. Only ``unit`` runs under the tracer; input building and checks
    stay untraced. A unit that raises counts as one failed operation and the
    run goes on with the next unit. Returns (index, kept outputs) of every
    unit that ran to its end, for ``check_all``.
    """
    for _ in range(SETUP_REPS):
        builds, t0 = 0, clock()
        while not builds or clock() - t0 < SETUP_SAMPLE_S:
            inputs = workload.prepare(0)
            builds += 1
        rec.setups.append((clock() - t0) / builds / kernel_slowness())
    end = clock() + seconds
    done = []
    index = 0
    while True:
        if index:
            inputs = workload.prepare(index)
        kept = guarded(rec, _run_unit, workload, rec, inputs, tracer)
        if kept is not None:
            done.append((index, kept))
        index += 1
        if clock() >= end:
            break
    rec.sample_reference()
    return done


def _run_unit(workload, rec: Recorder, inputs, tracer):
    with tracer.installed() if tracer else contextlib.nullcontext():
        outputs = workload.unit(rec, inputs)
    return workload.keep(outputs)


def check_all(workload, rec: Recorder, done: list[tuple[int, object]]) -> None:
    """Check every unit in ``done`` on its inputs, built again, then the pass."""
    for index, kept in done:
        guarded(rec, workload.check, rec, workload.prepare(index), kept)
    guarded(rec, workload.finish, rec)
