"""Benchmark of hetstream: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload monitor --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload in turn
    python3 bench/run.py --workload all --smoke          # every workload, tiny size

Run it from a hetstream checkout; the package is imported from its ``src``
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are its per-layer
metrics, from a traced run. The lines before it give the run's metadata,
each timing's p99 and sample count, and the workload's own figures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, hetstream and the modules beside this file are imported inside the
# functions, after import_program() has set the BLAS environment.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("ingest-long", "monitor", "replicate-tables", "cli-session")
DEFAULT_SECONDS = 25.0
SMOKE_SECONDS = 0.5
# Budget of the short traced pass that supplies the figures of a layer the
# traced workload never reaches.
FILL_SECONDS = 1.0
# One BLAS thread for this process and its children. With OpenBLAS's default
# of one thread per core, the small solves hand work to a helper thread that
# then spins: on a shared 2-core virtual machine (x86-64, OpenBLAS 0.3.31), that halved
# monitor throughput, made a step's p99 about 20x its p50, and widened the
# run-to-run spread past the bounds.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time (default {DEFAULT_SECONDS:g}, {SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    return args


def import_program() -> None:
    """Import hetstream from this checkout's src."""
    if not (SRC / "hetstream" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hetstream'} not found; run the benchmark from a hetstream checkout")
    os.environ.pop("HETSTREAM_THREADS", None)   # replicates run serially
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import hetstream
    if Path(hetstream.__file__).resolve().parent != SRC / "hetstream":
        sys.exit(f"error: imported hetstream from {hetstream.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# run metadata
# ----------------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_info() -> dict:
    """The BLAS numpy was built against and the thread count in effect."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads": threads, "env": env}


def metadata(args, name: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "warmup": "one untimed unit before timing: a whole stream (ingest-long, monitor), "
                  "the golden-record pass (replicate-tables), one ingest call (cli-session)",
        "load": "one process; cli-session runs one child process at a time; "
                "HETSTREAM_THREADS unset, so replicates run serially",
    }


# ----------------------------------------------------------------------
# end-to-end run (tracing off)
# ----------------------------------------------------------------------


def _timing(report: dict, base: str, durations, unit: str) -> None:
    """p50 and p99 of durations (s) in ``unit``, and the sample count."""
    import numpy as np

    scale = {"ms": 1e3, "us": 1e6}[unit]
    for q in (50, 99):
        report[f"{base}_p{q}_{unit}"] = (float(np.percentile(durations, q)) * scale, unit)
    report[f"{base}_n"] = (len(durations), "count")


def run_e2e(name: str, args):
    import workloads

    workload = workloads.make(name, args.seed, args.smoke)
    warm, rec = workload.recorder(), workload.recorder()
    try:
        t0 = time.perf_counter()
        pending = workloads.guarded(warm, workload.warmup, warm) or []
        warmup_s = time.perf_counter() - t0
        pending += workloads.measure(workload, rec, args.seconds)
        peak_mb = workload.peak_rss_mb(rec)      # before any output check runs
        workloads.check_all(workload, rec, pending)
    finally:
        workload.close()

    scaled = rec.scaled_steps()
    speed = rec.speed_factor()
    metrics = {
        "batches_per_s": (rec.batches / sum(scaled), "batches/s"),
        "step_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "setup_s": (statistics.median(rec.setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    # Timings below are at reference speed too (scaled by the pass's median
    # reference time), except the wall-clock figures named so.
    report: dict[str, tuple] = {"speed_factor": (speed, "ratio")}
    _timing(report, "step", scaled, "ms")
    _timing(report, "step_wall", rec.steps, "ms")
    report["wall_batches_per_s"] = (rec.batches / sum(rec.steps), "batches/s")
    report["warmup_s"] = (warmup_s * speed, "s")
    # Per call kind (estimate_p50_us, test_p50_us, ...), then the figures the
    # workload is named for.
    for kind, durations in sorted(rec.ops.items()):
        _timing(report, kind, [d * speed for d in durations], "us")
    if "ingest" in rec.ops:
        ingest_s = sum(rec.ops["ingest"]) * speed
        report["ingest_batches_per_s"] = (len(rec.ops["ingest"]) / ingest_s, "batches/s")
    if name == "monitor":
        report["monitor_batches_per_s"] = metrics["batches_per_s"]
    if rec.replicates:
        report["replicates_per_s"] = (rec.replicates / sum(scaled), "replicates/s")
    if name == "cli-session":
        _timing(report, "cli_call", scaled, "ms")
    attempted = warm.attempted + rec.attempted
    failed = warm.failed + rec.failed
    return metrics, report, attempted, failed, warm.errors + rec.errors, None


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

def traced_pass(name: str, args, seconds: float, smoke: bool, untraced_first: bool):
    """Warm up, optionally measure untraced, then measure traced.

    Returns the layer values, the recorders and the tracer.
    """
    import tracing
    import workloads

    workload = workloads.make(name, args.seed, smoke, in_process=True)
    warm, plain, traced = workload.recorder(), workload.recorder(), workload.recorder()
    tracer = tracing.Tracer()
    try:
        pending = workloads.guarded(warm, workload.warmup, warm) or []
        if untraced_first:
            workloads.check_all(workload, plain, pending + workloads.measure(workload, plain, seconds))
            pending = []
        workloads.check_all(workload, traced, pending + workloads.measure(workload, traced, seconds, tracer))
        values = dict.fromkeys(layer_units())
        values.update(tracing.layer_values(tracer.spans, traced.batches))
        if name == "cli-session":
            values["io.snapshot_bytes"] = traced.snapshot_bytes
            reps = 1 if smoke else 3
            values.update(workload.startup(values["cli.main.ingest.p50_ms"], reps))
    finally:
        workload.close()
    return values, (warm, plain, traced), tracer


def layer_units() -> dict[str, str]:
    """Per-layer metric names of BENCHMARK.json, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def layer_homes() -> dict[str, str | None]:
    """The workload that exercises each layer metric's layer, from
    expectations.json. A traced run of a workload that never reaches a layer
    takes that layer's figures from a short traced pass of its home."""
    spec = json.loads((BENCH / "expectations.json").read_text())
    return {name: entry["measured_on"] for name, entry in spec["per_layer"].items()}


def run_traced(name: str, args):
    import tracing

    values, recs, tracer = traced_pass(name, args, args.seconds / 2, args.smoke, untraced_first=True)
    _, plain, traced = recs
    if plain.steps and traced.steps:
        values["trace.overhead_frac"] = (
            statistics.fmean(traced.scaled_steps()) / statistics.fmean(plain.scaled_steps()) - 1.0
        )
    sources = {metric: name for metric, v in values.items() if v is not None}
    dumps = {name: tracer.dump()}
    breakdown = tracing.solve_breakdown(tracer.spans)

    home_of = layer_homes()
    homes = dict.fromkeys(home_of[m] for m, v in values.items() if v is None and home_of[m])
    for home in homes:
        fill, fill_recs, fill_tracer = traced_pass(home, args, FILL_SECONDS, True, untraced_first=False)
        recs += fill_recs
        dumps[home] = fill_tracer.dump()
        for metric, v in fill.items():
            if values[metric] is None and home_of[metric] == home:
                values[metric] = v
                sources[metric] = f"{home} (smoke-size traced pass)"
        for op, counts in tracing.solve_breakdown(fill_tracer.spans).items():
            breakdown.setdefault(op, counts)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    for metric, v in values.items():
        if v is None:
            failed += 1
            errors.append(f"per-layer metric {metric} was not measured")
    metrics = {m: (values[m] or 0.0, unit) for m, unit in layer_units().items()}
    report = {
        f"solves {op}": (f"{c['spd']:g} spd + {c['lu']:g} lu", "solves/op") for op, c in breakdown.items()
    }
    extra = {"sources": sources, "spans": dumps, "solves": breakdown}
    return metrics, report, attempted, failed, errors, extra


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in turn, each in its own process (one at a time)."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    name = args.workload
    meta = metadata(args, name)
    runner = run_traced if args.trace else run_e2e
    metrics, report, attempted, failed, errors, extra = runner(name, args)

    for error in errors[:5]:
        print(f"error: {error}", file=sys.stderr)
    if extra is not None:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{name}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, **extra}))
        meta["trace_file"] = str(path.relative_to(ROOT))
    print("meta = " + json.dumps(meta, sort_keys=True))
    report["failed_frac"] = (failed / attempted if attempted else 1.0, "failed/attempted")
    for key, (value, unit) in {**report, **metrics}.items():
        print(f"{key} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
