"""Span tracing for the traced benchmark run, and the per-layer metrics.

Wrappers are installed by this file on module and class attributes of
hetstream for the traced run only, and removed afterwards; nothing under
``src/`` changes. Calls that one module makes into another go through
those attributes at call time (``linalg.solve_spd`` from the engine,
``merge`` imported by name into ``engine`` and ``baselines``,
``compress_batch`` imported by name into ``simlab`` and ``cli``), so each
of them becomes a span whose parent is the span of the caller.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span or -1. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from hetstream import baselines, batchstats, cli, engine, inference, io, linalg, simlab
from hetstream.baselines import AveState, NueState
from hetstream.engine import AccumulatorState


def _by_phase(prefix):
    """Label a state method's span by the phase the state is in at the call."""
    return lambda args: f"{prefix}.{args[0].phase.name.lower()}"


def _by_command(args):
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


# (owner, attribute, span name or function of the call's positional args)
PATCHES = (
    (batchstats, "compress_batch", "batchstats.compress_batch"),
    (simlab, "compress_batch", "batchstats.compress_batch"),
    (cli, "compress_batch", "batchstats.compress_batch"),
    (engine, "merge", "batchstats.merge"),
    (baselines, "merge", "batchstats.merge"),
    (AccumulatorState, "ingest_pre_change", "engine.ingest.pre"),
    (AccumulatorState, "ingest_post_change", _by_phase("engine.ingest")),
    (AccumulatorState, "begin_update_phase", "engine.begin_update_phase"),
    (AccumulatorState, "begin_second_update", "engine.begin_second_update"),
    (AccumulatorState, "estimate", _by_phase("engine.estimate")),
    (AccumulatorState, "update_sse", "engine.update_sse"),
    (inference, "test_theta_zero", "inference.test_theta_zero"),
    (inference, "f_quantile", "inference.f_quantile"),
    (linalg, "solve_spd", "linalg.solve_spd"),
    (linalg, "solve_general", "linalg.solve_general"),
    (linalg, "solve_consistent", "linalg.solve_consistent"),
    (NueState, "ingest", "baselines.nue.ingest"),
    (AveState, "ingest", "baselines.ave.ingest"),
    (NueState, "estimate", "baselines.nue.estimate"),
    (AveState, "estimate", "baselines.ave.estimate"),
    (simlab, "gen_stream", "simlab.gen_stream"),
    (simlab, "drive_stream", "simlab.drive_stream"),
    (io, "read_batch_csv", "io.read_batch_csv"),
    (io, "save_state", "io.save_state"),
    (io, "load_state", "io.load_state"),
    (cli, "main", _by_command),
)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
        try:
            for (owner, attr, label), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(fn, label))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def dump(self) -> dict:
        """Spans as a compact table, times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(a - base, 9), round(b - base, 9), p] for n, a, b, p in self.spans
        ]
        return {"columns": ["name", "start_s", "end_s", "parent"], "names": names, "rows": rows}


def _solve_counts(spans: list[list]) -> tuple[list[int], list[int]]:
    """SPD and LU solves made inside each span, nested ones included."""
    spd, lu = [0] * len(spans), [0] * len(spans)
    for name, _, _, parent in spans:
        counts = spd if name == "linalg.solve_spd" else lu if name == "linalg.solve_general" else None
        j = parent
        while counts is not None and j >= 0:
            counts[j] += 1
            j = spans[j][3]
    return spd, lu


def percentile(values, q):
    """q-th percentile (0..100), linearly interpolated; None when empty."""
    return float(np.percentile(values, q)) if len(values) else None


def layer_values(spans: list[list], batches: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None where the pass has no spans.

    Self time is a span's duration minus the durations of its children
    (children of one span never overlap: the program is single-threaded).
    A span is outermost in its layer when no ancestor belongs to the same
    layer, so busy times never count nested calls twice.
    """
    n = len(spans)
    dur = [b - a for _, a, b, _ in spans]
    child = [0.0] * n
    bits: dict[str, int] = {}
    own = [0] * n
    above = [0] * n        # layers of all ancestors, as a bit mask
    spd, lu = _solve_counts(spans)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        own[i] = bits.setdefault(layer, 1 << len(bits))
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child[parent] += dur[i]
            above[i] = above[parent] | own[parent]

    def durs(*names):
        return [dur[i] for name in names for i in by_name.get(name, ())]

    def pct(q, scale, *names):
        v = percentile(durs(*names), q)
        return None if v is None else v * scale

    us = lambda q, *names: pct(q, 1e6, *names)  # noqa: E731
    ms = lambda q, *names: pct(q, 1e3, *names)  # noqa: E731

    def calls(name):
        if name not in by_name or not batches:
            return None
        return len(by_name[name]) / batches

    def per_op(name):
        idx = by_name.get(name)
        return sum(spd[i] + lu[i] for i in idx) / len(idx) if idx else None

    def busy(pred, outer_of=None, under=None):
        """Summed duration of the spans whose name satisfies pred, that are
        outermost in layer ``outer_of`` and, when given, lie inside a span
        of layer ``under``."""
        mask = bits.get(outer_of, 0)
        inside = bits.get(under, 0)
        hits = [
            dur[i]
            for i in range(n)
            if pred(spans[i][0])
            and not above[i] & mask
            and (under is None or above[i] & inside)
        ]
        return sum(hits) if hits else None

    def share(part, whole):
        return None if part is None or not whole else part / whole

    in_engine = lambda s: s.startswith("engine.")  # noqa: E731
    in_baselines = lambda s: s.startswith("baselines.")  # noqa: E731
    engine_bit = bits.get("engine", 0)
    linalg_in_engine = sum(
        dur[i] - child[i]
        for i in range(n)
        if spans[i][0].startswith("linalg.") and above[i] & engine_bit
    )
    drive = busy(lambda s: s == "simlab.drive_stream")
    return {
        "batchstats.compress_batch.calls": calls("batchstats.compress_batch"),
        "batchstats.compress_batch.p50_us": us(50, "batchstats.compress_batch"),
        "batchstats.compress_batch.busy_s": busy(lambda s: s == "batchstats.compress_batch"),
        "batchstats.merge.calls": calls("batchstats.merge"),
        "batchstats.merge.p50_us": us(50, "batchstats.merge"),
        "engine.ingest.pre.p50_us": us(50, "engine.ingest.pre"),
        "engine.ingest.one.p50_us": us(50, "engine.ingest.one"),
        "engine.ingest.two.p50_us": us(50, "engine.ingest.two"),
        "engine.ingest.busy_s": busy(
            lambda s: s.startswith(("engine.ingest.", "engine.begin_")), "engine"
        ),
        "engine.begin_update_phase.p50_us": us(50, "engine.begin_update_phase"),
        "engine.begin_second_update.p50_us": us(50, "engine.begin_second_update"),
        "engine.solves_per_ingest.pre": per_op("engine.ingest.pre"),
        "engine.solves_per_ingest.one": per_op("engine.ingest.one"),
        "engine.solves_per_ingest.two": per_op("engine.ingest.two"),
        "engine.estimate.pre.p50_us": us(50, "engine.estimate.pre"),
        "engine.estimate.one.p50_us": us(50, "engine.estimate.one"),
        "engine.estimate.two.p50_us": us(50, "engine.estimate.two"),
        "engine.estimate.p99_us": us(
            99, "engine.estimate.pre", "engine.estimate.one", "engine.estimate.two"
        ),
        "engine.estimate.busy_s": busy(lambda s: s.startswith("engine.estimate."), "engine"),
        "engine.update_sse.p50_us": us(50, "engine.update_sse"),
        "engine.solves_per_estimate.pre": per_op("engine.estimate.pre"),
        "engine.solves_per_estimate.one": per_op("engine.estimate.one"),
        "engine.solves_per_estimate.two": per_op("engine.estimate.two"),
        "inference.test_theta_zero.calls": calls("inference.test_theta_zero"),
        "inference.test_theta_zero.p50_us": us(50, "inference.test_theta_zero"),
        "inference.test_theta_zero.p99_us": us(99, "inference.test_theta_zero"),
        "inference.f_quantile.p50_us": us(50, "inference.f_quantile"),
        "inference.solves_per_test": per_op("inference.test_theta_zero"),
        "linalg.solve_spd.calls": calls("linalg.solve_spd"),
        "linalg.solve_spd.p50_us": us(50, "linalg.solve_spd"),
        "linalg.solve_spd.busy_s": busy(lambda s: s == "linalg.solve_spd"),
        "linalg.solve_general.calls": calls("linalg.solve_general"),
        "linalg.solve_general.p50_us": us(50, "linalg.solve_general"),
        "linalg.solve_consistent.calls": calls("linalg.solve_consistent"),
        "linalg.share_of_engine": share(linalg_in_engine, busy(in_engine, "engine")),
        "baselines.nue.ingest.p50_us": us(50, "baselines.nue.ingest"),
        "baselines.ave.ingest.p50_us": us(50, "baselines.ave.ingest"),
        "baselines.estimate.p50_us": us(50, "baselines.nue.estimate", "baselines.ave.estimate"),
        "baselines.busy_s": busy(in_baselines, "baselines"),
        "simlab.gen_stream.busy_s": busy(lambda s: s == "simlab.gen_stream"),
        "simlab.drive_stream.p50_ms": ms(50, "simlab.drive_stream"),
        "simlab.share.engine": share(busy(in_engine, "engine", "simlab"), drive),
        "simlab.share.baselines": share(busy(in_baselines, "baselines", "simlab"), drive),
        "simlab.share.gen": share(busy(lambda s: s == "simlab.gen_stream", None, "simlab"), drive),
        "io.read_batch_csv.p50_us": us(50, "io.read_batch_csv"),
        "io.save_state.p50_us": us(50, "io.save_state"),
        "io.load_state.p50_us": us(50, "io.load_state"),
        "cli.main.ingest.p50_ms": ms(50, "cli.main.ingest"),
    }


def solve_breakdown(spans: list[list]) -> dict[str, dict[str, float]]:
    """Mean SPD and LU solves per engine ingest/estimate and per test."""
    spd, lu = _solve_counts(spans)
    ops: dict[str, list[int]] = {}
    for i, (name, _, _, _) in enumerate(spans):
        if name.startswith(("engine.ingest.", "engine.estimate.", "inference.test_theta_zero")):
            ops.setdefault(name, []).append(i)
    return {
        name: {"spd": sum(spd[i] for i in idx) / len(idx), "lu": sum(lu[i] for i in idx) / len(idx)}
        for name, idx in sorted(ops.items())
    }
