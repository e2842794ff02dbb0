"""Property tests over random streams, merges and snapshots (Hypothesis)."""

import json
import os
import tempfile
import warnings

import numpy as np
import pytest

import hetstream as hs
from hetstream import io as hio
from hetstream.batchstats import BatchStats
from hetstream.engine import CONVENTIONS
from hetstream.errors import SchemaMismatch

from helpers import ar1_cov

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def streams(draw):
    """Covariate group sizes, batch sizes, event positions, the weight
    convention, map refinement and a data seed: p, then q from batch k + 1
    and (when r > 0) r from batch k + m + 1."""
    p, q, r = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    k, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    events = {k + 1: "add-z"}
    if r:
        events[k + m + 1] = "add-w"
    total = k + m + (draw(st.integers(1, 3)) if r else 0)
    dim = p + q + r
    # an event batch fits the projection maps, so it needs full rank
    sizes = [
        draw(st.integers(dim + 2, dim + 10) if j in events else st.integers(1, dim + 6))
        for j in range(1, total + 1)
    ]
    return dict(
        p=p, q=q, r=r, events=events, sizes=sizes,
        convention=draw(st.sampled_from(CONVENTIONS)),
        refine_maps=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _estimate(state):
    report = state.estimate()
    cov = report.cov_plugin
    naive = report.theta_naive
    return (
        report.coefficients.tobytes(), None if naive is None else naive.tobytes(),
        None if cov is None else cov.tobytes(),
        repr(report.rho_hat), report.n_total, report.m_post, report.case_label,
    )


def _answers(state) -> dict:
    """Each query's answer, in bytes and reprs, or the error it raised."""
    queries = {
        "estimate": _estimate,
        "sse": lambda s: repr(s.update_sse()),
        "test": lambda s: repr(hs.test_theta_zero(s)),
    }
    out = {}
    for name, query in queries.items():
        try:
            out[name] = query(state)
        except hs.HetstreamError as exc:
            out[name] = (type(exc).__name__, str(exc))
    return out


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(streams())
def test_snapshot_after_every_batch_answers_like_the_uninterrupted_stream(case):
    p, q, r = case["p"], case["q"], case["r"]
    rng = np.random.default_rng(case["seed"])
    chol = np.linalg.cholesky(ar1_cov(p + q + r))
    truth = rng.normal(size=p + q + r)
    states = [
        hs.new_stream(hs.StreamSchema(p), weight_convention=case["convention"],
                      refine_maps=case["refine_maps"])
        for _ in range(2)
    ]
    width, schema = p, hs.StreamSchema(p)
    with tempfile.TemporaryDirectory() as folder, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = os.path.join(folder, "state.npz")
        for j, n in enumerate(case["sizes"], start=1):
            event = case["events"].get(j)
            if event == "add-z":
                width, schema = p + q, hs.StreamSchema(p, q)
            elif event == "add-w":
                width, schema = p + q + r, hs.StreamSchema(p, q, r)
            rows = rng.standard_normal((n, p + q + r)) @ chol.T
            y = rows @ truth + rng.normal(size=n)
            seen = rows[:, :width]
            stats = hs.compress_batch(
                seen[:, :p], y, schema,
                z_rows=seen[:, p:p + q] if width > p else None,
                w_rows=seen[:, p + q:] if width > p + q else None,
            )
            for state in states:
                if event == "add-z":
                    state.begin_update_phase(stats)
                elif event == "add-w":
                    state.begin_second_update(stats)
                elif state.phase is hs.Phase.PRE:
                    state.ingest_pre_change(stats)
                else:
                    state.ingest_post_change(stats)
            # states[1] is the stream that is saved and loaded after every batch
            hio.save_state(states[1], path)
            states[1] = hio.load_state(path)
            assert states[1].phase is states[0].phase
            assert _answers(states[1]) == _answers(states[0]), (j, states[0].phase)


# ----------------------------------------------------------------------
# merge: the monoid of batch statistics
# ----------------------------------------------------------------------

widths = st.integers(1, 3).flatmap(
    lambda p: st.integers(0, 2).flatmap(
        lambda q: st.tuples(st.just(p), st.just(q), st.integers(0, 2 if q else 0))
    )
)


@st.composite
def batches(draw, count: int = 3):
    """``count`` compressed batches of one drawn width, each of 1-8 rows
    drawn at one of three scales."""
    p, q, r = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = hs.StreamSchema(p, q, r)
    out = []
    for _ in range(count):
        rows = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal((draw(st.integers(1, 8)), p + q + r + 1))
        out.append(hs.compress_batch(
            rows[:, :p], rows[:, -1], schema,
            z_rows=rows[:, p:p + q] if q else None,
            w_rows=rows[:, p + q:-1] if r else None,
        ))
    return out


def _bits(stats):
    return stats.n, stats.widths, stats.cross.tobytes()


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(batches(count=2))
def test_merge_is_commutative_bit_for_bit(pair):
    a, b = pair
    assert _bits(hs.merge(a, b)) == _bits(hs.merge(b, a))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(batches(count=1))
def test_zeros_is_the_identity_of_merge_bit_for_bit(single):
    (a,) = single
    zero = BatchStats.zeros(*a.widths)
    assert _bits(hs.merge(a, zero)) == _bits(a) == _bits(hs.merge(zero, a))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(batches(count=3))
def test_merge_is_associative(triple):
    a, b, c = triple
    lhs, rhs = hs.merge(hs.merge(a, b), c), hs.merge(a, hs.merge(b, c))
    assert (lhs.n, lhs.widths) == (rhs.n, rhs.widths)
    # rtol 1e-12 of the summands' magnitude: a sum that cancels to near zero
    # keeps the rounding error of its parts
    scale = np.abs(a.cross) + np.abs(b.cross) + np.abs(c.cross)
    assert np.all(np.abs(lhs.cross - rhs.cross) <= 1e-12 * scale)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=40)
@hypothesis.given(widths, widths)
def test_merge_of_different_widths_raises_schema_mismatch(left, right):
    hypothesis.assume(left != right)
    with pytest.raises(SchemaMismatch):
        hs.merge(BatchStats.zeros(*left), BatchStats.zeros(*right))


# ----------------------------------------------------------------------
# snapshots: damaged files raise HetstreamError and nothing else
# ----------------------------------------------------------------------

_SNAPSHOTS: dict = {}
_ADDED = {"PRE": 0, "ONE": 1, "TWO": 2}   # covariate groups added by each phase


def _batch(rng, added: int):
    """A batch of 20 rows with x (2 columns) and ``added`` one-column groups."""
    rows = rng.standard_normal((20, 3 + added))
    return hs.compress_batch(
        rows[:, :2], rows[:, -1], hs.StreamSchema(2, int(added >= 1), int(added >= 2)),
        z_rows=rows[:, 2:3] if added >= 1 else None,
        w_rows=rows[:, 3:4] if added >= 2 else None,
    )


def _snapshot(phase: str) -> bytes:
    """Bytes of a snapshot of one small stream in ``phase``: two batches in
    each phase up to it, the first of each later phase its event."""
    if phase not in _SNAPSHOTS:
        rng = np.random.default_rng(7)
        state = hs.new_stream(hs.StreamSchema(2))
        events = (state.ingest_pre_change, state.begin_update_phase, state.begin_second_update)
        for added in range(_ADDED[phase] + 1):
            events[added](_batch(rng, added))
            (state.ingest_post_change if added else state.ingest_pre_change)(_batch(rng, added))
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "state.npz")
            hio.save_state(state, path)
            with open(path, "rb") as fh:
                _SNAPSHOTS[phase] = fh.read()
    return _SNAPSHOTS[phase]


def _load_and_use(path, phase: str):
    """Load a snapshot of a stream in ``phase``, query it and ingest one more
    batch; only HetstreamError may come out."""
    stats = _batch(np.random.default_rng(8), _ADDED[phase])
    try:
        state = hio.load_state(path)
        state.estimate()
        state.update_sse()
        (state.ingest_post_change if _ADDED[phase] else state.ingest_pre_change)(stats)
        state.estimate()
    except hs.HetstreamError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(-1e6, 1e6) | st.text(max_size=4)
    | st.sampled_from(["x", "xz", "xzw", "PRE", "ONE", "TWO", "correlated", "uncorrelated",
                       "gram-squared", "paper-linear", "non-random"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _meta_paths(meta) -> list[tuple]:
    """Every metadata key, and every key of its nested records."""
    paths = []
    for key, value in meta.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths += [(key, inner) for inner in value]
        elif key == "segments":
            paths += [(key, i, inner) for i, seg in enumerate(value) for inner in seg]
    return paths


@hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
@hypothesis.given(st.data())
def test_fuzzed_snapshot_metadata_raises_only_hetstream_errors(data):
    phase = data.draw(st.sampled_from(["PRE", "ONE", "TWO"]))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "state.npz")
        with open(path, "wb") as fh:
            fh.write(_snapshot(phase))
        with np.load(path) as entries:
            meta = json.loads(bytes(entries["meta"]))
            arrays = {k: entries[k] for k in entries.files if k != "meta"}
        *parents, last = data.draw(st.sampled_from(_meta_paths(meta)))
        target = meta
        for key in parents:
            target = target[key]
        target[last] = data.draw(json_values)
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        _load_and_use(path, phase)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60)
@hypothesis.given(st.sampled_from(["PRE", "ONE", "TWO"]), st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_snapshot_raises_hetstream_error(phase, fraction):
    snapshot = _snapshot(phase)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "state.npz")
        with open(path, "wb") as fh:
            fh.write(snapshot[: int(fraction * len(snapshot))])
        with pytest.raises(hs.HetstreamError):
            hio.load_state(path)
