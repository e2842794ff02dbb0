"""A covariate-addition event that raises leaves no trace in the state.

Each case offers a bad event batch, or bad options, to an Example-4 stream
just before its good event batch. The snapshot bytes must not change, and
the stream, retried with the good batch, must answer bit-identically to
one that never failed.
"""

import warnings

import numpy as np
import pytest

import hetstream as hs
from hetstream import io, simlab
from hetstream.errors import DimensionMismatch, InvalidConfig, PhaseMismatch, SingularMatrix

from test_query_cache import CFG, FIRST_EVENT, SECOND_EVENT, assert_identical, batches, feed, queries

RAW = simlab.gen_stream(CFG, 0)
P, Q, R = CFG.p, CFG.q, CFG.r


def event_batch(j, rows=None, p=P, q=Q, r=R):
    """Batch j compressed from its first ``rows`` rows and the leading p, q
    and r columns of its groups (w only when batch j carries it)."""
    b = RAW[j - 1]
    n = slice(rows)
    w = None if b.w is None else b.w[n, :r]
    return hs.compress_batch(
        b.x[n, :p], b.y[n], hs.StreamSchema(p, q, r), z_rows=b.z[n, :q], w_rows=w
    )


FIRST_CASES = {
    "wrong phase tag": (
        lambda: hs.compress_batch(RAW[0].x, RAW[0].y, hs.StreamSchema(P)), {}, PhaseMismatch),
    "p mismatch": (lambda: event_batch(FIRST_EVENT, p=P - 1), {}, DimensionMismatch),
    "q mismatch": (lambda: event_batch(FIRST_EVENT, q=Q - 1), {}, DimensionMismatch),
    "b_hat shape": (
        lambda: event_batch(FIRST_EVENT), {"b_hat": np.zeros((P, Q - 1))}, DimensionMismatch),
    "singular map fit": (lambda: event_batch(FIRST_EVENT, rows=P - 1), {}, SingularMatrix),
    "too small for the choices": (
        lambda: event_batch(FIRST_EVENT, rows=P + 1), {}, SingularMatrix),
    "too small for the choices, forced map": (
        lambda: event_batch(FIRST_EVENT, rows=P + 1), {"assume_uncorrelated": True},
        SingularMatrix),
    "invalid overrides": (
        lambda: event_batch(FIRST_EVENT),
        {"sigma0_sq": -1.0, "theta0": np.zeros(Q), "e0_zz": np.eye(Q)}, InvalidConfig),
}

SECOND_CASES = {
    "wrong phase tag": (lambda: event_batch(SECOND_EVENT - 1), {}, PhaseMismatch),
    "q mismatch": (lambda: event_batch(SECOND_EVENT, q=Q - 1), {}, DimensionMismatch),
    "r mismatch": (lambda: event_batch(SECOND_EVENT, r=R - 1), {}, DimensionMismatch),
    "singular map fit": (lambda: event_batch(SECOND_EVENT, rows=P + Q - 1), {}, SingularMatrix),
    "too small for the choices": (
        lambda: event_batch(SECOND_EVENT, rows=P + Q + 1), {}, SingularMatrix),
    "too small for the choices, forced maps": (
        lambda: event_batch(SECOND_EVENT, rows=P + Q + 1), {"assume_uncorrelated": True},
        SingularMatrix),
    "invalid overrides": (
        lambda: event_batch(SECOND_EVENT),
        {"sigma0_sq": -1.0, "gamma0": np.zeros(R), "theta0": np.zeros(Q),
         "e0_ww": np.eye(R), "e0_zz": np.eye(Q)},
        InvalidConfig),
    "e0_ww not nonnegative definite": (
        lambda: event_batch(SECOND_EVENT),
        {"sigma0_sq": 1.0, "gamma0": np.ones(R), "e0_ww": -10.0 * np.eye(R)}, InvalidConfig),
}

# the mismatch cases need a schema that declares the group the batch misses
DECLARED = {"q mismatch": hs.StreamSchema(P, Q), "r mismatch": hs.StreamSchema(P, Q, R)}


def snapshot_bytes(state, tmp_path):
    path = tmp_path / "state.npz"
    io.save_state(state, path)
    return path.read_bytes()


def answers_after(event, schema, tmp_path, failure=None):
    """Queries after every batch from ``event`` on; ``failure`` (a batch,
    options and the error they raise) is tried just before the event."""
    state = hs.new_stream(schema)
    begin = state.begin_update_phase if event == FIRST_EVENT else state.begin_second_update
    answers = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j, stats in enumerate(batches(), start=1):
            if j == event and failure is not None:
                make_batch, options, error = failure
                before = snapshot_bytes(state, tmp_path)
                with pytest.raises(error):
                    begin(make_batch(), **options)
                assert snapshot_bytes(state, tmp_path) == before
            feed(state, j, stats, {})
            if j >= event:
                answers[j] = queries(state)
    return answers


@pytest.mark.parametrize(
    "event, case",
    [(FIRST_EVENT, case) for case in FIRST_CASES]
    + [(SECOND_EVENT, case) for case in SECOND_CASES],
)
def test_failed_event_leaves_no_trace(event, case, tmp_path):
    failure = (FIRST_CASES if event == FIRST_EVENT else SECOND_CASES)[case]
    schema = DECLARED.get(case, hs.StreamSchema(P))
    clean = answers_after(event, schema, tmp_path)
    retried = answers_after(event, schema, tmp_path, failure)
    for j in clean:
        assert_identical(retried[j], clean[j])
