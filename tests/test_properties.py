"""Property tests over random streams (Hypothesis)."""

import os
import tempfile
import warnings

import numpy as np
import pytest

import hetstream as hs
from hetstream import io as hio
from hetstream.engine import CONVENTIONS

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
