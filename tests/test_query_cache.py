"""The state's cache of derived quantities: coherence and solve counts.

Queries read the maps, the bordered system and its solution from a
per-batch cache that every mutator clears, and each segment's Gram, factor
and own fit from a per-segment cache that only a merge into that segment
clears. A stream queried after every batch must therefore give
bit-identical answers to the same stream queried only at the end, or saved
and reloaded mid-phase, and writing into a returned array must not leak
into later queries. The solve-count guard pins how many factorizations
each operation costs, so a refactor that drops either cache or stops
sharing a factor fails here without a benchmark run.
"""

import collections
import warnings

import numpy as np
import pytest

import hetstream as hs
from hetstream import io, linalg, simlab
from hetstream.errors import HetstreamError

CFG = simlab.example4_config(n=40, replications=1, seed=3)
SCHEMA = hs.StreamSchema(CFG.p, CFG.q, CFG.r)
FIRST_EVENT = CFG.k + 1
SECOND_EVENT = CFG.k + CFG.m + 1
# the last batch of each phase and one batch in the middle of each phase
CHECKPOINTS = (CFG.k, SECOND_EVENT - 1, CFG.j_max)
MIDPOINTS = (5, 16, 26)

OPTIONS = {
    "default": ({}, {}),
    "frozen-maps": ({"refine_maps": False}, {}),
    "uncorrelated": ({}, {"assume_uncorrelated": True}),
    "supplied-b": ({}, {"b_hat": np.full((CFG.p, CFG.q), 0.1)}),
}


def batches():
    return [
        hs.compress_batch(b.x, b.y, SCHEMA, z_rows=b.z, w_rows=b.w)
        for b in simlab.gen_stream(CFG, 0)
    ]


def feed(state, j, stats, begin_options):
    if j == FIRST_EVENT:
        state.begin_update_phase(stats, **begin_options)
    elif j == SECOND_EVENT:
        state.begin_second_update(stats)
    elif j <= CFG.k:
        state.ingest_pre_change(stats)
    else:
        state.ingest_post_change(stats)


def queries(state) -> dict:
    """Every query's answer, or the name of the error it raised."""
    calls = {
        "estimate": state.estimate,
        "sse": state.update_sse,
        "test": lambda: hs.test_theta_zero(state),
        "cov": state.asymptotic_covariance,
        "maps": state.current_maps,
        "eta": lambda: state.eta_tilde,
    }
    out = {}
    for name, call in calls.items():
        try:
            value = call()
        except HetstreamError as exc:
            out[name] = type(exc).__name__
            continue
        if name == "estimate":
            value = (value.beta, value.theta, value.gamma, value.theta_naive, value.cov_plugin)
        elif name == "test":
            value = (value.f_value, value.p_value, value.reject)
        elif name == "maps":
            value = (value.b_hat, value.c_hat, value.d_hat)
        out[name] = value
    return out


def assert_identical(got, expected):
    assert got.keys() == expected.keys()
    for name in expected:
        a, b = got[name], expected[name]
        if isinstance(b, tuple):
            assert len(a) == len(b), name
            for u, v in zip(a, b):
                if v is None:
                    assert u is None, name
                else:
                    np.testing.assert_array_equal(u, v, err_msg=name)
        elif isinstance(b, str):
            assert a == b, name
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)


def run(option, query_at=None, reload_at=(), tmp_path=None):
    """Queries after the batches in ``query_at`` (every batch when None),
    reloading the state from a snapshot after the batches in ``reload_at``."""
    state_options, begin_options = OPTIONS[option]
    state = hs.new_stream(hs.StreamSchema(CFG.p), **state_options)
    answers = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j, stats in enumerate(batches(), start=1):
            feed(state, j, stats, begin_options)
            if j in reload_at:
                path = tmp_path / f"state{j}.npz"
                io.save_state(state, path)
                state = io.load_state(path)
            if query_at is None or j in query_at:
                answers[j] = queries(state)
    return answers


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_queries_do_not_change_answers(option):
    every = run(option)
    only_at_end = run(option, query_at=CHECKPOINTS)
    for j in CHECKPOINTS:
        assert_identical(every[j], only_at_end[j])


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_snapshot_round_trip_mid_phase(option, tmp_path):
    every = run(option)
    reloaded = run(option, reload_at=MIDPOINTS, tmp_path=tmp_path)
    for j in every:
        assert_identical(reloaded[j], every[j])


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_event_factor_serves_the_new_segment(option, tmp_path):
    """An event keeps its batch's Gram and factor as the entries of the
    segment the batch opens; a state reloaded right after each event
    computes them anew and must answer bit-identically."""
    every = run(option)
    reloaded = run(option, reload_at=(FIRST_EVENT, SECOND_EVENT), tmp_path=tmp_path)
    for j in every:
        assert_identical(reloaded[j], every[j])


@pytest.mark.parametrize("last", CHECKPOINTS)
def test_snapshot_with_running_sum_loads(last, tmp_path):
    """Older v1 snapshots also carry the running residual sum as a
    ``scalars`` entry; loading one ignores it and answers as the warm state
    does."""
    state = hs.new_stream(hs.StreamSchema(CFG.p))
    for j, stats in enumerate(batches()[:last], start=1):
        feed(state, j, stats, {})
    path = tmp_path / "state.npz"
    io.save_state(state, path)
    with np.load(path) as data:
        arrays = dict(data)
    assert "scalars" not in arrays
    arrays["scalars"] = np.array([state.update_sse() + 1.0, 1.0])
    np.savez(path, **arrays)
    restored = io.load_state(path)
    assert restored.update_sse() == state.update_sse()
    assert_identical(queries(restored), queries(state))


def test_writing_into_answers_does_not_leak():
    state = hs.new_stream(hs.StreamSchema(CFG.p))
    for j, stats in enumerate(batches()[:FIRST_EVENT + 3], start=1):
        feed(state, j, stats, {})
    before = queries(state)
    report = state.estimate()
    report.beta[:] = 0.0
    report.theta[:] = 0.0
    report.theta_naive[:] = 0.0
    state.current_maps().b_hat[:] = 0.0
    state.eta_tilde[:] = 0.0
    state.naive_theta()[:] = 0.0
    assert_identical(queries(state), before)


def test_solve_counts(monkeypatch):
    """Factorizations (Cholesky and LU) per operation on an Example-4
    stream queried as the monitor workload queries it: estimate and SSE
    after every batch, then the F-test in phase ONE. The report's covariance,
    computed on its first read and then kept, is read after the step. A solve with a kept
    factor (linalg.solve_cholesky) is not a factorization, so factor reuse
    shows here; an event counts its whole step, queries included. An ingest
    only merges, so its work shows in the queries; the bound on each whole
    step keeps work that moved between them from hiding added work. No step
    after the first event factors an earlier, frozen segment's Gram again."""
    factored = []
    for name in ("cholesky", "solve_general"):
        original = getattr(linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            factored.append(np.array(a, dtype=np.float64))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)

    def factorizations(call, *args):
        start = len(factored)
        call(*args)
        return len(factored) - start

    state = hs.new_stream(hs.StreamSchema(CFG.p))
    seen = collections.defaultdict(set)
    for j, stats in enumerate(batches(), start=1):
        factored.clear()
        ingest = factorizations(feed, state, j, stats, {})
        phase = state.phase.name
        reports = []
        seen[f"estimate {phase}"].add(factorizations(lambda: reports.append(state.estimate())))
        seen["update_sse"].add(factorizations(state.update_sse))
        if state.phase is hs.Phase.ONE:
            seen["test"].add(factorizations(hs.test_theta_zero, state))
        if j in (FIRST_EVENT, SECOND_EVENT):
            seen[f"event {phase}"].add(len(factored))
        else:
            seen[f"ingest {phase}"].add(ingest)
            seen[f"step {phase}"].add(len(factored))
        # the monitor workload never reads the covariance, so its cost is
        # counted apart from the step's
        seen["first cov_plugin read"].add(factorizations(lambda: reports[0].cov_plugin))
        seen["second cov_plugin read"].add(factorizations(lambda: reports[0].cov_plugin))
        for seg in state._segments[:-1]:
            frozen = seg.full_gram()
            assert not any(
                a.shape == frozen.shape and np.array_equal(a, frozen) for a in factored
            ), f"batch {j} factored a frozen segment's Gram again"

    assert seen["ingest PRE"] == seen["ingest ONE"] == seen["ingest TWO"] == {0}
    assert max(seen["estimate PRE"]) <= 1
    assert max(seen["estimate ONE"]) <= 2
    assert max(seen["estimate TWO"]) <= 3
    assert max(seen["test"]) <= 1
    assert max(seen["update_sse"]) <= 1
    assert max(seen["step PRE"]) <= 1
    assert max(seen["step ONE"]) <= 4
    assert max(seen["step TWO"]) <= 4
    assert max(seen["event ONE"]) <= 4
    assert max(seen["event TWO"]) <= 4
    assert max(seen["first cov_plugin read"]) <= 1
    assert seen["second cov_plugin read"] == {0}


@pytest.mark.parametrize("option", sorted(OPTIONS))
def test_report_covariance_answers_for_its_batch(option):
    """A report's covariance, computed on its first read, answers for the
    state at estimate() time: reports taken after every batch and read only
    once the stream has passed both events match the covariance the state
    gave at their batch."""
    state_options, begin_options = OPTIONS[option]
    state = hs.new_stream(hs.StreamSchema(CFG.p), **state_options)
    reports, expected = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for j, stats in enumerate(batches(), start=1):
            feed(state, j, stats, begin_options)
            reports.append(state.estimate())
            expected.append(state.asymptotic_covariance())
    for j, (report, cov) in enumerate(zip(reports, expected), start=1):
        np.testing.assert_array_equal(report.cov_plugin, cov, err_msg=f"batch {j}")


def test_report_covariance_is_none_for_a_too_small_segment():
    """An event batch with no more rows than observed columns (its initial
    choices supplied) leaves the newest segment too small for its residual
    variance: the report taken then reads None, even once later batches
    have made the covariance estimable."""
    raw = simlab.gen_stream(CFG, 0)
    state = hs.new_stream(hs.StreamSchema(CFG.p))
    for b in raw[: CFG.k]:
        state.ingest_pre_change(hs.compress_batch(b.x, b.y, SCHEMA))
    rows = slice(CFG.p + CFG.q)
    event = raw[CFG.k]
    state.begin_update_phase(
        hs.compress_batch(event.x[rows], event.y[rows], SCHEMA, z_rows=event.z[rows]),
        sigma0_sq=1.0, theta0=np.zeros(CFG.q), e0_zz=np.eye(CFG.q),
    )
    report = state.estimate()
    with pytest.raises(hs.InsufficientData):
        state.asymptotic_covariance()
    b = raw[CFG.k + 1]
    state.ingest_post_change(hs.compress_batch(b.x, b.y, SCHEMA, z_rows=b.z))
    assert state.estimate().cov_plugin is not None
    assert report.cov_plugin is None


def test_report_constructed_without_a_state():
    report = hs.EstimateReport(
        beta=np.zeros(2), theta=None, gamma=None, theta_naive=None, cov_plugin=None,
        rho_hat=0.0, n_total=3, m_post=0, case_label=None,
    )
    assert report.cov_plugin is None


def test_writing_into_a_report_covariance_does_not_leak():
    state = hs.new_stream(hs.StreamSchema(CFG.p))
    for j, stats in enumerate(batches()[:FIRST_EVENT + 3], start=1):
        feed(state, j, stats, {})
    expected = state.asymptotic_covariance()
    first, second = state.estimate(), state.estimate()
    first.cov_plugin[:] = 0.0
    np.testing.assert_array_equal(second.cov_plugin, expected)
    np.testing.assert_array_equal(state.estimate().cov_plugin, expected)
