"""One SHA-256 over every answer of 60 random streams, for identity checks.

A change that claims to leave every result bit for bit unchanged runs this
script on both sides and compares the two printed digests:

    python tests/identity_digest.py                 # in the changed checkout
    python /path/to/parent/tests/identity_digest.py # in the parent checkout

The script imports the ``hetstream`` under the ``src/`` next to it, so each
checkout answers for its own code. It drives the 60 streams that
``helpers.random_stream_case`` draws from ``default_rng(2024)`` and, after
every batch, feeds the digest the bytes of: the estimate (coefficients,
naive theta, plug-in covariance, rho, counts, case), the residual sum, the
F test, the row and Gram weights, the asymptotic covariance, the naive
theta, the maps in effect, every entry of a snapshot (names, order and
bytes, the metadata included) and the residual sum and weights of the state
that snapshot reloads to. A query that raises feeds its error type and
message. With ``-v`` it also prints one digest per stream, to find the
first stream that differs. It is a script, not a test module: pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), HERE]

import numpy as np  # noqa: E402

import hetstream as hs  # noqa: E402
from hetstream import io as hio  # noqa: E402
from helpers import random_stream_case, run_stream_case  # noqa: E402

STREAMS = 60
SEED = 2024


def _feed(digest, value) -> None:
    """Feed one answer: arrays by dtype, shape and bytes, the rest by repr."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        digest.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            _feed(digest, item)
    else:
        digest.update(repr(value).encode())


def _estimate(state):
    report = state.estimate()
    return (
        report.coefficients, report.theta_naive, report.cov_plugin,
        report.rho_hat, report.n_total, report.m_post, report.case_label,
    )


def _test(state):
    report = hs.test_theta_zero(state)
    return (
        report.f_value, report.df1, report.df2, report.p_value,
        report.reject, report.case_label, report.degenerate,
    )


def _maps(state):
    maps = state.current_maps()
    return (maps.b_hat, maps.c_hat, maps.d_hat, maps.estimated_on)


def _snapshot(state, path):
    hio.save_state(state, path)
    with np.load(path) as data:
        entries = [(name, data[name]) for name in data.files]
    restored = hio.load_state(path)
    return entries, restored.update_sse(), restored.row_weights(), restored.gram_weights()


def _answers(state, path):
    queries = (
        ("estimate", _estimate),
        ("sse", lambda s: s.update_sse()),
        ("test", _test),
        ("row_weights", lambda s: s.row_weights()),
        ("gram_weights", lambda s: s.gram_weights()),
        ("covariance", lambda s: s.asymptotic_covariance()),
        ("naive_theta", lambda s: s.naive_theta()),
        ("maps", _maps),
        ("snapshot", lambda s: _snapshot(s, path)),
    )
    for name, query in queries:
        try:
            yield name, query(state)
        except hs.HetstreamError as exc:
            yield name, (type(exc).__name__, str(exc))


def main(argv) -> int:
    verbose = "-v" in argv
    total = hashlib.sha256()
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.npz")
        for index in range(STREAMS):
            case = random_stream_case(rng)
            stream = hashlib.sha256()

            def check(state, raw, j):
                for name, answer in _answers(state, path):
                    stream.update(f"{j}:{name}".encode())
                    _feed(stream, answer)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_stream_case(case, check)
            total.update(stream.digest())
            if verbose:
                print(f"stream {index:2d}  {stream.hexdigest()}")
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
