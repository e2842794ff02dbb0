"""Pinned plug-in covariance values on fixed-seed streams in every phase.

The reference matrices were computed by the per-phase implementation of
``asymptotic_covariance``; any rewrite of the segment algebra must reproduce
them. The ``small`` cases leave earlier segments with no more rows than
observed columns, so their error variances come from the nested fallback
(the next segment's variance plus the newly observed group's contribution).
"""

import numpy as np
import pytest

from hetstream.engine import GRAM_SQUARED, PAPER_LINEAR

from helpers import StreamCase, run_stream_case


def _case(**kw):
    base = dict(sigma=1.0, convention=GRAM_SQUARED, overrides=False, uncorrelated=False)
    base.update(kw)
    return StreamCase(**base)


PINNED = {
    "pre": (
        _case(p=2, q=1, r=0, k=4, m=0, batch_sizes=[20] * 4, seed=21),
        [
            [5.298457966988339e-02, -2.867660850400386e-02],
            [-2.867660850400386e-02, 4.450697005735722e-02],
        ],
    ),
    "one": (
        _case(p=2, q=1, r=0, k=3, m=0, batch_sizes=[30] * 8, seed=22),
        [
            [7.016725631433905e-03, -3.194031725754927e-03, -1.096692980621415e-03],
            [-3.194031725754927e-03, 8.730737691797092e-03, -4.194127763812159e-03],
            [-1.096692980621415e-03, -4.194127763812159e-03, 8.690048480525002e-03],
        ],
    ),
    "one_small_pre": (
        _case(p=2, q=1, r=0, k=1, m=0, batch_sizes=[2] + [30] * 6, seed=23),
        [
            [6.383985995871826e-03, -2.983419229534337e-03, -3.702457181811837e-04],
            [-2.983419229534337e-03, 7.828863478975495e-03, -3.083977180322232e-03],
            [-3.702457181811837e-04, -3.083977180322232e-03, 5.511868894833511e-03],
        ],
    ),
    "two": (
        _case(p=2, q=1, r=1, k=3, m=3, batch_sizes=[30] * 10, seed=24, convention=PAPER_LINEAR),
        [
            [5.400112885686054e-03, -3.342886205363602e-03, 9.459687875678620e-04, 1.264478500622216e-04],
            [-3.342886205363602e-03, 7.169045676005741e-03, -4.303556058397398e-03, 1.205237093555952e-03],
            [9.459687875678620e-04, -4.303556058397398e-03, 1.258236892077722e-02, -8.840955765777259e-03],
            [1.264478500622216e-04, 1.205237093555952e-03, -8.840955765777259e-03, 1.634357045608794e-02],
        ],
    ),
    "two_small_pre_and_mid": (
        _case(p=2, q=1, r=1, k=1, m=1, batch_sizes=[2, 3] + [30] * 5, seed=25, overrides=True),
        [
            [7.585361130071177e-03, -2.752641194543015e-03, -7.123421767333566e-04, 7.223597743333768e-04],
            [-2.752641194543015e-03, 7.522470978162604e-03, -3.637839661452878e-03, -4.002813662639907e-06],
            [-7.123421767333566e-04, -3.637839661452878e-03, 9.810619625061476e-03, -4.011916264707012e-03],
            [7.223597743333768e-04, -4.002813662639907e-06, -4.011916264707012e-03, 8.344124851941125e-03],
        ],
    ),
    "two_uncorrelated": (
        _case(p=2, q=1, r=1, k=2, m=2, batch_sizes=[30] * 8, seed=26, uncorrelated=True),
        [
            [8.671378152527356e-03, -4.207033776089474e-03, 0.0, 0.0],
            [-4.207033776089474e-03, 8.815163374224548e-03, 0.0, 0.0],
            [0.0, 0.0, 5.759325698671986e-03, 0.0],
            [0.0, 0.0, 0.0, 7.295280189233997e-03],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_covariance_matches_pinned_values(name):
    case, expected = PINNED[name]
    state, _ = run_stream_case(case, lambda *a: None)
    np.testing.assert_allclose(state.asymptotic_covariance(), expected, rtol=1e-10)


def test_small_segments_take_the_nested_fallback():
    # the fixtures above only guard the fallback if it actually fires
    for name, segment_counts in (
        ("one_small_pre", [2, 180]),
        ("two_small_pre_and_mid", [2, 3, 150]),
    ):
        state, _ = run_stream_case(PINNED[name][0], lambda *a: None)
        counts = [seg.n for seg in state._segments]
        assert counts == segment_counts
        dims = [seg.p + seg.q + seg.r for seg in state._segments]
        assert all(n <= d for n, d in zip(counts[:-1], dims[:-1]))
