"""F-test of "the added covariates contribute nothing" and F-distribution math.

The test statistic reads everything from the accumulator: its numerator is a
quadratic form of the current theta estimate in the Schur-complement factor
of the bordered system, its denominator the residual sum of squares over its
degrees of freedom. The denominator df is N - q by construction;
the classical N - p - q is available behind a flag for sensitivity checks
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .engine import AccumulatorState, Phase
from .errors import InsufficientData, InvalidDegrees, NonConvergence, PhaseMismatch

# SSE at or below this fraction of the weighted response norm counts as zero.
_DEGENERATE_SSE_RTOL = 1e-10


@dataclass(frozen=True)
class TestReport:
    f_value: float
    df1: int
    df2: int
    p_value: float
    alpha: float
    reject: bool
    case_label: str | None
    degenerate: bool = False


def _check_degrees(d1: int, d2: int) -> tuple[int, int]:
    if int(d1) != d1 or int(d2) != d2 or d1 < 1 or d2 < 1:
        raise InvalidDegrees(f"degrees of freedom must be positive integers, got ({d1}, {d2})")
    return int(d1), int(d2)


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution via the regularized incomplete beta."""
    d1, d2 = _check_degrees(d1, d2)
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    # imported here, not at module level: it costs several MB of resident
    # memory in every process that imports hetstream
    import scipy.special

    t = d1 * x / (d1 * x + d2)
    return float(scipy.special.betainc(d1 / 2.0, d2 / 2.0, t))


def f_quantile(p: float, d1: int, d2: int) -> float:
    """Inverse CDF; |f_cdf(f_quantile(p)) - p| <= 1e-8 across the grid."""
    d1, d2 = _check_degrees(d1, d2)
    if not 0.0 < p < 1.0:
        raise InvalidDegrees(f"quantile level must lie strictly in (0, 1), got {p}")
    import scipy.special

    t = float(scipy.special.betaincinv(d1 / 2.0, d2 / 2.0, p))
    if t >= 1.0:
        return math.inf
    x = d2 * t / (d1 * (1.0 - t))
    if abs(f_cdf(x, d1, d2) - p) <= 1e-9:
        return x
    # Safeguard: bracket and bisect on the CDF.
    lo, hi = 0.0, max(2.0 * x, 1.0)
    for _ in range(200):
        if f_cdf(hi, d1, d2) >= p:
            break
        hi *= 2.0
    else:
        raise NonConvergence("could not bracket the F quantile")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_cdf(mid, d1, d2) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            return 0.5 * (lo + hi)
    raise NonConvergence("bisection on the F CDF hit its iteration cap")


def numerator_factor(state: AccumulatorState) -> np.ndarray:
    """Schur complement of the state's bordered system A on the tested block.

    A_zz - A_zx A_xx^{-1} A_xz, which in phase ONE is
    V^Z - V^{ZX} (V^X)^{-1} (V^X_pre B-hat + V^{XZ}); with B-hat = 0 this is
    the plain uncorrelated-case factor.
    """
    if state.phase is not Phase.ONE:
        raise PhaseMismatch("the added-covariate test applies to the (x, z) phase")
    a, _ = state._system()
    p = state.schema.p
    return a[p:, p:] - a[p:, :p] @ linalg.solve_spd(a[:p, :p], a[:p, p:])


def f_statistic(state: AccumulatorState, alpha: float = 0.05, *, denominator_df: str = "paper") -> TestReport:
    """F statistic for the hypothesis that the added coefficients are zero.

    A residual sum that is zero to tolerance with a positive numerator is
    reported as +inf with the degenerate flag instead of an error, so
    noiseless fixtures flow through.
    """
    if state.phase is Phase.PRE:
        raise PhaseMismatch("no added covariates to test yet")
    if state.phase is Phase.TWO:
        raise PhaseMismatch("the test targets the first added group; not defined after a second update")
    n, q = state.n_total, state.schema.q
    if denominator_df == "paper":
        df2 = n - q
    elif denominator_df == "classical":
        df2 = n - state.schema.p - q
    else:
        raise InvalidDegrees(f"unknown denominator_df {denominator_df!r}")
    if df2 < 1:
        raise InsufficientData(f"need more than {n - df2} observations for the test")

    eta = state.eta_tilde
    theta = eta[state.schema.p : state.schema.p + q]
    hypothesis_ss = float(theta @ numerator_factor(state) @ theta)
    return _f_report(hypothesis_ss, state.update_sse(), state.wyy, q, df2, alpha, state.case_label)


def _f_report(hypothesis_ss, sse, norm, df1, df2, alpha, case_label) -> TestReport:
    """F test of df1 restrictions from their sum of squares and the residual
    sum on df2 degrees of freedom. A residual sum at or below
    _DEGENERATE_SSE_RTOL of the response norm ``norm`` counts as zero: the
    statistic is then +inf (0 when the restrictions explain nothing either)
    and the report is flagged degenerate."""
    numerator = max(hypothesis_ss, 0.0) / df1
    degenerate = sse <= _DEGENERATE_SSE_RTOL * max(norm, 1.0)
    if degenerate:
        f_value = math.inf if numerator > 0.0 else 0.0
    else:
        f_value = numerator / (sse / df2)
    return TestReport(
        f_value=f_value,
        df1=df1,
        df2=df2,
        p_value=1.0 - f_cdf(f_value, df1, df2),
        alpha=alpha,
        reject=f_value > f_quantile(1.0 - alpha, df1, df2),
        case_label=case_label,
        degenerate=degenerate,
    )


def test_theta_zero(state: AccumulatorState, alpha: float = 0.05, **kwargs) -> TestReport:
    """Accept/reject decision at level alpha for the added-covariate test."""
    return f_statistic(state, alpha=alpha, **kwargs)
