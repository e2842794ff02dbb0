"""Competitor estimators the engine is benchmarked against.

NUE restarts its accumulation whenever the covariate set changes and runs
plain least squares on the current segment only. AVE averages the per-batch
least-squares estimates within the current segment, which requires every
batch to be individually solvable.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .batchstats import BatchStats, merge
from .engine import EstimateReport
from .errors import InsufficientData, PhaseMismatch, SingularBatch, SingularMatrix


def _report(eta: np.ndarray, p: int, q: int, r: int, n: int) -> EstimateReport:
    theta = eta[p : p + q] if q else None
    gamma = eta[p + q :] if r else None
    return EstimateReport(
        beta=eta[:p],
        theta=theta,
        gamma=gamma,
        theta_naive=None,
        cov_plugin=None,
        rho_hat=0.0,
        n_total=n,
        m_post=n,
        case_label=None,
    )


class NueState:
    """Segment-local least squares: forgets everything at each event."""

    def __init__(self, p: int):
        self.p = p
        self._acc = BatchStats.zeros(p)
        self.batch_count = 0

    def ingest(self, stats: BatchStats) -> "NueState":
        if stats.phase_tag != self._acc.phase_tag:
            # Covariate set changed: restart on the new segment.
            self._acc = BatchStats.zeros(stats.p, stats.q, stats.r)
        self._acc = merge(self._acc, stats)
        self.batch_count += 1
        return self

    def estimate(self) -> EstimateReport:
        acc = self._acc
        if acc.n == 0:
            raise InsufficientData("no data in the current segment")
        eta = linalg.solve_spd(acc.full_gram(), acc.full_moment())
        return _report(eta, acc.p, acc.q, acc.r, acc.n)

    def f_test_theta_zero(self, alpha: float = 0.05):
        """Classical segment F-test of the z coefficients being zero.

        Full (x, z) fit against the x-only fit on the pooled current segment;
        denominator df n - p - q. Defined once the segment carries z.
        """
        from .inference import _f_report

        acc = self._acc
        q = acc.q
        if q == 0:
            raise PhaseMismatch("the current segment carries no added covariates")
        df2 = acc.n - acc.p - q - acc.r
        if df2 < 1:
            raise InsufficientData("segment too small for the F test")
        gram = acc.full_gram()
        moment = acc.full_moment()
        eta = linalg.solve_spd(gram, moment)
        rss_full = max(acc.yty - float(moment @ eta), 0.0)
        beta_x = linalg.solve_spd(acc.xtx, acc.xty)
        rss_reduced = max(acc.yty - float(acc.xty @ beta_x), 0.0)
        return _f_report(rss_reduced - rss_full, rss_full, acc.yty, q, df2, alpha, None)


class AveState:
    """Running mean of per-batch least-squares estimates within a segment."""

    def __init__(self, p: int):
        self.p = p
        self._phase_tag = "x"
        self._dims = (p, 0, 0)
        self._mean: np.ndarray | None = None
        self._count = 0
        self.batch_count = 0

    def ingest(self, stats: BatchStats) -> "AveState":
        self.batch_count += 1
        if stats.phase_tag != self._phase_tag:
            self._phase_tag = stats.phase_tag
            self._dims = (stats.p, stats.q, stats.r)
            self._mean = None
            self._count = 0
        try:
            eta = linalg.solve_spd(stats.full_gram(), stats.full_moment())
        except SingularMatrix as exc:
            # Skipping would silently change the estimator's definition.
            raise SingularBatch(
                f"batch {self.batch_count} is singular; the per-batch average "
                f"is undefined (n={stats.n} vs {stats.p + stats.q + stats.r} columns)",
                batch_index=self.batch_count,
            ) from exc
        self._count += 1
        if self._mean is None:
            self._mean = eta.copy()
        else:
            self._mean += (eta - self._mean) / self._count
        return self

    def estimate(self) -> EstimateReport:
        if self._mean is None:
            raise InsufficientData("no batches in the current segment")
        p, q, r = self._dims
        return _report(self._mean.copy(), p, q, r, self._count)

