"""Streaming regression engine for covariate sets that expand mid-stream.

The engine ingests compressed batch statistics into per-segment cross
products, from which it derives the weighted cumulative matrices, the
homogenization maps that let pre-change data inform the post-change
parameters, and the residual sum of squares. Its state is a fixed number of
small matrices; raw data never need to be retained.

Ingesting only merges: queries, the residual sum included, solve on read,
and what they derive from the state is cached with one of two lifetimes, so
each Gram matrix is factored once for as long as it lives. Only the newest
segment ever changes: a batch merges into it and an event appends a new
one. So each segment's stacked Gram matrix and moment, its Cholesky factor
and its own least-squares fit are kept per segment, and a merge drops only
the merged segment's entries; frozen segments keep theirs across batches.
What depends on the weights or on the newest segment (the row weights
themselves, the pooled Grams, the refined maps, the homogenizing
embeddings, the bordered system and its solution) is kept per batch and
cleared by every mutator. The newest segment's factor serves the maps of
the group it revealed (their leading-block fits), its own fit and, in
Phase.PRE, where the bordered system is segment 0's Gram, the estimate and
the residual sum; an event batch's factor serves its maps, the initial
weight choices and the segment it opens. Neither cache is persisted.

The plug-in covariance is a by-product no other answer needs, so estimate()
leaves it to its report, which computes it on first read from a frozen
view of the state (see _frozen_view) that shares both caches.

Phases
------
Phase.PRE   only x observed; plain least squares on x.
Phase.ONE   z became observable at the first event; the bordered system
            fuses both segments through the estimated projection B-hat.
Phase.TWO   w became observable at the second event; the (p+q+r) system
            additionally uses C-hat and D-hat.

The phase is not stored: a state with s + 1 segments is in phase s. Each
covariate addition is the same event (_begin_event) applied to the group
the batch reveals, and every segment's weight follows from one nested
variance rule (_nested_variances), whatever the number of segments.

Weight conventions
------------------
"gram-squared" (default) multiplies every Gram contribution by the squared
row weight, i.e. rows are weighted before forming cross products. This is
internally consistent with the residual-sum and F formulas. "paper-linear"
applies the weight linearly to the Gram contributions instead and exists for
fidelity experiments; the residual-sum machinery is convention independent.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain

import numpy as np

from . import linalg
from .batchstats import (
    PHASE_TAGS,
    PHASE_X,
    PHASE_XZ,
    PHASE_XZW,
    BatchStats,
    StreamSchema,
    _ValueEquality,
    merge,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidConfig,
    NotPositiveDefinite,
    PhaseMismatch,
    SingularMatrix,
)

GRAM_SQUARED = "gram-squared"
PAPER_LINEAR = "paper-linear"
CONVENTIONS = (GRAM_SQUARED, PAPER_LINEAR)

NON_RANDOM = "non-random"
ESTIMATED = "estimated-from-first-post-batch"

CASE_UNCORRELATED = "uncorrelated"
CASE_CORRELATED = "correlated"

# Residual variance below this relative floor counts as noiseless; the engine
# then falls back to unit weights instead of dividing by ~zero.
_VARIANCE_FLOOR_RTOL = 1e-12


class Phase(Enum):
    PRE = PHASE_X
    ONE = PHASE_XZ
    TWO = PHASE_XZW


# the phase of a state with s + 1 segments is _PHASES[s]: indexing a tuple
# costs far less than the enum's value lookup
_PHASES = tuple(Phase)


def _nested_variances(sigma0_sq: float, groups) -> tuple[float, ...]:
    """The one weight rule: every segment's error variance, oldest first.
    The newest segment's is sigma0_sq; each earlier one adds c' E c to the
    next one's, c and E the coefficients and second moment of the group it
    does not observe. ``groups`` holds (name of E, c, E) per added group,
    oldest first; an E that is not nonnegative definite, or a NaN, raises."""
    variances = [sigma0_sq]
    for name, c, e in reversed(groups):
        later = variances[0]
        variance = float(c @ e @ c + later)
        if not variance >= later - 1e-12 * later:   # NaN fails too
            raise InvalidConfig(
                f"{name} must be nonnegative definite; the choices give a segment variance of {variance}"
            )
        variances.insert(0, variance)
    return tuple(variances)


@dataclass(frozen=True, eq=False)
class _NestedWeights(_ValueEquality):
    """An event's weight spec: initial choices of the newest segment's error
    variance (sigma0_sq) and of each added group's coefficients (1-D; a
    scalar for one column) and k x k second moment. ``variances`` holds each
    segment's error variance by _nested_variances; its row weight is the
    reciprocal root."""

    variances: tuple[float, ...] = field(init=False, repr=False, compare=False)

    _GROUPS = ()   # (coefficient, moment) field names per added group, oldest first

    def __post_init__(self):
        groups = []
        for coef, moment in self._GROUPS:
            c = np.asarray(getattr(self, coef), dtype=np.float64).reshape(-1)
            e = np.asarray(getattr(self, moment), dtype=np.float64)
            if e.shape != (c.size, c.size):
                raise DimensionMismatch(f"{moment} has shape {e.shape}, {coef} length {c.size}")
            object.__setattr__(self, coef, c)
            object.__setattr__(self, moment, e)
            groups.append((moment, c, e))
        if not self.sigma0_sq > 0.0:   # NaN fails too
            raise InvalidConfig("sigma0_sq must be positive")
        object.__setattr__(self, "variances", _nested_variances(self.sigma0_sq, groups))

    def _check_widths(self, widths) -> None:
        """The coefficients must have the widths of their added groups."""
        got = tuple(getattr(self, coef).size for coef, _ in self._GROUPS)
        if got != tuple(widths):
            raise DimensionMismatch(f"weight choices have widths {got}, the groups {tuple(widths)}")


@dataclass(frozen=True, eq=False)
class WeightSpec(_NestedWeights):
    """Initial choices taken at the first event (first batch exposing z).

    By the one rule the post-change error variance is sigma0_sq and the
    pre-change one adds theta0' e0_zz theta0, the initial choices of the
    new coefficients and the new covariates' second moment.
    """

    sigma0_sq: float
    theta0: np.ndarray
    e0_zz: np.ndarray
    provenance: str = ESTIMATED

    _GROUPS = (("theta0", "e0_zz"),)

    @property
    def w2(self) -> float:
        return 1.0 / np.sqrt(self.sigma0_sq)


@dataclass(frozen=True, eq=False)
class SecondWeightSpec(_NestedWeights):
    """Initial choices taken at the second event (first batch exposing w).

    By the one rule the three segment error variances nest: the final
    segment has sigma0_sq, the middle segment adds gamma0' e0_ww gamma0, and
    the first segment adds theta0' e0_zz theta0 on top of that.
    """

    sigma0_sq: float
    gamma0: np.ndarray
    theta0: np.ndarray
    e0_ww: np.ndarray
    e0_zz: np.ndarray
    provenance: str = ESTIMATED

    _GROUPS = (("theta0", "e0_zz"), ("gamma0", "e0_ww"))


@dataclass(frozen=True, eq=False)
class HomogenizationMap(_ValueEquality):
    """Estimated projections of missing covariate groups onto observed ones.

    b_hat maps z onto x, c_hat maps w onto x, d_hat maps w onto (x, z).
    The state records each as estimated on the first batch of the phase that
    revealed the group; with refinement on, current_maps() refits them on
    every batch that observed the group.
    """

    b_hat: np.ndarray
    c_hat: np.ndarray | None = None
    d_hat: np.ndarray | None = None
    estimated_on: int = 0

    def __post_init__(self):
        object.__setattr__(self, "b_hat", np.asarray(self.b_hat, dtype=np.float64))
        if self.c_hat is not None:
            object.__setattr__(self, "c_hat", np.asarray(self.c_hat, dtype=np.float64))
        if self.d_hat is not None:
            object.__setattr__(self, "d_hat", np.asarray(self.d_hat, dtype=np.float64))


class _OnFirstRead:
    """Descriptor of a report field given either its value or a function of
    no arguments that computes it; the function runs on the field's first
    read, and the report keeps its result in place of the function."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError(self.slot)   # the field has no default
        value = report.__dict__[self.slot]
        if callable(value):
            value = report.__dict__[self.slot] = value()
        return value

    def __set__(self, report, value):
        report.__dict__[self.slot] = value


@dataclass(frozen=True)
class EstimateReport:
    """Coefficient estimates with plug-in covariance and stream bookkeeping.

    A report from AccumulatorState.estimate() computes cov_plugin on its
    first read and then keeps it. It answers for the state as it was when
    estimate() ran, however far the stream has moved on since, and is None
    when that state could not estimate the covariance (InsufficientData or
    SingularMatrix).
    """

    beta: np.ndarray
    theta: np.ndarray | None
    gamma: np.ndarray | None
    theta_naive: np.ndarray | None
    cov_plugin: np.ndarray | None = _OnFirstRead()
    rho_hat: float
    n_total: int
    m_post: int
    case_label: str | None

    @property
    def coefficients(self) -> np.ndarray:
        parts = [self.beta]
        if self.theta is not None:
            parts.append(self.theta)
        if self.gamma is not None:
            parts.append(self.gamma)
        return np.concatenate(parts)


def _derived(method):
    """Cache a query helper's result in the state's per-batch cache, keyed
    on the helper and its arguments, until the next mutation clears it.
    Helpers of one segment's own sums use _per_segment instead. Callers
    must not write into the cached arrays."""

    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, *args)
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = method(self, *args)
            return value

    return cached


def _per_segment(method):
    """Cache a helper that reads only segment ``s`` in the state's
    per-segment cache, until a batch is merged into that segment. Callers
    must not write into the cached arrays."""

    @functools.wraps(method)
    def cached(self, s):
        entries = self._segment_cache.setdefault(s, {})
        try:
            return entries[method.__name__]
        except KeyError:
            value = entries[method.__name__] = method(self, s)
            return value

    return cached


def _gram_weight(w: float, convention: str) -> float:
    return w * w if convention == GRAM_SQUARED else w


def _cholesky_or_none(gram: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of a Gram matrix; None when it fails the pivot rule."""
    try:
        return linalg.cholesky(gram)
    except NotPositiveDefinite:
        return None


def _fit_maps(gram: np.ndarray, bounds, g: int, lower=None) -> list[np.ndarray]:
    """Least-squares projections of covariate group g, columns
    bounds[g]:bounds[g + 1] of a Gram matrix, onto the leading
    bounds[s + 1] columns that each earlier segment s observes: fits[g - 1].
    ``lower``, a Cholesky factor of the whole Gram matrix when given,
    factors every leading block at once; without it each block is factored
    alone."""
    group = slice(bounds[g], bounds[g + 1])
    if lower is None:
        return [linalg.solve_spd(gram[:w, :w], gram[:w, group]) for w in bounds[1 : g + 1]]
    return [linalg.solve_cholesky(lower, gram[:w, group]) for w in bounds[1 : g + 1]]


def _initial_choices(stats: BatchStats, lower: np.ndarray | None, **overrides) -> tuple[dict, str]:
    """Initial choices of a weight spec, each taken from its override when
    given, else from one fit of y on every group the event batch observes:
    the residual variance (sigma0_sq), each added group's coefficients
    (theta0, gamma0) and second moment (e0_zz, e0_ww). ``lower`` factors the
    batch's Gram matrix (None: it failed the pivot rule)."""
    if all(v is not None for v in overrides.values()):
        overrides["sigma0_sq"] = float(overrides["sigma0_sq"])
        return overrides, NON_RANDOM
    p, q = stats.p, stats.q
    dim = p + q + stats.r
    if stats.n <= dim:
        raise SingularMatrix(
            f"estimating the initial weight choices needs at least {dim + 1} "
            f"observations in the event batch (got n={stats.n}); "
            f"supply non-random overrides to lift the requirement"
        )
    if lower is None:
        raise SingularMatrix(
            "the event batch design is rank deficient; cannot estimate the "
            "initial weight choices"
        )
    moment = stats.full_moment()
    eta = linalg.solve_cholesky(lower, moment)
    sigma_sq = (stats.yty - float(moment @ eta)) / (stats.n - dim)
    if sigma_sq <= _VARIANCE_FLOOR_RTOL * max(stats.yty / stats.n, 1.0):
        warnings.warn(
            "event-batch residual variance is ~0 (noiseless data?); "
            "falling back to unit weights",
            stacklevel=4,   # the caller of begin_update_phase / begin_second_update
        )
        sigma_sq, eta = 1.0, np.zeros_like(eta)
    estimated = dict(
        sigma0_sq=float(sigma_sq),
        theta0=eta[p : p + q],
        e0_zz=stats.ztz / stats.n,
        gamma0=eta[p + q :],
        e0_ww=None if stats.wtw is None else stats.wtw / stats.n,
    )
    choices = {
        name: estimated[name] if value is None else value for name, value in overrides.items()
    }
    choices["sigma0_sq"] = float(choices["sigma0_sq"])
    return choices, ESTIMATED


def _nth(records: tuple, i: int):
    """Record i of a per-event tuple; None before event i + 1."""
    return records[i] if i < len(records) else None


class AccumulatorState:
    """Single-writer accumulator: ingestion mutates, queries only read.

    Construct via new_stream(). The state is serializable (see hetstream.io)
    and reconstructible from batch statistics alone.
    """

    def __init__(
        self,
        schema: StreamSchema,
        weight_convention: str = GRAM_SQUARED,
        refine_maps: bool = True,
    ):
        if weight_convention not in CONVENTIONS:
            raise InvalidConfig(f"unknown weight convention {weight_convention!r}")
        self.schema = schema
        self.convention = weight_convention
        # refine_maps: keep re-estimating the projection maps from all
        # accumulated post-event cross products instead of freezing the
        # designated-batch estimates. A single-batch projection carries
        # O(1/sqrt(n)) noise that never averages out of the estimator, so
        # refinement is the default; the frozen mode reproduces the
        # estimate-once construction exactly.
        self.refine_maps = refine_maps
        self.case_label: str | None = None
        self.batch_count = 0
        self._segments: list[BatchStats] = [BatchStats.zeros(schema.p)]
        # one record per event, oldest first; an event rebinds these tuples
        # and never writes into them: the batch count before the event, the
        # weight spec, the event-batch maps as fits[g - 1][s] (group g
        # projected onto the columns segment s observes), and whether those
        # maps were supplied or forced (then they are never refined)
        self._event_batches: tuple[int, ...] = ()
        self._specs: tuple[_NestedWeights, ...] = ()
        self._fits: tuple[tuple[np.ndarray, ...], ...] = ()
        self._forced: tuple[bool, ...] = ()
        # derived quantities, never persisted: per batch (see _derived),
        # cleared by every mutator, and per segment (see _per_segment),
        # segment index -> entries, dropped when that segment is merged into
        self._cache: dict = {}
        self._segment_cache: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # weights and bookkeeping
    # ------------------------------------------------------------------

    phase = property(lambda self: _PHASES[len(self._segments) - 1])
    # views of the per-event records, None before the event
    weights = property(lambda self: _nth(self._specs, 0))
    weights2 = property(lambda self: _nth(self._specs, 1))
    k_index = property(lambda self: _nth(self._event_batches, 0))   # last x-only batch
    m_index = property(lambda self: _nth(self._event_batches, 1))   # last (x, z) batch

    @property
    def homog(self) -> HomogenizationMap | None:
        """The maps as estimated on their event batches."""
        if not self._fits:
            return None
        return HomogenizationMap(
            *chain.from_iterable(self._fits), estimated_on=self._event_batches[0] + 1
        )

    @_derived
    def row_weights(self) -> tuple[float, ...]:
        """Row weight of each segment: the reciprocal root of its error
        variance under the newest weight spec (unit before any event)."""
        variances = self._specs[-1].variances if self._specs else (1.0,)
        return tuple(1.0 / np.sqrt(v) for v in variances)

    @_derived
    def gram_weights(self) -> tuple[float, ...]:
        return tuple(_gram_weight(w, self.convention) for w in self.row_weights())

    @property
    def n_total(self) -> int:
        return sum(seg.n for seg in self._segments)

    @property
    def m_post(self) -> int:
        return sum(seg.n for seg in self._segments[1:])

    # Weighted cumulative matrices, assembled from the per-segment raw sums.
    # Rescaling frozen segments at a phase transition is implicit: weights
    # are applied here, at read time, which is algebraically identical.

    @property
    def v_x(self) -> np.ndarray:
        g = self.gram_weights()
        return sum(gi * seg.xtx for gi, seg in zip(g, self._segments))

    @property
    def v_xz(self) -> np.ndarray | None:
        if len(self._segments) == 1:
            return None
        g = self.gram_weights()
        return sum(gi * seg.xtz for gi, seg in zip(g[1:], self._segments[1:]))

    @property
    def v_z(self) -> np.ndarray | None:
        if len(self._segments) == 1:
            return None
        g = self.gram_weights()
        return sum(gi * seg.ztz for gi, seg in zip(g[1:], self._segments[1:]))

    @property
    def wyy(self) -> float:
        w = self.row_weights()
        return float(sum(wi * wi * seg.yty for wi, seg in zip(w, self._segments)))

    @property
    def eta_tilde(self) -> np.ndarray:
        """Current coefficient vector (beta, theta[, gamma]); solves on read."""
        return self._solve_eta().copy()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest_pre_change(self, stats: BatchStats) -> "AccumulatorState":
        """Accumulate an x-only batch (weight 1 before any event)."""
        if len(self._segments) > 1:
            raise PhaseMismatch("pre-change batch after a covariate addition")
        return self._ingest(stats)

    def begin_update_phase(
        self,
        first_post_stats: BatchStats,
        *,
        sigma0_sq: float | None = None,
        theta0=None,
        e0_zz=None,
        b_hat=None,
        assume_uncorrelated: bool = False,
    ) -> "AccumulatorState":
        """Transition to Phase.ONE with the first batch that exposes z.

        The projection B-hat and, unless all three initial choices are
        supplied, the weight spec are estimated on this batch before it is
        ingested as the first post-change batch. assume_uncorrelated forces
        B-hat to zero (the uncorrelated-case formulas).
        """
        return self._begin_event(
            1, first_post_stats,
            maps=None if b_hat is None else (b_hat,),
            zero_maps=assume_uncorrelated,
            sigma0_sq=sigma0_sq, theta0=theta0, e0_zz=e0_zz,
        )

    def ingest_post_change(self, stats: BatchStats) -> "AccumulatorState":
        """Weighted accumulation of a batch carrying the current phase's groups."""
        if len(self._segments) == 1:
            raise PhaseMismatch("no covariate-addition event has happened yet")
        return self._ingest(stats)

    def begin_second_update(
        self,
        first_post_stats: BatchStats,
        *,
        sigma0_sq: float | None = None,
        gamma0=None,
        theta0=None,
        e0_ww=None,
        e0_zz=None,
        assume_uncorrelated: bool | None = None,
    ) -> "AccumulatorState":
        """Transition to Phase.TWO with the first batch that exposes w.

        C-hat and D-hat are estimated on this batch; initial choices for the
        second weight spec are re-estimated here as well (or overridden).
        assume_uncorrelated defaults to the stream's existing case label.
        """
        return self._begin_event(
            2, first_post_stats,
            zero_maps=assume_uncorrelated,
            sigma0_sq=sigma0_sq, gamma0=gamma0, theta0=theta0, e0_ww=e0_ww, e0_zz=e0_zz,
        )

    def _begin_event(self, g: int, stats: BatchStats, *, maps=None, zero_maps=None, **overrides):
        """Open segment g with ``stats``, the first batch that reveals
        covariate group g.

        The maps of group g onto the columns of every earlier segment are
        zero when zero_maps is true (by default when the stream's case is
        uncorrelated), else ``maps`` when supplied, else fitted on the
        batch. The weight spec takes each initial choice from ``overrides``
        or estimates it on the batch. Every step that can fail runs before
        the state changes, so a failed event leaves no trace.
        """
        if len(self._segments) != g:
            raise PhaseMismatch(f"covariate group {g} can only be added in phase {_PHASES[g - 1].name}")
        widths = self._check_batch(stats, g)
        dims = (self.schema.p, self.schema.q, self.schema.r)
        schema = self.schema if dims[g] else StreamSchema(*widths, *dims[g + 1 :])
        gram = stats.full_gram()
        lower = _cholesky_or_none(gram)

        bounds = list(accumulate((0, *widths)))
        if zero_maps is None:
            zero_maps = self.case_label == CASE_UNCORRELATED
        shapes = [(width, widths[g]) for width in bounds[1:g + 1]]
        if zero_maps:
            fits = tuple(np.zeros(shape) for shape in shapes)
        elif maps is not None:
            fits = tuple(np.asarray(f, dtype=np.float64) for f in maps)
            for f, shape in zip(fits, shapes):
                if f.shape != shape:
                    raise DimensionMismatch(f"supplied map has shape {f.shape}, expected {shape}")
        else:
            try:
                fits = tuple(_fit_maps(gram, bounds, g, lower))
            except SingularMatrix as exc:
                raise SingularMatrix(
                    f"the event batch cannot identify the projections of the new covariates; "
                    f"it needs at least {bounds[g]} observations with full-rank "
                    f"observed covariates (got n={stats.n})"
                ) from exc
        case = self.case_label or (
            CASE_CORRELATED if any(np.any(f) for f in fits) else CASE_UNCORRELATED
        )
        choices, provenance = _initial_choices(stats, lower, **overrides)
        spec = (WeightSpec, SecondWeightSpec)[g - 1](**choices, provenance=provenance)
        spec._check_widths(widths[1:])

        self.schema = schema
        self.case_label = case
        self._event_batches += (self.batch_count,)
        self._specs += (spec,)
        self._fits += (fits,)
        self._forced += (bool(zero_maps) or maps is not None,)
        # the new segment holds exactly the batch's sums: its Gram matrix
        # and factor are the segment's own
        self._segments.append(BatchStats.zeros(*widths))
        self._merge_into(g, stats)
        self._segment_cache[g] = {"_full": (gram, stats.full_moment()), "_factor": lower}
        return self

    def _ingest(self, stats: BatchStats) -> "AccumulatorState":
        s = len(self._segments) - 1
        self._check_batch(stats, s)
        self._merge_into(s, stats)
        return self

    def _check_batch(self, stats: BatchStats, s: int) -> tuple[int, ...]:
        """Widths of a batch for segment s, which must carry exactly the
        groups 0..s with the widths the schema declares (group s may be
        undeclared, 0, when the batch reveals it)."""
        tag = PHASE_TAGS[s]
        if stats.phase_tag != tag:
            raise PhaseMismatch(f"expected a {tag!r} batch, got {stats.phase_tag!r}")
        sch = self.schema
        widths = (stats.p, stats.q, stats.r)[: s + 1]
        declared = (sch.p, sch.q, sch.r)[: s + 1]
        if widths[:s] != declared[:s] or declared[s] not in (0, widths[s]):
            raise DimensionMismatch(
                f"batch dims (p={stats.p}, q={stats.q}, r={stats.r}) do not match "
                f"schema (p={sch.p}, q={sch.q}, r={sch.r})"
            )
        return widths

    def _merge_into(self, s: int, stats: BatchStats) -> None:
        self._segments[s] = merge(self._segments[s], stats)
        self._cache.clear()
        self._segment_cache.pop(s, None)
        self.batch_count += 1

    # ------------------------------------------------------------------
    # system assembly
    # ------------------------------------------------------------------

    def _bounds(self) -> list[int]:
        """Column offsets of the covariate groups: segment s reveals group s,
        which spans columns bounds[s]:bounds[s + 1] of the homogenized vector
        and makes bounds[s + 1] observed columns."""
        sch = self.schema
        return list(accumulate((0, sch.p, sch.q, sch.r)[: len(self._segments) + 1]))

    @_per_segment
    def _full(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Stacked Gram matrix and moment vector of segment s."""
        seg = self._segments[s]
        return seg.full_gram(), seg.full_moment()

    @_per_segment
    def _factor(self, s: int) -> np.ndarray | None:
        """Cholesky factor of segment s's Gram matrix; None when it fails
        the pivot rule."""
        return _cholesky_or_none(self._full(s)[0])

    @_derived
    def _pooled_gram(self, first: int) -> np.ndarray:
        """Unweighted Gram matrix of the columns segment ``first`` observes,
        pooled over that segment and every later one."""
        width = self._bounds()[first + 1]
        return sum(self._full(s)[0][:width, :width] for s in range(first, len(self._segments)))

    def current_maps(self) -> HomogenizationMap:
        """Projection maps in effect for estimation.

        With refinement on, each map is re-estimated from every batch that
        observed its covariate group (weights cancel within a segment, so
        the pooled unweighted cross products are the natural estimator);
        supplied or forced maps and too-small accumulations fall back to the
        designated-batch record. The arrays returned are copies.
        """
        return HomogenizationMap(
            *(f.copy() for f in chain.from_iterable(self._maps())),
            estimated_on=self.homog.estimated_on,
        )

    @_derived
    def _maps(self) -> list[tuple[np.ndarray, ...]]:
        """Maps in effect, as fits[g - 1][s] (see current_maps)."""
        if not self._fits:
            raise PhaseMismatch("no covariate-addition event has happened yet")
        fits = list(self._fits)
        if not self.refine_maps:
            return fits
        bounds = self._bounds()
        newest = len(self._segments) - 1
        for g in range(1, newest + 1):
            if self._forced[g - 1]:
                continue
            # the newest group's pooled Gram is the newest segment's own, so
            # that segment's factor serves its fits; when the whole Gram fails
            # the pivot rule, each leading block is factored alone
            lower = self._factor(g) if g == newest else None
            try:
                fits[g - 1] = _fit_maps(self._pooled_gram(g), bounds, g, lower)
            except SingularMatrix:
                pass
        return fits

    @_derived
    def _system(self) -> tuple[np.ndarray, np.ndarray]:
        """Bordered normal-equation system of the current phase.

        Segment s contributes the estimating equations of the groups it
        observes, with its homogenized prediction standing in for the groups
        it does not: A[:d_s] += g_s G_s E_s and b[:d_s] += g_s m_s.
        """
        embeddings = self._homog_embeddings()
        dim = embeddings[0].shape[1]
        a = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        for s, (g, emb) in enumerate(zip(self.gram_weights(), embeddings)):
            gram, moment = self._full(s)
            width = emb.shape[0]
            a[:width] += g * (gram @ emb)
            rhs[:width] += g * moment
        return a, rhs

    @_derived
    def _homog_embeddings(self) -> list[np.ndarray]:
        """Per segment, the map from observed covariates to the homogenized
        covariate vector (identity on observed groups, hat-matrices on the
        rest)."""
        bounds = self._bounds()
        k = len(self._segments)
        fits = self._maps() if k > 1 else []
        return [
            np.hstack([np.eye(bounds[s + 1])] + [fits[g - 1][s] for g in range(s + 1, k)])
            for s in range(k)
        ]

    @_derived
    def _sse_quadratic(self) -> float:
        """Fitted part of the weighted response norm, from the Gram matrix
        and moment vector of the weighted homogenized covariate rows. Always
        squared row weights: the weighted rows themselves carry the weight,
        whatever the estimator convention. With one segment they are
        segment 0's own, so its fit is the solve."""
        maps = self._homog_embeddings()
        dim = maps[0].shape[1]
        gram = np.zeros((dim, dim))
        moment = np.zeros(dim)
        for s, (w, seg, emb) in enumerate(zip(self.row_weights(), self._segments, maps)):
            if seg.n == 0:
                continue
            seg_gram, seg_moment = self._full(s)
            gram += w * w * (emb.T @ seg_gram @ emb)
            moment += w * w * (emb.T @ seg_moment)
        if not np.any(moment):
            return 0.0
        eta = self._segment_fit(0) if len(self._segments) == 1 else None
        if eta is None:
            eta = linalg.solve_consistent(gram, moment)
        return float(moment @ eta)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @_derived
    def _solve_eta(self) -> np.ndarray:
        if self.n_total == 0:
            raise InsufficientData("no data ingested yet")
        if len(self._segments) == 1:
            # the one-segment bordered system is segment 0's own Gram
            eta = self._segment_fit(0)
            if eta is None:
                raise SingularMatrix("the pre-change design is rank deficient")
            return eta
        if self.m_post == 0:
            raise InsufficientData("no post-change observations; theta is unidentified")
        return linalg.solve_general(*self._system())

    def estimate(self) -> EstimateReport:
        """Current coefficient estimates with plug-in covariance.

        The report's cov_plugin is computed on its first read, from a frozen
        view of this state, so it answers for the state as it is now, even
        after later batches; it is None when the covariance cannot be
        estimated (InsufficientData, SingularMatrix).
        """
        eta = self._solve_eta().copy()
        bounds = self._bounds()
        blocks = [eta[start:stop] for start, stop in zip(bounds, bounds[1:])]
        beta, theta, gamma = blocks + [None] * (3 - len(blocks))
        try:
            naive = self.naive_theta()
        except (InsufficientData, SingularMatrix, PhaseMismatch):
            naive = None
        n = self.n_total
        return EstimateReport(
            beta=beta,
            theta=theta,
            gamma=gamma,
            theta_naive=naive,
            cov_plugin=self._frozen_view()._covariance_or_none,
            rho_hat=self.m_post / n if n else 0.0,
            n_total=n,
            m_post=self.m_post,
            case_label=self.case_label,
        )

    def _frozen_view(self) -> "AccumulatorState":
        """Shallow copy that answers as this state does now, whatever this
        state ingests later. Mutators rebind attributes, replace or append
        segments, drop or replace one segment's entry in the per-segment
        cache and clear the per-batch cache in place; they never write into
        a BatchStats, a spec or a cached value. So the copy needs only its
        own segment list, per-batch cache and outer per-segment cache. It
        keeps the cached values, so a query on it repeats no work done
        here."""
        view = copy.copy(self)
        view._segments = list(self._segments)
        view._cache = dict(self._cache)
        view._segment_cache = dict(self._segment_cache)
        return view

    def _covariance_or_none(self) -> np.ndarray | None:
        try:
            return self.asymptotic_covariance()
        except (InsufficientData, SingularMatrix):
            return None

    def naive_theta(self) -> np.ndarray:
        """Theta block of the plain OLS fit on the newest segment only."""
        if len(self._segments) == 1:
            raise PhaseMismatch("theta does not exist before the first event")
        newest = len(self._segments) - 1
        if self._segments[newest].n == 0:
            raise InsufficientData("the current segment has no data yet")
        eta = self._segment_fit(newest)
        if eta is None:
            raise SingularMatrix("the current segment's design is rank deficient")
        p, q = self.schema.p, self.schema.q
        return eta[p : p + q].copy()

    def update_sse(self) -> float:
        """Residual sum of squares of the weighted homogenized fit: the
        weighted response norm less its fitted part, both read from the
        per-segment sums."""
        return max(self.wyy - self._sse_quadratic(), 0.0)

    @_per_segment
    def _segment_fit(self, index: int) -> np.ndarray | None:
        """Coefficients of the plain OLS fit within one segment; None when
        its design is rank deficient."""
        lower = self._factor(index)
        if lower is None:
            return None
        return linalg.solve_cholesky(lower, self._full(index)[1])

    def _segment_residual_variance(self, index: int) -> float | None:
        """Residual variance of the plain OLS fit within one segment."""
        seg = self._segments[index]
        dim = seg.p + seg.q + seg.r
        if seg.n <= dim:
            return None
        eta = self._segment_fit(index)
        if eta is None:
            return None
        rss = seg.yty - float(self._full(index)[1] @ eta)
        return max(rss, 0.0) / (seg.n - dim)

    def asymptotic_covariance(self) -> np.ndarray:
        """Plug-in sandwich covariance of the coefficient estimate.

        Scaled to the estimate itself (the root-N normalization is divided
        back out). In the uncorrelated case the cross-group blocks are zero
        by construction.
        """
        n = self.n_total
        if n == 0:
            raise InsufficientData("no data ingested yet")
        segs = self._segments
        k = len(segs)
        bounds = self._bounds()
        sigma = self._segment_residual_variance(k - 1)
        if sigma is None:
            raise InsufficientData(
                "the newest segment is too small to estimate the error variance"
            )
        eta = self._solve_eta()

        # filled from the newest segment back, so block (g, h) ends up pooled
        # over segments >= max(g, h): exactly those that observe both groups
        moments = np.zeros((bounds[-1], bounds[-1]))
        for s in reversed(range(k)):
            width = bounds[s + 1]
            moments[:width, :width] = self._pooled_gram(s) / sum(seg.n for seg in segs[s:])

        # a segment too small for its own residual variance nests the next
        # segment's variance plus the part of the group it cannot observe
        sigmas = [sigma]
        for s in reversed(range(k - 1)):
            own = self._segment_residual_variance(s)
            if own is None:
                block = slice(bounds[s + 1], bounds[s + 2])
                own = float(eta[block] @ moments[block, block] @ eta[block]) + sigmas[0]
            sigmas.insert(0, own)

        fracs = np.array([seg.n for seg in segs], dtype=np.float64) / n
        grams = np.array(self.gram_weights())
        sigmas = np.array(sigmas)
        c_row = np.array([np.sum(fracs[g:] * grams[g:]) for g in range(k)])
        d_row = np.array([np.sum(fracs[g:] * grams[g:] ** 2 * sigmas[g:]) for g in range(k)])
        group = np.repeat(np.arange(k), np.diff(bounds))
        if self.case_label == CASE_UNCORRELATED:
            moments = np.where(group[:, None] == group[None, :], moments, 0.0)
        omega = c_row[group][:, None] * moments
        phi = d_row[np.maximum.outer(group, group)] * moments
        omega_inv = linalg.solve_general(omega, np.eye(bounds[-1]))
        cov = omega_inv @ phi @ omega_inv.T / n
        return linalg.symmetrize(cov)


# ----------------------------------------------------------------------
# operation-style aliases over the state methods
# ----------------------------------------------------------------------

def new_stream(
    schema: StreamSchema,
    weight_convention: str = GRAM_SQUARED,
    refine_maps: bool = True,
) -> AccumulatorState:
    """Fresh Phase.PRE state with zeroed accumulators."""
    return AccumulatorState(
        schema, weight_convention=weight_convention, refine_maps=refine_maps
    )


def ingest_pre_change(state: AccumulatorState, stats: BatchStats) -> AccumulatorState:
    return state.ingest_pre_change(stats)


def begin_update_phase(state: AccumulatorState, first_post_stats: BatchStats, **options) -> AccumulatorState:
    return state.begin_update_phase(first_post_stats, **options)


def ingest_post_change(state: AccumulatorState, stats: BatchStats) -> AccumulatorState:
    return state.ingest_post_change(stats)


def begin_second_update(state: AccumulatorState, first_post_stats: BatchStats, **options) -> AccumulatorState:
    return state.begin_second_update(first_post_stats, **options)


def estimate(state: AccumulatorState) -> EstimateReport:
    return state.estimate()


def naive_theta(state: AccumulatorState) -> np.ndarray:
    return state.naive_theta()


def update_sse(state: AccumulatorState) -> float:
    return state.update_sse()


def asymptotic_covariance(state: AccumulatorState) -> np.ndarray:
    return state.asymptotic_covariance()
