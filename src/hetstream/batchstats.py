"""Per-batch sufficient statistics.

A raw batch is compressed into its count and one symmetric (d+1) x (d+1)
matrix of cross products [x z w y]'[x z w y], d = p + q + r, so the raw rows
can be discarded. Merging two batches adds their counts and their matrices.
Every downstream estimator, residual sum and test statistic reads slices of
these sums: the named blocks (xtx, xtz, ..., yty), the stacked covariate
Gram matrix and the stacked response moment. Each slice is returned as a new
C-contiguous array, never a view: a caller may write into it, and a product
with it runs the same BLAS kernel, summing in the same order, as on any other
copy of the same values, so results do not depend on how the sums are held.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBatch,
    InvalidSchema,
    NonFiniteData,
    SchemaMismatch,
)

# Which covariate groups a batch (or stream segment) exposes.
PHASE_X = "x"
PHASE_XZ = "xz"
PHASE_XZW = "xzw"
PHASE_TAGS = (PHASE_X, PHASE_XZ, PHASE_XZW)

# the named blocks of the cross-product matrix, in snapshot order: name ->
# (row group, column group), groups 0, 1, 2 being x, z, w and 3 the response
_BLOCKS = {
    "xtx": (0, 0), "xty": (0, 3), "xtz": (0, 1), "ztz": (1, 1), "zty": (1, 3),
    "xtw": (0, 2), "ztw": (1, 2), "wtw": (2, 2), "wty": (2, 3),
}


class _ValueEquality:
    """Equality of frozen dataclass records by value: the same type and every
    compared field equal, arrays by np.array_equal. The records hold arrays,
    so they are not hashable."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.compare and not (
                np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
            ):
                return False
        return True

    __hash__ = None


@dataclass(frozen=True)
class StreamSchema:
    """Column layout of a stream: x always present, z and w appear at events.

    ``q`` and ``r`` may be declared as 0 up front and adopted later when the
    corresponding covariate group first arrives.
    """

    p: int
    q: int = 0
    r: int = 0
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.p < 1 or self.q < 0 or self.r < 0:
            raise InvalidSchema(f"need p >= 1, q >= 0, r >= 0; got ({self.p}, {self.q}, {self.r})")
        if self.r > 0 and self.q == 0:
            raise InvalidSchema("a third covariate group requires a second one")
        names = self.names or self.default_names(self.p, self.q, self.r)
        if len(names) != self.p + self.q + self.r:
            raise InvalidSchema(
                f"{len(names)} names for {self.p + self.q + self.r} columns"
            )
        if len(set(names)) != len(names):
            raise InvalidSchema("column names must be unique")
        object.__setattr__(self, "names", tuple(names))

    @staticmethod
    def default_names(p: int, q: int, r: int) -> tuple[str, ...]:
        return tuple(
            [f"x{i + 1}" for i in range(p)]
            + [f"z{i + 1}" for i in range(q)]
            + [f"w{i + 1}" for i in range(r)]
        )


@functools.cache
def _spans(widths: tuple[int, int, int]) -> tuple:
    """Where each group sits in the cross-product matrix: the slices of x, z
    and w (None for a group of width 0) and the index of the response."""
    bounds = list(accumulate((0, *widths)))
    slices = [slice(start, stop) if stop > start else None for start, stop in zip(bounds, bounds[1:])]
    return (*slices, bounds[-1])


def _block_shapes(widths: tuple[int, int, int]) -> dict[str, tuple[int, ...]]:
    """Shape of each named block that statistics of these widths hold; a
    block against the response is 1-D."""
    shapes = {}
    for name, groups in _BLOCKS.items():
        shape = tuple(widths[g] for g in groups if g < 3)
        if all(shape):
            shapes[name] = shape
    return shapes


def _block(rows: int, cols: int) -> property:
    """A named block: the cross products of group ``rows`` with group
    ``cols`` as a new array (1-D against the response), None when the batch
    lacks either group."""

    def get(self):
        spans = _spans(self.widths)
        a, b = spans[rows], spans[cols]
        return None if a is None or b is None else self.cross[a, b].copy()

    return property(get)


@dataclass(frozen=True, eq=False)
class BatchStats(_ValueEquality):
    """Exact cross products of one batch, or of several merged: the count
    ``n``, the group widths ``(p, q, r)`` (0 for an absent group) and
    ``cross``, the symmetric (d+1) x (d+1) matrix [x z w y]'[x z w y].
    Immutable after construction. The tag, widths, named blocks, stacked
    Gram matrix and moment are read from these; every array accessor
    returns a new C-contiguous copy, never a view of ``cross``."""

    n: int
    widths: tuple[int, int, int]
    cross: np.ndarray

    p = property(lambda self: self.widths[0])
    q = property(lambda self: self.widths[1])
    r = property(lambda self: self.widths[2])
    phase_tag = property(lambda self: PHASE_TAGS[(self.widths[1] > 0) + (self.widths[2] > 0)])
    xtx, xty, xtz, ztz, zty, xtw, ztw, wtw, wty = (_block(*groups) for groups in _BLOCKS.values())
    yty = property(lambda self: float(self.cross[-1, -1]))

    @classmethod
    def zeros(cls, p: int, q: int = 0, r: int = 0) -> "BatchStats":
        """Additive identity for merge; n = 0 marks an empty accumulator."""
        return cls(0, (p, q, r), np.zeros((p + q + r + 1, p + q + r + 1)))

    @classmethod
    def _from_blocks(cls, n: int, widths, blocks: dict, yty: float) -> "BatchStats":
        """Statistics from named blocks, as a snapshot stores them: each at its
        place and, off the diagonal, its exact transpose at the mirrored
        place, as compress_batch's symmetric product and every merge hold."""
        spans = _spans(widths)
        cross = np.zeros((spans[-1] + 1, spans[-1] + 1))
        cross[-1, -1] = yty
        for name, block in blocks.items():
            rows, cols = _BLOCKS[name]
            cross[spans[rows], spans[cols]] = block
            if rows != cols:
                cross[spans[cols], spans[rows]] = np.transpose(block)
        return cls(n, tuple(widths), cross)

    def full_gram(self) -> np.ndarray:
        """Stacked Gram matrix over every observed group."""
        d = len(self.cross) - 1
        return self.cross[:d, :d].copy()

    def full_moment(self) -> np.ndarray:
        """Stacked response moment over every observed group."""
        d = len(self.cross) - 1
        return self.cross[:d, d].copy()


def _rows(arr, n_expected: int, dim: int, label: str) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape != (n_expected, dim):
        raise DimensionMismatch(
            f"{label} rows have shape {a.shape}, expected ({n_expected}, {dim})"
        )
    if not np.all(np.isfinite(a)):
        raise NonFiniteData(f"{label} rows contain NaN or infinity")
    return a


def compress_batch(x_rows, y, schema: StreamSchema, z_rows=None, w_rows=None) -> BatchStats:
    """Compress one raw batch into its sufficient statistics.

    No centering is applied: the modeling assumptions put the covariate means
    at zero, so real data must be pre-centered by the caller.

    The rows are copied into one C-contiguous n x (d+1) array [x z w y]
    whose Gram matrix is the statistics' cross-product matrix, so the sums
    depend only on the input values, never on the memory layout the
    caller's arrays have.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = y.shape[0]
    if n < 1:
        raise EmptyBatch("a batch needs at least one observation")
    if not np.all(np.isfinite(y)):
        raise NonFiniteData("response contains NaN or infinity")
    if w_rows is not None and z_rows is None:
        raise DimensionMismatch("w rows supplied without z rows")

    columns = [_rows(x_rows, n, schema.p, "x")]
    widths = [schema.p, 0, 0]
    if z_rows is not None:
        if schema.q < 1:
            raise DimensionMismatch("schema declares q = 0 but z rows were supplied")
        columns.append(_rows(z_rows, n, schema.q, "z"))
        widths[1] = schema.q
        if w_rows is not None:
            if schema.r < 1:
                raise DimensionMismatch("schema declares r = 0 but w rows were supplied")
            columns.append(_rows(w_rows, n, schema.r, "w"))
            widths[2] = schema.r
    columns.append(y.reshape(-1, 1))
    rows = np.concatenate(columns, axis=1)
    return BatchStats(n, tuple(widths), rows.T @ rows)


def merge(a: BatchStats, b: BatchStats) -> BatchStats:
    """Sum of two statistics with the same group widths: one matrix add."""
    if a.widths != b.widths:
        if a.phase_tag != b.phase_tag:
            raise SchemaMismatch(f"phase tags differ: {a.phase_tag} vs {b.phase_tag}")
        raise SchemaMismatch(f"group widths differ: {a.widths} vs {b.widths}")
    return BatchStats(a.n + b.n, a.widths, a.cross + b.cross)
