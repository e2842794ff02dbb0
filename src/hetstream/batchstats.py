"""Per-batch sufficient statistics.

A raw batch is compressed into its cross products (Gram blocks, covariate/
response moments, response norm and count) so the raw rows can be discarded.
Every downstream estimator, residual sum and test statistic is computed from
sums of these objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class BatchStats:
    """Exact cross products of one batch. Immutable after construction."""

    n: int
    phase_tag: str
    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    xtz: np.ndarray | None = None
    ztz: np.ndarray | None = None
    zty: np.ndarray | None = None
    xtw: np.ndarray | None = None
    ztw: np.ndarray | None = None
    wtw: np.ndarray | None = None
    wty: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.xtx.shape[0]

    @property
    def q(self) -> int:
        return 0 if self.ztz is None else self.ztz.shape[0]

    @property
    def r(self) -> int:
        return 0 if self.wtw is None else self.wtw.shape[0]

    @classmethod
    def zeros(cls, p: int, q: int = 0, r: int = 0) -> "BatchStats":
        """Additive identity for merge; n = 0 marks an empty accumulator."""
        tag = PHASE_XZW if r else (PHASE_XZ if q else PHASE_X)
        kw = {}
        if q:
            kw = dict(xtz=np.zeros((p, q)), ztz=np.zeros((q, q)), zty=np.zeros(q))
        if r:
            kw.update(
                xtw=np.zeros((p, r)),
                ztw=np.zeros((q, r)),
                wtw=np.zeros((r, r)),
                wty=np.zeros(r),
            )
        return cls(
            n=0,
            phase_tag=tag,
            xtx=np.zeros((p, p)),
            xty=np.zeros(p),
            yty=0.0,
            **kw,
        )

    def full_gram(self) -> np.ndarray:
        """Stacked Gram matrix over every observed group, as one
        concatenation (np.block's general shape checks cost several times
        the copy at these sizes)."""
        if self.ztz is None:
            return self.xtx
        if self.wtw is None:
            rows = [[self.xtx, self.xtz], [self.xtz.T, self.ztz]]
        else:
            rows = [
                [self.xtx, self.xtz, self.xtw],
                [self.xtz.T, self.ztz, self.ztw],
                [self.xtw.T, self.ztw.T, self.wtw],
            ]
        return np.concatenate([np.concatenate(row, axis=1) for row in rows])

    def full_moment(self) -> np.ndarray:
        """Stacked response moment over every observed group."""
        blocks = [b for b in (self.xty, self.zty, self.wty) if b is not None]
        return np.concatenate(blocks) if len(blocks) > 1 else self.xty


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

    The rows are copied into one C-contiguous n x (p+q+r+1) array [x z w y]
    whose Gram matrix gives every block at once, so the sums depend only on
    the input values, never on the memory layout the caller's arrays have.
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
    if z_rows is not None:
        if schema.q < 1:
            raise DimensionMismatch("schema declares q = 0 but z rows were supplied")
        columns.append(_rows(z_rows, n, schema.q, "z"))
        if w_rows is not None:
            if schema.r < 1:
                raise DimensionMismatch("schema declares r = 0 but w rows were supplied")
            columns.append(_rows(w_rows, n, schema.r, "w"))
    columns.append(y.reshape(-1, 1))
    rows = np.concatenate(columns, axis=1)
    gram = rows.T @ rows
    # column ranges of x, z and w; the last row and column of gram are y's
    p, q = schema.p, schema.q
    xs, zs, ws = slice(0, p), slice(p, p + q), slice(p + q, -1)

    def block(a, b):
        return gram[a, b].copy()

    stats: dict = dict(
        n=n, phase_tag=PHASE_X,
        xtx=block(xs, xs), xty=block(xs, -1), yty=float(gram[-1, -1]),
    )
    if z_rows is not None:
        stats.update(phase_tag=PHASE_XZ, xtz=block(xs, zs), ztz=block(zs, zs), zty=block(zs, -1))
    if w_rows is not None:
        stats.update(
            phase_tag=PHASE_XZW,
            xtw=block(xs, ws), ztw=block(zs, ws), wtw=block(ws, ws), wty=block(ws, -1),
        )
    return BatchStats(**stats)


def _same_shape(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if (a is None) != (b is None):
        return False
    return a is None or a.shape == b.shape


def merge(a: BatchStats, b: BatchStats) -> BatchStats:
    """Blockwise sum of two statistics with the same schema and phase tag."""
    if a.phase_tag != b.phase_tag:
        raise SchemaMismatch(f"phase tags differ: {a.phase_tag} vs {b.phase_tag}")
    for name in ("xtx", "xty", "xtz", "ztz", "zty", "xtw", "ztw", "wtw", "wty"):
        if not _same_shape(getattr(a, name), getattr(b, name)):
            raise SchemaMismatch(f"block {name} shapes differ")

    def add(name):
        lhs, rhs = getattr(a, name), getattr(b, name)
        return None if lhs is None else lhs + rhs

    return replace(
        a,
        n=a.n + b.n,
        yty=a.yty + b.yty,
        **{
            name: add(name)
            for name in ("xtx", "xty", "xtz", "ztz", "zty", "xtw", "ztw", "wtw", "wty")
        },
    )
