"""Unit tests for batch compression and merging."""

import dataclasses

import numpy as np
import pytest

import hetstream as hs
from hetstream import io as hio
from hetstream.batchstats import BatchStats
from hetstream.errors import (
    DimensionMismatch,
    EmptyBatch,
    InvalidSchema,
    NonFiniteData,
    SchemaMismatch,
)

from helpers import ar1_cov


class TestSchema:
    def test_default_names(self):
        schema = hs.StreamSchema(2, 1, 1)
        assert schema.names == ("x1", "x2", "z1", "w1")

    def test_invalid(self):
        with pytest.raises(InvalidSchema):
            hs.StreamSchema(0)
        with pytest.raises(InvalidSchema):
            hs.StreamSchema(1, 0, 1)
        with pytest.raises(InvalidSchema):
            hs.StreamSchema(2, names=("a", "a"))


class TestCompressBatch:
    def test_tiny_x_only(self):
        stats = hs.compress_batch([[1.0], [-1.0]], [2.0, -2.0], hs.StreamSchema(1))
        assert stats.n == 2
        np.testing.assert_allclose(stats.xtx, [[2.0]])
        np.testing.assert_allclose(stats.xty, [4.0])
        assert stats.yty == pytest.approx(8.0)

    def test_orthogonal_rows(self):
        stats = hs.compress_batch(
            [[1.0], [0.0]], [1.0, 1.0], hs.StreamSchema(1, 1), z_rows=[[0.0], [1.0]]
        )
        np.testing.assert_allclose(stats.xtz, [[0.0]])
        np.testing.assert_allclose(stats.zty, [1.0])

    def test_dense_product_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 3))
        z = rng.standard_normal((50, 2))
        w = rng.standard_normal((50, 1))
        y = rng.standard_normal(50)
        stats = hs.compress_batch(x, y, hs.StreamSchema(3, 2, 1), z_rows=z, w_rows=w)
        for block, oracle in [
            (stats.xtx, x.T @ x),
            (stats.xtz, x.T @ z),
            (stats.ztz, z.T @ z),
            (stats.xtw, x.T @ w),
            (stats.ztw, z.T @ w),
            (stats.wtw, w.T @ w),
            (stats.xty, x.T @ y),
            (stats.zty, z.T @ y),
            (stats.wty, w.T @ y),
        ]:
            np.testing.assert_allclose(block, oracle, rtol=1e-12, atol=1e-12)
        assert stats.yty == pytest.approx(float(y @ y), rel=1e-12)

    def test_gram_blocks_nonneg_definite(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        stats = hs.compress_batch(x, y, hs.StreamSchema(4))
        eigvals = np.linalg.eigvalsh(stats.xtx)
        assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)

    def test_sufficiency_for_ols(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, p = int(rng.integers(6, 40)), int(rng.integers(1, 5))
            x = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            stats = hs.compress_batch(x, y, hs.StreamSchema(p))
            from_stats = np.linalg.solve(stats.xtx, stats.xty)
            from_rows, *_ = np.linalg.lstsq(x, y, rcond=None)
            scale = max(np.max(np.abs(from_rows)), 1.0)
            assert np.max(np.abs(from_stats - from_rows)) <= 1e-8 * scale

    def test_errors(self):
        schema = hs.StreamSchema(2, 1)
        with pytest.raises(EmptyBatch):
            hs.compress_batch(np.empty((0, 2)), [], schema)
        with pytest.raises(DimensionMismatch):
            hs.compress_batch([[1.0]], [1.0], schema)  # p mismatch
        with pytest.raises(DimensionMismatch):
            hs.compress_batch([[1.0, 2.0]], [1.0], hs.StreamSchema(2), z_rows=[[1.0]])
        with pytest.raises(NonFiniteData):
            hs.compress_batch([[np.nan, 1.0]], [1.0], hs.StreamSchema(2))
        with pytest.raises(NonFiniteData):
            hs.compress_batch([[1.0, 1.0]], [np.inf], hs.StreamSchema(2))


class TestMerge:
    def _random_stats(self, rng, n=10):
        x = rng.standard_normal((n, 2))
        z = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        return hs.compress_batch(x, y, hs.StreamSchema(2, 1), z_rows=z), (x, z, y)

    def test_zero_identity(self):
        rng = np.random.default_rng(9)
        stats, _ = self._random_stats(rng)
        zero = BatchStats.zeros(2, 1)
        merged = hs.merge(stats, zero)
        np.testing.assert_allclose(merged.xtx, stats.xtx)
        np.testing.assert_allclose(merged.ztz, stats.ztz)
        assert merged.n == stats.n

    def test_commutative(self):
        rng = np.random.default_rng(10)
        a, _ = self._random_stats(rng)
        b, _ = self._random_stats(rng)
        ab, ba = hs.merge(a, b), hs.merge(b, a)
        np.testing.assert_allclose(ab.xtx, ba.xtx)
        np.testing.assert_allclose(ab.zty, ba.zty)

    def test_split_equals_whole(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        schema = hs.StreamSchema(3)
        whole = hs.compress_batch(x, y, schema)
        parts = hs.merge(
            hs.compress_batch(x[:13], y[:13], schema),
            hs.compress_batch(x[13:], y[13:], schema),
        )
        np.testing.assert_allclose(parts.xtx, whole.xtx, rtol=1e-10)
        np.testing.assert_allclose(parts.xty, whole.xty, rtol=1e-10)
        assert parts.yty == pytest.approx(whole.yty, rel=1e-10)
        assert parts.n == whole.n

    def test_fold_over_random_split(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        schema = hs.StreamSchema(2)
        whole = hs.compress_batch(x, y, schema)
        cuts = sorted(rng.choice(np.arange(1, 40), size=3, replace=False))
        pieces = np.split(np.arange(40), cuts)
        acc = BatchStats.zeros(2)
        for piece in pieces:
            acc = hs.merge(acc, hs.compress_batch(x[piece], y[piece], schema))
        np.testing.assert_allclose(acc.xtx, whole.xtx, rtol=1e-10)
        np.testing.assert_allclose(acc.xty, whole.xty, rtol=1e-10)

    def test_schema_mismatch(self):
        rng = np.random.default_rng(13)
        a, _ = self._random_stats(rng)
        plain = hs.compress_batch(rng.standard_normal((5, 2)), rng.standard_normal(5), hs.StreamSchema(2))
        with pytest.raises(SchemaMismatch):
            hs.merge(a, plain)


def test_batch_ols_matches_under_correlated_design():
    # sufficiency holds on a correlated design as well
    rng = np.random.default_rng(21)
    chol = np.linalg.cholesky(ar1_cov(4))
    x = rng.standard_normal((60, 4)) @ chol.T
    y = x @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(size=60)
    stats = hs.compress_batch(x, y, hs.StreamSchema(4))
    np.testing.assert_allclose(
        np.linalg.solve(stats.xtx, stats.xty),
        np.linalg.lstsq(x, y, rcond=None)[0],
        rtol=1e-8,
    )


def _assert_bit_identical(a: BatchStats, b: BatchStats) -> None:
    for field in dataclasses.fields(BatchStats):
        lhs, rhs = getattr(a, field.name), getattr(b, field.name)
        if isinstance(lhs, np.ndarray):
            assert lhs.shape == rhs.shape and lhs.tobytes() == rhs.tobytes(), field.name
        else:
            assert lhs == rhs, field.name


@pytest.mark.parametrize("groups", ["x", "xz", "xzw"])
def test_statistics_depend_only_on_values(groups, tmp_path):
    # a CSV round trip, C-order and Fortran-order copies, and column slices of
    # one array hold the same values in different memory layouts; every
    # field of their statistics must agree bit for bit
    p, q, r = 4, 3 * ("z" in groups), 2 * ("w" in groups)
    schema = hs.StreamSchema(p, q, r)
    rng = np.random.default_rng(11501)
    chol = np.linalg.cholesky(ar1_cov(p + q + r))
    for j in range(10):
        rows = rng.standard_normal((100, p + q + r)) @ chol.T
        y = rows @ rng.normal(size=p + q + r) + rng.normal(size=100)
        x, z, w = rows[:, :p], rows[:, p:p + q] if q else None, rows[:, p + q:] if r else None
        slices = (x, z, w, y)
        path = tmp_path / f"batch{j}.csv"
        hio.write_batch_csv(path, x, y, z=z, w=w)
        layouts = {
            "slices": slices,
            "csv": hio.read_batch_csv(path),
            "c": tuple(None if a is None else np.ascontiguousarray(a) for a in slices),
            "f": tuple(None if a is None else np.asfortranarray(a) for a in slices),
        }
        stats = {
            name: hs.compress_batch(lx, ly, schema, z_rows=lz, w_rows=lw)
            for name, (lx, lz, lw, ly) in layouts.items()
        }
        for name in ("csv", "c", "f"):
            _assert_bit_identical(stats["slices"], stats[name])
        np.testing.assert_array_equal(stats["c"].xtx, stats["c"].xtx.T)


ACCESSORS = ("xtx", "xty", "xtz", "ztz", "zty", "xtw", "ztw", "wtw", "wty", "full_gram", "full_moment")


@pytest.mark.parametrize("source", ["compressed", "merged", "zeros"])
def test_accessors_return_contiguous_copies(source):
    # the statistics hold one cross-product matrix; a view into it would be
    # strided and send products to BLAS kernels that sum in another order,
    # so every accessor returns a new C-contiguous array, and writing into
    # it leaves the statistics unchanged
    rng = np.random.default_rng(23)
    schema = hs.StreamSchema(3, 2, 2)

    def batch():
        x, z, w = (rng.standard_normal((20, d)) for d in (3, 2, 2))
        return hs.compress_batch(x, rng.standard_normal(20), schema, z_rows=z, w_rows=w)

    stats = {
        "compressed": batch,
        "merged": lambda: hs.merge(batch(), batch()),
        "zeros": lambda: BatchStats.zeros(3, 2, 2),
    }[source]()
    before = stats.cross.copy()
    for name in ACCESSORS:
        value = getattr(stats, name)
        value = value() if callable(value) else value
        assert value.flags.c_contiguous, name
        assert not np.shares_memory(value, stats.cross), name
        value[...] = np.nan
        assert stats.cross.tobytes() == before.tobytes(), name


def test_named_blocks_are_slices_of_the_one_matrix():
    rng = np.random.default_rng(24)
    x, z, w = (rng.standard_normal((15, d)) for d in (2, 2, 1))
    y = rng.standard_normal(15)
    stats = hs.compress_batch(x, y, hs.StreamSchema(2, 2, 1), z_rows=z, w_rows=w)
    rows = np.hstack([x, z, w, y[:, None]])
    assert (stats.n, stats.widths, stats.phase_tag) == (15, (2, 2, 1), "xzw")
    np.testing.assert_allclose(stats.cross, rows.T @ rows, rtol=1e-12)
    np.testing.assert_array_equal(stats.cross, stats.cross.T)
    np.testing.assert_array_equal(stats.ztw, stats.cross[2:4, 4:5])
    np.testing.assert_array_equal(stats.wty, stats.cross[4:5, 5])
    np.testing.assert_array_equal(stats.full_gram(), stats.cross[:5, :5])
    assert stats.yty == stats.cross[5, 5]
    plain = hs.compress_batch(x, y, hs.StreamSchema(2))
    assert plain.widths == (2, 0, 0) and plain.phase_tag == "x"
    assert all(getattr(plain, name) is None for name in ("xtz", "ztz", "zty", "xtw", "ztw", "wtw", "wty"))


def test_non_finite_rows_name_their_group():
    schema = hs.StreamSchema(1, 1, 1)
    ones = np.ones((2, 1))
    bad = np.array([[1.0], [np.nan]])
    for label, (x, z, w) in {"x": (bad, ones, ones), "z": (ones, bad, ones), "w": (ones, ones, bad)}.items():
        with pytest.raises(NonFiniteData, match=f"^{label} rows"):
            hs.compress_batch(x, [1.0, 2.0], schema, z_rows=z, w_rows=w)
    with pytest.raises(NonFiniteData, match="response"):
        hs.compress_batch(bad, [1.0, np.inf], schema, z_rows=ones, w_rows=ones)
