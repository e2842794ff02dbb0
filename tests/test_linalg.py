"""Unit tests for the small dense linear algebra kernel."""

import subprocess
import sys

import numpy as np
import pytest

from hetstream import linalg
from hetstream.errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

from helpers import ar1_cov


class TestSolveSpd:
    def test_identity(self):
        x = linalg.solve_spd(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_hand_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = linalg.solve_spd(a, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_rank_one_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrix):
            linalg.solve_spd(a, np.array([1.0, 2.0]))

    def test_matrix_rhs(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        b = np.eye(2)
        inv = linalg.solve_spd(a, b)
        np.testing.assert_allclose(a @ inv, np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.solve_spd(np.eye(2), np.ones(3))

    def test_residual_bound_random_spd(self):
        # property sweep: random G'G + eps*I over dims 1..12
        rng = np.random.default_rng(2024)
        for _ in range(200):
            dim = int(rng.integers(1, 13))
            g = rng.standard_normal((dim + 2, dim))
            a = g.T @ g + 1e-6 * np.eye(dim)
            b = rng.standard_normal(dim)
            x = linalg.solve_spd(a, b)
            bound = 1e-10 * (
                np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
            )
            assert np.linalg.norm(a @ x - b) <= bound


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(linalg.cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(
            linalg.cholesky(a), np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-14
        )

    def test_ar1_reconstruction(self):
        a = ar1_cov(7)
        lower = linalg.cholesky(a)
        err = np.linalg.norm(lower @ lower.T - a) / np.linalg.norm(a)
        assert err <= 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(-np.eye(2))

    def test_positive_pivot_below_tolerance_rejected(self):
        # the last pivot is ~1e-14 > 0, so a plain factorization succeeds,
        # but it lies below PIVOT_RTOL times the largest diagonal entry
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(a)
        with pytest.raises(SingularMatrix):
            linalg.solve_spd(a, np.array([1.0, 2.0]))

    def test_random_spd_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 13))
            g = rng.standard_normal((dim + 3, dim))
            a = g.T @ g + 1e-8 * np.eye(dim)
            lower = linalg.cholesky(a)
            assert np.allclose(lower, np.tril(lower))
            err = np.linalg.norm(lower @ lower.T - a) / max(np.linalg.norm(a), 1e-12)
            assert err <= 1e-10


class TestSolveCholesky:
    def test_leading_blocks_of_one_factor(self):
        # one factor of a serves a's leading sub-systems, as factoring each
        # leading block alone does
        rng = np.random.default_rng(13)
        g = rng.standard_normal((12, 6))
        a = g.T @ g
        lower = linalg.cholesky(a)
        for w in range(7):
            b = rng.standard_normal((w, 2))
            np.testing.assert_allclose(
                linalg.solve_cholesky(lower, b),
                np.linalg.solve(a[:w, :w], b) if w else b,
                rtol=1e-10,
                atol=1e-12,
            )
        np.testing.assert_allclose(
            linalg.solve_cholesky(lower, a[:, 0]), np.eye(6)[0], atol=1e-12
        )

    def test_leaves_factor_and_rhs_untouched(self):
        a = ar1_cov(4)
        lower = linalg.cholesky(a)
        kept = lower.copy()
        b = np.ones((2, 3))
        linalg.solve_cholesky(lower, b)
        linalg.solve_cholesky(lower, np.ones(4))
        np.testing.assert_array_equal(lower, kept)
        np.testing.assert_array_equal(b, 1.0)

    def test_rhs_longer_than_factor(self):
        with pytest.raises(DimensionMismatch):
            linalg.solve_cholesky(np.eye(2), np.ones(3))


class TestQuadForm:
    def test_identity(self):
        assert linalg.quad_form(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_scaled_identity(self):
        a = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert linalg.quad_form(a, np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        v = rng.standard_normal(5)
        direct = sum(
            v[i] * a[i, j] * v[j] for i in range(5) for j in range(5)
        )
        assert abs(linalg.quad_form(a, v) - direct) <= 1e-12 * max(abs(direct), 1.0)

    def test_nonnegative_on_spd(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            g = rng.standard_normal((dim + 2, dim))
            a = g.T @ g + 1e-9 * np.eye(dim)
            v = rng.standard_normal(dim)
            assert linalg.quad_form(a, v) >= 0.0
            scale = np.linalg.norm(a)
            assert linalg.quad_form(a, np.zeros(dim)) <= 1e-12 * max(scale, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.quad_form(np.eye(3), np.ones(2))


class TestSolveGeneral:
    def test_asymmetric_solve(self):
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, 2.0])
        np.testing.assert_allclose(a @ linalg.solve_general(a, b), b, atol=1e-12)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            linalg.solve_general(a, np.ones(2))


class TestSolveConsistent:
    def test_falls_back_to_least_squares(self):
        # rank-1 but consistent: b in range(a)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        x = linalg.solve_consistent(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)


class TestLapackPath:
    """The direct dpotrf/dpotrs and dgetrf/dgetrs calls: failures, shapes
    and input layouts."""

    def test_indefinite_raises(self):
        # positive diagonal, eigenvalues -1 and 3
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(a)
        with pytest.raises(SingularMatrix):
            linalg.solve_spd(a, np.ones(2))

    def test_exactly_singular_general_raises(self):
        for a in (
            np.zeros((2, 2)),
            np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [0.5, 0.0, 4.0]]),
        ):
            with pytest.raises(SingularMatrix):
                linalg.solve_general(a, np.ones(a.shape[0]))

    @pytest.mark.parametrize("rhs_shape", [(3,), (3, 1), (3, 4)])
    def test_rhs_shape_kept(self, rhs_shape):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 3))
        spd = g.T @ g
        general = spd + np.triu(rng.standard_normal((3, 3)), 1)
        b = rng.standard_normal(rhs_shape)
        for solve, a in ((linalg.solve_spd, spd), (linalg.solve_general, general)):
            x = solve(a, b)
            assert x.shape == rhs_shape
            np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)

    def test_one_by_one(self):
        np.testing.assert_allclose(linalg.cholesky(np.array([[4.0]])), [[2.0]])
        np.testing.assert_allclose(linalg.solve_spd(np.array([[4.0]]), np.array([2.0])), [0.5])
        np.testing.assert_allclose(
            linalg.solve_general(np.array([[-2.0]]), np.array([[4.0, 6.0]])), [[-2.0, -3.0]]
        )
        with pytest.raises(SingularMatrix):
            linalg.solve_general(np.array([[0.0]]), np.array([1.0]))

    def test_integer_and_fortran_inputs_match_numpy(self):
        spd_int = np.array([[4, 2, 0], [2, 5, 1], [0, 1, 3]])
        general_int = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        b_int = np.array([1, -2, 3])
        for solve, a in ((linalg.solve_spd, spd_int), (linalg.solve_general, general_int)):
            expected = np.linalg.solve(a.astype(float), b_int.astype(float))
            np.testing.assert_allclose(solve(a, b_int), expected, rtol=1e-12)
            a_f = np.asfortranarray(a.astype(float))
            b_f = np.asfortranarray(np.column_stack([b_int, 2 * b_int]).astype(float))
            np.testing.assert_allclose(
                solve(a_f, b_f), np.linalg.solve(a.astype(float), b_f), rtol=1e-12
            )


def test_scipy_linalg_is_imported_on_first_factorization(tmp_path):
    # a plain ingest only merges, so its process never loads scipy; the
    # first factorization (here an estimate's) loads scipy.linalg
    batch, state = str(tmp_path / "b.csv"), str(tmp_path / "s.npz")
    code = "\n".join([
        "import contextlib, io, sys",
        "import numpy as np",
        "from hetstream import cli, io as hio",
        "rng = np.random.default_rng(0)",
        "x = rng.standard_normal((40, 2))",
        f"hio.write_batch_csv({batch!r}, x, x @ [1.0, -1.0] + rng.standard_normal(40))",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for _ in range(2):",
        f"        assert cli.main(['ingest', '--state', {state!r}, '--batch', {batch!r}]) == 0",
        "loaded = [name for name in sys.modules if name.split('.')[0] == 'scipy']",
        "assert not loaded, loaded",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main(['estimate', '--state', {state!r}]) == 0",
        "assert 'scipy.linalg' in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
