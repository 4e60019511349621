"""The shared dense LU kernels of ``repro.spice.linalg``.

Pins the singular-matrix contract every solver path relies on, and the
batched row solver's identity with the scalar kernel: each row of
:func:`solve_rows_t_into` must solve to the same bits as
:func:`lu_solve_dense` on the untransposed matrix.
"""

import numpy as np
import pytest

from repro.spice import linalg


def random_system(rng, n):
    """A well-conditioned system: diagonally dominant + random rhs."""
    a = rng.normal(0.0, 1.0, size=(n, n))
    a += n * np.eye(n)
    b = rng.normal(0.0, 1.0, size=n)
    return a, b


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])


def transposed_pairs(matrices_t, rhs):
    """``(A_i, rhs_i)`` pairs over a stack whose rows hold ``A_i.T``."""
    return [(mat_t.T, row) for mat_t, row in zip(matrices_t, rhs)]


class TestSingularContract:
    def test_lu_factorize_raises_on_zero_pivot(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            linalg.lu_factorize(SINGULAR)

    def test_factor_then_backsolve_solves(self):
        # A zero leading diagonal forces an actual row swap.
        a = np.array([[0.0, 2.0], [3.0, 1.0]])
        b = np.array([4.0, 5.0])
        x = linalg.lu_backsolve(linalg.lu_factorize(a), b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)


class TestFactorBacksolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40])
    def test_matches_numpy_solve(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            a, b = random_system(rng, n)
            x = linalg.lu_backsolve(linalg.lu_factorize(a), b)
            np.testing.assert_allclose(x, np.linalg.solve(a, b),
                                       rtol=1e-10, atol=1e-12)

    def test_multiple_rhs_columns(self):
        rng = np.random.default_rng(7)
        a, _ = random_system(rng, 6)
        rhs = rng.normal(size=(6, 3))
        x = linalg.lu_backsolve(linalg.lu_factorize(a), rhs)
        np.testing.assert_allclose(a @ x, rhs, atol=1e-10)

    def test_input_matrix_not_mutated(self):
        """The legacy path factors ``MnaSystem.matrix`` itself; the
        singular-system diagnosis reads it afterwards."""
        rng = np.random.default_rng(8)
        a, b = random_system(rng, 5)
        snapshot, rhs_snapshot = a.copy(), b.copy()
        linalg.lu_solve_dense(a, b)
        assert a.tobytes() == snapshot.tobytes()
        assert b.tobytes() == rhs_snapshot.tobytes()


class TestSolveRowsTransposed:
    def test_empty_stack_solves_nothing(self):
        rows = transposed_pairs(np.empty((0, 4, 4)), np.empty((0, 4)))
        assert linalg.solve_rows_t_into(rows) == []

    @pytest.mark.parametrize("n", [1, 3, 7, 16])
    def test_rows_match_scalar_kernel_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        systems = [random_system(rng, n) for _ in range(5)]
        matrices_t = np.stack([a.T for a, _b in systems]).copy()
        rhs = np.stack([b for _a, b in systems])
        rows = transposed_pairs(matrices_t, rhs)
        assert linalg.solve_rows_t_into(rows) == []
        for (a, b), row in zip(systems, rhs):
            assert row.tobytes() == linalg.lu_solve_dense(a, b).tobytes()

    def test_singular_rows_are_reported(self):
        rng = np.random.default_rng(9)
        good = [random_system(rng, 2) for _ in range(3)]
        matrices = [good[0][0], SINGULAR, good[1][0], np.zeros((2, 2)),
                    good[2][0]]
        vectors = [good[0][1], np.ones(2), good[1][1], np.ones(2),
                   good[2][1]]
        matrices_t = np.stack([a.T for a in matrices]).copy()
        rhs = np.stack(vectors)
        rows = transposed_pairs(matrices_t, rhs)
        assert linalg.solve_rows_t_into(rows) == [1, 3]
        for i in (0, 2, 4):
            expected = linalg.lu_solve_dense(matrices[i], vectors[i])
            assert rhs[i].tobytes() == expected.tobytes()
