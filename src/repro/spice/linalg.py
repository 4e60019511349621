"""Shared dense LU kernels for the MNA solvers.

Every dense solve in :mod:`repro.spice` — the compiled
:class:`~repro.spice.stampplan.StampPlan` and the batched sample-axis
solver, DC and transient alike — runs LAPACK's fused ``dgesv`` in
place through :func:`solve_rows_t_into`, on matrices stored in
LAPACK's column-major order.  ``dgesv`` *is* ``dgetrf`` followed by
``dgetrs``, the pair :func:`lu_solve_dense` (the per-element stamping
oracle's solve in the tests) calls.  That single-kernel rule is what
makes the batch *bit-identical* to the scalar solve, and both to the
oracle: an identical matrix factorised by the same routine yields the
identical solution.

The raw LAPACK bindings skip :func:`scipy.linalg.lu_factor`'s per-call
validation wrappers (about half the solve cost at MNA sizes) while
running the exact same kernels underneath.  Exact zero pivots raise
:class:`numpy.linalg.LinAlgError` (matching the historic
``np.linalg.solve`` behaviour on singular systems); the structural
diagnosis belongs to the caller
(:meth:`repro.spice.mna.MnaSystem.singular_error`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Opaque factorisation handle: (lu, piv) as ``dgetrf`` returns them.
LuFactors = Tuple[np.ndarray, np.ndarray]


# The LAPACK kernels are imported on the first solve: importing
# ``scipy.linalg`` adds about a fifth of a second and tens of MB of
# resident memory to start-up, which ``import repro`` and the analytic
# commands never need.  Each stub rebinds its module name to the real
# kernel on its first call, so every later call goes straight to LAPACK.


def _dgesv(*args):
    global _dgesv
    from scipy.linalg.lapack import dgesv as _dgesv
    return _dgesv(*args)


def _dgetrf(*args):
    global _dgetrf
    from scipy.linalg.lapack import dgetrf as _dgetrf
    return _dgetrf(*args)


def _dgetrs(*args):
    global _dgetrs
    from scipy.linalg.lapack import dgetrs as _dgetrs
    return _dgetrs(*args)


def lu_factorize(matrix: np.ndarray) -> LuFactors:
    """LU-factorise ``matrix`` with partial pivoting.

    Raises :class:`numpy.linalg.LinAlgError` on an exactly singular
    matrix (zero pivot), like ``np.linalg.solve`` used to.
    """
    lu, piv, info = _dgetrf(matrix)
    if info != 0:
        raise np.linalg.LinAlgError(
            "singular matrix (zero pivot)" if info > 0
            else f"illegal dgetrf argument {-info}")
    return lu, piv


def lu_backsolve(factors: LuFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` given :func:`lu_factorize` output."""
    lu, piv = factors
    x, info = _dgetrs(lu, piv, rhs)
    if info != 0:  # pragma: no cover - factors are always consistent
        raise np.linalg.LinAlgError(f"illegal dgetrs argument {-info}")
    return x


def lu_solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot factorise + solve (the tests' reference solve)."""
    return lu_backsolve(lu_factorize(matrix), rhs)


def solve_rows_t_into(rows: List[Tuple[np.ndarray, np.ndarray]]
                      ) -> List[int]:
    """Factor and solve every ``(A_i, rhs_i)`` pair in place.

    Each ``A_i`` is Fortran-ordered — LAPACK's native layout, e.g. a
    column-major value array viewed with ``reshape((n, n), order="F")``
    — so ``dgesv`` factors it in place with no copy.  ``dgesv`` *is*
    ``dgetrf`` followed by ``dgetrs``, so each solution has the bits of
    :func:`lu_solve_dense` on ``A_i``.  Solutions land in the ``rhs_i``
    vectors and the matrices are consumed as scratch.  Returns the
    indexes of singular rows (their ``rhs_i`` are garbage).
    """
    bad: List[int] = []
    for i, (matrix, row) in enumerate(rows):
        # Positional flags (overwrite_a, overwrite_b): keyword parsing
        # is measurable at ~50k rows per run.
        _lu, _piv, x, info = _dgesv(matrix, row, 1, 1)
        if info != 0:
            if info < 0:  # pragma: no cover - args are consistent
                raise np.linalg.LinAlgError(
                    f"illegal dgesv argument {-info}")
            bad.append(i)
        elif x is not row:  # pragma: no cover - non-contiguous input
            row[:] = x
    return bad
