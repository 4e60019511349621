"""Pattern-compiled sparse LU: the large-circuit solve path.

MNA matrices of hierarchical-bitline circuits are >95 % structurally
zero — a global bitline hanging M local blocks of N cells each is a
tree of RC chains with a handful of cross-coupling devices — so dense
``O(n^3)`` factorisation wastes almost all of its work.  This module
follows the stamp-plan philosophy (*compile once, solve many*):

* **Pattern extraction** happens at plan-compile time: the set of
  matrix positions any stamp can ever write is known statically (see
  :class:`~repro.spice.stampplan.StampPlan`), so the CSR pattern is
  frozen before the first solve.
* **Analysis** runs once per *structure*: a threshold-Markowitz pivot
  search (minimum column count first, then the most stable row above
  ``_PIVOT_THRESHOLD`` of the column maximum) seeded by the first
  assembled matrix picks the elimination order, and the symbolic pass
  records every fill position and every multiply-subtract the numeric
  factorisation will ever perform.  Analyses are cached by structure
  (``spice.sparse.symbolic`` / ``spice.sparse.symbolic_reuse``), so a
  Monte-Carlo sweep over one topology pays the Python-loop analysis
  exactly once per process.
* **Numeric refactorisation** replays the recorded schedule with
  NumPy array operations grouped into dependency *levels*: operations
  whose operands were finalised in earlier levels execute as one
  vectorised gather/segment-sum/scatter, so the per-iterate cost is a
  few array calls per level instead of a Python loop over pivots.  On
  block-parallel circuit topologies the level count is the elimination
  *depth* (cells per chain plus the global spine), not ``n``.
* The triangular **solves** are level-scheduled the same way.

Everything is stdlib + NumPy — no SciPy — and every operation runs in
a schedule frozen at analysis time, so a sparse solve is bit-identical
run to run by construction.  It is *not* bit-identical to the dense
path (a different elimination order rounds differently); the contract
is waveform agreement within the documented tolerance, enforced by
``tests/spice/test_sparse.py``.

Exact zero pivots raise :class:`numpy.linalg.LinAlgError` exactly like
the dense kernel, so the recovery ladder (gmin / source stepping)
treats both backends identically.

The batched sample-axis solver (:mod:`repro.spice.batch`) replays the
same schedule over a ``(B, nnz)`` stack of same-pattern value rows
(:meth:`SymbolicLU.refactor_rows` / :meth:`SymbolicLU.solve_rows`):
each level is still one gather/segment-sum/scatter, now B rows wide,
and every row's bits equal the 1-D kernel's on that row.  A zero
pivot there flags its row instead of raising.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs

#: Relative pivot-stability threshold for the Markowitz row choice: a
#: candidate pivot must be at least this fraction of its column's
#: largest magnitude.  Small enough to let the fill-reducing choice win
#: almost always, large enough to refuse catastrophically tiny pivots.
_PIVOT_THRESHOLD = 1e-3  # noqa: L101 - dimensionless ratio

#: Analyses cached by matrix structure (size + flat pattern bytes).
#: One entry per circuit *topology*, so a Monte-Carlo sweep re-solving
#: thousands of perturbed copies of one circuit analyses exactly once.
_MAX_SYMBOLIC = 16
_symbolic_cache: "OrderedDict[bytes, SymbolicLU]" = OrderedDict()


def _singular() -> np.linalg.LinAlgError:
    # Same message as the dense kernel in repro.spice.linalg.
    return np.linalg.LinAlgError("singular matrix (zero pivot)")


class SparseContext:
    """One frozen sparsity pattern, ready for repeated factorisation.

    ``flat`` is the sorted array of flat ``row * n + col`` positions the
    assembly can ever write.  The (expensive, Python-loop) analysis is
    deferred to the first :meth:`factorize` call because the pivot
    choice wants magnitudes; after that every call is a pure-NumPy
    numeric refactor into the precomputed pattern.
    """

    def __init__(self, n: int, flat: np.ndarray) -> None:
        self.n = n
        self.flat = np.asarray(flat, dtype=np.intp)
        self.rows = (self.flat // n).astype(np.intp)
        self.cols = (self.flat % n).astype(np.intp)
        self.nnz = len(self.flat)
        self._symbolic: Optional[SymbolicLU] = None

    @property
    def fill_ratio(self) -> float:
        """nnz(L+U) / nnz(A); 0.0 until the first factorisation."""
        if self._symbolic is None:
            return 0.0
        return self._symbolic.n_cells / max(1, self.nnz)

    def factorize(self, values: np.ndarray) -> np.ndarray:
        """Numeric LU of the pattern holding ``values``.

        The first call runs (or fetches from the structure cache) the
        symbolic analysis; every call counts one
        ``spice.sparse.refactor``.  Raises
        :class:`numpy.linalg.LinAlgError` on an exact zero pivot.
        """
        symbolic = self._analysis(values)
        obs.metrics().counter("spice.sparse.refactor").inc()
        return symbolic.refactor(values)

    def factorize_rows(self, values: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Numeric LU of every row of a ``(B, nnz)`` value stack.

        Row 0 seeds the analysis when none exists yet, exactly as a
        scalar solve of that sample would; each row counts one
        ``spice.sparse.refactor``.  Returns ``(factors, bad)`` from
        :meth:`SymbolicLU.refactor_rows`: a zero pivot flags its row
        instead of raising.  Only the analysis itself can raise
        :class:`numpy.linalg.LinAlgError` (row 0 structurally
        singular).
        """
        symbolic = self._analysis(values[0])
        obs.metrics().counter("spice.sparse.refactor").inc(values.shape[0])
        return symbolic.refactor_rows(values)

    def solve_rows(self, factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve every row of ``rhs`` given :meth:`factorize_rows` output."""
        assert self._symbolic is not None
        return self._symbolic.solve_rows(factors, rhs)

    def _analysis(self, values: np.ndarray) -> "SymbolicLU":
        """The pattern's symbolic LU, run or fetched on first use."""
        if self._symbolic is None:
            key = self.n.to_bytes(8, "little") + self.flat.tobytes()
            cached = _symbolic_cache.get(key)
            if cached is not None:
                _symbolic_cache.move_to_end(key)
                self._symbolic = cached
                obs.metrics().counter("spice.sparse.symbolic_reuse").inc()
            else:
                self._symbolic = SymbolicLU(
                    self.n, self.rows, self.cols, np.asarray(values, float))
                _symbolic_cache[key] = self._symbolic
                if len(_symbolic_cache) > _MAX_SYMBOLIC:
                    _symbolic_cache.popitem(last=False)
                obs.metrics().counter("spice.sparse.symbolic").inc()
            if obs.is_enabled():
                obs.metrics().gauge("spice.sparse.fill_ratio").set(
                    self.fill_ratio)
        return self._symbolic

    def solve(self, factors: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` given :meth:`factorize` output."""
        assert self._symbolic is not None
        return self._symbolic.solve(factors, rhs)


class SymbolicLU:
    """The frozen elimination schedule of one sparsity pattern.

    Built once by a right-looking threshold-Markowitz elimination over
    dict-of-rows storage (the only Python-loop phase); the result is a
    set of level-grouped index arrays that replay the exact same
    arithmetic vectorised.  ``refactor`` and ``solve`` touch no Python
    per-entry loops.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray) -> None:
        self.n = n
        self.nnz = len(rows)
        self._analyze(rows, cols, values)

    # -- one-time analysis -------------------------------------------------

    def _analyze(self, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray) -> None:
        n = self.n
        nnz = self.nnz
        # Active matrix as dict-of-rows plus a row set per column.
        a: List[Dict[int, float]] = [dict() for _ in range(n)]
        col_rows: List[set] = [set() for _ in range(n)]
        cell_id: Dict[Tuple[int, int], int] = {}
        for idx in range(nnz):
            r, c = int(rows[idx]), int(cols[idx])
            a[r][c] = float(values[idx])
            col_rows[c].add(r)
            cell_id[(r, c)] = idx
        next_id = nnz
        # Highest level that has written each cell so far (-1 = never).
        wlevel: List[int] = [-1] * nnz

        colcount = np.array([len(col_rows[c]) for c in range(n)],
                            dtype=np.int64)
        inactive_penalty = np.int64(1) << 40
        pr = np.empty(n, dtype=np.intp)   # pivot row of each step
        pc = np.empty(n, dtype=np.intp)   # pivot column of each step
        piv_ids = np.empty(n, dtype=np.intp)
        step_level = np.empty(n, dtype=np.intp)
        div_ops: List[Tuple[int, int, int]] = []       # (level, dest, src)
        upd_ops: List[Tuple[int, int, int, int]] = []  # (level, dest, l, u)
        l_entries: List[Tuple[int, int, int]] = []     # (row, step, cell)
        u_entries: List[List[Tuple[int, int]]] = []    # per step: (col, cell)

        for k in range(n):
            c = int(np.argmin(colcount + inactive_penalty *
                              (colcount <= 0)))
            rows_c = sorted(col_rows[c])
            if not rows_c:
                raise _singular()  # structurally singular column
            colmax = max(abs(a[r][c]) for r in rows_c)
            if colmax == 0.0:  # noqa: L102 - exact zero is the contract
                raise _singular()
            threshold = _PIVOT_THRESHOLD * colmax
            i = -1
            best_cost = None
            for r in rows_c:
                if abs(a[r][c]) >= threshold:
                    cost = len(a[r])
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        i = r
            piv_id = cell_id[(i, c)]
            prow = a[i]
            uitems = sorted((cc, cell_id[(i, cc)])
                            for cc in prow if cc != c)
            elim = [r for r in rows_c if r != i]
            # Dependency level: one past the latest writer of anything
            # this step reads (pivot, its column, its row).
            lvl = wlevel[piv_id]
            for _cc, uid in uitems:
                if wlevel[uid] > lvl:
                    lvl = wlevel[uid]
            for r in elim:
                wl = wlevel[cell_id[(r, c)]]
                if wl > lvl:
                    lvl = wl
            level = lvl + 1
            piv_val = prow[c]
            for r in elim:
                lid = cell_id[(r, c)]
                arow = a[r]
                f = arow.pop(c) / piv_val
                div_ops.append((level, lid, piv_id))
                l_entries.append((r, k, lid))
                for cc, uid in uitems:
                    contrib = f * prow[cc]
                    dest = cell_id.get((r, cc))
                    if dest is None:
                        arow[cc] = -contrib
                        dest = next_id
                        next_id += 1
                        cell_id[(r, cc)] = dest
                        wlevel.append(-1)
                        col_rows[cc].add(r)
                        colcount[cc] += 1
                    else:
                        arow[cc] -= contrib
                    upd_ops.append((level, dest, lid, uid))
                    if level > wlevel[dest]:
                        wlevel[dest] = level
                if level > wlevel[lid]:
                    wlevel[lid] = level
            # Retire the pivot row and column from the active matrix.
            for cc, _uid in uitems:
                col_rows[cc].discard(i)
                colcount[cc] -= 1
            col_rows[c].clear()
            colcount[c] = 0
            pr[k] = i
            pc[k] = c
            piv_ids[k] = piv_id
            step_level[k] = level
            u_entries.append(uitems)

        self.n_cells = next_id
        self.pr = pr
        self.pc = pc
        self.piv_ids = piv_ids
        self._factor_levels = _group_factor_levels(div_ops, upd_ops)
        self._forward_levels = _group_forward_levels(n, pr, l_entries)
        self._backward_levels = _group_backward_levels(
            n, pc, piv_ids, u_entries)

    # -- the hot path ------------------------------------------------------

    def refactor(self, values: np.ndarray) -> np.ndarray:
        """Numeric factorisation of the pattern holding ``values``.

        Returns the working cell array (L factors, U entries and
        pivots at their frozen slots) for :meth:`solve`.  Raises on an
        exact zero pivot; non-finite values flow through like the
        dense kernel (a divergent Newton iterate keeps its NaNs).
        """
        w = np.zeros(self.n_cells)
        w[:self.nnz] = values
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for div_dest, div_src, upd_l, upd_u, uniq, segs \
                    in self._factor_levels:
                if len(div_dest):
                    w[div_dest] = w[div_dest] / w[div_src]
                if len(uniq):
                    prod = w[upd_l] * w[upd_u]
                    w[uniq] -= np.add.reduceat(prod, segs)
        if np.any(w[self.piv_ids] == 0.0):  # noqa: L102 - exact zero pivot
            raise _singular()
        return w

    def solve(self, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Level-scheduled forward/backward substitution."""
        y = np.ascontiguousarray(rhs[self.pr], dtype=float)
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for lids, srcs, uniq, segs in self._forward_levels:
                prod = w[lids] * y[srcs]
                y[uniq] -= np.add.reduceat(prod, segs)
            for uids, srcs, uniq, segs, ts, tpivs in self._backward_levels:
                if len(uniq):
                    prod = w[uids] * y[srcs]
                    y[uniq] -= np.add.reduceat(prod, segs)
                y[ts] = y[ts] / w[tpivs]
        out = np.empty(self.n)
        out[self.pc] = y
        return out

    # -- the row-stacked twins ---------------------------------------------
    #
    # Row b of every (B, ...) array below runs the 1-D kernel's exact
    # operation sequence: the gathers, elementwise products and divides
    # act per element, and ``np.add.reduceat(..., axis=1)`` sums each
    # row's segment with the same contiguous inner loop (pairwise
    # blocking included) the 1-D call uses.  Rows never mix, so a NaN or
    # zero pivot in one row cannot move another row's bits.

    def refactor_rows(self, values: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`refactor` of every row of a ``(B, nnz)`` value stack.

        Returns ``(w, bad)``: the ``(B, n_cells)`` factor rows and a
        boolean per row flagging an exact zero pivot, where
        :meth:`refactor` would raise.  A flagged row's factors are
        garbage; the other rows are unaffected.
        """
        w = np.zeros((values.shape[0], self.n_cells))
        w[:, :self.nnz] = values
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for div_dest, div_src, upd_l, upd_u, uniq, segs \
                    in self._factor_levels:
                if len(div_dest):
                    w[:, div_dest] = w[:, div_dest] / w[:, div_src]
                if len(uniq):
                    prod = w[:, upd_l] * w[:, upd_u]
                    w[:, uniq] -= np.add.reduceat(prod, segs, axis=1)
        pivots = w[:, self.piv_ids]
        return w, (pivots == 0.0).any(axis=1)  # noqa: L102 - exact zero pivot

    def solve_rows(self, w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """:meth:`solve` of every row of ``rhs`` against ``w``'s rows."""
        y = rhs[:, self.pr]  # a fresh (B, n) copy
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for lids, srcs, uniq, segs in self._forward_levels:
                prod = w[:, lids] * y[:, srcs]
                y[:, uniq] -= np.add.reduceat(prod, segs, axis=1)
            for uids, srcs, uniq, segs, ts, tpivs in self._backward_levels:
                if len(uniq):
                    prod = w[:, uids] * y[:, srcs]
                    y[:, uniq] -= np.add.reduceat(prod, segs, axis=1)
                y[:, ts] = y[:, ts] / w[:, tpivs]
        out = np.empty((rhs.shape[0], self.n))
        out[:, self.pc] = y
        return out


def _segment(dest: np.ndarray, *payloads: np.ndarray
             ) -> Tuple[np.ndarray, ...]:
    """Stable-sort ops by destination and mark the segment starts.

    Returns ``(payload0_sorted, ..., uniq_dest, seg_starts)`` ready for
    a gather / ``np.add.reduceat`` / scatter-subtract triple.  The
    stable sort keeps same-destination contributions in schedule order,
    so the accumulation rounding is frozen with the schedule.
    """
    order = np.argsort(dest, kind="stable")
    dest_sorted = dest[order]
    uniq, starts = np.unique(dest_sorted, return_index=True)
    return tuple(p[order] for p in payloads) + (uniq, starts)


def _group_factor_levels(div_ops: List[Tuple[int, int, int]],
                         upd_ops: List[Tuple[int, int, int, int]]
                         ) -> List[Tuple[np.ndarray, ...]]:
    """Group the recorded factorisation ops by dependency level."""
    n_levels = 0
    for op in div_ops:
        n_levels = max(n_levels, op[0] + 1)
    for op in upd_ops:
        n_levels = max(n_levels, op[0] + 1)
    empty = np.empty(0, dtype=np.intp)
    div_by: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_levels)]
    upd_by: List[List[Tuple[int, int, int, int]]] = [
        [] for _ in range(n_levels)]
    for op in div_ops:
        div_by[op[0]].append(op)
    for op in upd_ops:
        upd_by[op[0]].append(op)
    levels = []
    for lv in range(n_levels):
        divs = div_by[lv]
        if divs:
            div_dest = np.array([d[1] for d in divs], dtype=np.intp)
            div_src = np.array([d[2] for d in divs], dtype=np.intp)
        else:
            div_dest = div_src = empty
        upds = upd_by[lv]
        if upds:
            dest = np.array([u[1] for u in upds], dtype=np.intp)
            lsrc = np.array([u[2] for u in upds], dtype=np.intp)
            usrc = np.array([u[3] for u in upds], dtype=np.intp)
            lsrc, usrc, uniq, segs = _segment(dest, lsrc, usrc)
        else:
            lsrc = usrc = uniq = segs = empty
        levels.append((div_dest, div_src, lsrc, usrc, uniq, segs))
    return levels


def _group_forward_levels(n: int, pr: np.ndarray,
                          l_entries: List[Tuple[int, int, int]]
                          ) -> List[Tuple[np.ndarray, ...]]:
    """Level schedule of the unit-lower forward substitution."""
    rstep = np.empty(n, dtype=np.intp)
    rstep[pr] = np.arange(n, dtype=np.intp)
    if not l_entries:
        return []
    dest = np.array([rstep[r] for r, _k, _lid in l_entries], dtype=np.intp)
    src = np.array([k for _r, k, _lid in l_entries], dtype=np.intp)
    lid = np.array([cell for _r, _k, cell in l_entries], dtype=np.intp)
    flevel = np.zeros(n, dtype=np.intp)
    order = np.argsort(dest, kind="stable")
    for o in order:
        lv = flevel[src[o]] + 1
        if lv > flevel[dest[o]]:
            flevel[dest[o]] = lv
    levels = []
    op_level = flevel[dest]
    for lv in range(1, int(flevel.max()) + 1 if n else 0):
        sel = np.nonzero(op_level == lv)[0]
        if not len(sel):
            continue
        lids, srcs, uniq, segs = _segment(dest[sel], lid[sel], src[sel])
        levels.append((lids, srcs, uniq, segs))
    return levels


def _group_backward_levels(n: int, pc: np.ndarray, piv_ids: np.ndarray,
                           u_entries: List[List[Tuple[int, int]]]
                           ) -> List[Tuple[np.ndarray, ...]]:
    """Level schedule of the backward substitution (with pivot divide)."""
    cstep = np.empty(n, dtype=np.intp)
    cstep[pc] = np.arange(n, dtype=np.intp)
    blevel = np.zeros(n, dtype=np.intp)
    ops_dest: List[int] = []
    ops_src: List[int] = []
    ops_uid: List[int] = []
    for t in range(n - 1, -1, -1):
        lv = 0
        for cc, uid in u_entries[t]:
            s = int(cstep[cc])
            ops_dest.append(t)
            ops_src.append(s)
            ops_uid.append(uid)
            if blevel[s] + 1 > lv:
                lv = blevel[s] + 1
        blevel[t] = lv
    dest = np.array(ops_dest, dtype=np.intp)
    src = np.array(ops_src, dtype=np.intp)
    uid = np.array(ops_uid, dtype=np.intp)
    op_level = blevel[dest] if len(dest) else np.empty(0, dtype=np.intp)
    empty = np.empty(0, dtype=np.intp)
    levels = []
    for lv in range(int(blevel.max()) + 1 if n else 0):
        ts = np.nonzero(blevel == lv)[0].astype(np.intp)
        sel = np.nonzero(op_level == lv)[0]
        if len(sel):
            uids, srcs, uniq, segs = _segment(dest[sel], uid[sel], src[sel])
        else:
            uids = srcs = uniq = segs = empty
        levels.append((uids, srcs, uniq, segs, ts,
                       piv_ids[ts].astype(np.intp)))
    return levels
