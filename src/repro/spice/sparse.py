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

The kernels are stdlib + NumPy, and every operation runs in a
schedule frozen at analysis time, so a sparse solve is bit-identical
run to run by construction.  It is *not* bit-identical to the dense
path (a different elimination order rounds differently); the contract
is waveform agreement within the documented tolerance, enforced by
``tests/spice/test_sparse.py``.

Exact zero pivots raise :class:`numpy.linalg.LinAlgError` exactly like
the dense kernel, so the recovery ladder (gmin / source stepping)
treats both backends identically.

The batched sample-axis solver (:mod:`repro.spice.batch`) replays the
same schedule over a sample-minor ``(cells, B)`` stack, one sample per
column (:meth:`SymbolicLU.refactor_cols` / :meth:`SymbolicLU.solve_cols`):
each level gathers whole rows of B values, sums its segments with one
``np.add.reduceat(..., axis=0)`` and writes the rows back, and every
column's bits equal the 1-D kernel's on that sample.  A zero pivot
there flags its column instead of raising.  The kernels use no SciPy;
that solver assembles their input stack with one SciPy CSR product.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

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
        symbolic = self.analysis(values)
        obs.metrics().counter("spice.sparse.refactor").inc()
        return symbolic.refactor(values)

    def factorize_cols(self, w: np.ndarray) -> np.ndarray:
        """Numeric LU of every column of a ``(n_cells, B)`` working stack.

        The analysis must exist (:meth:`analysis`), since its cell count
        sizes ``w``.  Each column counts one ``spice.sparse.refactor``.
        Returns the zero-pivot flag per column from
        :meth:`SymbolicLU.refactor_cols`, which factors ``w`` in place.
        """
        assert self._symbolic is not None
        obs.metrics().counter("spice.sparse.refactor").inc(w.shape[1])
        return self._symbolic.refactor_cols(w)

    def solve_cols(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Solve every column of the pivot-ordered ``y`` in place given
        :meth:`factorize_cols` output (see
        :meth:`SymbolicLU.solve_cols`)."""
        assert self._symbolic is not None
        return self._symbolic.solve_cols(w, y)

    def analysis(self, values: np.ndarray) -> "SymbolicLU":
        """The pattern's symbolic LU, run or fetched on first use.

        ``values`` seeds the pivot choice only when no analysis of this
        structure exists yet.  Raises
        :class:`numpy.linalg.LinAlgError` when the seed has an empty or
        all-zero column.
        """
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

    # -- the sample-minor twins -------------------------------------------
    #
    # Column b of every (cells, B) array below runs the 1-D kernel's
    # exact operation sequence: the row gathers, elementwise products,
    # subtracts and divides act per element, and
    # ``np.add.reduceat(..., axis=0)`` sums each column's segment
    # through the same inner loop (pairwise blocking included) the 1-D
    # call uses, whatever the stride.  Columns never mix, so a NaN or
    # zero pivot in one column cannot move another column's bits.  Each
    # level gathers whole rows of B contiguous values (``take(axis=0)``)
    # and writes them back as one record per row (:func:`_record`).

    @functools.cached_property
    def _col_levels(self) -> Tuple[list, list, list, np.ndarray]:
        """Level tables of the sample-minor kernels.

        The 1-D tables with every level's segments reordered by
        :func:`_multi_first`, so one ``reduceat`` covers only segments
        of two or more terms; the backward levels list their update
        targets first.  Last comes the inverse of ``pc``.
        """
        factor = [(div_dest, div_src) + _multi_first(uniq, segs, upd_l,
                                                     upd_u)
                  for div_dest, div_src, upd_l, upd_u, uniq, segs
                  in self._factor_levels]
        forward = [_multi_first(uniq, segs, lids, srcs)
                   for lids, srcs, uniq, segs in self._forward_levels]
        backward = []
        # Every update target of a backward level is one of its ts.
        for uids, srcs, uniq, segs, ts, _tpivs in self._backward_levels:
            dests, uids, srcs, starts, n_multi, k_multi = _multi_first(
                uniq, segs, uids, srcs)
            ts = np.concatenate([dests, ts[~np.isin(ts, dests)]])
            backward.append((ts, uids, srcs, starts, n_multi, k_multi,
                             len(dests), self.piv_ids[ts]))
        inv_pc = np.empty(self.n, dtype=np.intp)
        inv_pc[self.pc] = np.arange(self.n, dtype=np.intp)
        return factor, forward, backward, inv_pc

    def refactor_cols(self, w: np.ndarray) -> np.ndarray:
        """:meth:`refactor` of every column of a ``(n_cells, B)`` stack.

        ``w`` holds each sample's values in rows ``[:nnz]`` and zeros in
        the fill rows, and is factored in place.  Returns a boolean per
        column flagging an exact zero pivot, where :meth:`refactor`
        would raise.  A flagged column's factors are garbage; the other
        columns are unaffected.
        """
        rec = _record(w)
        rows = w.view(rec)
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for div_dest, div_src, dests, upd_l, upd_u, starts, n_multi, \
                    k_multi in self._col_levels[0]:
                if len(div_dest):
                    q = w.take(div_dest, axis=0)
                    q /= w.take(div_src, axis=0)
                    rows.put(div_dest, q.view(rec))
                if len(dests):
                    prod = w.take(upd_l, axis=0)
                    prod *= w.take(upd_u, axis=0)
                    cur = w.take(dests, axis=0)
                    _subtract_segments(cur, prod, starts, n_multi, k_multi)
                    rows.put(dests, cur.view(rec))
        pivots = w.take(self.piv_ids, axis=0)
        return (pivots == 0.0).any(axis=0)  # noqa: L102 - exact zero pivot

    def solve_cols(self, w: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`solve` of every column of ``y`` against ``w``'s columns.

        ``y`` is the ``(n, B)`` right-hand side already in pivot-row
        order (row k holds RHS row ``pr[k]``); it is substituted in
        place.  Returns the ``(n, B)`` solution in unknown order.
        """
        _factor, forward, backward, inv_pc = self._col_levels
        rec = _record(y)
        rows = y.view(rec)
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore", under="ignore"):
            for dests, lids, srcs, starts, n_multi, k_multi in forward:
                prod = w.take(lids, axis=0)
                prod *= y.take(srcs, axis=0)
                cur = y.take(dests, axis=0)
                _subtract_segments(cur, prod, starts, n_multi, k_multi)
                rows.put(dests, cur.view(rec))
            for ts, uids, srcs, starts, n_multi, k_multi, n_upd, tpivs \
                    in backward:
                cur = y.take(ts, axis=0)
                if n_upd:
                    prod = w.take(uids, axis=0)
                    prod *= y.take(srcs, axis=0)
                    _subtract_segments(cur[:n_upd], prod, starts, n_multi,
                                       k_multi)
                cur /= w.take(tpivs, axis=0)
                rows.put(ts, cur.view(rec))
        return y.take(inv_pc, axis=0)


def _record(a: np.ndarray) -> np.dtype:
    """One opaque record per row of C-contiguous 2-D ``a``.

    Viewed with it, ``a`` is a ``(rows, 1)`` array whose ``put`` moves
    each indexed row with one memory copy (a fancy row assignment costs
    about three times as much at these sizes); the bytes are copied,
    never converted.
    """
    return np.dtype((np.void, a.itemsize * a.shape[1]))


def _multi_first(uniq: np.ndarray, segs: np.ndarray, *payloads: np.ndarray
                 ) -> Tuple[Any, ...]:
    """Reorder one level's segments: two or more terms first, then one.

    ``uniq``/``segs``/``payloads`` are a :func:`_segment` result.
    Returns ``(dests, *payloads, starts, n_multi, k_multi)``: the
    reordered destinations and terms, the segment starts of the first
    ``n_multi`` segments (which hold the first ``k_multi`` terms) and
    those two counts.  Each segment keeps its terms in order, so
    ``reduceat`` sums it exactly as before, and a one-term segment's
    sum is its term: ``reduceat`` copies it without an add.
    """
    n_ops = len(payloads[0])
    lengths = np.diff(np.append(segs, n_ops)).astype(np.intp)
    multi = lengths > 1
    seg_order = np.concatenate([np.flatnonzero(multi),
                                np.flatnonzero(~multi)])
    lengths = lengths[seg_order]
    starts = np.cumsum(lengths) - lengths
    op_order = (np.repeat(segs[seg_order] - starts, lengths)
                + np.arange(n_ops, dtype=np.intp))
    n_multi = int(np.count_nonzero(multi))
    return ((uniq[seg_order],) + tuple(p[op_order] for p in payloads)
            + (starts[:n_multi], n_multi, int(lengths[:n_multi].sum())))


def _subtract_segments(cur: np.ndarray, prod: np.ndarray,
                       starts: np.ndarray, n_multi: int,
                       k_multi: int) -> None:
    """``cur[i] -= `` the sum of segment i of ``prod``, per column, in
    place (segments ordered by :func:`_multi_first`)."""
    if n_multi:
        cur[:n_multi] -= np.add.reduceat(prod[:k_multi], starts, axis=0)
    cur[n_multi:] -= prod[k_multi:]


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
