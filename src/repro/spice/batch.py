"""Batched sample-axis transient solver: the Monte-Carlo fast path.

Variability sweeps evaluate the *same* circuit topology hundreds of
times with perturbed device parameters.  The scalar fast path
(:mod:`repro.spice.stampplan`) makes one solve cheap, but each sample
still pays a full Python Newton loop.  This module stacks **B**
parameter-perturbed instances of one topology on a shared sample axis
and advances them through one vectorised Newton loop:

* the per-sample linear bases become a stack in the scalar plan's
  value layout — ``(B, n, n)`` matrices on the dense backend,
  ``(B, nnz)`` values on the frozen sparse pattern — sliced to the
  live rows once per step and copied per iterate (the batched twin of
  the scalar plan's ``np.copyto`` from its cached base);
* the nonlinear companion values are computed by *group fillers* —
  one vectorised evaluator per element class over element-major
  ``(E, L)`` arrays, with the MOSFET model's three finite-difference
  probes stacked on a leading axis so the magnitude model runs once
  per iterate, each writing one contiguous block of a slot-major value
  array — and scattered into the matrix stack over precomputed
  row-offset flat indices, stable-partitioned into a unique-destination
  prefix (plain fancy ``+=``, no collision possible) and a
  shared-destination remainder (unbuffered ``np.add.at``, which
  preserves each cell's accumulation order; see below);
* the dense linear solve loops LAPACK's fused factor+solve over every
  live row (:func:`repro.spice.linalg.solve_rows_t_into`), in place in
  the per-live-count scratch stack; it stays per-sample because a
  vectorised triangular solve would change BLAS reduction order, and
  ``dgesv`` *is* ``dgetrf`` + ``dgetrs``, so each row solves to the
  scalar plan's bits;
* the sparse linear solve runs every live row through one level
  schedule (:meth:`repro.spice.sparse.SparseContext.factorize_rows` /
  ``solve_rows``): all samples share plan 0's pattern and symbolic
  factorisation, so each level is one B-wide NumPy call, and each row
  gets the bits of the scalar-sparse kernel on that sample.

**Bit-identity contract.**  Converged batch samples are bit-identical
to scalar ``simulate_transient`` runs because every elementwise IEEE
operation (add, subtract, multiply, divide, abs, compare, select) is
applied to the same operand pairs in the same order as the scalar
plan, and transcendentals (``exp``, ``10**x``, ``x**a``) are routed
through the *same libm calls* via per-element loops — numpy's SIMD
``np.exp``/``np.power`` differ from libm in the last ulp, so they are
never used on the value path.  The MOSFET group's ``10**x`` and
short-channel ``exp`` go through one memo (:func:`_libm_memo`) that
calls libm only for probe cells whose argument changed since their
last call; it caches a pure function on its argument's value, so a
reused result is the bits libm would return.
Branches become either ``np.where``
selections (both arms exception-free, NaN following the scalar branch
form) or mask partitions (``np.nonzero`` gather / compute / scatter)
where one arm must not be evaluated out of domain.  Stacking the three
MOSFET probes is bit-safe because the magnitude model is elementwise:
the vds-derived subterms the scalar code shares between the operating
point and the gate probe are recomputed from identical inputs, which
yields identical bits.  The companion scatter *is* the scalar plan's
``np.add.at``, batched: each live row's frozen in-row indices are
offset by the row's stride into the raveled stack, so the scatter
replays every sample's duplicate-preserving add sequence — same
cells, same order, same partial sums, same bits — while amortising
the fancy-indexing dispatch over the whole batch.  Splitting off the
unique-destination entries is bit-safe because a cell hit exactly
once has no accumulation order to preserve: one add is one add,
whether ``np.add.at`` or fancy ``+=`` performs it.

**Active set and ejection.**  Samples drop out of the active set the
iterate they converge (masked dropout), and the whole batch marches to
the next timestep together.  A sample is *ejected* — removed from the
batch and rerun from t=0 on the scalar path — when it

* hits a singular matrix — a zero dense or sparse pivot (the scalar
  path raises a structural diagnosis; the rerun reproduces it),
* exhausts the Newton budget (the scalar path escalates the recovery
  ladder, which the batch does not replicate),
* drives its oscillation-guard damping to the 1/256 floor (a
  heuristic: such samples are headed for the ladder), or
* any unexpected exception escapes the batch internals, in which case
  *all* remaining active samples are ejected.

Ejection is always bit-safe: the rerun is a complete, independent
scalar simulation, so its result (or exception) is the serial
reference *by definition* — the ejection rules are pure performance
heuristics and can never change a waveform.

Observability: ``spice.batch.samples`` / ``spice.batch.ejected`` /
``spice.batch.batches`` / ``spice.batch.fallback`` counters, a
``spice.batch.occupancy`` time series (active fraction per step), and
the shared ``spice.newton.iterations`` histogram.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError, SimulationError
from repro.exec.supervise import tick as _supervision_tick
from repro.spice import linalg
from repro.spice.elements import Diode, Switch
from repro.spice.mna import MnaSystem
from repro.spice.mosfet import _FD_STEP, MosfetElement
from repro.spice.netlist import Circuit
from repro.spice.recovery import DEFAULT_RECOVERY, RecoveryConfig
from repro.spice.stampplan import (_LINEAR_TYPES, _NONLINEAR_TYPES,
                                   _mosfet_constants, resolve_backend,
                                   StampPlan, stamping_order)
from repro.spice.transient import (_DAMP_LIMIT, _MAX_NEWTON, _NEWTON_BUCKETS,
                                   _V_TOL, _initial_state, _validate_time_grid,
                                   TransientResult, simulate_transient)
from repro.tech.node import Polarity

_log = logging.getLogger(__name__)

#: Outcome of one sample: (True, TransientResult | measured value) or
#: (False, ReproError).  Non-ReproError exceptions always propagate.
Outcome = Tuple[bool, Any]


def _expit(*args, **kwargs):
    """scipy's expit, imported on the first call (rebinding this name)
    so ``import repro`` does not load SciPy.

    It computes 1/(1+exp(-x)) through the same libm exp as the scalar
    sigmoid — bit-identical on the switch's (-40, 40) mid branch
    (verified on this platform over 250k points), at one C call instead
    of a Python-level map.
    """
    global _expit
    from scipy.special import expit as _expit
    return _expit(*args, **kwargs)


class _BatchUnsupported(Exception):
    """The circuit stack cannot run batched; fall back to scalar."""


#: The element types a stamp plan compiles (exact types, as in
#: :mod:`repro.spice.stampplan`).
_PLAN_TYPES = _LINEAR_TYPES + _NONLINEAR_TYPES


# -- libm routing --------------------------------------------------------------
#
# numpy's vectorised exp/power use SIMD kernels that differ from libm
# in the last ulp on this platform; the scalar fast path calls
# math.exp / float.__pow__.  Bit-identity therefore requires looping
# transcendentals through the exact same libm entry points.  map() at
# C speed over tolist() floats beats a Python-level comprehension by
# ~30% at these sizes; math.pow and float.__pow__ both call libm pow
# on finite positive bases (verified bit-equal on this platform).

def _libm_exp(values: np.ndarray) -> np.ndarray:
    lst = values.tolist()
    return np.fromiter(map(math.exp, lst), dtype=float, count=len(lst))


def _libm_pow10(values: np.ndarray) -> np.ndarray:
    lst = values.tolist()
    return np.fromiter(map(math.pow, itertools.repeat(10.0), lst),
                       dtype=float, count=len(lst))


def _libm_pow(bases: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    lst = bases.tolist()
    return np.fromiter(map(math.pow, lst, exponents.tolist()),
                       dtype=float, count=len(lst))


def _carve_memo(pool: Dict[str, np.ndarray], name: str, cells: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """A ``(keys, values)`` memo over ``cells`` flat probe cells, carved
    from ``pool`` like any scratch buffer; NaN keys match nothing."""
    keys = _carve(pool, name + "_x", (cells,))
    keys.fill(np.nan)
    return keys, _carve(pool, name + "_y", (cells,))


def _libm_memo(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
               memo: Tuple[np.ndarray, np.ndarray],
               at: Optional[np.ndarray] = None) -> np.ndarray:
    """``fn(x)`` elementwise, calling ``fn`` only on changed cells.

    ``fn`` is a pure libm routing (``_libm_exp``, ``_libm_pow10``) and
    ``memo`` holds each cell's last argument and result.  ``x`` covers
    every cell, or the cells ``at`` names.  A cell whose argument
    compares equal to its key reuses its stored result; every other
    cell calls ``fn`` and stores the pair.  That is exact: equal
    doubles are the same bits except for ±0, which both functions map
    to 1.0, and NaN compares equal to nothing, so it is always
    recomputed.  Narrower live widths carve their memo from the front
    of the same memory, so a cell may hold another width's pair; every
    pair is still an argument and its own result, so a hit on it is
    exact too.
    """
    keys, values = memo
    if at is None:
        fresh = np.not_equal(x, keys).nonzero()[0]
        cells = fresh
    else:
        fresh = np.not_equal(x, keys[at]).nonzero()[0]
        cells = at[fresh]
    if fresh.size:
        changed = x[fresh]
        values[cells] = fn(changed)
        keys[cells] = changed
    return values if at is None else values[at]


def _gather_cols(names: Sequence[str], index: Callable[[str], int],
                 pad: int) -> np.ndarray:
    """Column gather indices for one terminal across a group (ground
    maps to the pad column, which is pinned to 0.0)."""
    cols = np.empty(len(names), dtype=np.intp)
    for j, node in enumerate(names):
        idx = index(node)
        cols[j] = idx if idx >= 0 else pad
    return cols


def _const_stack(grids: List[List[List[float]]]) -> np.ndarray:
    """A (K, E, B) constant stack from per-constant per-sample grids
    (``grids[k][b][e]``).

    Group arrays are element-major, ``(E, L)``: each element's row runs
    contiguously over the live samples, so per-element constants and
    per-polarity slices stay contiguous for the ufuncs.
    """
    return np.ascontiguousarray(
        np.array(grids, dtype=float).transpose(0, 2, 1))


def _carve(pool: Dict[str, np.ndarray], name: str, shape: Tuple[int, ...],
           dtype: Any = float) -> np.ndarray:
    """A C-contiguous ``shape`` view of the front of ``pool[name]``.

    Live row counts only shrink within a run, so the first (widest)
    request sizes each backing buffer and every narrower live count's
    scratch reuses its memory instead of adding its own.  Views of
    different widths alias each other, so a scratch buffer may hold
    another width's values on entry: callers write before they read.
    """
    size = math.prod(shape)
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = pool[name] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def _scatter_keep(idx: np.ndarray, limit: Optional[int] = None
                  ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Pad-filter a scatter-index array for batched ``np.add.at``.

    Positions whose destination is ``>= limit`` are dropped entirely:
    the scalar path scatters them into a pad slot that is never read,
    so skipping the adds cannot change an observable value.  Returns
    ``(keep, dst)`` where ``keep`` selects the surviving term columns
    (``None`` when nothing is dropped) and ``dst`` their in-row
    destinations.  The batched scatter offsets ``dst`` per live row and
    performs one unbuffered ``np.add.at`` over the whole stack — the
    very construct the scalar plan applies per sample, with each row's
    adds in the identical duplicate-preserving order, so every cell
    accumulates the same partial sums to the last bit.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if limit is None or bool((idx < limit).all()):
        return None, idx.copy()
    keep = np.nonzero(idx < limit)[0]
    return keep, idx[keep]


def _split_unique(slot: np.ndarray, sign: np.ndarray, dst: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Stable-partition a scatter into unique-destination and shared
    columns.

    Destinations hit exactly once take a plain fancy add (no atomics,
    no ordering concern — one IEEE add each, exactly the scalar's);
    destinations hit more than once stay on ``np.add.at``, in their
    original relative order so each cell accumulates its partial sums
    in the scalar sequence.  Returns the permuted (slot, sign, dst)
    plus the unique-prefix length.
    """
    if dst.size == 0:
        return slot.copy(), sign.copy(), dst.copy(), 0
    counts = np.bincount(dst)
    uniq = counts[dst] == 1
    order = np.concatenate([np.nonzero(uniq)[0], np.nonzero(~uniq)[0]])
    return (np.asarray(slot)[order], np.asarray(sign)[order],
            dst[order], int(np.count_nonzero(uniq)))


class _DiodeGroup:
    """Vectorised twin of StampPlan._compile_diode across (E, L)."""

    def __init__(self, grid: List[List[Diode]], index, pad: int,
                 slots: List[int], lo: int) -> None:
        row0 = grid[0]
        self.a_cols = _gather_cols([e.anode for e in row0], index, pad)
        self.c_cols = _gather_cols([e.cathode for e in row0], index, pad)
        # Value block: E conductances, then E residual currents.
        self.lo, self.hi = lo, lo + 2 * len(row0)
        self.plan_slots = list(slots) + [s + 1 for s in slots]
        # The clamp branch recomputes exp(v_clip/v_t) from constants
        # every scalar call; hoisting it is bit-safe (same libm call,
        # same argument, every time).
        self.consts = _const_stack([
            [[e.i_sat for e in row] for row in grid],
            [[e.v_t for e in row] for row in grid],
            [[e.v_clip for e in row] for row in grid],
            [[e.i_sat * math.exp(e.v_clip / e.v_t) / e.v_t for e in row]
             for row in grid],                               # g_clip
            [[e.i_sat * (math.exp(e.v_clip / e.v_t) - 1.0) for e in row]
             for row in grid]])                              # i_clip

    def fill(self, xpad: np.ndarray, vals: np.ndarray,
             c: np.ndarray) -> None:
        i_sat, v_t, v_clip, g_clip, i_clip = c
        v = xpad[self.a_cols] - xpad[self.c_cols]
        g = np.empty_like(v)
        i = np.empty_like(v)
        vr, gr, ir = v.ravel(), g.ravel(), i.ravel()
        clip = (v <= v_clip).ravel()
        lo = np.nonzero(clip)[0]
        if lo.size:
            vtf = v_t.reshape(-1)[lo]
            isf = i_sat.reshape(-1)[lo]
            e = _libm_exp(vr[lo] / vtf)
            ir[lo] = isf * (e - 1.0)
            gr[lo] = isf * e / vtf
        hi = np.nonzero(~clip)[0]
        if hi.size:
            gc = g_clip.reshape(-1)[hi]
            gr[hi] = gc
            ir[hi] = (i_clip.reshape(-1)[hi]
                      + gc * (vr[hi] - v_clip.reshape(-1)[hi]))
        mid = (self.lo + self.hi) // 2
        vals[self.lo:mid] = g
        np.subtract(i, g * v, out=vals[mid:self.hi])


class _SwitchGroup:
    """Vectorised twin of StampPlan._compile_switch across (E, L)."""

    def __init__(self, grid: List[List[Switch]], index, pad: int,
                 slots: List[int], lo: int) -> None:
        row0 = grid[0]
        self.cp_cols = _gather_cols([e.ctrl_p for e in row0], index, pad)
        self.cn_cols = _gather_cols([e.ctrl_n for e in row0], index, pad)
        # Value block: E conductances.
        self.lo, self.hi = lo, lo + len(row0)
        self.plan_slots = list(slots)
        self.consts = _const_stack([
            [[e.threshold for e in row] for row in grid],
            [[e.transition for e in row] for row in grid],
            [[e.g_off for e in row] for row in grid],
            [[e.g_on - e.g_off for e in row] for row in grid]])  # g_span
        self._scratch: Dict[int, Dict[str, np.ndarray]] = {}
        self._pool: Dict[str, np.ndarray] = {}

    def _buffers(self, live: int, e_all: int) -> Dict[str, np.ndarray]:
        s = self._scratch.get(live)
        if s is None:
            d2 = (e_all, live)
            pool = self._pool
            s = {name: _carve(pool, name, d2) for name in ("cp", "cn", "frac")}
            s["lo"] = _carve(pool, "lo", d2, bool)
            self._scratch[live] = s
        return s

    def fill(self, xpad: np.ndarray, vals: np.ndarray,
             c: np.ndarray) -> None:
        threshold, transition, g_off, g_span = c
        live = xpad.shape[1]
        s = self._buffers(live, self.cp_cols.shape[0])
        cp = xpad.take(self.cp_cols, axis=0, out=s["cp"])
        cn = xpad.take(self.cn_cols, axis=0, out=s["cn"])
        arg = np.subtract(cp, cn, out=cp)
        np.subtract(arg, threshold, out=arg)
        np.divide(arg, transition, out=arg)
        # The scalar clamps arg > 40 to 1.0, which expit returns there
        # anyway (exp(-40) is below half an ulp of 1.0); the arg < -40
        # clamp to 0.0 is written over expit's tiny positive value.
        frac = _expit(arg, out=s["frac"])
        lo = np.less(arg, -40, out=s["lo"])
        np.copyto(frac, 0.0, where=lo)
        np.multiply(g_span, frac, out=frac)
        np.add(g_off, frac, out=vals[self.lo:self.hi])


class _MosfetGroup:
    """Vectorised twin of StampPlan._compile_mosfet across (E, L).

    Both polarities share one group: columns are ordered NMOS-first,
    and the direction dispatch collapses to a single compare by giving
    every column a ``(lhs, rhs)`` operand pair — drain/source for
    NMOS, source/drain for PMOS — so ``cond = lhs >= rhs`` reproduces
    each polarity's branch condition and one ``np.where`` selects each
    branch's operand pair.  The three probe evaluations (operating
    point, drain probe, gate probe) are stacked on a leading axis so
    the magnitude model runs *once* per iterate over a (3, E*L) view.
    Stacking is bit-safe because the magnitude model is elementwise:
    the vds-derived subterms the scalar code shares between the
    operating point and the gate probe (both use the operating-point
    vds) are recomputed from identical inputs, which yields identical
    bits.
    """

    def __init__(self, grid: List[List[MosfetElement]], index, pad: int,
                 slots: List[int], lo: int, nmos_flags: List[bool]) -> None:
        order = ([j for j, f in enumerate(nmos_flags) if f]
                 + [j for j, f in enumerate(nmos_flags) if not f])
        self.kn = sum(nmos_flags)
        row0 = [grid[0][j] for j in order]
        self.d_cols = _gather_cols([e.drain for e in row0], index, pad)
        self.g_cols = _gather_cols([e.gate for e in row0], index, pad)
        self.s_cols = _gather_cols([e.source for e in row0], index, pad)
        # Value block: E drain conductances, E transconductances, then E
        # residual currents, each in the group's column order.
        self.lo, self.hi = lo, lo + 3 * len(order)
        self.plan_slots = [slots[j] + k for k in range(3) for j in order]
        # Reversed-mode flag per column: NMOS current is negated when
        # the device is reversed (~cond), PMOS when it is *forward*
        # (cond), so neg = cond XOR (column is NMOS).
        self._flip = np.zeros((len(order), 1), dtype=bool)
        self._flip[:self.kn] = True
        # Constant order mirrors _mosfet_constants: vth0, dibl, alpha,
        # swing, vt_thermal, five_vt, vth_at_ioff, sub_scale,
        # drive_width.
        per_sample = [[_mosfet_constants(row[j]) for j in order]
                      for row in grid]
        self.consts = _const_stack([
            [[consts[k] for consts in row] for row in per_sample]
            for k in range(9)])
        # Per-live-count scratch buffers: the fill runs once per Newton
        # iterate, so reusing output buffers (via ufunc ``out=`` /
        # ``np.copyto`` forms that compute the identical values) keeps
        # ~25 short-lived allocations per iterate out of the hot loop.
        # Every live count carves its buffers from one pool.
        self._scratch: Dict[int, Dict[str, np.ndarray]] = {}
        self._pool: Dict[str, np.ndarray] = {}

    def _buffers(self, live: int, e_all: int,
                 vals: np.ndarray) -> Dict[str, Any]:
        s = self._scratch.get(live)
        if s is None or s["vals"] is not vals:
            d2 = (e_all, live)
            d3 = (3, e_all, live)
            pool = self._pool
            s = {name: _carve(pool, name, d2) for name in
                 ("vd", "vg", "vs", "u0", "vg2", "ta", "tb")}
            s.update({name: _carve(pool, name, d3) for name in
                      ("u", "w", "gg", "t1", "t2", "t3", "t4", "i_sub")})
            s.update({name: _carve(pool, name, d3, bool) for name in
                      ("neg", "cond", "mask")})
            # The libm memos (see _libm_memo), flat over probe cells:
            # 10**x on all three probes, the short-channel exp on
            # probes 0 and 1 (probe 2 replays probe 0's factors).
            s.update(p10=_carve_memo(pool, "p10", 3 * e_all * live),
                     exp=_carve_memo(pool, "exp", 2 * e_all * live))
            # This group's block of `vals`, as (gd, gm, residual) rows.
            out = vals[self.lo:self.hi].reshape(d3)
            s.update(vals=vals, gdm=out[:2], gd=out[0], gm=out[1],
                     res=out[2])
            self._scratch[live] = s
        return s

    def _magnitude(self, vgs: np.ndarray, vds: np.ndarray,
                   c: np.ndarray, s: Dict[str, np.ndarray]) -> np.ndarray:
        """Channel-current magnitude over the (3, E*L) probe stack.

        ``c`` rows are flat (E*L,) constants that broadcast over the
        probe axis; partition gathers recover the element column of a
        flat index with ``% lf``.  Writes flow through the (3, E*L)
        scratch views in ``s``; every rewritten expression performs
        the scalar sequence of IEEE operations on the same operands.
        """
        (vth0, dibl, alpha, swing, vt_thermal, five_vt, vth_at_ioff,
         sub_scale, drive_width) = c
        lf = vds.shape[1]
        sh = vds.shape
        vth = s["t1"].reshape(sh)
        vod = s["t2"].reshape(sh)
        vgs_c = s["t3"].reshape(sh)
        tmp = s["t4"].reshape(sh)
        mask = s["mask"].reshape(sh)
        # The caller's vds is already |drain - source| (>= +0.0), so
        # the scalar model's abs() is the identity here, to the bit.
        np.multiply(dibl, vds, out=vth)
        np.subtract(vth0, vth, out=vth)
        # where(vth > 0.05, vth, 0.05): np.maximum picks the same value
        # for every comparable pair; NaN disagreement is unreachable
        # because a NaN voltage NaNs vgs/vod too, so the sample's
        # currents are NaN either way (and the sample gets ejected).
        np.maximum(vth, 0.05, out=vth)
        np.subtract(vgs, vth, out=vod)
        # where(vth < vgs, vth, vgs), same minimum/where equivalence
        vgs_c = np.minimum(vth, vgs, out=vgs_c)
        np.subtract(vth, vth_at_ioff, out=tmp)
        exponent = np.subtract(vgs_c, tmp, out=vgs_c)
        np.divide(exponent, swing, out=exponent)
        # Both transcendentals go through the memo: cells of idle
        # devices (rail-held terminals, clamped thresholds) repeat
        # their arguments from one iterate to the next to the bit.
        p10 = _libm_memo(_libm_pow10, exponent.ravel(), s["p10"])
        i_sub = np.multiply(sub_scale, p10.reshape(sh),
                            out=s["i_sub"].reshape(sh))
        # Short-channel flag (vds < five_vt): probe 2 bumps the gate
        # only, so vds[2] is vds[0] bit-for-bit and probe 2's flag set
        # and exp factors equal probe 0's exactly — evaluate libm exp
        # on probes {0, 1} and replay probe 0's factors onto probe 2.
        np.less(vds[:2], five_vt, out=mask[:2])
        flag01 = mask[:2].ravel().nonzero()[0]
        if flag01.size:
            # (-vds) / vt is -(vds / vt) to the bit: IEEE division rounds
            # symmetrically about zero.
            q = np.divide(vds[:2], vt_thermal, out=tmp[:2])
            args = np.negative(q.ravel()[flag01])
            # Unflagged cells get a factor of exactly 1.0, an identity.
            fac = vgs_c[:2]
            fac.fill(1.0)
            fac.ravel()[flag01] = 1.0 - _libm_memo(_libm_exp, args,
                                                   s["exp"], at=flag01)
            i_sub[:2] *= fac
            i_sub[2] *= fac[0]
        # Weak-inversion elements carry i_sub through unchanged; the
        # strong-element subthreshold leak is gathered *before* the
        # in-place rewrite, so ``m`` can alias ``i_sub``.
        m = i_sub
        mr = m.ravel()
        np.greater(vod, 0, out=mask)
        st = mask.ravel().nonzero()[0]
        if st.size:
            col = st % lf
            vod_s = vod.ravel()[st]
            vds_s = vds.ravel()[st]
            i_sub_s = mr[st]
            i_dsat = drive_width[col] * _libm_pow(vod_s, alpha[col])
            # where(vdsat > 0.05, vdsat, 0.05): the st set has vod > 0,
            # so vdsat is finite and maximum picks the identical value.
            vdsat = np.maximum(0.5 * vod_s, 0.05)
            sat = vds_s >= vdsat
            ratio = vds_s / vdsat
            mr[st] = np.where(
                sat,
                i_dsat * (1.0 + 0.05 * (vds_s - vdsat)) + i_sub_s,
                i_dsat * ratio * (2.0 - ratio) + i_sub_s)
        return m

    def fill(self, xpad: np.ndarray, vals: np.ndarray,
             c: np.ndarray) -> None:
        fd = _FD_STEP
        kn = self.kn
        live = xpad.shape[1]
        e_all = self.d_cols.shape[0]
        s = self._buffers(live, e_all, vals)
        vd = xpad.take(self.d_cols, axis=0, out=s["vd"])
        vg = xpad.take(self.g_cols, axis=0, out=s["vg"])
        vs = xpad.take(self.s_cols, axis=0, out=s["vs"])
        # Probe stacks: probe 0 is the operating point, probe 1 bumps
        # the drain, probe 2 bumps the gate (scalar probe order).  The
        # polarity dispatch runs on u = drain - source: the rounded
        # difference of two doubles keeps their comparison's sign
        # exactly (a nonzero real difference is >= the smallest
        # subnormal, so it never rounds to zero), which makes
        # ``u >= 0`` the NMOS forward test and ``u <= 0`` the PMOS one,
        # |u| both polarities' vds, and one effective-source select
        # both polarities' vgs, all to the scalar's exact bits (the
        # only divergence is the sign of a zero vds when drain and
        # source compare equal, which the model erases at its
        # unconditionally positive ``+ i_sub`` terms).
        # `w` starts as each probe's drain (probe 1 bumps it) and
        # becomes the effective source below.
        u, w = s["u"], s["w"]
        u0 = np.subtract(vd, vs, out=s["u0"])
        dpf = np.add(vd, fd, out=w[1])
        np.subtract(dpf, vs, out=u[1])
        u[0] = u0
        u[2] = u0
        neg = s["neg"]
        np.less(u[:, :kn], 0.0, out=neg[:, :kn])
        np.less_equal(u[:, kn:], 0.0, out=neg[:, kn:])
        cond = np.bitwise_xor(neg, self._flip, out=s["cond"])
        # u is done informing the sign tests; fold it to |u| in place.
        vds = np.abs(u, out=u)
        # Effective source: the terminal the gate voltage is measured
        # against (source when forward, drain when reversed).
        w[0] = vd
        w[2] = vd
        np.copyto(w, vs, where=cond)
        # NMOS vgs is gate - effective source, the gate bumped on probe
        # 2; PMOS is the negation, which IEEE negation makes bitwise
        # equal to the scalar's (effective source - gate) subtraction.
        vgs = np.subtract(vg, w, out=s["gg"])
        vg2 = np.add(vg, fd, out=s["vg2"])
        np.subtract(vg2, w[2], out=vgs[2])
        np.negative(vgs[:, kn:], out=vgs[:, kn:])
        lf = e_all * live
        m = self._magnitude(vgs.reshape(3, lf), vds.reshape(3, lf),
                            c.reshape(9, -1), s)
        # where(neg, -m, m): negation in place is exact.
        np.negative(m, out=m, where=neg.reshape(3, lf))
        cur = m.reshape(3, e_all, live)
        # gd and gm are the drain and gate probes' differences from the
        # operating point, written straight into the value block.
        gdm = np.subtract(cur[1:], cur[0], out=s["gdm"])
        np.divide(gdm, fd, out=gdm)
        gd, gm = s["gd"], s["gm"]
        # where(0.0 > gd, 0.0, gd) + gmin: maximum keeps NaN rows NaN
        # like where does, and a -0.0/+0.0 split is erased by + gmin.
        np.maximum(gd, 0.0, out=gd)
        np.add(gd, 1e-12, out=gd)  # noqa: L101 - gmin, siemens
        ta = np.multiply(gd, u0, out=s["ta"])
        tb = np.subtract(vg, vs, out=s["tb"])
        np.multiply(gm, tb, out=tb)
        i_lin = np.add(ta, tb, out=ta)
        np.subtract(cur[0], i_lin, out=s["res"])


@dataclasses.dataclass
class _BatchStep:
    """Everything fixed across the Newton iterates of one timestep."""

    rows: np.ndarray                 # sample ids, one per live row
    rhs_point: np.ndarray            # (L, n) linear RHS
    base: np.ndarray                 # (L, n, n) or (L, nnz) base slice
    group_consts: List[np.ndarray]   # one (K, E, L) stack per group

    def mask(self, keep: np.ndarray) -> "_BatchStep":
        return _BatchStep(
            rows=self.rows[keep], rhs_point=self.rhs_point[keep],
            base=self.base[keep],
            group_consts=[t[:, :, keep] for t in self.group_consts])


class BatchStampPlan:
    """B same-topology circuits compiled for simultaneous solves.

    ``backend`` is each scalar plan's linear-kernel selector; the stack
    runs on whichever kernel it resolves to (see the module docstring).
    Construction raises :class:`_BatchUnsupported` (caught by
    :func:`batch_transient_outcomes`, which falls back to the scalar
    path) when the stack is not batchable: mismatched topologies, or an
    element type the stamp-plan compiler does not know (each scalar
    rerun then fails with the plan's
    :class:`~repro.errors.ConfigurationError`).
    """

    def __init__(self, circuits: Sequence[Circuit],
                 backend: str = "dense") -> None:
        self.circuits = list(circuits)
        self.batch = len(self.circuits)
        for circuit in self.circuits:
            for el in circuit.elements:
                if type(el) not in _PLAN_TYPES:
                    # Each scalar rerun raises the plan's own error.
                    raise _BatchUnsupported(
                        f"{type(el).__name__} {el.name!r} is not a "
                        f"stamp-plan element type")
        self.systems = [MnaSystem(c) for c in self.circuits]
        self._check_topology()
        # Each plan resolves (and counts) its backend as the sample's
        # scalar solve would; one topology resolves to one backend.
        self.plans = [StampPlan(s, backend=backend, fillers=False)
                      for s in self.systems]
        self._check_geometry()
        plan0 = self.plans[0]
        self.size = plan0.size
        # Plan 0's pattern and symbolic LU serve every row (None: dense).
        self._sparse = plan0._sparse
        self.n_nodes = len(self.systems[0].node_index)
        self._n_slots = len(plan0._nl_vals)
        self._groups = self._compile_groups()
        # Each group writes its values into one contiguous block of the
        # per-iterate value array; `slot_of` maps the scalar plan's
        # slot numbers onto those blocks.
        slot_of = np.empty(self._n_slots, dtype=np.intp)
        for group in self._groups:
            slot_of[group.plan_slots] = np.arange(group.lo, group.hi)
        # Scalar plan 0 owns the canonical scatter geometry; the
        # topology check above guarantees every sample shares it.
        n = self.size
        if self._sparse is not None:
            # Value positions on the frozen pattern, one nnz-wide row
            # per sample.
            m_dst = plan0._m_pos
            self._row_stride = self._sparse.nnz
        else:
            # The matrix stack is stored *transposed* (each row holds
            # A.T, i.e. A in LAPACK's native Fortran order) so dgesv can
            # factor in place with no layout copy.  Flat index r*n+c
            # becomes c*n+r: the add sequence hitting each destination
            # is unchanged, only its storage address moves.
            _, m_dst = _scatter_keep(plan0._m_idx)
            m_dst = (m_dst % n) * n + (m_dst // n)
            self._row_stride = n * n
        (self._m_slot, self._m_sign, self._m_dst,
         self._m_n_uniq) = _split_unique(
            slot_of[plan0._m_slot], plan0._m_sign, m_dst)
        _, r_dst = _scatter_keep(plan0._r_idx)
        (self._r_slot, self._r_sign, self._r_dst,
         self._r_n_uniq) = _split_unique(
            slot_of[plan0._r_slot], plan0._r_sign, r_dst)
        # Linear RHS machinery: capacitor companions are stacked per
        # sample; sources shared across samples (the common case: the
        # builder reuses one waveform object) are evaluated once.  The
        # scalar path scatters grounded-capacitor terms into a pad row
        # it then slices off, so those writes are dropped here.
        self._n_caps = len(plan0._cap_c)
        self._cap_ia = plan0._cap_ia
        self._cap_ib = plan0._cap_ib
        self._cap_keep, self._cap_dst = _scatter_keep(
            plan0._cap_rhs_idx, limit=self.size)
        self._cap_c_stack = (np.array([p._cap_c for p in self.plans])
                             if self._n_caps else None)
        # Flat add.at index stacks, built lazily per live-row count
        # (the count shrinks as samples converge or eject).
        self._flat_cache: Dict[
            int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Per-live-count iterate buffers (xpad, vals, m-terms, r-terms,
        # value stack, two RHS buffers that take turns) and step
        # buffers, reused across iterates and carved from one pool.
        self._iter_scratch: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._step_scratch: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._pool: Dict[str, np.ndarray] = {}
        self._geq_stack: Optional[np.ndarray] = None
        self._vsrc_rows = [br for _el, br, _ip, _in in plan0._vsources]
        self._vsrc_br = np.array(self._vsrc_rows, dtype=np.intp)
        self._vsrc_shared = [
            all(p._vsources[j][0] is plan0._vsources[j][0]
                for p in self.plans)
            for j in range(len(plan0._vsources))]
        self._vsrc_all_shared = all(self._vsrc_shared)
        self._isrc_rows = [(i_from, i_to)
                           for _el, i_from, i_to in plan0._isources]
        self._isrc_shared = [
            all(p._isources[j][0] is plan0._isources[j][0]
                for p in self.plans)
            for j in range(len(plan0._isources))]
        self._base_stack: Optional[np.ndarray] = None
        self._base_stack_key: Optional[Tuple] = None
        # Live-set caches: ejection is rare, so consecutive steps see
        # the identical `rows` array object and can reuse its gathers.
        self._live_rows: Optional[np.ndarray] = None
        self._live_base: Optional[np.ndarray] = None
        self._live_consts: List[np.ndarray] = []
        self._live_geq: Optional[np.ndarray] = None

    # -- compilation -----------------------------------------------------------

    def _check_topology(self) -> None:
        if self.batch < 2:
            raise _BatchUnsupported("batch needs at least two samples")
        sys0 = self.systems[0]
        for sys_b in self.systems[1:]:
            if (sys_b.size != sys0.size
                    or sys_b.node_index != sys0.node_index
                    or sys_b.branch_index != sys0.branch_index):
                raise _BatchUnsupported(
                    "samples must share one circuit topology")
        sig0 = self._signature(self.circuits[0])
        for circuit in self.circuits[1:]:
            if self._signature(circuit) != sig0:
                raise _BatchUnsupported(
                    "samples must share one element sequence")

    def _check_geometry(self) -> None:
        plan0 = self.plans[0]
        v_rows0 = [(br, ip, in_) for _el, br, ip, in_ in plan0._vsources]
        i_rows0 = [(i_f, i_t) for _el, i_f, i_t in plan0._isources]
        for plan in self.plans[1:]:
            for name in ("_m_idx", "_m_slot", "_m_sign",
                         "_r_idx", "_r_slot", "_r_sign",
                         "_cap_rhs_idx", "_cap_ia", "_cap_ib"):
                if not np.array_equal(getattr(plan, name),
                                      getattr(plan0, name)):
                    raise _BatchUnsupported(
                        "samples compiled to different scatter geometry")
            if ([(br, ip, in_) for _el, br, ip, in_ in plan._vsources]
                    != v_rows0
                    or [(i_f, i_t) for _el, i_f, i_t in plan._isources]
                    != i_rows0):
                raise _BatchUnsupported(
                    "samples compiled to different source rows")

    @staticmethod
    def _signature(circuit: Circuit) -> List[Tuple]:
        """Element sequence signature: type, name, terminals, polarity."""
        sig: List[Tuple] = []
        for el in stamping_order(circuit):
            entry: Tuple
            if type(el) is MosfetElement:
                entry = ("mosfet", el.name, el.drain, el.gate, el.source,
                         el.device.polarity is Polarity.NMOS)
            elif type(el) is Diode:
                entry = ("diode", el.name, el.anode, el.cathode)
            elif type(el) is Switch:
                entry = ("switch", el.name, el.node_a, el.node_b,
                         el.ctrl_p, el.ctrl_n)
            else:
                entry = (type(el).__name__, el.name)
            sig.append(entry)
        return sig

    def _compile_groups(self) -> List[Any]:
        """Group the nonlinear elements by class (one MOSFET group).

        Groups write disjoint slot columns, so their evaluation order
        does not matter; the flat add.at scatter preserves the
        canonical write order regardless.
        """
        ordered = [el for el in stamping_order(self.circuits[0])
                   if type(el) not in _LINEAR_TYPES]
        by_sample = [
            [el for el in stamping_order(c)
             if type(el) not in _LINEAR_TYPES]
            for c in self.circuits]
        buckets: Dict[str, Tuple[List[int], List[int]]] = {}
        slot = 0
        for j, el in enumerate(ordered):
            if type(el) is Diode:
                kind, n_slots = "diode", 2
            elif type(el) is Switch:
                kind, n_slots = "switch", 1
            else:
                kind, n_slots = "mosfet", 3
            positions, slots = buckets.setdefault(kind, ([], []))
            positions.append(j)
            slots.append(slot)
            slot += n_slots
        index = self.systems[0].index
        pad = self.size
        groups: List[Any] = []
        lo = 0  # first value column of the next group's block
        for kind, (positions, slots) in buckets.items():
            grid = [[row[j] for j in positions] for row in by_sample]
            group: Any
            if kind == "diode":
                group = _DiodeGroup(grid, index, pad, slots, lo)
            elif kind == "switch":
                group = _SwitchGroup(grid, index, pad, slots, lo)
            else:
                flags = [ordered[j].device.polarity is Polarity.NMOS
                         for j in positions]
                group = _MosfetGroup(grid, index, pad, slots, lo, flags)
            groups.append(group)
            lo = group.hi
        return groups

    # -- per-step / per-iterate API --------------------------------------------

    def begin_run(self, dt: float, integrator: str) -> None:
        """Stack the per-sample linear bases once per (dt, integrator)."""
        gmin = 1e-12  # noqa: L101 - gmin, siemens
        key = (dt, integrator, gmin)
        if self._base_stack_key != key:
            if self._sparse is not None:
                # Each plan gathers its dense base through the shared
                # pattern and drops it: no (B, n, n) array exists.
                self._base_stack = np.stack(
                    [plan._base(dt, integrator, gmin) for plan in self.plans])
            else:
                # Transposed per sample to match the transposed `_m_dst`
                # scatter map (see __init__): row b holds base_b.T.
                self._base_stack = np.stack(
                    [plan._build_base(dt, integrator, gmin).T
                     for plan in self.plans]).copy()
            self._base_stack_key = key
        self._live_rows = None
        if self._n_caps:
            # Scalar: geq = cap_c / dt, elementwise per sample.
            self._geq_stack = self._cap_c_stack / dt

    def _flat_indices(self, live: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]:
        """Flat scatter indices for ``live`` rows.

        Matrix and RHS indices are *entry-major* — index ``[e, i]`` is
        scatter entry ``e`` of sample row ``i`` — split at the
        unique-destination prefix (``_split_unique``): the unique part
        takes a plain fancy ``+=``; the shared part replays each
        cell's scalar accumulation order under ``np.add.at`` (for one
        destination cell, entries keep ascending ``e`` order, and
        different rows never collide).  Capacitor indices stay
        row-major to match the ``(L, 2C)`` companion value layout.
        """
        cached = self._flat_cache.get(live)
        if cached is None:
            n = self.size
            stride = self._row_stride
            col_m = np.arange(live, dtype=np.intp)[None, :] * stride
            col_r = np.arange(live, dtype=np.intp)[None, :] * n
            row_r = np.arange(live, dtype=np.intp)[:, None] * n
            m_flat = (self._m_dst[:, None] + col_m).reshape(-1)
            r_flat = (self._r_dst[:, None] + col_r).reshape(-1)
            ku, kr = self._m_n_uniq * live, self._r_n_uniq * live
            cached = (m_flat[:ku], m_flat[ku:],
                      r_flat[:kr], r_flat[kr:],
                      (row_r + self._cap_dst).ravel())
            self._flat_cache[live] = cached
        return cached

    def _refresh_live(self, rows: np.ndarray) -> None:
        self._live_rows = rows
        self._live_base = self._base_stack[rows]
        self._live_consts = [g.consts[:, :, rows] for g in self._groups]
        if self._n_caps:
            self._live_geq = self._geq_stack[rows]

    def begin_step(self, rows: np.ndarray, x_hist: np.ndarray, t: float,
                   dt: float, integrator: str) -> _BatchStep:
        """Precompute one timestep's per-sample linear RHS rows.

        Vectorised transcription of ``StampPlan._point_rhs`` (backward
        Euler; the trapezoidal path never reaches the batch).  Order is
        preserved per RHS cell: capacitor companions first (one flat
        add.at), then voltage sources (disjoint branch rows), then
        current sources — exactly the scalar C, V, I sequence.  Shared
        source elements are evaluated once and broadcast; the value is
        what the scalar path computes for every sample by definition.
        """
        if rows is not self._live_rows:
            self._refresh_live(rows)
        live = rows.shape[0]
        n = self.size
        # rhs is this step's point-RHS: iterate() only ever copies it,
        # so the buffer can be recycled once the next step begins.
        scratch = self._step_scratch.get(live)
        if scratch is None:
            pool = self._pool
            scratch = (_carve(pool, "rhs_point", (live, n)),
                       _carve(pool, "xg", (live, n + 1)),
                       _carve(pool, "ieq", (live, self._n_caps)),
                       _carve(pool, "cap_vals", (live, 2 * self._n_caps)))
            self._step_scratch[live] = scratch
        rhs, xg, ieq, cap_vals = scratch
        rhs[:] = 0.0
        if self._n_caps:
            xg[:, :n] = x_hist
            xg[:, n] = 0.0
            np.subtract(xg[:, self._cap_ia], xg[:, self._cap_ib], out=ieq)
            np.multiply(self._live_geq, ieq, out=ieq)
            np.negative(ieq, out=cap_vals[:, 0::2])
            cap_vals[:, 1::2] = ieq
            cv = cap_vals
            if self._cap_keep is not None:
                cv = cap_vals[:, self._cap_keep]
            if self._cap_dst.size:
                cap_flat = self._flat_indices(live)[4]
                np.add.at(rhs.reshape(-1), cap_flat, cv.reshape(-1))
        plans = self.plans
        if self._vsrc_all_shared:
            if self._vsrc_rows:
                # Branch rows are unique per source, so one fancy add
                # performs exactly one IEEE add per cell (scalar order:
                # sources after capacitors, disjoint rows).
                values = np.array([src.waveform(t)
                                   for src, _br, _ip, _in
                                   in plans[0]._vsources])
                rhs[:, self._vsrc_br] += values
        else:
            for j, br in enumerate(self._vsrc_rows):
                if self._vsrc_shared[j]:
                    rhs[:, br] += plans[0]._vsources[j][0].waveform(t)
                else:
                    col = rhs[:, br]
                    for i, b in enumerate(rows.tolist()):
                        col[i] += plans[b]._vsources[j][0].waveform(t)
        for j, (i_from, i_to) in enumerate(self._isrc_rows):
            if self._isrc_shared[j]:
                current = plans[0]._isources[j][0].waveform(t)
                if i_from >= 0:
                    rhs[:, i_from] -= current
                if i_to >= 0:
                    rhs[:, i_to] += current
            else:
                for i, b in enumerate(rows.tolist()):
                    current = plans[b]._isources[j][0].waveform(t)
                    if i_from >= 0:
                        rhs[i, i_from] -= current
                    if i_to >= 0:
                        rhs[i, i_to] += current
        return _BatchStep(rows=rows, rhs_point=rhs, base=self._live_base,
                          group_consts=self._live_consts)

    def iterate(self, step: _BatchStep, x: np.ndarray
                ) -> Tuple[np.ndarray, List[int]]:
        """Assemble and solve one Newton iterate for every live row.

        Returns ``(x_new, bad)``: the indexes in ``bad`` are rows with a
        singular matrix, whose ``x_new`` rows are NaN and which the
        caller must eject before the next iterate.  ``x_new`` may be one
        of two per-live-count buffers that alternate between iterates,
        so the caller may keep it (and write it) until the next-but-one
        call with the same live count.
        """
        n = self.size
        live = step.rows.shape[0]
        scratch = self._iter_scratch.get(live)
        if scratch is None:
            pool = self._pool
            # Node-major x and slot-major values, matching the groups'
            # element-major (E, L) arrays.  xpad is not carved: its
            # ground pad row is read-only after this (every fill
            # gathers from xpad, nothing writes it), and a wider view
            # of shared memory would overwrite it.
            xpad = np.empty((n + 1, live))
            xpad[n] = 0.0
            matrices = _carve(pool, "matrices",
                              (live,) + self._base_stack.shape[1:])
            solutions = []
            for k in range(2):
                # Dense: row i of `matrices` holds A_i.T, so its `.T`
                # view is A_i in LAPACK's Fortran order; the views are
                # built once per buffer pair.
                rhs = _carve(pool, f"rhs{k}", (live, n))
                solutions.append((rhs, None if self._sparse is not None
                                  else [(mat_t.T, row) for mat_t, row
                                        in zip(matrices, rhs)]))
            scratch = (xpad,
                       _carve(pool, "vals", (self._n_slots, live)),
                       _carve(pool, "mterm", (self._m_slot.shape[0], live)),
                       _carve(pool, "rterm", (self._r_slot.shape[0], live)),
                       matrices, solutions)
            self._iter_scratch[live] = scratch
        xpad, vals, mterm, rterm, matrices, solutions = scratch
        xpad[:n] = x.T
        for group, consts in zip(self._groups, step.group_consts):
            group.fill(xpad, vals, consts)
        # The dense matrix stack is consumed by the in-place
        # factorisation and the RHS buffer becomes the solution the
        # caller keeps, so the two RHS buffers take turns.
        rhs, rows = solutions[0]
        solutions.reverse()
        np.copyto(matrices, step.base)
        np.copyto(rhs, step.rhs_point)
        if self._n_slots:
            mu, md, ru, rd, _cap = self._flat_indices(live)
            ku, kr = self._m_n_uniq, self._r_n_uniq
            # Entry-major terms: row e holds scatter entry e across the
            # live samples, so the unique/shared split is contiguous.
            terms = vals.take(self._m_slot, axis=0, out=mterm)
            np.multiply(terms, self._m_sign[:, None], out=terms)
            flat = matrices.reshape(-1)
            flat[mu] += terms[:ku].reshape(-1)
            np.add.at(flat, md, terms[ku:].reshape(-1))
            terms = vals.take(self._r_slot, axis=0, out=rterm)
            np.multiply(terms, self._r_sign[:, None], out=terms)
            flat = rhs.reshape(-1)
            flat[ru] += terms[:kr].reshape(-1)
            np.add.at(flat, rd, terms[kr:].reshape(-1))
        sparse = self._sparse
        if sparse is None:
            # One fused factor+solve per live row; the solutions land in
            # `rhs` in place.
            bad = linalg.solve_rows_t_into(rows)
            x_new = rhs
        else:
            try:
                factors, singular = sparse.factorize_rows(matrices)
            except np.linalg.LinAlgError:
                # The first row, seeding the pivot analysis, is
                # structurally singular: eject every row and let the
                # scalar reruns report their own outcomes.
                rhs[:] = np.nan
                return rhs, list(range(live))
            x_new = sparse.solve_rows(factors, rhs)
            bad = np.flatnonzero(singular).tolist()
        if bad:
            x_new[bad] = np.nan
        return x_new, bad


# -- the batched Newton driver -------------------------------------------------

def _normalize_initials(initial_voltages: Any, batch: int
                        ) -> List[Optional[Dict[str, float]]]:
    """One initial-voltage dict per sample (a single dict is shared)."""
    if initial_voltages is None or isinstance(initial_voltages, dict):
        return [initial_voltages] * batch
    initials = list(initial_voltages)
    if len(initials) != batch:
        raise SimulationError(
            f"{len(initials)} initial-voltage dicts for {batch} samples")
    return initials


def _run_batch(plan: BatchStampPlan, t_stop: float, dt: float,
               initials: List[Optional[Dict[str, float]]], integrator: str,
               recovery: Optional[RecoveryConfig],
               scalar_run: Callable[[int], Outcome]) -> List[Outcome]:
    """March the stack through every timestep; eject stragglers.

    The Newton loop is a row-parallel transcription of
    :func:`repro.spice.transient._solve_point` at recovery rung 0
    (plain Newton, ``initial_damping=1.0``, ``gmin=1e-12``): same
    pre-clip ``max_step``, same clipped-delta oscillation guard, same
    update-before-convergence-check ordering.  Any sample that leaves
    rung-0 behaviour — singular matrix, damping floor, exhausted
    budget — is ejected and rerun via ``scalar_run``.
    """
    circuits = plan.circuits
    batch = plan.batch
    config = recovery if recovery is not None else DEFAULT_RECOVERY
    budget = _MAX_NEWTON if config.max_newton is None else config.max_newton
    steps = int(round(t_stop / dt))
    if steps < 1:
        raise SimulationError("t_stop shorter than one time step")
    n = plan.size
    n_nodes = plan.n_nodes
    times = np.linspace(0.0, steps * dt, steps + 1)
    data = np.empty((batch, steps + 1, n))
    for b in range(batch):
        data[b, 0] = _initial_state(circuits[b], plan.systems[b],
                                    initials[b])
    plan.begin_run(dt, integrator)
    active = np.arange(batch)
    ejected: List[int] = []
    metrics = obs.metrics()
    metrics.counter("spice.batch.batches").inc()
    metrics.counter("spice.batch.samples").inc(batch)
    damping_counter = metrics.counter("spice.damping_events")
    histogram = metrics.histogram("spice.newton.iterations", _NEWTON_BUCKETS)
    recording = obs.is_enabled()
    occupancy = (obs.timeseries().series("spice.batch.occupancy")
                 if recording else None)
    floor_limit = 1.0 / 256.0
    abs_scratch: Dict[int, np.ndarray] = {}
    dot_scratch: Dict[int, np.ndarray] = {}
    try:
        with obs.span("spice.batch.transient", circuit=circuits[0].name,
                      batch=batch, steps=steps, integrator=integrator):
            for step in range(1, steps + 1):
                if not active.size:
                    break
                _supervision_tick()
                t = times[step]
                # The scalar ladder solves rung 0 at t_start + sub_dt
                # with t_start = t - dt; (t - dt) + dt need not round
                # back to t, so replicate the exact expression.
                t_point = (t - dt) + dt
                if occupancy is not None:
                    occupancy.sample(float(t), active.size / batch)
                x_hist = data[active, step - 1, :]
                ctx = plan.begin_step(active, x_hist, t_point, dt,
                                      integrator)
                x = x_hist.copy()
                prev_delta: Optional[np.ndarray] = None
                damping = np.ones(active.size)
                damping_one = True   # all damping factors still == 1.0
                damping_events = np.zeros(active.size, dtype=np.intp)
                eject_now: List[int] = []
                for iteration in range(1, budget + 1):
                    x_new, bad = plan.iterate(ctx, x)
                    if bad:
                        # Singular rows: the scalar path raises the
                        # structural diagnosis; the rerun reproduces it.
                        ok = np.ones(ctx.rows.shape[0], dtype=bool)
                        ok[bad] = False
                        eject_now.extend(ctx.rows[bad].tolist())
                        ctx = ctx.mask(ok)
                        x, x_new = x[ok], x_new[ok]
                        damping = damping[ok]
                        damping_events = damping_events[ok]
                        if prev_delta is not None:
                            prev_delta = prev_delta[ok]
                        if not ctx.rows.size:
                            break
                    # x_new is this iterate's private solution buffer;
                    # consuming it in place saves an allocation.
                    delta = np.subtract(x_new, x, out=x_new)
                    live = ctx.rows.shape[0]
                    if n_nodes:
                        ab = abs_scratch.get(live)
                        if ab is None:
                            ab = abs_scratch[live] = np.empty(
                                (live, n_nodes))
                        np.abs(delta[:, :n_nodes], out=ab)
                        max_step = ab.max(axis=1)
                    else:
                        max_step = np.zeros(live)
                    clip = max_step > _DAMP_LIMIT
                    if clip.any():
                        delta[clip] *= (_DAMP_LIMIT / max_step[clip])[:, None]
                    osc_any = False
                    if prev_delta is not None:
                        # Batched (L,1,n)@(L,n,1) matmul runs the same
                        # ddot kernel per row as the scalar path's
                        # np.dot (bit-verified); an einsum would not.
                        dot = dot_scratch.get(live)
                        if dot is None:
                            dot = dot_scratch[live] = np.empty(
                                (live, 1, 1))
                        np.matmul(delta[:, None, :],
                                  prev_delta[:, :, None], out=dot)
                        dots = dot.ravel()
                        osc = dots < 0.0
                        osc_any = bool(osc.any())
                        if osc_any:
                            damping = np.where(
                                osc,
                                np.maximum(damping * 0.5, floor_limit),
                                np.minimum(1.0, damping * 1.5))
                            damping_one = False
                            damping_events = damping_events + osc
                        elif not damping_one:
                            # Scalar growth path: min(1, d * 1.5).
                            damping = np.minimum(1.0, damping * 1.5)
                            damping_one = bool((damping == 1.0).all())  # noqa: L102 - exact saturation check
                    prev_delta = delta
                    # x + delta * 1.0 is bitwise x + delta, so skip the
                    # broadcast multiply while no row is damped; x is a
                    # driver-private buffer, so the add runs in place.
                    if damping_one:
                        x = np.add(x, delta, out=x)
                    else:
                        x = np.add(x, delta * damping[:, None], out=x)
                    converged = max_step < _V_TOL
                    if osc_any:
                        floor = osc & (damping <= floor_limit) & ~converged
                        floor_any = bool(floor.any())
                    else:
                        floor_any = False
                    conv_any = bool(converged.any())
                    if conv_any:
                        done_rows = ctx.rows[converged]
                        data[done_rows, step, :] = x[converged]
                        histogram.observe_many(iteration, done_rows.size)
                        # Damping telemetry is per sample, as on the
                        # scalar path; without a recorder it is a no-op.
                        conv_events = damping_events[converged]
                        if recording and conv_events.any():
                            conv_idx = np.nonzero(converged)[0]
                            for k in np.nonzero(conv_events)[0].tolist():
                                i = int(conv_idx[k])
                                events = int(damping_events[i])
                                damping_counter.inc(events)
                                obs.event(
                                    "spice.newton.damped",
                                    circuit=circuits[int(ctx.rows[i])].name,
                                    time=float(t_point), events=events)
                    if floor_any:
                        eject_now.extend(ctx.rows[floor].tolist())
                        histogram.observe_many(iteration, int(floor.sum()))
                        drop = converged | floor
                    elif conv_any:
                        drop = converged
                    else:
                        continue
                    keep = ~drop
                    if not keep.any():
                        break
                    ctx = ctx.mask(keep)
                    x = x[keep]
                    prev_delta = prev_delta[keep]
                    damping = damping[keep]
                    damping_events = damping_events[keep]
                else:
                    # Newton budget exhausted: the scalar path would
                    # raise ConvergenceError and walk the recovery
                    # ladder, which the batch does not replicate.
                    histogram.observe_many(budget, int(ctx.rows.size))
                    eject_now.extend(ctx.rows.tolist())
                if eject_now:
                    ejected.extend(eject_now)
                    eject_set = set(eject_now)
                    active = np.array(
                        [b for b in active.tolist() if b not in eject_set],
                        dtype=np.intp)
                    metrics.counter("spice.batch.ejected").inc(len(eject_now))
                    obs.event("spice.batch.ejected",
                              circuit=circuits[0].name,
                              time=float(t_point), samples=len(eject_now))
            if active.size:
                metrics.counter("spice.timesteps").inc(steps * active.size)
    except ReproError:
        raise
    except Exception:
        # A defect in the batch machinery must never take down a sweep
        # the scalar path could complete: eject everything still active
        # and let the scalar reruns produce the authoritative results
        # (or the authoritative per-sample exceptions).
        _log.exception("batch solver aborted; ejecting %d active samples",
                       active.size)
        obs.event("spice.batch.abort", circuit=circuits[0].name,
                  samples=int(active.size))
        if active.size:
            metrics.counter("spice.batch.ejected").inc(active.size)
            ejected.extend(active.tolist())
        active = np.empty(0, dtype=np.intp)
    survivors = set(active.tolist())
    outcomes: List[Outcome] = []
    for b in range(batch):
        if b in survivors:
            outcomes.append((True, TransientResult(
                circuit=circuits[b], time=times, data=data[b],
                node_index=dict(plan.systems[b].node_index),
                branch_index=dict(plan.systems[b].branch_index))))
        else:
            outcomes.append(scalar_run(b))
    return outcomes


def batch_transient_outcomes(
        circuits: Sequence[Circuit], t_stop: float, dt: float,
        initial_voltages: Any = None, integrator: str = "be",
        recovery: Optional[RecoveryConfig] = None,
        backend: str = "auto") -> List[Outcome]:
    """Simulate a stack of same-topology circuits, one outcome each.

    Returns ``(True, TransientResult)`` or ``(False, ReproError)`` per
    sample, in input order.  Results are bit-identical to per-sample
    :func:`repro.spice.transient.simulate_transient` calls — samples
    the batch cannot carry (and whole stacks it cannot represent) are
    transparently evaluated on the scalar path.  Configuration errors
    (bad time grid, unknown integrator, unknown backend) raise
    immediately.  A stack carrying an element type the stamp-plan
    compiler does not know runs on the scalar path, where each sample
    fails with the plan's :class:`~repro.errors.ConfigurationError`.
    Per-sample :class:`repro.errors.ReproError` failures are captured
    in the outcome list; any other exception propagates.

    ``backend`` is the linear-kernel selector of
    :func:`repro.spice.transient.simulate_transient`, resolved per
    sample exactly as there: a stack that resolves to ``"sparse"``
    solves every row on one shared sparse pattern and matches
    scalar-sparse runs bit for bit, one that resolves to ``"dense"``
    matches scalar-dense runs.
    """
    _validate_time_grid(t_stop, dt)
    if integrator not in ("be", "trap"):
        raise SimulationError(f"unknown integrator {integrator!r}")
    stack = list(circuits)
    if not stack:
        return []
    initials = _normalize_initials(initial_voltages, len(stack))

    def scalar_run(b: int) -> Outcome:
        try:
            return (True, simulate_transient(
                stack[b], t_stop, dt, initial_voltages=initials[b],
                integrator=integrator, recovery=recovery,
                backend=backend))
        except ReproError as exc:
            return (False, exc)

    if backend not in ("dense", "sparse", "auto"):
        resolve_backend(backend, 0)  # raises ConfigurationError
    reason = None
    if len(stack) == 1:
        reason = "single sample"
    elif integrator == "trap":
        reason = "trapezoidal capacitor history is scalar-only"
    plan = None
    if reason is None:
        try:
            plan = BatchStampPlan(stack, backend=backend)
        except _BatchUnsupported as exc:
            reason = str(exc)
    if plan is None:
        obs.metrics().counter("spice.batch.fallback").inc(len(stack))
        obs.event("spice.batch.fallback", samples=len(stack), reason=reason)
        return [scalar_run(b) for b in range(len(stack))]
    return _run_batch(plan, t_stop, dt, initials, integrator, recovery,
                      scalar_run)


# -- the Monte-Carlo batching contract -----------------------------------------

class BatchTransientModel:
    """A Monte-Carlo model the batched solver knows how to stack.

    Subclasses implement ``draw`` (rng -> sample parameters), ``build``
    (parameters -> Circuit), optionally ``initial_voltages``, and
    ``measure`` (TransientResult -> float), plus the ``t_stop`` / ``dt``
    class attributes.  Calling the model with a generator runs one
    sample on the scalar path — that keeps a model instance directly
    usable by ``run_monte_carlo(model, ...)`` at ``batch=1`` — while
    :func:`eval_model_batch` stacks many draws through the batched
    solver with bit-identical results.
    """

    t_stop: float
    dt: float
    integrator: str = "be"
    recovery: Optional[RecoveryConfig] = None
    backend: str = "auto"

    def draw(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def build(self, params: Any) -> Circuit:
        raise NotImplementedError

    def initial_voltages(self, params: Any) -> Optional[Dict[str, float]]:
        return None

    def measure(self, result: TransientResult, params: Any) -> float:
        raise NotImplementedError

    def __call__(self, rng: np.random.Generator) -> float:
        params = self.draw(rng)
        result = simulate_transient(
            self.build(params), self.t_stop, self.dt,
            initial_voltages=self.initial_voltages(params),
            integrator=self.integrator, recovery=self.recovery,
            backend=self.backend)
        return self.measure(result, params)


def eval_model_batch(model: BatchTransientModel,
                     rngs: Sequence[np.random.Generator]) -> List[Outcome]:
    """Evaluate one model over per-sample generators as a single batch.

    Each sample owns its generator (the SeedSequence-spawned child
    stream), so draw order is independent of batching and the returned
    measurements are bit-identical to looping ``model(rng)`` serially.
    Per-sample ``ReproError`` failures — in ``draw``/``build``, the
    solve, or ``measure`` — are captured per outcome.
    """
    count = len(rngs)
    outcomes: List[Optional[Outcome]] = [None] * count
    built: List[int] = []
    circuits: List[Circuit] = []
    initials: List[Optional[Dict[str, float]]] = []
    params_by_sample: List[Any] = [None] * count
    for i, rng in enumerate(rngs):
        try:
            params = model.draw(rng)
            circuits.append(model.build(params))
            initials.append(model.initial_voltages(params))
        except ReproError as exc:
            outcomes[i] = (False, exc)
            continue
        params_by_sample[i] = params
        built.append(i)
    if built:
        solved = batch_transient_outcomes(
            circuits, model.t_stop, model.dt, initial_voltages=initials,
            integrator=model.integrator, recovery=model.recovery,
            backend=getattr(model, "backend", "auto"))
        for i, (ok, payload) in zip(built, solved):
            if not ok:
                outcomes[i] = (False, payload)
                continue
            try:
                outcomes[i] = (
                    True, float(model.measure(payload,
                                              params_by_sample[i])))
            except ReproError as exc:
                outcomes[i] = (False, exc)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]
