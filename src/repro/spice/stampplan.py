"""Compiled stamp plans: the one MNA assembly path.

A :class:`StampPlan` compiles a circuit once per :class:`MnaSystem`,
so a Newton iterate never walks the elements through string-keyed node
lookups:

* the circuit is partitioned into **linear** elements (resistor,
  capacitor, voltage source, current source) and the **nonlinear rest**
  (diode, switch, MOSFET); a plan accepts exactly these seven element
  types and raises :class:`~repro.errors.ConfigurationError` naming any
  other;
* the linear *matrix* contributions are assembled once per
  ``(dt, gmin)`` key and cached — per Newton iterate the base is
  block-copied, never re-stamped;
* the linear *RHS* contributions (source waveforms, backward-Euler
  capacitor history currents) are assembled once per solve point; the
  capacitor history scatter is vectorised with ``np.add.at`` over
  precompiled index arrays;
* nonlinear elements are compiled to per-element *value fillers* with
  node indices resolved to integers once; each reads the iterate as a
  Python list whose trailing slot is ground's 0.0, and their
  matrix/RHS writes replay through one ``np.add.at`` scatter over
  index/sign arrays frozen in canonical write order.

Each Newton iterate then does one assembly (base copy, filler scatter,
gmin-stepping diagonal) into a value array plus a RHS vector, and one
factor+solve of it.  Nothing is cached across iterates: on the paper's
workloads consecutive iterates almost never repeat a matrix, so a
factorisation cache would only add key hashing to every solve.

**Backends.**  ``backend`` selects the linear kernel: ``"dense"`` (the
default — the plan's persistent ``n x n`` buffer, stored in LAPACK's
column-major order so :func:`repro.spice.linalg.solve_rows_t_into`
factors and solves it in place with one ``dgesv``, the kernel the
batched solver runs per row), ``"sparse"`` (the pattern-compiled CSR
path of :mod:`repro.spice.sparse` — the value array is the frozen
pattern's values, never an O(n²) matrix), or ``"auto"`` (sparse at and
above ``SPARSE_AUTO_THRESHOLD`` unknowns, dense below; the crossover is
calibrated by ``benchmarks/test_sparse_throughput.py``).

**Bit-identity contract.**  The plan accumulates every matrix and RHS
cell in the order of a sequential per-element walk in
:func:`stamping_order` (linear groups by type in circuit order, then
the rest in circuit order) with the textbook companion-model
arithmetic (same expression trees — IEEE addition is not associative,
so order *is* the contract).  ``tests/spice/oracle.py`` keeps that walk
as the test oracle; ``tests/spice/test_stampplan.py`` runs both through
the same Newton loops and asserts ``TransientResult.data`` equality to
the last bit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.spice import linalg
from repro.spice.elements import (Capacitor, CurrentSource, Diode, Resistor,
                                  Switch, VoltageSource)
from repro.spice.sparse import SparseContext
from repro.spice.mna import MnaSystem
from repro.spice.mosfet import _FD_STEP, MosfetElement
from repro.spice.netlist import CircuitElement
from repro.tech.node import Polarity

#: Exact types compiled into the linear base.
_LINEAR_TYPES = (Resistor, Capacitor, VoltageSource, CurrentSource)

#: Exact types compiled to value fillers.
_NONLINEAR_TYPES = (Diode, Switch, MosfetElement)

#: Upper bound on cached linear bases (substep halving creates a new
#: dt per halving; the ladder is bounded, but stay defensive).
_MAX_BASES = 64

#: ``backend="auto"`` picks the sparse path at and above this unknown
#: count.  Calibrated by ``benchmarks/test_sparse_throughput.py``: at
#: n ≈ 64 the dense LAPACK kernel still wins (lower fixed overhead),
#: from n ≈ 256 the pattern-compiled sparse refactor is an order of
#: magnitude faster and the gap widens cubically.
SPARSE_AUTO_THRESHOLD = 128


def resolve_backend(backend: str, size: int) -> str:
    """Resolve a requested backend to ``"dense"`` or ``"sparse"``.

    ``"auto"`` compares ``size`` (MNA unknown count) against
    :data:`SPARSE_AUTO_THRESHOLD` and counts its decision in
    ``spice.sparse.auto.dense`` / ``spice.sparse.auto.sparse``.
    """
    if backend not in ("dense", "sparse", "auto"):
        raise ConfigurationError(
            f"backend must be 'dense', 'sparse' or 'auto', got {backend!r}")
    if backend == "auto":
        choice = "sparse" if size >= SPARSE_AUTO_THRESHOLD else "dense"
        obs.metrics().counter(f"spice.sparse.auto.{choice}").inc()
        return choice
    return backend


def stamping_order(circuit) -> List[CircuitElement]:
    """The canonical element stamping order of every assembly.

    Linear elements grouped by type — resistors, capacitors, voltage
    sources, current sources, each group in circuit order — followed by
    everything else in circuit order.  Grouping is what lets the plan
    pre-accumulate the linear part while keeping per-matrix-cell
    accumulation order (and therefore float rounding) identical to a
    sequential stamp walk.
    """
    groups: Dict[type, List[CircuitElement]] = {t: [] for t in _LINEAR_TYPES}
    rest: List[CircuitElement] = []
    for element in circuit.elements:
        bucket = groups.get(type(element))
        if bucket is not None:
            bucket.append(element)
        else:
            rest.append(element)
    ordered: List[CircuitElement] = []
    for linear_type in _LINEAR_TYPES:
        ordered.extend(groups[linear_type])
    ordered.extend(rest)
    return ordered


@dataclasses.dataclass
class _SolvePoint:
    """What the assembly of every Newton iterate of one point reads."""

    base: np.ndarray       # flat linear base, in value-array layout
    rhs_point: np.ndarray  # linear RHS of the point
    gmin: float
    extra_gmin: float


class StampPlan:
    """One circuit compiled for fast repeated Newton solves."""

    def __init__(self, system: MnaSystem, *, backend: str = "dense",
                 fillers: bool = True) -> None:
        """Compile ``system`` for ``backend``.

        ``fillers=False`` keeps only the scatter geometry, the linear
        part and the source rows, not the per-element filler closures:
        the batched solver evaluates devices with its own group fillers
        and never calls :meth:`solve_iterate` on such a plan.
        """
        backend = resolve_backend(backend, system.size)
        self.system = system
        self.size = system.size
        self._n_nodes = len(system.node_index)
        ground_slot = self.size  # pad slot for gathers/scatters via ground

        self._diag_flat = np.arange(self._n_nodes) * (self.size + 1)

        self._resistors: List[Tuple[int, int, float]] = []
        self._cap_entries: List[Tuple[int, int, float]] = []
        self._vsources: List[Tuple[VoltageSource, int, int, int]] = []
        self._isources: List[Tuple[CurrentSource, int, int]] = []
        nonlinear: List[CircuitElement] = []

        for element in stamping_order(system.circuit):
            kind = type(element)
            if kind is Resistor:
                self._resistors.append((
                    self._idx(element.node_a), self._idx(element.node_b),
                    1.0 / element.resistance))
            elif kind is Capacitor:
                self._cap_entries.append((
                    self._idx(element.node_a), self._idx(element.node_b),
                    element.capacitance))
            elif kind is VoltageSource:
                self._vsources.append((
                    element, system.branch(element.name),
                    self._idx(element.node_p), self._idx(element.node_n)))
            elif kind is CurrentSource:
                self._isources.append((
                    element, self._idx(element.node_from),
                    self._idx(element.node_to)))
            elif kind in _NONLINEAR_TYPES:
                nonlinear.append(element)
            else:
                supported = ", ".join(
                    t.__name__ for t in _LINEAR_TYPES + _NONLINEAR_TYPES)
                raise ConfigurationError(
                    f"{kind.__name__} {element.name!r} is not a supported "
                    f"element type; the solver compiles only {supported}")

        # Nonlinear elements compile to *value fillers*: per iterate
        # each computes its companion-model values (conductances plus
        # the linearisation residue) into one shared list, and the
        # matrix/RHS writes replay through one np.add.at scatter over
        # index/slot/sign arrays frozen at compile time in canonical
        # write order (np.add.at applies unbuffered, in index order, so
        # per-cell accumulation order — and therefore rounding — is
        # identical to a sequential per-element walk).
        self._fillers: List[Callable] = []
        m_writes: List[Tuple[int, int, float]] = []
        r_writes: List[Tuple[int, int, float]] = []
        slot = 0
        for el in nonlinear:
            fill, n_slots, mw, rw = self._compile_fill(el, slot)
            if fillers:
                self._fillers.append(fill)
            m_writes.extend(mw)
            r_writes.extend(rw)
            slot += n_slots
        self._nl_vals = [0.0] * slot
        self._m_idx = np.array([w[0] for w in m_writes], dtype=np.intp)
        self._m_slot = np.array([w[1] for w in m_writes], dtype=np.intp)
        self._m_sign = np.array([w[2] for w in m_writes])
        self._r_idx = np.array([w[0] for w in r_writes], dtype=np.intp)
        self._r_slot = np.array([w[1] for w in r_writes], dtype=np.intp)
        self._r_sign = np.array([w[2] for w in r_writes])

        # Vectorised capacitor gather/scatter indices (ground -> pad slot).
        n_caps = len(self._cap_entries)
        self._cap_ia = np.empty(n_caps, dtype=np.intp)
        self._cap_ib = np.empty(n_caps, dtype=np.intp)
        self._cap_c = np.empty(n_caps)
        rhs_idx = np.empty(2 * n_caps, dtype=np.intp)
        for j, (ia, ib, c) in enumerate(self._cap_entries):
            self._cap_ia[j] = ia if ia >= 0 else ground_slot
            self._cap_ib[j] = ib if ib >= 0 else ground_slot
            self._cap_c[j] = c
            # The history current ieq flows b -> a: -ieq at b, +ieq at
            # a, in that per-capacitor order.
            rhs_idx[2 * j] = ib if ib >= 0 else ground_slot
            rhs_idx[2 * j + 1] = ia if ia >= 0 else ground_slot
        self._cap_rhs_idx = rhs_idx
        # Scratch buffers for _cap_voltages/_point_rhs (overwritten on
        # every call).
        self._xg_pad = np.zeros(self.size + 1)
        self._cap_vals = np.empty(2 * n_caps)

        self._bases: Dict[Tuple[Optional[float], float], np.ndarray] = {}

        # The value array assembly writes, and where the companion
        # scatter and the gmin-stepping diagonal land in it: the dense
        # matrix in LAPACK's column-major order, or the frozen sparse
        # pattern's values.
        self.backend = backend
        self._sparse: Optional[SparseContext] = None
        n = self.size
        if backend == "sparse":
            self._compile_sparse()
            n_values = self._sparse.nnz
        else:
            # Only the dense kernel reads an n x n matrix; a sparse plan
            # never allocates one.  Row-major r*n+c becomes column-major
            # c*n+r: each cell receives the same adds in the same order,
            # only its storage address moves.
            n_values = n * n
            self._m_pos = (self._m_idx % n) * n + self._m_idx // n
            self._diag_pos = self._diag_flat
        # One buffer holds the value array, then the RHS, so a single
        # np.add.at reaches both; the parts are disjoint, so each cell
        # still receives its writes in canonical order.
        self._buf = np.zeros(n_values + n)
        self._values, self._rhs = self._buf[:n_values], self._buf[n_values:]
        self._nl_pos = np.concatenate([self._m_pos, n_values + self._r_idx])
        self._nl_slot = np.concatenate([self._m_slot, self._r_slot])
        self._nl_sign = np.concatenate([self._m_sign, self._r_sign])
        if self._sparse is None:
            # A itself, as a Fortran-ordered view dgesv factors in place.
            self._rows = [(self._values.reshape((n, n), order="F"),
                           self._rhs)]

    def _compile_sparse(self) -> None:
        """Freeze the sparsity pattern and the value-scatter maps."""
        size = self.size
        pattern = {int(flat) for flat in self._m_idx}
        for ia, ib, _g in self._resistors:
            _pattern_couple(pattern, ia, ib, size)
        for ia, ib, _c in self._cap_entries:
            _pattern_couple(pattern, ia, ib, size)
        for _element, br, ip, in_ in self._vsources:
            if ip >= 0:
                pattern.add(ip * size + br)
                pattern.add(br * size + ip)
            if in_ >= 0:
                pattern.add(in_ * size + br)
                pattern.add(br * size + in_)
        # Every node diagonal: extra_gmin (the gmin-stepping rung)
        # writes them all, so they must be structural even when no
        # element stamps one.
        pattern.update(int(flat) for flat in self._diag_flat)
        flat = np.array(sorted(pattern), dtype=np.intp)
        self._sparse = SparseContext(size, flat)
        pos_of = {int(f): pos for pos, f in enumerate(flat)}
        self._m_pos = np.array([pos_of[int(i)] for i in self._m_idx],
                               dtype=np.intp)
        self._diag_pos = np.array(
            [pos_of[int(i)] for i in self._diag_flat], dtype=np.intp)

    # -- compilation -----------------------------------------------------------

    def _idx(self, node: str) -> int:
        return self.system.index(node)

    def _compile_fill(self, element: CircuitElement, slot: int
                      ) -> Tuple[Callable, int,
                                 List[Tuple[int, int, float]],
                                 List[Tuple[int, int, float]]]:
        """Compile one nonlinear element to its value filler.

        Returns ``(fill, n_slots, matrix_writes, rhs_writes)`` where
        ``fill(xl, vals, gmin)`` stores the element's companion values
        into ``vals[slot:slot + n_slots]`` — ``xl`` is the iterate as a
        list with ground's 0.0 appended, so ground's index -1 reads
        that slot — and each write tuple
        ``(flat_index, value_slot, sign)`` is one ``+=``/``-=`` of the
        element's textbook stamp, in its order (``a -= v`` is exactly
        ``a += (-1.0 * v)`` in IEEE arithmetic).
        """
        kind = type(element)
        if kind is Diode:
            return self._compile_diode(element, slot)
        if kind is Switch:
            return self._compile_switch(element, slot)
        return self._compile_mosfet(element, slot)

    def _compile_diode(self, element: Diode, slot: int):
        a, c = self._idx(element.anode), self._idx(element.cathode)
        i_sat, v_t, v_clip = element.i_sat, element.v_t, element.v_clip
        exp = math.exp
        size = self.size
        has_a, has_c = a >= 0, c >= 0
        s_g, s_res = slot, slot + 1

        def fill(xl, vals, gmin):
            v = xl[a] - xl[c]
            # Inlined Diode.current_and_conductance (overflow clamp).
            if v <= v_clip:
                e = exp(v / v_t)
                i = i_sat * (e - 1.0)
                g = i_sat * e / v_t
            else:
                e = exp(v_clip / v_t)
                g = i_sat * e / v_t
                i = i_sat * (e - 1.0) + g * (v - v_clip)
            vals[s_g] = g
            vals[s_res] = i - g * v

        # Conductance g between anode and cathode, then the residue as
        # a current anode -> cathode.
        m_writes = []
        if has_a:
            m_writes.append((a * size + a, s_g, 1.0))
        if has_c:
            m_writes.append((c * size + c, s_g, 1.0))
        if has_a and has_c:
            m_writes.append((a * size + c, s_g, -1.0))
            m_writes.append((c * size + a, s_g, -1.0))
        r_writes = []
        if has_a:
            r_writes.append((a, s_res, -1.0))
        if has_c:
            r_writes.append((c, s_res, 1.0))
        return fill, 2, m_writes, r_writes

    def _compile_switch(self, element: Switch, slot: int):
        a, b = self._idx(element.node_a), self._idx(element.node_b)
        cp, cn = self._idx(element.ctrl_p), self._idx(element.ctrl_n)
        threshold, transition = element.threshold, element.transition
        g_off = element.g_off
        g_span = element.g_on - g_off
        exp = math.exp
        size = self.size
        has_a, has_b = a >= 0, b >= 0
        s_g = slot

        def fill(xl, vals, gmin):
            # Inlined Switch.conductance (clamped logistic).  The full
            # g_off + span*frac expression runs in every branch because
            # g_off + span*1.0 need not round back to g_on exactly.
            arg = ((xl[cp] - xl[cn]) - threshold) / transition
            if arg > 40:
                frac = 1.0
            elif arg < -40:
                frac = 0.0
            else:
                frac = 1.0 / (1.0 + exp(-arg))
            vals[s_g] = g_off + g_span * frac

        m_writes = []  # conductance g between node_a and node_b
        if has_a:
            m_writes.append((a * size + a, s_g, 1.0))
        if has_b:
            m_writes.append((b * size + b, s_g, 1.0))
        if has_a and has_b:
            m_writes.append((a * size + b, s_g, -1.0))
            m_writes.append((b * size + a, s_g, -1.0))
        return fill, 1, m_writes, []

    def _compile_mosfet(self, element: MosfetElement, slot: int):
        d = self._idx(element.drain)
        g_ = self._idx(element.gate)
        s = self._idx(element.source)
        nmos = element.device.polarity is Polarity.NMOS
        (vth0, dibl, alpha, swing, vt_thermal, five_vt,
         vth_at_ioff, sub_scale, drive_width) = _mosfet_constants(element)
        exp = math.exp
        fd = _FD_STEP
        size = self.size
        has_d, has_g, has_s = d >= 0, g_ >= 0, s >= 0
        s_gd, s_gm, s_res = slot, slot + 1, slot + 2

        def fill(xl, vals, gmin):
            vd = xl[d]
            vg = xl[g_]
            vs = xl[s]
            # Direction dispatch of MosfetElement.current for the
            # operating point and the two finite-difference probes.
            # The gate probe shares the operating point's branch and
            # vds (same drain/source terminals, so the same expression
            # with the same operands).
            vdf = vd + fd
            vgf = vg + fd
            if nmos:
                if vd >= vs:
                    vgs0 = vg - vs; vds0 = vd - vs; neg0 = False
                    vgs2 = vgf - vs
                else:
                    vgs0 = vg - vd; vds0 = vs - vd; neg0 = True
                    vgs2 = vgf - vd
                if vdf >= vs:
                    vgs1 = vg - vs; vds1 = vdf - vs; neg1 = False
                else:
                    vgs1 = vg - vdf; vds1 = vs - vdf; neg1 = True
            else:
                if vs >= vd:
                    vgs0 = vs - vg; vds0 = vs - vd; neg0 = True
                    vgs2 = vs - vgf
                else:
                    vgs0 = vd - vg; vds0 = vd - vs; neg0 = False
                    vgs2 = vd - vgf
                if vs >= vdf:
                    vgs1 = vs - vg; vds1 = vs - vdf; neg1 = True
                else:
                    vgs1 = vdf - vg; vds1 = vdf - vs; neg1 = False
            # --- three inlined copies of Mosfet.drain_current with the
            # same expression trees and evaluation order.  The max/min
            # builtins become branches that select the identical float
            # (max(a, b) is "b if b > a else a", NaN included); the
            # body-effect term is dropped because the element always
            # passes vsb=0, where it is exactly zero; the vds<0 guard
            # is dead because the dispatch above always yields
            # vds >= 0 (or NaN on divergent iterates, which follows
            # the same branches as the builtins).  The gate probe has
            # the operating point's vds, so it reuses the vds-only
            # terms (vth, its ioff offset, the short-channel factor):
            # the same expressions on the same operands, so the same
            # bits.
            vth_op = vth0 - dibl * abs(vds0)
            vth_op = vth_op if vth_op > 0.05 else 0.05
            off_op = vth_op - vth_at_ioff
            short_op = vds0 < five_vt
            if short_op:
                sc_op = 1.0 - exp(-vds0 / vt_thermal)
            vod = vgs0 - vth_op
            vgs_c = vth_op if vth_op < vgs0 else vgs0
            i_sub = sub_scale * 10.0 ** ((vgs_c - off_op) / swing)
            if short_op:
                i_sub *= sc_op
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds0 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds0 - vdsat)) + i_sub
                else:
                    ratio = vds0 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i0 = -m if neg0 else m

            vth = vth0 - dibl * abs(vds1)
            vth = vth if vth > 0.05 else 0.05
            vod = vgs1 - vth
            vgs_c = vth if vth < vgs1 else vgs1
            exponent = (vgs_c - (vth - vth_at_ioff)) / swing
            i_sub = sub_scale * 10.0 ** exponent
            if vds1 < five_vt:
                i_sub *= 1.0 - exp(-vds1 / vt_thermal)
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds1 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds1 - vdsat)) + i_sub
                else:
                    ratio = vds1 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i1 = -m if neg1 else m

            vod = vgs2 - vth_op
            vgs_c = vth_op if vth_op < vgs2 else vgs2
            i_sub = sub_scale * 10.0 ** ((vgs_c - off_op) / swing)
            if short_op:
                i_sub *= sc_op
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds0 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds0 - vdsat)) + i_sub
                else:
                    ratio = vds0 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i2 = -m if neg0 else m

            gd = (i1 - i0) / fd
            gm = (i2 - i0) / fd
            # max(gd, 0.0) + gmin, with max() as its exact branch form
            # ("b if b > a else a", NaN included).
            gd = (0.0 if 0.0 > gd else gd) + gmin
            vals[s_gd] = gd
            vals[s_gm] = gm
            i_lin = gd * (vd - vs) + gm * (vg - vs)
            vals[s_res] = i0 - i_lin

        # Conductance gd between drain and source, then the
        # transconductance gm (current gm*(vg - vs) drain -> source)
        # unrolled in (out, in) order, then the residue as a current
        # drain -> source.
        dd, ss = d * size + d, s * size + s
        ds, sd = d * size + s, s * size + d
        dg, sg = d * size + g_, s * size + g_
        m_writes = []
        if has_d:
            m_writes.append((dd, s_gd, 1.0))
        if has_s:
            m_writes.append((ss, s_gd, 1.0))
        if has_d and has_s:
            m_writes.append((ds, s_gd, -1.0))
            m_writes.append((sd, s_gd, -1.0))
        if has_d:
            if has_g:
                m_writes.append((dg, s_gm, 1.0))
            if has_s:
                m_writes.append((ds, s_gm, -1.0))
        if has_s:
            if has_g:
                m_writes.append((sg, s_gm, -1.0))
            m_writes.append((ss, s_gm, 1.0))
        r_writes = []
        if has_d:
            r_writes.append((d, s_res, -1.0))
        if has_s:
            r_writes.append((s, s_res, 1.0))
        return fill, 3, m_writes, r_writes

    # -- linear base -----------------------------------------------------------

    def _base(self, dt: Optional[float], gmin: float) -> np.ndarray:
        """The linear base in value-array layout, cached per key."""
        key = (dt, gmin)
        base = self._bases.get(key)
        if base is None:
            if len(self._bases) >= _MAX_BASES:
                self._bases.pop(next(iter(self._bases)))
            matrix = self._build_base(dt, gmin)
            if self._sparse is not None:
                base = matrix.ravel()[self._sparse.flat]
            else:
                base = matrix.ravel(order="F")  # LAPACK's column-major
            self._bases[key] = base
        return base

    def _build_base(self, dt: Optional[float], gmin: float) -> np.ndarray:
        """Sequentially stamp the linear matrix part, in canonical order.

        Built once per key then block-copied per iterate, so the Python
        loop here pays the sequential accumulation order at compile
        time, not in the hot path.
        """
        m = np.zeros((self.size, self.size))
        for ia, ib, g in self._resistors:
            _add_conductance(m, ia, ib, g)
        for ia, ib, c in self._cap_entries:
            _add_conductance(m, ia, ib, gmin if dt is None else c / dt)
        for _element, br, ip, in_ in self._vsources:
            if ip >= 0:
                m[ip, br] += 1.0
                m[br, ip] += 1.0
            if in_ >= 0:
                m[in_, br] -= 1.0
                m[br, in_] -= 1.0
        return m

    def _cap_voltages(self, x: np.ndarray) -> np.ndarray:
        """Every capacitor's voltage ``v(a) - v(b)`` at ``x``."""
        xg = self._xg_pad  # trailing pad slot stays 0.0 (= ground)
        xg[:-1] = x
        return xg[self._cap_ia] - xg[self._cap_ib]

    def _point_rhs(self, t: float, dt: Optional[float], source_scale: float,
                   x_history: Optional[np.ndarray]) -> np.ndarray:
        """Linear RHS of one solve point (canonical order: C, V, I)."""
        rhs = np.zeros(self.size + 1)  # final slot absorbs ground writes
        if dt is not None and len(self._cap_c):
            ieq = self._cap_c / dt * self._cap_voltages(x_history)
            vals = self._cap_vals
            vals[0::2] = -ieq
            vals[1::2] = ieq
            np.add.at(rhs, self._cap_rhs_idx, vals)
        rhs = rhs[:-1]
        for element, br, _ip, _in in self._vsources:
            rhs[br] += element.waveform(t) * source_scale
        for element, i_from, i_to in self._isources:
            current = element.waveform(t) * source_scale
            if i_from >= 0:
                rhs[i_from] -= current
            if i_to >= 0:
                rhs[i_to] += current
        return rhs

    # -- the per-point / per-iterate API --------------------------------------

    def begin_point(self, *, t: float, dt: Optional[float] = None,
                    x_history: Optional[np.ndarray] = None,
                    gmin: float = 1e-12, extra_gmin: float = 0.0,
                    source_scale: float = 1.0) -> _SolvePoint:
        """Precompute everything fixed across one point's Newton iterates.

        ``dt`` is ``None`` for a DC point; a transient point reads the
        capacitor voltages of ``x_history``, the last accepted solution.
        """
        return _SolvePoint(
            base=self._base(dt, gmin),
            rhs_point=self._point_rhs(t, dt, source_scale, x_history),
            gmin=gmin, extra_gmin=extra_gmin)

    def _assemble(self, point: _SolvePoint,
                  x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble one Newton iterate at ``x`` into ``(values, rhs)``.

        Both are the plan's persistent buffers: the dense matrix flat in
        column-major order (or the sparse pattern values) and the RHS
        vector.
        """
        values, rhs = self._values, self._rhs
        np.copyto(values, point.base)
        np.copyto(rhs, point.rhs_point)
        if self._fillers:
            nl_vals = self._nl_vals
            gmin = point.gmin
            xl = x.tolist()
            xl.append(0.0)  # ground, read through index -1
            for fill in self._fillers:
                fill(xl, nl_vals, gmin)
            v = np.array(nl_vals)
            np.add.at(self._buf, self._nl_pos,
                      v[self._nl_slot] * self._nl_sign)
        if point.extra_gmin > 0.0:
            values[self._diag_pos] += point.extra_gmin
        return values, rhs

    def solve_iterate(self, point: _SolvePoint, x: np.ndarray) -> np.ndarray:
        """Assemble, factor and solve one Newton iterate at ``x``.

        On the dense backend the solution is the plan's RHS buffer,
        overwritten by the next call.
        """
        values, rhs = self._assemble(point, x)
        sparse = self._sparse
        if sparse is None:
            if linalg.solve_rows_t_into(self._rows):
                raise self.system.singular_error()
            return rhs
        try:
            return sparse.solve(sparse.factorize(values), rhs)
        except np.linalg.LinAlgError as exc:
            raise self.system.singular_error() from exc


def _pattern_couple(pattern: set, ia: int, ib: int, size: int) -> None:
    """Add the positions :func:`_add_conductance` writes to ``pattern``."""
    if ia >= 0:
        pattern.add(ia * size + ia)
    if ib >= 0:
        pattern.add(ib * size + ib)
    if ia >= 0 and ib >= 0:
        pattern.add(ia * size + ib)
        pattern.add(ib * size + ia)


def _add_conductance(m: np.ndarray, ia: int, ib: int, g: float) -> None:
    """Stamp conductance ``g`` between two indexes (-1 is ground)."""
    if ia >= 0:
        m[ia, ia] += g
    if ib >= 0:
        m[ib, ib] += g
    if ia >= 0 and ib >= 0:
        m[ia, ib] -= g
        m[ib, ia] -= g


def _mosfet_constants(element: MosfetElement) -> Tuple[float, ...]:
    """Hoist every process constant a mosfet evaluation needs.

    The ``params`` property chain costs two dict lookups per access;
    here it is paid once at compile time.  Shared by
    :meth:`StampPlan._compile_mosfet` and the batched MOSFET group of
    :mod:`repro.spice.batch`.
    """
    device = element.device
    p = device.params
    vt_thermal = device.node.thermal_voltage
    return (p.vth, p.dibl, p.alpha, p.subthreshold_swing,
            vt_thermal, 5 * vt_thermal,
            max(0.05, p.vth - p.dibl * device.node.vdd),
            p.i_off * device.width / device.length_factor,
            (p.k_sat / device.length_factor) * device.width)
