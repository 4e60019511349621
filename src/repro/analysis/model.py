"""Pre-solve static analyzer for circuits and model configs (``repro check``).

The MNA solver only discovers a malformed circuit at solve time, as a
singular matrix; macro/refresh/tech misconfigurations surface even
later, as silently wrong figures.  This module checks the *structure*
before anything is solved:

``M201``  circuit has no elements
``M202``  circuit has no ground connection
``M203``  floating node: no element stamps a constraint, conductance or
          capacitance onto it (guaranteed singular matrix)
``M204``  dangling node: exactly one connection (probable netlist typo)
``M205``  loop of voltage sources (singular matrix)
``M206``  undamped dynamic node: conductive paths only through nonlinear
          devices, no capacitance — goes near-singular when devices cut off
``M208``  macro/organization out of physical range (retention,
          power-of-two geometry, voltages vs node limits)
``M209``  refresh policy saturates (or nearly saturates) its victim scope
``M210``  technology-node parameter outside its plausible envelope
``M211``  check target failed to load
``M212``  fault/resilience config physically inconsistent (fault plan
          coordinates outside the matrix, duplicate faults, repair or
          budget parameters out of range)

:func:`check_circuit` is also the engine behind
:meth:`repro.spice.netlist.Circuit.validate`.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.diagnostics import (Diagnostic, Severity,
                                        register_rules)

MODEL_RULES: Dict[str, str] = register_rules("check", {
    "M201": "circuit has no elements",
    "M202": "circuit has no ground connection",
    "M203": "floating node (nothing stamps it; singular matrix)",
    "M204": "dangling node (single connection)",
    "M205": "voltage-source loop (singular matrix)",
    "M206": "undamped dynamic node (nonlinear-only paths, no capacitance)",
    "M208": "macro/organization parameter out of physical range",
    "M209": "refresh policy saturates its victim scope",
    "M210": "technology-node parameter outside plausible envelope",
    "M211": "check target failed to load",
    "M212": "fault/resilience configuration physically inconsistent",
})

# The rules Circuit.validate() has always enforced by raising; kept as
# the non-strict raise set so legacy callers see unchanged behaviour.
LEGACY_VALIDATE_RULES = ("M201", "M202")


def _diag(rule: str, severity: Severity, message: str, path: str,
          hint: Optional[str] = None) -> Diagnostic:
    return Diagnostic(rule=rule, severity=severity, message=message,
                      path=path, hint=hint)


# ---------------------------------------------------------------------------
# Circuit graph checks
# ---------------------------------------------------------------------------

def check_circuit(circuit) -> List[Diagnostic]:
    """Structural checks of a :class:`repro.spice.netlist.Circuit`."""
    from repro.spice.netlist import GROUND

    path = f"circuit:{circuit.name}"
    elements = circuit.elements
    if not elements:
        return [_diag("M201", Severity.ERROR,
                      f"circuit {circuit.name!r} has no elements", path)]
    diagnostics: List[Diagnostic] = []

    # node -> [(element, role)] over every terminal connection.
    connections: Dict[str, List[Tuple[Any, str]]] = {}
    for element in elements:
        for node, role in element.terminal_roles():
            connections.setdefault(node, []).append((element, role))

    if GROUND not in connections:
        diagnostics.append(_diag(
            "M202", Severity.ERROR,
            f"circuit {circuit.name!r} has no ground connection", path,
            hint="tie at least one terminal to node '0'"))

    for node, conns in connections.items():
        if node == GROUND:
            continue
        roles = {role for _el, role in conns}
        names = sorted({el.name for el, _role in conns})
        if not roles & {"conductive", "capacitive", "constraint"}:
            diagnostics.append(_diag(
                "M203", Severity.ERROR,
                f"node {node!r} is floating: only sensed or driven by "
                f"current sources ({', '.join(names)}); the MNA matrix "
                "is singular", path,
                hint="add a conductive path, capacitor or voltage source"))
            continue
        if len(conns) == 1 and conns[0][1] != "capacitive":
            diagnostics.append(_diag(
                "M204", Severity.WARNING,
                f"node {node!r} has a single connection "
                f"({names[0]}); probable netlist typo", path,
                hint="check the node name for a misspelling"))
        conductive = [(el, role) for el, role in conns
                      if role == "conductive"]
        if ("constraint" not in roles and "capacitive" not in roles
                and conductive
                and all(el.is_nonlinear() for el, _role in conductive)):
            diagnostics.append(_diag(
                "M206", Severity.WARNING,
                f"node {node!r} has zero capacitance and only nonlinear "
                f"conductive paths ({', '.join(names)}); the matrix goes "
                "near-singular when the devices cut off", path,
                hint="add the node's parasitic capacitance explicitly"))

    diagnostics.extend(_voltage_source_loops(circuit, path))
    return diagnostics


def _voltage_source_loops(circuit, path: str) -> List[Diagnostic]:
    """Union-find over voltage-source edges; a closing edge is a loop."""
    parent: Dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    found = []
    for element in circuit.elements:
        constrained = [node for node, role in element.terminal_roles()
                       if role == "constraint"]
        if len(constrained) != 2:
            continue
        root_a, root_b = find(constrained[0]), find(constrained[1])
        if root_a == root_b:
            found.append(_diag(
                "M205", Severity.ERROR,
                f"voltage source {element.name!r} closes a loop of "
                f"voltage sources through nodes "
                f"{constrained[0]!r}-{constrained[1]!r}; the MNA matrix "
                "is singular", path,
                hint="break the loop with a series resistance"))
            continue
        parent[root_a] = root_b
    return found


# ---------------------------------------------------------------------------
# Configuration checks
# ---------------------------------------------------------------------------

def _is_power_of_two(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


def check_organization(org) -> List[Diagnostic]:
    """Physical-range checks of an ``ArrayOrganization``."""
    path = f"organization:{org.total_bits}b"
    diagnostics = []
    if not _is_power_of_two(org.cells_per_lbl):
        diagnostics.append(_diag(
            "M208", Severity.WARNING,
            f"cells_per_lbl={org.cells_per_lbl} is not a power of two; "
            "the row decoder wastes address space", path,
            hint="use 8, 16, 32, ... cells per local bitline"))
    if not _is_power_of_two(org.word_bits):
        diagnostics.append(_diag(
            "M208", Severity.WARNING,
            f"word_bits={org.word_bits} is not a power of two", path))
    node, cell = org.node, org.cell
    if cell.wordline_voltage > node.vdd_max:
        diagnostics.append(_diag(
            "M208", Severity.ERROR,
            f"cell word-line voltage {cell.wordline_voltage:.2f} V exceeds "
            f"the node reliability limit vdd_max={node.vdd_max:.2f} V",
            path, hint="lower the overdrive or use a node that allows it"))
    elif (cell.wordline_voltage > node.vdd
          and not node.allows_wordline_overdrive):
        diagnostics.append(_diag(
            "M208", Severity.ERROR,
            f"cell word-line voltage {cell.wordline_voltage:.2f} V "
            f"overdrives vdd={node.vdd:.2f} V but node {node.name!r} "
            "forbids word-line overdrive", path))
    if cell.stored_high > node.vdd_max:
        diagnostics.append(_diag(
            "M208", Severity.ERROR,
            f"stored-high level {cell.stored_high:.2f} V exceeds "
            f"vdd_max={node.vdd_max:.2f} V", path))
    return diagnostics


def check_macro(macro) -> List[Diagnostic]:
    """Checks of an assembled ``MacroDesign`` (organization + retention)."""
    diagnostics = check_organization(macro.organization)
    path = f"macro:{macro.organization.total_bits}b"
    override = macro.retention_override
    if override is not None and override <= 0:
        diagnostics.append(_diag(
            "M208", Severity.ERROR,
            f"retention_override={override!r} s must be positive", path,
            hint="pass the worst-case retention in seconds, e.g. 1e-3"))
    return diagnostics


def check_refresh_policy(policy) -> List[Diagnostic]:
    """Saturation checks of a ``RefreshPolicy``."""
    path = f"refresh:{type(policy).__name__}"
    utilisation = policy.utilisation()
    if utilisation >= 1.0:
        return [_diag(
            "M209", Severity.ERROR,
            f"refresh period {policy.refresh_period_cycles} cycles cannot "
            f"cover {policy.total_rows} rows x "
            f"{policy.refresh_duration_cycles} cycles: the victim scope "
            "refreshes back-to-back and never serves accesses", path,
            hint="raise the refresh period or shrink the organization")]
    if utilisation > 0.5:
        return [_diag(
            "M209", Severity.WARNING,
            f"refresh occupies {100 * utilisation:.0f}% of the victim "
            "scope; access latency degrades sharply", path)]
    return []


def check_tech_node(node) -> List[Diagnostic]:
    """Plausibility checks of a ``TechnologyNode``."""
    path = f"tech:{node.name}"
    diagnostics = []
    if not 200.0 <= node.temperature <= 450.0:
        diagnostics.append(_diag(
            "M210", Severity.WARNING,
            f"temperature {node.temperature:.0f} K is outside the "
            "calibrated 200-450 K envelope", path))
    if not 0.4 <= node.vdd <= 2.5:
        diagnostics.append(_diag(
            "M210", Severity.WARNING,
            f"vdd={node.vdd:.2f} V is outside the 0.4-2.5 V envelope the "
            "device cards were calibrated for", path))
    for (polarity, flavor), params in sorted(
            node.transistors.items(),
            key=lambda item: (item[0][0].value, item[0][1].value)):
        if params.vth >= node.vdd:
            diagnostics.append(_diag(
                "M210", Severity.WARNING,
                f"{polarity.value}/{flavor.value} vth={params.vth:.2f} V "
                f">= vdd={node.vdd:.2f} V: the device never turns on "
                "in strong inversion", path))
    return diagnostics


def check_fault_plan(plan) -> List[Diagnostic]:
    """Physical-consistency checks of a ``FaultPlan`` (rule M212).

    The plan dataclass validates only types and signs so a questionable
    config can be loaded and linted; this rule owns the physics.
    """
    path = f"faults:seed={plan.seed}"
    diagnostics = []
    if len(plan.weak_cells) > plan.total_rows:
        diagnostics.append(_diag(
            "M212", Severity.ERROR,
            f"{len(plan.weak_cells)} weak cells exceed the matrix's "
            f"{plan.total_rows} rows (weak-cell fraction "
            f"{plan.weak_cell_fraction:.2f} > 1)", path,
            hint="a row hosts at most one weakest cell; shrink the plan"))

    seen_weak = set()
    for cell in plan.weak_cells:
        where = f"weak cell ({cell.block}, {cell.row})"
        if not (0 <= cell.block < plan.n_blocks
                and 0 <= cell.row < plan.rows_per_block):
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"{where} lies outside the {plan.n_blocks} x "
                f"{plan.rows_per_block} matrix", path))
        if cell.retention_time <= 0:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"{where} has non-positive retention "
                f"{cell.retention_time!r} s", path))
        if (cell.block, cell.row) in seen_weak:
            diagnostics.append(_diag(
                "M212", Severity.WARNING,
                f"duplicate {where}; only the weakest matters", path))
        seen_weak.add((cell.block, cell.row))

    seen_stuck = set()
    for stuck in plan.stuck_bits:
        where = f"stuck bit ({stuck.block}, {stuck.row}, {stuck.bit})"
        if not (0 <= stuck.block < plan.n_blocks
                and 0 <= stuck.row < plan.rows_per_block):
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"{where} lies outside the matrix", path))
        if not 0 <= stuck.bit < plan.word_bits:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"{where} exceeds the {plan.word_bits}-bit word", path))
        if stuck.stuck_value not in (0, 1):
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"{where} sticks to {stuck.stuck_value!r}, not 0/1", path))
        key = (stuck.block, stuck.row, stuck.bit)
        if key in seen_stuck:
            diagnostics.append(_diag(
                "M212", Severity.WARNING,
                f"duplicate {where}", path))
        seen_stuck.add(key)

    for outlier in plan.sa_outliers:
        if not 0 <= outlier.block < plan.n_blocks:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"SA outlier block {outlier.block} outside the matrix",
                path))
        if outlier.offset_multiplier < 1.0:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"SA outlier on block {outlier.block} has multiplier "
                f"{outlier.offset_multiplier:.3g} < 1: an outlier cannot "
                "shrink the required differential", path,
                hint="offset multipliers are >= 1 in any physical plan"))

    seen_rows = set()
    for fault in plan.refresh_faults:
        if not 0 <= fault.row < plan.total_rows:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"refresh fault on row {fault.row} outside the "
                f"{plan.total_rows}-row schedule", path))
        if fault.kind == "late" and fault.delay_cycles <= 0:
            diagnostics.append(_diag(
                "M212", Severity.ERROR,
                f"late refresh on row {fault.row} with delay "
                f"{fault.delay_cycles} cycles; a late refresh needs a "
                "positive delay", path))
        if fault.row in seen_rows:
            diagnostics.append(_diag(
                "M212", Severity.WARNING,
                f"row {fault.row} carries more than one refresh fault",
                path, hint="a dead driver cannot also be late"))
        seen_rows.add(fault.row)
    return diagnostics


def check_repair_model(repair, plan=None) -> List[Diagnostic]:
    """Range checks of a ``RepairModel`` (rule M212).

    With a ``plan``, also flags repair capacity exceeding the spare
    rows the plan's blocks can physically hold.
    """
    path = "faults:repair"
    diagnostics = []
    if repair.spare_rows_per_block < 0:
        diagnostics.append(_diag(
            "M212", Severity.ERROR,
            f"spare_rows_per_block={repair.spare_rows_per_block} is "
            "negative", path))
    if repair.correctable_bits < 0:
        diagnostics.append(_diag(
            "M212", Severity.ERROR,
            f"correctable_bits={repair.correctable_bits} is negative",
            path))
    if repair.retention_guard < 1.0:
        diagnostics.append(_diag(
            "M212", Severity.ERROR,
            f"retention_guard={repair.retention_guard:.3g} < 1 refreshes "
            "slower than the weakest cell retains", path,
            hint="the guard must be >= 1 (refresh faster than decay)"))
    if plan is not None and repair.spare_rows_per_block > plan.rows_per_block:
        diagnostics.append(_diag(
            "M212", Severity.ERROR,
            f"spare_rows_per_block={repair.spare_rows_per_block} exceeds "
            f"the block's {plan.rows_per_block} rows: the repair capacity "
            "is larger than the rows it could replace", path))
    return diagnostics


def check_run_budget(budget) -> List[Diagnostic]:
    """Range checks of a sweep ``RunBudget`` (rule M212)."""
    path = "checkpoint:budget"
    diagnostics = []
    if budget.max_seconds is not None and budget.max_seconds <= 0:
        diagnostics.append(_diag(
            "M212", Severity.WARNING,
            f"max_seconds={budget.max_seconds!r} stops the sweep before "
            "the first item", path,
            hint="use None for unlimited, a positive ceiling otherwise"))
    if budget.max_failures is not None and budget.max_failures <= 0:
        diagnostics.append(_diag(
            "M212", Severity.WARNING,
            f"max_failures={budget.max_failures!r} aborts on the first "
            "failure it was meant to tolerate", path))
    return diagnostics


# ---------------------------------------------------------------------------
# Target dispatch and discovery
# ---------------------------------------------------------------------------

def check_object(obj, label: str = "") -> List[Diagnostic]:
    """Dispatch one model object to its checker; [] for unknown types."""
    from repro.array.macro import MacroDesign
    from repro.array.organization import ArrayOrganization
    from repro.checkpoint import RunBudget
    from repro.faults.plan import FaultPlan
    from repro.faults.repair import RepairModel
    from repro.refresh.controller import RefreshPolicy
    from repro.spice.netlist import Circuit
    from repro.tech.node import TechnologyNode

    if isinstance(obj, FaultPlan):
        return check_fault_plan(obj)
    if isinstance(obj, RepairModel):
        return check_repair_model(obj)
    if isinstance(obj, RunBudget):
        return check_run_budget(obj)
    if isinstance(obj, Circuit):
        return check_circuit(obj)
    if isinstance(obj, MacroDesign):
        return check_macro(obj)
    if isinstance(obj, ArrayOrganization):
        return check_organization(obj)
    if isinstance(obj, RefreshPolicy):
        return check_refresh_policy(obj)
    if isinstance(obj, TechnologyNode):
        return check_tech_node(obj)
    return []


_CHECK_HOOK = "repro_check_targets"


def check_python_file(path: "str | pathlib.Path") -> List[Diagnostic]:
    """Import a Python file and check every model object it exposes.

    Discovers module-level :class:`Circuit` / organization / macro /
    refresh-policy / tech-node instances, plus everything returned by an
    optional module-level ``repro_check_targets()`` hook.  A file that
    fails to import is itself a finding (``M211``), not a crash.
    """
    path = pathlib.Path(path)
    module_name = f"_repro_check_{path.stem}_{abs(hash(str(path))) % 10**8}"
    try:
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            raise ImportError(f"cannot build an import spec for {path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            sys.modules.pop(module_name, None)
    except BaseException as exc:  # noqa - a check target may raise anything
        return [_diag(
            "M211", Severity.ERROR,
            f"{path}: failed to load: {type(exc).__name__}: {exc}",
            str(path), hint="the file must import cleanly to be checked")]

    diagnostics: List[Diagnostic] = []
    targets: List[Any] = [
        value for name, value in sorted(vars(module).items())
        if not name.startswith("_")
    ]
    hook = getattr(module, _CHECK_HOOK, None)
    if callable(hook):
        try:
            targets.extend(hook())
        except Exception as exc:
            diagnostics.append(_diag(
                "M211", Severity.ERROR,
                f"{path}: {_CHECK_HOOK}() raised "
                f"{type(exc).__name__}: {exc}", str(path)))
    for target in targets:
        diagnostics.extend(check_object(target))
    return diagnostics


def default_targets() -> List[Tuple[str, Any]]:
    """The library's own canonical models, for self-hosted checking."""
    from repro.core.fastdram import FastDramDesign
    from repro.refresh.controller import LocalizedRefresh, MonoblockRefresh
    from repro.sramref.model import SramBaselineDesign
    from repro.tech.node import TechnologyNode
    from repro.units import kb

    targets: List[Tuple[str, Any]] = [
        ("tech:logic", TechnologyNode.logic_90nm()),
        ("tech:dram", TechnologyNode.dram_90nm()),
    ]
    for technology in ("dram", "scratchpad"):
        macro = FastDramDesign(technology=technology).build(128 * kb)
        targets.append((f"macro:fastdram-{technology}", macro))
    targets.append(("macro:sram-baseline",
                    SramBaselineDesign().build(128 * kb)))
    period = int(1e-3 * 500e6)  # noqa: L101 - 1 ms retention at 500 MHz
    for cls in (MonoblockRefresh, LocalizedRefresh):
        targets.append((f"refresh:{cls.__name__}",
                        cls(n_blocks=128, rows_per_block=32,
                            refresh_period_cycles=period)))
    from repro.array.localblock import build_localblock_read_circuit
    from repro.cells.dram1t1c import Dram1t1cCell
    cell = Dram1t1cCell.scratchpad()
    for stored in (0, 1):
        targets.append((f"circuit:localblock-read-{stored}",
                        build_localblock_read_circuit(cell,
                                                      stored_value=stored)))
    targets.append(("circuit:localblock-refresh",
                    build_localblock_read_circuit(cell, refresh_only=True)))
    return targets


def check_targets(paths: Iterable["str | pathlib.Path"] = (),
                  include_defaults: bool = True) -> List[Diagnostic]:
    """Check the builtin registry plus any Python files/directories."""
    from repro.analysis.lint import iter_python_files

    diagnostics: List[Diagnostic] = []
    if include_defaults:
        for _label, target in default_targets():
            diagnostics.extend(check_object(target))
    for path in iter_python_files(paths):
        diagnostics.extend(check_python_file(path))
    # The same model often reaches the checker through several routes
    # (builtin registry, module globals, check hooks); report each
    # structural defect once.
    seen, unique = set(), []
    for diagnostic in diagnostics:
        key = diagnostic.fingerprint()
        if key not in seen:
            seen.add(key)
            unique.append(diagnostic)
    return unique
