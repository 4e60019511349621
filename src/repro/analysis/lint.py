"""AST-based code linter specialized to this codebase (``repro lint``).

Rules
-----
``L100``  file does not parse (reported, never crashes the run)
``L101``  bare physical-magnitude literal (``11e-15`` instead of
          ``11 * fF``) outside :mod:`repro.units`
``L102``  ``==`` / ``!=`` on floats (literal or ``float``-annotated)
``L103``  parameter named ``*_cap`` / ``*_time`` / ``*_voltage`` /
          ``*_energy`` / ``*_power`` whose docstring does not state units
``L104``  mutable default argument
``L105``  ``repro.obs`` metric/span name breaking the dotted
          ``lower_snake.case`` convention
``L106``  one metric name used with conflicting instrument kinds
          (e.g. both ``counter`` and ``gauge``)
``L108``  structured-event kind (``obs.event(...)`` / ``.emit(...)``)
          breaking the dotted ``lower_snake.case`` convention, or one
          kind emitted with conflicting payload-key signatures across
          the codebase
``L109``  direct dense-solver call (``np.linalg.solve`` /
          ``np.linalg.lu`` and friends) outside ``spice/linalg.py`` —
          every solve must route through the shared kernel layer so
          LAPACK/fallback selection, batching and the sparse backend
          stay in one place
``L110``  iteration over a ``set`` feeding ordered output (``append`` /
          ``write`` / ``yield`` / subscript stores in the loop body, or a
          list/dict comprehension): string hashing varies with
          ``PYTHONHASHSEED``, so the order differs between the stopped
          and the resuming process of a checkpointed run, while a forked
          pool shares its parent's seed and hides it from identity tests

Suppression: a trailing ``# noqa`` comment suppresses every rule on
that line; ``# noqa: L101,L102`` suppresses only those rules.  Findings
accepted wholesale live in the baseline file (see
:class:`~repro.analysis.diagnostics.Baseline`).
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (Diagnostic, Severity,
                                        register_rules)

LINT_RULES: Dict[str, str] = register_rules("lint", {
    "L100": "source file does not parse",
    "L101": "bare physical-magnitude literal; use a repro.units multiplier",
    "L102": "float equality comparison; use a tolerance",
    "L103": "physical parameter without documented units",
    "L104": "mutable default argument",
    "L105": "obs metric/span name violates the naming convention",
    "L106": "metric name used with conflicting instrument kinds",
    "L108": "event kind violates naming or payload-schema discipline",
    "L109": "direct linalg solve outside spice/linalg.py; use the "
            "shared kernel layer",
    "L110": "set iteration order feeds ordered output",
})

# Keyword arguments whose values are solver/algorithm knobs, not
# physical quantities — scientific notation is idiomatic there.
_TOLERANCE_KWARGS = {
    "tol", "xtol", "rtol", "atol", "tolerance", "abs_tol", "rel_tol",
    "gmin", "eps", "target_failure",
}

#: Assignment / loop targets whose bound values are numerical knobs
#: (solver tolerances, gmin ladders), not physical magnitudes.
_TOLERANCE_NAME_RE = re.compile(r"(tol|eps|gmin)", re.IGNORECASE)

#: Solver entry points of the ``numpy.linalg`` / ``scipy.linalg``
#: namespaces.  Calling them directly bypasses the shared kernel layer
#: (:mod:`repro.spice.linalg`), which owns LAPACK-vs-fallback routing,
#: the batched variants and the sparse backend.
_LINALG_SOLVE_NAMES = {
    "solve", "lstsq", "inv", "pinv", "cholesky", "lu", "lu_factor",
    "lu_solve", "solve_triangular",
}
_LINALG_ROOTS = {"np", "numpy", "scipy"}

#: Wrappers that keep the order of their iterable argument (L110).
_ORDER_PRESERVING = {"enumerate", "list", "tuple", "reversed", "iter"}
#: Method names that make a loop body's iteration order observable.
_ORDER_SINKS = {"append", "extend", "appendleft", "write", "writerow",
                "emit", "dump", "dumps", "save", "put", "send"}
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}

_METRIC_KINDS = {"counter", "gauge", "histogram"}
_OBS_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
_OBS_PREFIX_RE = re.compile(r"^[a-z0-9_.]*$")
_SCI_NOTATION_RE = re.compile(r"[0-9.][eE][-+]?[0-9]+$")
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9, ]+))?",
                      re.IGNORECASE)

# Parameter-suffix -> (unit family name, docstring evidence pattern).
_UNIT_FAMILIES: List[Tuple[str, str, re.Pattern]] = [
    ("_cap", "farads",
     re.compile(r"farad|\b[afpnu]?F\b")),
    ("_time", "seconds",
     re.compile(r"second|\b[pnum]?s\b")),
    ("_voltage", "volts",
     re.compile(r"volt|\bm?V\b")),
    ("_energy", "joules",
     re.compile(r"joule|\b[fpnum]?J\b")),
    ("_power", "watts",
     re.compile(r"watt|\b[pnum]?W\b")),
]


class MetricNames:
    """Cross-file registry of statically-known obs metric names."""

    def __init__(self) -> None:
        # name -> kind -> first (path, line) seen
        self.uses: Dict[str, Dict[str, Tuple[str, int]]] = {}

    def record(self, name: str, kind: str, path: str, line: int) -> None:
        kinds = self.uses.setdefault(name, {})
        kinds.setdefault(kind, (path, line))

    def collisions(self) -> List[Diagnostic]:
        found = []
        for name, kinds in sorted(self.uses.items()):
            if len(kinds) < 2:
                continue
            ordered = sorted(kinds.items(), key=lambda kv: kv[1])
            first_kind, (first_path, first_line) = ordered[0]
            for kind, (path, line) in ordered[1:]:
                found.append(Diagnostic(
                    rule="L106", severity=Severity.ERROR,
                    message=(f"metric {name!r} used as {kind} but already "
                             f"registered as {first_kind} at "
                             f"{first_path}:{first_line}"),
                    path=path, line=line,
                    hint="one metric name must map to one instrument kind",
                ))
        return found


class EventKinds:
    """Cross-file registry of statically-known structured-event kinds.

    An event kind is a contract: every emit site must ship the same
    payload keys, or downstream consumers (the Chrome-trace exporter,
    JSONL readers) see a schema that changes per line.  Only emits with
    statically-known keyword payloads are recorded; ``**payload``
    forwarding sites are skipped, not guessed.
    """

    def __init__(self) -> None:
        # kind -> payload-key signature -> first (path, line) seen
        self.uses: Dict[str, Dict[Tuple[str, ...], Tuple[str, int]]] = {}

    def record(self, kind: str, keys: Tuple[str, ...], path: str,
               line: int) -> None:
        signatures = self.uses.setdefault(kind, {})
        signatures.setdefault(keys, (path, line))

    def conflicts(self) -> List[Diagnostic]:
        found = []
        for kind, signatures in sorted(self.uses.items()):
            if len(signatures) < 2:
                continue
            ordered = sorted(signatures.items(), key=lambda kv: kv[1])
            first_keys, (first_path, first_line) = ordered[0]
            for keys, (path, line) in ordered[1:]:
                found.append(Diagnostic(
                    rule="L108", severity=Severity.ERROR,
                    message=(f"event kind {kind!r} emitted with payload "
                             f"keys ({', '.join(keys) or 'none'}) but "
                             f"first emitted with "
                             f"({', '.join(first_keys) or 'none'}) at "
                             f"{first_path}:{first_line}"),
                    path=path, line=line,
                    hint="one event kind must carry one payload schema",
                ))
        return found


def _noqa_rules(line: str) -> Optional[Set[str]]:
    """Rules suppressed on ``line``: empty set = all, None = none."""
    match = _NOQA_RE.search(line)
    if not match:
        return None
    rules = match.group("rules")
    if not rules:
        return set()
    return {r.strip().upper() for r in rules.split(",") if r.strip()}


def _apply_noqa(diagnostics: List[Diagnostic],
                lines: Sequence[str]) -> List[Diagnostic]:
    kept = []
    for diag in diagnostics:
        if diag.line is not None and 1 <= diag.line <= len(lines):
            suppressed = _noqa_rules(lines[diag.line - 1])
            if suppressed is not None and (
                    not suppressed or diag.rule in suppressed):
                continue
        kept.append(diag)
    return kept


def _unit_suggestions(value: float, limit: int = 3) -> Optional[str]:
    """Suggest ``repro.units`` rewrites of a bare magnitude."""
    import repro.units as units
    candidates = []
    for name in dir(units):
        if name.startswith("_") or name in ("bit", "kb", "Mb"):
            continue
        mult = getattr(units, name)
        # Exact sentinel match against module constants is intended here,
        # and the 1e-9 is a ratio-roundness test, not a physical quantity.
        if not isinstance(mult, float) or mult == 1.0 or mult == 0.0:  # noqa: L102
            continue
        ratio = value / mult
        if 1.0 <= abs(ratio) < 1000.0 and abs(ratio - round(ratio, 6)) < 1e-9:  # noqa: L101
            candidates.append(f"{round(ratio, 6):g} * {name}")
    if not candidates:
        return None
    candidates.sort(key=len)
    return "write e.g. " + " or ".join(candidates[:limit])


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor collecting findings for one source file."""

    def __init__(self, path: str, lines: Sequence[str],
                 registry: Optional[MetricNames],
                 event_registry: Optional[EventKinds] = None) -> None:
        self.path = path
        self.lines = lines
        self.registry = registry
        self.event_registry = event_registry
        self.diagnostics: List[Diagnostic] = []
        self.is_units_module = pathlib.Path(path).name == "units.py"
        self.is_linalg_module = pathlib.Path(path).name == "linalg.py"
        # Scope stacks for type-aware float-equality checking.
        self._float_names: List[Set[str]] = [set()]
        self._float_fields: List[Set[str]] = [set()]
        # Names bound to a set in each function scope (L110).
        self._set_names: List[Set[str]] = [set()]
        self._tolerance_values: Set[int] = set()  # id() of exempt nodes

    # -- helpers --------------------------------------------------------------

    def _emit(self, rule: str, severity: Severity, message: str,
              node: ast.AST, hint: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(
            rule=rule, severity=severity, message=message, path=self.path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None), hint=hint))

    def _source_text(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", None)
        col = getattr(node, "col_offset", None)
        end_line = getattr(node, "end_lineno", None)
        end_col = getattr(node, "end_col_offset", None)
        if (line is None or col is None or end_line != line
                or end_col is None or not 1 <= line <= len(self.lines)):
            return ""
        return self.lines[line - 1][col:end_col]

    # -- L101: bare physical-magnitude literals -------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg in _TOLERANCE_KWARGS:
                for child in ast.walk(keyword.value):
                    self._tolerance_values.add(id(child))
        self._check_obs_call(node)
        self._check_event_call(node)
        self._check_linalg_call(node)
        self.generic_visit(node)

    # -- L109: direct linalg solves ---------------------------------------------

    def _check_linalg_call(self, node: ast.Call) -> None:
        """Flag ``np.linalg.solve(...)``-style calls outside the shared
        kernel module ``spice/linalg.py``."""
        if self.is_linalg_module:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _LINALG_SOLVE_NAMES):
            return
        inner = func.value
        if (isinstance(inner, ast.Attribute) and inner.attr == "linalg"
                and isinstance(inner.value, ast.Name)
                and inner.value.id in _LINALG_ROOTS):
            root = f"{inner.value.id}.linalg"
        elif (isinstance(inner, ast.Name)
                and inner.id == "linalg"
                and func.attr in ("lu", "lu_factor", "lu_solve",
                                  "solve_triangular")):
            # ``from scipy import linalg`` spelling of the same calls
            # (the repro.spice.linalg wrappers have distinct names).
            root = "linalg"
        else:
            return
        self._emit(
            "L109", Severity.ERROR,
            f"direct {root}.{func.attr}() call; dense solves must "
            "route through repro.spice.linalg",
            node,
            hint="use solve_rows_t_into (the in-place dgesv every "
                 "solver calls) or lu_solve_dense from repro.spice.linalg")

    def _exempt_tolerance_targets(self, targets, value) -> None:
        """Values bound to tolerance-named targets are numerical knobs."""
        names = [t for t in targets if isinstance(t, ast.Name)]
        if (value is not None and names and len(names) == len(targets)
                and all(_TOLERANCE_NAME_RE.search(n.id) for n in names)):
            for child in ast.walk(value):
                self._tolerance_values.add(id(child))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._exempt_tolerance_targets(node.targets, node.value)
        self._bind_set_names(node.targets, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._exempt_tolerance_targets([node.target], node.iter)
        self._check_set_loop(node)
        self._bind_set_names([node.target], None)
        self.generic_visit(node)

    # -- L110: set iteration order into ordered output -------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        while (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in _ORDER_PRESERVING and node.args):
            node = node.args[0]
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._set_names[-1]
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in ("set", "frozenset")
            return (isinstance(func, ast.Attribute)
                    and func.attr in _SET_METHODS
                    and self._is_set_expr(func.value))
        return False

    def _bind_set_names(self, targets, value: Optional[ast.AST]) -> None:
        is_set = value is not None and self._is_set_expr(value)
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    if is_set and name is target:
                        self._set_names[-1].add(name.id)
                    else:
                        self._set_names[-1].discard(name.id)

    def _report_set_order(self, node: ast.AST, what: str) -> None:
        self._emit(
            "L110", Severity.ERROR,
            f"{what} iterates a set; its order follows string hashing, "
            "which differs from process to process",
            node, hint="iterate sorted(...) instead")

    def _check_set_loop(self, node: ast.For) -> None:
        if not self._is_set_expr(node.iter):
            return
        for child in ast.walk(node):
            if isinstance(child, (ast.Yield, ast.YieldFrom)) or (
                    isinstance(child, ast.Assign) and any(
                        isinstance(t, ast.Subscript) for t in child.targets)
            ) or (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr in _ORDER_SINKS):
                self._report_set_order(node, "a loop feeding ordered output")
                return

    def _visit_ordered_comprehension(self, node) -> None:
        if self._is_set_expr(node.generators[0].iter):
            self._report_set_order(node, "a list/dict comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_ordered_comprehension
    visit_DictComp = _visit_ordered_comprehension

    def visit_Constant(self, node: ast.Constant) -> None:
        if (not self.is_units_module
                and isinstance(node.value, float)
                and id(node) not in self._tolerance_values
                and _SCI_NOTATION_RE.search(self._source_text(node))):
            self._emit(
                "L101", Severity.ERROR,
                f"bare magnitude {self._source_text(node)}; "
                "physical quantities should use repro.units multipliers",
                node, hint=_unit_suggestions(node.value))
        self.generic_visit(node)

    # -- L102: float equality --------------------------------------------------

    @staticmethod
    def _annotation_is_float(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id == "float"
        if isinstance(annotation, ast.Constant):
            return annotation.value == "float"
        return False

    def _is_float_operand(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._float_names)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return any(node.attr in scope for scope in self._float_fields)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            offender = next((o for o in (left, right)
                             if self._is_float_operand(o)), None)
            if offender is not None:
                text = self._source_text(offender) or "operand"
                self._emit(
                    "L102", Severity.ERROR,
                    f"float equality against {text!r}; "
                    "floats accumulate rounding error",
                    node, hint="use math.isclose() or an explicit tolerance")
        self.generic_visit(node)

    # -- L103/L104 + scope management ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        fields = {
            stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and self._annotation_is_float(stmt.annotation)
        }
        self._float_fields.append(fields)
        self.generic_visit(node)
        self._float_fields.pop()

    def _visit_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
                        ) -> None:
        all_args = [*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs]
        self._float_names.append({
            arg.arg for arg in all_args
            if self._annotation_is_float(arg.annotation)
        })
        self._set_names.append(set())
        self._check_unit_docs(node, all_args)
        self._check_mutable_defaults(node)
        self._exempt_tolerance_defaults(node)
        self.generic_visit(node)
        self._float_names.pop()
        self._set_names.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (isinstance(node.target, ast.Name)
                and self._annotation_is_float(node.annotation)):
            self._float_names[-1].add(node.target.id)
        self._exempt_tolerance_targets([node.target], node.value)
        self._bind_set_names([node.target], node.value)
        self.generic_visit(node)

    def _check_unit_docs(self, node, all_args) -> None:
        physical = [
            (arg, family, pattern)
            for arg in all_args if arg.arg not in ("self", "cls")
            for suffix, family, pattern in _UNIT_FAMILIES
            if arg.arg.endswith(suffix)
        ]
        if not physical:
            return
        docstring = ast.get_docstring(node) or ""
        for arg, family, pattern in physical:
            if not pattern.search(docstring):
                self._emit(
                    "L103", Severity.WARNING,
                    f"parameter {arg.arg!r} of {node.name!r} carries a "
                    f"physical magnitude but the docstring never states "
                    f"its units ({family}?)",
                    arg, hint=f"document the unit, e.g. '{arg.arg}: "
                              f"..., {family}'")

    def _exempt_tolerance_defaults(self, node) -> None:
        """Defaults of tolerance-named params are not physical magnitudes."""
        pairs = []
        positional = [*node.args.posonlyargs, *node.args.args]
        if node.args.defaults:
            pairs.extend(zip(positional[-len(node.args.defaults):],
                             node.args.defaults))
        pairs.extend(zip(node.args.kwonlyargs, node.args.kw_defaults))
        for arg, default in pairs:
            if default is not None and arg.arg in _TOLERANCE_KWARGS:
                for child in ast.walk(default):
                    self._tolerance_values.add(id(child))

    def _check_mutable_defaults(self, node) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set"))
            if mutable:
                self._emit(
                    "L104", Severity.ERROR,
                    f"mutable default argument in {node.name!r} is shared "
                    "across calls",
                    default, hint="default to None and create inside")

    # -- L105/L106: obs naming discipline ---------------------------------------

    def _check_obs_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) or not node.args:
            return
        attr = node.func.attr
        is_metric = attr in _METRIC_KINDS
        is_span = (attr == "span"
                   and isinstance(node.func.value, ast.Name)
                   and node.func.value.id in ("obs", "tracer", "self"))
        if not is_metric and not is_span:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            name = first.value
            if not _OBS_NAME_RE.match(name):
                self._emit(
                    "L105", Severity.ERROR,
                    f"obs {attr} name {name!r} is not dotted lower_snake",
                    first, hint="use names like 'refresh.stall_cycles'")
            elif is_metric and self.registry is not None:
                self.registry.record(name, attr, self.path,
                                     first.lineno)
        elif isinstance(first, ast.JoinedStr):
            prefix = "".join(
                part.value for part in first.values
                if isinstance(part, ast.Constant)
                and isinstance(part.value, str))
            if not _OBS_PREFIX_RE.match(prefix):
                self._emit(
                    "L105", Severity.ERROR,
                    f"obs {attr} f-string name has non-conforming literal "
                    f"part {prefix!r}",
                    first, hint="keep literal parts dotted lower_snake")


    # -- L108: structured-event kind discipline ---------------------------------

    def _check_event_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) or not node.args:
            return
        attr = node.func.attr
        is_event = (attr == "event"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs")
        if not is_event and attr != "emit":
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            return
        kind = first.value
        if not _OBS_NAME_RE.match(kind) or "." not in kind:
            self._emit(
                "L108", Severity.ERROR,
                f"event kind {kind!r} is not dotted lower_snake",
                first, hint="use kinds like 'refresh.dropped'")
            return
        if self.event_registry is not None:
            keywords = [kw.arg for kw in node.keywords]
            if None in keywords:  # **payload forwarding: unknown schema
                return
            self.event_registry.record(kind, tuple(sorted(keywords)),
                                       self.path, first.lineno)


def lint_source(source: str, path: str = "<string>",
                registry: Optional[MetricNames] = None,
                event_registry: Optional[EventKinds] = None
                ) -> List[Diagnostic]:
    """Lint one source text; returns findings after ``# noqa`` filtering."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="L100", severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}", path=path,
            line=exc.lineno, column=exc.offset)]
    visitor = _LintVisitor(path, lines, registry, event_registry)
    visitor.visit(tree)
    return _apply_noqa(visitor.diagnostics, lines)


def iter_python_files(paths: Iterable["str | pathlib.Path"]
                      ) -> List[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found.extend(p for p in sorted(path.rglob("*.py"))
                         if "egg-info" not in str(p)
                         and not any(part.startswith(".")
                                     for part in p.parts))
        else:
            found.append(path)
    return found


def lint_paths(paths: Iterable["str | pathlib.Path"]) -> List[Diagnostic]:
    """Lint files and directories; includes cross-file collision checks."""
    registry = MetricNames()
    event_registry = EventKinds()
    diagnostics: List[Diagnostic] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text()
        except OSError as exc:
            diagnostics.append(Diagnostic(
                rule="L100", severity=Severity.ERROR,
                message=f"cannot read file: {exc}", path=str(path)))
            continue
        diagnostics.extend(lint_source(source, str(path), registry,
                                       event_registry))
    diagnostics.extend(registry.collisions())
    diagnostics.extend(event_registry.conflicts())
    return diagnostics
