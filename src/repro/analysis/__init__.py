"""repro.analysis — static analysis: linter and model checker.

Two analyzer families share one diagnostics core:

* :mod:`repro.analysis.lint` — AST rules specialized to this codebase
  (``repro lint``, L1xx): bare physical-magnitude literals that should
  use the :mod:`repro.units` multipliers, float equality comparisons,
  physical parameters without documented units, mutable default
  arguments, and :mod:`repro.obs` metric/span naming discipline.
* :mod:`repro.analysis.model` — pre-solve checks of ``Circuit`` graphs
  and macro/refresh/tech configurations (``repro check``, M2xx):
  floating nodes, voltage-source loops, dangling subckt ports, undamped
  dynamic nodes, and physical-range validation — the defect classes
  that otherwise surface as a singular MNA matrix deep inside a solve.

Both emit :class:`~repro.analysis.diagnostics.Diagnostic` records with
a stable rule ID, severity, location and fix hint; text and JSON
renderers, the cross-family rule-ID registry, and the baseline file for
suppressing accepted findings live in
:mod:`repro.analysis.diagnostics`.
"""

from repro.analysis.diagnostics import (
    Baseline,
    Diagnostic,
    Severity,
    all_rules,
    diagnostics_to_json,
    format_diagnostics,
    register_rules,
)
from repro.analysis.lint import LINT_RULES, lint_paths, lint_source
from repro.analysis.model import (
    MODEL_RULES,
    check_circuit,
    check_organization,
    check_python_file,
    check_refresh_policy,
    check_scope,
    check_targets,
    check_tech_node,
    default_targets,
)

__all__ = [
    "Baseline", "Diagnostic", "Severity",
    "format_diagnostics", "diagnostics_to_json",
    "register_rules", "all_rules",
    "LINT_RULES", "lint_paths", "lint_source",
    "MODEL_RULES", "check_circuit", "check_organization",
    "check_python_file", "check_refresh_policy", "check_scope",
    "check_targets", "check_tech_node", "default_targets",
]
