"""Golden-diagnostic tests: every lint rule fires on a known-bad snippet."""

import textwrap

from repro.analysis import LINT_RULES, lint_paths, lint_source
from repro.analysis.lint import MetricNames


def rules_of(source, path="src/example.py"):
    return [d.rule for d in lint_source(textwrap.dedent(source), path)]


class TestL100Parse:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert [d.rule for d in findings] == ["L100"]
        assert findings[0].severity.value == "error"


class TestL101BareMagnitude:
    def test_scientific_float_fires(self):
        assert rules_of("cap = 11e-15\n") == ["L101"]

    def test_plain_decimal_passes(self):
        assert rules_of("ratio = 0.38\n") == []

    def test_units_module_is_exempt(self):
        assert rules_of("fF = 1e-15\n", "src/repro/units.py") == []

    def test_units_multiplier_passes(self):
        assert rules_of(
            "from repro.units import fF\ncap = 11 * fF\n") == []

    def test_tolerance_kwarg_exempt(self):
        assert rules_of("solve(x, tol=1e-9)\n") == []

    def test_tolerance_default_exempt(self):
        assert rules_of("def f(x, rtol=1e-6):\n    return x\n") == []

    def test_tolerance_named_assignment_exempt(self):
        assert rules_of("_V_TOL = 1e-9\n") == []

    def test_tolerance_named_loop_exempt(self):
        assert rules_of(
            "for gmin in (1e-3, 1e-6):\n    pass\n") == []

    def test_hint_suggests_units_rewrite(self):
        (finding,) = lint_source("cap = 11e-15\n", "src/example.py")
        assert "fF" in (finding.hint or "")

    def test_noqa_suppresses(self):
        assert rules_of("k = 8.6e-5  # noqa: L101\n") == []

    def test_bare_noqa_suppresses_all(self):
        assert rules_of("k = 8.6e-5  # noqa\n") == []


class TestL102FloatEquality:
    def test_float_literal_comparison_fires(self):
        assert "L102" in rules_of("ok = x == 1.5\n")

    def test_float_annotated_param_fires(self):
        assert "L102" in rules_of(
            "def f(v: float):\n    return v == other\n")

    def test_float_annotated_self_field_fires(self):
        assert "L102" in rules_of("""\
            class Row:
                dram: float
                def bad(self):
                    return self.dram == 0
            """)

    def test_int_comparison_passes(self):
        assert rules_of("ok = n == 3\n") == []

    def test_inequality_operators_pass(self):
        assert rules_of("ok = x <= 1.5\n") == []


class TestL103UnitDocs:
    def test_cap_param_without_units_warns(self):
        assert rules_of("""\
            def step(bitline_cap):
                '''Signal step.'''
            """) == ["L103"]

    def test_documented_farads_passes(self):
        assert rules_of("""\
            def step(bitline_cap):
                '''Signal step; bitline_cap in farads.'''
            """) == []

    def test_voltage_family_recognised(self):
        assert rules_of("""\
            def drive(wordline_voltage):
                '''Overdrive level, volts.'''
            """) == []

    def test_finding_is_warning(self):
        (finding,) = lint_source(textwrap.dedent("""\
            def f(row_energy):
                '''Refresh cost.'''
            """), "x.py")
        assert finding.severity.value == "warning"


class TestL104MutableDefault:
    def test_list_literal_default_fires(self):
        assert rules_of("def f(items=[]):\n    return items\n") == ["L104"]

    def test_dict_call_default_fires(self):
        assert rules_of("def f(opts=dict()):\n    return opts\n") == ["L104"]

    def test_none_default_passes(self):
        assert rules_of("def f(items=None):\n    return items\n") == []


class TestL105ObsNaming:
    def test_camel_case_metric_fires(self):
        assert rules_of(
            "obs.counter('RefreshStalls', 1)\n") == ["L105"]

    def test_dotted_lower_snake_passes(self):
        assert rules_of(
            "obs.counter('refresh.stall_cycles', 1)\n") == []

    def test_span_names_checked(self):
        assert rules_of("with obs.span('Bad Name'):\n    pass\n") == ["L105"]

    def test_fstring_literal_prefix_checked(self):
        assert rules_of(
            "obs.span(f'Policy.{name}')\n") == ["L105"]


class TestL106KindCollisions:
    def test_conflicting_kinds_across_files_fire(self, tmp_path):
        (tmp_path / "a.py").write_text("obs.counter('cache.hits', 1)\n")
        (tmp_path / "b.py").write_text("obs.gauge('cache.hits', 2.0)\n")
        findings = lint_paths([tmp_path])
        assert [d.rule for d in findings] == ["L106"]
        assert "cache.hits" in findings[0].message

    def test_consistent_kind_passes(self, tmp_path):
        (tmp_path / "a.py").write_text("obs.counter('cache.hits', 1)\n")
        (tmp_path / "b.py").write_text("obs.counter('cache.hits', 2)\n")
        assert lint_paths([tmp_path]) == []

    def test_registry_records_first_use(self):
        registry = MetricNames()
        lint_source("obs.counter('a.b', 1)\n", "x.py", registry)
        assert "counter" in registry.uses["a.b"]


class TestL109DirectLinalgSolve:
    def test_np_linalg_solve_fires(self):
        assert rules_of(
            "import numpy as np\nx = np.linalg.solve(a, b)\n") == ["L109"]

    def test_numpy_spelling_fires(self):
        assert rules_of(
            "import numpy\nx = numpy.linalg.inv(a)\n") == ["L109"]

    def test_scipy_lu_factor_fires(self):
        assert rules_of(
            "import scipy\nf = scipy.linalg.lu_factor(a)\n") == ["L109"]

    def test_from_scipy_import_linalg_fires(self):
        assert rules_of(
            "from scipy import linalg\nf = linalg.lu_solve(lu, b)\n"
        ) == ["L109"]

    def test_linalg_module_is_exempt(self):
        assert rules_of(
            "import numpy as np\nx = np.linalg.solve(a, b)\n",
            "src/repro/spice/linalg.py") == []

    def test_fixed_counterpart_passes(self):
        assert rules_of(
            "from repro.spice.linalg import lu_solve_dense\n"
            "x = lu_solve_dense(a, b)\n") == []

    def test_linalgerror_reference_passes(self):
        assert rules_of(
            "import numpy as np\n"
            "def f():\n"
            "    raise np.linalg.LinAlgError('singular')\n") == []

    def test_severity_is_error(self):
        (finding,) = lint_source(
            "import numpy as np\nx = np.linalg.solve(a, b)\n",
            "src/example.py")
        assert finding.severity.value == "error"
        assert "repro.spice.linalg" in (finding.hint or "")

    def test_noqa_suppresses(self):
        assert rules_of(
            "import numpy as np\n"
            "x = np.linalg.solve(a, b)  # noqa: L109\n") == []


class TestL110SetOrder:
    def test_loop_over_set_into_list_fires(self):
        assert rules_of(
            "def merge(results):\n"
            "    out = []\n"
            "    for key in set(results):\n"
            "        out.append(key)\n"
            "    return out\n") == ["L110"]

    def test_set_difference_into_checkpoint_payload_fires(self):
        # The shape of a resumed sweep listing its missing keys.
        assert rules_of(
            "def fold(state, done, keys):\n"
            "    missing = set(keys) - set(done)\n"
            "    for key in missing:\n"
            "        state['failed'].append(key)\n") == ["L110"]

    def test_comprehensions_over_sets_fire(self):
        assert rules_of(
            "def f(items, done):\n"
            "    keys = {k for k, _v in items}\n"
            "    a = {k: done[k] for k in keys}\n"
            "    b = [k for k in list(keys | {'x'})]\n") == ["L110", "L110"]

    def test_sorted_iteration_passes(self):
        assert rules_of(
            "def merge(results):\n"
            "    out = []\n"
            "    for key in sorted(set(results)):\n"
            "        out.append(key)\n"
            "    keys = sorted({k for k in results})\n"
            "    return out, [k for k in keys]\n") == []

    def test_unordered_use_of_a_set_passes(self):
        # Membership, len() and order-free folds never expose set order.
        assert rules_of(
            "def f(done, keys):\n"
            "    seen = set(done)\n"
            "    total = 0\n"
            "    for key in seen:\n"
            "        total += len(key)\n"
            "    return [k for k in keys if k in seen], len(seen)\n") == []

    def test_rebound_name_is_no_longer_a_set(self):
        assert rules_of(
            "def f(done):\n"
            "    keys = set(done)\n"
            "    keys = sorted(keys)\n"
            "    return [k for k in keys]\n") == []

    def test_set_names_are_function_local(self):
        assert rules_of(
            "def f(done):\n"
            "    keys = set(done)\n"
            "    return len(keys)\n"
            "def g(keys):\n"
            "    return [k for k in keys]\n") == []

    def test_severity_is_error(self):
        (finding,) = lint_source(
            "out = [k for k in {'a', 'b'}]\n", "src/example.py")
        assert finding.severity.value == "error"
        assert "sorted" in (finding.hint or "")

    def test_noqa_suppresses(self):
        assert rules_of(
            "out = [k for k in {'a', 'b'}]  # noqa: L110\n") == []


class TestRuleCatalogue:
    def test_every_rule_has_a_description(self):
        assert set(LINT_RULES) == {f"L1{i:02d}" for i in range(11)} - {"L107"}
