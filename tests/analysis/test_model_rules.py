"""Golden-diagnostic tests: every model-checker rule fires on a
known-bad circuit or configuration."""

import dataclasses
import textwrap

from repro.analysis import MODEL_RULES, check_circuit, check_python_file
from repro.analysis.model import (check_macro, check_object,
                                  check_refresh_policy, check_targets,
                                  check_tech_node, check_organization)
from repro.core import FastDramDesign
from repro.refresh import LocalizedRefresh
from repro.spice import (Capacitor, Circuit, CurrentSource, Resistor,
                         VoltageSource, dc)
from repro.tech import TechnologyNode
from repro.units import kb, ms


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


class TestCircuitRules:
    def test_m201_empty_circuit(self):
        assert rules_of(check_circuit(Circuit("empty"))) == ["M201"]

    def test_m202_no_ground(self):
        c = Circuit("ungrounded")
        c.add(Resistor("r1", "a", "b", 1e3))
        assert "M202" in rules_of(check_circuit(c))

    def test_m203_current_source_into_nothing(self):
        c = Circuit("float")
        c.add(VoltageSource("v1", "in", "0", dc(1.0)))
        c.add(Resistor("r1", "in", "0", 1e3))
        c.add(CurrentSource("i1", "0", "nowhere", dc(1e-6)))
        findings = [d for d in check_circuit(c) if d.rule == "M203"]
        assert len(findings) == 1
        assert "'nowhere'" in findings[0].message

    def test_m204_dangling_node(self):
        c = Circuit("typo")
        c.add(VoltageSource("v1", "in", "0", dc(1.0)))
        c.add(Resistor("r1", "in", "mid", 1e3))
        c.add(Resistor("r2", "midd", "0", 1e3))  # misspelt
        rules = rules_of(check_circuit(c))
        assert rules.count("M204") == 2  # both halves of the typo

    def test_m205_voltage_source_loop(self):
        c = Circuit("loop")
        c.add(VoltageSource("v1", "a", "0", dc(1.0)))
        c.add(VoltageSource("v2", "a", "0", dc(1.2)))
        c.add(Resistor("r1", "a", "0", 1e3))
        findings = [d for d in check_circuit(c) if d.rule == "M205"]
        assert len(findings) == 1
        assert findings[0].severity.value == "error"

    def test_m206_undamped_dynamic_node(self):
        from repro.spice import MosfetElement
        from repro.tech.node import Polarity, VtFlavor
        from repro.tech.transistor import Mosfet

        node = TechnologyNode.logic_90nm()
        m = Mosfet(node, Polarity.NMOS, VtFlavor.SVT,
                   width=node.width_units(2.0))
        c = Circuit("undamped")
        c.add(VoltageSource("vd", "d", "0", dc(1.2)))
        c.add(VoltageSource("vg", "g", "0", dc(1.2)))
        c.add(MosfetElement("m1", "d", "g", "mid", m))
        c.add(MosfetElement("m2", "mid", "g", "0", m))
        findings = [d for d in check_circuit(c) if d.rule == "M206"]
        assert len(findings) == 1
        assert "'mid'" in findings[0].message

    def test_capacitor_damps_m206(self):
        from repro.spice import MosfetElement
        from repro.tech.node import Polarity, VtFlavor
        from repro.tech.transistor import Mosfet
        from repro.units import fF

        node = TechnologyNode.logic_90nm()
        m = Mosfet(node, Polarity.NMOS, VtFlavor.SVT,
                   width=node.width_units(2.0))
        c = Circuit("damped")
        c.add(VoltageSource("vd", "d", "0", dc(1.2)))
        c.add(VoltageSource("vg", "g", "0", dc(1.2)))
        c.add(MosfetElement("m1", "d", "g", "mid", m))
        c.add(MosfetElement("m2", "mid", "g", "0", m))
        c.add(Capacitor("c1", "mid", "0", 1 * fF))
        assert "M206" not in rules_of(check_circuit(c))

    def test_good_divider_is_clean(self):
        c = Circuit("divider")
        c.add(VoltageSource("v1", "in", "0", dc(1.0)))
        c.add(Resistor("r1", "in", "mid", 1e3))
        c.add(Resistor("r2", "mid", "0", 1e3))
        assert check_circuit(c) == []


class TestConfigRules:
    def test_m208_non_power_of_two_geometry(self):
        macro = FastDramDesign(cells_per_lbl=24).build(96 * kb)
        rules = rules_of(check_organization(macro.organization))
        assert "M208" in rules

    def test_m208_negative_retention_override(self):
        macro = FastDramDesign().build(128 * kb)
        bad = dataclasses.replace(macro, retention_override=-1 * ms)
        errors = [d for d in check_macro(bad)
                  if d.rule == "M208" and d.severity.value == "error"]
        assert len(errors) == 1

    def test_m208_wordline_overdrive_forbidden(self):
        macro = FastDramDesign().build(128 * kb)
        org = macro.organization
        node = dataclasses.replace(org.node, allows_wordline_overdrive=False)
        bad = dataclasses.replace(org, node=node)
        assert org.cell.wordline_voltage > node.vdd  # boosted WL
        errors = [d for d in check_organization(bad)
                  if d.severity.value == "error"]
        assert errors and all(d.rule == "M208" for d in errors)

    def test_m209_saturated_refresh_policy(self):
        policy = LocalizedRefresh(n_blocks=128, rows_per_block=32,
                                  refresh_period_cycles=16)
        (finding,) = check_refresh_policy(policy)
        assert finding.rule == "M209"
        assert finding.severity.value == "error"

    def test_healthy_refresh_policy_is_clean(self):
        policy = LocalizedRefresh(n_blocks=128, rows_per_block=32,
                                  refresh_period_cycles=500_000)
        assert check_refresh_policy(policy) == []

    def test_m210_vth_above_vdd(self):
        node = TechnologyNode.logic_90nm()
        scaled = dataclasses.replace(node, vdd=0.41)
        rules = rules_of(check_tech_node(scaled))
        assert "M210" in rules

    def test_stock_nodes_are_clean(self):
        assert check_tech_node(TechnologyNode.logic_90nm()) == []
        assert check_tech_node(TechnologyNode.dram_90nm()) == []


class TestDispatchAndDiscovery:
    def test_unknown_object_yields_nothing(self):
        assert check_object(object()) == []

    def test_m211_broken_file(self, tmp_path):
        bad = tmp_path / "boom.py"
        bad.write_text("raise RuntimeError('import-time explosion')\n")
        (finding,) = check_python_file(bad)
        assert finding.rule == "M211"
        assert "import-time explosion" in finding.message

    def test_hook_targets_are_checked(self, tmp_path):
        target = tmp_path / "models.py"
        target.write_text(textwrap.dedent("""\
            from repro.spice import Circuit

            def repro_check_targets():
                return [Circuit("hooked-empty")]
            """))
        findings = check_python_file(target)
        assert rules_of(findings) == ["M201"]
        assert "hooked-empty" in findings[0].message

    def test_module_level_instances_discovered(self, tmp_path):
        target = tmp_path / "models.py"
        target.write_text(textwrap.dedent("""\
            from repro.spice import Circuit

            EMPTY = Circuit("module-level-empty")
            """))
        assert rules_of(check_python_file(target)) == ["M201"]

    def test_check_targets_deduplicates(self, tmp_path):
        target = tmp_path / "models.py"
        target.write_text(textwrap.dedent("""\
            from repro.spice import Circuit

            EMPTY = Circuit("dup-empty")

            def repro_check_targets():
                return [Circuit("dup-empty")]
            """))
        findings = check_targets([target], include_defaults=False)
        assert rules_of(findings) == ["M201"]

    def test_builtin_registry_has_no_errors(self):
        findings = check_targets(include_defaults=True)
        assert [d for d in findings if d.severity.value == "error"] == []


class TestRuleCatalogue:
    def test_every_rule_has_a_description(self):
        # M207 is retired, not reused: baselines key findings by rule ID.
        expected = {f"M2{i:02d}" for i in range(1, 13)} - {"M207"}
        assert set(MODEL_RULES) == expected
