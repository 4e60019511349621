"""The unified rule-ID registry: one namespace across lint (L1xx) and
check (M2xx), with collisions rejected at import."""

import pytest

from repro.analysis.diagnostics import all_rules, register_rules
from repro.analysis.lint import LINT_RULES
from repro.analysis.model import MODEL_RULES


class TestRegistry:
    def test_both_families_registered(self):
        merged = all_rules()
        assert set(LINT_RULES) <= set(merged)
        assert set(MODEL_RULES) <= set(merged)

    def test_no_id_claimed_twice(self):
        assert len(all_rules()) == len(LINT_RULES) + len(MODEL_RULES)

    def test_families_use_disjoint_prefixes(self):
        assert all(rule.startswith("L1") for rule in LINT_RULES)
        assert all(rule.startswith("M2") for rule in MODEL_RULES)

    def test_reregistering_identical_rules_is_idempotent(self):
        # Module reloads (pytest importmode quirks, REPL reloads) must
        # not explode — the same family re-declaring the same summary
        # is a no-op.
        assert register_rules("lint", dict(LINT_RULES)) == LINT_RULES

    def test_conflicting_registration_is_rejected(self):
        taken = next(iter(LINT_RULES))
        with pytest.raises(ValueError, match=taken):
            register_rules("rogue", {taken: "a different meaning"})

    def test_all_rules_is_sorted(self):
        merged = list(all_rules())
        assert merged == sorted(merged)
