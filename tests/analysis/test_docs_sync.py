"""Docs stay honest: every implemented rule ID must appear in the
README rule table, and every rule ID the README mentions must exist.
CI runs this file in the static-analysis job."""

import pathlib
import re

from repro.analysis.diagnostics import all_rules

REPO = pathlib.Path(__file__).resolve().parents[2]
README = REPO / "README.md"

_RULE_ID = re.compile(r"\b(L1\d\d|M2\d\d)\b")


def readme_rule_ids():
    return set(_RULE_ID.findall(README.read_text()))


class TestDocsSync:
    def test_every_implemented_rule_is_documented(self):
        missing = sorted(set(all_rules()) - readme_rule_ids())
        assert not missing, (
            f"rule IDs implemented but absent from README.md: {missing}")

    def test_every_documented_rule_is_implemented(self):
        phantom = sorted(readme_rule_ids() - set(all_rules()))
        assert not phantom, (
            f"rule IDs mentioned in README.md but not implemented: "
            f"{phantom}")
