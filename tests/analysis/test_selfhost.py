"""Self-hosting: the repository's own sources and models must satisfy
the analyzers — the same gate CI runs."""

import pathlib

from repro.analysis import Severity, check_targets, lint_paths

REPO = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
EXAMPLES = REPO / "examples"


class TestSelfHosting:
    def test_src_repro_is_lint_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(
            f"{d.location()}: [{d.rule}] {d.message}" for d in findings)

    def test_builtin_models_have_no_errors(self):
        errors = [d for d in check_targets()
                  if d.severity is Severity.ERROR]
        assert errors == [], "\n".join(d.message for d in errors)

    def test_examples_have_no_errors(self):
        errors = [d for d in check_targets([EXAMPLES])
                  if d.severity is Severity.ERROR]
        assert errors == [], "\n".join(d.message for d in errors)

    def test_examples_expose_check_hooks(self):
        hooked = [p for p in sorted(EXAMPLES.glob("*.py"))
                  if "repro_check_targets" in p.read_text()]
        assert len(hooked) >= 3
