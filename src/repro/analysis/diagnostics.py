"""Shared diagnostics core for the static analyzers.

A :class:`Diagnostic` is one finding: a stable rule ID (``L101``,
``M203``, ...), a severity, a location (file/line or a model object
path), the message, and an optional fix hint.  The CLI renders lists of
them as text or JSON; a :class:`Baseline` file records accepted findings
so ``repro lint`` / ``repro check`` can gate CI on *new* findings only.

Baseline fingerprints deliberately exclude the line number: moving code
around must not invalidate a suppression, only changing the finding
itself (rule, file, message) does.

This module also owns the cross-analyzer **rule registry**: every
analyzer family (lint L1xx, check M2xx) registers its rule
table through :func:`register_rules`, which rejects any rule ID already
claimed — a new rule can never silently reuse (and thereby re-key the
baselines of) an existing one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
from typing import Dict, Iterable, List, Optional, Sequence


# Rule ID -> (family, summary); populated via register_rules() by each
# analyzer module at import time.
_RULE_REGISTRY: Dict[str, "tuple[str, str]"] = {}


def register_rules(family: str, rules: Dict[str, str]) -> Dict[str, str]:
    """Claim ``rules`` (ID -> summary) for one analyzer ``family``.

    Returns ``rules`` unchanged so modules can write
    ``LINT_RULES = register_rules("lint", {...})``.  Re-registering an
    identical entry is a no-op (modules may be reloaded); claiming an
    ID another family or summary already holds raises ``ValueError``.
    """
    for rule_id, summary in rules.items():
        existing = _RULE_REGISTRY.get(rule_id)
        if existing is not None and existing != (family, summary):
            raise ValueError(
                f"rule ID {rule_id} already registered by family "
                f"'{existing[0]}' ({existing[1]!r}); every rule ID must "
                f"be unique across analyzers")
        _RULE_REGISTRY[rule_id] = (family, summary)
    return rules


def all_rules() -> Dict[str, "tuple[str, str]"]:
    """Every registered rule: ID -> (family, summary), sorted by ID."""
    return dict(sorted(_RULE_REGISTRY.items()))


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the CLI (exit code 1); ``WARNING`` findings
    are reported but pass unless ``--strict``; ``INFO`` never gates.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of an analyzer.

    ``path`` is a source file for lint findings or a dotted model path
    (``circuit:localblock-read-0``) for model findings; ``line`` is
    meaningful only for lint findings.
    """

    rule: str
    severity: Severity
    message: str
    path: str = ""
    line: Optional[int] = None
    column: Optional[int] = None
    hint: Optional[str] = None

    def location(self) -> str:
        """Human-readable ``path:line:col`` prefix."""
        parts = [self.path or "<unknown>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        return ":".join(parts)

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (line-independent)."""
        key = f"{self.rule}|{self.path}|{self.message}"
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "fingerprint": self.fingerprint(),
        }
        if self.line is not None:
            data["line"] = self.line
        if self.column is not None:
            data["column"] = self.column
        if self.hint is not None:
            data["hint"] = self.hint
        return data


def sort_key(diag: Diagnostic) -> tuple:
    return (diag.path, diag.line or 0, diag.column or 0, diag.rule)


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Render findings as one text line each, plus a tally line."""
    lines: List[str] = []
    for diag in sorted(diagnostics, key=sort_key):
        lines.append(f"{diag.location()}: {diag.severity.value} "
                     f"[{diag.rule}] {diag.message}")
        if diag.hint:
            lines.append(f"    hint: {diag.hint}")
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    lines.append(f"{len(diagnostics)} finding(s): "
                 f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def diagnostics_to_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Render findings as a JSON document (stable ordering)."""
    ordered = sorted(diagnostics, key=sort_key)
    return json.dumps({
        "version": 1,
        "count": len(ordered),
        "errors": sum(1 for d in ordered if d.severity is Severity.ERROR),
        "warnings": sum(1 for d in ordered
                        if d.severity is Severity.WARNING),
        "diagnostics": [d.to_dict() for d in ordered],
    }, indent=2)


class Baseline:
    """A set of accepted findings, persisted as JSON.

    Workflow: run the analyzer once with ``--write-baseline FILE`` to
    accept the current findings, commit the file, and subsequent runs
    with ``--baseline FILE`` (or the auto-discovered repo default) only
    report findings *not* in the set.
    """

    DEFAULT_NAME = ".repro-lint-baseline.json"

    def __init__(self, entries: Optional[Dict[str, Dict[str, str]]] = None
                 ) -> None:
        self.entries: Dict[str, Dict[str, str]] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, diag: Diagnostic) -> bool:
        return diag.fingerprint() in self.entries

    def filter(self, diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
        """The findings not suppressed by this baseline."""
        return [d for d in diagnostics if d not in self]

    # -- persistence ---------------------------------------------------------

    @classmethod
    def from_diagnostics(cls, diagnostics: Iterable[Diagnostic]) -> "Baseline":
        entries = {
            d.fingerprint(): {"rule": d.rule, "path": d.path,
                              "message": d.message}
            for d in diagnostics
        }
        return cls(entries)

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "Baseline":
        data = json.loads(pathlib.Path(path).read_text())
        if data.get("version") != 1:
            raise ValueError(f"unsupported baseline version in {path}")
        return cls(data.get("suppressions", {}))

    def save(self, path: "str | pathlib.Path") -> pathlib.Path:
        path = pathlib.Path(path)
        ordered = dict(sorted(self.entries.items()))
        path.write_text(json.dumps(
            {"version": 1, "suppressions": ordered}, indent=2,
            sort_keys=True) + "\n")
        return path

    @classmethod
    def discover(cls, start: "str | pathlib.Path") -> "Optional[Baseline]":
        """Find and load the repo-default baseline near ``start``.

        Walks from ``start`` (a file or directory being analyzed) up
        through its parents looking for :data:`DEFAULT_NAME`, stopping
        at the repository root — the first directory holding ``.git``
        or ``pyproject.toml`` — so analyzing a checkout never picks up
        a stray baseline from ``$HOME`` or ``/``.
        """
        here = pathlib.Path(start).resolve()
        if here.is_file():
            here = here.parent
        for directory in (here, *here.parents):
            candidate = directory / cls.DEFAULT_NAME
            if candidate.is_file():
                return cls.load(candidate)
            if ((directory / ".git").exists()
                    or (directory / "pyproject.toml").is_file()):
                return None  # repository root: stop walking up
        return None
