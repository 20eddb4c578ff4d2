"""Reporters: render lint findings for terminals and machines.

* :func:`render_text` — one ``path:line:col: CODE message`` line per
  finding plus a summary tail; what a human reads in CI logs.
* :func:`render_json` — a stable JSON document (``findings`` list,
  per-code ``counts``, ``checked_files``); what CI annotators and the
  self-lint test consume.  Round-trips through
  :func:`~repro.analysis.framework.finding_from_dict`.
* :func:`render_sarif` — a SARIF 2.1.0 log (one run, the full rule
  catalog in the driver, one result per finding); what code-hosting
  UIs ingest to surface findings as inline annotations.  Like the
  JSON reporter the output is a pure function of the findings, so
  repeated runs over one tree stay byte-identical.
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from typing import List, Optional, Sequence

from repro.analysis.framework import (SYNTAX_ERROR_CODE, Finding,
                                      all_rules, severity_for)

__all__ = ["render_text", "render_json", "render_sarif", "parse_json"]


def render_text(findings: Sequence[Finding], *,
                checked_files: int) -> str:
    """The terminal report: one line per finding, then a summary."""
    lines: List[str] = [f.render() for f in findings]
    if findings:
        counts = _TallyCounter(f.code for f in findings)
        breakdown = ", ".join(f"{code} x{n}"
                              for code, n in sorted(counts.items()))
        lines.append(f"{len(findings)} finding(s) in "
                     f"{checked_files} file(s): {breakdown}")
    else:
        lines.append(f"ok: {checked_files} file(s) clean")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *,
                checked_files: int,
                indent: Optional[int] = None) -> str:
    """The machine report (stable key order)."""
    counts = _TallyCounter(f.code for f in findings)
    payload = {
        "checked_files": checked_files,
        "counts": dict(sorted(counts.items())),
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


#: SARIF pins tool metadata; the version tracks the rule catalog.
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def render_sarif(findings: Sequence[Finding], *,
                 indent: Optional[int] = 2) -> str:
    """A SARIF 2.1.0 log for CI annotation UIs (stable key order)."""
    driver_rules = [{
        "id": SYNTAX_ERROR_CODE,
        "name": "syntax-error",
        "shortDescription": {"text": "the file cannot be parsed"},
        "defaultConfiguration": {"level": "error"},
    }]
    for rl in all_rules():
        driver_rules.append({
            "id": rl.code,
            "name": rl.name,
            "shortDescription": {"text": rl.summary},
            "defaultConfiguration": {"level": rl.severity},
        })
    driver_rules.sort(key=lambda entry: entry["id"])
    results = []
    for f in findings:
        results.append({
            "ruleId": f.code,
            "level": severity_for(f.code),
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": f.line,
                               "startColumn": f.col + 1},
                },
            }],
        })
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "repro-lint",
                "informationUri":
                    "docs/static_analysis.md",
                "rules": driver_rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def parse_json(text: str) -> List[Finding]:
    """Findings back out of a :func:`render_json` document."""
    from repro.analysis.framework import finding_from_dict

    payload = json.loads(text)
    return [finding_from_dict(record) for record in payload["findings"]]
