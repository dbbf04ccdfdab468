"""Every finding of the builtin suite lint, pinned in order.

``data/lint_findings.json`` records each diagnostic :func:`lint_suite`
emits over all builtin benchmarks as ``(circuit, rule_id, rule_name,
severity, location, message, hint)``, in the order the linter yields them.
A change to the rule set, the rule order or a rule's wording fails here.
Regenerate only for a deliberate change, from the repo root::

    PYTHONPATH=src python tests/analysis/test_lint_golden.py --write-golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis import lint_suite

GOLDEN_PATH = Path(__file__).parent / "data" / "lint_findings.json"


def suite_findings() -> list[list[str]]:
    return [
        [
            name,
            d.rule_id,
            d.rule_name,
            str(d.severity),
            d.location,
            d.message,
            d.hint,
        ]
        for name, report in lint_suite().items()
        for d in report
    ]


def write_golden() -> None:
    rows = ",\n".join(json.dumps(row) for row in suite_findings())
    GOLDEN_PATH.write_text(f"[\n{rows}\n]\n", encoding="utf-8")


def test_suite_findings_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert suite_findings() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: test_lint_golden.py --write-golden")
    write_golden()
