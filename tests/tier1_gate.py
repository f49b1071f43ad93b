"""Tier-1 floor gate: check a junit report of the whole suite.

    python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tests/tier1_gate.py tier1.xml

Acceptance criterion 9 fails on purpose and stays failing, unedited; the
suite's exit status is therefore always 1 and cannot be the gate.  This
script passes (exit 0) only when criterion 9 is the one failing or erroring
test and at least as many tests passed as the floor recorded in ROADMAP.md.
Otherwise it prints one line per problem to stderr and exits 1.
"""

from __future__ import annotations

import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_09_stability"}
ROADMAP = Path(__file__).resolve().parent.parent / "ROADMAP.md"
_FLOOR = re.compile(r"\*\*Tier-1 floor:\*\* (\d+) passed")


def read_floor(roadmap_text: str) -> int:
    match = _FLOOR.search(roadmap_text)
    if match is None:
        raise ValueError("no '**Tier-1 floor:** N passed' line in the roadmap")
    return int(match.group(1))


def problems(junit_path, floor: int) -> list[str]:
    """Everything that keeps the report from meeting the floor; empty when it does."""
    passed, failing = 0, set()
    for case in ET.parse(junit_path).getroot().iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            failing.add(test_id)
        elif case.find("skipped") is None:
            passed += 1
    found = [f"unexpected failure: {t}" for t in sorted(failing - EXPECTED_FAILURES)]
    found += [f"expected to fail but did not: {t}" for t in sorted(EXPECTED_FAILURES - failing)]
    if passed < floor:
        found.append(f"{passed} passed, below the floor of {floor}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: tier1_gate.py JUNIT_XML", file=sys.stderr)
        return 2
    found = problems(argv[0], read_floor(ROADMAP.read_text()))
    for line in found:
        print(f"tier1 gate: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
