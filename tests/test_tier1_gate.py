from pathlib import Path

import pytest

from tier1_gate import ROADMAP, problems, read_floor

CRITERION_9 = ("tests.test_acceptance", "test_criterion_09_stability")


def junit(tmp_path, passed: int, failing=(CRITERION_9,), skipped: int = 0) -> Path:
    cases = [f'<testcase classname="tests.test_x" name="test_{k}"/>' for k in range(passed)]
    cases += [
        f'<testcase classname="{cls}" name="{name}"><failure message="boom"/></testcase>'
        for cls, name in failing
    ]
    cases += [
        f'<testcase classname="tests.test_x" name="test_skip_{k}"><skipped/></testcase>'
        for k in range(skipped)
    ]
    path = tmp_path / "tier1.xml"
    path.write_text(f'<testsuites><testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>')
    return path


def test_floor_met_with_only_criterion_9_failing(tmp_path):
    assert problems(junit(tmp_path, 10), floor=10) == []


@pytest.mark.parametrize(
    "kwargs, floor, message",
    [
        ({"passed": 9}, 10, "below the floor"),
        ({"passed": 9, "skipped": 1}, 10, "below the floor"),
        ({"passed": 10, "failing": [CRITERION_9, ("tests.test_x", "test_other")]}, 10, "unexpected"),
        ({"passed": 11, "failing": []}, 10, "did not"),
    ],
)
def test_violations_reported(tmp_path, kwargs, floor, message):
    found = problems(junit(tmp_path, **kwargs), floor=floor)
    assert len(found) == 1 and message in found[0]


def test_roadmap_records_a_floor():
    assert read_floor(ROADMAP.read_text()) > 0
    with pytest.raises(ValueError):
        read_floor("no floor here")
