"""The scenario table reproduces numbers recorded by an earlier commit.

``golden/scenarios.json`` holds the fingerprint, page count and
simulated end time of each row of :data:`repro.obs.scenarios.SCENARIOS`
at its default seed, as the code produced them before the background
daemons and the live consolidation-policy switch were deleted.  The
other equivalence tests compare two runs of one tree; this one compares
the tree against that record, so "byte-identical to the parent" is
checked, not asserted.

The goldens are generated on Python 3.11, whose ``sum`` adds floats in
order.  Python 3.12's ``sum`` compensates the rounding instead, so a
figure that used it would differ in its last digit there; each row is
also run with ``sum`` replaced by 3.12's algorithm to hold the tree to
the same record on both.

``PYTHONPATH=src:. python tests/perf/test_scenario_goldens.py`` rewrites
the JSON from the code under ``src/``; do that only in a change that
deliberately moves a simulated number, and say which and why.
"""

import builtins
import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.events import recording
from repro.obs.scenarios import SCENARIOS, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "scenarios.json"


def capture(name):
    run = run_scenario(name)
    assert run.violations == []
    return {"fingerprint": run.fingerprint, "pages": run.pages,
            "sim_us": run.sim_us}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_recorded_fingerprint(name):
    golden = json.loads(GOLDEN.read_text())
    assert capture(name) == golden[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_ends_with_no_violation(name):
    """Every row's own checks pass, an open span included: a span leaked
    by an error path once went unseen for many changes."""
    assert run_scenario(name).violations == []


def compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum``: exact ints first, then Neumaier-compensated
    floats (an int in range is added to the float total uncompensated),
    then plain ``+`` from the first item of any other type."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if type(item) is not float:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_rounds_as_python_3_12_does():
    # Each value is what Python 3.12.1's own ``sum`` returns.
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([0.1, 1, 0.1]) == 1.2000000000000002
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_fingerprint_does_not_depend_on_sum_rounding(
    name, monkeypatch
):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert capture(name) == golden[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_reruns_identically_in_one_process(name):
    # Each run builds its nodes afresh: the node-name counter is rewound,
    # so the second run's labels, events and fingerprint match the first.
    logs = []
    for _ in range(2):
        with recording() as recorder:
            run = run_scenario(name)
        logs.append(([e.as_dict() for e in recorder.events()], run))
    (first_events, first), (second_events, second) = logs
    assert first_events and second_events == first_events
    assert second == first


@pytest.mark.parametrize("name", SCENARIOS)
def test_events_records_the_pinned_program(name, capsys):
    golden = json.loads(GOLDEN.read_text())[name]
    assert main(["events", name]) == 0
    assert (
        f"# fingerprint {golden['fingerprint']} pages {golden['pages']} "
        f"sim_us {golden['sim_us']!r}\n"
    ) in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {name: capture(name) for name in SCENARIOS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
