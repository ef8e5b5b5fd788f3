"""The scenario table reproduces numbers recorded by an earlier commit.

``golden/scenarios.json`` holds the fingerprint, page count and
simulated end time of each row of :data:`repro.obs.scenarios.SCENARIOS`
at its default seed, as the code produced them before the background
daemons and the live consolidation-policy switch were deleted.  The
other equivalence tests compare two runs of one tree; this one compares
the tree against that record, so "byte-identical to the parent" is
checked, not asserted.

``PYTHONPATH=src:. python tests/perf/test_scenario_goldens.py`` rewrites
the JSON from the code under ``src/``; do that only in a change that
deliberately moves a simulated number, and say which and why.
"""

import json
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
