"""The pinned scenarios reproduce numbers recorded by an earlier commit.

``golden/scenarios.json`` holds the quick-profile fingerprint, page count
and simulated end time of each scenario in :mod:`tests.perf.oracle`, as
the code produced them before the background daemons and the live
consolidation-policy switch were deleted.  The other equivalence tests
compare two runs of one tree; this one compares the tree against that
record, so "byte-identical to the parent" is checked, not asserted.

``PYTHONPATH=src:. python tests/perf/test_scenario_goldens.py`` rewrites
the JSON from the code under ``src/``; do that only in a change that
deliberately moves a simulated number, and say which and why.
"""

import json
from pathlib import Path

import pytest

from tests.perf import oracle

GOLDEN = Path(__file__).parent / "golden" / "scenarios.json"

SCENARIOS = (
    oracle.scenario_sysbench8,
    oracle.scenario_chaos_smoke,
    oracle.scenario_cluster_ingest,
)


def capture(scenario):
    run = oracle.run_scenario(scenario)
    return {"fingerprint": run.fingerprint, "pages": run.pages,
            "sim_us": run.sim_us}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_scenario_matches_recorded_fingerprint(scenario):
    golden = json.loads(GOLDEN.read_text())
    assert capture(scenario) == golden[scenario.__name__]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {s.__name__: capture(s) for s in SCENARIOS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
