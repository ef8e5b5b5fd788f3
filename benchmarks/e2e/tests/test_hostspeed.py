"""The host-speed reference: its arithmetic, and that no change to the
program under test can move it."""

import subprocess
import sys

import hostspeed

from conftest import E2E


def test_speed_is_the_reference_over_the_mean_of_the_two_probes():
    ref = hostspeed.REFERENCE_NS
    assert hostspeed.speed(ref, ref) == 1.0
    assert hostspeed.speed(2 * ref, 2 * ref) == 0.5
    assert hostspeed.speed(ref, 3 * ref) == 0.5


def test_probe_runs_nothing_of_the_program():
    code = (
        "import sys, hostspeed\n"
        "assert hostspeed.probe() > 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=E2E, check=True)
