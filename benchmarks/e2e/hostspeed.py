"""How fast the host is right now, from a fixed reference loop.

The shared VM this benchmark runs on does not have one speed.  Something
outside it (another tenant on the same cores; no steal time is
accounted) slows *everything* by about 1.6x — a plain Python loop, the
codec, the socket leg alike — in spells that last from a fraction of a
second to several minutes.  Two sets of ten runs of the same code then
differ by more than any useful bound, whichever statistic a run reports:
a spell that outlasts a run cannot be seen from inside the run's own
wall-clock numbers.

So the harness runs ``probe()`` — a few milliseconds of pure-Python work
that touches nothing of the program under test — between the timed
batches and around every set-up, and reports host time in *reference
seconds*: wall seconds times the host's speed over that stretch, where
speed 1.0 is a host that runs the probe in ``REFERENCE_NS``.  The raw
wall-clock figures stay in every run's details.
"""

from __future__ import annotations

import time

#: The probe's time on the machine the bounds were set on, when nothing
#: disturbs it.  It only fixes the unit: on that machine, quiet, a
#: reference second is a wall second.
REFERENCE_NS = 3_700_000

_BUFFER = bytes(range(256)) * 64
_STEPS = 24_000

_now = time.perf_counter_ns


def probe() -> int:
    """Nanoseconds the reference loop took just now.  The loop has the
    shape of the program's hot code (slice a buffer, look a key up in a
    dict, integer arithmetic) but shares none of it, so no change to the
    program can move it."""
    start = _now()
    table: dict = {}
    acc = 0
    buf = _BUFFER
    for i in range(_STEPS):
        key = buf[i:i + 4]
        j = table.get(key)
        if j is not None:
            acc += i - j
        table[key] = i
    return _now() - start


def speed(before_ns: int, after_ns: int) -> float:
    """Host speed over a stretch, from the probes at its two ends
    (1.0 = the reference host, 0.6 = a slow spell)."""
    return REFERENCE_NS / ((before_ns + after_ns) / 2.0)
