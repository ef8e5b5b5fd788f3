"""Kernel semantics: heap ordering, processes, events, error surfacing."""

import pytest

from repro.engine.core import Engine, EngineError


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(100.0)
        return eng.now_us

    assert eng.run(proc()) == 100.0
    assert eng.now_us == 100.0


def test_start_time_offsets_everything():
    eng = Engine(start_us=5000.0)

    def proc():
        yield eng.timeout(10.0)
        return eng.now_us

    assert eng.run(proc()) == 5010.0


def test_sleep_until_past_is_noop():
    eng = Engine(start_us=200.0)

    def proc():
        yield eng.sleep_until(50.0)
        return eng.now_us

    assert eng.run(proc()) == 200.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(EngineError):
        eng.timeout(-1.0)


def test_tie_break_is_schedule_order():
    """Events at the same instant fire in the order they were scheduled —
    the `(time_us, seq)` heap key makes simultaneity deterministic."""
    eng = Engine()
    order = []

    def worker(tag):
        yield eng.timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c", "d"):
        eng.spawn(worker(tag))
    eng.run_until_idle()
    assert order == ["a", "b", "c", "d"]


def test_determinism_identical_runs():
    """The same program replayed on a fresh engine produces the same
    trace — byte-for-byte determinism is what the CI job diffs."""

    def simulate():
        eng = Engine()
        trace = []

        def worker(tag, delay):
            yield eng.timeout(delay)
            trace.append((tag, eng.now_us))
            yield eng.timeout(delay * 2)
            trace.append((tag, eng.now_us))

        for i, delay in enumerate([30.0, 10.0, 10.0, 20.0]):
            eng.spawn(worker(i, delay))
        eng.run_until_idle()
        return trace

    assert simulate() == simulate()


def test_event_delivers_value_to_all_waiters():
    eng = Engine()
    ev = eng.event("go")
    got = []

    def waiter(tag):
        value = yield ev
        got.append((tag, value, eng.now_us))

    def firer():
        yield eng.timeout(40.0)
        ev.succeed("payload")

    eng.spawn(waiter("w1"))
    eng.spawn(waiter("w2"))
    eng.spawn(firer())
    eng.run_until_idle()
    assert got == [("w1", "payload", 40.0), ("w2", "payload", 40.0)]


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event("doomed")

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught:{exc}"

    def firer():
        yield eng.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    proc = eng.spawn(waiter())
    eng.spawn(firer())
    eng.run_until_idle()
    assert proc.value == "caught:boom"


def test_event_fires_once():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(EngineError):
        ev.succeed(2)


def test_waiting_on_already_fired_event_resumes_immediately():
    eng = Engine()
    ev = eng.event()
    ev.succeed(99)

    def waiter():
        value = yield ev
        return value

    assert eng.run(waiter()) == 99


def test_unjoined_process_error_surfaces_from_run_loop():
    eng = Engine()

    def doomed():
        yield eng.timeout(1.0)
        raise ValueError("nobody joined me")

    eng.spawn(doomed())
    with pytest.raises(ValueError, match="nobody joined me"):
        eng.run_until_idle()


def test_unsupported_yield_is_engine_error():
    """A process yields a timeout, a sleep or an event; anything else
    fails it loudly, another process included (processes do not join)."""
    eng = Engine()

    def bad():
        yield 42

    def child():
        yield eng.timeout(1.0)

    def joins():
        yield eng.spawn(child())

    for program in (bad(), joins()):
        with pytest.raises(EngineError, match="unsupported"):
            eng.run(program)


def test_deadlock_detected():
    eng = Engine()

    def stuck():
        yield eng.event("never-fires")

    with pytest.raises(EngineError, match="never completed"):
        eng.run(stuck())


def test_schedule_into_past_clamps_to_now():
    eng = Engine(start_us=100.0)
    seen = []
    eng.schedule(10.0, lambda: seen.append(eng.now_us))
    eng.run_until_idle()
    assert seen == [100.0]


def test_run_until_idle_limit_stops_early():
    eng = Engine()
    hits = []

    def ticker():
        while True:
            yield eng.timeout(10.0)
            hits.append(eng.now_us)

    eng.spawn(ticker())
    eng.run_until_idle(limit_us=35.0)
    assert hits == [10.0, 20.0, 30.0]



def test_close_abandons_pending_processes_and_events():
    """A process parked on an event and one waiting on a timeout are
    both closed (their ``finally`` blocks run), nothing stays scheduled,
    and the engine still runs what is spawned afterwards."""
    eng = Engine()
    closed = []

    def pending(name, waits_on):
        try:
            yield waits_on
        finally:
            closed.append(name)

    def answer():
        yield eng.timeout(1.0)
        return 42

    parked = eng.spawn(pending("parked", eng.event("never-fires")))
    sleeping = eng.spawn(pending("sleeping", eng.timeout(5.0)))
    eng.run_until_idle(limit_us=1.0)
    eng.close()
    assert sorted(closed) == ["parked", "sleeping"]
    assert parked.done and sleeping.done
    assert eng.run_until_idle() == 0.0
    assert eng.run(answer()) == 42
