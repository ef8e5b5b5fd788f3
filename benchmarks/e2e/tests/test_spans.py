"""Span self-time arithmetic on a fake clock: nesting, generator resume
segments, the raw span sample, and installation over a class tree."""

import sys
import types

import pytest

import spans
from spans import SpanRecorder, install, uninstall, wrap_function


@pytest.fixture
def clock(monkeypatch):
    now = [0]
    monkeypatch.setattr(spans, "_now", lambda: now[0])

    def tick(ns):
        now[0] += ns

    return tick


def _self_ns(rec):
    return {(r["layer"], r["name"]): (r["self_ns"], r["calls"])
            for r in rec.rollup()}


def test_nested_self_time(clock):
    rec = SpanRecorder()
    rec.enabled = True
    rec.op_id = 0  # raw spans kept; the next tests also run without

    def inner():
        clock(7)

    inner = wrap_function(rec, inner, ("b", "inner"))

    def outer():
        clock(10)
        inner()
        clock(5)
        inner()

    outer = wrap_function(rec, outer, ("a", "outer"))
    outer()
    assert _self_ns(rec) == {("a", "outer"): (15, 1), ("b", "inner"): (14, 2)}
    by_name = {}
    for span in rec.raw_spans():
        by_name.setdefault(span["name"], []).append(span)
    (root,) = by_name["outer"]
    assert root["parent"] == 0 and root["end_ns"] - root["start_ns"] == 29
    assert [s["parent"] for s in by_name["inner"]] == [root["id"]] * 2
    assert all(s["op"] == 0 for s in rec.raw_spans())


#: Both span paths: -1 keeps no raw spans (the inlined path), 0 keeps them.
BOTH_PATHS = pytest.mark.parametrize("op_id", [-1, 0])


@BOTH_PATHS
def test_generator_is_spanned_per_resume_segment(clock, op_id):
    rec = SpanRecorder()
    rec.enabled = True
    rec.op_id = op_id

    def proc():
        clock(3)
        got = yield "first"
        clock(4)
        return got * 2

    proc = wrap_function(rec, proc, ("engine", "proc"))
    gen = proc()
    assert next(gen) == "first"
    clock(1000)  # parked on the heap: nobody's time
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert _self_ns(rec) == {("engine", "proc"): (7, 2)}


@BOTH_PATHS
def test_yield_from_nests_segments_and_passes_exceptions(clock, op_id):
    rec = SpanRecorder()
    rec.enabled = True
    rec.op_id = op_id

    def inner():
        clock(2)
        try:
            yield "wait"
        except KeyError:
            clock(3)
            return "recovered"
        return "plain"

    inner = wrap_function(rec, inner, ("b", "inner"))

    def outer():
        clock(1)
        result = yield from inner()
        clock(4)
        return result

    outer = wrap_function(rec, outer, ("a", "outer"))
    gen = outer()
    assert next(gen) == "wait"
    clock(500)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("boom"))
    assert stop.value.value == "recovered"
    assert _self_ns(rec) == {("a", "outer"): (5, 2), ("b", "inner"): (5, 2)}


def test_disabled_recorder_records_nothing(clock):
    rec = SpanRecorder()

    def work():
        clock(5)
        return "done"

    wrapped = wrap_function(rec, work, ("a", "work"))
    assert wrapped() == "done"
    assert rec.rollup() == []


def test_sizer_counts_bytes(clock):
    rec = SpanRecorder()
    rec.enabled = True
    encode = wrap_function(rec, lambda text: text.encode(), ("net", "encode"),
                           lambda _args, result: len(result))
    encode("abcd")
    encode("xy")
    (row,) = rec.rollup()
    assert (row["calls"], row["bytes"]) == (2, 6)


def test_count_only_counts_calls_and_takes_no_time(clock):
    rec = SpanRecorder()
    rec.enabled = True
    tiny = wrap_function(rec, lambda: clock(2), ("db", "tiny"),
                         spans.COUNT_ONLY)

    def outer():
        clock(1)
        tiny()
        tiny()

    wrap_function(rec, outer, ("db", "outer"))()
    # the callable's time stays with the span around it
    assert _self_ns(rec) == {("db", "outer"): (5, 1), ("db", "tiny"): (0, 2)}


def test_only_the_first_ops_are_kept_raw(clock):
    rec = SpanRecorder(keep_ops=2)
    rec.enabled = True
    work = wrap_function(rec, lambda: clock(1), ("a", "work"))
    for op in range(5):
        rec.op_id = op
        work()
    assert [s["op"] for s in rec.raw_spans()] == [0, 1]
    assert _self_ns(rec) == {("a", "work"): (5, 5)}  # the roll-up is exact


def test_install_wraps_overrides_and_fails_on_stale_rows(clock):
    module = types.ModuleType("bench_fake_module")

    class Device:
        def trim(self):
            clock(1)

        def read(self):
            clock(2)

    class Csd(Device):
        def trim(self):  # an override must not escape the span
            clock(10)

    def helper():
        clock(100)

    module.Device, module.Csd, module.helper = Device, Csd, helper
    sys.modules[module.__name__] = module
    try:
        rec = SpanRecorder()
        undo = install(rec, [
            ("csd", module.__name__, "Device.trim", None),
            ("csd", module.__name__, "Device.read", None),
            ("net", module.__name__, "helper", None),
        ])
        rec.enabled = True
        Csd().trim()
        Device().trim()
        Csd().read()
        module.helper()
        assert _self_ns(rec) == {
            ("csd", "Csd.trim"): (10, 1),
            ("csd", "Device.trim"): (1, 1),
            ("csd", "Device.read"): (2, 1),
            ("net", "helper"): (100, 1),
        }
        uninstall(undo)
        assert not hasattr(Device.trim, "__bench_span__")
        assert module.helper is helper
        with pytest.raises(AttributeError):
            install(rec, [("csd", module.__name__, "Device.gone", None)])
    finally:
        del sys.modules[module.__name__]


def test_wrapper_table_resolves_against_the_program():
    """Every row of the real table names something that exists."""
    from layers import WRAP_TABLE

    rec = SpanRecorder()
    undo = install(rec, WRAP_TABLE)
    try:
        assert len(undo) >= len(WRAP_TABLE) - 2  # aliases share a wrapper
    finally:
        uninstall(undo)
