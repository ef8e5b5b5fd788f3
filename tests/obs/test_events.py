"""The flight recorder: ring, sampling, filters, dumps, activation."""

import json

import pytest

from repro.obs.events import (
    CHANNELS,
    FlightRecorder,
    parse_sample_spec,
    recorder_active,
    recording,
)


def _fill(rec, n, channel="io", kind="page_write"):
    for i in range(n):
        rec.emit(float(i), channel, kind, seq=i)


def test_emit_and_query_roundtrip():
    rec = FlightRecorder()
    rec.emit(10.0, "io", "page_write", page=3, latency_us=42.5)
    rec.emit(20.0, "gc", "relocated", device="d0")
    assert len(rec.events()) == 2
    (ev,) = rec.events(channel="io")
    assert ev.kind == "page_write"
    assert ev.fields == {"page": 3, "latency_us": 42.5}
    assert rec.events(channel="gc")[0].t_us == 20.0


def test_kind_is_a_legal_field_name():
    # scrub/fault events carry a ``kind=`` payload field; the emit
    # signature is positional-only so this must not collide.
    rec = FlightRecorder()
    rec.emit(1.0, "scrub", "detected", kind="bit_flip", page=7)
    assert rec.events()[0].fields["kind"] == "bit_flip"


def test_ring_eviction_is_counted_per_channel():
    rec = FlightRecorder(capacity=8)
    _fill(rec, 12)
    assert len(rec.events()) == 8
    assert rec.dropped == {"io": 4}
    # Oldest events fell off: the ring holds seqs 4..11.
    assert rec.events()[0].fields["seq"] == 4


def test_sampling_keeps_one_in_n_deterministically():
    rec = FlightRecorder(sample={"io": 4})
    _fill(rec, 12)
    kept = [ev.fields["seq"] for ev in rec.events()]
    assert kept == [0, 4, 8]
    assert rec.sampled_out == {"io": 9}
    assert rec.emitted == {"io": 3}


def test_sampling_zero_mutes_a_channel():
    rec = FlightRecorder(sample={"io": 0})
    _fill(rec, 5)
    assert rec.events() == []
    assert rec.sampled_out == {"io": 5}


def test_event_filters_compose():
    rec = FlightRecorder()
    for i in range(10):
        rec.emit(float(i * 10), "io" if i % 2 else "gc", "read", seq=i)
    assert len(rec.events(channel="io")) == 5
    assert [e.fields["seq"] for e in rec.events(channel="gc", limit=2)] == [
        6, 8,
    ]


def test_summary_is_sorted_and_complete():
    rec = FlightRecorder(capacity=2, sample={"gc": 2})
    _fill(rec, 3, channel="io")
    _fill(rec, 3, channel="gc")
    summary = rec.summary()
    assert list(summary) == sorted(summary)
    assert summary["gc"]["sampled_out"] == 1
    assert summary["io"]["dropped"] >= 1


def test_jsonl_dump_roundtrips(tmp_path):
    rec = FlightRecorder()
    rec.emit(1.5, "io", "page_write", page=1)
    rec.emit(2.5, "fault", "injected", kind="bit_flip", device="n0:data")
    path = str(tmp_path / "events.jsonl")
    rec.dump_jsonl(path)
    lines = [json.loads(l) for l in open(path)]
    assert lines[0] == {
        "t_us": 1.5, "channel": "io", "kind": "page_write",
        "fields": {"page": 1},
    }
    # A payload field named ``kind`` stays under ``fields``.
    assert lines[1]["kind"] == "injected"
    assert lines[1]["fields"]["kind"] == "bit_flip"
    loaded = FlightRecorder.load(path)
    assert [e.as_dict() for e in loaded.events()] == [
        e.as_dict() for e in rec.events()
    ]


def test_dumps_are_byte_deterministic(tmp_path):
    dumps = []
    for trial in range(2):
        rec = FlightRecorder()
        for i in range(50):
            rec.emit(i * 1.5, CHANNELS[i % len(CHANNELS)], "k", v=i)
        path = str(tmp_path / f"d{trial}.jsonl")
        rec.dump_jsonl(path)
        dumps.append(open(path, "rb").read())
    assert dumps[0] == dumps[1]


def test_chaos_dump_replays_every_event_unchanged(tmp_path):
    # Fault and scrub events carry a ``kind=`` payload field; a reload
    # must render each event exactly as the live run did.
    from repro.obs.scenarios import run_scenario

    with recording() as live:
        run_scenario("chaos")
    path = str(tmp_path / "chaos.jsonl")
    live.dump_jsonl(path)
    replayed = FlightRecorder.load(path)
    assert [e.render() for e in replayed.events()] == [
        e.render() for e in live.events()
    ]
    injected = [e for e in replayed.events() if e.kind == "injected"]
    assert injected
    assert len(injected) == len(
        [e for e in live.events() if e.kind == "injected"]
    )


def test_activation_scoping():
    assert recorder_active() is None
    with recording(capacity=16) as outer:
        assert recorder_active() is outer
        with recording(capacity=8) as inner:
            assert recorder_active() is inner
            recorder_active().emit(2.0, "io", "visible")
        # The previous recorder is restored, not cleared.
        assert recorder_active() is outer
        assert inner.total_emitted == 1
        assert outer.total_emitted == 0
    assert recorder_active() is None


def test_parse_sample_spec():
    assert parse_sample_spec("io=8, gc=1") == {"io": 8, "gc": 1}
    with pytest.raises(ValueError):
        parse_sample_spec("io")


def test_recorder_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
