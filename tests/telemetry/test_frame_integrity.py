"""Telemetry frame bodies: CRC coverage, value-only chain, and cost.

The coordinator unpickles a frame body only after its CRC32 matched, so
every corruption a pipe or a lossy channel could cause must be caught
first.  The worker-side chain digest covers frame values, never body
bytes.  The mechanism guards pin where the per-event work happens: one
canonical rendering per event on the worker, none on the coordinator,
and no :class:`TraceSpanEvent` built before an export.
"""

import pickle
import zlib

import pytest

from repro.telemetry import (
    FrameChecksumError,
    FrameDrain,
    Telemetry,
    TelemetryAggregator,
    TelemetryFrame,
    TraceSpanEvent,
)
from repro.telemetry import aggregate
from repro.telemetry.aggregate import _header_crc


def _frame(shard_id=1, epoch_index=3) -> TelemetryFrame:
    return TelemetryFrame.build(shard_id, epoch_index, (
        (0.1, "request:m0/1", 0, "B", "slice", (("cid", 1),)),
        (0.1, "request:m1/2", 0, "I", "shed", (("reason", "cap"),)),
        (0.2, "request:m0/1", 1, "E", "slice", ()),
    ), (("c", "sheds", "sheds", 1.0),), 2)


def test_every_single_byte_flip_of_the_body_is_rejected():
    wire = _frame().to_wire()
    body = wire[3]
    for index in range(len(body)):
        for flip in (0x01, 0x80, 0xFF):
            corrupted = bytearray(body)
            corrupted[index] ^= flip
            bad = wire[:3] + (bytes(corrupted),) + wire[4:]
            with pytest.raises(FrameChecksumError, match="checksum"):
                TelemetryFrame.from_wire(bad)


@pytest.mark.parametrize("position, value, match", [
    (0, "tframe2", "tag"),
    (1, 2, "checksum mismatch"),
    (2, 4, "checksum mismatch"),
    (3, "not bytes", "bytes"),
    (4, 0, "checksum mismatch"),
])
def test_header_and_checksum_changes_are_rejected(position, value, match):
    wire = list(_frame().to_wire())
    wire[position] = value
    with pytest.raises(FrameChecksumError, match=match):
        TelemetryFrame.from_wire(tuple(wire))


def test_wire_shape_changes_are_rejected():
    wire = _frame().to_wire()
    for bad in (wire[:4], wire + (0,), list(wire), None):
        with pytest.raises(FrameChecksumError, match="5-tuple"):
            TelemetryFrame.from_wire(bad)


def test_a_well_checksummed_body_of_the_wrong_shape_is_rejected():
    body = pickle.dumps(((), "", ()))
    wire = ("tframe", 0, 0, body, zlib.crc32(body, _header_crc(0, 0)))
    with pytest.raises(FrameChecksumError, match="must unpickle"):
        TelemetryFrame.from_wire(wire)


def test_unpicklable_body_never_reaches_pickle_loads(monkeypatch):
    wire = _frame().to_wire()
    # A truncated pickle would raise inside pickle.loads.
    poisoned = wire[:3] + (wire[3][: len(wire[3]) // 2],) + wire[4:]
    with pytest.raises(Exception):
        pickle.loads(poisoned[3])

    def forbidden(*_args, **_kwargs):
        raise AssertionError("pickle.loads reached before the CRC check")

    monkeypatch.setattr(pickle, "loads", forbidden)
    with pytest.raises(FrameChecksumError, match="checksum mismatch"):
        TelemetryFrame.from_wire(poisoned)
    with pytest.raises(FrameChecksumError, match="checksum mismatch"):
        TelemetryAggregator().ingest([poisoned])


def test_chain_covers_values_not_pickle_sharing():
    """Equal values shared differently pickle differently, chain equally."""
    track = "request:m0/1"
    copy = track.encode().decode()
    assert copy == track and copy is not track
    shared = TelemetryFrame.build(0, 0, (
        (0.1, track, 0, "I", "a", ()), (0.2, track, 1, "I", "b", ()),
    ), (), 0)
    unshared = TelemetryFrame.build(0, 0, (
        (0.1, track, 0, "I", "a", ()), (0.2, copy, 1, "I", "b", ()),
    ), (), 0)
    assert shared.body != unshared.body
    assert shared.value_checksum() == unshared.value_checksum()
    # Any value change moves the value checksum.
    for other in (
        TelemetryFrame.build(1, 0, shared.events, (), 0),
        TelemetryFrame.build(0, 1, shared.events, (), 0),
        TelemetryFrame.build(0, 0, shared.events, (), 1),
        TelemetryFrame.build(0, 0, shared.events, (("g", "x", "", 1.0),), 0),
        TelemetryFrame.build(0, 0, shared.events[:1], (), 0),
    ):
        assert other.value_checksum() != shared.value_checksum()


def test_drain_chain_is_identity_blind():
    def drained(make_track):
        telemetry = Telemetry()
        for i in range(4):
            telemetry.tracer.instant(0.1 * i, make_track(), "tick")
        drain = FrameDrain(telemetry)
        frame = drain.drain(0, 0)
        return drain.summary(), frame

    track = "request:m0/1"
    shared_summary, shared_frame = drained(lambda: track)
    fresh_summary, fresh_frame = drained(lambda: track.encode().decode())
    assert shared_frame.body != fresh_frame.body
    assert shared_summary == fresh_summary


# -- mechanism guards -----------------------------------------------------
def _count_calls(monkeypatch, owner, attribute):
    calls = {"n": 0}
    original = getattr(owner, attribute)

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attribute, counting)
    return calls


def test_drain_renders_each_event_exactly_once(monkeypatch):
    telemetry = Telemetry()
    tracer = telemetry.tracer
    tracer.begin(0.1, "request:m0/1", "slice", {"cid": 1})
    tracer.instant(0.1, "facility:m0", "meter.stale")
    tracer.counter(0.2, "request:m0/1", "energy", 3.5)
    tracer.end(0.3, "request:m0/1", "slice")
    renders = _count_calls(monkeypatch, aggregate, "canonical_line")
    frame = FrameDrain(telemetry).drain(0, 0)
    assert renders["n"] == len(frame.events) == 4
    assert frame.lines.split("\n") == [
        TraceSpanEvent(kind, now, track, name, args).canonical()
        for now, track, _seq, kind, name, args in frame.events
    ]


def test_ingest_builds_no_span_events_before_an_export(monkeypatch):
    frames = [
        TelemetryFrame.build(shard, epoch, tuple(
            (0.01 * i, f"request:m{shard}/{i % 3}", i // 3, "I", "shed", ())
            for i in range(30)
        ), (), 0).to_wire()
        for epoch in range(3) for shard in range(2)
    ]
    renders = _count_calls(monkeypatch, TraceSpanEvent, "canonical")
    lines = _count_calls(monkeypatch, aggregate, "canonical_line")
    builds = _count_calls(monkeypatch, TraceSpanEvent, "__init__")
    agg = TelemetryAggregator(capacity=50)
    for epoch in range(3):
        counts = agg.ingest(frames[2 * epoch: 2 * epoch + 2])
        assert counts == {"shed": 60}
    assert agg.events_merged == 180
    assert renders["n"] == lines["n"] == builds["n"] == 0
    # A barrier checkpoint decodes the ring but builds no events.
    assert len(agg.snapshot_state()["tracer"]["events"]) == 50
    assert builds["n"] == 0
    # Export decodes the retained ring, and only then builds events.
    assert len(agg.tracer.events) == 50
    assert builds["n"] == 50
    assert renders["n"] == lines["n"] == 0
