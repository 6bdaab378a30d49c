"""The barrier merge against a reference copy of the eager algorithm.

:class:`TelemetryAggregator` verifies worker-rendered frame bodies, merges
them with one ``sorted()`` and keeps its export ring as compact bodies.
:class:`EagerOracle` below is the straightforward algorithm it replaced:
a ``heapq.merge`` keyed by ``(now, track, seq)``, one canonical line
rendered per merged event (its own copy of the rendering), and an eager
:class:`RequestTracer` ring.  Hypothesis drives both with the same
barriers and every observable output must agree: fingerprint, instant
counts, registry, retained events, drop count, Chrome trace and
checkpoint snapshot -- also after a mid-run snapshot/restore.
"""

import heapq
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fingerprint import chain
from repro.telemetry import (
    MetricsRegistry,
    RequestTracer,
    TelemetryAggregator,
    TelemetryFrame,
    TraceSpanEvent,
    apply_metric_deltas,
)
from repro.telemetry.aggregate import MERGE_CHAIN_SEED
from repro.telemetry.tracer import KIND_INSTANT


def _event_key(event: tuple) -> tuple:
    return (event[0], event[1], event[2])


def _canonical(span: TraceSpanEvent) -> str:
    """A frozen copy of :meth:`TraceSpanEvent.canonical`."""
    parts = [span.kind, repr(span.now), span.track, span.name]
    for key, value in span.args:
        parts.append(f"{key}={value!r}")
    return "|".join(parts)


class EagerOracle:
    """The k-way merge with per-event rendering and an eager ring."""

    def __init__(self, capacity: int) -> None:
        self.registry = MetricsRegistry()
        self.tracer = RequestTracer(capacity=capacity)
        self.chain = MERGE_CHAIN_SEED
        self.events_merged = 0
        self.frames_merged = 0
        self.dropped_total = 0

    def ingest(self, frames: list) -> dict:
        decoded = sorted(
            (frame for frame in frames if frame is not None),
            key=lambda frame: frame.shard_id,
        )
        instant_counts: dict = {}
        lines = []
        for event in heapq.merge(
            *(frame.events for frame in decoded), key=_event_key
        ):
            now, track, _seq, kind, name, args = event
            span = TraceSpanEvent(kind, now, track, name, tuple(args))
            lines.append(_canonical(span))
            self.tracer._append(span)
            if kind == KIND_INSTANT:
                instant_counts[name] = instant_counts.get(name, 0) + 1
        self.events_merged += len(lines)
        self.chain = chain(self.chain, lines)
        for frame in decoded:
            apply_metric_deltas(self.registry, frame.metrics)
            self.dropped_total += frame.dropped
            self.frames_merged += 1
        return instant_counts

    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "chain": self.chain,
            "events_merged": self.events_merged,
            "frames_merged": self.frames_merged,
            "dropped_total": self.dropped_total,
            "registry": self.registry.snapshot_state(),
            "tracer": self.tracer.snapshot_state(),
        }


#: Tracks are machine-scoped, so each belongs to exactly one shard.
TRACKS = tuple(
    (f"request:m{machine}/{cid}", machine % 3)
    for machine in range(4) for cid in range(2)
) + tuple((f"facility:m{machine}", machine % 3) for machine in range(4))

_args = st.dictionaries(
    st.sampled_from(["cid", "joules", "reason", "n"]),
    st.one_of(
        st.integers(-3, 3),
        st.floats(allow_nan=False, width=32),
        st.text("abc|=", max_size=3),
    ),
    max_size=2,
)

#: One recorded event: track index, a coarse ``now`` (so different
#: tracks often tie on time), kind, name, args.
_records = st.tuples(
    st.integers(0, len(TRACKS) - 1),
    st.sampled_from([0.0, 0.25, 0.5, 0.5 + 2 ** -40]),
    st.sampled_from("BEIC"),
    st.sampled_from(["shed", "meter.stale", "slice", "energy"]),
    _args,
)

#: A barrier: recorded events, which shards ship ``None`` (telemetry
#: off) instead of a frame, and per-shard counter/gauge deltas.
_barriers = st.lists(
    st.tuples(
        st.lists(_records, max_size=12),
        st.sets(st.integers(0, 2), max_size=2),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=6,
)


def _frames(barrier, index: int, seqs: dict, as_wire: bool) -> list:
    records, silent, bumps = barrier
    per_shard: dict = {0: [], 1: [], 2: []}
    for track_index, now, kind, name, args in records:
        track, shard = TRACKS[track_index]
        seq = seqs.get(track, 0)
        seqs[track] = seq + 1
        per_shard[shard].append(
            (now, track, seq, kind, name, tuple(sorted(args.items())))
        )
    frames: list[Optional[object]] = []
    for shard, events in per_shard.items():
        if shard in silent:
            frames.append(None)
            continue
        metrics = (
            ("c", f"events_s{shard}", "events", float(bumps[shard])),
            ("g", f"barrier_s{shard}", "barrier", float(index)),
        )
        frame = TelemetryFrame.build(
            shard, index, tuple(sorted(events, key=_event_key)), metrics,
            bumps[shard],
        )
        frames.append(frame.to_wire() if as_wire else frame)
    # Arrival order must not matter: shards answer in any order.
    return frames[::-1] if index % 2 else frames


@settings(max_examples=150, deadline=None)
# Restored after a barrier whose keys sort before the previous one's:
# merge order need not ascend in (now, track) across barriers.
@example(
    barriers=[
        ([(0, 0.5, "I", "shed", {})], set(), [0, 0, 0]),
        ([(0, 0.0, "I", "shed", {})], set(), [0, 0, 0]),
    ],
    capacity=3,
    restore_after=2,
    as_wire=False,
)
@given(
    barriers=_barriers,
    capacity=st.integers(1, 12),
    restore_after=st.integers(0, 6),
    as_wire=st.booleans(),
)
def test_merge_matches_the_eager_heapq_oracle(
    barriers, capacity, restore_after, as_wire
):
    oracle = EagerOracle(capacity)
    agg = TelemetryAggregator(capacity=capacity)
    seqs: dict = {}
    for index, barrier in enumerate(barriers):
        frames = _frames(barrier, index, seqs, as_wire)
        oracle_frames = [
            TelemetryFrame.from_wire(f) if isinstance(f, tuple) else f
            for f in frames
        ]
        expected_counts = oracle.ingest(oracle_frames)
        assert agg.ingest(frames) == expected_counts
        if index + 1 == restore_after:
            resumed = TelemetryAggregator(capacity=capacity)
            resumed.restore_state(agg.snapshot_state())
            agg = resumed
    assert agg.trace_fingerprint() == oracle.chain
    assert agg.exposition() == oracle.registry.exposition()
    assert list(agg.tracer.events) == list(oracle.tracer.events)
    assert agg.tracer.dropped_events == oracle.tracer.dropped_events
    assert agg.to_chrome_json() == oracle.tracer.to_chrome_json()
    assert agg.tracer.timeline() == oracle.tracer.timeline()
    assert agg.snapshot_state() == oracle.snapshot_state()
    assert agg.events_merged == oracle.events_merged
    assert agg.frames_merged == oracle.frames_merged
    assert agg.dropped_total == oracle.dropped_total


