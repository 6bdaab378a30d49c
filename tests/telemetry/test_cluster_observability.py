"""Unit coverage for the cluster-scale telemetry pieces.

Frames (wire shape + checksum rejection), metric-delta folding, the
energy-service store's queries/exports/snapshots, and every anomaly
detector in the catalog -- all on small synthetic inputs so each
behaviour is pinned independently of the sharded stack.
"""

import json
import pickle

import pytest

from repro.telemetry import (
    AlertRecord,
    AnomalyEngine,
    AnomalyThresholds,
    FrameChecksumError,
    FrameDrain,
    MetricsRegistry,
    Telemetry,
    TelemetryAggregator,
    TelemetryFrame,
    TelemetryStore,
    WindowInputs,
    alert_fingerprint,
    apply_metric_deltas,
    metric_deltas,
)


# -- frames ---------------------------------------------------------------
def test_frame_wire_round_trip():
    events = ((0.5, "request:m0/7", 0, "I", "shed", (("n", 1),)),)
    frame = TelemetryFrame.build(2, 4, events, (), 0)
    wire = frame.to_wire()
    back = TelemetryFrame.from_wire(wire)
    assert back.shard_id == 2
    assert back.epoch_index == 4
    assert back.events == events
    assert back.checksum == frame.checksum


def test_frame_rejects_corruption_and_bad_shape():
    frame = TelemetryFrame.build(0, 0, (), (), 0)
    wire = list(frame.to_wire())
    # Flip the dropped count inside the body, keep the stale checksum.
    wire[3] = pickle.dumps(((), "", (), 99))
    with pytest.raises(FrameChecksumError, match="checksum mismatch"):
        TelemetryFrame.from_wire(tuple(wire))
    with pytest.raises(FrameChecksumError, match="5-tuple"):
        TelemetryFrame.from_wire(("tframe", 0, 0))
    with pytest.raises(FrameChecksumError, match="tag"):
        TelemetryFrame.from_wire(("bogus",) + frame.to_wire()[1:])


def test_frame_drain_assigns_per_track_seqs_and_empties_ring():
    telemetry = Telemetry()
    telemetry.tracer.instant(0.1, "request:m0/1", "a")
    telemetry.tracer.instant(0.2, "request:m0/1", "b")
    telemetry.tracer.instant(0.3, "request:m1/9", "c")
    drain = FrameDrain(telemetry)
    frame = drain.drain(0, 0)
    seqs = {(e[1], e[2]) for e in frame.events}
    assert seqs == {("request:m0/1", 0), ("request:m0/1", 1),
                    ("request:m1/9", 0)}
    assert len(telemetry.tracer.events) == 0
    # The next barrier continues the per-track counters.
    telemetry.tracer.instant(0.4, "request:m0/1", "d")
    frame2 = drain.drain(0, 1)
    assert frame2.events[0][2] == 2
    assert drain.frames == 2


# -- metric deltas --------------------------------------------------------
def test_metric_deltas_fold_into_registry():
    source = MetricsRegistry()
    source.counter("facility_sheds", help="sheds").inc(3)
    source.gauge("facility_cap", help="cap").set(42.0)
    hist = source.histogram("lat", (0.1, 1.0), help="latency")
    hist.observe(0.05)
    hist.observe(5.0)
    first = source.snapshot_state()["metrics"]
    deltas = metric_deltas({}, first)
    target = MetricsRegistry()
    apply_metric_deltas(target, deltas)
    assert target.exposition() == source.exposition()
    # Unchanged metrics are omitted from the next delta; changed ones
    # carry only the increment.
    source.counter("facility_sheds").inc(2)
    second = source.snapshot_state()["metrics"]
    incremental = metric_deltas(first, second)
    assert [entry[1] for entry in incremental] == ["facility_sheds"]
    assert incremental[0][3] == 2.0
    apply_metric_deltas(target, incremental)
    assert target.exposition() == source.exposition()


def test_apply_metric_deltas_rejects_unknown_kind():
    with pytest.raises(FrameChecksumError, match="unknown metric"):
        apply_metric_deltas(MetricsRegistry(), (("x", "name", "help", 1),))


# -- aggregator -----------------------------------------------------------
def test_aggregator_merge_is_shard_assignment_invariant():
    def frames(split):
        """The same six events split across shards two different ways."""
        events = [
            (0.1, "request:m0/1", 0, "I", "e0", ()),
            (0.2, "request:m1/1", 0, "I", "e1", ()),
            (0.3, "request:m0/1", 1, "I", "e2", ()),
            (0.4, "request:m2/1", 0, "I", "e3", ()),
            (0.5, "request:m1/1", 1, "I", "e4", ()),
            (0.6, "request:m2/1", 1, "I", "e5", ()),
        ]
        by_shard = {}
        for event in events:
            by_shard.setdefault(split(event[1]), []).append(event)
        return [
            TelemetryFrame.build(sid, 0, tuple(evs), (), 0)
            for sid, evs in sorted(by_shard.items())
        ]

    one = TelemetryAggregator()
    one.ingest(frames(lambda track: 0))
    three = TelemetryAggregator()
    three.ingest(frames(lambda track: int(track[9])))
    assert one.trace_fingerprint() == three.trace_fingerprint()
    assert one.events_merged == three.events_merged == 6
    assert [e.name for e in one.tracer.events] == [
        f"e{i}" for i in range(6)
    ]


def test_aggregator_counts_instants_and_skips_none_frames():
    agg = TelemetryAggregator()
    frame = TelemetryFrame.build(0, 0, (
        (0.1, "facility:m0", 0, "I", "meter.stale", ()),
        (0.2, "facility:m0", 1, "I", "meter.stale", ()),
    ), (), 0)
    counts = agg.ingest([None, frame, None])
    assert counts == {"meter.stale": 2}
    assert agg.frames_merged == 1


def test_aggregator_without_retention_still_fingerprints():
    frame = TelemetryFrame.build(0, 0, (
        (0.1, "request:m0/1", 0, "I", "x", ()),
    ), (), 0)
    lean = TelemetryAggregator(retain=False)
    lean.ingest([frame])
    full = TelemetryAggregator()
    full.ingest([frame])
    assert lean.trace_fingerprint() == full.trace_fingerprint()
    with pytest.raises(ValueError, match="retain=False"):
        lean.to_chrome_json()


def test_aggregator_snapshot_restore_round_trip():
    agg = TelemetryAggregator()
    agg.ingest([TelemetryFrame.build(0, 0, (
        (0.1, "request:m0/1", 0, "I", "x", ()),
    ), (("c", "n", "h", 2.0),), 1)])
    clone = TelemetryAggregator()
    clone.restore_state(agg.snapshot_state())
    assert clone.trace_fingerprint() == agg.trace_fingerprint()
    assert clone.exposition() == agg.exposition()
    assert clone.dropped_total == 1


# -- store ----------------------------------------------------------------
def _tiny_store():
    store = TelemetryStore(
        epoch_seconds=0.5, rack_of={"m0": 0, "m1": 0, "m2": 1}, top_k=2
    )
    rows = [
        (0, "m0", 1, "search", 2.0, 0.01),
        (0, "m1", 2, "search", 4.0, 0.02),
        (1, "m2", 3, "update", 1.0, 0.03),
        (1, "m0", 4, "search", 8.0, 0.01),
    ]
    for window, machine, rid, rtype, joules, response in rows:
        store.ingest_completion(window, machine, rid, rtype, joules,
                                response)
    store.ingest_window(0, shed=1, completed=2, joules=6.0)
    store.ingest_window(1, failovers=1, completed=2, joules=9.0)
    return store


def test_store_rack_watts_and_series():
    store = _tiny_store()
    assert store.rack_watts(0) == {0: 12.0, 1: 0.0}
    assert store.rack_watts(1) == {0: 16.0, 1: 2.0}
    series = store.rack_power_series()
    assert series[0] == [[0.0, 12.0], [0.5, 16.0]]
    assert series[1] == [[0.0, 0.0], [0.5, 2.0]]


def test_store_topk_is_bounded_and_ranked():
    store = _tiny_store()
    top = store.top_energy()
    assert [row["request_id"] for row in top] == [4, 2]
    assert top[0]["joules"] == 8.0


def test_store_percentiles_nearest_rank():
    store = _tiny_store()
    result = store.joules_percentiles(percentiles=(50.0, 100.0))
    assert result["search"]["p50"] == 4.0
    assert result["search"]["p100"] == 8.0
    assert result["update"]["p50"] == 1.0
    assert result["_all"]["p50"] == 2.0


def test_store_dashboard_and_csv_are_serializable():
    store = _tiny_store()
    doc = store.dashboard(meta={"scenario": "unit"},
                          alerts=[{"detector": "x"}])
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text)["summary"]["requests"] == 4
    assert doc["alerts"] == [{"detector": "x"}]
    rows = store.csv_rows()
    assert rows[0][0] == "section"
    assert any(row[0] == "top_energy" for row in rows)


def test_store_snapshot_restore_preserves_fingerprint():
    store = _tiny_store()
    clone = TelemetryStore(epoch_seconds=0.5, rack_of={})
    clone.restore_state(store.snapshot_state())
    assert clone.store_fingerprint() == store.store_fingerprint()
    # The restored heap keeps accepting pushes correctly.
    clone.ingest_completion(2, "m2", 9, "update", 16.0, 0.1)
    assert clone.top_energy()[0]["request_id"] == 9


def test_store_rejects_bad_construction():
    with pytest.raises(ValueError, match="epoch_seconds"):
        TelemetryStore(epoch_seconds=0.0, rack_of={})
    with pytest.raises(ValueError, match="top_k"):
        TelemetryStore(epoch_seconds=1.0, rack_of={}, top_k=0)


# -- anomaly detectors ----------------------------------------------------
def test_cap_violation_streak_fires_once_at_threshold():
    engine = AnomalyEngine(rack_caps={0: 100.0},
                           thresholds=AnomalyThresholds(cap_streak=3))
    fired = []
    for window in range(5):
        fired += engine.observe_window(WindowInputs(
            window=window, time=0.5 * (window + 1),
            rack_watts=((0, 150.0),),
        ))
    assert [a.detector for a in fired] == ["cap-violation-streak"]
    assert fired[0].window == 2
    assert fired[0].subject == "rack0"
    assert fired[0].severity == "page"
    # Dropping under the cap resets the streak.
    engine.observe_window(WindowInputs(window=5, time=3.0,
                                       rack_watts=((0, 10.0),)))
    assert engine._cap_streaks[0] == 0


def test_shed_spike_needs_history_floor_and_factor():
    engine = AnomalyEngine(thresholds=AnomalyThresholds(
        shed_spike_min=20, shed_spike_factor=3.0, shed_history=4))
    # First window has no trailing baseline: never a spike.
    assert engine.observe_window(
        WindowInputs(window=0, time=0.5, shed=500)) == []
    engine = AnomalyEngine(thresholds=AnomalyThresholds(
        shed_spike_min=20, shed_spike_factor=3.0, shed_history=4))
    engine.observe_window(WindowInputs(window=0, time=0.5, shed=10))
    # 25 >= max(20, 3 * 10) is false -> quiet; 40 fires.
    assert engine.observe_window(
        WindowInputs(window=1, time=1.0, shed=25)) == []
    fired = engine.observe_window(WindowInputs(window=2, time=1.5,
                                               shed=60))
    assert [a.detector for a in fired] == ["shed-rate-spike"]
    assert fired[0].value == 60.0


def test_instant_driven_detectors():
    engine = AnomalyEngine(thresholds=AnomalyThresholds(
        stale_storm=3, recal_churn=2))
    fired = engine.observe_window(WindowInputs(
        window=0, time=0.5,
        instant_counts=(("meter.stale", 3), ("recal.refit", 2)),
    ))
    assert [a.detector for a in fired] == [
        "meter-staleness-storm", "recalibration-churn",
    ]
    assert [a.severity for a in fired] == ["warn", "info"]


def test_attribution_drift_at_finalize():
    engine = AnomalyEngine(thresholds=AnomalyThresholds(
        drift_ratio=0.25, drift_min_joules=1.0))
    fired = engine.finalize(2.0, [
        ("m0", 10, 100.0, 100.0),   # perfect: quiet
        ("m1", 10, 50.0, 100.0),    # 50% drift: fires
        ("m2", 0, 0.0, 100.0),      # no completions: quiet
        ("m3", 10, 0.0, 0.5),       # under the joule floor: quiet
    ])
    assert [a.subject for a in fired] == ["m1"]
    assert fired[0].detector == "attribution-drift"
    assert fired[0].value == pytest.approx(0.5)


def test_alert_fingerprint_and_engine_snapshot():
    engine = AnomalyEngine(thresholds=AnomalyThresholds(stale_storm=1))
    engine.observe_window(WindowInputs(
        window=0, time=0.5, instant_counts=(("meter.stale", 4),)))
    assert engine.alert_fingerprint() == alert_fingerprint(engine.alerts)
    assert engine.alert_fingerprint() != alert_fingerprint([])
    clone = AnomalyEngine()
    clone.restore_state(engine.snapshot_state())
    assert clone.alert_fingerprint() == engine.alert_fingerprint()
    assert clone.alerts[0] == engine.alerts[0]
    assert isinstance(clone.alerts[0], AlertRecord)


def test_alert_record_wire_round_trip():
    alert = AlertRecord(1.0, 2, "shed-rate-spike", "warn", "cluster",
                        60.0, 30.0, "spike")
    assert AlertRecord.from_wire(alert.to_wire()) == alert
