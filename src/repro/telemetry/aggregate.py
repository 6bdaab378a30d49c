"""Cross-shard telemetry aggregation: frames, barrier merge, observability.

Sharded runs (``repro.shard``) execute each :class:`ShardWorld` in its
own process, so a per-shard ``Telemetry`` handle records spans, instants,
and metrics nobody can see.  This module closes the loop:

* :class:`FrameDrain` (worker side) drains the tracer ring and the metric
  registry at every epoch barrier into a :class:`TelemetryFrame`.  The
  worker renders every event's canonical fingerprint line there, in
  parallel with the other workers, and ships ``(now, track, seq, kind,
  name, args)`` event tuples, the ``"\\n"``-joined lines, metric *deltas*
  since the previous barrier and the drop count as one pickled body
  under a CRC32;
* :class:`TelemetryAggregator` (coordinator side) verifies each body's
  CRC before unpickling it, merges a barrier's frames with one
  ``sorted()`` over ``(event, line)`` pairs keyed by ``(now, track,
  seq)``, folds the merged lines into a barrier-chained streaming
  fingerprint and the metric deltas into a global registry, and keeps
  the Chrome-trace ring as the compact received bodies, decoded only on
  export;
* :class:`ClusterObservability` composes the aggregator with the
  :class:`~repro.telemetry.store.TelemetryStore` rollups and the
  :class:`~repro.telemetry.anomaly.AnomalyEngine` detectors into the one
  object the coordinator drives.

**Why the merge key is a total order.**  Facility tracks are
machine-scoped (``request:<node>/<cid>``, ``core:<node>/<idx>``,
``facility:<node>``), so every track is written by exactly one machine,
which lives in exactly one shard.  ``seq`` is a per-track counter
assigned in recording order, making ``(now, track, seq)`` unique and --
because a machine's event stream depends only on its directives, never on
which shard hosts it -- identical for any shard or worker count.  Frames
drained at the same barrier cover the same sim-time window everywhere,
so the per-barrier chained fingerprint is invariant too.  Uniqueness is
also what lets the merge sort plain ``(event, line)`` tuples: two pairs
always differ within their first three fields, so the comparison never
reaches the rest of the event or the line.

**Why replay/crash recovery is safe.**  A revived worker replays the
directive history and regenerates the exact same frames (the drain is a
pure function of configuration plus directives); the pool discards
replayed frames because the coordinator already ingested those barriers,
and the drain's frame-chain digest inside ``state_summary()`` proves the
regenerated telemetry matches what the dead worker shipped.  That digest
covers frame *values* (rendered lines, metric deltas, drop count), not
body bytes: pickle's memo makes the bytes depend on which objects happen
to be shared.

Nothing here feeds back into the simulation: report/shed/batch/energy
fingerprints are bit-identical with telemetry on, off, or absent.
"""

from __future__ import annotations

import itertools
import pickle
import zlib
from collections import Counter, deque
from operator import attrgetter, itemgetter
from typing import Optional

from repro.fingerprint import chain, digest

from .anomaly import AnomalyEngine, AnomalyThresholds, WindowInputs
from .metrics import MetricsRegistry
from .store import TelemetryStore
from .tracer import KIND_INSTANT, RequestTracer, Telemetry, canonical_line

#: Wire tag identifying a telemetry frame tuple.
FRAME_TAG = "tframe"

#: Seed for the worker-side frame-chain digest (proves replayed frames
#: match shipped ones via ``state_summary()``).
FRAME_CHAIN_SEED = digest("telemetry-frame-chain-v1")

#: Seed for the coordinator-side merged-stream digest.
MERGE_CHAIN_SEED = digest("telemetry-merge-chain-v1")


class FrameChecksumError(ValueError):
    """A telemetry frame failed checksum or shape validation."""


def _header_crc(shard_id: int, epoch_index: int) -> int:
    return zlib.crc32(repr((FRAME_TAG, shard_id, epoch_index)).encode())


class TelemetryFrame:
    """One barrier's telemetry from one shard, as one CRC-checked body.

    ``events`` is a tuple of ``(now, track, seq, kind, name, args)``
    tuples sorted by ``(now, track, seq)``; ``args`` is the tracer's
    sorted ``(key, value)`` pair tuple.  ``lines`` holds each event's
    :meth:`TraceSpanEvent.canonical` rendering, ``"\\n"``-joined in the
    same order.  ``metrics`` is a tuple of delta entries (see
    :func:`metric_deltas`).  ``dropped`` counts ring-buffer evictions
    since the previous barrier (diagnostic only -- excluded from merge
    fingerprints so ring pressure cannot break invariance).

    ``body`` is ``pickle.dumps((events, lines, metrics, dropped))`` and
    ``checksum`` the CRC32 over the header ``(tag, shard_id,
    epoch_index)`` and every byte of ``body``.
    """

    __slots__ = (
        "shard_id", "epoch_index", "events", "lines", "metrics", "dropped",
        "body", "checksum",
    )

    def __init__(
        self,
        shard_id: int,
        epoch_index: int,
        events: tuple,
        lines: str,
        metrics: tuple,
        dropped: int,
        body: bytes,
        checksum: int,
    ) -> None:
        self.shard_id = shard_id
        self.epoch_index = epoch_index
        self.events = events
        self.lines = lines
        self.metrics = metrics
        self.dropped = dropped
        self.body = body
        self.checksum = checksum

    @classmethod
    def build(
        cls,
        shard_id: int,
        epoch_index: int,
        events: tuple,
        metrics: tuple,
        dropped: int,
    ) -> "TelemetryFrame":
        """Construct a frame, rendering each event's canonical line once."""
        lines = "\n".join(
            canonical_line(kind, now, track, name, args)
            for now, track, _seq, kind, name, args in events
        )
        body = pickle.dumps(
            (events, lines, metrics, dropped),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return cls(
            shard_id, epoch_index, events, lines, metrics, dropped, body,
            zlib.crc32(body, _header_crc(shard_id, epoch_index)),
        )

    def value_checksum(self) -> int:
        """CRC32 of the frame's values, independent of the body bytes."""
        header = repr((
            FRAME_TAG, self.shard_id, self.epoch_index, len(self.events),
            self.metrics, self.dropped,
        )).encode()
        return zlib.crc32(
            self.lines.encode("utf-8", "surrogatepass"), zlib.crc32(header)
        )

    def to_wire(self) -> tuple:
        """``(tag, shard_id, epoch_index, body, crc32)`` for the wire."""
        return (
            FRAME_TAG, self.shard_id, self.epoch_index, self.body,
            self.checksum,
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "TelemetryFrame":
        """Validate shape + CRC, then unpickle the body.

        The CRC is checked before ``pickle.loads`` ever sees the body, so
        a corrupted body is rejected rather than decoded.
        """
        if not isinstance(wire, tuple) or len(wire) != 5:
            raise FrameChecksumError(
                f"telemetry frame wire must be a 5-tuple, got {wire!r}"
            )
        tag, shard_id, epoch_index, body, checksum = wire
        if tag != FRAME_TAG:
            raise FrameChecksumError(
                f"telemetry frame tag must be {FRAME_TAG!r}, got {tag!r}"
            )
        if not isinstance(body, bytes):
            raise FrameChecksumError(
                f"telemetry frame body must be bytes, got "
                f"{type(body).__name__}"
            )
        expected = zlib.crc32(body, _header_crc(shard_id, epoch_index))
        if checksum != expected:
            raise FrameChecksumError(
                f"telemetry frame checksum mismatch for shard {shard_id} "
                f"epoch {epoch_index}: got {checksum}, expected {expected}"
            )
        decoded = pickle.loads(body)
        if not isinstance(decoded, tuple) or len(decoded) != 4:
            raise FrameChecksumError(
                "telemetry frame body must unpickle to (events, lines, "
                "metrics, dropped)"
            )
        events, lines, metrics, dropped = decoded
        return cls(
            shard_id, epoch_index, events, lines, metrics, dropped, body,
            checksum,
        )


def metric_deltas(previous: dict, current: dict) -> tuple:
    """Delta entries between two ``MetricsRegistry.snapshot_state()`` maps.

    Entry shapes (name-sorted):

    * ``("c", name, help, delta)`` -- counter increment since ``previous``;
    * ``("g", name, help, value)`` -- gauge absolute value (machine-scoped
      names mean exactly one writer, so last-write-wins is well defined);
    * ``("h", name, help, edges, bucket_deltas, count_delta, sum_delta)``.

    Unchanged existing metrics are omitted; new metrics are always
    included so the merged registry grows the same shape as the shards'.
    """
    out = []
    for name in sorted(current):
        entry = current[name]
        prev = previous.get(name)
        kind = entry[0]
        if kind == "counter":
            delta = entry[2] - (prev[2] if prev else 0.0)
            if prev is None or delta != 0.0:
                out.append(("c", name, entry[1], delta))
        elif kind == "gauge":
            if prev is None or entry[2] != prev[2]:
                out.append(("g", name, entry[1], entry[2]))
        else:  # histogram: [kind, help, edges, bucket_counts, count, sum]
            is_new = prev is None
            if is_new:
                prev = [kind, entry[1], entry[2], [0] * len(entry[3]), 0, 0.0]
            count_delta = entry[4] - prev[4]
            if is_new or count_delta != 0:
                out.append((
                    "h", name, entry[1], tuple(entry[2]),
                    tuple(b - p for b, p in zip(entry[3], prev[3])),
                    count_delta, entry[5] - prev[5],
                ))
    return tuple(out)


def apply_metric_deltas(registry: MetricsRegistry, entries: tuple) -> None:
    """Fold :func:`metric_deltas` entries into ``registry``."""
    for entry in entries:
        kind = entry[0]
        if kind == "c":
            registry.counter(entry[1], help=entry[2]).inc(entry[3])
        elif kind == "g":
            registry.gauge(entry[1], help=entry[2]).set(entry[3])
        elif kind == "h":
            _, name, help_text, edges, buckets, count, total = entry
            metric = registry.histogram(name, tuple(edges), help=help_text)
            for i, delta in enumerate(buckets):
                metric.bucket_counts[i] += delta
            metric.count += count
            metric.sum += total
        else:
            raise FrameChecksumError(
                f"unknown metric delta kind {kind!r}"
            )


class FrameDrain:
    """Worker-side barrier drain: tracer ring + registry -> frames.

    Persistent per-track ``seq`` counters make event keys unique across
    the whole run; the drain empties the tracer ring each barrier (memory
    stays bounded regardless of run length), renders each event's
    canonical line exactly once, and snapshots the registry to compute
    deltas.  ``chain``/``frames`` summarize everything shipped so far --
    folded into ``state_summary()`` so replay verification covers
    telemetry value-for-value.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._seq: dict[str, int] = {}
        self._last_metrics: dict = {}
        self._last_dropped = 0
        self.frames = 0
        self.chain = FRAME_CHAIN_SEED

    def drain(self, shard_id: int, epoch_index: int) -> TelemetryFrame:
        """Drain everything recorded since the previous barrier."""
        tracer = self.telemetry.tracer
        events = []
        for event in tracer.events:
            seq = self._seq.get(event.track, 0)
            self._seq[event.track] = seq + 1
            events.append((
                event.now, event.track, seq, event.kind, event.name,
                event.args,
            ))
        tracer.events.clear()
        events.sort()  # by (now, track, seq): unique
        dropped = tracer.dropped_events - self._last_dropped
        self._last_dropped = tracer.dropped_events
        current = self.telemetry.registry.snapshot_state()["metrics"]
        deltas = metric_deltas(self._last_metrics, current)
        self._last_metrics = current
        frame = TelemetryFrame.build(
            shard_id, epoch_index, tuple(events), deltas, dropped
        )
        self.frames += 1
        self.chain = chain(self.chain, [str(frame.value_checksum())])
        return frame

    def summary(self) -> dict:
        """Digest of every frame shipped (for ``state_summary()``)."""
        return {"frames": self.frames, "chain": self.chain}


def _instant_names(events: tuple):
    """Names of the instant events in ``events``, without a Python loop."""
    kinds = map(itemgetter(3), events)
    return itertools.compress(
        map(itemgetter(4), events), map(KIND_INSTANT.__eq__, kinds)
    )


class TelemetryAggregator:
    """Coordinator-side merge of per-shard telemetry frames.

    Per barrier, :meth:`ingest` does only C-level work per event: CRC
    check and unpickle, one ``sorted()`` over ``(event, line)`` pairs, one
    :func:`~repro.fingerprint.chain` step over the merged worker-rendered
    lines, and an instant count.  It never builds a
    :class:`TraceSpanEvent`.

    With ``retain`` true (the default) the last ``capacity`` merged
    events are kept for Chrome-trace export -- as the received frame
    bodies, one entry per barrier, trimmed whole while the rest still
    hold ``capacity`` events.  :attr:`tracer` (and through it
    :meth:`to_chrome_json` and :meth:`snapshot_state`) decodes them into
    the same :class:`RequestTracer` an eager ring would hold, drop count
    included.  Flash-scale runs can turn retention off and still
    fingerprint/aggregate everything.
    """

    def __init__(self, capacity: int = 65536, retain: bool = True) -> None:
        if retain and capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.registry = MetricsRegistry()
        self.capacity = capacity
        self.retain = retain
        #: ``(n_events, bodies)`` per barrier, oldest first.
        self._ring: deque = deque()
        self._ring_events = 0
        #: Events ever appended to the ring, and evictions before that.
        self._ring_appended = 0
        self._ring_dropped_base = 0
        self.chain = MERGE_CHAIN_SEED
        self.events_merged = 0
        self.frames_merged = 0
        self.dropped_total = 0

    def ingest(self, frames: list) -> dict[str, int]:
        """Merge one barrier's frames; returns instant-name counts.

        ``frames`` may hold :class:`TelemetryFrame` objects or raw wire
        tuples (validated here); ``None`` entries (shards with telemetry
        off) are skipped.
        """
        decoded = sorted(
            (
                frame if isinstance(frame, TelemetryFrame)
                else TelemetryFrame.from_wire(frame)
                for frame in frames if frame is not None
            ),
            key=attrgetter("shard_id"),
        )
        carrying = [frame for frame in decoded if frame.events]
        instant_counts: Counter = Counter()
        per_frame = []
        for frame in carrying:
            lines = frame.lines.split("\n")
            if len(lines) != len(frame.events):
                raise ValueError("chain() lines must not contain newlines")
            per_frame.append(lines)
            instant_counts.update(_instant_names(frame.events))
        pairs = sorted(itertools.chain.from_iterable(
            zip(frame.events, lines)
            for frame, lines in zip(carrying, per_frame)
        ))
        merged = list(map(itemgetter(1), pairs))
        self.events_merged += len(merged)
        self.chain = chain(self.chain, merged)
        if self.retain and merged:
            self._retain(len(merged), tuple(f.body for f in carrying))
        for frame in decoded:
            apply_metric_deltas(self.registry, frame.metrics)
            self.dropped_total += frame.dropped
            self.frames_merged += 1
        return dict(instant_counts)

    def _retain(self, n_events: int, bodies: tuple) -> None:
        self._ring.append((n_events, bodies))
        self._ring_events += n_events
        self._ring_appended += n_events
        while self._ring_events - self._ring[0][0] >= self.capacity:
            self._ring_events -= self._ring.popleft()[0]

    def _ring_tail(self) -> deque:
        """The last ``capacity`` merged event tuples, decoded."""
        tail: deque = deque(maxlen=self.capacity)
        for _n, bodies in self._ring:
            tail.extend(sorted(itertools.chain.from_iterable(
                pickle.loads(body)[0] for body in bodies
            )))
        return tail

    def _tracer_state(self) -> dict:
        """:meth:`RequestTracer.snapshot_state` of the decoded ring.

        Written straight from the event tuples: no
        :class:`TraceSpanEvent` is built, so a barrier checkpoint pays
        only the decode.
        """
        return {
            "v": 1,
            "capacity": self.capacity,
            "dropped_events": self._ring_dropped_base + max(
                0, self._ring_appended - self.capacity
            ),
            "events": [
                [kind, now, track, name, list(map(list, args))]
                for now, track, _seq, kind, name, args in self._ring_tail()
            ],
            "open": {},
        }

    @property
    def tracer(self) -> Optional[RequestTracer]:
        """A decoded copy of the retained ring (``None`` if not kept)."""
        if not self.retain:
            return None
        tracer = RequestTracer(capacity=self.capacity)
        tracer.restore_state(self._tracer_state())
        return tracer

    def trace_fingerprint(self) -> str:
        """Chained digest of the merged stream (shard-count-invariant)."""
        return self.chain

    def exposition(self) -> str:
        return self.registry.exposition()

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        if not self.retain:
            raise ValueError(
                "aggregator built with retain=False keeps no events"
            )
        return self.tracer.to_chrome_json(indent=indent)

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "chain": self.chain,
            "events_merged": self.events_merged,
            "frames_merged": self.frames_merged,
            "dropped_total": self.dropped_total,
            "registry": self.registry.snapshot_state(),
            "tracer": self._tracer_state() if self.retain else None,
        }

    def restore_state(self, state: dict) -> None:
        if state.get("v") != 1:
            raise ValueError(
                f"unknown TelemetryAggregator snapshot version "
                f"{state.get('v')!r}"
            )
        self.chain = state["chain"]
        self.events_merged = int(state["events_merged"])
        self.frames_merged = int(state["frames_merged"])
        self.dropped_total = int(state["dropped_total"])
        self.registry.restore_state(state["registry"])
        self._ring.clear()
        self._ring_events = self._ring_appended = 0
        self._ring_dropped_base = 0
        tracer_state = state["tracer"]
        if tracer_state is None:
            self.retain = False
            return
        if not self.retain:
            self.retain = True
            self.capacity = tracer_state["capacity"]
        # Validates the snapshot (version, capacity) like the eager ring.
        tracer = RequestTracer(capacity=self.capacity)
        tracer.restore_state(tracer_state)
        events = [
            (e.now, e.track, i, e.kind, e.name, e.args)
            for i, e in enumerate(tracer.events)
        ]
        # Snapshot order is merge order, which need not ascend in
        # ``(now, track)`` across barriers.  Each ascending run becomes
        # its own entry, so decoding sorts nothing out of place.
        start = 0
        for stop in range(1, len(events) + 1):
            if stop == len(events) or events[stop][:2] < events[stop - 1][:2]:
                run = tuple(events[start:stop])
                self._retain(len(run), (pickle.dumps((run,)),))
                start = stop
        self._ring_dropped_base = tracer.dropped_events


class ClusterObservability:
    """Aggregator + store + detectors, driven once per epoch barrier.

    Built by the sharded coordinator when its ``telemetry`` mode is
    ``"store"`` (rollups + detectors from the completion stream only --
    zero worker-side cost, the flash-scale default) or ``"on"`` (plus
    per-shard frames merged into the global tracer/registry).  Records
    are duck-typed (``completion``/``machine``/``request_id``/``rtype``/
    ``energy_joules``/``response_time``) so this module never imports
    ``repro.shard``.
    """

    def __init__(
        self,
        epoch_seconds: float,
        rack_of: dict[str, int],
        rack_caps: dict[int, float] | None = None,
        frames: bool = False,
        capacity: int = 65536,
        retain_trace: bool = True,
        top_k: int = 10,
        thresholds: AnomalyThresholds | None = None,
    ) -> None:
        self.frames_enabled = frames
        self.aggregator = (
            TelemetryAggregator(capacity=capacity, retain=retain_trace)
            if frames else None
        )
        self.store = TelemetryStore(
            epoch_seconds=epoch_seconds, rack_of=rack_of, top_k=top_k
        )
        self.engine = AnomalyEngine(
            rack_caps=rack_caps, thresholds=thresholds
        )
        self._prev_shed = 0
        self._prev_deferred = 0

    def observe_epoch(
        self,
        epoch_index: int,
        end: float,
        completions: list,
        failover_count: int,
        frames: list | None = None,
        shed_total: int = 0,
        deferred_total: int = 0,
    ) -> None:
        """Ingest one barrier: merged completions, frames, and deltas."""
        instant_counts: dict[str, int] = {}
        if self.aggregator is not None and frames:
            instant_counts = self.aggregator.ingest(frames)
        joules = 0.0
        for record in completions:
            window = min(epoch_index, max(0, int(record.completion
                         / self.store.epoch_seconds)))
            self.store.ingest_completion(
                window=window,
                machine=record.machine,
                request_id=record.request_id,
                rtype=record.rtype,
                energy_joules=record.energy_joules,
                response_time=record.response_time,
            )
            joules += record.energy_joules
        shed_delta = shed_total - self._prev_shed
        deferred_delta = deferred_total - self._prev_deferred
        self._prev_shed = shed_total
        self._prev_deferred = deferred_total
        self.store.ingest_window(
            window=epoch_index,
            shed=shed_delta,
            deferred=deferred_delta,
            failovers=failover_count,
            completed=len(completions),
            joules=joules,
        )
        self.engine.observe_window(WindowInputs(
            window=epoch_index,
            time=end,
            rack_watts=tuple(
                sorted(self.store.rack_watts(epoch_index).items())
            ),
            shed=shed_delta,
            failovers=failover_count,
            completed=len(completions),
            instant_counts=tuple(sorted(instant_counts.items())),
        ))

    def finalize(self, time: float, machine_rows: list) -> None:
        """Run the finalize-time detectors (attribution drift)."""
        self.engine.finalize(time, machine_rows)

    # -- summaries and exports ------------------------------------------
    def trace_fingerprint(self) -> Optional[str]:
        if self.aggregator is None:
            return None
        return self.aggregator.trace_fingerprint()

    def alert_fingerprint(self) -> str:
        return self.engine.alert_fingerprint()

    def store_fingerprint(self) -> str:
        return self.store.store_fingerprint()

    def summary(self) -> dict:
        """Plain-data roll-up for ``ShardRunResult``."""
        out = {
            "trace_fingerprint": self.trace_fingerprint(),
            "alert_fingerprint": self.alert_fingerprint(),
            "store_fingerprint": self.store_fingerprint(),
            "alerts": len(self.engine.alerts),
            "requests": self.store.requests_seen,
        }
        if self.aggregator is not None:
            out["events_merged"] = self.aggregator.events_merged
            out["frames_merged"] = self.aggregator.frames_merged
            out["frames_dropped_events"] = self.aggregator.dropped_total
        return out

    def dashboard(self, meta: dict | None = None) -> dict:
        """The store dashboard document plus alerts + fingerprints."""
        meta = dict(meta or {})
        if self.aggregator is not None:
            meta["trace_fingerprint"] = self.aggregator.trace_fingerprint()
        meta["alert_fingerprint"] = self.alert_fingerprint()
        return self.store.dashboard(
            meta=meta, alerts=self.engine.alert_table()
        )

    # -- checkpoint protocol --------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "v": 1,
            "frames_enabled": self.frames_enabled,
            "prev_shed": self._prev_shed,
            "prev_deferred": self._prev_deferred,
            "aggregator": (
                self.aggregator.snapshot_state()
                if self.aggregator is not None else None
            ),
            "store": self.store.snapshot_state(),
            "engine": self.engine.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        if state.get("v") != 1:
            raise ValueError(
                f"unknown ClusterObservability snapshot version "
                f"{state.get('v')!r}"
            )
        self.frames_enabled = state["frames_enabled"]
        self._prev_shed = int(state["prev_shed"])
        self._prev_deferred = int(state["prev_deferred"])
        if state["aggregator"] is not None:
            if self.aggregator is None:
                self.aggregator = TelemetryAggregator()
            self.aggregator.restore_state(state["aggregator"])
        else:
            self.aggregator = None
        self.store.restore_state(state["store"])
        self.engine.restore_state(state["engine"])
