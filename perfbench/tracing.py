"""Span tracing installed from the benchmark's own files.

The traced run wraps the methods where each layer of ``repro`` is entered
(class attributes, patched before any world is built so bound methods
captured at construction see the wrapper) and records one span per call.
Nothing under ``src/`` changes.

Hot spans (hundreds of thousands per run) are folded into per-name
aggregates as they close: call count, inclusive time and self time.  A
span's self time is its duration minus the time its child spans cover, so
a layer's self time is the sum over that layer's span names.  Coarse spans
(per-epoch pool waits and worker commands) are also kept whole, because
the overlap of worker busy intervals needs their start and end.

Pool workers are forked from the traced coordinator and inherit the
wrappers.  Each worker starts with an empty recorder and writes its state
to ``<out_dir>/worker-<pid>.json`` whenever ``ShardWorld.final_payload``
runs; :func:`collect_worker_dumps` merges those files back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass

#: ``(layer, module, class or None, attribute)`` for every wrapped entry.
#: ``class`` ``None`` wraps a module-level function in that module's
#: namespace (where its callers look it up).  Event callbacks such as
#: ``Kernel._end_slice`` are wrapped because that is where the simulator
#: hands control to the layer.
WRAPPED = (
    ("sim", "repro.sim.engine", "Simulator", "run_until"),
    ("sim", "repro.sim.engine", "Simulator", "run_epoch"),
    ("kernel", "repro.kernel.kernel", "Kernel", "_end_slice"),
    ("kernel", "repro.kernel.kernel", "Kernel", "_wake"),
    ("kernel", "repro.kernel.kernel", "Kernel", "_finish_io"),
    ("kernel", "repro.kernel.kernel", "Kernel", "_deliver"),
    ("kernel", "repro.kernel.kernel", "Kernel", "inject"),
    ("hardware", "repro.hardware.machine", "Machine", "checkpoint"),
    ("hardware", "repro.hardware.meters", "_PeriodicMeter", "_tick"),
    ("core", "repro.core.accounting", "CoreAccountant", "sample"),
    ("core", "repro.core.batch", "BatchAccountingEngine", "sample_all"),
    ("core", "repro.core.recalibration", "OnlineRecalibrator", "recalibrate"),
    ("core", "repro.core.facility", None, "estimate_delay"),
    ("core", "repro.core.facility", "PowerContainerFacility", "_os_tick"),
    ("core", "repro.core.facility", "PowerContainerFacility", "_trace_tick"),
    ("core", "repro.core.facility", "PowerContainerFacility",
     "_recalib_tick"),
    ("workloads", "repro.workloads.base", "OpenLoopDriver", "_arrive"),
    ("shard", "repro.shard.coordinator", "ShardedClusterRun",
     "run_one_epoch"),
    ("shard", "repro.shard.scheduler", "PowerAwareScheduler", "place"),
    ("shard", "repro.shard.pool", "ShardPool", "run_epoch"),
    ("shard", "repro.shard.pool", "ShardPool", "finish"),
    ("shard", "repro.shard.pool", "_ShardExecutor", "execute"),
    ("shard", "repro.shard.pool", "_ProcessWorker", "exchange_frames"),
    ("shard", "repro.shard.worker", "ShardWorld", "deliver"),
    ("shard", "repro.shard.worker", "ShardWorld", "run_epoch"),
    ("shard", "repro.shard.worker", "ShardWorld", "_inject"),
    ("telemetry", "repro.telemetry.aggregate", "FrameDrain", "drain"),
    ("telemetry", "repro.telemetry.aggregate", "TelemetryFrame", "to_wire"),
    ("telemetry", "repro.telemetry.tracer", "RequestTracer", "begin"),
    ("telemetry", "repro.telemetry.tracer", "RequestTracer", "end"),
    ("telemetry", "repro.telemetry.tracer", "RequestTracer", "instant"),
    ("telemetry", "repro.telemetry.tracer", "RequestTracer", "counter"),
    ("telemetry", "repro.telemetry.aggregate", "ClusterObservability",
     "observe_epoch"),
)

#: The facility's ``KernelHooks`` callbacks (layer ``core``).
HOOKS = (
    "on_dispatch", "on_undispatch", "on_overflow", "on_binding_change",
    "on_fork", "on_exit", "on_send", "on_recv", "on_io", "on_sync",
    "export_stats",
)

#: Span names kept whole (few per epoch) for interval arithmetic.
RETAINED = ("ShardPool.run_epoch", "_ShardExecutor.execute")


@dataclass(frozen=True)
class Span:
    """One finished span of a hand-built or retained span tree."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None


def union(intervals) -> list[tuple[float, float]]:
    """Disjoint, sorted intervals covering the same time as ``intervals``."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    return sum(end - start for start, end in union(intervals))


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.span_id: (span.end - span.start)
        - covered(children[span.span_id])
        for span in spans
    }


class SpanRecorder:
    """Per-process span aggregates plus the retained coarse spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        clock = self.clock
        retain = name in RETAINED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            self.stack.append(frame)
            self.depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                duration = end - frame[0]
                self.calls[name] += 1
                self.self_time[name] += duration - frame[1]
                self.depth[name] -= 1
                if self.depth[name] == 0:
                    # Recursive calls of one name count once inclusively.
                    self.inclusive[name] += duration
                if self.stack:
                    self.stack[-1][1] += duration
                if retain:
                    self.spans.append((name, frame[0], end, os.getpid()))

        return traced

    # -- moving state between processes ---------------------------------
    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
            "spans": list(self.spans),
        }

    def merge(self, state: dict) -> None:
        for key in ("calls", "inclusive", "self_time", "counters"):
            target = getattr(self, key)
            for name, value in state[key].items():
                target[name] += value
        self.spans.extend(tuple(span) for span in state["spans"])


def _entries():
    """Resolve :data:`WRAPPED` and :data:`HOOKS` to patchable owners."""
    out = []
    for layer, module_name, class_name, attr in WRAPPED:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        name = attr if class_name is None else f"{class_name}.{attr}"
        out.append((layer, owner, attr, name))
    facility = importlib.import_module("repro.core.facility")
    for attr in HOOKS:
        out.append((
            "core", facility.PowerContainerFacility, attr,
            f"PowerContainerFacility.{attr}",
        ))
    return out


def layer_of() -> dict[str, str]:
    """Span name -> layer name."""
    return {name: layer for layer, _owner, _attr, name in _entries()}


class Tracing:
    """Installs and removes the wrappers; owns the recorder and dumps.

    Use as a context manager around building *and* running one world.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.recorder = SpanRecorder()
        self.main_pid = os.getpid()
        self.worker_index: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        os.makedirs(out_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._in_child)

    def __enter__(self) -> "Tracing":
        self.recorder.reset()
        for _layer, owner, attr, name in _entries():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original))
        world_cls = importlib.import_module("repro.shard.worker").ShardWorld
        original_final = world_cls.__dict__["final_payload"]
        self._saved.append((world_cls, "final_payload", original_final))
        setattr(world_cls, "final_payload", self._dumping(original_final))
        return self

    def __exit__(self, *_exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _in_child(self) -> None:
        # A forked worker must not report the coordinator's spans.
        if self._saved:
            self.recorder.reset()
            self.worker_index = None

    def _dumping(self, final_payload):
        @functools.wraps(final_payload)
        def traced_final_payload(world):
            payload = final_payload(world)
            self.recorder.counters["sim.events"] += \
                world.cluster.simulator.events_processed
            if os.getpid() != self.main_pid:
                # Workers own shards round-robin, so the lowest shard id
                # a worker finalizes is its pool index.
                shard = world.config.shard_id
                if self.worker_index is None or shard < self.worker_index:
                    self.worker_index = shard
                state = dict(self.recorder.state(), worker=self.worker_index)
                path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
                with open(path + ".tmp", "w") as handle:
                    json.dump(state, handle)
                os.replace(path + ".tmp", path)
            return payload

        return traced_final_payload

    def collect_worker_dumps(self) -> list[tuple[int, dict]]:
        """Merge and delete every worker dump; ``[(worker index, state)]``."""
        dumps = []
        for name in sorted(os.listdir(self.out_dir)):
            if not (name.startswith("worker-") and name.endswith(".json")):
                continue
            path = os.path.join(self.out_dir, name)
            with open(path) as handle:
                state = json.load(handle)
            os.remove(path)
            self.recorder.merge(state)
            dumps.append((state["worker"], state))
        return dumps
