"""Measurement loop, output checks and metric reduction.

One invocation measures one workload:

1. **Set-up**: calibrate ``SETUP_REPEATS`` times; every rep also builds
   its world.  ``setup_s`` is the median calibration plus the median
   build, and no other timing includes either.
2. **Reps** for ``seconds``: every sub-world runs once, then the first
   ``timed_worlds`` of them are repeated, in whole cycles, until the time
   is up.  Simulated outcomes are pooled over all sub-worlds; host times
   are the best repeat of each epoch of the repeated ones (see
   :func:`best_of_reps`).  Every rep is checked: it fails if it raises,
   breaks an invariant, or its fingerprint differs from the first rep of
   the same sub-world.
3. **Equivalence self-check**, outside the timing: the program's own
   one-shot entry point (``run_workload``, or ``run_sharded`` on one
   worker) must reproduce the fingerprint of the stepped, multi-worker
   rep of sub-world 0.

The traced run (``trace=True``) repeats the timed sub-worlds alternating
an untraced and a traced rep of each.  Its per-layer figures are totals over one cycle of
traced reps, median over cycles, and ``trace_overhead_ratio`` is the
best-of-reps traced host time over the untraced one.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from perfbench.tracing import HOOKS, SpanRecorder, Tracing, layer_of, \
    union
from perfbench.worlds import RepOutcome, derive_seeds

#: Calibrations per invocation (``setup_s`` takes their median).
SETUP_REPEATS = 3

#: ``(name, unit)`` of every end-to-end metric printed in the JSON line.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("attribution_error_pct", "%"),
    ("sim_response_ms_p99", "sim_ms"),
)

#: End-to-end metrics that are legitimately zero on some workloads (no
#: request is ever shed on one machine; no run fails at a good commit).
#: They are printed in the report; ``error_rate`` also reaches the JSON
#: line as ``failed`` / ``attempted``.
REPORT_ONLY = (
    ("shed_pct", "%"),
    ("error_rate", "ratio"),
)

#: ``(name, unit)`` of every per-layer metric of the traced run.
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.hook_calls", "count"),
    ("hardware.self_s", "s"),
    ("hardware.checkpoint_calls", "count"),
    ("hardware.checkpoints_per_event", "ratio"),
    ("hardware.checkpoint_s", "s"),
    ("core.self_s", "s"),
    ("core.sample_calls", "count"),
    ("core.sample_s", "s"),
    ("core.sample_all_calls", "count"),
    ("core.sample_all_s", "s"),
    ("core.hook_s", "s"),
    ("core.recal_calls", "count"),
    ("core.recal_s", "s"),
    ("core.align_s", "s"),
    ("core.recal_accept_ratio", "ratio"),
    ("shard.pool_wait_s", "s"),
    ("shard.worker0_busy_s", "s"),
    ("shard.worker1_busy_s", "s"),
    ("shard.worker_overlap_ratio", "ratio"),
    ("shard.parallel_efficiency", "ratio"),
    ("shard.coordinator_self_s", "s"),
    ("shard.place_calls", "count"),
    ("shard.place_s", "s"),
    ("shard.defer_ratio", "ratio"),
    ("shard.transport_rounds", "count"),
    ("shard.transport_retransmits", "count"),
    ("shard.transport_useful_ratio", "ratio"),
    ("telemetry.record_calls", "count"),
    ("telemetry.record_s", "s"),
    ("telemetry.drain_s", "s"),
    ("telemetry.observe_s", "s"),
    ("telemetry.events_merged", "count"),
    ("telemetry.share", "ratio"),
    ("trace_overhead_ratio", "ratio"),
)

_RECORD_SPANS = tuple(
    f"RequestTracer.{name}" for name in ("begin", "end", "instant", "counter")
)


@dataclass
class Checks:
    """Per-rep output checks feeding ``error_rate``."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Sub-world index -> first rep's outcome (its fingerprint is the set's).
    first: dict[int, RepOutcome] = field(default_factory=dict)

    def attempt(self, world: int, rep):
        """Run ``rep()``; returns its outcome, or ``None`` if it failed."""
        self.attempted += 1
        try:
            outcome = rep()
        except Exception:  # a failing run is a measurement, not a crash
            return self._fail(world, traceback.format_exc(limit=3))
        if outcome.violations:
            return self._fail(world, "; ".join(outcome.violations))
        reference = self.first.setdefault(world, outcome)
        if outcome.fingerprint != reference.fingerprint:
            return self._fail(
                world, f"fingerprint {outcome.fingerprint[:12]} != first "
                f"{reference.fingerprint[:12]}"
            )
        return outcome

    def self_check(self, reference: str) -> None:
        """Count the one-shot equivalence check as one more run."""
        self.attempted += 1
        first = self.first.get(0)
        if first is None or first.fingerprint != reference:
            self.failed += 1
            self.failures.append(
                "self-check: one-shot run does not reproduce the stepped, "
                "multi-worker rep of sub-world 0"
            )

    def _fail(self, world: int, reason: str):
        self.failed += 1
        self.failures.append(f"sub-world {world}: {reason}")
        return None


@dataclass
class Measurement:
    """Everything one invocation produced."""

    workload: str
    seed: int
    checks: Checks
    metrics: dict[str, tuple[float, str]]
    report: dict[str, tuple[float, str]]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.checks.failed == 0 and len(self.checks.first) > 0


def _peak_rss_mb() -> float:
    """Coordinator peak plus the largest reaped worker's peak (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _timed_rep(workload, calibration, seed, clock, setups):
    start = clock()
    world = workload.build(calibration, seed)
    built = clock() - start
    outcome = workload.run(world, clock)
    setups.append(built + outcome.extra_setup_seconds)
    return outcome


def _calibrate(workload, clock):
    samples = []
    calibration = None
    for _ in range(SETUP_REPEATS):
        start = clock()
        calibration = workload.calibrate()
        samples.append(clock() - start)
    return calibration, samples


def best_of_reps(outcomes: list[RepOutcome]) -> tuple[list[float], float]:
    """Per-epoch best host time over repeated reps of one sub-world.

    Every rep of a sub-world does identical work, epoch by epoch, and
    interference from other tenants of the host only ever adds time, so
    the fastest repeat of each epoch estimates that epoch's cost.  Returns
    the per-epoch best times and the best time outside the epochs (run
    finish and result packaging).
    """
    epochs = [min(column) for column in
              zip(*(rep.epoch_seconds for rep in outcomes))]
    rest = min(rep.seconds - sum(rep.epoch_seconds) for rep in outcomes)
    return epochs, rest


def best_seconds(reps: dict[int, list[RepOutcome]]) -> float:
    """Best-of-repeats host time of one cycle over every sub-world."""
    total = 0.0
    for outcomes in reps.values():
        best, rest = best_of_reps(outcomes)
        total += sum(best) + rest
    return total


def end_to_end(checks: Checks, timed: dict[int, list[RepOutcome]],
               calibrations: list[float], builds: list[float],
               peak_rss_mb: float) -> dict:
    """Reduce the reps to the end-to-end metrics (plus report-only).

    Host times come from :func:`best_of_reps` over the repeated sub-worlds
    ``timed``: ``requests_per_s`` is their completed requests over the sum
    of their best epoch and finishing times, and the epoch percentiles are
    taken over the best epoch times.  Simulated outcomes pool the first
    rep of every sub-world.
    """
    firsts = [checks.first[k] for k in sorted(checks.first)]
    epochs = [s for k in sorted(timed) for s in best_of_reps(timed[k])[0]]
    responses = [s for rep in firsts for s in rep.response_seconds]
    attributed = sum(rep.attributed_joules for rep in firsts)
    measured = sum(rep.measured_joules for rep in firsts)
    requests = sum(rep.requests for rep in firsts)
    values = {
        "setup_s": statistics.median(calibrations)
        + statistics.median(builds),
        "requests_per_s": sum(timed[k][0].completed for k in timed)
        / best_seconds(timed),
        "epoch_ms_p50": float(np.percentile(epochs, 50)) * 1e3,
        "epoch_ms_p90": float(np.percentile(epochs, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "attribution_error_pct": 100.0 * abs(attributed - measured)
        / measured,
        "sim_response_ms_p99": float(np.percentile(responses, 99)) * 1e3,
        "shed_pct": 100.0 * sum(rep.shed for rep in firsts) / requests,
        "error_rate": checks.failed / checks.attempted,
    }
    units = dict(END_TO_END + REPORT_ONLY)
    return {name: (value, units[name]) for name, value in values.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _overlap(spans) -> tuple[float, float]:
    """(wall, both-busy) seconds over the pool's epoch windows.

    Windows are the coordinator's ``ShardPool.run_epoch`` spans; busy
    intervals are the workers' ``_ShardExecutor.execute`` spans, keyed by
    process, clipped to each window.
    """
    windows = [(s, e) for name, s, e, _pid in spans
               if name == "ShardPool.run_epoch"]
    busy: dict[int, list] = defaultdict(list)
    for name, start, end, pid in spans:
        if name == "_ShardExecutor.execute":
            busy[pid].append((start, end))
    wall = sum(end - start for start, end in windows)
    both = 0.0
    for w_start, w_end in windows:
        edges = []
        for intervals in busy.values():
            clipped = [(max(s, w_start), min(e, w_end))
                       for s, e in intervals if s < w_end and e > w_start]
            # One worker counts once however its intervals touch.
            merged = union(clipped)
            edges.extend((s, 1) for s, _e in merged)
            edges.extend((e, -1) for _s, e in merged)
        level, last = 0, w_start
        for instant, step in sorted(edges):
            if level >= 2:
                both += instant - last
            level += step
            last = instant
    return wall, both


def layer_metrics(recorder: SpanRecorder, busy_by_worker: dict[int, float],
                  workers: int) -> dict[str, float]:
    """Per-layer figures from one cycle of traced reps."""
    layers = layer_of()
    self_by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in recorder.self_time.items():
        self_by_layer[layers[name]] += seconds
    calls, incl, counts = recorder.calls, recorder.inclusive, \
        recorder.counters
    hooks = [f"PowerContainerFacility.{name}" for name in HOOKS]
    wall, both = _overlap(recorder.spans)
    busy = sum(busy_by_worker.values())
    telemetry_s = self_by_layer["telemetry"]
    return {
        "sim.events": counts["sim.events"],
        "sim.self_s": self_by_layer["sim"],
        "kernel.self_s": self_by_layer["kernel"],
        "kernel.hook_calls": float(sum(calls[n] for n in hooks)),
        "hardware.self_s": self_by_layer["hardware"],
        "hardware.checkpoint_calls": float(calls["Machine.checkpoint"]),
        "hardware.checkpoints_per_event": _ratio(
            calls["Machine.checkpoint"], counts["sim.events"]
        ),
        "hardware.checkpoint_s": incl["Machine.checkpoint"],
        "core.self_s": self_by_layer["core"],
        "core.sample_calls": float(calls["CoreAccountant.sample"]),
        "core.sample_s": incl["CoreAccountant.sample"],
        "core.sample_all_calls": float(
            calls["BatchAccountingEngine.sample_all"]
        ),
        "core.sample_all_s": incl["BatchAccountingEngine.sample_all"],
        "core.hook_s": sum(incl[n] for n in hooks),
        "core.recal_calls": float(calls["OnlineRecalibrator.recalibrate"]),
        "core.recal_s": incl["OnlineRecalibrator.recalibrate"],
        "core.align_s": incl["estimate_delay"],
        "core.recal_accept_ratio": _ratio(
            counts["core.recal_accepted"], counts["core.recal_attempted"]
        ),
        "shard.pool_wait_s": incl["ShardPool.run_epoch"]
        + incl["ShardPool.finish"],
        "shard.worker0_busy_s": busy_by_worker.get(0, 0.0),
        "shard.worker1_busy_s": busy_by_worker.get(1, 0.0),
        "shard.worker_overlap_ratio": _ratio(both, wall),
        "shard.parallel_efficiency": _ratio(busy, workers * wall),
        "shard.coordinator_self_s": recorder.self_time[
            "ShardedClusterRun.run_one_epoch"
        ],
        "shard.place_calls": float(calls["PowerAwareScheduler.place"]),
        "shard.place_s": incl["PowerAwareScheduler.place"],
        "shard.defer_ratio": _ratio(
            counts["shard.deferrals"], counts["shard.place_attempts"]
        ),
        "shard.transport_rounds": float(
            calls["_ProcessWorker.exchange_frames"]
        ),
        "shard.transport_retransmits": counts["shard.transport_retransmits"],
        "shard.transport_useful_ratio": _ratio(
            counts["shard.transport_applied"], counts["shard.transport_sent"]
        ),
        "telemetry.record_calls": float(sum(calls[n] for n in _RECORD_SPANS)),
        "telemetry.record_s": sum(incl[n] for n in _RECORD_SPANS),
        "telemetry.drain_s": incl["FrameDrain.drain"]
        + incl["TelemetryFrame.to_wire"],
        "telemetry.observe_s": incl["ClusterObservability.observe_epoch"],
        "telemetry.events_merged": counts["telemetry.events_merged"],
        "telemetry.share": _ratio(telemetry_s, sum(self_by_layer.values())),
    }


def _worker_busy(tracing: Tracing) -> dict[int, float]:
    """Merge this rep's worker dumps; busy seconds per worker index."""
    busy: dict[int, float] = {}
    for index, state in tracing.collect_worker_dumps():
        busy[index] = busy.get(index, 0.0) + sum(
            end - start for name, start, end, _pid in state["spans"]
            if name == "_ShardExecutor.execute"
        )
    return busy


def measure(workload, seed: int, seconds: float, trace: bool = False,
            out_dir: str | None = None) -> Measurement:
    """Run one invocation of the benchmark on one workload."""
    clock = time.perf_counter
    checks = Checks()
    calibration, calibrations = _calibrate(workload, clock)
    seeds = derive_seeds(seed, workload.worlds)
    builds: list[float] = []
    reps: dict[int, list[RepOutcome]] = defaultdict(list)
    traced_reps: dict[int, list[RepOutcome]] = defaultdict(list)
    cycles: list[dict[str, float]] = []
    tracing = Tracing(out_dir) if trace else None
    deadline = clock() + seconds
    repeated = range(workload.timed_worlds)
    try:
        for k, world_seed in enumerate(seeds):
            outcome = checks.attempt(k, lambda: _timed_rep(
                workload, calibration, world_seed, clock, builds
            ))
            if outcome is not None:
                reps[k].append(outcome)
        cycle = 0
        while cycle == 0 or clock() < deadline:
            if tracing is None:
                for k in repeated:
                    outcome = checks.attempt(k, lambda: _timed_rep(
                        workload, calibration, seeds[k], clock, builds
                    ))
                    if outcome is not None:
                        reps[k].append(outcome)
            else:
                figures = _traced_cycle(
                    workload, calibration, seeds[:len(repeated)], cycle,
                    clock, checks, builds, reps, traced_reps, tracing,
                )
                if figures is not None:
                    cycles.append(figures)
            cycle += 1
        # Before the self-check, whose one-worker run is in-process.
        peak_rss_mb = _peak_rss_mb()
        checks.self_check(
            workload.reference_fingerprint(calibration, seeds[0])
        )
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(out_dir))
            except OSError:  # another invocation still owns it
                pass
    timed = {k: reps[k] for k in repeated if reps[k]}
    notes = [
        f"{workload.worlds} sub-worlds, "
        f"{sum(len(r.response_seconds) for r in checks.first.values())} "
        "simulated requests; host times from "
        + ", ".join(f"{len(timed[k])} reps" for k in timed)
        + f" of sub-world(s) {list(timed)}, "
        f"{sum(len(timed[k][0].epoch_seconds) for k in timed)} epochs",
    ] + checks.failures
    report: dict[str, tuple[float, str]] = {}
    metrics: dict[str, tuple[float, str]] = {}
    if len(checks.first) == workload.worlds:
        report = end_to_end(checks, timed, calibrations, builds,
                            peak_rss_mb)
        if tracing is None:
            metrics = {name: report[name] for name, _unit in END_TO_END}
    if tracing is not None and cycles:
        units = dict(PER_LAYER)
        metrics = {
            name: (statistics.median(c[name] for c in cycles), units[name])
            for name, _unit in PER_LAYER if name != "trace_overhead_ratio"
        }
        metrics["trace_overhead_ratio"] = (
            best_seconds(traced_reps) / best_seconds(timed), "ratio"
        )
    return Measurement(workload.name, seed, checks, metrics, report, notes)


def _traced_cycle(workload, calibration, seeds, cycle, clock, checks,
                  builds, reps, traced_reps, tracing):
    """One untraced and one traced rep per sub-world, order alternating."""
    merged = SpanRecorder()
    busy: dict[int, float] = defaultdict(float)
    ok = True
    for k, world_seed in enumerate(seeds):
        for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
            if not traced:
                outcome = checks.attempt(k, lambda: _timed_rep(
                    workload, calibration, world_seed, clock, builds
                ))
                if outcome is None:
                    ok = False
                    continue
                reps[k].append(outcome)
                continue
            with tracing:
                outcome = checks.attempt(k, lambda: _timed_rep(
                    workload, calibration, world_seed, clock, []
                ))
            rep_busy = _worker_busy(tracing)
            if outcome is None:
                ok = False
                continue
            traced_reps[k].append(outcome)
            for index, seconds in rep_busy.items():
                busy[index] += seconds
            for name, value in outcome.layer_counts.items():
                tracing.recorder.counters[name] += value
            merged.merge(tracing.recorder.state())
    if not ok:
        return None
    return layer_metrics(merged, dict(busy), getattr(workload, "workers", 1))
