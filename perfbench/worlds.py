"""The benchmark's workloads, driven through ``repro``'s public entry points.

Each workload turns the benchmark seed into a fixed set of independent
sub-worlds (one derived seed each).  A *rep* builds one sub-world and runs
it to completion.  Every sub-world runs once and the simulated outcomes
are pooled over the set, so one seed's figures rest on several thousand
requests; the first ``timed_worlds`` are then repeated until the measuring
time is up, and host times come from their repeats.

* ``node-solr`` -- one SandyBridge machine serving Solr under open-loop
  Poisson arrivals at 0.6 load, with its 1 ms package meter driving
  online alignment and recalibration.  Driven in 0.25 s
  ``Simulator.run_until`` steps.
* ``cluster-solr`` -- the ``solr_macro_config`` world at 24 machines
  (all three machine specs), 4 shards on 2 fork workers, steady arrivals,
  no faults, telemetry off, clean transport.
* ``cluster-flash-observed`` -- a scaled-down ``diurnal_flash_config``:
  diurnal curve plus a flash crowd, machine crashes, rack caps tight
  enough to defer and shed, telemetry ``on`` and the ``lossy`` transport
  preset, 4 shards on 2 workers.

Worker counts are part of the workload definition, never read from the
host.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent sub-world seeds derived from ``seed``."""
    return [
        int(np.random.SeedSequence([int(seed), index]).generate_state(1)[0])
        for index in range(count)
    ]


def digest(lines) -> str:
    """SHA-256 over canonical text lines."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class RepOutcome:
    """What one timed rep of one sub-world produced."""

    #: Host seconds of the timed region (set-up excluded).
    seconds: float
    #: Host seconds per 0.25 s simulated epoch.
    epoch_seconds: list[float]
    #: Simulated requests completed.
    completed: int
    #: Canonical digest of every simulated output of the rep.
    fingerprint: str
    #: Broken invariants (empty when the rep is correct).
    violations: list[str]
    #: Simulated outcomes pooled over the sub-world set.
    response_seconds: list[float] = field(default_factory=list)
    requests: int = 0
    shed: int = 0
    attributed_joules: float = 0.0
    measured_joules: float = 0.0
    #: World building that happened inside the run call (pool start).
    extra_setup_seconds: float = 0.0
    #: Layer counters only the program's results know (traced run).
    layer_counts: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# node-solr
# ---------------------------------------------------------------------------
def node_fingerprint(driver, facility, measured_joules: float) -> str:
    """Digest of a single-machine run: every request plus energy totals."""
    lines = [
        f"events={facility.simulator.events_processed}",
        f"measured={measured_joules!r}",
    ]
    for approach in sorted(facility.models):
        lines.append(
            f"total:{approach}={facility.registry.total_energy(approach)!r}"
        )
    for result in driver.results:
        lines.append(
            f"req:{result.request_id}:{result.rtype}:{result.arrival!r}:"
            f"{result.completion!r}:{result.container.total_energy('recal')!r}"
        )
    return digest(lines)


@dataclass
class NodeSolr:
    """One machine, Solr at 0.6 load, package meter + recalibration."""

    name: str = "node-solr"
    worlds: int = 12
    timed_worlds: int = 2
    duration: float = 5.0
    load_fraction: float = 0.6
    step: float = 0.25
    spec_name: str = "sandybridge"

    def calibrate(self):
        from repro.core import calibrate_machine
        from repro.hardware.specs import spec_by_name

        return calibrate_machine(spec_by_name(self.spec_name))

    def build(self, calibration, seed: int):
        from repro.hardware.specs import spec_by_name
        from repro.workloads import SolrWorkload, prepare_workload

        return prepare_workload(
            SolrWorkload(), spec_by_name(self.spec_name), calibration,
            self.load_fraction, duration=self.duration, warmup=0.0, seed=seed,
        )

    def run(self, live, clock) -> RepOutcome:
        """Drive the world in ``step`` slices; same phases as ``finish``."""
        sim = live.simulator
        steps = int(round(self.duration / self.step))
        epochs = []
        start = clock()
        live.machine.checkpoint()
        start_energy = live.machine.integrator.active_joules
        for index in range(1, steps + 1):
            before = clock()
            sim.run_until(min(index * self.step, self.duration))
            epochs.append(clock() - before)
        live.facility.flush()
        live.machine.checkpoint()
        seconds = clock() - start
        measured = live.machine.integrator.active_joules - start_energy
        return self._outcome(live.driver, live.facility, measured, seconds,
                             epochs)

    def reference_fingerprint(self, calibration, seed: int) -> str:
        """The program's own one-shot ``run_workload`` on the same input."""
        from repro.hardware.specs import spec_by_name
        from repro.workloads import SolrWorkload, run_workload

        run = run_workload(
            SolrWorkload(), spec_by_name(self.spec_name), calibration,
            self.load_fraction, duration=self.duration, warmup=0.0, seed=seed,
        )
        return node_fingerprint(
            run.driver, run.facility, run.measured_active_joules
        )

    def _outcome(self, driver, facility, measured, seconds, epochs):
        results = driver.results
        attributed = facility.registry.total_energy("recal")
        violations = []
        if not math.isfinite(attributed) or attributed <= 0.0:
            violations.append(f"attributed energy {attributed!r}")
        if not math.isfinite(measured) or measured <= 0.0:
            violations.append(f"measured energy {measured!r}")
        requests = len(results) + len(driver.inflight)
        if len({r.request_id for r in results}) != len(results):
            violations.append("a request completed twice")
        recalibrators = facility.recalibrators.values()
        accepted = sum(r.recalibration_count for r in recalibrators)
        rejected = sum(r.rolled_back_count for r in recalibrators)
        return RepOutcome(
            seconds=seconds,
            epoch_seconds=epochs,
            completed=len(results),
            fingerprint=node_fingerprint(driver, facility, measured),
            violations=violations,
            response_seconds=[r.response_time for r in results],
            requests=requests,
            attributed_joules=attributed,
            measured_joules=measured,
            layer_counts={
                "sim.events": float(facility.simulator.events_processed),
                "core.recal_accepted": float(accepted),
                "core.recal_attempted": float(accepted + rejected),
            },
        )


# ---------------------------------------------------------------------------
# cluster workloads
# ---------------------------------------------------------------------------
def cluster_fingerprint(result) -> str:
    """Digest of a sharded run: its four fingerprints plus telemetry's."""
    lines = [f"{key}={value}" for key, value in
             sorted(result.fingerprints.items())]
    summary = result.telemetry_summary
    for key in ("trace_fingerprint", "alert_fingerprint",
                "store_fingerprint"):
        if key in summary:
            lines.append(f"{key}={summary[key]}")
    return digest(lines)


@dataclass
class Cluster:
    """A sharded run on a fixed worker count, timed per barrier."""

    name: str
    scenario: str
    worlds: int
    n_machines: int
    duration: float
    timed_worlds: int = 1
    workers: int = 2
    n_shards: int = 4
    transport: str | None = None
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int, workers: int):
        from repro.shard import SCENARIOS

        config = SCENARIOS[self.scenario](
            n_shards=self.n_shards, workers=workers, seed=seed,
            n_machines=self.n_machines, duration=self.duration,
        )
        return replace(config, **self.overrides)

    def transport_plan(self):
        from repro.shard import transport_preset

        return transport_preset(self.transport)

    def calibrate(self):
        from repro.core import calibrate_machine
        from repro.hardware.specs import spec_by_name
        from repro.shard.coordinator import SPEC_CYCLE

        return {
            spec_name: calibrate_machine(spec_by_name(spec_name))
            for spec_name in SPEC_CYCLE
        }

    def build(self, calibrations, seed: int):
        from repro.shard import ShardedClusterRun

        return ShardedClusterRun(self.config(seed, self.workers), calibrations)

    def run(self, run, clock) -> RepOutcome:
        """``ShardedClusterRun.run`` with every barrier timed.

        The per-epoch timer and the completion tap are instance attributes
        that call straight through, so the program's own loop drives the
        run.  The epoch-0 hook waits until every worker has built its
        shards: pool start-up is set-up, not run time.
        """
        marks: dict[str, float] = {"called": clock()}
        epochs: list[float] = []
        responses: list[float] = []

        def ready(pool, epoch_index: int) -> None:
            if epoch_index == 0:
                pool.transport_stats()  # raw round trip to every worker
                marks["ready"] = clock()

        one_epoch = run.run_one_epoch
        note_completed = run.scheduler.note_completed

        def timed_epoch(pool, epoch_index):
            before = clock()
            one_epoch(pool, epoch_index)
            epochs.append(clock() - before)

        def tap_completed(record):
            responses.append(record.response_time)
            note_completed(record)

        run.run_one_epoch = timed_epoch
        run.scheduler.note_completed = tap_completed
        result = run.run(pool_hook=ready, transport_plan=self.transport_plan())
        end = clock()
        return self._outcome(
            result, end - marks["ready"], epochs, responses,
            marks["ready"] - marks["called"],
        )

    def reference_fingerprint(self, calibrations, seed: int) -> str:
        """The program's own one-shot ``run_sharded`` on one worker."""
        from repro.shard import run_sharded

        result = run_sharded(
            self.config(seed, 1), calibrations,
            transport_plan=self.transport_plan(),
        )
        return cluster_fingerprint(result)

    def _outcome(self, result, seconds, epochs, responses, extra_setup):
        violations = []
        accounted = result.completed + result.shed + result.unfinished
        if accounted != result.n_requests:
            violations.append(
                f"completed+shed+unfinished={accounted} != "
                f"requests={result.n_requests}"
            )
        if result.unfinished != 0:
            violations.append(f"unfinished={result.unfinished}")
        if len(responses) != result.completed:
            violations.append(
                f"{len(responses)} completions seen, {result.completed} "
                "reported"
            )
        # Accuracy is judged on machines that never crashed: a crash
        # strands its in-flight requests, whose energy is measured but by
        # design never attributed (the request is re-run elsewhere).
        rows = [row for row in result.machine_rows if row[4] == 0]
        stats = result.scheduler_stats
        transport = result.transport_stats
        return RepOutcome(
            seconds=seconds,
            epoch_seconds=epochs,
            completed=result.completed,
            fingerprint=cluster_fingerprint(result),
            violations=violations,
            response_seconds=responses,
            requests=result.n_requests,
            shed=result.shed,
            attributed_joules=sum(row[2] for row in rows),
            measured_joules=sum(row[3] for row in rows),
            extra_setup_seconds=extra_setup,
            layer_counts={
                "shard.place_attempts": stats["placed"]
                + stats["deferred_total"] + stats["shed"],
                "shard.deferrals": stats["deferred_total"],
                "shard.transport_retransmits": float(
                    transport.get("retransmits", 0)
                ),
                "shard.transport_applied": float(
                    transport.get("worker_applied", 0)
                ),
                "shard.transport_sent": float(
                    transport.get("data_sent", 0)
                    + transport.get("probes_sent", 0)
                ),
                "telemetry.events_merged": float(
                    result.telemetry_summary.get("events_merged", 0)
                ),
            },
        )


def cluster_solr(**sizes) -> Cluster:
    sizes = {"worlds": 2, "n_machines": 24, "duration": 1.0, **sizes}
    return Cluster(name="cluster-solr", scenario="solr", **sizes)


def cluster_flash_observed(**sizes) -> Cluster:
    """``diurnal_flash_config`` scaled to 6 machines and 1 s per world.

    The diurnal period, flash window and crash count are scaled with the
    window; rack caps sit at 0.56 of peak so the flash crowd defers and
    sheds.
    """
    sizes = {"worlds": 2, "n_machines": 6, "duration": 1.0, **sizes}
    window = sizes["duration"]
    return Cluster(
        name="cluster-flash-observed",
        scenario="flash",
        transport="lossy",
        overrides={
            "telemetry": "on",
            "diurnal_period": window,
            "flash_start": 0.4 * window,
            "flash_duration": 0.25 * window,
            "faults": 2,
            "fault_outage": 0.3 * window,
            "oversub_fraction": 0.56,
        },
        **sizes,
    )


WORKLOADS = {
    "node-solr": NodeSolr,
    "cluster-solr": cluster_solr,
    "cluster-flash-observed": cluster_flash_observed,
}
