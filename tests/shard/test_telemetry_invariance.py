"""Cluster-scale telemetry invariance: the observability tentpole.

Three guarantees over the sharded stack:

* **neutrality** -- report/shed/batch/energy fingerprints are
  bit-identical with telemetry on, off, "store", or "disabled";
* **merge invariance** -- the merged ``trace_fingerprint()``, every
  store query, and ``alert_fingerprint()`` are identical across shard
  counts {1, 2, 4}, hypothesis-drawn seeds included;
* **crash transparency** -- a seeded mid-run worker SIGKILL (replay
  recovery) leaves all of the above bit-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ShardRunConfig, run_sharded

SHARD_COUNTS = (1, 2, 4)

#: Every digest the observability layer must reproduce bit-for-bit.
TELEMETRY_KEYS = (
    "trace_fingerprint", "alert_fingerprint", "store_fingerprint",
)


def _config(seed, n_shards, telemetry="on", **overrides):
    values = dict(
        workload="solr",
        n_machines=6,
        n_shards=n_shards,
        duration=0.5,
        epoch=0.25,
        seed=seed,
        load_fraction=0.4,
        rack_size=3,
        oversub_fraction=0.8,
        telemetry=telemetry,
    )
    values.update(overrides)
    return ShardRunConfig(**values)


def _query_surface(result):
    """Every deterministic query output the store must reproduce."""
    store = result.observability.store
    return (
        store.store_fingerprint(),
        tuple(tuple(row.items()) for row in store.top_energy()),
        tuple(sorted(
            (rtype, tuple(sorted(values.items())))
            for rtype, values in store.joules_percentiles().items()
        )),
        tuple(
            (rack, tuple(map(tuple, points)))
            for rack, points in sorted(store.rack_power_series().items())
        ),
        tuple(map(tuple, store.window_table())),
    )


def test_telemetry_modes_never_change_run_fingerprints():
    baseline = run_sharded(_config(42, 2, telemetry="off"))
    for mode in ("disabled", "store", "on"):
        result = run_sharded(_config(42, 2, telemetry=mode))
        assert result.fingerprints == baseline.fingerprints, mode
    assert baseline.observability is None
    assert baseline.telemetry_summary == {}


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_merged_telemetry_invariant_across_shard_counts(seed):
    results = {
        n: run_sharded(_config(seed, n)) for n in SHARD_COUNTS
    }
    baseline = results[1]
    for n in SHARD_COUNTS[1:]:
        for key in TELEMETRY_KEYS:
            assert (results[n].telemetry_summary[key]
                    == baseline.telemetry_summary[key]), (key, n)
        assert (results[n].telemetry_summary["events_merged"]
                == baseline.telemetry_summary["events_merged"])
        assert _query_surface(results[n]) == _query_surface(baseline)


def test_store_mode_matches_frames_mode_on_store_outputs():
    """Mode "store" (no frames) must roll up the completion stream to
    the same store/alert digests as mode "on" -- only the merged trace
    is extra."""
    frames = run_sharded(_config(11, 2, telemetry="on"))
    store_only = run_sharded(_config(11, 2, telemetry="store"))
    assert (store_only.telemetry_summary["store_fingerprint"]
            == frames.telemetry_summary["store_fingerprint"])
    assert (store_only.telemetry_summary["alert_fingerprint"]
            == frames.telemetry_summary["alert_fingerprint"])
    assert store_only.telemetry_summary["trace_fingerprint"] is None
    assert store_only.observability.aggregator is None


def test_merged_telemetry_survives_worker_sigkill():
    """SIGKILL one fork worker mid-run: replay recovery must regenerate
    the dead worker's frames bit-for-bit (the drain is a pure function
    of directives), leaving every merged digest identical."""
    chaos = dict(workload="chaos", n_machines=6, faults=2,
                 fault_outage=0.3, duration=1.0)
    clean = run_sharded(_config(7, 4, workers=1, **chaos))
    killed = {"done": False}

    def hook(pool, epoch_index):
        if epoch_index == 2 and pool.parallel and not killed["done"]:
            pool.kill_worker(0)
            killed["done"] = True

    result = run_sharded(_config(7, 4, workers=2, **chaos),
                         pool_hook=hook)
    if not killed["done"]:
        pytest.skip("fork start method unavailable")
    assert result.worker_restarts >= 1
    assert result.fingerprints == clean.fingerprints
    assert result.telemetry_summary == clean.telemetry_summary
    assert _query_surface(result) == _query_surface(clean)
    assert _chrome(result) == _chrome(clean)


def _chrome(result) -> str:
    return result.observability.aggregator.to_chrome_json()


def test_merged_chrome_trace_invariant_across_shard_counts():
    """The exported merged trace, not only its fingerprint, is the same
    for every shard count (and therefore worker layout)."""
    chaos = dict(workload="chaos", n_machines=6, faults=2,
                 fault_outage=0.3, duration=1.0)
    baseline = _chrome(run_sharded(_config(5, 1, **chaos)))
    assert '"traceEvents"' in baseline
    for n in SHARD_COUNTS[1:]:
        assert _chrome(run_sharded(_config(5, n, **chaos))) == baseline, n
    two_workers = run_sharded(_config(5, 4, workers=2, **chaos))
    assert _chrome(two_workers) == baseline


@pytest.mark.parametrize("capacity", [65536, 200])
def test_merged_chrome_trace_survives_a_barrier_checkpoint_resume(
    capacity, tmp_path
):
    """Resuming the coordinator from any barrier checkpoint rebuilds the
    retained ring exactly -- also when the ring has been trimmed."""
    from repro.checkpoint import CheckpointManager
    from repro.shard import ShardCheckpointPolicy, resume_sharded

    config = _config(9, 2, telemetry_capacity=capacity, duration=1.0)
    clean = run_sharded(config)
    if capacity < 65536:
        assert clean.observability.aggregator.tracer.dropped_events > 0
    run_sharded(
        config,
        checkpoint=ShardCheckpointPolicy(directory=str(tmp_path), every=1),
    )
    indices = CheckpointManager(str(tmp_path)).indices()
    assert indices
    for index in indices:
        resumed = resume_sharded(str(tmp_path), index=index)
        assert resumed.resumed
        assert resumed.telemetry_summary == clean.telemetry_summary, index
        assert _chrome(resumed) == _chrome(clean), index
        assert (resumed.observability.aggregator.snapshot_state()
                == clean.observability.aggregator.snapshot_state()), index


def test_frame_chain_digest_gates_replay():
    """The worker's frame-chain digest lives inside ``state_summary()``,
    so replay verification rejects divergent telemetry the same way it
    rejects divergent physics."""
    from repro.shard.worker import ShardConfig, ShardWorld

    config = ShardConfig(
        0, (("m0", "sandybridge"),), "solr", telemetry="on",
    )
    world = ShardWorld.build(config, _calibrations())
    world.run_epoch(0.25)
    frame = world.drain_frame()
    assert frame is not None
    summary = world.state_summary()
    assert summary["telemetry"]["frames"] == 1
    # An identically-driven world ships the identical chain; draining
    # is part of the epoch protocol, so the summaries match exactly.
    twin = ShardWorld.build(config, _calibrations())
    twin.run_epoch(0.25)
    assert twin.drain_frame() == frame
    assert twin.state_summary() == summary


def _calibrations():
    from repro.faults.harness import chaos_calibration
    from repro.hardware.specs import spec_by_name

    return {"sandybridge": chaos_calibration(spec_by_name("sandybridge"))}
