"""Scatter/gather epochs keep every link's protocol rounds unchanged.

With fork workers, the pool keeps every worker's link in flight at once
and advances whichever answers first.  Each link owns its channel RNGs
and round counter, so the whole fault schedule -- and with it every
transport counter -- must equal the one-link-at-a-time schedule.  The
pinned dicts below are that schedule's counts for one fixed run; they are
integer counts drawn from seeded PCG64 streams, so they hold on any host.
"""

import multiprocessing

import pytest

from repro.shard import (
    TRANSPORT_PRESETS,
    ShardPool,
    WorkerQuarantinedError,
    run_sharded,
)
from repro.shard.scenario import solr_macro_config
from repro.shard.worker import ShardConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

#: ``transport_stats`` of the pinned 2-worker run, per weather preset.
PINNED_STATS = {
    "lossy": {
        "c2w_corrupted": 0, "c2w_delayed": 5, "c2w_delivered": 21,
        "c2w_dropped": 8, "c2w_duplicated": 3, "c2w_reordered": 4,
        "c2w_sent": 26, "corrupt_rejected": 0, "data_sent": 23,
        "duplicate_replies": 0, "pongs_received": 3, "probes_sent": 3,
        "requests": 12, "retransmits": 11, "w2c_corrupted": 0,
        "w2c_delayed": 3, "w2c_delivered": 18, "w2c_dropped": 5,
        "w2c_duplicated": 2, "w2c_reordered": 7, "w2c_sent": 21,
        "worker_applied": 12, "worker_corrupt_rejected": 0,
        "worker_duplicates_ignored": 6, "worker_out_of_order_ignored": 0,
        "worker_probes_answered": 3, "worker_restarts": 0,
    },
    "chaos": {
        "c2w_corrupted": 4, "c2w_delayed": 10, "c2w_delivered": 49,
        "c2w_dropped": 21, "c2w_duplicated": 13, "c2w_reordered": 13,
        "c2w_sent": 57, "corrupt_rejected": 4, "data_sent": 34,
        "duplicate_replies": 1, "pongs_received": 13, "probes_sent": 23,
        "requests": 12, "retransmits": 22, "w2c_corrupted": 3,
        "w2c_delayed": 11, "w2c_delivered": 45, "w2c_dropped": 12,
        "w2c_duplicated": 16, "w2c_reordered": 9, "w2c_sent": 43,
        "worker_applied": 12, "worker_corrupt_rejected": 6,
        "worker_duplicates_ignored": 15, "worker_out_of_order_ignored": 0,
        "worker_probes_answered": 16, "worker_restarts": 0,
    },
}


def _config():
    return solr_macro_config(n_shards=4, workers=2, n_machines=8,
                             duration=1.0)


@pytest.fixture(scope="module")
def clean():
    return run_sharded(_config())


@pytest.mark.parametrize("preset", sorted(PINNED_STATS))
def test_two_worker_round_schedule_is_pinned(preset, clean):
    result = run_sharded(
        _config(), transport_plan=TRANSPORT_PRESETS[preset](),
        transport_seed=7,
    )
    assert result.transport_stats == PINNED_STATS[preset]
    assert result.fingerprints == clean.fingerprints


def test_sibling_kill_under_weather_revives_only_that_worker(clean):
    """SIGKILL worker 1 while worker 0's link is also in flight: only
    worker 1 is revived and replayed, and the run lands on the clean
    fingerprints."""
    killed = {"done": False}

    def hook(pool, epoch_index):
        if epoch_index == 2 and not killed["done"]:
            assert pool.parallel and pool.n_workers == 2
            pool.kill_worker(1)
            killed["done"] = True

    result = run_sharded(
        _config(), pool_hook=hook,
        transport_plan=TRANSPORT_PRESETS["lossy"](), transport_seed=7,
    )
    assert killed["done"]
    assert result.worker_restarts == 1
    assert result.fingerprints == clean.fingerprints


def test_sibling_quarantine_leaves_every_pipe_idle(calibrations):
    """A terminal error on worker 1 while worker 0's round is still on
    its pipe must not leave that answer unread: the raw pipe protocol
    (here the endpoint-stats query) stays in step afterwards."""
    configs = [
        ShardConfig(0, (("m0", "sandybridge"),), "solr"),
        ShardConfig(1, (("m1", "sandybridge"),), "solr"),
    ]
    pool = ShardPool(configs, calibrations, workers=2, revive_budget=0)
    try:
        # Worker 0 gets its round first; worker 1's dead pipe then
        # quarantines it at once.
        pool.kill_worker(1)
        with pytest.raises(WorkerQuarantinedError) as excinfo:
            pool.run_epoch(0.25, {0: [], 1: []})
        assert excinfo.value.worker_index == 1
        assert pool.transport_stats()["worker_applied"] == 1
    finally:
        pool.close()
