"""Fast tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

from perfbench.harness import (
    END_TO_END,
    PER_LAYER,
    REPORT_ONLY,
    Checks,
    _overlap,
    measure,
)
from perfbench.run import render
from perfbench.tracing import Span, SpanRecorder, covered, self_times
from perfbench.worlds import RepOutcome, cluster_flash_observed, \
    cluster_solr, NodeSolr

TINY = {
    "node-solr": lambda: NodeSolr(worlds=1, timed_worlds=1, duration=0.5),
    "cluster-solr": lambda: cluster_solr(worlds=1, n_machines=4,
                                         duration=0.25),
    "cluster-flash-observed": lambda: cluster_flash_observed(
        worlds=1, n_machines=4, duration=0.5
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_unit(name, trace, tmp_path):
    result = measure(TINY[name](), seed=3, seconds=0.0, trace=trace,
                     out_dir=str(tmp_path / "traces"))
    lines = render(result, trace)
    assert result.correct, result.notes
    assert result.checks.failed == 0
    expected = END_TO_END + REPORT_ONLY + (PER_LAYER if trace else ())
    for metric, unit in expected:
        assert any(
            line.split()[1:2] == [metric] and line.split()[-1] == unit
            for line in lines[:-1]
        ), f"{metric} [{unit}] missing"
    document = json.loads(lines[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    wanted = PER_LAYER if trace else END_TO_END
    assert {m: u["unit"] for m, u in document["metrics"].items()} \
        == dict(wanted)
    assert not (tmp_path / "traces").exists()


def _outcome(fingerprint: str = "same") -> RepOutcome:
    return RepOutcome(
        seconds=0.5, epoch_seconds=[0.1, 0.2], completed=10,
        fingerprint=fingerprint, violations=[],
        response_seconds=[0.01] * 10, requests=10,
        attributed_joules=1.0, measured_joules=1.0,
    )


class _FlakyWorkload:
    """Two sub-worlds, the first one repeated; the second rep raises."""

    name = "flaky"
    worlds = 2
    timed_worlds = 1

    def __init__(self) -> None:
        self.reps = 0

    def calibrate(self):
        return None

    def build(self, _calibration, seed):
        return seed

    def run(self, _world, _clock):
        self.reps += 1
        if self.reps == 2:
            raise RuntimeError("deliberate failure")
        return _outcome()

    def reference_fingerprint(self, _calibration, _seed):
        return "same"


def test_failing_run_counts_in_error_rate():
    result = measure(_FlakyWorkload(), seed=1, seconds=0.0)
    # Three reps plus the self-check were attempted; one rep failed.
    assert (result.checks.attempted, result.checks.failed) == (4, 1)
    assert not result.correct
    assert any("deliberate failure" in note for note in result.notes)


def test_fingerprint_drift_and_broken_invariant_fail():
    checks = Checks()
    assert checks.attempt(0, _outcome) is not None
    assert checks.attempt(0, lambda: _outcome("other")) is None
    broken = _outcome()
    broken.violations.append("unfinished=3")
    assert checks.attempt(1, lambda: broken) is None
    checks.self_check("not the stepped fingerprint")
    assert (checks.attempted, checks.failed) == (4, 3)


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),   # overlaps a: union is 1..6
        Span(4, "a1", 2.0, 3.0, parent=2),
        Span(5, "late", 9.0, 12.0, parent=1),  # clipped to the parent
    ]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_recorder_self_time_matches_span_tree():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    leaf = recorder.wrap("leaf", leaf)

    def middle():
        leaf()
        leaf()

    middle = recorder.wrap("middle", middle)
    outer = recorder.wrap("outer", lambda: (middle(), leaf()))
    outer()
    # Clock reads: outer 0..9, middle 1..6, leaf 2..3, 4..5 and 7..8.
    tree = [
        Span(1, "outer", 0.0, 9.0),
        Span(2, "middle", 1.0, 6.0, parent=1),
        Span(3, "leaf", 2.0, 3.0, parent=2),
        Span(4, "leaf", 4.0, 5.0, parent=2),
        Span(5, "leaf", 7.0, 8.0, parent=1),
    ]
    by_tree = self_times(tree)
    assert recorder.self_time["outer"] == by_tree[1]
    assert recorder.self_time["middle"] == by_tree[2]
    assert recorder.self_time["leaf"] == by_tree[3] + by_tree[4] + by_tree[5]
    assert recorder.calls == {"outer": 1, "middle": 1, "leaf": 3}
    assert recorder.inclusive["outer"] == 9.0


def test_overlap_counts_time_with_both_workers_busy():
    spans = [
        ("ShardPool.run_epoch", 0.0, 10.0, 1),
        ("_ShardExecutor.execute", 1.0, 5.0, 2),
        ("_ShardExecutor.execute", 4.0, 8.0, 3),
        ("ShardPool.run_epoch", 20.0, 30.0, 1),
        ("_ShardExecutor.execute", 21.0, 24.0, 2),  # serialized epoch
        ("_ShardExecutor.execute", 24.0, 29.0, 3),
    ]
    assert _overlap(spans) == (20.0, 1.0)
