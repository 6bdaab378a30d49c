"""BENCH_perf.json schema 2: ratio fields, schema validation, gates.

Schema 2 keeps ``seconds`` as a wall time everywhere and carries the ratio
benchmarks' machine-independent ratios in an explicit ``ratio`` field;
these tests pin the writer, the loader's rejection of any other schema,
and the ``check_regressions`` contract on both fields.
"""

import json

import pytest

from repro.perf import (
    BenchResult,
    check_regressions,
    load_bench_json,
    write_bench_json,
)
from repro.perf.suite import (
    MAX_TELEMETRY_DISABLED_RATIO,
    MIN_ACCOUNTING_RATIO,
    MIN_CORRELATION_RATIO,
    MIN_SHARD_SPEEDUP_2_WORKERS,
)


def _results(**overrides):
    """A minimal healthy suite result set (ratios well inside bounds)."""
    results = {
        "micro-event-vector": BenchResult(
            "micro-event-vector", "micro", 0.010,
        ),
        "micro-correlation-vs-oracle-ratio": BenchResult(
            "micro-correlation-vs-oracle-ratio", "micro", 0.0002,
            ratio=MIN_CORRELATION_RATIO * 4,
        ),
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
            ratio=MIN_ACCOUNTING_RATIO * 4,
        ),
        "micro-telemetry-disabled-ratio": BenchResult(
            "micro-telemetry-disabled-ratio", "micro", 0.05, ratio=1.0,
        ),
        "macro-solr-workload": BenchResult(
            "macro-solr-workload", "macro", 0.13,
        ),
    }
    results.update(overrides)
    return results


def test_write_emits_schema_2_with_ratio_fields(tmp_path):
    path = str(tmp_path / "bench.json")
    payload = write_bench_json(_results(), path)
    assert payload["schema"] == 2
    benchmarks = payload["benchmarks"]
    entry = benchmarks["micro-correlation-vs-oracle-ratio"]
    assert entry["seconds"] == 0.0002  # a wall time, not the ratio
    assert entry["ratio"] == MIN_CORRELATION_RATIO * 4
    assert "ratio" not in benchmarks["macro-solr-workload"]
    # Round trip through the loader: schema 2 passes through unchanged.
    assert load_bench_json(path) == json.load(open(path))


@pytest.mark.parametrize("schema", [None, 1, 3, "2"])
def test_load_rejects_any_schema_but_2(tmp_path, schema):
    payload = {"benchmarks": {
        "macro-solr-workload": {"kind": "macro", "seconds": 0.29},
    }}
    if schema is not None:
        payload["schema"] = schema
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema"):
        load_bench_json(str(path))


def _committed(tmp_path):
    path = str(tmp_path / "committed.json")
    write_bench_json(_results(), path)
    return path


def test_check_regressions_passes_healthy_run(tmp_path):
    assert check_regressions(_results(), _committed(tmp_path)) == []


def test_check_regressions_flags_wall_time(tmp_path):
    slow = _results(**{
        "macro-solr-workload": BenchResult(
            "macro-solr-workload", "macro", 10.0,
        ),
    })
    problems = check_regressions(slow, _committed(tmp_path))
    assert len(problems) == 1
    assert "macro-solr-workload" in problems[0]


def test_check_regressions_flags_ratio_floor(tmp_path):
    bad = _results(**{
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
            ratio=MIN_ACCOUNTING_RATIO / 2,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert len(problems) == 1
    assert "below required" in problems[0]


def test_check_regressions_flags_ratio_budget(tmp_path):
    bad = _results(**{
        "micro-telemetry-disabled-ratio": BenchResult(
            "micro-telemetry-disabled-ratio", "micro", 0.05,
            ratio=MAX_TELEMETRY_DISABLED_RATIO * 2,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert len(problems) == 1
    assert "exceeds budget" in problems[0]


def test_check_regressions_flags_missing_ratio(tmp_path):
    bad = _results(**{
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005,
        ),
    })
    problems = check_regressions(bad, _committed(tmp_path))
    assert problems == [
        "micro-accounting-vs-oracle-ratio: no ratio was measured"
    ]


def _sharded(speedup_2_workers):
    """A sharded-cluster result whose 4-worker ratio passes any floor."""
    return BenchResult(
        "macro-cluster-sharded", "macro", 2.0,
        throughput={"speedup_2_workers": speedup_2_workers}, ratio=4.0,
    )


@pytest.mark.parametrize("speedup, ok", [
    (MIN_SHARD_SPEEDUP_2_WORKERS + 0.05, True),
    (MIN_SHARD_SPEEDUP_2_WORKERS - 0.05, False),
])
def test_two_worker_speedup_floor(tmp_path, monkeypatch, speedup, ok):
    monkeypatch.setattr(
        "repro.analysis.parallel.available_cores", lambda: 2
    )
    results = _results(**{"macro-cluster-sharded": _sharded(speedup)})
    path = str(tmp_path / "committed.json")
    write_bench_json(results, path)
    problems = check_regressions(results, path)
    if ok:
        assert problems == []
    else:
        assert len(problems) == 1
        assert "2-worker speedup" in problems[0]
        assert "below required" in problems[0]


def test_two_worker_speedup_floor_needs_two_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.analysis.parallel.available_cores", lambda: 1
    )
    results = _results(**{"macro-cluster-sharded": _sharded(1.0)})
    path = str(tmp_path / "committed.json")
    write_bench_json(results, path)
    assert check_regressions(results, path) == []


def test_committed_bench_json_is_schema_2_with_real_wall_times():
    """The repo-root BENCH_perf.json must carry explicit ratios and keep
    every ``seconds`` field a plausible wall time (< 60 s)."""
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    payload = load_bench_json(os.path.join(root, "BENCH_perf.json"))
    assert payload["schema"] == 2
    for name, entry in payload["benchmarks"].items():
        assert entry["seconds"] < 60.0, name
        if "ratio" in entry:
            assert entry["ratio"] > 0.0, name
