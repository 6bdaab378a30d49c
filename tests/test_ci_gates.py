"""CI toolkit gates added with the batch accounting engine.

Covers the ``H101`` hot-path comprehension and ``H200`` hashlib lint rules
and the perf lane's ``--trend`` history writer -- all live under ``ci/``
and have no other automated coverage.
"""

import json
import os

import ci.runner as runner
from ci.lint import lint_file
from repro.perf import BenchResult


def _lint_codes(tmp_path, source):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return [f.code for f in lint_file(str(path), str(tmp_path))]


def test_h101_flags_comprehension_in_marked_function(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def gather(xs):  # hot-path\n"
        "    return [x + 1 for x in xs]\n",
    )
    assert codes == ["H101"]


def test_h101_flags_dict_comprehension_and_multiline_def(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def gather(  # hot-path\n"
        "    xs,\n"
        "):\n"
        "    return {x: x + 1 for x in xs}\n",
    )
    assert codes == ["H101"]


def test_h101_ignores_unmarked_functions(tmp_path):
    codes = _lint_codes(
        tmp_path,
        "def cold(xs):\n"
        "    return [x + 1 for x in xs]\n",
    )
    assert codes == []


def _lint_codes_at(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [f.code for f in lint_file(str(path), str(tmp_path))]


_HASHING = "import hashlib\n\nDIGEST = hashlib.sha256(b'x').hexdigest()\n"


def test_h200_flags_hashlib_under_src_repro(tmp_path):
    assert _lint_codes_at(tmp_path, "src/repro/core/x.py", _HASHING) == [
        "H200"
    ]
    assert _lint_codes_at(
        tmp_path, "src/repro/y.py",
        "def f():\n    from hashlib import sha256\n    return sha256\n",
    ) == ["H200"]


def test_h200_allows_fingerprint_allowlist_and_other_trees(tmp_path):
    for relpath in ("src/repro/fingerprint.py", "src/repro/sim/rng.py",
                    "src/repro/checkpoint/state.py", "tests/test_x.py",
                    "ci/x.py"):
        assert _lint_codes_at(tmp_path, relpath, _HASHING) == [], relpath


def test_every_hot_path_marked_function_lints_clean():
    """The shipped tree must satisfy its own H101 rule."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from ci.lint import iter_python_files

    findings = []
    for path in iter_python_files(os.path.join(root, "src")):
        findings += [
            f for f in lint_file(path, root) if f.code == "H101"
        ]
    assert findings == []


def test_trend_history_appends_one_json_line_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "ROOT", str(tmp_path))
    results = {
        "macro-solr-workload": BenchResult(
            "macro-solr-workload", "macro", 0.13,
        ),
        "micro-accounting-vs-oracle-ratio": BenchResult(
            "micro-accounting-vs-oracle-ratio", "micro", 0.0005, ratio=9.0,
        ),
    }
    path = runner._append_trend_history(results, [])
    runner._append_trend_history(results, ["macro-solr-workload: too slow"])
    lines = [
        json.loads(line)
        for line in open(path).read().splitlines()
    ]
    assert len(lines) == 2
    first, second = lines
    assert first["threshold"] == runner.TREND_THRESHOLD
    assert first["problems"] == []
    assert first["benchmarks"]["macro-solr-workload"]["seconds"] == 0.13
    assert (
        first["benchmarks"]["micro-accounting-vs-oracle-ratio"]["ratio"]
        == 9.0
    )
    assert "ratio" not in first["benchmarks"]["macro-solr-workload"]
    assert second["problems"] == ["macro-solr-workload: too slow"]
