""".github/scripts/bench_file.py, which assembles a BENCH_<n>.json trend file, on synthetic reports.

The script takes the PR number, the output path and bench/run.py reports
in (parent, change) pairs. It writes each pair's workload, seed and both
sides, and per workload and metric the median of each side over its
pairs. It exits 1 with one line if a report has no metrics or a pair's
reports differ in workload or seed. Every BENCH_*.json at the repo root
must have the shape it writes.
"""

import json
import pathlib
import statistics
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "bench_file.py"
SIDES = ("parent", "change")
SIDE_KEYS = {"metrics", "digests", "passes", "environment"}


def _report(workload="sweep-256", seed=0, runs_per_s=400.0, peak_rss_mb=96.0) -> dict:
    """A bench/run.py report, trimmed to the keys the script reads and one it drops."""
    return {
        "environment": {"workload": workload, "seed": seed, "nproc": 2},
        "passes": 3,
        "digests": {"csv": "00"},
        "samples": {"runs_per_s": [runs_per_s]},
        "metrics": {"runs_per_s": {"value": runs_per_s, "unit": "runs/s"}, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}},
    }


def _assemble(tmp_path, reports, pr="41") -> subprocess.CompletedProcess:
    """Run the script on one file per report, in order; the output goes to tmp_path/BENCH.json."""
    paths = []
    for i, report in enumerate(reports):
        path = tmp_path / f"report{i}.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPT), pr, str(tmp_path / "BENCH.json"), *paths], capture_output=True, text=True)


def check_shape(document) -> None:
    """Assert that document has the shape bench_file.py writes, its medians those of its pairs."""
    assert set(document) == {"pr", "pairs", "medians"}
    assert isinstance(document["pr"], int)
    assert document["pairs"]
    for pair in document["pairs"]:
        assert set(pair) == {"workload", "seed", *SIDES}
        for side in SIDES:
            assert set(pair[side]) == SIDE_KEYS
            assert pair[side]["environment"]["workload"] == pair["workload"]
            assert pair[side]["environment"]["seed"] == pair["seed"]
            assert pair[side]["metrics"]
    assert set(document["medians"]) == {pair["workload"] for pair in document["pairs"]}
    for workload, metrics in document["medians"].items():
        runs = [pair for pair in document["pairs"] if pair["workload"] == workload]
        assert set(metrics) == set(runs[0]["parent"]["metrics"])
        for metric, entry in metrics.items():
            assert set(entry) == {*SIDES, "unit"}
            assert entry["unit"] == runs[0]["parent"]["metrics"][metric]["unit"]
            for side in SIDES:
                assert entry[side] == statistics.median(pair[side]["metrics"][metric]["value"] for pair in runs)


def test_pairs_and_medians(tmp_path):
    reports = [
        _report(runs_per_s=400.0), _report(runs_per_s=410.0),
        _report("frame-1024", runs_per_s=5.0), _report("frame-1024", runs_per_s=6.0),
        _report(runs_per_s=300.0), _report(runs_per_s=420.0),
        _report(runs_per_s=500.0, peak_rss_mb=90.0), _report(runs_per_s=380.0),
    ]
    done = _assemble(tmp_path, reports)
    assert (done.returncode, done.stderr) == (0, "")
    document = json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))
    check_shape(document)
    assert document["pr"] == 41
    assert [(pair["workload"], pair["seed"]) for pair in document["pairs"]] == [("sweep-256", 0), ("frame-1024", 0), ("sweep-256", 0), ("sweep-256", 0)]
    assert "samples" not in document["pairs"][0]["parent"]
    assert document["medians"]["sweep-256"] == {
        "runs_per_s": {"parent": 400.0, "change": 410.0, "unit": "runs/s"},
        "peak_rss_mb": {"parent": 96.0, "change": 96.0, "unit": "MiB"},
    }
    assert document["medians"]["frame-1024"]["runs_per_s"] == {"parent": 5.0, "change": 6.0, "unit": "runs/s"}


@pytest.mark.parametrize(
    "reports,message",
    [
        ([_report(), _report("frame-1024")], "differ in workload, seed or metrics"),
        ([_report(), _report(seed=1)], "differ in workload, seed or metrics"),
        ([_report(), {**_report(), "metrics": {}}], "report1.json: no metrics"),
        ([{"environment": {"workload": "sweep-256", "seed": 0}, "passes": 1}, _report()], "report0.json: no metrics"),
        ([_report(), []], "report1.json: no metrics"),
    ],
    ids=["workloads-differ", "seeds-differ", "empty-metrics", "no-metrics", "not-an-object"],
)
def test_a_bad_pair_is_rejected_with_one_line(tmp_path, reports, message):
    done = _assemble(tmp_path, reports)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and message in done.stderr
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize("reports", [[], [_report()], [_report(), _report(), _report()]], ids=["none", "one", "three"])
def test_reports_must_come_in_pairs(tmp_path, reports):
    done = _assemble(tmp_path, reports)
    assert done.returncode == 1
    assert done.stderr.startswith("Usage:") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_every_committed_bench_file_has_the_shape(path):
    document = json.loads(path.read_text(encoding="utf-8"))
    check_shape(document)
    assert path.name == f"BENCH_{document['pr']}.json"
