"""CI's check of bench/run.py logs, .github/scripts/check_bench_log.py, on synthetic logs.

A log passes when its "passes: N;" line gives at least two passes and its
last line, the JSON report, says "correct": true; the script exits 1 if
any log fails, or if it is given none. A log that lacks either line, as a
crashed run leaves, or whose last line is JSON but no object with a
"correct" key, fails, and the logs after it are still checked.
"""

import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_bench_log.py"


def _log(passes, correct) -> str:
    """A bench/run.py standard output, trimmed to the lines the check reads and their neighbours."""
    report = {"passes": passes, "correct": correct}
    return f"cfaisp benchmark: workload sweep-256, seed 0, trace 0\npasses: {passes}; runs attempted 576, failed 0\ndigests: csv=00\n{json.dumps(report)}\n"


# A bench/run.py that died in its first pass.
CRASHED = "cfaisp benchmark: workload sweep-256, seed 0, trace 0\nTraceback (most recent call last):\nMemoryError\n"


def _check(tmp_path, logs) -> subprocess.CompletedProcess:
    """Run the script on one log per entry: a (passes, correct) pair, or a log's whole text."""
    paths = []
    for i, log in enumerate(logs):
        path = tmp_path / f"run{i}.log"
        path.write_text(log if isinstance(log, str) else _log(*log), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPT), *paths], capture_output=True, text=True)


@pytest.mark.parametrize(
    "logs,status",
    [
        ([(2, True)], 0),
        ([(2, True), (7, True)], 0),
        ([(1, True)], 1),
        ([(2, False)], 1),
        ([(2, None)], 1),
        ([(2, True), (1, True)], 1),
        ([(2, True), CRASHED, (2, True)], 1),
        ([], 1),
    ],
    ids=["two-passes-correct", "two-logs-pass", "one-pass", "not-correct", "correct-null", "one-of-two-logs-fails", "crashed-run", "no-arguments"],
)
def test_exit_status(tmp_path, logs, status):
    assert _check(tmp_path, logs).returncode == status


@pytest.mark.parametrize(
    "log",
    [
        CRASHED,
        "passes: 3; runs attempted 9, failed 0\nTraceback (most recent call last):\nMemoryError\n",
        'passes: 3; runs attempted 9, failed 0\n{"attempted": 1}\n',
        "passes: 3; runs attempted 9, failed 0\n[]\n",
    ],
    ids=["no-passes-line", "last-line-not-json", "json-without-correct", "json-not-an-object"],
)
def test_a_log_without_a_report_is_named_and_the_next_log_checked(tmp_path, log):
    done = _check(tmp_path, [log, (2, True)])
    assert done.stdout.splitlines() == [f"{tmp_path / 'run0.log'}: no report", f"{tmp_path / 'run1.log'}: passes 2, correct True"]
    assert done.stderr == ""
