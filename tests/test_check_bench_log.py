"""CI's check of bench/run.py logs, .github/scripts/check_bench_log.py, on synthetic logs.

A log passes when its "passes: N;" line gives at least two passes and its
last line, the JSON report, says "correct": true; the script exits 1 if
any log fails, or if it is given none.
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


def _check(tmp_path, logs) -> int:
    paths = []
    for i, (passes, correct) in enumerate(logs):
        path = tmp_path / f"run{i}.log"
        path.write_text(_log(passes, correct), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SCRIPT), *paths], capture_output=True, text=True).returncode


@pytest.mark.parametrize(
    "logs,status",
    [
        ([(2, True)], 0),
        ([(2, True), (7, True)], 0),
        ([(1, True)], 1),
        ([(2, False)], 1),
        ([(2, None)], 1),
        ([(2, True), (1, True)], 1),
        ([], 1),
    ],
    ids=["two-passes-correct", "two-logs-pass", "one-pass", "not-correct", "correct-null", "one-of-two-logs-fails", "no-arguments"],
)
def test_exit_status(tmp_path, logs, status):
    assert _check(tmp_path, logs) == status
