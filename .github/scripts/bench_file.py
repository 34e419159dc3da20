"""Assemble a BENCH_<n>.json trend file from bench/run.py reports.

Usage: python3 .github/scripts/bench_file.py PR OUT PARENT CHANGE [PARENT CHANGE ...]

Each PARENT CHANGE pair names two reports that bench/run.py wrote to
.bench_out/<workload>-seed<S>-trace0.json: one run of a workload at the
parent commit and one at the change, with the same seed. The next run of
a workload overwrites its report, so copy each one aside after its run.
OUT gets one JSON object:

- "pr": the PR number;
- "pairs": per pair, its "workload" and "seed", and each side ("parent",
  "change") as that report's "metrics", "digests", "passes" and
  "environment";
- "medians": per workload and metric, the median of each side's values
  over that workload's pairs, and the metric's unit.

Exits 1 with one line on stderr if a report has no metrics, or if the two
reports of a pair differ in workload, seed or metric names.
"""

import json
import statistics
import sys

SIDES = ("parent", "change")
KEPT = ("metrics", "digests", "passes", "environment")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as file:
        report = json.load(file)
    for key in ("metrics", "environment"):
        if not isinstance(report, dict) or not isinstance(report.get(key), dict) or not report[key]:
            raise ValueError(f"{path}: no {key}")
    return {key: report.get(key) for key in KEPT}


def _pair(parent_path: str, change_path: str) -> dict:
    sides = {"parent": _load(parent_path), "change": _load(change_path)}
    keys = [(side["environment"].get("workload"), side["environment"].get("seed"), sorted(side["metrics"])) for side in sides.values()]
    if keys[0] != keys[1]:
        raise ValueError(f"{parent_path} and {change_path} differ in workload, seed or metrics")
    workload, seed, _ = keys[0]
    return {"workload": workload, "seed": seed, **sides}


def _medians(pairs: list) -> dict:
    """workload -> metric -> {"parent", "change", "unit"}, each side the median over the workload's pairs."""
    medians: dict = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        runs = [pair for pair in pairs if pair["workload"] == workload]
        medians[workload] = {
            metric: {**{side: statistics.median(pair[side]["metrics"][metric]["value"] for pair in runs) for side in SIDES}, "unit": entry["unit"]}
            for metric, entry in runs[0]["parent"]["metrics"].items()
        }
    return medians


def main(argv) -> int:
    if len(argv) < 4 or len(argv) % 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    pr, out, reports = argv[0], argv[1], argv[2:]
    try:
        pairs = [_pair(parent, change) for parent, change in zip(reports[::2], reports[1::2])]
        document = {"pr": int(pr), "pairs": pairs, "medians": _medians(pairs)}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(out, "w", encoding="utf-8") as file:
        json.dump(document, file, indent=1, sort_keys=True)
        file.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
