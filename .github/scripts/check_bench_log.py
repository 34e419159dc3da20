"""Check bench/run.py logs: each ran at least two passes and its report says correct: true.

Usage: python3 .github/scripts/check_bench_log.py LOG [LOG ...]

A log is the standard output of one bench/run.py run: a "passes: N; ..."
line, and its JSON report as the last line. Prints one line per log and
exits 0 if every log passes the check, else 1. A log that lacks the passes
line or whose last line is not a JSON object with a "correct" key, as a
crashed run leaves, prints "<path>: no report" and fails; the logs after it
are still checked.
"""

import json
import re
import sys


def main(paths) -> int:
    if not paths:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    ok = True
    for path in paths:
        with open(path, encoding="utf-8") as file:
            log = file.read()
        # No passes line (re.search gives None), a last line that is not JSON,
        # JSON that is not an object (TypeError) or an object without the key.
        try:
            passes = int(re.search(r"^passes: (\d+);", log, re.M).group(1))
            correct = json.loads(log.splitlines()[-1])["correct"]
        except (AttributeError, ValueError, TypeError, KeyError):
            print(f"{path}: no report")
            ok = False
            continue
        print(f"{path}: passes {passes}, correct {correct}")
        ok = ok and passes >= 2 and correct is True
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
