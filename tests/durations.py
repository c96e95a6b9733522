"""Tier-1 wall time per test file.

    python3 tests/durations.py [pytest arguments]

runs the Tier-1 suite, `python -m pytest -q --continue-on-collection-errors`
over tests/ with src on PYTHONPATH, with `--durations=0 --durations-min=0`,
and sums the setup, call and teardown times that pytest reports for each
test into one line per test file, slowest first; then the sum over all
files, the run's wall time and pytest's summary line.  A session or module
fixture's set-up counts toward the file of the first test that uses it.
It exits with pytest's exit code.  pytest does not collect this file."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (?:setup|call|teardown) +([^:\s]+)::")


def per_file(report: str) -> dict:
    """{test file: seconds} summed over the duration lines of a pytest report."""
    totals = defaultdict(float)
    for line in report.splitlines():
        if m := DURATION.match(line):
            totals[m[2]] += float(m[1])
    return dict(totals)


def main(argv) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    totals = per_file(run.stdout)
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"{seconds:8.2f} s  {name}")
    print(f"{sum(totals.values()):8.2f} s  all files ({wall:.2f} s wall)")
    print(run.stdout.rstrip().splitlines()[-1] if run.stdout.strip() else run.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
