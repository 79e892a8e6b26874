"""The benchmark runs end to end on each of its workloads.

``bench/run.py`` checks every session it runs, including that the records
of a serial ``run_trial`` loop equal those of ``run_experiment``, which
runs random-secret trials in lockstep batches.  One short run per
workload keeps those checks, and the benchmark itself, in the tier-1
suite:

    python3 bench/run.py --workload <name> --seconds 0 --trace 0
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sc-rate-b16", "rs-long-b8", "rs-cutset-b3"])
def test_bench_runs_clean(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
