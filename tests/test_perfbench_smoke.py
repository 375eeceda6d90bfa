"""The benchmark harness runs end to end: one second of each workload at seed
0 must come out correct, which includes its final-field drift against the
stored reference and, in 1D, the finite-difference oracle gap.  heat_2d is the
workload that writes snapshots during the run (as .npz files, in the
foreground).  One traced run checks that the tracer wraps every entry point
and reports every declared per-layer metric."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_run_is_correct(workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_coupled_1d_run_is_correct():
    check_run_is_correct("coupled_1d")


def test_heat_2d_run_is_correct():
    check_run_is_correct("heat_2d")


def test_box_3d_run_is_correct():
    check_run_is_correct("box_3d")


def test_traced_coupled_1d_run_is_correct():
    check_run_is_correct("coupled_1d", trace=1)
