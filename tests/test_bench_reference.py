"""`bench/check_reference.py` tests that the expert scripts reach the
benchmark's independent reference outcomes. Drift there would show only as
`incorrect` outputs of a benchmark run, so the check runs here too, as its
own pytest session in a child process from the repository root."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_expert_scripts_reach_the_benchmark_reference_outcomes():
    done = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/check_reference.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
