"""A copy of the package that is dropped from `sys.modules` must be freed.

`bench/run.py` imports `argsynth` afresh for each of its set-up passes. A
reference from outside the package to one of its classes, such as the
cache `typing` keeps of every subscripted generic it builds, would keep
each old copy alive, and show only later as a larger `peak_rss_mb`. The
check runs in a fresh interpreter, so that the test session's own copy of
the package stays as it is."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import gc
import importlib
import sys
import weakref

import numpy as np

sys.path.insert(0, sys.argv[1])


def fresh_argsynth():
    for name in [m for m in sys.modules if m == "argsynth" or m.startswith("argsynth.")]:
        del sys.modules[name]
    return importlib.import_module("argsynth")


def use_a_fresh_copy():
    A = fresh_argsynth()
    lib = A.build_library("args")
    params = A.init_params(0, A.dims_for_library(lib))
    rng = np.random.Generator(np.random.PCG64(0))
    task = A.TaskId.PARTITION
    cfg = A.SearchConfig(mode=A.MODE_EXACT, simulations=8, nested_simulations=4)
    A.run_episode(task, A.sample_task_env(task, 3, rng), A.NetworkEvaluator(params), lib,
                  cfg, rng, cache={})
    return [weakref.ref(c) for c in (A.search.Node, A.env.EnvState, A.network.HiddenState)]


refs = use_a_fresh_copy()
fresh_argsynth()
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_a_dropped_copy_of_the_package_is_freed():
    done = subprocess.run([sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
