"""`bench/tracing.py` wraps the package's layers by name and reads some of
their arguments by position. A rename or a reordered signature would leave
`bench/run.py --trace 1` silently measuring nothing, so this runs the
tracer on one tiny episode, one greedy execution and one training step,
in a fresh interpreter because `install` patches modules in place."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

import numpy as np

sys.path[:0] = sys.argv[1:3]
import argsynth as A
import tracing

tracer = tracing.Tracer()
tracing.install(A, tracer)
lib = A.build_library("args")
params = A.init_params(0, A.dims_for_library(lib))
evaluator = A.NetworkEvaluator(params)
rng = np.random.Generator(np.random.PCG64(0))
task = A.TaskId.PARTITION
env = A.sample_task_env(task, 3, rng)
cfg = A.SearchConfig(mode=A.MODE_EXACT, simulations=8, nested_simulations=4)
record, _ = A.run_episode(task, env, evaluator, lib, cfg, rng, cache={})
A.execute_greedy(env, task, A.NetworkGreedyPolicy(params, lib), lib, trace=[])
A.train_step(params, A.init_optimizer(params), [record])
cache = {}
for _ in range(2):
    A.recurse_subprogram(env, lib.spec("partition_update"), lib, evaluator, cfg,
                         A.SearchStats(), rng, cache)
print(json.dumps({"calls": dict(zip(tracer.names, tracer.calls)),
                  "counts": tracer.counts}))
"""


def test_tracer_resolves_and_counts_the_traced_layers():
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    calls, counts = out["calls"], out["counts"]
    for name in ("env.observe", "programs.feasible_pairs", "network.forward",
                 "network.masked_distributions", "network.greedy_select",
                 "network.loss_and_grads", "network.train_step",
                 "search.run_search", "search.expand", "search.puct_select",
                 "search.execute_greedy", "search.recurse_subprogram",
                 "trainer.run_episode"):
        assert calls.get(name, 0) > 0, name
    for key in ("simulations", "edges", "offered", "greedy_steps",
                "trace_steps", "memo_hits"):
        assert counts.get(key, 0) > 0, key
    assert "episodes_solved" in counts
