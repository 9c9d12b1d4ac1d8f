"""Remake the benchmark's parameter file by behaviour cloning.

    python3 bench/make_params.py [--out bench/params.ckpt] [--grid-trials 0]

Clones `expert_script` traces of all four tasks (lengths 2..7, nested calls
included) with the program's own `train_step`: RECIPE below, from a fixed
seed, on one thread. Writes the network in the program's checkpoint format
without optimizer state and prints the file's sha256. With --grid-trials N
it also prints the greedy accuracy grid of `argsynth eval` at N trials per
cell.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import argsynth as A  # noqa: E402
from inputs import trace_pool  # noqa: E402

RECIPE = {"seed": 0, "per_cell": 20, "steps": 200, "batch": 32, "lr": 3e-3}
PARAMS_FILE = HERE / "params.ckpt"


def make(out: Path) -> str:
    lib = A.build_library("args")
    rng = np.random.Generator(np.random.PCG64(RECIPE["seed"]))
    pool = trace_pool(A, lib, rng, RECIPE["per_cell"])
    params = A.init_params(RECIPE["seed"], A.dims_for_library(lib))
    opt = A.init_optimizer(params, lr=RECIPE["lr"])
    for step in range(RECIPE["steps"]):
        idx = rng.choice(len(pool), size=RECIPE["batch"], replace=False)
        value = A.train_step(params, opt, [pool[int(i)] for i in idx])
        if step % 50 == 0 or step == RECIPE["steps"] - 1:
            print(f"step {step}: loss {value:.3f}", flush=True)
    A.checkpoint_save(params, None, lib.manifest(), out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=PARAMS_FILE)
    ap.add_argument("--grid-trials", type=int, default=0)
    args = ap.parse_args()
    t0 = time.perf_counter()
    digest = make(args.out)
    print(f"wrote {args.out} in {time.perf_counter() - t0:.1f} s, sha256 {digest}")
    if args.grid_trials > 0:
        lib = A.build_library("args")
        params, _, _ = A.checkpoint_load(args.out, expected_manifest=lib.manifest())
        policy = A.NetworkGreedyPolicy(params, lib)
        rows = A.evaluate_generalization(policy, lib, seed=0, trials=args.grid_trials)
        print(A.accuracy_csv(rows), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
