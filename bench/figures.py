"""Reference figures for the README: the paper's exact-vs-approximate
comparison on the search_nested inputs.

    python3 bench/figures.py [--seeds 1 2 3]

For each seed, runs one round of search_nested episodes (a memo per
batch, the same search seeds) once in exact mode and once in approximate
mode (n_expand 5, the default), and prints nodes expanded, simulations and
episodes solved per mode.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import argsynth as A  # noqa: E402
from workloads import SearchNested  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    print("seed,mode,episodes,solved,nodes_per_episode,simulations_per_episode,seconds")
    for seed in args.seeds:
        work = SearchNested(A, seed)
        for mode in (A.MODE_EXACT, A.MODE_APPROX):
            work.cfg = replace(work.cfg, mode=mode)
            work.reset()
            t0 = time.perf_counter()
            outs = [op() for op in work.ops]
            dt = time.perf_counter() - t0
            n = len(outs)
            nodes = sum(stats.nodes_expanded for _, stats in outs)
            sims = sum(stats.simulations for _, stats in outs)
            solved = sum(rec.reward for rec, _ in outs)
            print(f"{seed},{mode},{n},{solved},{nodes / n:.1f},{sims / n:.1f},{dt:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
