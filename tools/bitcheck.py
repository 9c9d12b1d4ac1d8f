"""Bit-for-bit comparison of two checkouts of this repository.

    python3 tools/bitcheck.py PARENT CHANGE

Runs one battery of digests in each checkout and prints them side by side.
Each side runs as its own process, from the checkout's root, with that
checkout's `src/` first on the import path. The battery:

- the sha256 of `Trainer.metrics_csv() + search_csv()` after three
  default-config iterations, at trainer seeds 0 and 5;
- per search seed (101 and 202), one digest of 40 exact-mode `partition`
  episodes with `bench/params.ckpt` and training noise on, sharing a
  nested memo: every step's action, `pi_p_mcts`, `pi_a_mcts` and hidden
  snapshot, and each episode's reward, final state and `SearchStats`;
- per search seed, a digest of every tree those episodes grew, top-level
  and nested: each node's visit count and its edges' `P`, `N`, `W` and
  `Q` as float64 bytes. A last-bit change in a prior seldom changes a
  visit count, so the digest above alone would miss it;
- the greedy `evaluate_generalization` grid with `bench/params.ckpt` at
  seed 0, lengths 5/10/20/40/60, five trials a cell;
- the parameters and the Adam moments `m` and `v` after 16 `train_step`s
  from a fresh network on batches of the episodes above. This digest
  differs whenever the episodes do.

Exits 1 when any digest differs or a side fails to produce them, 0 when
all are equal. The script imports nothing of the program in its own
process and writes nothing in either checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGESTS_FLAG = "--digests-of-this-checkout"

TRAIN_SEEDS = (0, 5)
TRAIN_ITERATIONS = 3
SEARCH_SEEDS = (101, 202)
EPISODES = 40
EVAL_LENGTHS = (5, 10, 20, 40, 60)
EVAL_TRIALS = 5
TRAIN_STEPS, TRAIN_BATCH = 16, 16


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def battery(A) -> dict[str, str]:
    """Name -> hex digest, for the imported package `A`, run from a
    checkout's root."""
    import numpy as np

    def generator(seed):
        return np.random.Generator(np.random.PCG64(seed))

    out = {}
    for seed in TRAIN_SEEDS:
        trainer = A.Trainer(A.RunConfig(seed=seed).to_train_config())
        trainer.run(TRAIN_ITERATIONS)
        out[f"train seed {seed}: metrics_csv + search_csv"] = _sha(
            trainer.metrics_csv() + trainer.search_csv())

    lib = A.build_library("args")
    params, _, _ = A.checkpoint_load("bench/params.ckpt", expected_manifest=lib.manifest())
    evaluator = A.NetworkEvaluator(params)
    cfg = A.SearchConfig(mode=A.MODE_EXACT, training=True)
    records = []
    run_search = A.search.run_search

    def hashing_run_search(*args, **kwargs):
        res = run_search(*args, **kwargs)
        stack = [res.root]
        while stack:
            node = stack.pop()
            trees.update(repr(node.visits).encode())
            for stat in (node.P, node.N, node.W, node.Q):
                trees.update(np.asarray(stat, dtype=np.float64).tobytes())
            stack.extend(c for c in reversed(node.children) if c is not None)
        return res

    A.search.run_search = hashing_run_search  # nested searches call it too
    try:
        for seed in SEARCH_SEEDS:
            rng, cache = generator(seed), {}
            h, trees = hashlib.sha256(), hashlib.sha256()
            for i in range(EPISODES):
                env = A.sample_task_env(A.TaskId.PARTITION, 2 + i % 6, rng)
                record, stats = A.run_episode(A.TaskId.PARTITION, env, evaluator, lib,
                                              cfg, rng, cache=cache)
                h.update(repr((record.reward, record.e_final, stats)).encode())
                for step in record.steps:
                    h.update(repr((step.action_name, step.action_args)).encode())
                    for array in (step.pi_p_mcts, step.pi_a_mcts, step.hidden):
                        h.update(array.tobytes())
                records.append(record)
            out[f"search seed {seed}: {EPISODES} exact partition episodes"] = h.hexdigest()
            out[f"search seed {seed}: statistics of every tree"] = trees.hexdigest()
    finally:
        A.search.run_search = run_search

    rows = A.evaluate_generalization(A.NetworkGreedyPolicy(params, lib), lib, seed=0,
                                     lengths=EVAL_LENGTHS, trials=EVAL_TRIALS)
    out["greedy eval grid seed 0"] = _sha(repr(rows))

    net = A.init_params(0, A.dims_for_library(lib))
    opt = A.init_optimizer(net, lr=1e-3)
    rng = generator(7)
    for _ in range(TRAIN_STEPS):
        picks = rng.choice(len(records), size=TRAIN_BATCH, replace=False)
        A.train_step(net, opt, [records[int(i)] for i in picks])
    h = hashlib.sha256()
    for name in sorted(net.arrays):
        for array in (net.arrays[name], opt.m[name], opt.v[name]):
            h.update(array.tobytes())
    out[f"params, m and v after {TRAIN_STEPS} train_steps"] = h.hexdigest()
    return out


def digests_of(checkout: Path) -> dict[str, str]:
    """The battery's digests, computed in a child process in `checkout`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(checkout).resolve() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), DIGESTS_FLAG],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: the battery exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"{checkout}: the battery printed nothing")
    return json.loads(lines[-1])


def compare(sides: dict[str, dict[str, str]]) -> tuple[str, bool]:
    """A table of every digest on both sides, and whether all are equal.
    A digest that one side lacks counts as a difference."""
    names = list(sides["parent"]) + [n for n in sides["change"] if n not in sides["parent"]]
    lines, same = [], True
    for name in names:
        a, b = sides["parent"].get(name, "missing"), sides["change"].get(name, "missing")
        equal = a == b and a != "missing"
        same = same and equal
        lines.append(f"{'same' if equal else 'DIFFERS'}  {name}\n"
                     f"    parent {a}\n    change {b}")
    return "\n".join(lines), same


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [DIGESTS_FLAG]:
        import argsynth
        print(json.dumps(battery(argsynth)))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    sides = {}
    for side in SIDES:
        try:
            sides[side] = digests_of(getattr(args, side))
        except (RuntimeError, ValueError) as exc:
            print(f"{side}: {exc}", file=sys.stderr)
            return 1
    text, same = compare(sides)
    print(text)
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
