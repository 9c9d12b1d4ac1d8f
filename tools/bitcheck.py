"""Bit-for-bit comparison of two checkouts of this repository.

    python3 tools/bitcheck.py PARENT CHANGE

Runs one battery of digests in each checkout and prints them side by side.
Each side runs as its own process, from the checkout's root, with that
checkout's `src/` first on the import path. The battery:

- per trainer seed (0 and 5), three default-config iterations: the sha256
  of `Trainer.metrics_csv() + search_csv()`; a digest of every episode
  the trainer ran (each `TraceRecord` it built: actions, `pi_p_mcts`,
  `pi_a_mcts`, hidden snapshots, reward and final state); and a digest of
  every tree those episodes grew, top-level and nested;
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

Trees are read where they are grown: through `search._grow`, the tree
generator that both `run_search` and the trainer's lockstep episodes use,
or through `search.run_search` in a checkout without it. Each episode and
tree digest ends with the number of episodes or trees it covered, and a
side whose digest covered none fails.

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


class Tally:
    """A running sha256 and the number of items it covered."""

    def __init__(self, what: str):
        self.what, self.count, self.sha = what, 0, hashlib.sha256()

    def digest(self) -> str:
        if not self.count:
            raise RuntimeError(f"a digest of {self.what} covered none")
        return f"{self.sha.hexdigest()} over {self.count} {self.what}"


def battery(A) -> dict[str, str]:
    """Name -> hex digest, for the imported package `A`, run from a
    checkout's root."""
    import numpy as np

    def generator(seed):
        return np.random.Generator(np.random.PCG64(seed))

    tally = {"trees": None, "records": None}

    def hash_tree(root):
        trees = tally["trees"]
        trees.count += 1
        stack = [root]
        while stack:
            node = stack.pop()
            trees.sha.update(repr(node.visits).encode())
            for stat in (node.P, node.N, node.W, node.Q):
                trees.sha.update(np.asarray(stat, dtype=np.float64).tobytes())
            stack.extend(c for c in reversed(node.children) if c is not None)

    def hash_steps(h, steps):
        for step in steps:
            h.update(repr((step.action_name, step.action_args)).encode())
            for array in (step.pi_p_mcts, step.pi_a_mcts, step.hidden):
                h.update(array.tobytes())

    def hashing_record(**fields):
        records = tally["records"]
        if records is not None:
            records.count += 1
            records.sha.update(repr((fields["task_name"], fields["e_initial"],
                                     fields["reward"], fields["e_final"])).encode())
            hash_steps(records.sha, fields["steps"])
        return make_record(**fields)

    if hasattr(A.search, "_grow"):
        grow_name, grow = "_grow", A.search._grow

        def hashing_grow(*args, **kwargs):
            res = yield from grow(*args, **kwargs)
            hash_tree(res.root)
            return res
    else:
        grow_name, grow = "run_search", A.search.run_search

        def hashing_grow(*args, **kwargs):
            res = grow(*args, **kwargs)
            hash_tree(res.root)
            return res

    make_record = A.trainer.TraceRecord
    setattr(A.search, grow_name, hashing_grow)  # every tree, nested ones too
    A.trainer.TraceRecord = hashing_record
    try:
        out = {}
        for seed in TRAIN_SEEDS:
            tally.update(trees=Tally("trees"), records=Tally("episodes"))
            trainer = A.Trainer(A.RunConfig(seed=seed).to_train_config())
            trainer.run(TRAIN_ITERATIONS)
            out[f"train seed {seed}: metrics_csv + search_csv"] = _sha(
                trainer.metrics_csv() + trainer.search_csv())
            out[f"train seed {seed}: every episode"] = tally["records"].digest()
            out[f"train seed {seed}: statistics of every tree"] = tally["trees"].digest()
        tally["records"] = None

        lib = A.build_library("args")
        params, _, _ = A.checkpoint_load("bench/params.ckpt", expected_manifest=lib.manifest())
        evaluator = A.NetworkEvaluator(params)
        cfg = A.SearchConfig(mode=A.MODE_EXACT, training=True)
        records = []
        for seed in SEARCH_SEEDS:
            rng, cache = generator(seed), {}
            episodes, tally["trees"] = Tally("episodes"), Tally("trees")
            for i in range(EPISODES):
                env = A.sample_task_env(A.TaskId.PARTITION, 2 + i % 6, rng)
                record, stats = A.run_episode(A.TaskId.PARTITION, env, evaluator, lib,
                                              cfg, rng, cache=cache)
                episodes.count += 1
                episodes.sha.update(repr((record.reward, record.e_final, stats)).encode())
                hash_steps(episodes.sha, record.steps)
                records.append(record)
            out[f"search seed {seed}: {EPISODES} exact partition episodes"] = episodes.digest()
            out[f"search seed {seed}: statistics of every tree"] = tally["trees"].digest()
    finally:
        setattr(A.search, grow_name, grow)
        A.trainer.TraceRecord = make_record

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
