"""Bit-for-bit comparison of two checkouts of this repository.

    python3 tools/bitcheck.py PARENT CHANGE

Runs one battery of digests in each checkout and prints them side by side.
Each side runs as its own process, from the checkout's root, with that
checkout's `src/` first on the import path. The battery:

- per trainer seed (0 and 5), three default-config iterations: the sha256
  of `Trainer.metrics_csv() + search_csv()`; the same without the
  `loss` column, which reads `same` where a change only reorders the
  float sums of training (the loss moves in its last bits, nothing else
  does); a digest of every episode
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
- one digest of `lockstep_episodes` on 7 exact-mode `partition` jobs
  with `bench/params.ckpt`, training noise on and a shared nested memo:
  what each episode returns and the `SearchStats`, then every tree the
  episodes grew, top-level and nested. The top level runs in waves of
  several rows while the nested searches run in waves of one, which no
  digest above combines;
- the greedy `evaluate_generalization` grid with `bench/params.ckpt` at
  seed 0, lengths 5/10/20/40/60, five trials a cell: one digest of its
  accuracy rows, and one of its trials, read through the LSTM cell
  `_cell` and the grid's `execute_greedy`: the bytes of the cell state and
  output of each greedy step that runs the cell, nested ones included
  (a call's first step that finds its answer in the execution's memo
  runs none), and each trial's trace entries, which hold every step's
  choice, its reward and its final state. A last-bit change in a cell
  output seldom changes an accuracy, so the rows alone would miss it.
  `_cell` is patched under that name in each module that has it, so a
  step function that calls it from `search` or through `network` is read
  alike;
- the network at two scales: `init_params(0)` with every bias drawn
  nonzero, all scaled by 300 and by 3. At 300 the LSTM's pre-activations
  reach the -500 clip (`bench/params.ckpt` seldom does) and every gate
  saturates; at 3 every pre-activation lies inside (-37, 37), where the
  gates are not yet rounded to 0 or 1, and the gradients are of order 1.
  The bytes of `forward` on 20 chained vectors, of `forward_rows` on 3
  chained waves of 5 rows, and of `loss_and_grads` on one packed batch of
  traces of lengths 1-6, solved and failed;
- the parameters and the Adam moments `m` and `v` after 16 `train_step`s
  from a fresh network on batches of the episodes above. This digest
  differs whenever the episodes do.

Trees are read where they are grown: through `search._grow`, the tree
generator that both `run_search` and the trainer's lockstep episodes use.
Each episode, tree and greedy-step digest ends with the number of
episodes, trees or greedy cell steps it covered, and a side whose digest
covered none fails.

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
from types import SimpleNamespace as NS

SIDES = ("parent", "change")
DIGESTS_FLAG = "--digests-of-this-checkout"

TRAIN_SEEDS = (0, 5)
TRAIN_ITERATIONS = 3
SEARCH_SEEDS = (101, 202)
EPISODES = 40
# (length, seed of the start state) per lockstep job; the job's stream is
# seeded with the seed plus 1000.
LOCKSTEP_JOBS = [(2 + i % 4, 300 + i) for i in range(7)]
LOCKSTEP_SIMULATIONS = (25, 15)  # top-level and nested
EVAL_LENGTHS = (5, 10, 20, 40, 60)
EVAL_TRIALS = 5
TRAIN_STEPS, TRAIN_BATCH = 16, 16
NETWORK_SCALES = (300.0, 3.0)
NETWORK_VECTORS, NETWORK_WAVES, NETWORK_ROWS = 20, 3, 5
NETWORK_TRACE_LENGTHS = range(1, 7)


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _drop_column(csv_text: str, column: str) -> str:
    """`csv_text` without the column headed `column`."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    k = rows[0].index(column)
    return "\n".join(",".join(r[:k] + r[k + 1:]) for r in rows) + "\n"


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

    grow = A.search._grow

    def hashing_grow(*args, **kwargs):
        res = yield from grow(*args, **kwargs)
        hash_tree(res.root)
        return res

    make_record = A.trainer.TraceRecord
    A.search._grow = hashing_grow  # every tree, nested ones too
    A.trainer.TraceRecord = hashing_record
    try:
        out = {}
        for seed in TRAIN_SEEDS:
            tally.update(trees=Tally("trees"), records=Tally("episodes"))
            trainer = A.Trainer(A.RunConfig(seed=seed).to_train_config())
            trainer.run(TRAIN_ITERATIONS)
            metrics, searches = trainer.metrics_csv(), trainer.search_csv()
            out[f"train seed {seed}: metrics_csv + search_csv"] = _sha(metrics + searches)
            out[f"train seed {seed}: metrics_csv without loss + search_csv"] = _sha(
                _drop_column(metrics, "loss") + searches)
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

        top, nested = LOCKSTEP_SIMULATIONS
        jobs = [(A.TaskId.PARTITION, A.sample_task_env(A.TaskId.PARTITION, n, generator(s)),
                 generator(s + 1000)) for n, s in LOCKSTEP_JOBS]
        stats, tally["trees"] = A.SearchStats(), Tally("trees")
        outcomes = A.search.lockstep_episodes(
            jobs, A.NetworkEvaluator(params), lib,
            A.SearchConfig(mode=A.MODE_EXACT, simulations=top, nested_simulations=nested,
                           training=True), stats, {})
        lock = tally["trees"]
        for steps, reward, final in outcomes:
            lock.sha.update(repr((reward, final)).encode())
            hash_steps(lock.sha, steps)
        lock.sha.update(repr(stats).encode())
        out[f"lockstep: {len(jobs)} exact partition episodes, with every tree"] = lock.digest()
    finally:
        A.search._grow = grow
        A.trainer.TraceRecord = make_record

    cell, execute = A.network._cell, A.trainer.execute_greedy
    cell_modules = [m for m in (A.network, A.search) if hasattr(m, "_cell")]
    greedy = Tally("greedy cell steps")

    def hashing_cell(*args, **kwargs):
        c, h = cell(*args, **kwargs)
        greedy.count += 1
        greedy.sha.update(c.tobytes())
        greedy.sha.update(h.tobytes())
        return c, h

    def hashing_execute(env, task, policy, lib):
        trace = []
        r, final = execute(env, task, policy, lib, trace=trace)
        greedy.sha.update(repr(([(t.depth, t.name, t.args) for t in trace],
                                r, final)).encode())
        return r, final

    for module in cell_modules:  # every step that runs the cell, nested ones too
        module._cell = hashing_cell
    A.trainer.execute_greedy = hashing_execute  # each trial of the grid
    try:
        rows = A.evaluate_generalization(A.NetworkGreedyPolicy(params, lib), lib, seed=0,
                                         lengths=EVAL_LENGTHS, trials=EVAL_TRIALS)
    finally:
        for module in cell_modules:
            module._cell = cell
        A.trainer.execute_greedy = execute
    out["greedy eval grid seed 0"] = _sha(repr(rows))
    out["greedy eval grid seed 0: every trial, cell output and choice"] = greedy.digest()

    for scale in NETWORK_SCALES:
        out[f"network at scale {scale:g}: forward, forward_rows and loss_and_grads"] = (
            scaled_network(A, lib, generator(13), scale))

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


def scaled_network(A, lib, rng, scale: float) -> str:
    """The bytes of `forward`, `forward_rows` and `loss_and_grads` on
    `init_params(0)` with the all-zero arrays (the biases) drawn nonzero,
    then every array times `scale`."""
    import numpy as np

    net = A.init_params(0, A.dims_for_library(lib))
    for array in net.arrays.values():
        if not array.any():
            array[...] = rng.uniform(-1.0, 1.0, array.shape)
        array *= scale
    d = net.dims
    h = hashlib.sha256()

    def hash_output(out):
        for array in (out.pi_p, out.pi_a, np.float64(out.value), out.hidden.h, out.hidden.c):
            h.update(array.tobytes())

    hidden, outs = None, []
    for i in range(NETWORK_VECTORS):
        outs.append(A.forward(net, rng.random(d.obs), i % d.tasks, hidden))
        hash_output(outs[-1])
        hidden = outs[-1].hidden
    wave = outs[:NETWORK_ROWS]
    for _ in range(NETWORK_WAVES):
        wave = A.forward_rows(net, list(rng.random((NETWORK_ROWS, d.obs))),
                              [j % d.tasks for j in range(NETWORK_ROWS)],
                              [out.hidden for out in wave])
        for out in wave:
            hash_output(out)

    def target(n):
        p = rng.random(n)
        return p / p.sum()

    batch = [NS(task_index=n % d.tasks, reward=n % 2,
                steps=[NS(obs=rng.random(d.obs), pi_p_mcts=target(d.programs),
                          pi_a_mcts=target(d.args)) for _ in range(n)])
             for n in NETWORK_TRACE_LENGTHS]
    total, grads = A.loss_and_grads(net, batch)
    h.update(np.float64(total).tobytes())
    for name in sorted(grads):
        h.update(grads[name].tobytes())
    return h.hexdigest()


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
