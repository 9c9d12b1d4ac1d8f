import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
bc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bc)

# Stands in for the program in a fake checkout: the names the battery
# calls, returning data that depends on MARK only where the comments say,
# search trees whose one prior is PRIOR, grown by a tree generator that
# `run_search` drives, as the program's search module has, greedy steps
# whose LSTM cell state is PI, run through `_cell` from the module named
# by CELL_HOME (the program's search module imports it from `network`),
# a `loss` column of LOSS in the trainer's metrics, and network steps whose
# `pi_p` is CELL. Importing it logs the importing process and its working
# directory.
FAKE_ARGSYNTH = '''\
import os
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

MARK = {mark!r}
PRIOR = {prior!r}
PI = {pi!r}
LOSS = {loss!r}
CELL = {cell!r}
CELL_HOME = {cell_home!r}
with open(Path(__file__).resolve().parents[3] / "imports.log", "a") as fh:
    fh.write(f"{{os.getpid()}} {{Path.cwd().name}}\\n")
if MARK == "broken":
    raise RuntimeError("this checkout does not import")

MODE_EXACT = "exact"
TaskId = NS(PARTITION="partition")


class RunConfig:
    def __init__(self, seed):
        self.seed = seed

    def to_train_config(self):
        return self


class Trainer:  # MARK shows in the training digests
    def __init__(self, cfg):
        self.seed = cfg.seed

    def run(self, iterations):
        self.iterations = iterations
        if MARK != "grows no tree":
            search.run_search()
        trainer.TraceRecord(task_name="partition", e_initial=self.seed, reward=1,
                            e_final=MARK, steps=[STEP])

    def metrics_csv(self):
        return f"seed,iterations,loss,mark\\n{{self.seed}},{{self.iterations}},{{LOSS}},{{MARK}}\\n"

    def search_csv(self):
        return ""


def build_library(mode):
    return NS(manifest=lambda: mode)


def checkpoint_load(path, expected_manifest):
    Path(path).read_bytes()
    return "params", None, None


def NetworkEvaluator(params):
    return params


def SearchConfig(**kw):
    return kw


def sample_task_env(task, n, rng):
    return (task, n, float(rng.random()))


def _grow():
    leaf = NS(visits=1, P=(), N=(), W=(), Q=(), children=[])
    return NS(root=NS(visits=2, P=[PRIOR], N=[1.0], W=[0.5], Q=[0.5], children=[leaf]))
    yield


def _run_search():
    try:
        next(search._grow())
    except StopIteration as done:
        return done.value


def _lockstep_episodes(jobs, evaluator, lib, cfg, stats, cache):
    search.run_search()
    return [([STEP], 1, env) for _, env, _ in jobs]


def SearchStats():
    return "stats"


def _execute_greedy(env, task, policy, lib, trace=None):  # MARK shows in the final state
    getattr(search if CELL_HOME == "search" else network, "_cell")(policy, np.zeros(2), None)
    trace.append(NS(depth=0, name="stop", args=(0, 0, 0)))
    return 1, MARK


def _cell(params, z, c_prev):
    return np.full(2, PI), np.ones(2)


network = NS(_cell=_cell)
search = NS(run_search=_run_search, _grow=_grow, lockstep_episodes=_lockstep_episodes)
if CELL_HOME == "search":
    search._cell = _cell
trainer = NS(TraceRecord=NS, execute_greedy=_execute_greedy)
STEP = NS(action_name="stop", action_args=(0, 0, 0), pi_p_mcts=np.ones(2),
          pi_a_mcts=np.ones(2), hidden=np.zeros(1))


def run_episode(task, env, evaluator, lib, cfg, rng, cache):
    search.run_search()
    return NS(reward=1, e_final=env, steps=[STEP]), "stats"


def NetworkGreedyPolicy(params, lib):
    return params


def evaluate_generalization(policy, lib, seed, lengths, trials):  # and here
    for _ in range(trials):
        trainer.execute_greedy((seed, lengths), "partition", policy, lib)
    return [MARK, seed, lengths, trials]


def dims_for_library(lib):
    return 3


def init_params(seed, dims):
    return NS(dims=NS(obs=2, tasks=4, programs=2, args=2), arrays={{"w": np.zeros(dims)}})


def forward(params, obs, task, hidden=None):
    return NS(pi_p=np.full(2, CELL), pi_a=obs, value=0.5,
              hidden=NS(h=np.zeros(1), c=np.ones(1)))


def forward_rows(params, obs, task, hidden):
    return [forward(params, o, t, hs) for o, t, hs in zip(obs, task, hidden)]


def loss_and_grads(params, batch):
    return float(len(batch)), {{"w": params.arrays["w"].copy()}}


def init_optimizer(params, lr):
    return NS(m={{"w": np.zeros(3)}}, v={{"w": np.ones(3)}})


def train_step(params, opt, batch):
    params.arrays["w"] += len(batch)
'''


def fake_checkout(path, mark, prior=1.0, pi=1.0, loss=28.5, cell=1.0, cell_home="search"):
    package = path / "src" / "argsynth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(FAKE_ARGSYNTH.format(
        mark=mark, prior=prior, pi=pi, loss=loss, cell=cell, cell_home=cell_home))
    (path / "bench").mkdir()
    (path / "bench" / "params.ckpt").write_bytes(b"fake")
    return str(path)


def run(tmp_path, capsys, parent_mark, change_mark, change_prior=1.0, change_pi=1.0,
        change_loss=28.5, change_cell=1.0, parent_cell_home="search"):
    parent = fake_checkout(tmp_path / "parent", parent_mark, cell_home=parent_cell_home)
    change = fake_checkout(tmp_path / "change", change_mark, change_prior, change_pi,
                           change_loss, change_cell)
    code = bc.main([parent, change])
    return code, capsys.readouterr()


def differing(out):
    return [line.split("  ", 1)[1] for line in out.splitlines() if line.startswith("DIFFERS")]


def test_identical_checkouts_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "a")
    assert code == 0
    assert out.out.count("same  ") == 18 and "DIFFERS" not in out.out
    assert out.out.rstrip().endswith("identical")


def test_the_greedy_cell_is_read_in_the_module_that_calls_it(tmp_path, capsys):
    """A side whose greedy step runs `network._cell`, where `search` has no
    `_cell`, and one whose step runs the `_cell` that `search` imported read
    the same greedy digest."""
    code, out = run(tmp_path, capsys, "a", "a", parent_cell_home="network")
    assert code == 0
    assert out.out.count("same  ") == 18 and " over 5 greedy cell steps" in out.out


def test_each_side_runs_its_own_sources_in_its_own_process(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "b")
    assert code == 1 and out.out.rstrip().endswith("DIFFERENT")
    assert differing(out.out) == ["train seed 0: metrics_csv + search_csv",
                                  "train seed 0: metrics_csv without loss + search_csv",
                                  "train seed 0: every episode",
                                  "train seed 5: metrics_csv + search_csv",
                                  "train seed 5: metrics_csv without loss + search_csv",
                                  "train seed 5: every episode",
                                  "greedy eval grid seed 0",
                                  "greedy eval grid seed 0: every trial, cell output and choice"]
    pids, dirs = zip(*(line.split() for line in
                       (tmp_path / "imports.log").read_text().splitlines()))
    assert dirs == ("parent", "change")
    assert len(set(pids)) == 2 and str(os.getpid()) not in pids
    assert not list(tmp_path.rglob("__pycache__"))


def test_tree_statistics_are_read_from_every_search(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "a", change_prior=float.fromhex("0x1.0000000000001p+0"))
    assert code == 1
    assert differing(out.out) == ["train seed 0: statistics of every tree",
                                  "train seed 5: statistics of every tree",
                                  "search seed 101: statistics of every tree",
                                  "search seed 202: statistics of every tree",
                                  "lockstep: 7 exact partition episodes, with every tree"]


def test_greedy_steps_are_read_to_the_last_bit(tmp_path, capsys):
    """A last-bit change in a greedy step's cell output changes the greedy
    step digest, though no accuracy row moves."""
    code, out = run(tmp_path, capsys, "a", "a", change_pi=float.fromhex("0x1.0000000000001p+0"))
    assert code == 1
    assert differing(out.out) == ["greedy eval grid seed 0: every trial, cell output and choice"]
    assert " over 5 greedy cell steps" in out.out


def test_a_last_bit_change_in_the_cell_shows_on_the_clipped_network_line(tmp_path, capsys):
    """The scaled-network digests, the clipped one at scale 300 and the
    one at scale 3, read the bytes of each network step, so a last-bit
    change in what the cell computes shows on both."""
    code, out = run(tmp_path, capsys, "a", "a", change_cell=float.fromhex("0x1.0000000000001p+0"))
    assert code == 1
    assert differing(out.out) == [
        "network at scale 300: forward, forward_rows and loss_and_grads",
        "network at scale 3: forward, forward_rows and loss_and_grads"]


def test_a_change_to_the_loss_alone_shows_only_on_the_full_metrics_line(tmp_path, capsys):
    """A change that reorders training's float sums moves the `loss` column
    in its last bits: the full line reads DIFFERS, the line without the
    loss `same`."""
    code, out = run(tmp_path, capsys, "a", "a", change_loss=28.500000000000004)
    assert code == 1
    assert differing(out.out) == ["train seed 0: metrics_csv + search_csv",
                                  "train seed 5: metrics_csv + search_csv"]
    assert "same  train seed 0: metrics_csv without loss + search_csv" in out.out
    assert "same  train seed 5: metrics_csv without loss + search_csv" in out.out


def test_a_digest_that_covers_nothing_fails_its_side(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "grows no tree")
    assert code == 1
    assert "change:" in out.err and "a digest of trees covered none" in out.err


def test_trees_grown_by_the_tree_generator_are_read(tmp_path, capsys):
    """Trees are read in `search._grow`, and a tree that `run_search`
    returns is not read twice."""
    code, out = run(tmp_path, capsys, "a", "a", change_prior=2.0)
    assert code == 1
    assert differing(out.out) == ["train seed 0: statistics of every tree",
                                  "train seed 5: statistics of every tree",
                                  "search seed 101: statistics of every tree",
                                  "search seed 202: statistics of every tree",
                                  "lockstep: 7 exact partition episodes, with every tree"]
    assert " over 1 trees" in out.out and " over 40 trees" in out.out


def test_a_side_that_fails_fails_the_comparison(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "broken")
    assert code == 1
    assert "change:" in out.err and "does not import" in out.err


def test_a_digest_missing_on_one_side_is_a_difference():
    text, same = bc.compare({"parent": {"x": "1", "y": "2"}, "change": {"x": "1", "z": "2"}})
    assert not same
    assert [line.split("  ")[0] for line in text.splitlines() if not line.startswith(" ")] == [
        "same", "DIFFERS", "DIFFERS"]
    assert bc.compare({"parent": {"x": "1"}, "change": {"x": "1"}}) == (
        "same  x\n    parent 1\n    change 1", True)
