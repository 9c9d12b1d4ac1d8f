import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitcheck.py"
_spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
bc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bc)

# Stands in for the program in a fake checkout: the names the battery
# calls, returning data that depends on MARK only where the comments say,
# and search trees whose one prior is PRIOR. Importing it logs the
# importing process and its working directory.
FAKE_ARGSYNTH = '''\
import os
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

MARK = {mark!r}
PRIOR = {prior!r}
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

    def metrics_csv(self):
        return f"{{self.seed}},{{self.iterations}},{{MARK}}"

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


def _run_search():
    leaf = NS(visits=1, P=(), N=(), W=(), Q=(), children=[])
    return NS(root=NS(visits=2, P=[PRIOR], N=[1.0], W=[0.5], Q=[0.5], children=[leaf]))


search = NS(run_search=_run_search)


def run_episode(task, env, evaluator, lib, cfg, rng, cache):
    search.run_search()
    step = NS(action_name="stop", action_args=(0, 0, 0), pi_p_mcts=np.ones(2),
              pi_a_mcts=np.ones(2), hidden=np.zeros(1))
    return NS(reward=1, e_final=env, steps=[step]), "stats"


def NetworkGreedyPolicy(params, lib):
    return params


def evaluate_generalization(policy, lib, seed, lengths, trials):  # and here
    return [MARK, seed, lengths, trials]


def dims_for_library(lib):
    return 3


def init_params(seed, dims):
    return NS(arrays={{"w": np.zeros(dims)}})


def init_optimizer(params, lr):
    return NS(m={{"w": np.zeros(3)}}, v={{"w": np.ones(3)}})


def train_step(params, opt, batch):
    params.arrays["w"] += len(batch)
'''


def fake_checkout(path, mark, prior=1.0):
    package = path / "src" / "argsynth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(FAKE_ARGSYNTH.format(mark=mark, prior=prior))
    (path / "bench").mkdir()
    (path / "bench" / "params.ckpt").write_bytes(b"fake")
    return str(path)


def run(tmp_path, capsys, parent_mark, change_mark, change_prior=1.0):
    parent = fake_checkout(tmp_path / "parent", parent_mark)
    change = fake_checkout(tmp_path / "change", change_mark, change_prior)
    code = bc.main([parent, change])
    return code, capsys.readouterr()


def differing(out):
    return [line.split("  ", 1)[1] for line in out.splitlines() if line.startswith("DIFFERS")]


def test_identical_checkouts_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "a")
    assert code == 0
    assert out.out.count("same  ") == 8 and "DIFFERS" not in out.out
    assert out.out.rstrip().endswith("identical")


def test_each_side_runs_its_own_sources_in_its_own_process(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "b")
    assert code == 1 and out.out.rstrip().endswith("DIFFERENT")
    assert differing(out.out) == ["train seed 0: metrics_csv + search_csv",
                       "train seed 5: metrics_csv + search_csv",
                       "greedy eval grid seed 0"]
    pids, dirs = zip(*(line.split() for line in
                       (tmp_path / "imports.log").read_text().splitlines()))
    assert dirs == ("parent", "change")
    assert len(set(pids)) == 2 and str(os.getpid()) not in pids
    assert not list(tmp_path.rglob("__pycache__"))


def test_tree_statistics_are_read_from_every_search(tmp_path, capsys):
    code, out = run(tmp_path, capsys, "a", "a", change_prior=float.fromhex("0x1.0000000000001p+0"))
    assert code == 1
    assert differing(out.out) == ["search seed 101: statistics of every tree",
                                  "search seed 202: statistics of every tree"]


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
