"""Recursive Monte Carlo tree search over program/argument pairs.

One tree is grown per action: nodes are environment states inside the
current program's episode, edges are program calls. Exact expansion creates
every feasible child; approximate expansion samples a fixed number of them,
which bounds the per-expansion node count. Selecting a learned-program edge
triggers a nested search for that program with a fresh hidden state.

Most simulations of a well-trained search walk an existing path back to a
terminal leaf. Such a simulation draws no random numbers, calls no
evaluator and builds no node, so when one repeats the previous
simulation's path, `run_search` fast-forwards: `_fast_forward` scores the
next simulations' PUCT choices at every node on the path at once. Each
simulation down a fixed path adds one visit to every node on it and the
leaf's value to each chosen edge. The scores after j more of them are
then closed forms of j: sqrt(visits + j), N + j, and W plus j copies of
the value, summed in sequence. They are computed with the operations of
`puct_select`, in its order, so the first simulation that would leave the
path is found exactly. The visits before it are applied in one step, and
the tree, the statistics and the random stream end as the one-at-a-time
loop would leave them, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace as dc_replace
from typing import Any, Callable, Optional, Protocol, Sequence

import numpy as np

from . import env as E
from . import programs as P
from .env import EnvState, TaskId, observe, reward, step_cap
from .network import (
    HiddenState,
    ParameterSet,
    forward,
    greedy_select,
    masked_distributions,
    zero_hidden,
)
from .programs import ArgTuple, FeasibleSet, ProgramLibrary, ProgramSpec, feasible_pairs

MODE_EXACT = "exact"
MODE_APPROX = "approx"

# Learned levels are 1/2/4/5: a call chain can recurse at most four deep.
MAX_RECURSION = 4


class SearchError(RuntimeError):
    """Dead-end root or broken recursion contract."""


def tunable(default, need: Optional[str] = None,
            ok: Optional[Callable[[Any], bool]] = None, key: Optional[str] = None):
    """A config field that a run file may set, declared once: its default,
    the range it must lie in (`ok`, which `need` describes), and its file
    key where that differs from the field name."""
    return field(default=default, metadata={"tunable": True, "need": need,
                                            "ok": ok, "key": key})


def check_tunables(cfg) -> None:
    """Raise ValueError for the first tunable field of `cfg` out of range."""
    for f in fields(cfg):
        ok = f.metadata.get("ok")
        if ok is not None and not ok(getattr(cfg, f.name)):
            raise ValueError(f"{f.name} out of range (need {f.metadata['need']})")


@dataclass
class SearchConfig:
    mode: str = tunable(MODE_APPROX, "exact|approx",
                        lambda v: v in (MODE_EXACT, MODE_APPROX), key="search")
    n_expand: int = tunable(5, ">= 1", lambda v: v >= 1)
    simulations: int = tunable(200, ">= 1", lambda v: v >= 1)
    c_puct: float = tunable(1.0, ">= 0", lambda v: v >= 0.0)
    dirichlet_alpha: float = tunable(0.3, "> 0", lambda v: v > 0.0)
    dirichlet_weight: float = tunable(0.25, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    temperature: float = tunable(1.0, ">= 0", lambda v: v >= 0.0)
    nested_simulations: int = tunable(100, ">= 0", lambda v: v >= 0)
    training: bool = True  # enables Dirichlet exploration noise

    def validate(self) -> None:
        check_tunables(self)


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    simulations: int = 0
    max_depth: int = 0
    recursions: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.nodes_expanded += other.nodes_expanded
        self.simulations += other.simulations
        self.max_depth = max(self.max_depth, other.max_depth)
        self.recursions += other.recursions


class Evaluator(Protocol):
    """Prior/value source for the search; the trained network in
    production, stubs in tests.

    `env` is only the current state. The hidden state is the evaluator's
    only channel for the history of the running episode: `evaluate`
    returns the hidden state advanced past `env`, the search hands it to
    every child of that node, and the episode carries the root's one from
    each committed action to the next. Each nested search of a learned
    call starts from a fresh `initial_hidden()`.
    """

    def evaluate(self, env: EnvState, task_index: int, hidden: HiddenState
                 ) -> tuple[np.ndarray, np.ndarray, float, HiddenState]: ...

    def initial_hidden(self) -> HiddenState: ...


class NetworkEvaluator:
    def __init__(self, params: ParameterSet):
        self.params = params

    def evaluate(self, env, task_index, hidden):
        out = forward(self.params, observe(env), task_index, hidden)
        return out.pi_p, out.pi_a, out.value, out.hidden

    def initial_hidden(self) -> HiddenState:
        return zero_hidden(self.params.dims)


class UniformEvaluator:
    """Flat priors and a neutral value; used for search sanity checks."""

    def __init__(self, lib: ProgramLibrary):
        self._pi_p = np.full(len(lib), 1.0 / len(lib))
        self._pi_a = np.full(P.ARG_SPACE, 1.0 / P.ARG_SPACE)

    def evaluate(self, env, task_index, hidden):
        return self._pi_p.copy(), self._pi_a.copy(), 0.5, hidden

    def initial_hidden(self) -> HiddenState:
        z = np.zeros(1)
        return HiddenState(z, z)


class Node:
    """Tree node: a state plus the statistics of its outgoing edges.

    `Q` holds each edge's mean value, FPU_Q while unvisited; `backup` keeps
    it current. An expanded node's first visit is the one that expanded
    it, so `visits` is always the sum of `N` plus one.

    `backup` and `_fast_forward` are the only writers of the statistics.
    A run of k simulations that repeat one path to a terminal leaf may be
    applied at once: `visits` and `N[idx]` rise by k, `W[idx]` gets the
    leaf's value added k times in sequence, and `Q[idx]` becomes `W / N`.
    Those are the values that k calls of `backup` would leave.
    """

    __slots__ = (
        "env", "h_in", "h_out", "depth", "feasible", "edges", "P", "N", "W", "Q",
        "children", "visits", "expanded", "terminal", "value", "failed_subcall",
    )

    def __init__(self, env: EnvState, h_in: HiddenState, depth: int):
        self.env = env
        self.h_in = h_in
        self.h_out: Optional[HiddenState] = None
        self.depth = depth
        self.feasible: FeasibleSet | list = []
        self.edges: FeasibleSet | list = []
        self.P = np.zeros(0)
        self.N = np.zeros(0)
        self.W = np.zeros(0)
        self.Q = np.zeros(0)
        self.children: list[Optional["Node"]] = []
        self.visits = 0
        self.expanded = False
        self.terminal = False
        self.value = 0.0
        self.failed_subcall = False


# Rewards live in [0,1], so 0.5 is the scale's neutral point. Unvisited
# edges score it instead of 0: a literal zero would brand every fresh line
# as already-lost and strangle the deep discoveries the budget can afford.
FPU_Q = 0.5


def puct_select(node: Node, c_puct: float) -> int:
    """Index of the child maximizing Q plus the prior-weighted exploration
    bonus; unvisited children count as value-neutral; ties go to the
    lowest index."""
    if not node.edges:
        raise SearchError("puct_select on a childless node")
    # sqrt(visits) is sqrt(N.sum() + 1), the parent count of the PUCT bonus.
    bonus = c_puct * node.P * math.sqrt(node.visits) / (1.0 + node.N)
    return int((node.Q + bonus).argmax())


def backup(path: Sequence[tuple[Node, Optional[int]]], value: float) -> None:
    """Add one visit carrying `value` to every node/edge along the path."""
    for node, idx in path:
        node.visits += 1
        if idx is not None:
            node.N[idx] += 1.0
            node.W[idx] += value
            node.Q[idx] = node.W[idx] / node.N[idx]


def joint_prior(node: Node, pi_p_masked: np.ndarray, pi_a_masked: np.ndarray) -> np.ndarray:
    """Factorized prior over the node's feasible pairs, renormalized."""
    pri = pi_p_masked[node.feasible.prog_idx] * pi_a_masked[node.feasible.arg_idx]
    total = pri.sum()
    if total > 0:
        return pri / total
    return np.full(len(pri), 1.0 / len(pri))


def expand(node: Node, pi_p_masked: np.ndarray, pi_a_masked: np.ndarray,
           cfg: SearchConfig, rng: np.random.Generator, stats: SearchStats) -> None:
    """Create the node's children from its feasible pairs.

    Training searches mix Dirichlet noise into the prior at every
    expansion. Approximate mode then samples at most n_expand distinct
    pairs from it; with n_expand >= M it reduces exactly to exact mode.
    """
    if node.expanded or node.terminal:
        raise SearchError("expand on an expanded or terminal node")
    if not node.feasible:
        node.terminal = True
        node.value = 0.0
        return
    pri = joint_prior(node, pi_p_masked, pi_a_masked)
    m = len(pri)
    if cfg.training and cfg.dirichlet_weight > 0.0:
        noise = rng.dirichlet(np.full(m, cfg.dirichlet_alpha))
        pri = (1.0 - cfg.dirichlet_weight) * pri + cfg.dirichlet_weight * noise
    if cfg.mode == MODE_APPROX and cfg.n_expand < m:
        p_sample = pri
        if np.count_nonzero(p_sample) < cfg.n_expand:
            p_sample = p_sample + 1e-12
        p_sample = p_sample / p_sample.sum()
        picked = rng.choice(m, size=cfg.n_expand, replace=False, p=p_sample)
        picked = np.sort(picked)
        node.edges = node.feasible.take(picked)
        pri = pri[picked]
        pri = pri / pri.sum()
    else:
        node.edges = node.feasible
        pri = pri / pri.sum()
    assert cfg.mode != MODE_APPROX or len(node.edges) <= cfg.n_expand
    node.P = pri
    node.N = np.zeros(len(node.edges))
    node.W = np.zeros(len(node.edges))
    node.Q = np.full(len(node.edges), FPU_Q)
    node.children = [None] * len(node.edges)
    node.expanded = True
    stats.nodes_expanded += len(node.edges)


@dataclass
class EpisodeStep:
    """One decided action of an episode, with its training targets."""

    obs: np.ndarray
    action_name: str
    action_args: ArgTuple
    pi_p_mcts: np.ndarray
    pi_a_mcts: np.ndarray
    hidden: np.ndarray  # post-step LSTM output snapshot, for inspection


@dataclass
class SearchResult:
    pi_p_mcts: np.ndarray
    pi_a_mcts: np.ndarray
    spec: ProgramSpec
    args: ArgTuple
    next_env: Optional[EnvState]
    next_hidden: HiddenState
    is_stop: bool
    subcall_failed: bool
    root: Node  # the searched tree, kept for inspection


class _Context:
    """Per-episode bundle shared by every simulation of its searches."""

    __slots__ = ("task", "task_index", "caller_level", "e_initial", "lib",
                 "evaluator", "cfg", "stats", "rng", "cache", "depth")

    def __init__(self, task, e_initial, lib, evaluator, cfg, stats, rng, cache, depth):
        self.task = task
        self.task_index = lib.task_index(task)
        self.caller_level = lib.spec(task.program_name).level
        self.e_initial = e_initial
        self.lib = lib
        self.evaluator = evaluator
        self.cfg = cfg
        self.stats = stats
        self.rng = rng
        self.cache = cache
        self.depth = depth


def recurse_subprogram(
    env: EnvState, spec: ProgramSpec, lib: ProgramLibrary, evaluator: Evaluator,
    cfg: SearchConfig, stats: SearchStats, rng: np.random.Generator,
    cache: Optional[dict] = None, depth: int = 0,
) -> tuple[Optional[EnvState], bool]:
    """Run a learned program as a nested search episode from `env`.

    Returns its final state on reward 1, or (None, False) when the nested
    episode fails; the caller then pins that edge's value at zero. Results
    are memoized per (program, state) while parameters are frozen.
    """
    if spec.is_atomic:
        raise SearchError(f"recurse_subprogram on atomic {spec.name}")
    if depth >= MAX_RECURSION:
        raise SearchError("recursion exceeded the library height")
    key = (spec.name, env)
    if cache is not None and key in cache:
        return cache[key]
    if cfg.nested_simulations < 1:
        result: tuple[Optional[EnvState], bool] = (None, False)
    else:
        nested_cfg = dc_replace(
            cfg, simulations=cfg.nested_simulations, temperature=0.0)
        stats.recursions += 1
        _, r, final_env = search_episode(
            TaskId(spec.name), env, evaluator, lib, nested_cfg, stats, rng,
            cache=cache, depth=depth + 1)
        result = (final_env, True) if r == 1 else (None, False)
    if cache is not None:
        cache[key] = result
    return result


def _materialize(node: Node, idx: int, ctx: _Context, max_depth: int) -> Node:
    spec, args = node.edges[idx]
    child = Node(env=node.env, h_in=node.h_out, depth=node.depth + 1)
    if spec.name == "stop":
        child.terminal = True
        child.value = float(reward(ctx.task, ctx.e_initial, node.env))
        node.children[idx] = child
        return child
    if spec.is_atomic:
        child.env = P.apply_atomic(node.env, spec, args)
    else:
        result_env, ok = recurse_subprogram(
            node.env, spec, ctx.lib, ctx.evaluator, ctx.cfg, ctx.stats,
            ctx.rng, ctx.cache, ctx.depth)
        if not ok:
            child.terminal = True
            child.value = 0.0
            child.failed_subcall = True
            node.children[idx] = child
            return child
        child.env = result_env
    if child.depth >= max_depth:
        # No action budget left below this state and it has not stopped.
        child.terminal = True
        child.value = 0.0
    node.children[idx] = child
    return child


def _expand_and_eval(node: Node, ctx: _Context) -> float:
    node.feasible = feasible_pairs(node.env, ctx.caller_level, ctx.lib)
    if not node.feasible:
        node.terminal = True
        node.value = 0.0
        return 0.0
    pi_p, pi_a, value, h_out = ctx.evaluator.evaluate(node.env, ctx.task_index, node.h_in)
    node.h_out = h_out
    mp, ma = masked_distributions(pi_p, pi_a, node.feasible)
    expand(node, mp, ma, ctx.cfg, ctx.rng, ctx.stats)
    return value


SearchPath = list[tuple[Node, Optional[int]]]


def _simulate(root: Node, ctx: _Context, max_depth: int) -> tuple[SearchPath, float]:
    path: SearchPath = []
    node = root
    while True:
        if node.terminal:
            path.append((node, None))
            value = node.value
            break
        if not node.expanded:
            value = _expand_and_eval(node, ctx)
            path.append((node, None))
            break
        idx = puct_select(node, ctx.cfg.c_puct)
        child = node.children[idx]
        if child is None:
            child = _materialize(node, idx, ctx, max_depth)
        path.append((node, idx))
        node = child
    backup(path, value)
    ctx.stats.simulations += 1
    ctx.stats.max_depth = max(ctx.stats.max_depth, node.depth)
    return path, value


def _fast_forward(path: SearchPath, value: float, budget: int, c_puct: float) -> int:
    """Apply at once the longest run, up to `budget`, of simulations that
    would repeat `path`; returns the run's length. `path` is the one the
    last simulation took and backed up, ending on a terminal leaf worth
    `value`.

    Row j scores each node on the path as `puct_select` would after j more
    visits down the path, in the same operation order: the visit count,
    the edge's N and its W (summed in sequence) are closed forms of j.
    """
    k = budget
    j = np.arange(float(budget))
    run = np.full(budget + 1, value)  # run[0] = W before the run, then one value per visit
    for node, idx in path[:-1]:
        if k == 0:
            break
        if len(node.N) == 1:
            continue
        n = node.N[idx] + j[:k]
        run[0] = node.W[idx]
        s = np.sqrt(node.visits + j[:k])
        cp = c_puct * node.P
        score = node.Q + cp * s[:, None] / (1.0 + node.N)
        score[:, idx] = np.add.accumulate(run[:k]) / n + cp[idx] * s / (1.0 + n)
        off = np.flatnonzero(score.argmax(axis=1) != idx)
        if off.size:
            k = int(off[0])
    if k:
        for node, idx in path[:-1]:
            node.visits += k
            node.N[idx] += k
            run[0] = node.W[idx]
            node.W[idx] = np.add.accumulate(run[:k + 1])[k]
            node.Q[idx] = node.W[idx] / node.N[idx]
        path[-1][0].visits += k
    return k


def run_search(
    task: TaskId, env: EnvState, hidden: HiddenState, e_initial: EnvState,
    lib: ProgramLibrary, evaluator: Evaluator, cfg: SearchConfig,
    stats: SearchStats, rng: np.random.Generator,
    steps_taken: int = 0, cache: Optional[dict] = None, depth: int = 0,
) -> SearchResult:
    """Grow one tree from `env` and commit a single action.

    Returns the visit-count policies over the root, the chosen pair and
    the state after applying it. The hidden state advanced past the root
    observation is returned for the episode to carry forward.
    """
    cfg.validate()
    ctx = _Context(task, e_initial, lib, evaluator, cfg, stats, rng, cache, depth)
    cap = step_cap(task, e_initial.n)
    max_depth = cap - steps_taken
    if max_depth < 1:
        raise SearchError("no action budget left for this episode")
    root = Node(env=env, h_in=hidden, depth=0)
    left = cfg.simulations
    last_leaf = None
    while left:
        path, value = _simulate(root, ctx, max_depth)
        left -= 1
        leaf = path[-1][0]
        if leaf.terminal and leaf is last_leaf and left:
            # Same leaf, same path: a tree node has one path from the root.
            k = _fast_forward(path, value, left, cfg.c_puct)
            stats.simulations += k
            left -= k
        last_leaf = leaf
    if root.terminal or not root.edges:
        raise SearchError("dead-end root: no feasible program/argument pair")
    counts = root.N
    if counts.sum() > 0:
        if cfg.temperature <= 0.0:
            weights = np.zeros(len(counts))
            weights[int(np.argmax(counts))] = 1.0
        else:
            scaled = (counts / counts.max()) ** (1.0 / cfg.temperature)
            weights = scaled / scaled.sum()
    else:
        weights = root.P.copy()  # degenerate budget: fall back to the prior
    # bincount adds the weights in edge order, as a loop over the edges would.
    pi_p_mcts = np.bincount(root.edges.prog_idx, weights, minlength=len(lib))
    pi_a_mcts = np.bincount(root.edges.arg_idx, weights, minlength=P.ARG_SPACE)
    if cfg.temperature <= 0.0 or counts.sum() == 0:
        chosen = int(np.argmax(weights))
    else:
        chosen = int(rng.choice(len(weights), p=weights))
    spec, args = root.edges[chosen]
    child = root.children[chosen]
    if child is None:
        child = _materialize(root, chosen, ctx, max_depth)
    next_hidden = root.h_out if root.h_out is not None else hidden
    if child.failed_subcall:
        return SearchResult(pi_p_mcts, pi_a_mcts, spec, args, None,
                            next_hidden, False, True, root)
    return SearchResult(pi_p_mcts, pi_a_mcts, spec, args, child.env,
                        next_hidden, spec.name == "stop", False, root)


def search_episode(
    task: TaskId, env: EnvState, evaluator: Evaluator, lib: ProgramLibrary,
    cfg: SearchConfig, stats: SearchStats, rng: np.random.Generator,
    cache: Optional[dict] = None, depth: int = 0,
) -> tuple[list[EpisodeStep], int, EnvState]:
    """Search-driven episode: one tree per action until stop or the cap.

    Returns the per-step records (observations, tree policies, actions),
    the episode reward, and the final state.
    """
    e = env
    hidden = evaluator.initial_hidden()
    steps: list[EpisodeStep] = []
    cap = step_cap(task, env.n)
    for t in range(cap):
        res = run_search(task, e, hidden, env, lib, evaluator, cfg, stats,
                         rng, steps_taken=t, cache=cache, depth=depth)
        steps.append(EpisodeStep(
            obs=observe(e),
            action_name=res.spec.name,
            action_args=res.args,
            pi_p_mcts=res.pi_p_mcts,
            pi_a_mcts=res.pi_a_mcts,
            hidden=np.array(res.next_hidden.h, copy=True),
        ))
        hidden = res.next_hidden
        if res.subcall_failed:
            return steps, 0, e
        if res.is_stop:
            return steps, reward(task, env, e), e
        e = res.next_env
    return steps, 0, e


# ---------------------------------------------------------------------------
# Greedy execution (no search)


class GreedyPolicy(Protocol):
    """Per-episode stateful action source for greedy execution."""

    def begin(self, task: TaskId, env: EnvState) -> None: ...
    def step(self, env: EnvState) -> tuple[ProgramSpec, ArgTuple]: ...
    def end(self) -> None: ...


class NetworkGreedyPolicy:
    """Follows the network's argmax program/argument choice (no search),
    evaluated through `NetworkEvaluator` like the search's leaves."""

    def __init__(self, params: ParameterSet, lib: ProgramLibrary):
        self.evaluator = NetworkEvaluator(params)
        self.lib = lib
        self._stack: list[list] = []  # [task index, caller level, hidden]

    def begin(self, task: TaskId, env: EnvState) -> None:
        self._stack.append([self.lib.task_index(task),
                            self.lib.spec(task.program_name).level,
                            self.evaluator.initial_hidden()])

    def step(self, env: EnvState) -> tuple[ProgramSpec, ArgTuple]:
        frame = self._stack[-1]
        task_index, level, hidden = frame
        pi_p, pi_a, _, frame[2] = self.evaluator.evaluate(env, task_index, hidden)
        feasible = feasible_pairs(env, level, self.lib)
        if not feasible:
            raise SearchError("dead-end state during greedy execution")
        return greedy_select(pi_p, pi_a, feasible)

    def end(self) -> None:
        self._stack.pop()


@dataclass
class TraceEntry:
    """One printed line of a call trace: nesting depth, call, arguments."""

    depth: int
    name: str
    args: ArgTuple


def execute_greedy(
    env: EnvState, task: TaskId, policy: GreedyPolicy, lib: ProgramLibrary,
    trace: Optional[list[TraceEntry]] = None, depth: int = 0,
) -> tuple[Optional[int], EnvState]:
    """Run a program to completion with a greedy policy, recursing into
    learned calls with a fresh hidden state.

    The reward comes from the environment oracle of the top-level task;
    exceeding the step cap scores 0. Sub-program outcomes are whatever
    states their own executions leave behind: nested calls (depth > 0) are
    not scored and return None for the reward.
    """
    if depth > MAX_RECURSION:
        raise SearchError("recursion exceeded the library height")
    policy.begin(task, env)
    try:
        e = env
        cap = step_cap(task, env.n)
        for _ in range(cap):
            spec, args = policy.step(e)
            if trace is not None:
                trace.append(TraceEntry(depth, spec.name, args))
            if spec.name == "stop":
                return (reward(task, env, e) if depth == 0 else None), e
            if spec.is_atomic:
                e = P.apply_atomic(e, spec, args)
            else:
                _, e = execute_greedy(e, TaskId(spec.name), policy, lib,
                                      trace, depth + 1)
        return (0 if depth == 0 else None), e
    finally:
        policy.end()
