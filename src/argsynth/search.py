"""Recursive Monte Carlo tree search over program/argument pairs.

One tree is grown per action: nodes are environment states inside the
current program's episode, edges are program calls. Exact expansion creates
every feasible child; approximate expansion samples a fixed number of them,
which bounds the per-expansion node count. Selecting a learned-program edge
triggers a nested search for that program with a fresh hidden state.

Every learned call can stop, so every evaluated leaf gets at least one
edge: a node is a leaf (no edges yet), expanded (exactly when it has
edges) or terminal (a `stop`, a failed call, or no action budget left).

Most simulations of a well-trained search walk an existing path back to a
terminal leaf. Such a simulation draws no random numbers, calls no
evaluator and builds no node, so when one repeats the previous
simulation's path, `run_search` fast-forwards: `_fast_forward` finds how
many more simulations would take the same path, without running them.
Each simulation down a fixed path adds one visit to every node on it and
the leaf's value to each chosen edge. The scores after j more of them are
then closed forms of j: sqrt(visits + j), N + j, and W plus j copies of
the value, summed in sequence. `_fast_forward` scores them row by row, in
Python floats, with the operations of `puct_select` in its order, and
stops at the first row that would leave the path, so that row is found
exactly. A row is scored only against the edges that could win it: the
visited ones, and each unvisited edge whose prior is above that of every
unvisited edge before it; an unvisited edge with a lower or equal prior
than an earlier one never scores above it. Their scores only grow from
row to row, so a row in which the path's edge scores above all of their
last-row scores needs no more. The visits before the row that leaves are
applied in one step, and the tree, the statistics and the random stream
end as the one-at-a-time loop would leave them, bit for bit.

Approximate expansion draws its sample with `_sample_distinct`, numpy's
no-replacement algorithm of `Generator.choice` written out inline. A call
to the library spends most of its time on argument handling around a few
small array operations, and a training search expands thousands of nodes
per iteration. The inline version makes the same picks from the same
random numbers; a property test pins it to `Generator.choice`, pick for
pick and in the generator's final state. Dirichlet noise is drawn the same
way, by `_dirichlet`.

Each node's edge statistics are lists of Python floats, not numpy arrays.
Approximate expansion leaves about five edges per node, and on so few
entries a numpy call costs far more in call overhead than in arithmetic;
`puct_select` and `backup` run once per node per simulation. The bits are
those of the array formulas: Python floats are IEEE doubles, as numpy's
float64 entries are, every score is computed in the order of the array
expression, and only a strictly greater score replaces the best, so ties
go to the lowest index as `argmax` gives them. That holds because every
prior and value is finite: the evaluator's priors and leaf values are
checked (`joint_prior`, `_expand_and_eval`), and a non-finite one raises
SearchError instead of steering the search, so no NaN reaches a
comparison.

A tree is grown by a generator, `_grow`: where a simulation reaches a leaf
to evaluate, `_expand_and_eval` yields the request (state, task index,
hidden state) and resumes with the evaluator's answer, through `_simulate`
and `_grow`. The evaluator has one leaf call, `Evaluator.evaluate_many`,
which answers a wave of requests. `run_search` answers each request at
once as a wave of one, and `search_episode` calls `run_search` once per
step, so a single episode and every nested search run as a plain loop.
`lockstep_episodes` instead keeps several top-level episodes in flight and
answers one request of each in a single wave, which the network runs as
the rows of one step: at six rows, about 41 µs a request against 113 µs
for a step on one vector (one BLAS thread of a 2-core x86 host). Both
drivers share one episode loop, `_episode`, and return what it returns.
Nested searches stay synchronous inside their episode's step.

An episode often asks again for a leaf it has already had evaluated:
each tree grows from an empty root, while the tree before it already
evaluated that root and the nodes below it. `NetworkEvaluator` keeps
the answers of its last `EVALUATOR_MEMO` waves of one and gives a repeat
the same answer again, the arrays that `forward` gave it. The network is
deterministic and a request is keyed by its state, task index and the
bytes of its hidden state, so a search that gets the kept answer runs
bit for bit as one that computes it again. Lockstep's waves of several
rows go to the network each time, because a row's answer can differ in
its last bits from the wave of one's.

Greedy execution (`execute_greedy`) reuses work within one execution too.
A program's steps often come back to an observation, and the calls of a
program often start from one an earlier call started from. The network
step is split so that its input half (the encoder and `x @ lstm_wx`)
depends on the observation and the task alone, and every call starts
from the zero hidden state. So `NetworkGreedyPolicy` keeps, per
(task index, observation bytes), the input half and the first answer of a
call that started there; a step runs only `h_prev @ lstm_wh` and the
cell, and a call's first step that finds its answer runs neither. The
choice is `network.greedy_select`'s, on the logits: no step runs the
value head, and the argument head only where the choice reads it. The
memo is a dict that the top-level `execute_greedy` call makes and passes
down its recursion; it dies when that call returns. A longer-lived memo
would go stale when `train_step` updates the parameters in place, and
would answer a repeated evaluation grid from its previous round. Each
step's cell gives `forward`'s bytes and the choice is the one `forward`'s
probabilities give, so the traces are those of a policy that calls
`forward` on every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace as dc_replace
from typing import Any, Callable, Generator, Optional, Protocol, Sequence

import numpy as np

from . import env as E
from . import programs as P
from .env import EnvState, TaskId, observe, reward, step_cap
from .network import (
    HiddenState,
    ParameterSet,
    _cell,
    argument_logits_finite,
    forward,
    forward_rows,
    greedy_select,
    input_half,
    masked_distributions,
    zero_hidden,
)
from .programs import ArgTuple, FeasibleSet, ProgramLibrary, ProgramSpec, feasible_pairs

MODE_EXACT = "exact"
MODE_APPROX = "approx"


class SearchError(RuntimeError):
    """Broken search contract: no action budget, a nested search of an
    atomic, a selection at a node without edges, or a non-finite network
    output. No state lacks a callable pair: every learned call can stop."""


def tunable(default, need: Optional[str] = None,
            ok: Optional[Callable[[Any], bool]] = None, key: Optional[str] = None):
    """A config field that a run file may set, declared once: its default,
    the range it must lie in (`ok`, which `need` describes), and its file
    key where that differs from the field name."""
    return field(default=default, metadata={"tunable": True, "need": need,
                                            "ok": ok, "key": key})


def out_of_range(f, value) -> Optional[str]:
    """Why `value` is out of range for the checked field `f`, or None.

    A float must also be finite: an infinite weight, rate or noise
    parameter passes every one-sided bound, and then either fails deep in
    a run (an infinite Dirichlet alpha gives NaN noise) or runs on with
    no meaning."""
    ok = f.metadata.get("ok")
    if ok is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return f"out of range (need a finite value {f.metadata['need']})"
    if not ok(value):
        return f"out of range (need {f.metadata['need']})"
    return None


def check_tunables(cfg) -> None:
    """Raise ValueError for the first checked field of `cfg` out of range."""
    for f in fields(cfg):
        why = out_of_range(f, getattr(cfg, f.name))
        if why is not None:
            raise ValueError(f"{f.name} {why}")


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


# What a search asks its evaluator for a leaf: the state, the task index
# and the hidden state it enters with; and the answer: priors over programs
# and arguments, the leaf value and the hidden state advanced past `env`.
LeafRequest = tuple[EnvState, int, HiddenState]
Evaluation = tuple[np.ndarray, np.ndarray, float, HiddenState]


class Evaluator(Protocol):
    """Prior/value source for the search; the trained network in
    production, stubs in tests.

    `evaluate_many` is the one leaf call. It answers a wave of requests,
    one answer per request, in order: a wave of one from a search that
    runs alone, or one request from each of several independent searches
    (`lockstep_episodes`). Answers to identical requests may share
    arrays, because nothing writes to an answer's arrays. A tree keeps the
    hidden states of its nodes for as long as it lives, so an answer
    should hold no arrays of other answers.

    `env` is only the current state. The hidden state is the evaluator's
    only channel for the history of the running episode: each answer
    carries the hidden state advanced past its `env`, the search hands it
    to every child of that node, and the episode carries the root's one
    from each committed action to the next. Each nested search of a
    learned call starts from a fresh `initial_hidden()`.
    """

    def evaluate_many(self, requests: Sequence[LeafRequest]) -> list[Evaluation]: ...

    def initial_hidden(self) -> HiddenState: ...


# Answers of waves of one that `NetworkEvaluator` keeps. Measured on the
# `search_nested` benchmark (see CHANGES.md): 16, 64, 256 and unbounded
# memos answered 15%, 19%, 20% and 20.2% of the leaf requests.
EVALUATOR_MEMO = 64


class NetworkEvaluator:
    """The network as the search's evaluator.

    `evaluate_many` runs a wave of one as one `forward` on the vector, and
    a larger wave as the rows of one network step (`forward_rows`), which
    can differ from `forward` on the same request in the last bits.

    A wave of one that repeats one of the last `EVALUATOR_MEMO` waves of
    one, to the bytes of its hidden state, gets that wave's answer again:
    the arrays `forward` gave, shared. `hits` and `misses` count such
    waves. Larger waves neither read nor fill the memo. The answers hold
    while the parameters stay as they are: `train_step` updates them in
    place, so an evaluator serves one set of frozen parameters, and the
    trainer makes a new one each iteration.
    """

    def __init__(self, params: ParameterSet):
        self.params = params
        self._memo: dict[tuple, Evaluation] = {}
        self.hits = self.misses = 0

    def evaluate_many(self, requests):
        if len(requests) == 1:
            (env, task_index, hidden), = requests
            key = (env, task_index, hidden.h.tobytes(), hidden.c.tobytes())
            answer = self._memo.get(key)
            if answer is not None:
                self.hits += 1
                return [answer]
            self.misses += 1
            answer = forward(self.params, observe(env), task_index, hidden)
            self._memo[key] = answer
            if len(self._memo) > EVALUATOR_MEMO:
                del self._memo[next(iter(self._memo))]
            return [answer]
        return forward_rows(self.params, [observe(env) for env, _, _ in requests],
                            [task_index for _, task_index, _ in requests],
                            [hidden for _, _, hidden in requests])

    def initial_hidden(self) -> HiddenState:
        return zero_hidden(self.params.dims)


class UniformEvaluator:
    """Flat priors and a neutral value; used for search sanity checks."""

    def __init__(self, lib: ProgramLibrary):
        self._pi_p = np.full(len(lib), 1.0 / len(lib))
        self._pi_a = np.full(P.ARG_SPACE, 1.0 / P.ARG_SPACE)

    def evaluate_many(self, requests):
        return [(self._pi_p.copy(), self._pi_a.copy(), 0.5, hidden)
                for _, _, hidden in requests]

    def initial_hidden(self) -> HiddenState:
        z = np.zeros(1)
        return HiddenState(z, z)


class Node:
    """Tree node: a state plus the statistics of its outgoing edges, which
    it has exactly when it is expanded: every learned call can stop, so
    `expand` gives every evaluated leaf at least one edge.

    The child of a learned call whose nested search failed has no state:
    its `env` is None, and it is a terminal worth 0.

    `Q` holds each edge's mean value, FPU_Q while unvisited; `backup` keeps
    it current. An expanded node's first visit is the one that expanded
    it, so `visits` is always the sum of `N` plus one.

    `backup` and `_fast_forward` are the only writers of the statistics.
    A run of k simulations that repeat one path to a terminal leaf may be
    applied at once: `visits` and `N[idx]` rise by k, `W[idx]` gets the
    leaf's value added k times in sequence, and `Q[idx]` becomes `W / N`.
    Those are the values that k calls of `backup` would leave.

    `P`, `N`, `W` and `Q` are lists of finite Python floats, one entry per
    edge: on the few edges of a node, list indexing and float arithmetic
    cost less than numpy calls and give the same bits (see the module
    docstring). Code that wants arrays builds them, as `_grow` does for
    the root's visit counts.
    """

    __slots__ = (
        "env", "h_in", "h_out", "depth", "feasible", "edges", "P", "N", "W", "Q",
        "children", "visits", "terminal", "value",
    )

    def __init__(self, env: Optional[EnvState], h_in: HiddenState, depth: int):
        self.env = env
        self.h_in = h_in
        self.h_out: Optional[HiddenState] = None
        self.depth = depth
        self.feasible: FeasibleSet | list = []
        self.edges: FeasibleSet | list = []
        # Empty until `expand` fills them; an unexpanded node has no edges.
        self.P = self.N = self.W = self.Q = ()
        self.children: list[Optional["Node"]] = []
        self.visits = 0
        self.terminal = False
        self.value = 0.0


# Rewards live in [0,1], so 0.5 is the scale's neutral point. Unvisited
# edges score it instead of 0: a literal zero would brand every fresh line
# as already-lost and strangle the deep discoveries the budget can afford.
FPU_Q = 0.5


def puct_select(node: Node, c_puct: float) -> int:
    """Index of the child maximizing Q plus the prior-weighted exploration
    bonus; unvisited children count as value-neutral; ties go to the
    lowest index.

    One scalar loop computes `Q + c_puct * P * sqrt(visits) / (1 + N)` per
    edge in the operation order of the array expression, and keeps the
    first best score, so it picks the edge that `argmax` over the arrays
    would. The statistics must be finite."""
    if not node.edges:
        raise SearchError("puct_select on a childless node")
    # sqrt(visits) is sqrt(sum(N) + 1), the parent count of the PUCT bonus.
    s = math.sqrt(node.visits)
    best, best_score, i = 0, -math.inf, 0
    for p, n, q in zip(node.P, node.N, node.Q):
        score = q + c_puct * p * s / (1.0 + n)
        if score > best_score:
            best, best_score = i, score
        i += 1
    return best


def backup(path: Sequence[tuple[Node, Optional[int]]], value: float) -> None:
    """Add one visit carrying `value` to every node/edge along the path."""
    for node, idx in path:
        node.visits += 1
        if idx is not None:
            n = node.N[idx] + 1.0
            w = node.W[idx] + value
            node.N[idx] = n
            node.W[idx] = w
            node.Q[idx] = w / n


def joint_prior(node: Node, pi_p_masked: np.ndarray, pi_a_masked: np.ndarray) -> np.ndarray:
    """Factorized prior over the node's feasible pairs, renormalized."""
    pri = pi_p_masked[node.feasible.prog_idx] * pi_a_masked[node.feasible.arg_idx]
    total = np.add.reduce(pri)
    if not math.isfinite(total):
        raise SearchError(f"non-finite prior mass {total} from the evaluator")
    if total > 0:
        return pri / total
    return np.full(len(pri), 1.0 / len(pri))


# numpy's tolerance on the sum of a probability vector.
_P_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _sample_distinct(rng: np.random.Generator, p: np.ndarray, k: int) -> list[int]:
    """`rng.choice(len(p), size=k, replace=False, p=p)` as a list: the same
    picks, in the same order, with the generator left in the same state.

    It is numpy's algorithm, in rounds: draw one uniform per pick still
    missing, zero the entries already picked, invert the draws through the
    normalized cumulative sum (`searchsorted`, side right) and keep each
    new index at its first occurrence. A zeroed entry is never drawn again,
    so the rounds end once k distinct indices are picked. numpy's input
    checks are kept, each raising ValueError.
    """
    total = float(p.sum())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _P_SUM_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    if np.count_nonzero(p > 0) < k:
        raise ValueError("Fewer non-zero entries in p than size")
    picked: list[int] = []
    while len(picked) < k:
        x = rng.random(k - len(picked))
        if picked:
            p = p.copy()
            p[picked] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        for i in cdf.searchsorted(x, side="right").tolist():
            if i not in picked:
                picked.append(i)
    return picked


def _dirichlet(rng: np.random.Generator, alpha: float, m: int) -> np.ndarray:
    """`rng.dirichlet(np.full(m, alpha))`: the same values, with the
    generator left in the same state.

    Where numpy normalizes gamma variates, this is its loop written with
    array calls: m draws of `standard_gamma(alpha)` in order, their sum
    taken in sequence (`add.accumulate`, as numpy's loop adds them), and
    each scaled by the reciprocal of that sum. Small alphas, where numpy
    breaks a stick instead, go to the library call.
    """
    if alpha < 0.1:  # numpy's test is `alpha.max() < 0.1`
        return rng.dirichlet(np.full(m, alpha))
    g = rng.standard_gamma(alpha, size=m)
    g *= 1.0 / np.add.accumulate(g)[-1]
    return g


def expand(node: Node, pi_p_masked: np.ndarray, pi_a_masked: np.ndarray,
           cfg: SearchConfig, rng: np.random.Generator, stats: SearchStats) -> None:
    """Create the node's children from its feasible pairs, which are never
    empty: every learned call can stop, so the node gets at least one edge.

    Training searches mix Dirichlet noise into the prior at every
    expansion. Approximate mode then samples at most n_expand distinct
    pairs from it; with n_expand >= M it reduces exactly to exact mode.

    Both draws are library algorithms run inline, because the library
    calls spend most of their time on argument handling around a few
    array operations on about 17 entries, and expansion is the most
    frequent random draw of a training search. The noise comes from
    `_dirichlet`, numpy's gamma-normalizing branch of `Generator.dirichlet`
    for alpha >= 0.1; below that numpy breaks a stick, and the library
    call is made. The sample comes from `_sample_distinct`, numpy's
    no-replacement algorithm of `Generator.choice`. Property tests hold
    each to its library call, value for value and in the generator's
    final state.
    """
    if node.edges or node.terminal:
        raise SearchError("expand on an expanded or terminal node")
    pri = joint_prior(node, pi_p_masked, pi_a_masked)
    m = len(pri)
    if cfg.training and cfg.dirichlet_weight > 0.0:
        noise = _dirichlet(rng, cfg.dirichlet_alpha, m)
        pri = (1.0 - cfg.dirichlet_weight) * pri + cfg.dirichlet_weight * noise
    if cfg.mode == MODE_APPROX and cfg.n_expand < m:
        p_sample = pri
        if np.count_nonzero(p_sample) < cfg.n_expand:
            p_sample = p_sample + 1e-12
        p_sample = p_sample / np.add.reduce(p_sample)
        picked = np.sort(_sample_distinct(rng, p_sample, cfg.n_expand))
        node.edges = node.feasible.take(picked)
        pri = pri[picked]
        pri = pri / np.add.reduce(pri)
    else:
        node.edges = node.feasible
        pri = pri / np.add.reduce(pri)
    assert cfg.mode != MODE_APPROX or len(node.edges) <= cfg.n_expand
    k = len(node.edges)
    node.P = pri.tolist()
    node.N = [0.0] * k
    node.W = [0.0] * k
    node.Q = [FPU_Q] * k
    node.children = [None] * k
    stats.nodes_expanded += k


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
    next_env: Optional[EnvState]  # None when the chosen call's nested search failed
    next_hidden: HiddenState
    root: Node  # the searched tree, kept for inspection


class _Context:
    """Per-tree bundle shared by every simulation of one search."""

    __slots__ = ("task", "task_index", "caller_level", "target", "lib",
                 "evaluator", "cfg", "stats", "rng", "cache")

    def __init__(self, task, e_initial, lib, evaluator, cfg, stats, rng, cache):
        self.task = task
        self.task_index = lib.task_index(task)
        self.caller_level = lib.spec(task.program_name).level
        self.target = E.oracle_transform(task, e_initial)  # what `stop` is scored against
        self.lib = lib
        self.evaluator = evaluator
        self.cfg = cfg
        self.stats = stats
        self.rng = rng
        self.cache = cache


def recurse_subprogram(
    env: EnvState, spec: ProgramSpec, lib: ProgramLibrary, evaluator: Evaluator,
    cfg: SearchConfig, stats: SearchStats, rng: np.random.Generator,
    cache: Optional[dict] = None,
) -> tuple[Optional[EnvState], bool]:
    """Run a learned program as a nested search episode from `env`.

    Returns (its final state, True) on reward 1, or (None, False) when the
    nested episode fails; the caller then pins that edge's value at zero.
    Results are memoized per (program, state) while parameters are frozen.
    The nested episode's own calls are to programs of a lower level than
    `spec` (`feasible_pairs`), so the nesting ends by the bottom level.
    """
    if spec.is_atomic:
        raise SearchError(f"recurse_subprogram on atomic {spec.name}")
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
            cache=cache)
        result = (final_env, True) if r == 1 else (None, False)
    if cache is not None:
        cache[key] = result
    return result


def _materialize(node: Node, idx: int, ctx: _Context, max_depth: int) -> Node:
    spec, args = node.edges[idx]
    child = Node(env=node.env, h_in=node.h_out, depth=node.depth + 1)
    if spec.name == "stop":
        child.terminal = True
        child.value = float(E.reward_to_target(ctx.task, ctx.target, node.env))
        node.children[idx] = child
        return child
    if spec.is_atomic:
        child.env = P.apply_atomic(node.env, spec, args)
    else:
        child.env, _ = recurse_subprogram(
            node.env, spec, ctx.lib, ctx.evaluator, ctx.cfg, ctx.stats,
            ctx.rng, ctx.cache)
    if child.env is None or child.depth >= max_depth:
        # A failed call, or no action budget left below a state that has
        # not stopped.
        child.terminal = True
        child.value = 0.0
    node.children[idx] = child
    return child


def _expand_and_eval(node: Node, ctx: _Context) -> Generator[LeafRequest, Evaluation, float]:
    node.feasible = feasible_pairs(node.env, ctx.caller_level, ctx.lib)
    pi_p, pi_a, value, h_out = yield node.env, ctx.task_index, node.h_in
    if not math.isfinite(value):
        raise SearchError(f"non-finite leaf value {value} from the evaluator")
    node.h_out = h_out
    mp, ma = masked_distributions(pi_p, pi_a, node.feasible)
    expand(node, mp, ma, ctx.cfg, ctx.rng, ctx.stats)
    return value


SearchPath = list[tuple[Node, Optional[int]]]


def _simulate(root: Node, ctx: _Context, max_depth: int
              ) -> Generator[LeafRequest, Evaluation, tuple[SearchPath, float]]:
    path: SearchPath = []
    node = root
    while True:
        if node.terminal:
            path.append((node, None))
            value = node.value
            break
        if not node.edges:
            value = yield from _expand_and_eval(node, ctx)
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


def _rivals(node: Node, idx: int, c_puct: float
            ) -> tuple[list[tuple[float, float, float]], list[tuple[float, float, float]]]:
    """The edges of `node` that could take a simulation from edge `idx`,
    below and above it, each as (Q, c_puct * P, 1 + N): the terms of its
    score in `puct_select`.

    Every visited edge is a rival. The unvisited ones (N 0, Q FPU_Q) score
    FPU_Q plus a bonus that only their prior sets, so one with a prior at
    or below that of an unvisited edge of lower index never scores above
    that edge: whenever it would beat edge `idx`, the lower edge beats
    it too, ties included. Only those with a prior above every such lower
    prior are kept."""
    lower, upper = [], []
    top = -math.inf  # the highest prior of an unvisited edge so far
    for e, (p, n, q) in enumerate(zip(node.P, node.N, node.Q)):
        if e == idx:
            continue
        if n == 0.0:
            if p <= top:
                continue
            top = p
        (lower if e < idx else upper).append((q, c_puct * p, 1.0 + n))
    return lower, upper


def _fast_forward(path: SearchPath, value: float, budget: int, c_puct: float) -> int:
    """Apply at once the longest run, up to `budget`, of simulations that
    would repeat `path`; returns the run's length. `path` is the one the
    last simulation took and backed up, ending on a terminal leaf worth
    `value`.

    Row j scores each node on the path as `puct_select` would after j more
    visits down the path, in the same operation order: the visit count,
    the edge's N and its W (summed in sequence) are closed forms of j.
    Rows are scored one at a time, in Python floats, against the edges of
    `_rivals` alone, and the first row that leaves the path ends the run.
    A rival's score rises with sqrt(visits + j) and nothing else, and every
    operation of it rounds monotonically, so a row whose edge scores above
    every rival's last-row score stays on the path without scoring them.
    """
    k = budget
    for node, idx in path[:-1]:
        if k == 0:
            break
        lower, upper = _rivals(node, idx, c_puct)
        if not (lower or upper):
            continue
        n0, w, cp, visits = node.N[idx], node.W[idx], c_puct * node.P[idx], node.visits
        s = math.sqrt(visits + k - 1)
        bound = max(q + c * s / d for q, c, d in lower + upper)
        for j in range(k):
            if j:
                w += value
            s = math.sqrt(visits + j)
            n = n0 + j
            score = w / n + cp * s / (1.0 + n)
            if score > bound:
                continue
            left = False
            for q, c, d in lower:  # a tie goes to the lower index
                if q + c * s / d >= score:
                    left = True
                    break
            if not left:
                for q, c, d in upper:
                    if q + c * s / d > score:
                        left = True
                        break
            if left:
                k = j
                break
    if k:
        for node, idx in path[:-1]:
            node.visits += k
            n = node.N[idx] + k
            w = node.W[idx]
            for _ in range(k):
                w += value
            node.N[idx] = n
            node.W[idx] = w
            node.Q[idx] = w / n
        path[-1][0].visits += k
    return k


def _grow(
    task: TaskId, env: EnvState, hidden: HiddenState, e_initial: EnvState,
    lib: ProgramLibrary, evaluator: Evaluator, cfg: SearchConfig,
    stats: SearchStats, rng: np.random.Generator,
    steps_taken: int = 0, cache: Optional[dict] = None,
) -> Generator[LeafRequest, Evaluation, SearchResult]:
    """`run_search` as a search generator: it yields each leaf request of
    this tree and returns the SearchResult. Nested searches of learned
    calls still run to completion inside it, through `evaluator`."""
    cfg.validate()
    ctx = _Context(task, e_initial, lib, evaluator, cfg, stats, rng, cache)
    cap = step_cap(task, e_initial.n)
    max_depth = cap - steps_taken
    if max_depth < 1:
        raise SearchError("no action budget left for this episode")
    root = Node(env=env, h_in=hidden, depth=0)
    left = cfg.simulations
    last_leaf = None
    while left:
        path, value = yield from _simulate(root, ctx, max_depth)
        left -= 1
        leaf = path[-1][0]
        if leaf.terminal and leaf is last_leaf and left:
            # Same leaf, same path: a tree node has one path from the root.
            k = _fast_forward(path, value, left, cfg.c_puct)
            stats.simulations += k
            left -= k
        last_leaf = leaf
    counts = np.array(root.N)
    if counts.sum() > 0:
        if cfg.temperature <= 0.0:
            weights = np.zeros(len(counts))
            weights[int(np.argmax(counts))] = 1.0
        else:
            scaled = (counts / counts.max()) ** (1.0 / cfg.temperature)
            weights = scaled / scaled.sum()
    else:
        weights = np.array(root.P)  # degenerate budget: fall back to the prior
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
    return SearchResult(pi_p_mcts, pi_a_mcts, spec, args, child.env, root.h_out, root)


def _drive(search: Generator[LeafRequest, Evaluation, Any], evaluator: Evaluator):
    """Run a search generator to its result, answering each leaf request
    as a wave of one."""
    answer = None
    while True:
        try:
            request = search.send(answer)
        except StopIteration as done:
            return done.value
        answer, = evaluator.evaluate_many([request])


def run_search(
    task: TaskId, env: EnvState, hidden: HiddenState, e_initial: EnvState,
    lib: ProgramLibrary, evaluator: Evaluator, cfg: SearchConfig,
    stats: SearchStats, rng: np.random.Generator,
    steps_taken: int = 0, cache: Optional[dict] = None,
) -> SearchResult:
    """Grow one tree from `env` and commit a single action.

    Returns the visit-count policies over the root, the chosen pair and
    the state after applying it. The hidden state advanced past the root
    observation is returned for the episode to carry forward.
    """
    return _drive(_grow(task, env, hidden, e_initial, lib, evaluator, cfg, stats, rng,
                        steps_taken, cache), evaluator)


def _solo_tree(*args) -> Generator[LeafRequest, Evaluation, SearchResult]:
    """The module-level `run_search` as a search generator that never
    yields: its tree evaluates its own leaves."""
    return run_search(*args)
    yield  # unreachable; makes this function a generator


def _episode(
    task: TaskId, env: EnvState, evaluator: Evaluator, lib: ProgramLibrary,
    cfg: SearchConfig, stats: SearchStats, rng: np.random.Generator,
    cache: Optional[dict], tree: Callable,
) -> Generator[LeafRequest, Evaluation, tuple[list[EpisodeStep], int, EnvState]]:
    """The episode loop of `search_episode`, growing each step's tree with
    `tree` (`_grow`, or `_solo_tree`); yields the trees' leaf requests."""
    e = env
    hidden = evaluator.initial_hidden()
    steps: list[EpisodeStep] = []
    cap = step_cap(task, env.n)
    for t in range(cap):
        res = yield from tree(task, e, hidden, env, lib, evaluator, cfg, stats,
                              rng, t, cache)
        steps.append(EpisodeStep(
            obs=observe(e),
            action_name=res.spec.name,
            action_args=res.args,
            pi_p_mcts=res.pi_p_mcts,
            pi_a_mcts=res.pi_a_mcts,
            hidden=np.array(res.next_hidden.h, copy=True),
        ))
        hidden = res.next_hidden
        if res.next_env is None:
            return steps, 0, e
        if res.spec.name == "stop":
            return steps, reward(task, env, e), e
        e = res.next_env
        del res  # the tree goes before the next one grows
    return steps, 0, e


def search_episode(
    task: TaskId, env: EnvState, evaluator: Evaluator, lib: ProgramLibrary,
    cfg: SearchConfig, stats: SearchStats, rng: np.random.Generator,
    cache: Optional[dict] = None,
) -> tuple[list[EpisodeStep], int, EnvState]:
    """Search-driven episode: one tree per action until stop or the cap.

    Returns the per-step records (observations, tree policies, actions),
    the episode reward, and the final state.
    """
    return _drive(_episode(task, env, evaluator, lib, cfg, stats, rng, cache, _solo_tree),
                  evaluator)


# Top-level episodes `lockstep_episodes` keeps in flight. Measured on the
# `train_cold` benchmark (see CHANGES.md): a wider wave batches more rows
# per network step, but every episode in flight holds its tree.
LOCKSTEP_WIDTH = 6


def lockstep_episodes(
    jobs: Sequence[tuple[TaskId, EnvState, np.random.Generator]],
    evaluator: Evaluator, lib: ProgramLibrary, cfg: SearchConfig,
    stats: SearchStats, cache: Optional[dict] = None,
) -> list[tuple[list[EpisodeStep], int, EnvState]]:
    """Top-level search episodes, `LOCKSTEP_WIDTH` of them in flight at once.

    Each job is (task, start state, its own random stream). In each wave,
    every episode in flight runs until its tree needs a leaf value, and one
    `evaluator.evaluate_many` call answers the wave; a finished episode's
    place goes to the next job. Returns, in job order, what `search_episode`
    returns for each job. Every job's search adds into `stats`, as
    `search_episode` does.

    An episode depends on the others only through `cache`, the memo of
    nested results, and through the evaluator's batched rows. With an
    evaluator that answers each request of a wave as it would a wave of
    one, and no shared memo, each result equals `search_episode` on the
    job's stream. Nested searches run inside their episode's step, as
    waves of one. An error in one episode propagates, and the others are
    closed.
    """
    results: list = [None] * len(jobs)
    live: dict[int, Generator] = {}
    flight: list[tuple[int, LeafRequest]] = []

    def advance(i: int, answer) -> None:
        try:
            flight.append((i, live[i].send(answer)))
        except StopIteration as done:
            del live[i]
            results[i] = done.value

    started = 0
    try:
        while True:
            while len(flight) < LOCKSTEP_WIDTH and started < len(jobs):
                task, env, rng = jobs[started]
                live[started] = _episode(task, env, evaluator, lib, cfg, stats, rng,
                                         cache, _grow)
                advance(started, None)
                started += 1
            if not flight:
                return results
            wave, flight = flight, []
            answers = evaluator.evaluate_many([request for _, request in wave])
            for (i, _), answer in zip(wave, answers):
                advance(i, answer)
    finally:
        for search in live.values():
            search.close()


# ---------------------------------------------------------------------------
# Greedy execution (no search)


class GreedyPolicy(Protocol):
    """Action source for greedy execution.

    `start` is called once per program call, nested ones included, and
    returns the step function of that call alone, which keeps the call's
    state. The calls in flight are the frames of `execute_greedy`'s own
    recursion. `memo` is the execution's scratch dict: the top-level
    `execute_greedy` call makes it, its nested calls share it, and it is
    dropped when the top-level call returns. A policy may keep there what
    its calls can reuse within one execution, or ignore it. A step returns
    a choice and no value: greedy play never reads one."""

    def start(self, task: TaskId, env: EnvState, memo: dict
              ) -> Callable[[EnvState], tuple[ProgramSpec, ArgTuple]]: ...


class NetworkGreedyPolicy:
    """Follows the network's argmax program/argument choice (no search).
    Each call's step function keeps the task index, the caller level and
    the last step's LSTM output, which starts from the zero hidden state.

    A step runs `h_prev @ lstm_wh + u` and the cell, then
    `network.greedy_select` on the cell's output; it never runs the value
    head. The execution's memo, keyed by (task index, observation bytes),
    holds the input half u of each key (`network.input_half`), and, once a
    call has started from that key, the call's first answer (the cell's
    output and the logits that `greedy_select` computed from it): every
    call starts from the zero hidden state, so that answer depends on the
    key alone. `memo[None]` holds what the execution computes once:
    `zeros @ lstm_wh`, to which a call's first step adds its u, and
    whether every argument logit is finite (`network.argument_logits_finite`).
    The cells give `forward`'s bytes.

    `first_hits` / `first_misses` count the calls' first steps that found
    or computed their answer, and `input_hits` / `input_misses` the steps
    that ran the cell and found or computed its input half. They count
    over the policy's life and are no part of any result."""

    def __init__(self, params: ParameterSet, lib: ProgramLibrary):
        self.params = params
        self.lib = lib
        self.input_hits = self.input_misses = 0
        self.first_hits = self.first_misses = 0

    def start(self, task: TaskId, env: EnvState, memo: dict
              ) -> Callable[[EnvState], tuple[ProgramSpec, ArgTuple]]:
        params, lib = self.params, self.lib
        task_index = lib.task_index(task)
        level = lib.spec(task.program_name).level
        once = memo.get(None)
        if once is None:
            zero = zero_hidden(params.dims)
            once = memo[None] = (zero.h @ params.arrays["lstm_wh"], zero.c,
                                 argument_logits_finite(params))
        zero_wh, zero_c, args_finite = once
        # (h, c, [program logits, argument logits]) of the last step
        last: Optional[tuple] = None  # until the call's first step

        def step(env: EnvState) -> tuple[ProgramSpec, ArgTuple]:
            nonlocal last
            obs = observe(env)
            key = (task_index, obs.tobytes())
            # [input half, the first answer of a call that started here]
            entry = memo.get(key)
            if last is None and entry is not None and entry[1] is not None:
                self.first_hits += 1
                last = entry[1]
            else:
                if entry is None:
                    self.input_misses += 1
                    entry = memo[key] = [input_half(params, obs, task_index)[2], None]
                else:
                    self.input_hits += 1
                if last is None:
                    self.first_misses += 1
                    c, h = _cell(params, zero_wh + entry[0], zero_c)
                    last = entry[1] = (h, c, [None, None])
                else:
                    z = last[0] @ params.arrays["lstm_wh"]
                    z += entry[0]
                    c, h = _cell(params, z, last[1])
                    last = (h, c, [None, None])
            choice = greedy_select(params, last[0], feasible_pairs(env, level, lib),
                                   last[2], args_finite)
            if choice is None:
                raise SearchError("non-finite greedy choice from the network")
            return choice

        return step


@dataclass
class TraceEntry:
    """One printed line of a call trace: nesting depth, call, arguments."""

    depth: int
    name: str
    args: ArgTuple


def execute_greedy(
    env: EnvState, task: TaskId, policy: GreedyPolicy, lib: ProgramLibrary,
    trace: Optional[list[TraceEntry]] = None, depth: int = 0,
    memo: Optional[dict] = None,
) -> tuple[Optional[int], EnvState]:
    """Run a program to completion with a greedy policy, recursing into
    learned calls with a fresh hidden state.

    The reward comes from the environment oracle of the top-level task;
    exceeding the step cap scores 0. Sub-program outcomes are whatever
    states their own executions leave behind: nested calls (depth > 0) are
    not scored and return None for the reward. The nesting ends by the
    bottom level: a call's own calls are to programs of a lower level.

    The top-level call owns the execution's memo (see `GreedyPolicy`): it
    makes a new dict, passes it down its recursion as it passes `trace`,
    and drops it on return, so nothing is reused across executions or
    across parameter updates between them. The steps choose from policies
    alone; `NetworkGreedyPolicy` runs no value head.
    """
    if memo is None:
        memo = {}
    step = policy.start(task, env, memo)
    e = env
    for _ in range(step_cap(task, env.n)):
        spec, args = step(e)
        if trace is not None:
            trace.append(TraceEntry(depth, spec.name, args))
        if spec.name == "stop":
            return (reward(task, env, e) if depth == 0 else None), e
        if spec.is_atomic:
            e = P.apply_atomic(e, spec, args)
        else:
            _, e = execute_greedy(e, TaskId(spec.name), policy, lib, trace, depth + 1, memo)
    return (0 if depth == 0 else None), e
