import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from argsynth.env import (
    TaskId,
    TASKS,
    make_env,
    observe,
    oracle_transform,
    reward,
    sample_task_env,
    step_cap,
)
from argsynth.expert import ExpertPolicy
from argsynth.network import (
    HiddenState,
    argument_logits_finite,
    dims_for_library,
    forward,
    init_optimizer,
    init_params,
    masked_distributions,
    train_step,
)
from argsynth import search
from argsynth.programs import ARG_SPACE, build_library, feasible_pairs
from argsynth.search import (
    FPU_Q,
    MODE_APPROX,
    MODE_EXACT,
    NetworkEvaluator,
    NetworkGreedyPolicy,
    Node,
    SearchConfig,
    SearchError,
    SearchStats,
    UniformEvaluator,
    backup,
    execute_greedy,
    expand,
    puct_select,
    recurse_subprogram,
    run_search,
    search_episode,
)
from argsynth.trainer import replay_trace, run_episode


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def arr(stat):
    """A node's edge statistic, which it holds as a list of floats, as a
    float64 array."""
    return np.asarray(stat, dtype=np.float64)


def bare_node(n_children, priors=None, N=None, W=None):
    """An expanded node with the given edge statistics, as `backup` would
    have left it: Q is each edge's mean value (FPU_Q while unvisited) and
    the expanding visit counts on top of the edge visits."""
    node = Node(env=make_env([1, 2], 0, 1, 0), h_in=None, depth=0)
    node.edges = [("edge", i) for i in range(n_children)]
    P = np.array(priors if priors is not None else [1 / n_children] * n_children)
    N = np.array(N if N is not None else [0.0] * n_children, dtype=float)
    W = np.array(W if W is not None else [0.0] * n_children, dtype=float)
    node.P, node.N, node.W = P.tolist(), N.tolist(), W.tolist()
    node.Q = np.where(N > 0, W / np.maximum(N, 1.0), FPU_Q).tolist()
    node.visits = int(N.sum()) + 1
    node.children = [None] * n_children
    return node


class TestPuctSelect:
    def test_unvisited_prior_dominates(self):
        node = bare_node(2, priors=[0.8, 0.2])
        assert puct_select(node, 1.0) == 0

    def test_visited_value_beats_exploration(self):
        node = bare_node(2, priors=[0.5, 0.5], N=[10, 1], W=[0, 1])
        # scores: 0 + 0.5*sqrt(12)/11 = 0.157 vs 1 + 0.5*sqrt(12)/2 = 1.866
        assert puct_select(node, 1.0) == 1
        q = arr(node.W) / np.maximum(arr(node.N), 1.0)
        bonus = 1.0 * arr(node.P) * np.sqrt(arr(node.N).sum() + 1) / (1 + arr(node.N))
        assert (q + bonus)[0] == pytest.approx(0.1575, abs=1e-3)
        assert (q + bonus)[1] == pytest.approx(1.8660, abs=1e-3)

    def test_zero_cpuct_is_greedy_on_q(self):
        node = bare_node(3, N=[5, 5, 0], W=[1.0, 4.0, 0.0])
        # Q = (0.2, 0.8, FPU); exploration off.
        assert puct_select(node, 0.0) == 1

    def test_unvisited_scores_neutral_value(self):
        node = bare_node(2, priors=[0.5, 0.5], N=[3, 0], W=[0.3, 0.0])
        q = np.where(arr(node.N) > 0, arr(node.W) / np.maximum(arr(node.N), 1), FPU_Q)
        assert q[1] == 0.5 and q[0] == pytest.approx(0.1)
        assert puct_select(node, 0.0) == 1

    def test_tie_breaks_low_index(self):
        node = bare_node(2, priors=[0.5, 0.5])
        assert puct_select(node, 1.0) == 0

    def test_childless_raises(self):
        node = Node(env=make_env([1, 2], 0, 1, 0), h_in=None, depth=0)
        with pytest.raises(SearchError):
            puct_select(node, 1.0)


def reference_puct(node, c_puct):
    """PUCT from the raw statistics, with the parent count recomputed."""
    N, W = arr(node.N), arr(node.W)
    q = np.where(N > 0, W / np.maximum(N, 1.0), FPU_Q)
    bonus = c_puct * arr(node.P) * np.sqrt(N.sum() + 1.0) / (1.0 + N)
    return int(np.argmax(q + bonus))


class TestPuctProperty:
    @given(
        priors=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
        visits=st.lists(st.tuples(st.integers(0, 23), st.floats(0.0, 1.0)), max_size=60),
        c_puct=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_formula_exactly(self, priors, visits, c_puct):
        node = bare_node(len(priors), priors=priors)
        for idx, value in visits:
            backup([(node, idx % len(priors))], value)
            assert puct_select(node, c_puct) == reference_puct(node, c_puct)

    def test_matches_reference_in_searched_trees(self):
        lib = build_library("args")
        env = make_env([2, 9, 5, 1], 0, 3, 1, registry=0)
        ev = UniformEvaluator(lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=150, training=True)
        res = run_search(TaskId.PARTITION_UPDATE, env, ev.initial_hidden(), env,
                         lib, ev, cfg, SearchStats(), rng(21))
        stack, checked = [res.root], 0
        while stack:
            node = stack.pop()
            if node.edges and not node.terminal:
                N, W, Q = arr(node.N), arr(node.W), arr(node.Q)
                assert node.visits == N.sum() + 1
                seen = N > 0
                assert np.array_equal(Q[seen], W[seen] / N[seen])
                assert np.all(Q[~seen] == FPU_Q)
                assert puct_select(node, cfg.c_puct) == reference_puct(node, cfg.c_puct)
                checked += 1
                stack.extend(c for c in node.children if c is not None)
        assert checked > 10


@st.composite
def tied_priors(draw):
    """1 to 40 priors, each either free, equal to an earlier one, or one
    last bit above or below an earlier one."""
    m = draw(st.integers(1, 40))
    p = draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m))
    for i in range(1, m):
        j = draw(st.integers(0, i - 1))
        tie = draw(st.sampled_from(["free", "equal", "above", "below"]))
        if tie == "equal":
            p[i] = p[j]
        elif tie == "above":
            p[i] = float(np.nextafter(p[j], 2.0))
        elif tie == "below":
            p[i] = float(np.nextafter(p[j], 0.0))
    return p


def array_backup(N, W, Q, idx, value):
    """`backup` of one edge as it was written on numpy arrays."""
    N[idx] += 1.0
    W[idx] += value
    Q[idx] = W[idx] / N[idx]


class TestScalarStatistics:
    """The list statistics and the scalar `puct_select` against the array
    formulas they replaced: the same choice and the same bytes."""

    @given(
        priors=tied_priors(),
        moves=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 39)),
                                 st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                                           st.floats(0.0, 1.0))),
                       max_size=80),
        c_puct=st.sampled_from([0.0, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_array_formulas(self, priors, moves, c_puct):
        m = len(priors)
        node = bare_node(m, priors=priors)
        P, N, W, Q = np.array(priors), np.zeros(m), np.zeros(m), np.full(m, FPU_Q)
        visits = 1
        for step in [None] + moves:
            if step is not None:
                idx, value = step
                idx = None if idx is None else idx % m
                backup([(node, idx)], value)
                visits += 1
                if idx is not None:
                    array_backup(N, W, Q, idx, value)
            assert node.visits == visits
            for got, want in ((node.P, P), (node.N, N), (node.W, W), (node.Q, Q)):
                assert arr(got).tobytes() == want.tobytes()
            want_idx = int((Q + c_puct * P * math.sqrt(visits) / (1.0 + N)).argmax())
            assert puct_select(node, c_puct) == want_idx


class TestBackup:
    def test_single_unit_value(self):
        a, b = bare_node(1), bare_node(1)
        backup([(a, 0), (b, 0)], 1.0)
        for node in (a, b):
            assert node.N[0] == 1 and node.W[0] == 1 and node.visits == 2
            assert node.Q[0] == 1.0

    def test_two_backups_average(self):
        node = bare_node(1)
        backup([(node, 0)], 1.0)
        backup([(node, 0)], 0.0)
        assert node.Q[0] == 0.5

    def test_q_stays_in_unit_interval(self):
        node = bare_node(1)
        r = rng(1)
        for _ in range(200):
            backup([(node, 0)], float(r.random()))
            assert 0.0 <= node.Q[0] <= 1.0

    def test_leaf_entry_counts_visit_only(self):
        node = bare_node(2)
        backup([(node, None)], 0.7)
        assert node.visits == 2 and arr(node.N).sum() == 0
        assert list(node.Q) == [FPU_Q, FPU_Q]


def one_at_a_time(path, value, budget, c_puct):
    """What `_fast_forward` stands for: simulate and back up while every
    node on the path still selects its edge on it."""
    k = 0
    while k < budget and all(puct_select(n, c_puct) == i for n, i in path[:-1]):
        backup(path, value)
        k += 1
    return k


def edge_bytes(nodes):
    return [(n.visits, arr(n.P).tobytes(), arr(n.N).tobytes(), arr(n.W).tobytes(),
             arr(n.Q).tobytes())
            for n in nodes]


def terminal_leaf(value):
    leaf = Node(env=make_env([1, 2], 0, 1, 0), h_in=None, depth=2)
    leaf.terminal, leaf.value = True, value
    return leaf


def chain(stats, value):
    """Path root -> ... -> terminal leaf, each node a `bare_node` built
    from (priors, N, W, chosen edge), as just backed up down the path."""
    path = []
    for priors, N, W, idx in stats:
        path.append((bare_node(len(priors), priors=priors, N=N, W=W), idx))
    path.append((terminal_leaf(value), None))
    for (node, idx), (child, _) in zip(path, path[1:]):
        node.children[idx] = child
    return path


def assert_fast_forward_matches(stats, value, budget, c_puct):
    fast, slow = chain(stats, value), chain(stats, value)
    k = search._fast_forward(fast, value, budget, c_puct)
    assert k == one_at_a_time(slow, value, budget, c_puct)
    assert edge_bytes(n for n, _ in fast) == edge_bytes(n for n, _ in slow)
    return k


@st.composite
def path_stats(draw):
    """1 to 5 nodes of 1 to 20 edges, each node with its chosen edge:
    many edges unvisited (at FPU_Q), and priors either free, equal to
    the edge before or a step below it, which are the tie cases of the
    rivals' pruning."""
    stats = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(1, 20))
        idx = draw(st.integers(0, m - 1))
        priors, N, W = [], [], []
        for e in range(m):
            tie = draw(st.sampled_from(["free", "equal", "below"])) if e else "free"
            if tie == "free":
                priors.append(draw(st.floats(0.01, 1.0)))
            else:
                priors.append(priors[-1] * (1.0 if tie == "equal" else 0.75))
            n = draw(st.one_of(st.just(0), st.integers(0, 30)))
            n = max(n, 1) if e == idx else n
            N.append(n)
            W.append(draw(st.floats(0.0, 1.0)) * n)
        stats.append((list(np.array(priors) / sum(priors)), N, W, idx))
    return stats


class TestFastForward:
    """`_fast_forward` against one simulation at a time on built chains."""

    CHAIN = [([0.6, 0.3, 0.1], [3, 1, 0], [2.5, 0.5, 0.0], 0),
             ([0.2, 0.5, 0.3], [1, 2, 0], [0.25, 1.75, 0.0], 1)]

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_terminal_values(self, value):
        k = assert_fast_forward_matches(self.CHAIN, value, 40, 1.0)
        assert k > 0

    def test_winning_leaf_holds_the_path_without_exploration(self):
        assert assert_fast_forward_matches(self.CHAIN, 1.0, 40, 0.0) == 40

    def test_budget_of_one(self):
        assert assert_fast_forward_matches(self.CHAIN, 1.0, 1, 1.0) == 1

    def test_run_cut_short_when_another_edge_overtakes(self):
        k = assert_fast_forward_matches(self.CHAIN, 0.0, 40, 1.0)
        assert 0 < k < 40

    def test_nothing_applied_when_the_first_choice_leaves(self):
        stats = [([0.5, 0.5], [1, 0], [0.0, 0.0], 0)]
        assert assert_fast_forward_matches(stats, 0.0, 10, 1.0) == 0

    def test_exact_tie_goes_to_the_lower_index(self):
        # c_puct 0 scores Q alone. Q[1] falls 1 -> 1/2 after one visit
        # worth 0 and ties edge 0's FPU_Q exactly; edge 0 wins the tie.
        assert assert_fast_forward_matches(
            [([0.5, 0.5], [0, 1], [0.0, 1.0], 1)], 0.0, 10, 0.0) == 1
        # Tied with a higher index the chosen edge keeps the path: Q[0]
        # goes 1, 1/2 (tie), 1/3 (below FPU_Q).
        assert assert_fast_forward_matches(
            [([0.5, 0.5], [1, 0], [1.0, 0.0], 0)], 0.0, 10, 0.0) == 2

    def test_w_is_summed_in_sequence(self):
        # W = 2.324 plus 0.01 twice, over 5 visits, is 0.4687999999999999:
        # edge 0's Q exactly, so edge 0 takes the third simulation. 2.344 / 5
        # in one sum is a last bit higher and would keep the path.
        stats = [([0.5, 0.5], [1, 3], [0.4687999999999999, 2.324], 1)]
        assert assert_fast_forward_matches(stats, 0.01, 5, 0.0) == 2

    def test_scores_in_the_order_of_puct_select(self):
        # In each case both edges score the same as puct_select rounds
        # them, so the lower index wins. (c * P) * (s / (1 + N)) would
        # round edge 0's bonus down a last bit in the first case and the
        # chosen edge's up in the second, and keep the path.
        for stats in ([([0.76, 1 - 0.76], [4, 3], [1.7191388180934017, 2.07], 1)],
                      [([0.3, 1 - 0.3], [4, 6], [1.650659966456864, 1.6800000000000002], 1)]):
            assert assert_fast_forward_matches(stats, 1.0, 3, 1.0) == 0

    def test_single_edge_nodes_never_leave(self):
        stats = [([1.0], [4], [1.3], 0), ([1.0], [1], [0.0], 0)]
        assert assert_fast_forward_matches(stats, 0.0, 25, 1.0) == 25

    def test_rivals_skip_unvisited_edges_behind_a_prior_as_high(self):
        # Edge 3 is the chosen one. Unvisited 1 trails unvisited 0's prior,
        # 5 ties 4's, and 7 trails 6's; visited edges are always rivals.
        priors = [0.10, 0.05, 0.20, 0.15, 0.12, 0.12, 0.18, 0.08]
        N = [0, 0, 2, 3, 0, 0, 0, 1]
        node = bare_node(8, priors=priors, N=N, W=[0.0, 0.0, 1.0, 2.0, 0, 0, 0, 0.5])
        lower, upper = search._rivals(node, 3, 2.0)
        kept = lambda e: (node.Q[e], 2.0 * priors[e], 1.0 + N[e])
        assert lower == [kept(0), kept(2)]
        assert upper == [kept(4), kept(6), kept(7)]

    @given(
        stats=path_stats(),
        value=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        budget=st.integers(1, 200),
        c_puct=st.sampled_from([0.0, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_one_at_a_time(self, stats, value, budget, c_puct):
        assert_fast_forward_matches(stats, value, budget, c_puct)


def searched_trees(run, fast_forward):
    """Run `run()` and return every tree its searches grew, top-level and
    nested, in order, with the fast-forward real or patched out."""
    results = []
    real = search.run_search

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "run_search", recording)
        if not fast_forward:
            mp.setattr(search, "_fast_forward", lambda *args: 0)
        run()
    return results


def tree_bytes(root):
    """Every node's statistics, depth first in edge order."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append((node.terminal, node.value, *edge_bytes([node])[0]))
        stack.extend(c for c in reversed(node.children) if c is not None)
    return out


class TestFastForwardEquivalence:
    """Whole searches with and without the fast-forward, bit for bit."""

    lib = build_library("args")

    def compare(self, make_evaluator, task, env, cfg, seed):
        runs = []
        for fast in (True, False):
            stats, r = SearchStats(), rng(seed)
            ev = make_evaluator()
            results = searched_trees(
                lambda: search.search_episode(task, env, ev, self.lib, cfg, stats, r),
                fast)
            runs.append((stats, r.bit_generator.state, [
                (res.spec.name, res.args, res.pi_p_mcts.tobytes(),
                 res.pi_a_mcts.tobytes(), tree_bytes(res.root)) for res in results]))
        assert runs[0] == runs[1]
        return runs[0][0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        mode=st.sampled_from([MODE_EXACT, MODE_APPROX]),
        temperature=st.sampled_from([0.0, 1.0]),
        c_puct=st.sampled_from([0.0, 1.0, 3.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_flat_search(self, seed, n, mode, temperature, c_puct):
        env = sample_task_env(TaskId.PARTITION_UPDATE, n, rng(seed))
        cfg = SearchConfig(mode=mode, n_expand=3, simulations=60, c_puct=c_puct,
                           temperature=temperature, training=True)
        self.compare(lambda: UniformEvaluator(self.lib), TaskId.PARTITION_UPDATE,
                     env, cfg, seed)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        mode=st.sampled_from([MODE_EXACT, MODE_APPROX]),
        temperature=st.sampled_from([0.0, 1.0]),
        c_puct=st.sampled_from([0.0, 1.0, 3.0]),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_nested_search(self, rigged_evaluator, seed, n, mode, temperature, c_puct):
        # The fixture is a stateless factory; each run gets a fresh double.
        env = sample_task_env(TaskId.PARTITION, n, rng(seed))
        cfg = SearchConfig(mode=mode, n_expand=5, simulations=40, c_puct=c_puct,
                           nested_simulations=30, temperature=temperature,
                           training=True)
        self.compare(lambda: rigged_evaluator(self.lib), TaskId.PARTITION,
                     env, cfg, seed)

    def test_fast_forward_does_most_simulations(self, rigged_evaluator, monkeypatch):
        skipped = []
        real = search._fast_forward

        def counting(*args):
            skipped.append(real(*args))
            return skipped[-1]

        monkeypatch.setattr(search, "_fast_forward", counting)
        env = sample_task_env(TaskId.PARTITION, 4, rng(3))
        cfg = SearchConfig(mode=MODE_EXACT, simulations=100, nested_simulations=60)
        stats = self.compare(lambda: rigged_evaluator(self.lib), TaskId.PARTITION,
                             env, cfg, 3)
        assert stats.recursions > 0
        assert sum(skipped) > stats.simulations / 2


def prepared_node(env, lib, caller_level=99):
    node = Node(env=env, h_in=None, depth=0)
    node.feasible = feasible_pairs(env, caller_level, lib)
    return node


def uniform_masked(node, lib):
    pi_p = np.full(len(lib), 1 / len(lib))
    pi_a = np.full(ARG_SPACE, 1 / ARG_SPACE)
    return masked_distributions(pi_p, pi_a, node.feasible)


class TestExpand:
    def setup_method(self):
        self.lib = build_library("args")

    def test_exact_creates_every_feasible_child(self):
        env = make_env([3, 1, 2], 0, 2, 1, registry=0)
        node = prepared_node(env, self.lib)
        mp, ma = uniform_masked(node, self.lib)
        stats = SearchStats()
        cfg = SearchConfig(mode=MODE_EXACT, training=False)
        expand(node, mp, ma, cfg, rng(), stats)
        assert len(node.edges) == len(node.feasible)
        assert stats.nodes_expanded == len(node.feasible)
        assert arr(node.P).sum() == pytest.approx(1.0)

    def test_approx_samples_exactly_n_distinct(self):
        env = make_env([3, 1, 2], 0, 2, 1, registry=0)
        node = prepared_node(env, self.lib)
        assert len(node.feasible) >= 10
        mp, ma = uniform_masked(node, self.lib)
        cfg = SearchConfig(mode=MODE_APPROX, n_expand=3, training=False)
        expand(node, mp, ma, cfg, rng(3), SearchStats())
        assert len(node.edges) == 3
        assert len(set(node.edges)) == 3
        assert arr(node.P).sum() == pytest.approx(1.0)

    def test_approx_with_large_n_equals_exact(self):
        env = make_env([3, 1, 2], 0, 2, 1, registry=0)
        results = []
        for mode in (MODE_EXACT, MODE_APPROX):
            node = prepared_node(env, self.lib)
            mp, ma = uniform_masked(node, self.lib)
            cfg = SearchConfig(mode=mode, n_expand=10_000, training=True)
            r = rng(7)
            expand(node, mp, ma, cfg, r, SearchStats())
            results.append((node.edges, arr(node.P).tolist(), r.random()))
        assert results[0] == results[1]

    def test_no_pop_child_at_quicksort_entry(self):
        env = sample_task_env(TaskId.QUICKSORT, 5, rng(5))
        node = prepared_node(env, self.lib, self.lib.spec("quicksort").level)
        mp, ma = uniform_masked(node, self.lib)
        expand(node, mp, ma, SearchConfig(mode=MODE_EXACT, training=False),
               rng(), SearchStats())
        assert "pop" not in {spec.name for spec, _ in node.edges}

    def test_an_expanded_node_is_not_expanded_again(self):
        node = prepared_node(make_env([3, 1, 2], 0, 2, 1, registry=0), self.lib)
        mp, ma = uniform_masked(node, self.lib)
        cfg = SearchConfig(mode=MODE_EXACT, training=False)
        expand(node, mp, ma, cfg, rng(), SearchStats())
        edges = list(node.edges)
        with pytest.raises(SearchError, match="expand on an expanded or terminal node"):
            expand(node, mp, ma, cfg, rng(), SearchStats())
        assert node.edges == edges

    def test_training_noise_perturbs_priors(self):
        env = make_env([3, 1, 2], 0, 2, 1, registry=0)
        plain, noisy = [], []
        for training in (False, True):
            node = prepared_node(env, self.lib)
            mp, ma = uniform_masked(node, self.lib)
            cfg = SearchConfig(mode=MODE_EXACT, training=training)
            expand(node, mp, ma, cfg, rng(11), SearchStats())
            (noisy if training else plain).append(arr(node.P).copy())
        assert not np.allclose(plain[0], noisy[0])


class TestDirichlet:
    """`_dirichlet` is `Generator.dirichlet` on a constant alpha: the same
    values and the generator left in the same state, on both sides of
    numpy's switch to stick-breaking at alpha 0.1."""

    @given(m=st.integers(1, 80),
           alpha=st.one_of(st.sampled_from([0.1, float(np.nextafter(0.1, 0.0)),
                                            float(np.nextafter(0.1, 1.0)), 0.3]),
                           st.floats(0.005, 0.1), st.floats(0.1, 5.0)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_generator_dirichlet(self, m, alpha, seed):
        a, b = rng(seed), rng(seed)
        want = a.dirichlet(np.full(m, alpha))
        assert search._dirichlet(b, alpha, m).tobytes() == want.tobytes()
        assert b.bit_generator.state == a.bit_generator.state


def random_p(meta, m, k, shape):
    """A probability vector of length m with at least k positive entries,
    or, for "sparse", fewer lifted by 1e-12 as `expand` lifts them."""
    p = meta.random(m)
    if shape == "skewed":
        p = p ** 40
    elif shape == "zeros":
        p[meta.random(m) < 0.6] = 0.0
        p[meta.permutation(m)[:k]] = meta.random(k) + 1e-3
    elif shape == "sparse":
        p[meta.random(m) < 0.8] = 0.0
        p[meta.permutation(m)[:max(k - 1, 1)]] = meta.random(max(k - 1, 1)) + 1e-3
        if np.count_nonzero(p) < k:
            p = p + 1e-12
    return p / p.sum()


class TestSampleDistinct:
    """`_sample_distinct` is `Generator.choice` without replacement: the
    same picks in the same order, and the generator left in the same
    state, so that expansion draws the same trees as the library call."""

    @given(st.integers(2, 80).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
           st.sampled_from(["flat", "skewed", "zeros", "sparse"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_matches_generator_choice(self, mk, shape, seed):
        m, k = mk
        p = random_p(rng(seed), m, k, shape)
        a, b = rng(seed + 1), rng(seed + 1)
        want = a.choice(m, size=k, replace=False, p=p).tolist()
        assert search._sample_distinct(b, p, k) == want
        assert b.bit_generator.state == a.bit_generator.state

    def test_leaves_the_prior_alone(self):
        p = random_p(rng(1), 30, 20, "skewed")
        before = p.tobytes()
        search._sample_distinct(rng(2), p, 20)
        assert p.tobytes() == before

    @pytest.mark.parametrize("p,k", [
        ([0.5, np.nan, 0.5], 1),
        ([0.6, -0.1, 0.5], 1),
        ([0.5, 0.3, 0.1], 1),
        ([0.5, 0.5, 1e-3], 1),
        ([1.0, 0.0, 0.0], 2),
        ([0.5, 0.5, 0.0, 0.0], 3),
    ], ids=["nan", "negative", "sum-low", "sum-high", "one-positive", "two-positive"])
    def test_rejects_what_generator_choice_rejects(self, p, k):
        p = np.array(p)
        with pytest.raises(ValueError):
            rng().choice(len(p), size=k, replace=False, p=p)
        r = rng()
        with pytest.raises(ValueError):
            search._sample_distinct(r, p, k)
        assert r.bit_generator.state == rng().bit_generator.state


class TestApproxExpandFromSparsePrior:
    """Approximate expansion where the prior has at most n_expand positive
    pairs: the sampler then needs more than one round."""

    def setup_method(self):
        self.lib = build_library("args")
        self.node_env = make_env([3, 1, 2], 0, 2, 1, registry=0)

    def priors(self, feasible, rows, weights):
        """Masked policies whose joint prior is positive on `rows` only."""
        mp = np.zeros(len(self.lib))
        ma = np.zeros(ARG_SPACE)
        mp[feasible.prog_idx[rows[0]]] = 1.0
        ma[feasible.arg_idx[rows]] = weights
        return mp, ma

    def with_generator_choice(self, mp, ma, cfg, r):
        """`expand`'s approximate branch written with `Generator.choice`."""
        node = prepared_node(self.node_env, self.lib)
        pri = search.joint_prior(node, mp, ma)
        p = pri
        if np.count_nonzero(p) < cfg.n_expand:
            p = p + 1e-12
        p = p / p.sum()
        picked = np.sort(r.choice(len(pri), size=cfg.n_expand, replace=False, p=p))
        return node.feasible.take(picked), pri[picked] / pri[picked].sum()

    @pytest.mark.parametrize("positive", [1, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_generator_choice(self, positive, seed):
        node = prepared_node(self.node_env, self.lib)
        f = node.feasible
        prog = next(p for p in np.unique(f.prog_idx)
                    if np.count_nonzero(f.prog_idx == p) >= 3)
        rows = np.flatnonzero(f.prog_idx == prog)[:positive]
        mp, ma = self.priors(f, rows, [0.98, 0.01, 0.01][:positive])
        assert np.count_nonzero(search.joint_prior(node, mp, ma)) == positive
        cfg = SearchConfig(mode=MODE_APPROX, n_expand=3, training=False)
        want_edges, want_p = self.with_generator_choice(mp, ma, cfg, want_rng := rng(seed))
        r = rng(seed)
        expand(node, mp, ma, cfg, r, SearchStats())
        assert list(node.edges) == list(want_edges)
        assert node.edges.prog_idx.tolist() == want_edges.prog_idx.tolist()
        assert node.edges.arg_idx.tolist() == want_edges.arg_idx.tolist()
        assert arr(node.P).tobytes() == want_p.tobytes()
        assert r.bit_generator.state == want_rng.bit_generator.state
        one_round = rng(seed)
        one_round.random(3)
        assert r.bit_generator.state != one_round.bit_generator.state


class TestNonFiniteEvaluator:
    """A network whose outputs are not finite stops the search with
    SearchError instead of steering it."""

    lib = build_library("args")

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_APPROX])
    @pytest.mark.parametrize("weight,message", [("value_w", "non-finite leaf value"),
                                                ("prog_w", "non-finite prior mass")])
    def test_nan_network_raises(self, mode, weight, message):
        params = init_params(0, dims_for_library(self.lib))
        params.arrays[weight][...] = np.nan
        env = sample_task_env(TaskId.PARTITION_UPDATE, 4, rng(17))
        cfg = SearchConfig(mode=mode, n_expand=5, simulations=30)
        with pytest.raises(SearchError, match=message):
            search_episode(TaskId.PARTITION_UPDATE, env, NetworkEvaluator(params),
                           self.lib, cfg, SearchStats(), rng(18))

    def test_zero_prior_mass_is_uniform_and_an_infinite_one_raises(self):
        node = prepared_node(make_env([3, 1, 2], 0, 2, 1, registry=0), self.lib)
        m = len(node.feasible)
        pri = search.joint_prior(node, np.zeros(len(self.lib)), np.zeros(ARG_SPACE))
        assert pri.tolist() == [1.0 / m] * m
        with pytest.raises(SearchError):
            search.joint_prior(node, np.full(len(self.lib), np.inf), np.ones(ARG_SPACE))


class TestRunSearch:
    def setup_method(self):
        self.lib = build_library("args")
        # A[p3] >= A[p2]: the single rewarded line is ptr_right(P3); stop.
        self.env = make_env([2, 9, 5], 0, 2, 1, registry=0)
        self.task = TaskId.PARTITION_UPDATE

    def search(self, seed, **kw):
        cfg = SearchConfig(mode=MODE_EXACT, simulations=100, training=False,
                           temperature=kw.pop("temperature", 0.0))
        ev = UniformEvaluator(self.lib)
        stats = SearchStats()
        res = run_search(self.task, self.env, ev.initial_hidden(), self.env,
                         self.lib, ev, cfg, stats, rng(seed), **kw)
        return res, stats

    def test_finds_the_one_step_reward(self):
        res, _ = self.search(0)
        assert (res.spec.name, res.args) == ("ptr_right", (3, 0, 0))

    def test_zero_temperature_gives_one_hot_policies(self):
        res, _ = self.search(1)
        assert res.pi_p_mcts.sum() == pytest.approx(1.0)
        assert res.pi_a_mcts.sum() == pytest.approx(1.0)
        assert (res.pi_p_mcts > 0).sum() == 1
        assert (res.pi_a_mcts > 0).sum() == 1

    def test_positive_temperature_matches_visit_shares(self):
        res, _ = self.search(2, temperature=1.0)
        root = res.root
        shares = arr(root.N) / arr(root.N).sum()
        for share, (spec, args) in zip(shares, root.edges):
            assert res.pi_p_mcts[self.lib.index(spec.name)] >= share - 1e-9

    def test_visit_count_conservation(self):
        res, _ = self.search(3)
        def check(node):
            if not node.edges or node.terminal:
                return
            assert arr(node.N).sum() == node.visits - 1
            for child in node.children:
                if child is not None:
                    check(child)
        check(res.root)

    def test_every_edge_is_feasible_at_its_parent(self):
        from argsynth.programs import pair_feasible
        res, _ = self.search(4)
        def check(node):
            if not node.edges:
                return
            for spec, args in node.edges:
                assert pair_feasible(node.env, spec, args)
            for child in node.children:
                if child is not None and not child.terminal:
                    check(child)
        check(res.root)

    def test_stats_accumulate(self):
        res, stats = self.search(5)
        assert stats.simulations == 100
        assert stats.nodes_expanded > 0
        assert stats.max_depth >= 1

    def test_an_episode_at_its_step_cap_has_no_budget_left(self):
        with pytest.raises(SearchError, match="no action budget left"):
            self.search(0, steps_taken=step_cap(self.task, self.env.n))

    def test_approx_expands_at_most_n_per_node(self):
        cfg = SearchConfig(mode=MODE_APPROX, n_expand=4, simulations=100,
                           training=False, temperature=0.0)
        ev = UniformEvaluator(self.lib)
        stats = SearchStats()
        res = run_search(self.task, self.env, ev.initial_hidden(), self.env,
                         self.lib, ev, cfg, stats, rng(6))
        def check(node):
            if not node.edges or node.terminal:
                return
            assert len(node.edges) <= 4
            for child in node.children:
                if child is not None:
                    check(child)
        check(res.root)


class TestRecursion:
    def setup_method(self):
        self.lib = build_library("args")

    def test_rigged_recursion_reaches_reference_state(self, rigged_evaluator):
        r = rng(8)
        env = sample_task_env(TaskId.QUICKSORT_UPDATE, 5, r)
        after_pop_save = env
        from argsynth.programs import apply_atomic
        after_pop_save = apply_atomic(after_pop_save, self.lib.spec("pop"), (0, 0, 0))
        after_pop_save = apply_atomic(after_pop_save, self.lib.spec("save_ptr"), (1, 0, 0))
        ev = rigged_evaluator(self.lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=50,
                           nested_simulations=80, training=False)
        result_env, ok = recurse_subprogram(
            after_pop_save, self.lib.spec("partition"), self.lib, ev, cfg,
            SearchStats(), r)
        assert ok
        assert result_env == oracle_transform(TaskId.PARTITION, after_pop_save)

    def test_zero_nested_budget_fails(self):
        r = rng(9)
        env = sample_task_env(TaskId.PARTITION, 4, r)
        ev = UniformEvaluator(self.lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=10,
                           nested_simulations=0, training=False)
        result_env, ok = recurse_subprogram(
            env, self.lib.spec("partition_update"), self.lib, ev, cfg,
            SearchStats(), r)
        assert not ok and result_env is None

    def test_failure_pins_edge_value_at_zero(self):
        r = rng(10)
        env = sample_task_env(TaskId.PARTITION, 4, r)
        ev = UniformEvaluator(self.lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=60,
                           nested_simulations=0, training=False,
                           temperature=0.0)
        stats = SearchStats()
        res = run_search(TaskId.PARTITION, env, ev.initial_hidden(), env,
                         self.lib, ev, cfg, stats, r)
        root = res.root
        for i, (spec, args) in enumerate(root.edges):
            child = root.children[i]
            if not spec.is_atomic and child is not None:
                assert child.terminal and child.env is None
                assert root.W[i] == 0.0

    def test_the_level_rule_is_the_only_bound_on_nesting(self, rigged_evaluator,
                                                         monkeypatch):
        """quicksort nests four episodes deep, down to the bottom level, and
        nothing else stops it there."""
        chain, deepest = [], []
        real = search.search_episode

        def tracking(task, *args, **kwargs):
            chain.append(task.program_name)
            if len(chain) > len(deepest):
                deepest[:] = chain
            try:
                return real(task, *args, **kwargs)
            finally:
                chain.pop()

        monkeypatch.setattr(search, "search_episode", tracking)
        r = rng(8)
        env = sample_task_env(TaskId.QUICKSORT, 4, r)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=30, nested_simulations=30,
                           training=False)
        final, ok = recurse_subprogram(env, self.lib.spec("quicksort"), self.lib,
                                       rigged_evaluator(self.lib), cfg, SearchStats(), r)
        assert ok and reward(TaskId.QUICKSORT, env, final) == 1
        assert deepest == ["quicksort", "quicksort_update", "partition", "partition_update"]

    def test_atomic_recursion_rejected(self):
        with pytest.raises(SearchError):
            recurse_subprogram(
                make_env([1, 2], 0, 1, 0), self.lib.spec("swap"), self.lib,
                UniformEvaluator(self.lib), SearchConfig(), SearchStats(), rng(0))

    def test_memoization_reuses_results(self, rigged_evaluator):
        r = rng(11)
        env = sample_task_env(TaskId.PARTITION, 4, r)
        ev = rigged_evaluator(self.lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=40,
                           nested_simulations=60, training=False)
        cache = {}
        stats = SearchStats()
        first = recurse_subprogram(env, self.lib.spec("partition_update"),
                                   self.lib, ev, cfg, stats, r, cache=cache)
        count = stats.recursions
        second = recurse_subprogram(env, self.lib.spec("partition_update"),
                                    self.lib, ev, cfg, stats, r, cache=cache)
        assert first == second
        assert stats.recursions == count  # served from the memo


class TestSearchEpisode:
    def test_rigged_episode_solves_partition_update(self, rigged_evaluator):
        lib = build_library("args")
        r = rng(12)
        env = sample_task_env(TaskId.PARTITION_UPDATE, 5, r)
        ev = rigged_evaluator(lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=60, training=False,
                           temperature=0.0)
        steps, reward, final = search_episode(
            TaskId.PARTITION_UPDATE, env, ev, lib, cfg, SearchStats(), r)
        assert reward == 1
        assert len(steps) <= step_cap(TaskId.PARTITION_UPDATE, env.n)
        assert steps[-1].action_name == "stop"

    def test_one_simulation_per_step_plays_the_prior(self):
        # One simulation only expands the root: no visit counts, so each
        # step's policy is the prior's marginals, and the chosen child is
        # made at commit. A prior on save_ptr never stops, so the episode
        # runs to its step cap and scores 0.
        lib = build_library("args")
        task, env = TaskId.PARTITION_UPDATE, make_env([4, 1, 3, 2], 0, 3, 1, registry=0)
        pi_p = np.full(len(lib), 0.1 / (len(lib) - 1))
        pi_p[lib.index("save_ptr")] = 0.9
        pi_a = np.full(ARG_SPACE, 1.0 / ARG_SPACE)

        class FixedPrior:
            def evaluate_many(self, requests):
                return [(pi_p, pi_a, 0.5, hidden) for _, _, hidden in requests]

            def initial_hidden(self):
                return HiddenState(np.zeros(1), np.zeros(1))

        cfg = SearchConfig(mode=MODE_EXACT, simulations=1, training=False)
        res = run_search(task, env, FixedPrior().initial_hidden(), env, lib, FixedPrior(),
                         cfg, SearchStats(), rng(3))
        root = res.root
        assert root.visits == 1 and sum(root.N) == 0.0
        prior = search.joint_prior(root, *masked_distributions(pi_p, pi_a, root.edges))
        for got, idx, size in ((res.pi_p_mcts, root.edges.prog_idx, len(lib)),
                               (res.pi_a_mcts, root.edges.arg_idx, ARG_SPACE)):
            marginal = np.zeros(size)
            np.add.at(marginal, idx, prior)
            assert got == pytest.approx(marginal, abs=1e-15)
        chosen = int(np.argmax(root.P))
        assert (res.spec, res.args) == root.edges[chosen] and res.spec.name == "save_ptr"
        assert [i for i, child in enumerate(root.children) if child is not None] == [chosen]
        assert res.next_env == root.children[chosen].env

        record, stats = run_episode(task, env, FixedPrior(), lib, cfg, rng(3))
        assert [s.action_name for s in record.steps] == ["save_ptr"] * step_cap(task, env.n)
        assert record.reward == 0 and stats.simulations == 4
        assert replay_trace(record, lib) == 0

    def test_a_committed_learned_call_that_fails_ends_the_episode(self):
        # One simulation only expands the root, so the episode commits the
        # pair of largest prior: a call of partition_update. With no nested
        # budget that call fails, and the episode ends at once, with reward
        # 0 and the state before the call as its final state.
        lib = build_library("args")
        task, env = TaskId.PARTITION, sample_task_env(TaskId.PARTITION, 5, rng(14))
        pi_p = np.full(len(lib), 0.1 / (len(lib) - 1))
        pi_p[lib.index("partition_update")] = 0.9
        pi_a = np.full(ARG_SPACE, 1.0 / ARG_SPACE)

        class FixedPrior:
            def evaluate_many(self, requests):
                return [(pi_p, pi_a, 0.5, hidden) for _, _, hidden in requests]

            def initial_hidden(self):
                return HiddenState(np.zeros(1), np.zeros(1))

        cfg = SearchConfig(simulations=1, nested_simulations=0, dirichlet_weight=0.0)
        record, stats = run_episode(task, env, FixedPrior(), lib, cfg, rng(14))
        assert [s.action_name for s in record.steps] == ["partition_update"]
        assert record.reward == 0 and record.e_final == env
        assert stats.simulations == 1 and stats.recursions == 0

    def test_policies_in_steps_are_distributions(self):
        lib = build_library("args")
        r = rng(13)
        env = sample_task_env(TaskId.PARTITION_UPDATE, 4, r)
        ev = UniformEvaluator(lib)
        cfg = SearchConfig(mode=MODE_EXACT, simulations=30, training=True,
                           temperature=1.0)
        steps, _, _ = search_episode(TaskId.PARTITION_UPDATE, env, ev, lib,
                                     cfg, SearchStats(), r)
        for s in steps:
            assert s.pi_p_mcts.sum() == pytest.approx(1.0)
            assert s.pi_a_mcts.sum() == pytest.approx(1.0)


def choose_on_probabilities(pi_p, pi_a, feasible):
    """The greedy choice on a step's probabilities: the most probable
    feasible program, then its most probable argument tuple, `argmax`
    breaking ties toward the lowest index."""
    progs = feasible.prog_support
    rows, args = feasible.rows_of[int(progs[pi_p[progs].argmax()])]
    return feasible[rows[pi_a[args].argmax()]]


class ForwardEveryStep:
    """Greedy play as one `forward` on the vector per step, the value head
    included, with nothing kept between steps but the hidden state, and
    the choice made on `forward`'s probabilities: the reference that
    `NetworkGreedyPolicy` must match bit for bit. Each step's (h, c) bytes
    go to `cells`."""

    def __init__(self, params, lib):
        self.params, self.lib = params, lib
        self.cells = []

    def start(self, task, env, memo):
        task_index = self.lib.task_index(task)
        level = self.lib.spec(task.program_name).level
        hidden = None

        def step(env):
            nonlocal hidden
            pi_p, pi_a, _, hidden = forward(self.params, observe(env), task_index, hidden)
            self.cells.append((hidden.h.tobytes(), hidden.c.tobytes()))
            return choose_on_probabilities(pi_p, pi_a, feasible_pairs(env, level, self.lib))

        return step


def greedy_run(monkeypatch, policy, lib, task, env):
    """(reward, final state, trace, the (h, c) bytes of the cell output that
    each step chose from) of one greedy execution. For a
    `NetworkGreedyPolicy`, each `search.greedy_select` call is matched to
    the `search._cell` call that made its h, an earlier step's for a call's
    first step that found its answer in the memo."""
    steps, made = [], {}
    cell, select = search._cell, search.greedy_select

    def recording_cell(*args, **kwargs):
        c, h = cell(*args, **kwargs)
        made[id(h)] = (h, c)  # keeps h alive, so its id is not reused
        return c, h

    def recording_select(params, h, *rest):
        steps.append((h.tobytes(), made[id(h)][1].tobytes()))
        return select(params, h, *rest)

    trace = []
    with monkeypatch.context() as m:
        m.setattr(search, "_cell", recording_cell)
        m.setattr(search, "greedy_select", recording_select)
        r, final = execute_greedy(env, task, policy, lib, trace=trace)
    if isinstance(policy, ForwardEveryStep):
        steps, policy.cells = policy.cells, []
    assert len(steps) == len(trace)
    return r, final, [(t.depth, t.name, t.args) for t in trace], steps


class TestExecuteGreedy:
    def test_untrained_network_never_crashes(self):
        lib = build_library("args")
        params = init_params(0, dims_for_library(lib))
        policy = NetworkGreedyPolicy(params, lib)
        r = rng(14)
        for task in TASKS:
            for _ in range(10):
                env = sample_task_env(task, int(r.integers(2, 7)), r)
                trace = []
                reward, _ = execute_greedy(env, task, policy, lib, trace=trace)
                assert reward in (0, 1)
                top_level = [t for t in trace if t.depth == 0]
                assert len(top_level) <= step_cap(task, env.n)

    def test_deterministic_trace(self):
        lib = build_library("args")
        params = init_params(1, dims_for_library(lib))
        env = sample_task_env(TaskId.PARTITION, 5, rng(15))
        def run():
            trace = []
            r, final = execute_greedy(env, TaskId.PARTITION,
                                      NetworkGreedyPolicy(params, lib), lib,
                                      trace=trace)
            return r, final, [(t.depth, t.name, t.args) for t in trace]
        assert run() == run()

    def test_expert_policy_runs_the_full_hierarchy(self):
        lib = build_library("args")
        env = sample_task_env(TaskId.QUICKSORT, 6, rng(16))
        trace = []
        reward, final = execute_greedy(env, TaskId.QUICKSORT,
                                       ExpertPolicy(lib), lib, trace=trace)
        assert reward == 1
        assert final.values == tuple(sorted(env.values))
        assert {t.depth for t in trace} >= {0, 1, 2}

    def test_only_the_top_level_call_is_scored(self, monkeypatch):
        import argsynth.search as S
        scored = []
        real_reward = S.reward

        def counting_reward(task, e_initial, e_final):
            scored.append(task)
            return real_reward(task, e_initial, e_final)

        monkeypatch.setattr(S, "reward", counting_reward)
        lib = build_library("args")
        env = sample_task_env(TaskId.QUICKSORT, 6, rng(16))
        trace = []
        reward, _ = execute_greedy(env, TaskId.QUICKSORT, ExpertPolicy(lib), lib,
                                   trace=trace)
        assert reward == 1
        assert sum(t.depth > 0 and t.name == "stop" for t in trace) > 1
        assert scored == [TaskId.QUICKSORT]

    def test_random_networks_match_forward_every_step(self, monkeypatch):
        lib = build_library("args")
        r = rng(17)
        capped = 0
        for seed in range(3):
            params = init_params(seed, dims_for_library(lib))
            for task in TASKS:
                for n in range(2, 21, 3):
                    env = sample_task_env(task, n, r)
                    got = greedy_run(monkeypatch, NetworkGreedyPolicy(params, lib),
                                     lib, task, env)
                    want = greedy_run(monkeypatch, ForwardEveryStep(params, lib),
                                      lib, task, env)
                    assert got == want
                    capped += sum(d == 0 for d, _, _ in got[2]) == step_cap(task, n)
        assert capped > 20

    @pytest.mark.parametrize("n", [40, 60])
    def test_trained_quicksort_matches_forward_every_step(self, monkeypatch, n):
        lib = build_library("args")
        params = trained_params()
        env = sample_task_env(TaskId.QUICKSORT, n, rng(n))
        got = greedy_run(monkeypatch, NetworkGreedyPolicy(params, lib),
                         lib, TaskId.QUICKSORT, env)
        assert got == greedy_run(monkeypatch, ForwardEveryStep(params, lib),
                                 lib, TaskId.QUICKSORT, env)
        assert {d for d, _, _ in got[2]} == {0, 1, 2, 3}

    def test_the_memo_dies_with_the_top_level_call(self, monkeypatch):
        """Parameters updated in place between two executions reach the
        second one, as `train_step` updates them between iterations."""
        lib = build_library("args")
        params = init_params(0, dims_for_library(lib))
        env = sample_task_env(TaskId.QUICKSORT, 8, rng(18))
        policy = NetworkGreedyPolicy(params, lib)
        first = greedy_run(monkeypatch, policy, lib, TaskId.QUICKSORT, env)
        assert policy.first_hits > 0 and {d for d, _, _ in first[2]} == {0, 1, 2}
        counts = (policy.first_misses, policy.input_misses)
        assert greedy_run(monkeypatch, policy, lib, TaskId.QUICKSORT, env) == first
        assert (policy.first_misses, policy.input_misses) == tuple(2 * k for k in counts)
        trace = SimpleNamespace(task_index=3, reward=1.0, steps=[SimpleNamespace(
            obs=observe(env), pi_p_mcts=np.eye(len(lib))[0],
            pi_a_mcts=np.eye(ARG_SPACE)[0])])
        train_step(params, init_optimizer(params, lr=1e-2), [trace])
        again = greedy_run(monkeypatch, policy, lib, TaskId.QUICKSORT, env)
        assert again != first
        assert again == greedy_run(monkeypatch, NetworkGreedyPolicy(params, lib),
                                   lib, TaskId.QUICKSORT, env)

    def test_a_trained_quicksort_hits_both_memos(self):
        lib = build_library("args")
        policy = NetworkGreedyPolicy(trained_params(), lib)
        execute_greedy(sample_task_env(TaskId.QUICKSORT, 20, rng(19)), TaskId.QUICKSORT,
                       policy, lib)
        assert policy.input_hits > 0 and policy.first_hits > 0
        assert policy.input_misses > 0 and policy.first_misses > 0


class RowByRow(NetworkEvaluator):
    """The network, with each request of a wave answered as a wave of one:
    row by row, bit for bit as a search that runs alone gets them."""

    def evaluate_many(self, requests):
        one = super().evaluate_many
        return [one([request])[0] for request in requests]


def trained_params():
    from test_network import BENCH_PARAMS
    from argsynth.network import checkpoint_load
    lib = build_library("args")
    return checkpoint_load(BENCH_PARAMS, expected_manifest=lib.manifest())[0]


def episode_bytes(steps, reward, final):
    return ([(s.action_name, s.action_args, s.obs.tobytes(), s.pi_p_mcts.tobytes(),
              s.pi_a_mcts.tobytes(), s.hidden.tobytes()) for s in steps],
            reward, final)


class TestLockstep:
    """`lockstep_episodes` against one `search_episode` per job."""

    lib = build_library("args")
    # partition with a network that plays it, so that learned calls and
    # their nested searches happen inside the episodes.
    JOBS = [(TaskId.PARTITION, 2 + i % 4, 300 + i) for i in range(7)]
    CFG = SearchConfig(mode=MODE_EXACT, simulations=25, nested_simulations=15,
                       training=True)

    def trees_by_stream(self, monkeypatch, run):
        """Run `run()`, with every tree it grows, nested ones too, recorded
        under the random stream that grew it."""
        trees = {}
        real = search._grow

        def recording(*args):
            res = yield from real(*args)
            trees.setdefault(id(args[8]), []).append(tree_bytes(res.root))
            return res

        with monkeypatch.context() as mp:
            mp.setattr(search, "_grow", recording)
            out = run()
        return out, trees

    def jobs(self):
        return [(task, sample_task_env(task, n, rng(seed)), rng(seed + 1000))
                for task, n, seed in self.JOBS]

    @pytest.fixture(scope="class")
    def evaluator(self):
        return RowByRow(trained_params())

    # The network answering row by row, and the plan-following double.
    @pytest.mark.parametrize("double,width", [
        *[pytest.param("network", w, id=str(w)) for w in (1, 3, len(JOBS))],
        *[pytest.param("rigged", w, id=f"rigged-{w}") for w in (1, 3, len(JOBS))]])
    def test_equals_one_search_episode_per_job(self, evaluator, rigged_evaluator, monkeypatch,
                                               double, width):
        if double == "rigged":
            evaluator = rigged_evaluator(self.lib)
        solo_jobs, lock_jobs = self.jobs(), self.jobs()
        want_stats, got_stats = SearchStats(), SearchStats()

        def solo():
            return [search_episode(task, env, evaluator, self.lib, self.CFG, want_stats, r)
                    for task, env, r in solo_jobs]

        monkeypatch.setattr(search, "LOCKSTEP_WIDTH", width)
        want, want_trees = self.trees_by_stream(monkeypatch, solo)
        got, got_trees = self.trees_by_stream(monkeypatch, lambda: search.lockstep_episodes(
            lock_jobs, evaluator, self.lib, self.CFG, got_stats))
        assert want_stats.recursions > 0
        assert [episode_bytes(*o) for o in got] == [episode_bytes(*o) for o in want]
        assert got_stats == want_stats
        for (_, _, a), (_, _, b) in zip(solo_jobs, lock_jobs):
            assert a.bit_generator.state == b.bit_generator.state
            assert got_trees[id(b)] == want_trees[id(a)]

    def test_one_wide_with_a_shared_memo_equals_episodes_in_turn(self, evaluator, monkeypatch):
        solo_jobs, lock_jobs = self.jobs(), self.jobs()
        cache = {}
        want_stats, got_stats = SearchStats(), SearchStats()
        want = [search_episode(task, env, evaluator, self.lib, self.CFG, want_stats, r,
                               cache=cache) for task, env, r in solo_jobs]
        monkeypatch.setattr(search, "LOCKSTEP_WIDTH", 1)
        got = search.lockstep_episodes(lock_jobs, evaluator, self.lib, self.CFG, got_stats, {})
        assert [episode_bytes(*o) for o in got] == [episode_bytes(*o) for o in want]
        assert got_stats == want_stats

    def test_waves_are_as_wide_as_the_episodes_in_flight(self, evaluator, monkeypatch):
        widths = []

        class Counting(RowByRow):
            def evaluate_many(self, requests):
                widths.append(len(requests))
                return super().evaluate_many(requests)

        monkeypatch.setattr(search, "LOCKSTEP_WIDTH", 3)
        search.lockstep_episodes(self.jobs(), Counting(evaluator.params), self.lib, self.CFG,
                                 SearchStats())
        assert widths[0] == max(widths) == 3

    def test_the_previous_tree_is_released_before_the_next_grows(self, monkeypatch):
        """At the start of every tree, no finished tree of the same
        episode is alive: one live root per episode in flight."""
        import gc
        live = []
        real = search._grow

        def counting(*args):
            live.append(sum(isinstance(o, Node) and o.depth == 0 for o in gc.get_objects()))
            return (yield from real(*args))

        monkeypatch.setattr(search, "_grow", counting)
        task = TaskId.PARTITION_UPDATE  # no learned callee, so no nested roots
        cfg = SearchConfig(mode=MODE_EXACT, simulations=20, training=True)
        ev = UniformEvaluator(self.lib)
        search_episode(task, sample_task_env(task, 4, rng(1)), ev, self.lib, cfg,
                       SearchStats(), rng(2))
        assert len(live) > 1 and set(live) == {0}
        live.clear()
        monkeypatch.setattr(search, "LOCKSTEP_WIDTH", 3)
        search.lockstep_episodes([(task, sample_task_env(task, 4, rng(s)), rng(s))
                                  for s in range(5)], ev, self.lib, cfg, SearchStats())
        assert len(live) > 5 and max(live) == 2


class TestRewardTarget:
    def test_each_tree_computes_its_target_once(self, monkeypatch):
        import argsynth.env as E
        calls = []
        real = E.oracle_transform

        def counting(task, env):
            calls.append(task)
            return real(task, env)

        monkeypatch.setattr(E, "oracle_transform", counting)
        lib = build_library("args")
        task = TaskId.PARTITION_UPDATE
        env = sample_task_env(task, 4, rng(5))
        cfg = SearchConfig(mode=MODE_EXACT, simulations=60, training=True)
        stats = SearchStats()
        ev = UniformEvaluator(lib)
        res = run_search(task, env, ev.initial_hidden(), env, lib, ev, cfg, stats, rng(6))
        stops = [c for c in search_nodes(res.root) if c.terminal and c.depth > 0]
        assert len(stops) > 1 and calls == [task]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), k=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_reward_scores_against_the_oracle_target(self, seed, n, k):
        """`reward` is `reward_to_target` of the oracle's outcome, on
        final states reached by a few random feasible actions."""
        from argsynth.env import reward, reward_to_target
        from argsynth.programs import apply_atomic
        lib = build_library("args")
        r = rng(seed)
        for task in TASKS:
            e0 = sample_task_env(task, n, r)
            target = oracle_transform(task, e0)
            for e in (e0, target):
                for _ in range(k):
                    pairs = [(s, a) for s, a in feasible_pairs(e, 1, lib) if s.is_atomic]
                    if not pairs:
                        break
                    spec, args = pairs[int(r.integers(len(pairs)))]
                    e = apply_atomic(e, spec, args)
                assert reward(task, e0, e) == reward_to_target(task, target, e)
            assert reward_to_target(task, target, target) == 1


def search_nodes(root):
    stack, out = [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(c for c in node.children if c is not None)
    return out


class TestGreedyNonFinite:
    """Greedy play raises SearchError on a network whose chosen outputs
    are not finite, as the search does."""

    lib = build_library("args")

    @pytest.mark.parametrize("weight", ["prog_w", "arg_w"])
    def test_nan_network_raises(self, weight):
        params = init_params(0, dims_for_library(self.lib))
        params.arrays[weight][...] = np.nan
        env = sample_task_env(TaskId.PARTITION, 5, rng(3))
        with pytest.raises(SearchError, match="non-finite greedy choice"):
            execute_greedy(env, TaskId.PARTITION, NetworkGreedyPolicy(params, self.lib),
                           self.lib)

    def test_finite_argument_weights_past_the_bound_are_read_on_every_step(self):
        """Finite argument weights whose column sums pass 1e300 fail
        `argument_logits_finite`, so a step computes the argument head even
        for a one-row program. Here they overflow it on the first step,
        which chooses `stop`, and greedy play raises as `forward`'s NaN
        probabilities say it must."""
        params = init_params(0, dims_for_library(self.lib))
        params.arrays["arg_w"][...] = 1e308
        params.arrays["arg_b"][...] = 1.7e308
        params.arrays["prog_b"][self.lib.index("stop")] = 100.0
        env = sample_task_env(TaskId.PARTITION, 5, rng(3))
        with np.errstate(all="ignore"):
            out = forward(params, observe(env), self.lib.task_index(TaskId.PARTITION))
        assert np.isnan(out.pi_a).all() and out.pi_p.argmax() == self.lib.index("stop")
        with pytest.raises(SearchError, match="non-finite greedy choice"), \
                np.errstate(all="ignore"):
            execute_greedy(env, TaskId.PARTITION, NetworkGreedyPolicy(params, self.lib),
                           self.lib)

    def test_finite_logits_past_the_bound_give_forwards_choices(self, monkeypatch):
        """One weight of 1e300 fails the bound while every argument logit
        stays finite: each step computes the argument head and chooses as
        `forward`'s probabilities do."""
        params = init_params(0, dims_for_library(self.lib))
        params.arrays["arg_w"][0, 0] = 1e300
        assert not argument_logits_finite(params)
        read = []
        select = search.greedy_select

        def spying(params, h, feasible, logits, args_finite):
            choice = select(params, h, feasible, logits, args_finite)
            read.append(logits[1] is not None)
            return choice

        for task in TASKS:
            env = sample_task_env(task, 6, rng(4))
            want = greedy_run(monkeypatch, ForwardEveryStep(params, self.lib), self.lib,
                              task, env)
            assert greedy_run(monkeypatch, NetworkGreedyPolicy(params, self.lib), self.lib,
                              task, env) == want
            with monkeypatch.context() as m:
                m.setattr(search, "greedy_select", spying)
                execute_greedy(env, task, NetworkGreedyPolicy(params, self.lib), self.lib)
        assert len(read) > 20 and all(read)


class TestEvaluateMany:
    """`NetworkEvaluator.evaluate_many` against `forward` on each request."""

    lib = build_library("args")

    def by_forward(self, ev, env, task_index, hidden):
        return forward(ev.params, observe(env), task_index, hidden)

    def requests(self, seed, b):
        r = rng(seed)
        dims = dims_for_library(self.lib)
        out = []
        for _ in range(b):
            task = TASKS[int(r.integers(len(TASKS)))]
            env = sample_task_env(task, int(r.integers(2, 8)), r)
            hidden = HiddenState(r.normal(size=dims.hidden), r.normal(size=dims.hidden))
            out.append((env, self.lib.task_index(task), hidden))
        return out

    def test_one_request_gives_the_bytes_of_evaluate(self):
        ev = NetworkEvaluator(init_params(1, dims_for_library(self.lib)))
        for request in self.requests(2, 5):
            (pi_p, pi_a, value, hidden), = ev.evaluate_many([request])
            want = self.by_forward(ev, *request)
            assert pi_p.tobytes() == want[0].tobytes()
            assert pi_a.tobytes() == want[1].tobytes()
            assert value == want[2]
            assert hidden.h.tobytes() == want[3].h.tobytes()
            assert hidden.c.tobytes() == want[3].c.tobytes()

    @pytest.mark.parametrize("b", [2, 5, 20])
    def test_rows_stay_within_1e_14_of_evaluate(self, b):
        ev = NetworkEvaluator(trained_params())
        requests = self.requests(b, b)
        rows = ev.evaluate_many(requests)
        assert len(rows) == b
        for request, row in zip(requests, rows):
            want = self.by_forward(ev, *request)
            for got, exp in ((row[0], want[0]), (row[1], want[1]), (row[2], want[2]),
                             (row[3].h, want[3].h), (row[3].c, want[3].c)):
                assert np.abs(np.asarray(got) - exp).max() <= 1e-14

    def test_row_hidden_states_own_their_memory(self):
        ev = NetworkEvaluator(init_params(1, dims_for_library(self.lib)))
        rows = ev.evaluate_many(self.requests(3, 4))
        arrays = [a for row in rows for a in row[3]]
        assert all(a.base is None for a in arrays)

    @pytest.mark.parametrize("b", [1, 3])
    def test_a_task_index_out_of_range_is_rejected(self, b):
        ev = NetworkEvaluator(init_params(1, dims_for_library(self.lib)))
        requests = self.requests(4, b)
        env, _, hidden = requests[-1]
        for bad in (-1, len(TASKS)):
            with pytest.raises(ValueError, match="task ind"):
                ev.evaluate_many(requests[:-1] + [(env, bad, hidden)])

    def test_a_repeated_wave_of_one_gets_the_bytes_of_forward(self):
        ev = NetworkEvaluator(init_params(1, dims_for_library(self.lib)))
        requests = self.requests(6, 5)
        first = [ev.evaluate_many([request])[0] for request in requests]
        for request, answer in zip(requests, first):
            env, task_index, hidden = request
            # The same bytes in new arrays are the same request.
            again, = ev.evaluate_many([(env, task_index, HiddenState(hidden.h.copy(),
                                                                      hidden.c.copy()))])
            want = self.by_forward(ev, *request)
            assert again is answer
            assert again[0].tobytes() == want[0].tobytes()
            assert again[1].tobytes() == want[1].tobytes()
            assert again[2] == want[2]
            assert again[3].h.tobytes() == want[3].h.tobytes()
            assert again[3].c.tobytes() == want[3].c.tobytes()
        assert (ev.hits, ev.misses) == (5, 5)
        env, task_index, hidden = requests[0]
        ev.evaluate_many([(env, task_index, HiddenState(hidden.h, -hidden.c))])
        assert (ev.hits, ev.misses) == (5, 6)

    def test_a_wave_of_several_neither_reads_nor_fills_the_memo(self):
        ev = NetworkEvaluator(trained_params())
        a, b = self.requests(7, 2)
        kept, = ev.evaluate_many([a])
        row_a, _ = ev.evaluate_many([a, b])
        assert row_a is not kept
        assert (ev.hits, ev.misses) == (0, 1)
        ev.evaluate_many([b])
        assert (ev.hits, ev.misses) == (0, 2)

    def test_the_memo_keeps_the_last_answers(self):
        ev = NetworkEvaluator(init_params(1, dims_for_library(self.lib)))
        requests = self.requests(8, search.EVALUATOR_MEMO + 1)
        for request in requests:
            ev.evaluate_many([request])
            assert len(ev._memo) <= search.EVALUATOR_MEMO
        assert len(ev._memo) == search.EVALUATOR_MEMO
        for request in requests[1:]:
            ev.evaluate_many([request])
        assert ev.hits == search.EVALUATOR_MEMO
        ev.evaluate_many([requests[0]])
        assert ev.misses == search.EVALUATOR_MEMO + 2

    def test_search_episodes_run_as_without_the_memo(self, monkeypatch):
        cfg = SearchConfig(mode=MODE_EXACT, training=True)
        params = trained_params()
        runs = []
        for size in (search.EVALUATOR_MEMO, 0):
            monkeypatch.setattr(search, "EVALUATOR_MEMO", size)
            ev, stats, r, cache = NetworkEvaluator(params), SearchStats(), rng(41), {}
            episodes = []

            def run():
                for n in range(2, 8):
                    env = sample_task_env(TaskId.PARTITION, n, r)
                    episodes.append(episode_bytes(*search_episode(
                        TaskId.PARTITION, env, ev, self.lib, cfg, stats, r, cache=cache)))

            trees = [tree_bytes(res.root) for res in searched_trees(run, fast_forward=True)]
            runs.append((episodes, trees, stats, ev.hits, ev.hits + ev.misses))
        (episodes, trees, stats, hits, requests), bare = runs
        assert stats.recursions > 0 and hits > requests / 10
        assert bare == (episodes, trees, stats, 0, requests)

    def test_forward_rows_checks_the_observation_shape(self):
        from argsynth.network import forward_rows
        params = init_params(1, dims_for_library(self.lib))
        (env, t, hidden), = self.requests(5, 1)
        obs = observe(env)
        with pytest.raises(ValueError, match="observation rows"):
            forward_rows(params, [obs[:-1], obs[:-1]], [t, t], [hidden, hidden])
        with pytest.raises(ValueError, match="task ind"):
            forward_rows(params, [obs, obs], [t], [hidden, hidden])
