import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from argsynth.env import (
    TaskId,
    TASKS,
    make_env,
    oracle_transform,
    sample_task_env,
    step_cap,
)
from argsynth.expert import ExpertPolicy
from argsynth.network import dims_for_library, init_params, masked_distributions
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
    node.expanded = True
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
            if node.expanded and not node.terminal:
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

    @given(
        nodes=st.lists(
            st.tuples(
                st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(0, 30),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=8),
                st.integers(0, 7)),
            min_size=1, max_size=5),
        value=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        budget=st.integers(1, 60),
        c_puct=st.sampled_from([0.0, 1.0, 3.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_one_at_a_time(self, nodes, value, budget, c_puct):
        stats = []
        for edges, pick in nodes:
            idx = pick % len(edges)
            priors = [p for p, _, _ in edges]
            N = [max(n, 1) if i == idx else n for i, (_, n, _) in enumerate(edges)]
            W = [q * n for (_, _, q), n in zip(edges, N)]
            stats.append((list(np.array(priors) / sum(priors)), N, W, idx))
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

    def test_dead_node_without_feasible_pairs(self):
        node = Node(env=make_env([1, 2], 0, 1, 0), h_in=None, depth=0)
        node.feasible = []
        expand(node, np.ones(12), np.ones(64),
               SearchConfig(mode=MODE_EXACT), rng(), SearchStats())
        assert node.terminal and node.value == 0.0

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
            if not node.expanded or node.terminal:
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
            if not node.expanded:
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

    def test_approx_expands_at_most_n_per_node(self):
        cfg = SearchConfig(mode=MODE_APPROX, n_expand=4, simulations=100,
                           training=False, temperature=0.0)
        ev = UniformEvaluator(self.lib)
        stats = SearchStats()
        res = run_search(self.task, self.env, ev.initial_hidden(), self.env,
                         self.lib, ev, cfg, stats, rng(6))
        def check(node):
            if not node.expanded or node.terminal:
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
                assert child.terminal and child.failed_subcall
                assert root.W[i] == 0.0

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
