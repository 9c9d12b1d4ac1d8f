from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from argsynth.env import (
    ATOMIC_OPS,
    ATOMIC_SLOT_SETS,
    EnvError,
    EnvState,
    MAX_VALUE,
    RangeFrame,
    TaskId,
    TASKS,
    OBS_DIM,
    apply_atomic,
    atomic_feasible,
    env_from_record,
    env_to_record,
    make_env,
    observe,
    oracle_transform,
    reward,
    sample_task_env,
    step_cap,
    P1,
    P2,
    P3,
)
from argsynth.programs import build_library, feasible_pairs


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestMakeEnv:
    def test_minimal_legal_state(self):
        env = make_env([3, 1], 0, 1, 0)
        assert env.values == (3, 1) and env.n == 2

    def test_pointer_out_of_range(self):
        with pytest.raises(EnvError):
            make_env([3, 1], 0, 2, 0)

    def test_all_fields_populated(self):
        env = make_env([3, 1, 2], 0, 2, 0, stack=[(0, 2)], registry=0)
        assert env.stack == (RangeFrame(0, 2),) and env.registry == 0

    def test_rejects_value_range(self):
        with pytest.raises(EnvError):
            make_env([3, 11], 0, 1, 0)

    def test_rejects_short_list(self):
        with pytest.raises(EnvError):
            make_env([], 0, 0, 0)
        with pytest.raises(EnvError):
            make_env([1], 0, 0, 0)

    def test_rejects_bad_registry_and_frame(self):
        with pytest.raises(EnvError):
            make_env([1, 2], 0, 1, 0, registry=5)
        with pytest.raises(EnvError):
            make_env([1, 2], 0, 1, 0, stack=[(0, 3)])
        with pytest.raises(EnvError):
            RangeFrame(2, 1)


class TestObserve:
    def test_worked_example(self):
        env = make_env([3, 1, 2], 0, 2, 1)
        expected = (0.3, 0.2, 0.1, 1, 0, 0, 1, 0, 0,
                    0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0)
        assert observe(env) == pytest.approx(expected)

    def test_sorted_flag(self):
        assert observe(make_env([0, 1], 0, 1, 0))[-1] == 1.0
        assert observe(make_env([1, 0], 0, 1, 0))[-1] == 0.0

    @given(st.lists(st.integers(0, MAX_VALUE), min_size=2, max_size=12), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_is_sorted_is_the_pairwise_comparison(self, values, presort):
        v = tuple(sorted(values) if presort else values)
        env = make_env(list(v), 0, len(v) - 1, 0)
        assert env.is_sorted() == all(v[i] <= v[i + 1] for i in range(len(v) - 1))

    def test_registry_features(self):
        env = make_env([2, 2, 2], 1, 2, 0, registry=1)
        obs = observe(env)
        assert obs[18] == 0.0  # registry not empty
        assert obs[19] == 1.0  # registry == p1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_features_in_unit_range(self, seed):
        r = rng(seed)
        task = TASKS[seed % 4]
        env = sample_task_env(task, int(r.integers(2, 12)), r)
        obs = observe(env)
        assert obs.shape == (OBS_DIM,)
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)


class TestAtomics:
    def test_swap_exchanges_values(self):
        env = make_env([5, 2, 9], 0, 2, 0)
        out = apply_atomic(env, "swap", (P1, P2))
        assert out.values == (9, 2, 5)
        assert (out.p1, out.p2, out.p3) == (0, 2, 0)

    def test_pop_restores_range(self):
        env = make_env([1, 2, 3, 4], 0, 0, 0, stack=[(1, 3)])
        out = apply_atomic(env, "pop", ())
        assert (out.p1, out.p3, out.p2) == (1, 1, 3)
        assert out.stack == ()

    def test_push_both_clauses(self):
        env = make_env([0] * 5, 2, 4, 0)
        out = apply_atomic(env, "push", ())
        assert out.stack == (RangeFrame(3, 4), RangeFrame(0, 1))

    def test_push_right_only(self):
        env = make_env([0] * 5, 0, 4, 0)
        out = apply_atomic(env, "push", ())
        assert out.stack == (RangeFrame(1, 4),)

    def test_save_and_load_roundtrip(self):
        env = make_env([1, 2, 3], 0, 2, 1)
        saved = apply_atomic(env, "save_ptr", (P3,))
        assert saved.registry == 1
        loaded = apply_atomic(saved, "load_ptr", (P2,))
        assert loaded.p2 == 1 and loaded.registry is None

    def test_moves_shift_named_pointers(self):
        env = make_env([1, 2, 3], 1, 1, 1)
        out = apply_atomic(env, "ptr_right", (P1, P3))
        assert (out.p1, out.p2, out.p3) == (2, 1, 2)
        back = apply_atomic(out, "ptr_left", (P1,))
        assert back.p1 == 1

    def test_stop_is_identity(self):
        env = make_env([1, 2], 0, 1, 0)
        assert apply_atomic(env, "stop", ()) == env

    def test_apply_infeasible_raises(self):
        env = make_env([1, 2], 0, 1, 0)
        with pytest.raises(EnvError):
            apply_atomic(env, "pop", ())

    def test_determinism(self):
        env = make_env([4, 0, 7, 2], 1, 3, 1, registry=2)
        a = apply_atomic(env, "swap", (P1, P2))
        b = apply_atomic(env, "swap", (P1, P2))
        assert a == b


def apply_with_replace(env, op, slots):
    """`apply_atomic` as it was written with `dataclasses.replace`, for a
    feasible call."""
    name = {P1: "p1", P2: "p2", P3: "p3"}
    if op == "stop":
        return env
    if op == "save_ptr":
        return replace(env, registry=env.ptr(slots[0]))
    if op == "load_ptr":
        return replace(env, **{name[slots[0]]: env.registry}, registry=None)
    if op == "push":
        p1, p2, p3 = env.p1, env.p2, env.p3
        frames = list(env.stack)
        if p1 + 1 < p2:
            frames.append(RangeFrame(p1 + 1, p2))
        if p1 - 1 > 0 and p3 < p1 - 1:
            frames.append(RangeFrame(p3, p1 - 1))
        return replace(env, stack=tuple(frames))
    if op == "pop":
        frame = env.stack[-1]
        return replace(env, p1=frame.lo, p3=frame.lo, p2=frame.hi, stack=env.stack[:-1])
    if op == "swap":
        i, j = env.ptr(slots[0]), env.ptr(slots[1])
        vals = list(env.values)
        vals[i], vals[j] = vals[j], vals[i]
        return replace(env, values=tuple(vals))
    delta = -1 if op == "ptr_left" else 1
    return replace(env, **{name[s]: env.ptr(s) + delta for s in slots})


@st.composite
def states(draw):
    n = draw(st.integers(2, 8))
    pos = st.integers(0, n - 1)
    frames = draw(st.lists(st.tuples(pos, pos).map(sorted), max_size=3))
    return make_env(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)),
                    draw(pos), draw(pos), draw(pos), stack=frames,
                    registry=draw(st.one_of(st.none(), pos)))


class TestApplyAtomicMatchesReplace:
    """Every atomic operation and argument tuple gives the state that the
    `dataclasses.replace` version gave, equal and with an equal hash."""

    @given(states())
    @settings(max_examples=300, deadline=None)
    def test_every_op_and_argument_tuple(self, env):
        for op in ATOMIC_OPS:
            for slots in ATOMIC_SLOT_SETS[op]:
                if not atomic_feasible(env, op, slots):
                    with pytest.raises(EnvError):
                        apply_atomic(env, op, slots)
                    continue
                got, want = apply_atomic(env, op, slots), apply_with_replace(env, op, slots)
                assert got == want and hash(got) == hash(want)
                assert type(got.stack) is tuple and type(got.values) is tuple


class TestFeasibility:
    def test_push_predicate(self):
        assert atomic_feasible(make_env([0] * 5, 0, 4, 0), "push", ())
        assert not atomic_feasible(make_env([0, 0], 0, 1, 0), "push", ())

    def test_move_at_edges(self):
        env = make_env([1, 2], 0, 1, 0)
        assert not atomic_feasible(env, "ptr_left", (P1,))
        assert not atomic_feasible(env, "ptr_right", (P2,))
        assert atomic_feasible(env, "ptr_right", (P1,))

    def test_degenerate_swap_infeasible(self):
        env = make_env([1, 2], 0, 0, 0)
        assert not atomic_feasible(env, "swap", (P1, P2))

    def test_load_needs_registry(self):
        assert not atomic_feasible(make_env([1, 2], 0, 1, 0), "load_ptr", (P1,))
        assert atomic_feasible(make_env([1, 2], 0, 1, 0, registry=1), "load_ptr", (P1,))


class TestSampling:
    def test_quicksort_entry_shape(self):
        env = sample_task_env(TaskId.QUICKSORT, 5, rng(3))
        assert (env.p1, env.p2, env.p3) == (0, 4, 0)
        assert env.stack == () and env.registry is None

    def test_partition_minimal_length(self):
        env = sample_task_env(TaskId.PARTITION, 2, rng(5))
        assert (env.p1, env.p2, env.p3) == (0, 1, 0) and env.registry == 0

    def test_quicksort_update_preconditions_hold(self):
        r = rng(11)
        for _ in range(1000):
            env = sample_task_env(TaskId.QUICKSORT_UPDATE, 7, r)
            assert env.stack and env.registry is None

    def test_every_task_sample_satisfies_precondition(self):
        from argsynth.env import task_precondition
        r = rng(13)
        for task in TASKS:
            for _ in range(200):
                n = int(r.integers(2, 9))
                assert task_precondition(task, sample_task_env(task, n, r))

    def test_too_short_rejected(self):
        with pytest.raises(EnvError):
            sample_task_env(TaskId.QUICKSORT, 1, rng(0))


class TestOracles:
    def test_partition_worked_example(self):
        env = make_env([3, 1, 2], 0, 2, 0, registry=0)
        out = oracle_transform(TaskId.PARTITION, env)
        assert out.values == (1, 2, 3)
        assert (out.p1, out.p2, out.p3) == (1, 2, 2)
        assert out.registry == 0

    def test_partition_update_no_swap_branch(self):
        env = make_env([3, 8, 2], 0, 2, 0, registry=0)
        out = oracle_transform(TaskId.PARTITION_UPDATE, env)
        assert out.values == (3, 8, 2)
        assert (out.p1, out.p2, out.p3) == (0, 2, 1)

    def test_partition_update_swap_branch(self):
        env = make_env([5, 9, 1], 0, 1, 0, registry=0)
        out = oracle_transform(TaskId.PARTITION_UPDATE, env)
        assert out.values == (5, 9, 1)  # p1 == p3: self swap
        assert (out.p1, out.p3) == (1, 1)

    def test_quicksort_sorts(self):
        env = make_env([2, 0, 1], 0, 2, 0)
        out = oracle_transform(TaskId.QUICKSORT, env)
        assert out.values == (0, 1, 2) and out.stack == ()

    def test_quicksort_oracle_matches_sorted_random(self):
        r = rng(17)
        for _ in range(10_000):
            n = int(r.integers(2, 61))
            env = sample_task_env(TaskId.QUICKSORT, n, r)
            out = oracle_transform(TaskId.QUICKSORT, env)
            assert out.values == tuple(sorted(env.values))

    def test_reward_examples(self):
        e = make_env([2, 0, 1], 0, 2, 0)
        good = EnvState((0, 1, 2), 2, 0, 1)
        bad = EnvState((0, 2, 1), 2, 0, 1)
        assert reward(TaskId.QUICKSORT, e, good) == 1
        assert reward(TaskId.QUICKSORT, e, bad) == 0
        pe = make_env([3, 1, 2], 0, 2, 0, registry=0)
        assert reward(TaskId.PARTITION, pe, oracle_transform(TaskId.PARTITION, pe)) == 1

    def test_partition_rejects_store_ahead_of_scan(self):
        # p1 > p3: the Lomuto loop would walk the store index off the list.
        from argsynth.env import task_precondition
        env = make_env([6, 9], 1, 1, 0, registry=1)
        assert not task_precondition(TaskId.PARTITION, env)
        with pytest.raises(EnvError):
            oracle_transform(TaskId.PARTITION, env)


def test_partition_oracle_vs_independent_lomuto_spot():
    # A separately written textbook Lomuto, compared on random cases.
    def lomuto(values, lo, hi):
        vals = list(values)
        pivot = vals[hi]
        store = lo
        for j in range(lo, hi):
            if vals[j] < pivot:
                vals[store], vals[j] = vals[j], vals[store]
                store += 1
        vals[store], vals[hi] = vals[hi], vals[store]
        return vals, store

    r = rng(23)
    for _ in range(2000):
        n = int(r.integers(2, 9))
        env = sample_task_env(TaskId.PARTITION, n, r)
        out = oracle_transform(TaskId.PARTITION, env)
        ref_vals, ref_store = lomuto(env.values, env.p1, env.p2)
        assert list(out.values) == ref_vals
        assert out.p1 == ref_store and out.p3 == env.p2


def test_apply_atomic_fuzz_preserves_invariants():
    # >= 1e5 feasible applications on reachable and random states.
    lib = build_library("args")
    r = rng(29)
    applications = 0
    while applications < 100_000:
        task = TASKS[int(r.integers(0, 4))]
        env = sample_task_env(task, int(r.integers(2, 9)), r)
        for _ in range(30):
            pairs = feasible_pairs(env, 99, lib)
            atomic = [(s, a) for s, a in pairs if s.is_atomic]
            spec, args = atomic[int(r.integers(0, len(atomic)))]
            from argsynth.programs import apply_atomic as papply
            env = papply(env, spec, args)
            make_env(env.values, env.p1, env.p2, env.p3, env.stack, env.registry)
            applications += 1
    assert applications >= 100_000


def test_tasks_keep_the_curriculum_order():
    assert TASKS == (TaskId.PARTITION_UPDATE, TaskId.PARTITION,
                     TaskId.QUICKSORT_UPDATE, TaskId.QUICKSORT)


class TestStepCaps:
    def test_values(self):
        assert step_cap(TaskId.PARTITION_UPDATE, 7) == 4
        assert step_cap(TaskId.PARTITION, 5) == 14
        assert step_cap(TaskId.QUICKSORT_UPDATE, 9) == 8
        assert step_cap(TaskId.QUICKSORT, 6) == 10


class TestRecords:
    def test_roundtrip(self):
        env = make_env([3, 1, 2], 0, 2, 1, stack=[(0, 2), (1, 1)], registry=0)
        text = env_to_record(env)
        assert text == "list=3,1,2;p=0,2,1;stack=0:2|1:1;reg=0"
        assert env_from_record(text) == env

    def test_empty_fields(self):
        env = make_env([3, 1], 0, 1, 0)
        text = env_to_record(env)
        assert text == "list=3,1;p=0,1,0;stack=;reg=-"
        assert env_from_record(text) == env

    def test_malformed(self):
        with pytest.raises(EnvError):
            env_from_record("list=1,2;p=0,1,0;reg=-")
        with pytest.raises(EnvError):
            env_from_record("list=1,2;p=0,1,0;stack=;reg=x")
        with pytest.raises(EnvError):
            env_from_record("list=1,2;p=0,9,0;stack=;reg=-")

    def test_a_field_without_its_key_is_malformed(self):
        with pytest.raises(EnvError, match=r"field '0,1,0' \(expected p=...\)"):
            env_from_record("list=1,2;0,1,0;stack=;reg=-")
