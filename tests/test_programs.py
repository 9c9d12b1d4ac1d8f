import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import argsynth.programs as programs_module
from argsynth.env import NONE, P1, P2, P3, TASKS, EnvError, TaskId, make_env, sample_task_env
from argsynth.programs import (
    EMPTY_ARGS,
    LibraryError,
    apply_atomic,
    args_decode,
    args_encode,
    atomic_feasible,
    build_library,
    feasible_pairs,
    pair_feasible,
    program_precondition,
    valid_arg_tuples,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestLibrary:
    def test_args_mode_counts(self):
        lib = build_library("args")
        assert len(lib) == 12
        assert sum(p.is_atomic for p in lib) == 8

    def test_noargs_mode_counts(self):
        lib = build_library("noargs")
        assert len(lib) == 17
        assert sum(p.is_atomic for p in lib) == 13

    def test_levels(self):
        lib = build_library("args")
        assert lib.spec("quicksort").level == 5
        assert lib.spec("quicksort_update").level == 4
        assert lib.spec("partition").level == 2
        assert lib.spec("partition_update").level == 1
        assert all(p.level == 0 for p in lib if p.is_atomic)

    def test_order_is_stable(self):
        a = [p.name for p in build_library("args")]
        b = [p.name for p in build_library("args")]
        assert a == b
        assert a[0] == "stop"
        assert a[-4:] == ["partition_update", "partition", "quicksort_update", "quicksort"]

    def test_task_indices(self):
        lib = build_library("args")
        assert [lib.task_index(t) for t in
                (TaskId.PARTITION_UPDATE, TaskId.PARTITION,
                 TaskId.QUICKSORT_UPDATE, TaskId.QUICKSORT)] == [0, 1, 2, 3]

    def test_an_atomic_has_no_task_index(self):
        lib = build_library("args")
        with pytest.raises(LibraryError, match="not a learned program: 'swap'"):
            lib.task_index("swap")

    def test_unknown_program(self):
        lib = build_library("args")
        with pytest.raises(LibraryError):
            lib.index("bogosort")
        with pytest.raises(LibraryError):
            build_library("warp")

    def test_manifest_roundtrip_and_mismatch(self):
        # The mismatch is rejected by checkpoint_load; see
        # test_network.py::TestCheckpoints::test_manifest_guard.
        lib = build_library("args")
        manifest = json.loads(json.dumps(lib.manifest()))
        assert manifest == lib.manifest()
        assert manifest != build_library("noargs").manifest()


class TestArgCodec:
    def test_empty_tuple_is_zero(self):
        assert args_encode((NONE, NONE, NONE)) == 0

    def test_worked_examples(self):
        assert args_encode((P1, P3, NONE)) == 28
        assert args_encode((P3, P2, P1)) == 57
        assert args_decode(57) == (P3, P2, P1)

    def test_exhaustive_roundtrip(self):
        for idx in range(64):
            assert args_encode(args_decode(idx)) == idx

    def test_out_of_range(self):
        with pytest.raises(LibraryError):
            args_decode(64)
        with pytest.raises(LibraryError):
            args_encode((4, 0, 0))

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    def test_roundtrip_property(self, args):
        assert args_decode(args_encode(args)) == args


class TestValidTuples:
    def test_arity_zero_programs(self):
        lib = build_library("args")
        for name in ("stop", "push", "pop", "quicksort"):
            assert valid_arg_tuples(lib.spec(name)) == (EMPTY_ARGS,)

    def test_save_load_single_pointer(self):
        lib = build_library("args")
        assert valid_arg_tuples(lib.spec("save_ptr")) == (
            (P1, NONE, NONE), (P2, NONE, NONE), (P3, NONE, NONE))

    def test_swap_canonical_pairs(self):
        lib = build_library("args")
        tuples = valid_arg_tuples(lib.spec("swap"))
        assert len(tuples) == 3
        assert set(tuples) == {(P1, P2, NONE), (P1, P3, NONE), (P2, P3, NONE)}

    def test_pointer_move_subsets(self):
        lib = build_library("args")
        assert len(valid_arg_tuples(lib.spec("ptr_right"))) == 7
        assert len(valid_arg_tuples(lib.spec("ptr_left"))) == 7

    def test_noargs_everything_empty(self):
        lib = build_library("noargs")
        for spec in lib:
            assert valid_arg_tuples(spec) == (EMPTY_ARGS,)

    def test_noncanonical_tuple_rejected(self):
        lib = build_library("args")
        env = make_env([1, 2, 3], 0, 2, 1)
        assert not atomic_feasible(env, lib.spec("swap"), (P2, P1, NONE))
        assert atomic_feasible(env, lib.spec("swap"), (P1, P2, NONE))
        with pytest.raises(EnvError, match="invalid argument tuple"):
            apply_atomic(env, lib.spec("swap"), (P2, P1, NONE))

    @pytest.mark.parametrize("check", [atomic_feasible, apply_atomic])
    def test_a_learned_spec_is_refused_as_an_atomic(self, check):
        lib = build_library("args")
        env = make_env([1, 2, 3], 0, 2, 1, registry=0)
        with pytest.raises(LibraryError, match="partition_update is not atomic"):
            check(env, lib.spec("partition_update"), EMPTY_ARGS)


class TestFeasiblePairs:
    def test_equal_pointers_prune_swap(self):
        lib = build_library("args")
        env = make_env([1, 2, 3], 0, 2, 0)  # p1 == p3
        swap_args = [a for s, a in feasible_pairs(env, 99, lib) if s.name == "swap"]
        assert (P1, P3, NONE) not in swap_args
        assert len(swap_args) == 2

    def test_level_filter_for_loop_body(self):
        lib = build_library("args")
        env = sample_task_env(TaskId.PARTITION_UPDATE, 5, rng(1))
        pairs = feasible_pairs(env, lib.spec("partition_update").level, lib)
        assert all(s.is_atomic for s, _ in pairs)

    def test_no_pop_at_quicksort_entry(self):
        lib = build_library("args")
        env = sample_task_env(TaskId.QUICKSORT, 5, rng(2))
        names = {s.name for s, _ in feasible_pairs(env, lib.spec("quicksort").level, lib)}
        assert "pop" not in names
        assert "stop" in names

    def test_noargs_pairs_carry_empty_tuple(self):
        lib = build_library("noargs")
        r = rng(3)
        for _ in range(50):
            env = sample_task_env(TaskId.QUICKSORT_UPDATE, 6, r)
            for _, args in feasible_pairs(env, 99, lib):
                assert args == EMPTY_ARGS

    def test_order_deterministic_library_then_args(self):
        lib = build_library("args")
        env = make_env([1, 2, 3], 0, 2, 1, registry=0)
        pairs = feasible_pairs(env, 99, lib)
        keys = [(lib.index(s.name), args_encode(a)) for s, a in pairs]
        assert keys == sorted(keys)

    def test_fuzz_never_returns_infeasible(self):
        lib = build_library("args")
        r = rng(5)
        tasks = (TaskId.PARTITION_UPDATE, TaskId.PARTITION,
                 TaskId.QUICKSORT_UPDATE, TaskId.QUICKSORT)
        for i in range(10_000):
            env = sample_task_env(tasks[i % 4], int(r.integers(2, 8)), r)
            for spec, args in feasible_pairs(env, 99, lib):
                assert pair_feasible(env, spec, args)


@st.composite
def any_state(draw):
    """Any valid state: pointers, stack frames and registry anywhere."""
    n = draw(st.integers(2, 8))
    index = st.integers(0, n - 1)
    values = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    frames = draw(st.lists(st.tuples(index, index).map(sorted), max_size=3))
    registry = draw(st.none() | index)
    return make_env(values, draw(index), draw(index), draw(index), frames, registry)


CALLER_LEVELS = (1, 2, 4, 5, 99)


def oracle_pairs(env, caller_level, lib):
    """The static domain in table order, filtered pair by pair."""
    return [(spec, args) for spec in lib for args in valid_arg_tuples(spec)
            if spec.level < caller_level and pair_feasible(env, spec, args)]


class TestActionTable:
    @pytest.mark.parametrize("mode", ["args", "noargs"])
    @given(env=any_state())
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_feasible_in_order(self, mode, env):
        lib = build_library(mode)
        for level in CALLER_LEVELS:
            pairs = feasible_pairs(env, level, lib)
            assert list(pairs) == oracle_pairs(env, level, lib)
            assert [lib.index(s.name) for s, _ in pairs] == list(pairs.prog_idx)
            assert [args_encode(a) for _, a in pairs] == list(pairs.arg_idx)

    def test_noargs_table_built_first(self, monkeypatch):
        # Each task's entry bit is fixed: a process that builds only the
        # noargs library must answer every caller level.
        monkeypatch.setattr(programs_module, "_TABLES", {})
        noargs = build_library("noargs")
        r = rng(6)
        for task in (TaskId.PARTITION_UPDATE, TaskId.PARTITION,
                     TaskId.QUICKSORT_UPDATE, TaskId.QUICKSORT):
            for _ in range(50):
                env = sample_task_env(task, int(r.integers(2, 8)), r)
                for level in CALLER_LEVELS:
                    assert list(feasible_pairs(env, level, noargs)) == \
                        oracle_pairs(env, level, noargs)

    @pytest.mark.parametrize("mode", ["args", "noargs"])
    @given(task=st.sampled_from(TASKS), n=st.integers(2, 60),
           seed=st.integers(0, 2**32 - 1), walk=st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_every_learned_caller_can_stop(self, mode, task, n, seed, walk):
        """On a task's start state and each state of a random atomic walk
        from it, every learned caller's set begins with `stop`, and a
        level-0 caller, which has nothing to call, is refused."""
        lib = build_library(mode)
        r = rng(seed)
        env = sample_task_env(task, n, r)
        for _ in range(walk + 1):
            for level in (1, 2, 4, 5):
                spec, args = feasible_pairs(env, level, lib)[0]
                assert (spec.name, args) == ("stop", EMPTY_ARGS)
            with pytest.raises(LibraryError):
                feasible_pairs(env, 0, lib)
            moves = feasible_pairs(env, 1, lib)[1:]
            env = apply_atomic(env, *moves[int(r.integers(len(moves)))])

    def test_one_table_per_mode(self):
        assert build_library("args").table is build_library("args").table
        assert build_library("args").table is not build_library("noargs").table

    def test_partition_needs_store_behind_scan(self):
        lib = build_library("args")
        names = {s.name for s, _ in feasible_pairs(make_env([6, 9], 1, 1, 0, registry=1),
                                                     99, lib)}
        assert "partition" not in names and "partition_update" not in names


class TestProgramPreconditions:
    def test_quicksort_requires_empty_stack(self):
        lib = build_library("args")
        env = make_env([1, 2], 0, 1, 0, stack=[(0, 1)])
        assert not program_precondition(lib.spec("quicksort"), env)

    def test_partition_requires_registry_at_p1(self):
        lib = build_library("args")
        assert program_precondition(lib.spec("partition"),
                                    make_env([1, 2], 0, 1, 0, registry=0))
        assert not program_precondition(lib.spec("partition"),
                                        make_env([1, 2], 0, 1, 0, registry=1))

    def test_partition_update_requires_registry(self):
        lib = build_library("args")
        assert not program_precondition(lib.spec("partition_update"),
                                        make_env([1, 2, 3], 0, 2, 1))

    def test_partition_update_admits_equal_p1_p3(self):
        lib = build_library("args")
        assert program_precondition(lib.spec("partition_update"),
                                    make_env([1, 2, 3], 0, 2, 0, registry=0))

    def test_atomic_rejected(self):
        lib = build_library("args")
        with pytest.raises(LibraryError):
            program_precondition(lib.spec("swap"), make_env([1, 2], 0, 1, 0))
