import json
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from argsynth import network
from argsynth.env import OBS_DIM, TASKS, TaskId, make_env, observe, sample_task_env
from argsynth.network import (
    CheckpointError,
    HiddenState,
    NetworkDims,
    checkpoint_load,
    checkpoint_save,
    dims_for_library,
    finite_diff_check,
    forward,
    greedy_select,
    init_optimizer,
    init_params,
    loss,
    loss_and_grads,
    masked_distributions,
    step_loss_terms,
    train_step,
    zero_hidden,
)
from argsynth.programs import EMPTY_ARGS, args_encode, build_library, feasible_pairs


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def small_dims(programs=12):
    return NetworkDims(programs=programs, obs=OBS_DIM, enc=6, embed=5,
                       hidden=8, args=64, tasks=4)


def random_trace(r, dims, nsteps=3, task_index=0, reward=1.0, one_hot=False):
    steps = []
    for _ in range(nsteps):
        obs = r.random(dims.obs)
        tp = np.zeros(dims.programs)
        ta = np.zeros(dims.args)
        if one_hot:
            tp[int(r.integers(0, dims.programs))] = 1.0
            ta[int(r.integers(0, dims.args))] = 1.0
        else:
            tp = r.random(dims.programs)
            tp /= tp.sum()
            ta = r.random(dims.args)
            ta /= ta.sum()
        steps.append(SimpleNamespace(obs=obs, pi_p_mcts=tp, pi_a_mcts=ta))
    return SimpleNamespace(task_index=task_index, steps=steps, reward=reward)


class TestInit:
    def test_same_seed_bit_identical(self):
        lib = build_library("args")
        a = init_params(42, dims_for_library(lib))
        b = init_params(42, dims_for_library(lib))
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])

    def test_param_layout_keeps_its_order(self):
        # The order of the initial draws and of the checkpoint payload.
        assert network.PARAM_LAYOUT == (
            "enc_w1", "enc_b1", "enc_w2", "enc_b2", "prog_embed",
            "lstm_wx", "lstm_wh", "lstm_b",
            "prog_w", "prog_b", "arg_w", "arg_b", "value_w", "value_b")
        assert tuple(init_params(0, small_dims()).arrays) == network.PARAM_LAYOUT

    def test_head_dimension_tracks_library(self):
        assert init_params(0, dims_for_library(build_library("args")))["prog_w"].shape[1] == 12
        assert init_params(0, dims_for_library(build_library("noargs")))["prog_w"].shape[1] == 17


class TestForward:
    def test_distributions_normalized(self):
        lib = build_library("args")
        params = init_params(7, dims_for_library(lib))
        r = rng(7)
        for i in range(10_000):
            obs = r.random(OBS_DIM)
            out = forward(params, obs, int(r.integers(0, 4)))
            assert abs(out.pi_p.sum() - 1.0) < 1e-6
            assert abs(out.pi_a.sum() - 1.0) < 1e-6

    def test_value_in_unit_interval(self):
        lib = build_library("args")
        params = init_params(3, dims_for_library(lib))
        r = rng(3)
        for _ in range(200):
            out = forward(params, r.random(OBS_DIM), 0)
            assert 0.0 <= out.value <= 1.0

    def test_deterministic(self):
        lib = build_library("args")
        params = init_params(5, dims_for_library(lib))
        obs = rng(5).random(OBS_DIM)
        h = zero_hidden(params.dims)
        a = forward(params, obs, 2, h)
        b = forward(params, obs, 2, h)
        assert np.array_equal(a.pi_p, b.pi_p) and a.value == b.value

    def test_hidden_state_threads(self):
        lib = build_library("args")
        params = init_params(5, dims_for_library(lib))
        obs = rng(5).random(OBS_DIM)
        out1 = forward(params, obs, 0)
        out2 = forward(params, obs, 0, out1.hidden)
        assert not np.array_equal(out1.pi_p, out2.pi_p)

    def test_bad_task_index(self):
        lib = build_library("args")
        params = init_params(0, dims_for_library(lib))
        with pytest.raises(ValueError):
            forward(params, np.zeros(OBS_DIM), 4)


class TestLoss:
    def test_worked_unit_example(self):
        (value,) = step_loss_terms(
            np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([0.5]),
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([1.0]),
            np.array([True]))
        assert value == pytest.approx(1.6363, abs=1e-4)

    def test_matched_outputs_leave_target_entropy(self):
        tp = np.array([[1.0, 0.0, 0.0]])
        ta = np.zeros((1, 4))
        ta[0, 2] = 1.0
        one, policy = np.array([1.0]), np.array([True])
        assert step_loss_terms(tp, ta, one, tp, ta, one, policy)[0] == pytest.approx(0.0, abs=1e-9)
        soft = np.array([[0.5, 0.5]])
        expected = -2 * 0.5 * np.log(0.5) * 2  # both heads at entropy
        assert step_loss_terms(soft, soft, one, soft, soft, one, policy)[0] == pytest.approx(expected)

    def test_duplicating_batch_doubles_loss(self):
        dims = small_dims()
        params = init_params(1, dims)
        trace = random_trace(rng(1), dims)
        single = loss(params, [trace])
        double = loss(params, [trace, trace])
        assert double == pytest.approx(2 * single)

    def test_value_only_traces_skip_policy_terms(self):
        dims = small_dims()
        params = init_params(2, dims)
        trace = random_trace(rng(2), dims, reward=0.0)
        trace.value_only = True
        full = loss(params, [trace])
        # Manually recompute the pure value loss along the trace.
        expected = 0.0
        hidden = zero_hidden(dims)
        for step in trace.steps:
            out = forward(params, step.obs, trace.task_index, hidden)
            expected += out.value ** 2
            hidden = out.hidden
        assert full == pytest.approx(expected)


class TestGradients:
    def test_finite_difference_agreement_five_seeds(self):
        worst = 0.0
        for seed in range(5):
            dims = small_dims()
            params = init_params(seed, dims)
            r = rng(seed + 100)
            batch = [random_trace(r, dims, 3, 0, 1.0),
                     random_trace(r, dims, 2, 2, 0.0)]
            worst = max(worst, finite_diff_check(params, batch))
        assert worst < 1e-4

    def test_value_only_gradients_check_out(self):
        dims = small_dims()
        params = init_params(9, dims)
        trace = random_trace(rng(9), dims, 2, 1, 0.0)
        trace.value_only = True
        assert finite_diff_check(params, [trace]) < 1e-4


def _reference_step(params, obs, task_index, h_prev, c_prev):
    # One trace, one step: the network as a single-vector pass that keeps
    # every activation the backward pass reads.
    a = params.arrays
    H = params.dims.hidden
    a1 = np.maximum(obs @ a["enc_w1"] + a["enc_b1"], 0.0)
    s = np.maximum(a1 @ a["enc_w2"] + a["enc_b2"], 0.0)
    x = np.concatenate([s, a["prog_embed"][task_index]])
    gates = np.clip(x @ a["lstm_wx"] + h_prev @ a["lstm_wh"] + a["lstm_b"], -500.0, 500.0)
    gi = 1.0 / (1.0 + np.exp(-gates[:H]))
    gf = 1.0 / (1.0 + np.exp(-gates[H:2 * H]))
    gg = np.tanh(gates[2 * H:3 * H])
    go = 1.0 / (1.0 + np.exp(-gates[3 * H:]))
    c = gf * c_prev + gi * gg
    tanh_c = np.tanh(c)
    h = go * tanh_c

    def softmax(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    v = float(h @ a["value_w"] + a["value_b"][0])
    return SimpleNamespace(
        obs=obs, a1=a1, s=s, x=x, h_prev=h_prev, c_prev=c_prev, gi=gi, gf=gf,
        gg=gg, go=go, c=c, tanh_c=tanh_c, h=h,
        pi_p=softmax(h @ a["prog_w"] + a["prog_b"]),
        pi_a=softmax(h @ a["arg_w"] + a["arg_b"]),
        value=1.0 / (1.0 + np.exp(-np.clip(v, -500.0, 500.0))))


class TestForwardMatchesReference:
    """`forward` runs the same vector arithmetic as `_reference_step`, so it
    must agree bit for bit, on the clipped tails too."""

    @pytest.mark.parametrize("scale,value_scale", [(1.0, 1.0), (300.0, 20.0)])
    def test_bit_for_bit(self, scale, value_scale):
        lib = build_library("args")
        params = init_params(40, dims_for_library(lib))
        for array in params.arrays.values():
            array *= scale
        params.arrays["value_w"] *= value_scale
        a = params.arrays
        H = params.dims.hidden
        r = rng(40)
        gate_max = value_max = value_min = 0.0
        for i in range(200):
            task = i % 4
            obs = r.random(OBS_DIM)
            h, c = r.uniform(-1.0, 1.0, H), r.normal(0.0, 3.0, H)
            out = forward(params, obs, task, HiddenState(h, c))
            ref = _reference_step(params, obs, task, h, c)
            assert np.array_equal(out.pi_p, ref.pi_p)
            assert np.array_equal(out.pi_a, ref.pi_a)
            assert out.value == ref.value
            assert np.array_equal(out.hidden.h, ref.h)
            assert np.array_equal(out.hidden.c, ref.c)
            gates = ref.x @ a["lstm_wx"] + h @ a["lstm_wh"] + a["lstm_b"]
            logit = float(ref.h @ a["value_w"] + a["value_b"][0])
            gate_max = max(gate_max, float(np.abs(gates).max()))
            value_max, value_min = max(value_max, logit), min(value_min, logit)
        clipped = scale > 1.0
        assert (gate_max > 500.0) == clipped
        assert (value_max > 500.0 and value_min < -500.0) == clipped


def _reference_dlogits(pi, target):
    t_live = np.where(pi >= 1e-12, target, 0.0)
    return pi * t_live.sum() - t_live


def reference_loss_and_grads(params, batch):
    """The per-trace, per-step loop: forward along each trace from the zero
    hidden state, then backpropagate through it with outer products."""
    a = params.arrays
    d = params.dims
    grads = params.zeros_like()
    total = 0.0
    for trace in batch:
        value_only = getattr(trace, "value_only", False)
        h, c = np.zeros(d.hidden), np.zeros(d.hidden)
        caches = []
        for step in trace.steps:
            cc = _reference_step(params, step.obs, trace.task_index, h, c)
            sq = (cc.value - trace.reward) ** 2
            if value_only:
                total += sq
            else:
                ce_p = -float(step.pi_p_mcts @ np.log(np.maximum(cc.pi_p, 1e-12)))
                ce_a = -float(step.pi_a_mcts @ np.log(np.maximum(cc.pi_a, 1e-12)))
                total += ce_p + ce_a + sq
            caches.append((step, cc))
            h, c = cc.h, cc.c
        dh_next = np.zeros(d.hidden)
        dc_next = np.zeros(d.hidden)
        for step, cc in reversed(caches):
            if value_only:
                dlog_p, dlog_a = np.zeros(d.programs), np.zeros(d.args)
            else:
                dlog_p = _reference_dlogits(cc.pi_p, step.pi_p_mcts)
                dlog_a = _reference_dlogits(cc.pi_a, step.pi_a_mcts)
            dv = 2.0 * (cc.value - trace.reward) * cc.value * (1.0 - cc.value)
            grads["prog_w"] += np.outer(cc.h, dlog_p)
            grads["prog_b"] += dlog_p
            grads["arg_w"] += np.outer(cc.h, dlog_a)
            grads["arg_b"] += dlog_a
            grads["value_w"] += dv * cc.h
            grads["value_b"][0] += dv
            dh = a["prog_w"] @ dlog_p + a["arg_w"] @ dlog_a + dv * a["value_w"] + dh_next
            do = dh * cc.tanh_c
            dc = dh * cc.go * (1.0 - cc.tanh_c ** 2) + dc_next
            dc_next = dc * cc.gf
            dgates = np.concatenate([
                dc * cc.gg * cc.gi * (1.0 - cc.gi),
                dc * cc.c_prev * cc.gf * (1.0 - cc.gf),
                dc * cc.gi * (1.0 - cc.gg ** 2),
                do * cc.go * (1.0 - cc.go),
            ])
            grads["lstm_wx"] += np.outer(cc.x, dgates)
            grads["lstm_wh"] += np.outer(cc.h_prev, dgates)
            grads["lstm_b"] += dgates
            dx = a["lstm_wx"] @ dgates
            dh_next = a["lstm_wh"] @ dgates
            grads["prog_embed"][trace.task_index] += dx[d.enc:]
            dz2 = dx[:d.enc] * (cc.s > 0)
            grads["enc_w2"] += np.outer(cc.a1, dz2)
            grads["enc_b2"] += dz2
            dz1 = (a["enc_w2"] @ dz2) * (cc.a1 > 0)
            grads["enc_w1"] += np.outer(cc.obs, dz1)
            grads["enc_b1"] += dz1
    return total, grads


def assert_matches_reference(params, batch):
    """Batched loss within rel 1e-12 of the loop's, every gradient array
    within rtol 1e-10 (entries near zero held to 1e-10 of the array's
    largest entry), and `loss` equal to `loss_and_grads`' loss."""
    want_loss, want = reference_loss_and_grads(params, batch)
    got_loss, got = loss_and_grads(params, batch)
    assert got_loss == loss(params, batch)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=1e-10,
                                   atol=1e-10 * np.abs(g).max(), err_msg=name)


class TestBatchedMatchesLoopReference:
    def test_every_length_task_and_value_only_mix(self):
        dims = small_dims()
        params = init_params(30, dims)
        r = rng(30)
        batch = []
        for n in range(9):  # lengths 0..8, all four tasks, mixed value_only
            trace = random_trace(r, dims, n, n % 4, float(n % 2))
            trace.value_only = n % 3 == 0
            batch.append(trace)
        assert_matches_reference(params, batch)

    def test_batch_of_one(self):
        dims = small_dims()
        params = init_params(31, dims)
        assert_matches_reference(params, [random_trace(rng(31), dims, 5, 3, 1.0)])

    def test_empty_batch_and_empty_traces_contribute_nothing(self):
        dims = small_dims()
        params = init_params(32, dims)
        empty = random_trace(rng(32), dims, 0, 1, 1.0)
        for batch in ([], [empty], [empty, empty]):
            total, grads = loss_and_grads(params, batch)
            assert total == 0.0 and loss(params, batch) == 0.0
            assert all(not g.any() for g in grads.values())
        trace = random_trace(rng(33), dims, 4, 2, 1.0)
        assert loss_and_grads(params, [empty, trace, empty])[0] == loss(params, [trace])

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3), st.booleans(),
                              st.sampled_from([0.0, 1.0])), min_size=1, max_size=6),
           st.integers(0, 2**31 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_batches(self, shapes, seed, one_hot):
        dims = small_dims()
        params = init_params(seed % 1000, dims)
        r = rng(seed)
        batch = []
        for n, task, value_only, reward in shapes:
            trace = random_trace(r, dims, n, task, reward, one_hot=one_hot)
            trace.value_only = value_only
            batch.append(trace)
        assert_matches_reference(params, batch)


class TestStepWritesIntoNothingItWasGiven:
    """`_step` adds, clips and activates in place, but only on arrays it
    has just made: its inputs, the hidden rows `_unroll` passes as views
    of the previous step's output, and the parameters keep every byte."""

    @staticmethod
    def _checked_step(monkeypatch, params):
        frozen = {k: v.tobytes() for k, v in params.arrays.items()}
        step = network._step
        calls = []

        def checked(p, obs, task, h_prev, c_prev):
            given = (obs, h_prev, c_prev)
            before = [x.tobytes() for x in given]
            r = step(p, obs, task, h_prev, c_prev)
            assert [x.tobytes() for x in given] == before
            assert {k: v.tobytes() for k, v in p.arrays.items()} == frozen
            for out in (r.h, r.c, r.pi_p, r.pi_a):
                for x in (*given, *p.arrays.values()):
                    assert not np.shares_memory(out, x)
            calls.append(h_prev.ndim)
            return r

        monkeypatch.setattr(network, "_step", checked)
        return calls

    def test_forward(self, monkeypatch):
        params = init_params(50, dims_for_library(build_library("args")))
        calls = self._checked_step(monkeypatch, params)
        r = rng(50)
        H = params.dims.hidden
        obs, h, c = r.random(OBS_DIM), r.uniform(-1.0, 1.0, H), r.normal(0.0, 3.0, H)
        before = [x.tobytes() for x in (obs, h, c)]
        out = forward(params, obs, 1, HiddenState(h, c))
        assert [x.tobytes() for x in (obs, h, c)] == before
        out = forward(params, obs, 2, out.hidden)
        forward(params, obs, 3)
        assert calls == [1, 1, 1]
        for x in (out.pi_p, out.pi_a, out.hidden.h, out.hidden.c):
            for given in (obs, h, c, *params.arrays.values()):
                assert not np.shares_memory(x, given)

    def test_loss_and_loss_and_grads(self, monkeypatch):
        dims = small_dims()
        params = init_params(51, dims)
        r = rng(51)
        # Lengths 1..6: the running rows shrink, so later steps get h[:b].
        batch = [random_trace(r, dims, n, n % 4, 1.0) for n in range(1, 7)]
        saved = [[(st.obs.tobytes(), st.pi_p_mcts.tobytes(), st.pi_a_mcts.tobytes())
                  for st in tr.steps] for tr in batch]
        calls = self._checked_step(monkeypatch, params)
        loss(params, batch)
        loss_and_grads(params, batch)
        assert calls == [2] * 12
        assert saved == [[(st.obs.tobytes(), st.pi_p_mcts.tobytes(), st.pi_a_mcts.tobytes())
                          for st in tr.steps] for tr in batch]


def reference_train_step(params, opt, batch):
    """`train_step` as written before it worked in place: the textbook
    expressions, each temporary a fresh array."""
    value, grads = loss_and_grads(params, batch)
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
    norm = np.sqrt(sq)
    scale = opt.clip / norm if norm > opt.clip else 1.0
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, g in grads.items():
        g = g * scale
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        params.arrays[name] -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
    return value


class TestTrainStep:
    def test_zero_learning_rate_keeps_params(self):
        dims = small_dims()
        params = init_params(4, dims)
        before = {k: v.copy() for k, v in params.arrays.items()}
        opt = init_optimizer(params, lr=0.0)
        train_step(params, opt, [random_trace(rng(4), dims)])
        for name in before:
            assert np.array_equal(before[name], params.arrays[name])

    @pytest.mark.parametrize("clip", [-1.0, 0.0, float("nan")])
    def test_clip_must_be_positive(self, clip):
        params = init_params(4, small_dims())
        with pytest.raises(ValueError, match="clip"):
            init_optimizer(params, clip=clip)

    # A clip of 1e-3 scales every step's gradient; 1e6 never does.
    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    def test_matches_reference_bit_for_bit(self, clip):
        dims = small_dims()
        r = rng(12)
        batches = [[random_trace(r, dims, int(r.integers(1, 5)), t % 4) for t in range(3)]
                   for _ in range(2)]
        runs = []
        for step in (train_step, reference_train_step):
            params = init_params(12, dims)
            opt = init_optimizer(params, lr=1e-2, clip=clip)
            losses = [step(params, opt, batches[i % 2]) for i in range(8)]
            runs.append((losses, opt.t, [(params.arrays[n].tobytes(), opt.m[n].tobytes(),
                                          opt.v[n].tobytes()) for n in params.arrays]))
        assert runs[0] == runs[1]

    def test_loss_drops_over_100_steps(self):
        dims = small_dims()
        params = init_params(6, dims)
        opt = init_optimizer(params, lr=1e-2)
        batch = [random_trace(rng(6), dims, 2, 0, 1.0, one_hot=True)]
        first = train_step(params, opt, batch)
        losses = [train_step(params, opt, batch) for _ in range(99)]
        assert losses[-1] < first
        assert min(losses) == losses[-1] or losses[-1] < 0.9 * first

    def test_same_seed_identical_trajectory(self):
        def trajectory():
            dims = small_dims()
            params = init_params(8, dims)
            opt = init_optimizer(params)
            batch = [random_trace(rng(8), dims)]
            return [train_step(params, opt, batch) for _ in range(20)]
        assert trajectory() == trajectory()

    def test_single_trace_overfits_below_hundredth(self):
        # Uses a hotter learning rate than the training default: the
        # capability under test is gradient correctness, not the schedule.
        dims = small_dims()
        params = init_params(11, dims)
        opt = init_optimizer(params, lr=5e-3)
        batch = [random_trace(rng(11), dims, 3, 0, 1.0, one_hot=True)]
        final = None
        for i in range(2000):
            final = train_step(params, opt, batch)
            if final < 0.01:
                break
        assert final < 0.01


class TestMaskingAndGreedy:
    def setup_method(self):
        self.lib = build_library("args")
        self.env = make_env([3, 1, 2], 0, 2, 1, registry=0)
        self.feasible = feasible_pairs(self.env, 99, self.lib)

    def test_single_program_renormalizes_to_one(self):
        pi_p = np.full(12, 1 / 12)
        pi_a = np.full(64, 1 / 64)
        only_stop = self.feasible.take(
            [k for k, (s, _) in enumerate(self.feasible) if s.name == "stop"])
        mp, ma = masked_distributions(pi_p, pi_a, only_stop)
        assert mp[self.lib.index("stop")] == pytest.approx(1.0)
        assert ma[0] == pytest.approx(1.0)

    def test_uniform_over_four_tuples(self):
        pi_p = np.full(12, 1 / 12)
        pi_a = np.full(64, 1 / 64)
        four = self.feasible.take(
            [0] + [k for k, (s, _) in enumerate(self.feasible) if s.name == "save_ptr"])
        mp, ma = masked_distributions(pi_p, pi_a, four)
        live = ma[ma > 0]
        assert len(live) == 4 and np.allclose(live, 0.25)

    def test_full_support_identity(self):
        r = rng(10)
        pi_p = r.random(12)
        pi_p /= pi_p.sum()
        pi_a = r.random(64)
        pi_a /= pi_a.sum()
        all_progs = {s.name for s, _ in self.feasible}
        mp, _ = masked_distributions(pi_p, pi_a, self.feasible)
        kept = sum(pi_p[self.lib.index(n)] for n in all_progs)
        for name in all_progs:
            i = self.lib.index(name)
            assert mp[i] == pytest.approx(pi_p[i] / kept, abs=1e-9)

    def test_greedy_argmax_and_tiebreak(self):
        pi_p = np.zeros(12)
        pi_p[self.lib.index("save_ptr")] = 0.7
        pi_p[self.lib.index("stop")] = 0.2
        pi_a = np.full(64, 1 / 64)
        spec, args = greedy_select(pi_p, pi_a, self.feasible)
        assert spec.name == "save_ptr"
        assert args == (1, 0, 0)  # equal argument mass: lowest index wins

    def test_greedy_skips_infeasible_favourite(self):
        pi_p = np.zeros(12)
        pi_p[self.lib.index("pop")] = 0.9  # infeasible: stack empty
        pi_p[self.lib.index("push")] = 0.1
        pi_a = np.full(64, 1 / 64)
        spec, _ = greedy_select(pi_p, pi_a, self.feasible)
        assert spec.name == "push"

    def test_logit_shift_invariance(self):
        r = rng(12)
        lib = build_library("args")
        params = init_params(13, dims_for_library(lib))
        obs = r.random(OBS_DIM)
        out = forward(params, obs, 0)
        base = greedy_select(out.pi_p, out.pi_a, self.feasible)
        # Adding a constant to all logits rescales every probability by the
        # same factor, so softmax output and the argmax are unchanged.
        shifted_p = out.pi_p * np.exp(3.0)
        shifted_a = out.pi_a * np.exp(3.0)
        assert greedy_select(shifted_p, shifted_a, self.feasible) == base

    def test_greedy_matches_loop_reference(self):
        # The pair-by-pair selection: first most probable program in index
        # order, then its first most probable argument in feasible order.
        def reference(pi_p, pi_a, feasible, lib):
            by_prog = {}
            for spec, args in feasible:
                by_prog.setdefault(lib.index(spec.name), []).append((spec, args))
            best_p = max(sorted(by_prog), key=lambda i: pi_p[i])
            cands = by_prog[best_p]
            return cands[max(range(len(cands)),
                             key=lambda k: (pi_a[args_encode(cands[k][1])], -k))]

        r = rng(14)
        for mode in ("args", "noargs"):
            lib = build_library(mode)
            for i in range(300):
                task = TASKS[i % 4]
                env = sample_task_env(task, int(r.integers(2, 8)), r)
                feasible = feasible_pairs(env, lib.spec(task.program_name).level, lib)
                # Coarse values, so ties are common.
                pi_p = r.integers(0, 4, len(lib)) / 4.0
                pi_a = r.integers(0, 4, 64) / 4.0
                assert greedy_select(pi_p, pi_a, feasible) == \
                    reference(pi_p, pi_a, feasible, lib)

    def test_empty_feasible_rejected(self):
        with pytest.raises(ValueError):
            masked_distributions(np.ones(12), np.ones(64), [])
        with pytest.raises(ValueError):
            greedy_select(np.ones(12), np.ones(64), [])


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        lib = build_library("args")
        params = init_params(21, dims_for_library(lib))
        opt = init_optimizer(params)
        dims = params.dims
        batch = [random_trace(rng(21), dims, 2, 0, 1.0)]
        train_step(params, opt, batch)
        path = tmp_path / "model.ckpt"
        checkpoint_save(params, opt, lib.manifest(), path)
        loaded, opt2, manifest = checkpoint_load(path, expected_manifest=lib.manifest())
        obs = rng(1).random(OBS_DIM)
        a = forward(params, obs, 1)
        b = forward(loaded, obs, 1)
        assert np.array_equal(a.pi_p, b.pi_p)
        assert np.array_equal(a.pi_a, b.pi_a)
        assert a.value == b.value
        assert opt2.t == opt.t
        assert np.array_equal(opt2.m["lstm_wx"], opt.m["lstm_wx"])

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        import builtins
        import argsynth.network as network
        lib = build_library("args")
        params = init_params(22, dims_for_library(lib))
        path = tmp_path / "model.ckpt"
        checkpoint_save(params, None, lib.manifest(), path)
        old = path.read_bytes()

        class DiskFull:
            """A file whose last write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 5:
                    self.fh.write(data[:len(data) // 2])
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(network, "open",
                            lambda *a, **kw: DiskFull(builtins.open(*a, **kw)),
                            raising=False)
        newer = init_params(23, dims_for_library(lib))
        with pytest.raises(OSError, match="no space"):
            checkpoint_save(newer, None, lib.manifest(), path)
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == old
        loaded, _, _ = checkpoint_load(path, expected_manifest=lib.manifest())
        assert all(np.array_equal(loaded[n], params[n]) for n in params.arrays)

    def test_save_replaces_and_leaves_no_stray_file(self, tmp_path):
        lib = build_library("args")
        path = tmp_path / "model.ckpt"
        for seed in (24, 25):
            params = init_params(seed, dims_for_library(lib))
            checkpoint_save(params, None, lib.manifest(), path)
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
        loaded, _, _ = checkpoint_load(path)
        assert all(np.array_equal(loaded[n], params[n]) for n in params.arrays)

    def test_manifest_guard(self, tmp_path):
        lib = build_library("noargs")
        params = init_params(0, dims_for_library(lib))
        path = tmp_path / "noargs.ckpt"
        checkpoint_save(params, None, lib.manifest(), path)
        with pytest.raises(CheckpointError):
            checkpoint_load(path, expected_manifest=build_library("args").manifest())

    def test_truncated_file_rejected(self, tmp_path):
        lib = build_library("args")
        params = init_params(0, dims_for_library(lib))
        path = tmp_path / "model.ckpt"
        checkpoint_save(params, None, lib.manifest(), path)
        data = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(data[:len(data) - 4096])
        with pytest.raises(CheckpointError):
            checkpoint_load(clipped)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(CheckpointError):
            checkpoint_load(path)


BENCH_PARAMS = Path(__file__).resolve().parent.parent / "bench" / "params.ckpt"


def rewrite_header(path, edit):
    """Replace the JSON header of the checkpoint at `path` with
    `edit(header)`, keeping its payload and so its checksum."""
    raw = path.read_bytes()
    fixed = len(network.CHECKPOINT_MAGIC) + 4 + 8
    (length,) = struct.unpack_from("<Q", raw, fixed - 8)
    header = edit(json.loads(raw[fixed:fixed + length]))
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:fixed - 8] + struct.pack("<Q", len(blob)) + blob
                     + raw[fixed + length:])


def edited(header, **changes):
    return header | changes


def transpose_first_array(header):
    arrays = [dict(e) for e in header["arrays"]]
    arrays[0]["shape"] = arrays[0]["shape"][::-1]
    return edited(header, arrays=arrays)


def drop_moments(header):
    return edited(header, arrays=[e for e in header["arrays"] if "." not in e["name"]])


# Each header fault loads as a CheckpointError naming what is wrong. Before
# the header was checked, the first three raised TypeError, KeyError and
# AttributeError, and the layout faults loaded, to fail later in a matmul.
HEADER_FAULTS = {
    "extra_dims_key": (lambda h: edited(h, dims=h["dims"] | {"layers": 2}), "network dims"),
    "missing_arrays_key": (lambda h: {k: v for k, v in h.items() if k != "arrays"},
                           "corrupt header"),
    "list_header": (lambda h: [], "corrupt header"),
    "transposed_array": (transpose_first_array, "has shape"),
    "hidden_64": (lambda h: edited(h, dims=h["dims"] | {"hidden": 64}), "has shape"),
    "string_dim": (lambda h: edited(h, dims=h["dims"] | {"hidden": "8"}), "network dims"),
    "arrays_out_of_order": (lambda h: edited(h, arrays=h["arrays"][::-1]), "array table"),
    "optimizer_without_moments": (drop_moments, "array table"),
    "optimizer_missing_t": (lambda h: edited(h, optimizer={k: v for k, v in
                                                            h["optimizer"].items() if k != "t"}),
                            "optimizer header"),
}


class TestCheckpointHeader:
    def saved(self, tmp_path):
        lib = build_library("args")
        params = init_params(0, small_dims())
        path = tmp_path / "model.ckpt"
        checkpoint_save(params, init_optimizer(params), lib.manifest(), path)
        return path

    @pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
    def test_a_header_that_does_not_describe_the_payload_is_rejected(self, tmp_path, fault):
        edit, message = HEADER_FAULTS[fault]
        path = self.saved(tmp_path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=message):
            checkpoint_load(path)

    def test_an_unedited_rewrite_still_loads(self, tmp_path):
        path = self.saved(tmp_path)
        rewrite_header(path, lambda h: h)
        params, opt, _ = checkpoint_load(path)
        assert params.dims == small_dims() and opt.t == 0

    def test_the_benchmark_parameter_file_loads(self):
        params, opt, manifest = checkpoint_load(
            BENCH_PARAMS, expected_manifest=build_library("args").manifest())
        assert opt is None and params.dims == dims_for_library(build_library("args"))
