"""Recurrent policy/value network with hand-derived gradients.

Six blocks: a two-layer ReLU encoder over the observation, a learned
program-embedding matrix indexed by the task being executed, an LSTM core,
and three heads (program softmax, argument softmax, logistic value). The
graph is fixed, so the backward pass is written out by hand and validated
against central differences; no autodiff framework is involved.

A step splits into an input half, the LSTM cell `_cell`, the policy heads
`_heads` and a value head (`_step`); search, greedy play and training all
run that one cell, and search and training those heads. A greedy step
chooses on the logits instead (`greedy_select`). Training packs a batch
into step-major rows (`_unroll`): each layer runs once over all rows, and
only the cell is stepped in time. Its sums are taken in another order than a step-by-step
or trace-by-trace loop's, so the loss agrees with such a loop within 1e-12
relative and each gradient within 1e-10 relative, not bit for bit; run to
run it is byte-reproducible.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .env import OBS_DIM
from .programs import ARG_SPACE, ArgTuple, FeasibleSet, ProgramLibrary, ProgramSpec

LOG_CLAMP = 1e-12

CHECKPOINT_MAGIC = b"ARGSYNC1"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Corrupt, truncated, or incompatible checkpoint file."""


@dataclass(frozen=True)
class NetworkDims:
    """Layer sizes; `programs` must match the library manifest."""

    programs: int
    obs: int = OBS_DIM
    enc: int = 64
    embed: int = 32
    hidden: int = 128
    args: int = ARG_SPACE
    tasks: int = 4


class HiddenState(NamedTuple):
    h: np.ndarray
    c: np.ndarray


class PolicyOutput(NamedTuple):
    pi_p: np.ndarray
    pi_a: np.ndarray
    value: float
    hidden: HiddenState


@dataclass
class ParameterSet:
    dims: NetworkDims
    arrays: dict[str, np.ndarray]

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.arrays.items()}

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.dims, {k: v.copy() for k, v in self.arrays.items()})


def _shapes(d: NetworkDims) -> dict[str, tuple[int, ...]]:
    x_in = d.enc + d.embed
    return {
        "enc_w1": (d.obs, d.enc), "enc_b1": (d.enc,),
        "enc_w2": (d.enc, d.enc), "enc_b2": (d.enc,),
        "prog_embed": (d.tasks, d.embed),
        "lstm_wx": (x_in, 4 * d.hidden), "lstm_wh": (d.hidden, 4 * d.hidden),
        "lstm_b": (4 * d.hidden,),
        "prog_w": (d.hidden, d.programs), "prog_b": (d.programs,),
        "arg_w": (d.hidden, d.args), "arg_b": (d.args,),
        "value_w": (d.hidden,), "value_b": (1,),
    }


# Parameter array names in the order of `_shapes`; initialization draws,
# checkpoints and the optimizer iterate in exactly this order.
PARAM_LAYOUT = tuple(_shapes(NetworkDims(programs=1)))


def init_params(seed: int, dims: NetworkDims) -> ParameterSet:
    """Seed-deterministic init: weights uniform within 1/sqrt(fan-in),
    biases zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _shapes(dims).items():
        if name.endswith(("_b", "_b1", "_b2")):
            arrays[name] = np.zeros(shape, dtype=np.float64)
            continue
        fan_in = shape[0]
        if name == "prog_embed":
            fan_in = dims.embed
        bound = 1.0 / np.sqrt(fan_in)
        arrays[name] = rng.uniform(-bound, bound, size=shape).astype(np.float64)
    return ParameterSet(dims, arrays)


def dims_for_library(lib: ProgramLibrary) -> NetworkDims:
    return NetworkDims(programs=len(lib), tasks=len(lib.learned))


def zero_hidden(dims: NetworkDims) -> HiddenState:
    return HiddenState(np.zeros(dims.hidden), np.zeros(dims.hidden))


def _softmax_in_place(z: np.ndarray) -> None:
    """Softmax over the last axis, written over the logits `z`.

    `np.maximum.reduce` and `np.add.reduce` are the ufuncs that `.max()`
    and `.sum()` run, called without the methods' argument handling: the
    same bits at less cost on the one-vector step."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class _Step(NamedTuple):
    """Outputs of one network step: vectors for one trace, or one row per
    input."""

    h: np.ndarray
    c: np.ndarray
    pi_p: np.ndarray
    pi_a: np.ndarray
    value: np.ndarray


def input_half(params: ParameterSet, obs: np.ndarray, task: int | np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first piece of `_step`: the encoder, the task's embedding and
    `x @ lstm_wx`. Returns (a1, x, u); u depends on the observation and
    the task alone, not on the hidden state."""
    a = params.arrays
    a1 = obs @ a["enc_w1"]
    a1 += a["enc_b1"]
    np.maximum(a1, 0.0, out=a1)
    s = a1 @ a["enc_w2"]
    s += a["enc_b2"]
    np.maximum(s, 0.0, out=s)
    x = np.concatenate([s, a["prog_embed"][task]], axis=-1)
    return a1, x, x @ a["lstm_wx"]


def _cell(params: ParameterSet, z: np.ndarray, c_prev: Optional[np.ndarray],
          c: Optional[np.ndarray] = None, h: Optional[np.ndarray] = None) -> tuple:
    """The LSTM cell on the pre-activation `z` ([..., 4 hidden], bias not
    yet added), in place: the bias, the clip, then one sigmoid pass over
    the gate blocks i, f, g, o, the g block then overwritten with its tanh.
    Returns (c, h), written into `c` and `h` when given; `c_prev` None is
    the zero cell state. An elementwise operation rounds each entry the
    same whether it writes a new array or an old one, and each runs in the
    order of the plain expressions, so working in place gives the same
    bits. IEEE addition commutes, signed zeros included, so `i*g + f*c_prev`
    is `f*c_prev + i*g` to the bit."""
    H = params.dims.hidden
    z += params.arrays["lstm_b"]
    # Clipping below at -500 keeps exp(-z) finite. No upper clip is needed:
    # sigmoid and tanh round to exactly 1 from z = 37 on.
    np.maximum(z, -500.0, out=z)
    gg = z[..., 2 * H:3 * H]
    tanh_g = np.tanh(gg)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    gg[...] = tanh_g
    c = np.multiply(z[..., :H], gg, out=c)
    if c_prev is not None:
        c += z[..., H:2 * H] * c_prev
    h = np.tanh(c, out=h)
    h *= z[..., 3 * H:]
    return c, h


def _logits(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A policy head's logits, `h @ w + b`, in a new array."""
    z = h @ w
    z += b
    return z


def _heads(params: ParameterSet, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The program and argument softmax heads: (pi_p, pi_a)."""
    a = params.arrays
    pi_p = _logits(h, a["prog_w"], a["prog_b"])
    _softmax_in_place(pi_p)
    pi_a = _logits(h, a["arg_w"], a["arg_b"])
    _softmax_in_place(pi_a)
    return pi_p, pi_a


def recurrent_half(params: ParameterSet, u: np.ndarray, h_prev: np.ndarray,
                    c_prev: np.ndarray) -> tuple[np.ndarray, ...]:
    """The second piece of `_step`: `h_prev @ lstm_wh + u`, `_cell` and
    `_heads`. Returns (h, c, pi_p, pi_a); writes into none of its inputs."""
    z = h_prev @ params.arrays["lstm_wh"]
    z += u
    c, h = _cell(params, z, c_prev)
    return (h, c) + _heads(params, h)


def value_head(params: ParameterSet, h: np.ndarray) -> np.ndarray:
    """The third piece of `_step`: the logistic value of the hidden state."""
    a = params.arrays
    return _sigmoid(np.maximum(h @ a["value_w"] + a["value_b"][0], -500.0))


def _step(params: ParameterSet, obs: np.ndarray, task: int | np.ndarray,
          h_prev: np.ndarray, c_prev: np.ndarray) -> _Step:
    """The network on one observation (obs [obs], an int task, h/c
    [hidden]) or on b rows at once (obs [b, obs], task [b], h/c
    [b, hidden]). Rows go through matrix products and a vector through
    matrix-vector products, so a row can differ in its last bits from the
    same input run alone.

    The step is three pieces, called in turn: the input half
    (`input_half`: the encoder and `u = x @ lstm_wx`), which depends only
    on the observation and the task; the recurrent half (`recurrent_half`:
    `z = h_prev @ lstm_wh`, then `z += u`, the cell `_cell` and the policy
    heads `_heads`); and the value head (`value_head`). Greedy execution
    keeps input halves to reuse, runs the same sums and `_cell` itself,
    and chooses on the logits (`greedy_select`), never calling the value
    head. The pre-activation is summed as `(h_prev @ lstm_wh + u) + lstm_b`; IEEE
    addition commutes, so that is the same bits as
    `(x @ lstm_wx + h_prev @ lstm_wh) + lstm_b`. The adds, clips and
    activations work in place on arrays this step has just made, never on
    its inputs or the parameters."""
    u = input_half(params, obs, task)[2]
    h, c, pi_p, pi_a = recurrent_half(params, u, h_prev, c_prev)
    return _Step(h, c, pi_p, pi_a, value_head(params, h))


def forward(params: ParameterSet, obs: np.ndarray, task_index: int,
            hidden: Optional[HiddenState] = None) -> PolicyOutput:
    """One deterministic step of the network; returns policies, value and
    the next hidden state."""
    d = params.dims
    if obs.shape != (d.obs,):
        raise ValueError(f"observation shape {obs.shape} != ({d.obs},)")
    if not (0 <= task_index < d.tasks):
        raise ValueError(f"task index {task_index} outside [0, {d.tasks})")
    h_prev, c_prev = zero_hidden(d) if hidden is None else hidden
    r = _step(params, obs, task_index, h_prev, c_prev)
    return PolicyOutput(r.pi_p, r.pi_a, float(r.value), HiddenState(r.h, r.c))


def forward_rows(params: ParameterSet, obs: Sequence[np.ndarray],
                 task_index: Sequence[int], hidden: Sequence[HiddenState]
                 ) -> list[PolicyOutput]:
    """`forward` on b inputs at once, as the rows of one network step.

    A row can differ from `forward` on the same input in its last bits
    (see `_step`). Each row's hidden state is copied out of the step's
    arrays, so that keeping one does not keep the whole batch."""
    d = params.dims
    x = np.array(obs)
    if x.shape != (len(obs), d.obs):
        raise ValueError(f"observation rows {x.shape} != ({len(obs)}, {d.obs})")
    task = np.array(task_index, dtype=np.intp)
    if task.shape != (len(obs),) or not ((0 <= task) & (task < d.tasks)).all():
        raise ValueError(f"task indices {task_index} not {len(obs)} values in [0, {d.tasks})")
    r = _step(params, x, task, np.array([hs.h for hs in hidden]),
              np.array([hs.c for hs in hidden]))
    return [PolicyOutput(r.pi_p[i], r.pi_a[i], float(r.value[i]),
                         HiddenState(r.h[i].copy(), r.c[i].copy()))
            for i in range(len(x))]


# ---------------------------------------------------------------------------
# Training: the batch packed into step-major rows, only the cell stepped in time


def step_loss_terms(pi_p: np.ndarray, pi_a: np.ndarray, value: np.ndarray,
                    pi_p_target: np.ndarray, pi_a_target: np.ndarray,
                    reward: np.ndarray) -> np.ndarray:
    """Per-step objective of each row: two cross-entropies plus the squared
    value error where the trace's reward is 1, the squared value error
    alone where it is not."""
    sq = (value - reward) ** 2
    ce_p = -(pi_p_target * np.log(np.maximum(pi_p, LOG_CLAMP))).sum(axis=1)
    ce_a = -(pi_a_target * np.log(np.maximum(pi_a, LOG_CLAMP))).sum(axis=1)
    return np.where(reward == 1, ce_p + ce_a + sq, sq)


def _unroll(params: ParameterSet, batch: Sequence) -> Optional[tuple]:
    """Run the batch forward as packed rows; None when it holds no step.

    Traces are sorted by length, longest first (a stable sort), so the
    traces still running at step t are the first b_t of them. Rows are
    step-major, b_0 rows of step 0, then b_1 of step 1, and so on: no
    padding and no mask. Every trace starts from the zero hidden state.
    The input half runs once over all rows; per step only `h_prev @
    lstm_wh` and `_cell` run, on that step's rows; the heads, the value
    head and the loss terms then run once over all rows. Returns (widths
    b_t, obs, task, reward, pi_p targets, pi_a targets, a1, x, gates, h, c,
    pi_p, pi_a, value, row losses), all but the widths one row per row;
    `gates` holds `x @ lstm_wx`, then the gates i, f, g, o in column blocks.
    """
    a, d = params.arrays, params.dims
    H = d.hidden
    traces = sorted(batch, key=lambda tr: len(tr.steps), reverse=True)
    task = np.array([tr.task_index for tr in traces], dtype=np.intp)
    if task.size and not (0 <= task.min() and task.max() < d.tasks):
        raise ValueError(f"task index outside [0, {d.tasks})")
    lengths = np.array([len(tr.steps) for tr in traces], dtype=np.intp)
    widths = (lengths[:, None] > np.arange(lengths.max(initial=0))).sum(axis=0).tolist()
    steps = [tr.steps[t] for t, b in enumerate(widths) for tr in traces[:b]]
    if not steps:
        return None
    obs = np.array([st.obs for st in steps])
    if obs.shape != (len(steps), d.obs):
        raise ValueError(f"observation rows {obs.shape} != ({len(steps)}, {d.obs})")
    trace = np.arange(len(steps)) - np.repeat(np.cumsum(widths) - widths, widths)
    reward = np.array([tr.reward for tr in traces], dtype=np.float64)[trace]
    a1, x, gates = input_half(params, obs, task[trace])
    h, c = np.empty((len(steps), H)), np.empty((len(steps), H))
    o = p = 0
    for t, b in enumerate(widths):
        z = gates[o:o + b]
        if t:
            z += h[p:p + b] @ a["lstm_wh"]
        _cell(params, z, c[p:p + b] if t else None, c[o:o + b], h[o:o + b])
        p, o = o, o + b
    pi_p, pi_a = _heads(params, h)
    value = value_head(params, h)
    tp = np.array([st.pi_p_mcts for st in steps])
    ta = np.array([st.pi_a_mcts for st in steps])
    return (widths, obs, task[trace], reward, tp, ta, a1, x, gates, h, c, pi_p, pi_a, value,
            step_loss_terms(pi_p, pi_a, value, tp, ta, reward))


def _ce_dlogits(pi: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Entries clamped by LOG_CLAMP are constants of the logits, so their
    # target terms drop out of the gradient.
    t_live = np.where(pi >= LOG_CLAMP, target, 0.0)
    return pi * t_live.sum(axis=1, keepdims=True) - t_live


def loss(params: ParameterSet, batch: Sequence) -> float:
    """Summed loss over a batch of traces.

    The batch runs as packed rows (`_unroll`): sorted by trace length,
    longest first (stable), step-major, each layer once over all rows and
    only the LSTM cell stepped in time. Hidden states are recomputed from
    zero along each trace's stored observations; the snapshots saved in
    traces are never fed back in, because they go stale as parameters
    move. Only traces of reward 1 add policy terms (`step_loss_terms`).
    The rows are summed in one pass, so the loss can differ in its last
    bits (within 1e-12 relative) from a sum step by step or trace by trace.
    """
    run = _unroll(params, batch)
    return 0.0 if run is None else float(run[-1].sum())


def loss_and_grads(params: ParameterSet, batch: Sequence) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact gradients via backpropagation through time.

    Packed as in `loss`, so the loss equals `loss(params, batch)` exactly.
    The heads' gradients and their `dh` take one pass over all rows; rows
    whose reward is not 1 have zero logit gradients. Then, last step first,
    only the cell's backward runs per step: `dc`, the gate gradients
    (written over the gates) and `dh_prev += dgates @ lstm_wh.T`. Each
    weight gradient of the LSTM, the embedding and the encoder is then one
    product over all rows, so it can differ in its last bits (within 1e-10
    relative) from a sum step by step or trace by trace.
    """
    a, d = params.arrays, params.dims
    H = d.hidden
    run = _unroll(params, batch)
    if run is None:
        return 0.0, params.zeros_like()
    widths, obs, task, reward, tp, ta, a1, x, gates, h, c, pi_p, pi_a, v, terms = run
    dlog_p = _ce_dlogits(pi_p, tp)
    dlog_a = _ce_dlogits(pi_a, ta)
    dlog_p[reward != 1] = 0.0
    dlog_a[reward != 1] = 0.0
    dv = 2.0 * (v - reward) * v * (1.0 - v)
    grads = dict.fromkeys(a)  # in parameter order, which `train_step` sums in
    grads.update(prog_w=h.T @ dlog_p, prog_b=dlog_p.sum(axis=0), arg_w=h.T @ dlog_a,
                 arg_b=dlog_a.sum(axis=0), value_w=dv @ h, value_b=dv.sum(keepdims=True))
    dh = dlog_p @ a["prog_w"].T
    dh += dlog_a @ a["arg_w"].T
    dh += dv[:, None] * a["value_w"]
    total = float(terms.sum())
    del run, pi_p, pi_a, tp, ta, dlog_p, dlog_a, terms  # lowers the peak memory
    # The factors of the cell's backward that the forward pass fixes, over
    # all rows at once, each gate's written over it: per step, dc = dh *
    # k_c + dc_next, and the gates' gradients are their factors times dc
    # (times dh for o).
    b0 = widths[0]
    prev = np.arange(b0, len(h)) - np.repeat(widths[:-1], widths[1:]).astype(np.intp)
    g4 = gates.reshape(len(h), 4, H)
    gi, gf, gg, go = g4.transpose(1, 0, 2)
    forget = gf.copy()
    gf *= 1.0 - gf
    gf[:b0] = 0.0  # c_prev is zero
    gf[b0:] *= c[prev]
    tanh_c = np.tanh(c, out=c)
    k_c = go * (1.0 - tanh_c ** 2)
    go *= 1.0 - go
    go *= tanh_c
    k_g = np.multiply(gi, 1.0 - gg ** 2, out=c)  # c is read no more
    gi *= 1.0 - gi
    gi *= gg
    gg[...] = k_g
    dc_next = np.zeros((b0, H))
    o = len(h)
    for t in range(len(widths) - 1, -1, -1):
        b = widths[t]
        o -= b
        dc = dh[o:o + b] * k_c[o:o + b]
        dc += dc_next[:b]
        g4[o:o + b, :3] *= dc[:, None]
        g4[o:o + b, 3] *= dh[o:o + b]
        if t:
            np.multiply(dc, forget[o:o + b], out=dc_next[:b])
            p = o - widths[t - 1]
            dh[p:p + b] += gates[o:o + b] @ a["lstm_wh"].T
    del dh, k_c, forget
    dx = gates @ a["lstm_wx"].T
    dz2 = dx[:, :d.enc] * (x[:, :d.enc] > 0)
    dz1 = dz2 @ a["enc_w2"].T
    dz1 *= a1 > 0
    grads.update(lstm_wx=x.T @ gates, lstm_wh=h[prev].T @ gates[b0:],
                 lstm_b=gates.sum(axis=0), prog_embed=np.eye(d.tasks)[task].T @ dx[:, d.enc:],
                 enc_w2=a1.T @ dz2, enc_b2=dz2.sum(axis=0),
                 enc_w1=obs.T @ dz1, enc_b1=dz1.sum(axis=0))
    return total, grads


def finite_diff_check(params: ParameterSet, batch: Sequence, h: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference
    gradients over every parameter entry.

    The denominator floor absorbs the difference scheme's own float64
    noise (about eps*|loss|/h, i.e. ~1e-9 here) on near-zero gradients;
    real gradients sit orders of magnitude above it.
    """
    _, grads = loss_and_grads(params, batch)
    worst = 0.0
    for name in PARAM_LAYOUT:
        arr = params.arrays[name]
        g = grads[name]
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss(params, batch)
            flat[i] = orig - h
            down = loss(params, batch)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            denom = max(abs(fd) + abs(gflat[i]), 1e-4)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip: float = 1.0
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # Per-parameter work arrays of `train_step`, kept between steps; not state.
    buf: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)


def init_optimizer(params: ParameterSet, lr: float = 1e-4, clip: float = 1.0) -> AdamState:
    """Fresh Adam state; `clip` bounds the global gradient norm and must be
    positive (a negative bound would turn every update into ascent)."""
    if not clip > 0.0:
        raise ValueError(f"gradient clip must be > 0, got {clip}")
    state = AdamState(lr=lr, clip=clip)
    state.m = params.zeros_like()
    state.v = params.zeros_like()
    return state


def train_step(params: ParameterSet, opt: AdamState, batch: Sequence) -> float:
    """One clipped Adam update on the batch loss; returns the loss value."""
    value, grads = loss_and_grads(params, batch)
    if not np.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value}")
    sq = 0.0
    for g in grads.values():
        sq += float((g * g).sum())
        if not np.isfinite(sq):
            raise FloatingPointError("non-finite gradient")
    norm = np.sqrt(sq)
    scale = opt.clip / norm if norm > opt.clip else 1.0
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    # In place, in the order of the textbook expressions:
    #   m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
    #   p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps).
    # `g` is this step's own array and becomes the denominator once m and v
    # have it.
    for name, g in grads.items():
        if scale != 1.0:
            g *= scale
        m = opt.m[name]
        v = opt.v[name]
        buf = opt.buf.get(name)
        if buf is None:
            buf = opt.buf[name] = np.empty_like(g)
        m *= opt.beta1
        m += np.multiply(g, 1.0 - opt.beta1, out=buf)
        v *= opt.beta2
        np.multiply(g, 1.0 - opt.beta2, out=buf)
        v += np.multiply(buf, g, out=buf)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += opt.eps
        np.divide(m, bc1, out=buf)
        buf *= opt.lr
        buf /= g
        params.arrays[name] -= buf
    return value


# ---------------------------------------------------------------------------
# Masking and greedy selection


def masked_distributions(pi_p: np.ndarray, pi_a: np.ndarray,
                         feasible: FeasibleSet) -> tuple[np.ndarray, np.ndarray]:
    """Restrict both policies to the feasible supports and renormalize.

    A zero masked mass (every feasible entry starved) falls back to
    uniform over the support so the search always has a usable prior. A
    NaN mass is not zero: it stays NaN, so that the search's own check
    (`search.joint_prior`) rejects the network's output.
    """
    return _masked(pi_p, feasible.prog_mask), _masked(pi_a, feasible.arg_mask)


def _masked(pi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.where(mask, pi, 0.0)
    total = np.add.reduce(out)
    if total == 0:
        out[mask] = 1.0 / np.count_nonzero(mask)
    else:
        out /= total
    return out


def _clear_argmax(z: np.ndarray, candidates: np.ndarray) -> Optional[int]:
    """Position in `candidates` of the greatest of the logits z[candidates],
    when the softmax of `z` surely ranks that entry above the others too.
    None when it may not: a logit of `z` is not finite, another candidate
    lies within 1e-12 (1 + max|z|) of the best, or the best lies more than
    700 below max z, where exp underflows. Outside these cases the best's
    exp exceeds any other candidate's by a relative 1e-12, far beyond the
    rounding of the softmax's subtraction, exp and division.

    The logits are read as Python floats: on a head of 12 or 64 entries
    that costs less than numpy's reductions. A NaN or an infinity makes
    their sum non-finite (so does a sum that overflows, which only sends
    the choice to the probabilities)."""
    v = z.tolist()
    if not math.isfinite(sum(v)):
        return None
    hi, lo = max(v), min(v)
    c = z[candidates].tolist()
    best = max(c)
    k = c.index(best)
    c[k] = -math.inf
    if best < hi - 700.0 or max(c) >= best - 1e-12 * (1.0 + max(hi, -lo)):
        return None
    return k


def argument_logits_finite(params: ParameterSet) -> bool:
    """Whether every argument logit `h @ arg_w + arg_b` is finite for every
    h with |h| <= 1, which every LSTM output that is not NaN has: each
    column's sum of |arg_w| plus max |arg_b| is below 1e300."""
    a = params.arrays
    with np.errstate(over="ignore"):  # a sum that overflows fails the bound
        bound = (np.add.reduce(np.abs(a["arg_w"]), axis=0)
                 + np.maximum.reduce(np.abs(a["arg_b"])))
    return bool((bound < 1e300).all())


def greedy_select(params: ParameterSet, h: np.ndarray, feasible: FeasibleSet,
                  logits: list, args_finite: bool
                  ) -> Optional[tuple[ProgramSpec, ArgTuple]]:
    """The greedy choice from the LSTM output `h`: the most probable feasible
    program, then its most probable argument tuple, ties broken toward the
    lowest index; None when the network's probabilities of that choice are
    not finite.

    It picks on the logits and normalises nothing. The program logits are
    `logits[0]` and the argument logits `logits[1]`; each is computed from
    `h` as `_heads` computes it (`_logits`) and written there when it is
    None, and only when it is read. The argument logits are read when the
    chosen program has more than one feasible row, or when `args_finite`
    (`argument_logits_finite`) is false, so that a non-finite one is seen.
    When a choice on the logits may differ from one on the probabilities
    (`_clear_argmax`), it is made on the probabilities of both softmax
    heads (`_heads`) instead."""
    a = params.arrays
    progs = feasible.prog_support
    if logits[0] is None:
        logits[0] = _logits(h, a["prog_w"], a["prog_b"])
    k = _clear_argmax(logits[0], progs)
    if k is not None:
        rows, args = feasible.rows_of[int(progs[k])]
        if len(rows) == 1 and args_finite:
            return feasible[rows[0]]
        if logits[1] is None:
            logits[1] = _logits(h, a["arg_w"], a["arg_b"])
        j = _clear_argmax(logits[1], args)
        if j is not None:
            return feasible[rows[j]]
    pi_p, pi_a = _heads(params, h)
    rows, args = feasible.rows_of[int(progs[pi_p[progs].argmax()])]
    row = rows[pi_a[args].argmax()]
    # argmax takes the first NaN it meets, so a NaN that could have steered
    # the choice is in the chosen entries.
    if not (math.isfinite(pi_p[feasible.prog_idx[row]])
            and math.isfinite(pi_a[feasible.arg_idx[row]])):
        return None
    return feasible[row]


# ---------------------------------------------------------------------------
# Checkpoints


_HEADER_KEYS = frozenset({"manifest", "dims", "arrays", "optimizer", "payload_sha256"})
_OPTIMIZER_KEYS = frozenset({"lr", "beta1", "beta2", "eps", "clip", "t"})


def checkpoint_save(params: ParameterSet, opt: Optional[AdamState],
                    manifest: dict, path) -> None:
    """Versioned binary container: JSON header + little-endian float64
    payload with a content checksum.

    The file is written beside `path`, synced, and renamed over it, so
    `path` holds either the old checkpoint or the whole new one."""
    ordered: list[tuple[str, np.ndarray]] = [(n, params.arrays[n]) for n in PARAM_LAYOUT]
    opt_header = None
    if opt is not None:
        opt_header = {k: getattr(opt, k) for k in _OPTIMIZER_KEYS}
        ordered += [("m." + n, opt.m[n]) for n in PARAM_LAYOUT]
        ordered += [("v." + n, opt.v[n]) for n in PARAM_LAYOUT]
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in ordered)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "manifest": manifest,
        "dims": asdict(params.dims),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in ordered],
        "optimizer": opt_header,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _checked_layout(path, header: dict, expected_manifest: Optional[dict]) -> NetworkDims:
    """The header's network dims, once its `dims`, `optimizer` and `arrays`
    describe exactly what `checkpoint_save` writes for them: every
    `NetworkDims` field a positive integer, the arrays in `PARAM_LAYOUT`
    order (then `m.` and `v.` of each with an optimizer), each of the shape
    `_shapes(dims)` gives it. The dims must also fit this build: `obs` and
    `args` those of the environment and the argument space and, with an
    expected manifest, `programs` and `tasks` its program and learned-program
    counts."""
    doc = header["dims"]
    known = {f.name for f in fields(NetworkDims)}
    if not isinstance(doc, dict) or doc.keys() != known or not all(
            type(v) is int and v > 0 for v in doc.values()):
        raise CheckpointError(f"{path}: bad network dims {doc!r} (need a positive "
                              f"integer for each of {', '.join(sorted(known))})")
    dims = NetworkDims(**doc)
    need = {"obs": OBS_DIM, "args": ARG_SPACE}
    if expected_manifest is not None:
        progs = expected_manifest["programs"]
        need |= {"programs": len(progs),
                 "tasks": sum(p["kind"] == "learned" for p in progs)}
    wrong = {k: doc[k] for k in need if doc[k] != need[k]}
    if wrong:
        raise CheckpointError(f"{path}: network dims {wrong} do not fit this build "
                              f"(it needs {need})")
    opt = header["optimizer"]
    if opt is not None and not (isinstance(opt, dict) and opt.keys() == _OPTIMIZER_KEYS):
        raise CheckpointError(f"{path}: bad optimizer header {opt!r}")
    names = list(PARAM_LAYOUT)
    if opt is not None:
        names += [p + n for p in ("m.", "v.") for n in PARAM_LAYOUT]
    entries = header["arrays"]
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)
            and [e.get("name") for e in entries] == names):
        raise CheckpointError(f"{path}: array table does not list {', '.join(names)}")
    shapes = _shapes(dims)
    for entry in entries:
        want = list(shapes[entry["name"].rpartition(".")[2]])
        if entry.get("shape") != want:
            raise CheckpointError(f"{path}: array {entry['name']} has shape "
                                  f"{entry.get('shape')!r}, the dims give {want}")
    return dims


def checkpoint_load(path, expected_manifest: Optional[dict] = None
                    ) -> tuple[ParameterSet, Optional[AdamState], dict]:
    """Load and verify a checkpoint; rejects corruption, a header that does
    not describe the payload, and manifest mismatches."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fixed = len(CHECKPOINT_MAGIC) + 4 + 8
    if len(raw) < fixed or raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC) + 4)
    if len(raw) < fixed + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[fixed:fixed + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not (isinstance(header, dict) and _HEADER_KEYS <= header.keys()
            and isinstance(header["manifest"], dict)):
        raise CheckpointError(f"{path}: corrupt header: not an object with the keys "
                              f"{', '.join(sorted(_HEADER_KEYS))}")
    payload = raw[fixed + header_len:]
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch (corrupt or truncated)")
    if expected_manifest is not None and header["manifest"] != expected_manifest:
        got = header["manifest"].get("mode", "<missing>")
        want = expected_manifest.get("mode", "<missing>")
        raise CheckpointError(
            f"{path}: checkpoint library (mode={got!r}) does not match the "
            f"configured library (mode={want!r})"
            if got != want else
            f"{path}: checkpoint program table (mode={got!r}) differs from this build"
        )
    dims = _checked_layout(path, header, expected_manifest)
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated payload")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).copy()
        arrays[entry["name"]] = arr.reshape(shape)
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} payload bytes "
                              f"beyond the arrays the header lists")
    params = ParameterSet(dims, {n: arrays[n] for n in PARAM_LAYOUT})
    opt = None
    if header["optimizer"] is not None:
        # `_checked_layout` has held its keys to `_OPTIMIZER_KEYS`.
        opt = AdamState(**header["optimizer"])
        opt.m = {n: arrays["m." + n] for n in PARAM_LAYOUT}
        opt.v = {n: arrays["v." + n] for n in PARAM_LAYOUT}
    return params, opt, header["manifest"]
