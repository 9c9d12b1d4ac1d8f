"""Recurrent policy/value network with hand-derived gradients.

Six blocks: a two-layer ReLU encoder over the observation, a learned
program-embedding matrix indexed by the task being executed, an LSTM core,
and three heads (program softmax, argument softmax, logistic value). The
graph is fixed, so the backward pass is written out by hand and validated
against central differences; no autodiff framework is involved.
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, NamedTuple, Optional, Sequence

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

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

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


def dims_for_library(lib: ProgramLibrary, **overrides) -> NetworkDims:
    return NetworkDims(programs=len(lib), tasks=len(lib.learned), **overrides)


def zero_hidden(dims: NetworkDims) -> HiddenState:
    return HiddenState(np.zeros(dims.hidden), np.zeros(dims.hidden))


def _softmax_in_place(z: np.ndarray) -> None:
    """Softmax over the last axis, written over the logits `z`."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class _Step(NamedTuple):
    """Activations of one network step: vectors for one trace, or one row
    per running trace. The encoder output is `x[..., :enc]`, and `tanh(c)`
    is recomputed where it is needed, so that the tape the backward pass
    reads stays small."""

    a1: np.ndarray
    x: np.ndarray
    gi: np.ndarray
    gf: np.ndarray
    gg: np.ndarray
    go: np.ndarray
    h: np.ndarray
    c: np.ndarray
    pi_p: np.ndarray
    pi_a: np.ndarray
    value: np.ndarray


def _step(params: ParameterSet, obs: np.ndarray, task: int | np.ndarray,
          h_prev: np.ndarray, c_prev: np.ndarray) -> _Step:
    """The network on one observation (obs [obs], an int task, h/c
    [hidden]) or on b rows at once (obs [b, obs], task [b], h/c
    [b, hidden]). Rows go through matrix products and a vector through
    matrix-vector products, so a row can differ in its last bits from the
    same input run alone.

    The adds, clips and activations work in place on arrays this step has
    just made, never on its inputs or the parameters. An elementwise
    operation rounds each entry the same whether it writes a new array or
    an old one, and every operation here runs in the order of the plain
    expressions, so the results are the same bits. One sigmoid pass covers
    all four gate blocks; the g-block is then overwritten with its tanh.
    The activations are stored block by block, so that each gate is a
    contiguous array for the elementwise work of the backward pass."""
    a = params.arrays
    H = params.dims.hidden
    a1 = obs @ a["enc_w1"]
    a1 += a["enc_b1"]
    np.maximum(a1, 0.0, out=a1)
    s = a1 @ a["enc_w2"]
    s += a["enc_b2"]
    np.maximum(s, 0.0, out=s)
    x = np.concatenate([s, a["prog_embed"][task]], axis=-1)
    # Clipping below at -500 keeps exp(-z) finite. No upper clip is needed:
    # sigmoid and tanh round to exactly 1 from z = 37 on.
    z = x @ a["lstm_wx"]
    z += h_prev @ a["lstm_wh"]
    z += a["lstm_b"]
    np.maximum(z, -500.0, out=z)
    # [4, ..., hidden]: the gate blocks i, f, g, o first.
    z = z.reshape(*z.shape[:-1], 4, H).swapaxes(0, -2)
    gates = np.negative(z, out=np.empty(z.shape))
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    gi, gf, gg, go = gates
    np.tanh(z[2], out=gg)
    c = gf * c_prev
    c += gi * gg
    h = np.tanh(c)
    h *= go
    pi_p = h @ a["prog_w"]
    pi_p += a["prog_b"]
    _softmax_in_place(pi_p)
    pi_a = h @ a["arg_w"]
    pi_a += a["arg_b"]
    _softmax_in_place(pi_a)
    value = _sigmoid(np.maximum(h @ a["value_w"] + a["value_b"][0], -500.0))
    return _Step(a1, x, gi, gf, gg, go, h, c, pi_p, pi_a, value)


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
# Training: the batch packed into rows, one batched step per time step


def step_loss_terms(pi_p: np.ndarray, pi_a: np.ndarray, value: np.ndarray,
                    pi_p_target: np.ndarray, pi_a_target: np.ndarray,
                    reward: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """Per-step objective of each row: two cross-entropies plus the squared
    value error. Rows whose `policy` mask is False (value-only traces) keep
    only the squared value error."""
    sq = (value - reward) ** 2
    ce_p = -(pi_p_target * np.log(np.maximum(pi_p, LOG_CLAMP))).sum(axis=1)
    ce_a = -(pi_a_target * np.log(np.maximum(pi_a, LOG_CLAMP))).sum(axis=1)
    return np.where(policy, ce_p + ce_a + sq, sq)


def _unroll(params: ParameterSet, batch: Sequence) -> Iterator[tuple]:
    """Run the batch forward one time step at a time, all traces at once.

    Traces are sorted by length, longest first (a stable sort), so the
    traces still running at step t are the first b_t rows: no padding and
    no mask on the recurrence. Every trace starts from the zero hidden
    state. Yields, per step, for its b_t rows: (obs, task, reward, policy
    mask, h_prev, c_prev, pi_p targets, pi_a targets, `_Step`, row losses).
    """
    d = params.dims
    traces = sorted(batch, key=lambda tr: len(tr.steps), reverse=True)
    lengths = [len(tr.steps) for tr in traces]
    task = np.array([tr.task_index for tr in traces], dtype=np.intp)
    if task.size and not (0 <= task.min() and task.max() < d.tasks):
        raise ValueError(f"task index outside [0, {d.tasks})")
    reward = np.array([tr.reward for tr in traces], dtype=np.float64)
    policy = np.array([not getattr(tr, "value_only", False) for tr in traces], dtype=bool)
    h = c = np.zeros((len(traces), d.hidden))
    b = len(traces)
    for t in range(lengths[0] if traces else 0):
        while lengths[b - 1] <= t:
            b -= 1
        steps = [tr.steps[t] for tr in traces[:b]]
        obs = np.array([st.obs for st in steps])
        if obs.shape != (b, d.obs):
            raise ValueError(f"observation rows {obs.shape} != ({b}, {d.obs})")
        tp = np.array([st.pi_p_mcts for st in steps])
        ta = np.array([st.pi_a_mcts for st in steps])
        rows = _step(params, obs, task[:b], h[:b], c[:b])
        terms = step_loss_terms(rows.pi_p, rows.pi_a, rows.value, tp, ta,
                                reward[:b], policy[:b])
        yield obs, task[:b], reward[:b], policy[:b], h[:b], c[:b], tp, ta, rows, terms
        h, c = rows.h, rows.c


def _ce_dlogits(pi: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Entries clamped by LOG_CLAMP are constants of the logits, so their
    # target terms drop out of the gradient.
    t_live = np.where(pi >= LOG_CLAMP, target, 0.0)
    return pi * t_live.sum(axis=1, keepdims=True) - t_live


def loss(params: ParameterSet, batch: Sequence) -> float:
    """Summed loss over a batch of traces.

    The batch runs as packed rows: sorted by trace length, longest first
    (stable), each time step is one batched pass over the traces still
    running. Hidden states are recomputed from zero along each trace's
    stored observations; the snapshots saved in traces are never fed back
    in, because they go stale as parameters move. `value_only` traces
    contribute only their squared value error.
    """
    total = 0.0
    for *_, terms in _unroll(params, batch):
        total += float(terms.sum())
    return total


def loss_and_grads(params: ParameterSet, batch: Sequence) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact gradients via backpropagation through time.

    Packed as in `loss` (longest trace first, one batched pass per time
    step over the running rows, hidden states recomputed from zero), so
    the loss equals `loss(params, batch)` exactly. Each step's weight
    gradients are `X.T @ dY` over its rows.
    """
    a = params.arrays
    d = params.dims
    grads = params.zeros_like()
    tape = list(_unroll(params, batch))
    total = 0.0
    for *_, terms in tape:
        total += float(terms.sum())
    width = len(tape[0][0]) if tape else 0
    dh_next = np.zeros((width, d.hidden))
    dc_next = np.zeros((width, d.hidden))
    while tape:
        # Popping drops each step's activations once they are used.
        obs, task, reward, policy, h_prev, c_prev, tp, ta, r, _ = tape.pop()
        b = len(obs)
        dlog_p = _ce_dlogits(r.pi_p, tp)
        dlog_a = _ce_dlogits(r.pi_a, ta)
        if not policy.all():
            dlog_p[~policy] = 0.0
            dlog_a[~policy] = 0.0
        v = r.value
        dv = 2.0 * (v - reward) * v * (1.0 - v)
        grads["prog_w"] += r.h.T @ dlog_p
        grads["prog_b"] += dlog_p.sum(axis=0)
        grads["arg_w"] += r.h.T @ dlog_a
        grads["arg_b"] += dlog_a.sum(axis=0)
        grads["value_w"] += dv @ r.h
        grads["value_b"][0] += dv.sum()
        dh = (dlog_p @ a["prog_w"].T + dlog_a @ a["arg_w"].T
              + dv[:, None] * a["value_w"] + dh_next[:b])
        tanh_c = np.tanh(r.c)
        do = dh * tanh_c
        dc = dh * r.go * (1.0 - tanh_c ** 2) + dc_next[:b]
        dc_next[:b] = dc * r.gf
        dgates = np.concatenate([
            dc * r.gg * r.gi * (1.0 - r.gi),
            dc * c_prev * r.gf * (1.0 - r.gf),
            dc * r.gi * (1.0 - r.gg ** 2),
            do * r.go * (1.0 - r.go),
        ], axis=1)
        grads["lstm_wx"] += r.x.T @ dgates
        grads["lstm_wh"] += h_prev.T @ dgates
        grads["lstm_b"] += dgates.sum(axis=0)
        dx = dgates @ a["lstm_wx"].T
        dh_next[:b] = dgates @ a["lstm_wh"].T
        np.add.at(grads["prog_embed"], task, dx[:, d.enc:])
        dz2 = dx[:, :d.enc] * (r.x[:, :d.enc] > 0)
        grads["enc_w2"] += r.a1.T @ dz2
        grads["enc_b2"] += dz2.sum(axis=0)
        dz1 = (dz2 @ a["enc_w2"].T) * (r.a1 > 0)
        grads["enc_w1"] += obs.T @ dz1
        grads["enc_b1"] += dz1.sum(axis=0)
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
    if not feasible:
        raise ValueError("no feasible pairs: dead-end state")
    return _masked(pi_p, feasible.prog_mask), _masked(pi_a, feasible.arg_mask)


def _masked(pi: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.where(mask, pi, 0.0)
    total = out.sum()
    if total == 0:
        out[mask] = 1.0 / np.count_nonzero(mask)
    else:
        out /= total
    return out


def greedy_select(pi_p: np.ndarray, pi_a: np.ndarray,
                  feasible: FeasibleSet) -> tuple[ProgramSpec, ArgTuple]:
    """Most probable feasible program, then its most probable argument
    tuple; ties break toward the lowest index."""
    if not feasible:
        raise ValueError("no feasible pairs: dead-end state")
    progs = feasible.prog_support
    rows, args = feasible.rows_of[int(progs[pi_p[progs].argmax()])]
    return feasible[rows[pi_a[args].argmax()]]


# ---------------------------------------------------------------------------
# Checkpoints


def checkpoint_save(params: ParameterSet, opt: Optional[AdamState],
                    manifest: dict, path) -> None:
    """Versioned binary container: JSON header + little-endian float64
    payload with a content checksum.

    The file is written beside `path`, synced, and renamed over it, so
    `path` holds either the old checkpoint or the whole new one."""
    ordered: list[tuple[str, np.ndarray]] = [(n, params.arrays[n]) for n in PARAM_LAYOUT]
    opt_header = None
    if opt is not None:
        opt_header = {"lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2,
                      "eps": opt.eps, "clip": opt.clip, "t": opt.t}
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


_HEADER_KEYS = frozenset({"manifest", "dims", "arrays", "optimizer", "payload_sha256"})
_OPTIMIZER_KEYS = frozenset({"lr", "beta1", "beta2", "eps", "clip", "t"})


def _checked_layout(path, header: dict) -> NetworkDims:
    """The header's network dims, once its `dims`, `optimizer` and `arrays`
    describe exactly what `checkpoint_save` writes for them: every
    `NetworkDims` field a positive integer, the arrays in `PARAM_LAYOUT`
    order (then `m.` and `v.` of each with an optimizer), each of the shape
    `_shapes(dims)` gives it."""
    doc = header["dims"]
    known = {f.name for f in fields(NetworkDims)}
    if not isinstance(doc, dict) or doc.keys() != known or not all(
            type(v) is int and v > 0 for v in doc.values()):
        raise CheckpointError(f"{path}: bad network dims {doc!r} (need a positive "
                              f"integer for each of {', '.join(sorted(known))})")
    dims = NetworkDims(**doc)
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
    dims = _checked_layout(path, header)
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
    params = ParameterSet(dims, {n: arrays[n] for n in PARAM_LAYOUT})
    opt = None
    if header.get("optimizer"):
        oh = header["optimizer"]
        opt = AdamState(lr=oh["lr"], beta1=oh["beta1"], beta2=oh["beta2"],
                        eps=oh["eps"], clip=oh["clip"], t=oh["t"])
        opt.m = {n: arrays["m." + n] for n in PARAM_LAYOUT}
        opt.v = {n: arrays["v." + n] for n in PARAM_LAYOUT}
    return params, opt, header["manifest"]
