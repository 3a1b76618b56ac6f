"""Temporal sequence feature extraction network with exact backprop.

Architecture: per-device linear embedding -> multi-head self-attention
across the device axis (shared over sub-periods) -> per-device linear
squeeze -> flatten devices -> bidirectional LSTM over the sub-period axis
-> fully connected head.  The actor head emits one logit per device and
turns them into selection probabilities through a masked softmax; the
critic reuses the same trunk with a scalar head.

Everything is float64 numpy with hand-written reverse-mode gradients:
each layer's ``forward`` returns an output plus a cache, and ``backward``
consumes the cache and the upstream gradient.  The attention's large
intermediates come from a ``Workspace`` that the caller may keep across
steps of one update, so that consecutive minibatches reuse its memory
instead of faulting fresh pages in.  The masked softmax maps a
zero mask entry to exactly zero probability (additive log-mask), and
probabilities of maskable entries are floored at ``prob_floor`` and
renormalized for numerical stability.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, RaceError

_MAGIC = b"TSFCKPT1"


def _attn_softmax(scores):
    """Row-softmax over the last axis, in place."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _attn_softmax_backward(attn, dattn, inv_scale, product):
    """Softmax backward over the last axis; overwrites ``dattn`` with the
    score gradient scaled by ``inv_scale``.  ``product`` is scratch of
    ``attn``'s shape."""
    dot = np.multiply(dattn, attn, out=product).sum(axis=-1, keepdims=True)
    dattn -= dot
    dattn *= attn
    dattn *= inv_scale
    return dattn


class Workspace:
    """Float64 scratch buffers handed out by name.

    Each name owns one flat array that grows to the largest size ever
    requested for it; ``take`` returns a C-contiguous view of its prefix,
    so smaller batches reuse the memory of larger ones.  ``allocations``
    counts the arrays made.  ``generation`` is advanced by every MHSA
    forward that draws from the workspace; a cache stamped with an older
    generation points at overwritten buffers.
    """

    def __init__(self):
        self._flat = {}
        self.allocations = 0
        self.generation = 0

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
            self.allocations += 1
        return flat[:size].reshape(shape)


@dataclass(frozen=True)
class TsfenConfig:
    n_devices: int
    history: int = 5
    feature_dim: int = 3
    d_model: int = 64
    n_heads: int = 8
    squeeze_dim: int = 8
    lstm_hidden: int = 128
    fc_hidden: int = 128
    output_dim: int | None = None     # defaults to n_devices
    prob_floor: float = 1e-7
    # fixed per-feature preprocessing: optional log10 then affine
    feature_log: tuple = (False, True, False)
    feature_center: tuple = (0.1, 13.0, 0.5)
    feature_scale: tuple = (0.2, 3.0, 1.0)

    def __post_init__(self):
        sizes = (self.n_devices, self.history, self.d_model, self.n_heads,
                 self.squeeze_dim, self.lstm_hidden, self.fc_hidden)
        if min(sizes) < 1:
            raise ValueError("network sizes must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @property
    def out_dim(self) -> int:
        return self.n_devices if self.output_dim is None else self.output_dim


def _uniform_init(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseLayer:
    """Affine map on the last axis."""

    def __init__(self, n_in, n_out, rng, prefix):
        self.prefix = prefix
        self.params = {
            f"{prefix}.W": _uniform_init(rng, n_in, (n_in, n_out)),
            f"{prefix}.b": _uniform_init(rng, n_in, (n_out,)),
        }

    def forward(self, x, params):
        w = params[f"{self.prefix}.W"]
        b = params[f"{self.prefix}.b"]
        return x @ w + b, x

    def backward(self, cache, dout, params, grads):
        x = cache
        w = params[f"{self.prefix}.W"]
        x2 = x.reshape(-1, x.shape[-1])
        d2 = dout.reshape(-1, dout.shape[-1])
        grads[f"{self.prefix}.W"] = x2.T @ d2
        grads[f"{self.prefix}.b"] = d2.sum(axis=0)
        return dout @ w.T


class MhsaLayer:
    """Scaled dot-product multi-head self-attention over the device axis.

    Input (B, M, N, D); attention runs independently per (batch,
    sub-period) pair with parameters shared across sub-periods.  The
    query/key/value projections live in one fused (D, 3D) matrix whose
    column blocks are the per-head projections.  The projection, the
    attention weights, the context and their gradients live in a
    ``Workspace``; the layer output and every gradient it returns are
    fresh arrays.
    """

    def __init__(self, d_model, n_heads, rng, prefix):
        self.prefix = prefix
        self.d = d_model
        self.h = n_heads
        self.dh = d_model // n_heads
        self.params = {
            f"{prefix}.Wqkv": _uniform_init(rng, d_model,
                                            (d_model, 3 * d_model)),
            f"{prefix}.Wo": _uniform_init(rng, d_model, (d_model, d_model)),
        }

    def forward(self, x, params, workspace=None):
        ws = Workspace() if workspace is None else workspace
        ws.generation += 1
        p = self.prefix
        b, m, n, d = x.shape
        bm, h, dh = b * m, self.h, self.dh
        xf = x.reshape(bm, n, d)
        qkv = ws.take("mhsa.qkv", (bm, n, 3 * d))
        np.matmul(xf, params[f"{p}.Wqkv"], out=qkv)
        # q, k and v are (B*, H, N, Dh) head views of the fused projection
        q, k, v = qkv.reshape(bm, n, 3, h, dh).transpose(2, 0, 3, 1, 4)
        scores = ws.take("mhsa.attn", (bm, h, n, n))
        np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
        scores *= 1.0 / np.sqrt(dh)
        attn = _attn_softmax(scores)
        ctx = ws.take("mhsa.ctx", (bm, n, h, dh))
        np.matmul(attn, v, out=ctx.transpose(0, 2, 1, 3))
        ctx = ctx.reshape(bm, n, d)
        out = (ctx @ params[f"{p}.Wo"]).reshape(b, m, n, d)
        return out, (x, xf, q, k, v, attn, ctx, ws, ws.generation)

    def backward(self, cache, dout, params, grads):
        p = self.prefix
        x, xf, q, k, v, attn, ctx, ws, generation = cache
        if ws.generation != generation:
            raise RaceError("stale MHSA cache: a later forward has reused "
                            "its workspace buffers")
        b, m, n, d = x.shape
        bm, h, _, dh = q.shape
        dflat = dout.reshape(-1, d)
        grads[f"{p}.Wo"] = ctx.reshape(-1, d).T @ dflat
        dheads = ws.take("mhsa.dheads", (bm * n, d))
        np.matmul(dflat, params[f"{p}.Wo"].T, out=dheads)
        dheads = dheads.reshape(bm, n, h, dh).transpose(0, 2, 1, 3)
        dattn = ws.take("mhsa.dattn", (bm, h, n, n))
        np.matmul(dheads, v.transpose(0, 1, 3, 2), out=dattn)
        # dq, dk and dv are written straight into the fused gradient
        dqkv = ws.take("mhsa.dqkv", (bm, n, 3, h, dh))
        dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(attn.transpose(0, 1, 3, 2), dheads, out=dv)
        dscores = _attn_softmax_backward(
            attn, dattn, 1.0 / np.sqrt(dh),
            ws.take("mhsa.dattn_attn", attn.shape))
        np.matmul(dscores, k, out=dq)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk)
        dqkv = dqkv.reshape(-1, 3 * d)
        grads[f"{p}.Wqkv"] = xf.reshape(-1, d).T @ dqkv
        dxf = dqkv @ params[f"{p}.Wqkv"].T
        return dxf.reshape(b, m, n, d)


def _sigmoid(z):
    # exp(-|z|) never overflows; both branches share it
    ez = np.exp(-np.abs(z))
    denom = 1.0 + ez
    return np.where(z >= 0, 1.0 / denom, ez / denom)


class LstmLayer:
    """Single-direction LSTM over the middle axis; returns the final
    hidden state only."""

    def __init__(self, n_in, n_hidden, rng, prefix):
        self.prefix = prefix
        self.nh = n_hidden
        self.params = {
            f"{prefix}.W": _uniform_init(rng, n_in + n_hidden,
                                         (n_in + n_hidden, 4 * n_hidden)),
            f"{prefix}.b": _uniform_init(rng, n_in + n_hidden,
                                         (4 * n_hidden,)),
        }

    def forward(self, x, params):
        # x: (B, M, n_in)
        w = params[f"{self.prefix}.W"]
        bias = params[f"{self.prefix}.b"]
        b, m, _ = x.shape
        nh = self.nh
        h = np.zeros((b, nh))
        c = np.zeros((b, nh))
        steps = []
        for t in range(m):
            xt = x[:, t, :]
            zin = np.concatenate([xt, h], axis=1)
            z = zin @ w + bias
            i_f = _sigmoid(z[:, :2 * nh])
            i, f = i_f[:, :nh], i_f[:, nh:]
            g = np.tanh(z[:, 2 * nh:3 * nh])
            o = _sigmoid(z[:, 3 * nh:])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            steps.append((zin, i, f, g, o, c_prev, c, tc))
        return h, (x.shape, steps)

    def backward(self, cache, dh_final, params, grads):
        p = self.prefix
        w = params[f"{p}.W"]
        (b, m, n_in), steps = cache
        nh = self.nh
        dw = np.zeros_like(w)
        db = np.zeros_like(params[f"{p}.b"])
        dx = np.zeros((b, m, n_in))
        dh = dh_final.copy()
        dc = np.zeros_like(dh)
        dz = np.empty((b, 4 * nh))
        dz_i, dz_f, dz_g, dz_o = np.split(dz, 4, axis=1)
        for t in range(m - 1, -1, -1):
            zin, i, f, g, o, c_prev, c, tc = steps[t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            np.multiply(di * i, 1.0 - i, out=dz_i)
            np.multiply(df * f, 1.0 - f, out=dz_f)
            np.multiply(dg, 1.0 - g * g, out=dz_g)
            np.multiply(do * o, 1.0 - o, out=dz_o)
            dw += zin.T @ dz
            db += dz.sum(axis=0)
            dzin = dz @ w.T
            dx[:, t, :] = dzin[:, :n_in]
            dh = dzin[:, n_in:]
            dc = dc * f
        grads[f"{p}.W"] = dw
        grads[f"{p}.b"] = db
        return dx


def masked_softmax(logits: np.ndarray, mask: np.ndarray,
                   floor: float = 1e-7):
    """Selection probabilities with hard-zero support outside the mask.

    Fractional mask entries scale the exponentiated scores (additive log
    mask); zero entries get exactly zero probability.  Probabilities of
    in-support entries are clipped to at least ``floor`` and renormalized.
    Returns (probs, cache).
    """
    mask = np.asarray(mask, dtype=np.float64)
    if logits.shape != mask.shape:
        raise RaceError("logits and mask shapes differ")
    if not np.isfinite(logits).all():
        raise RaceError("non-finite logits: the policy has diverged")
    if (mask < 0).any() or (mask > 1).any():
        raise RaceError("mask entries must lie in [0, 1]")
    support = mask > 0.0
    if not support.any(axis=-1).all():
        raise RaceError("all-zero mask row: no selectable device")
    with np.errstate(divide="ignore"):
        z = np.where(support, logits + np.log(mask, where=support,
                                              out=np.zeros_like(mask)),
                     -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    raw = np.where(support, np.exp(z, where=np.isfinite(z),
                                   out=np.zeros_like(z)), 0.0)
    raw = raw / raw.sum(axis=-1, keepdims=True)
    floored = np.where(support, np.maximum(raw, floor), 0.0)
    denom = floored.sum(axis=-1, keepdims=True)
    probs = floored / denom
    cache = (raw, floored, denom, support)
    return probs, cache


def masked_softmax_backward(cache, dprobs):
    """Gradient of the masked softmax with respect to the logits."""
    raw, floored, denom, support = cache
    dfloored = (dprobs - (dprobs * floored).sum(axis=-1, keepdims=True)
                / denom) / denom
    draw = np.where(support & (raw >= floored), dfloored, 0.0)
    dz = raw * (draw - (draw * raw).sum(axis=-1, keepdims=True))
    return dz


class TsfenNetwork:
    """Trunk plus head; see the module docstring for the layout."""

    def __init__(self, config: TsfenConfig, rng: np.random.Generator):
        self.config = config
        c = config
        self.embed = DenseLayer(c.feature_dim, c.d_model, rng, "embed")
        self.mhsa = MhsaLayer(c.d_model, c.n_heads, rng, "mhsa")
        self.squeeze = DenseLayer(c.d_model, c.squeeze_dim, rng, "squeeze")
        lstm_in = c.n_devices * c.squeeze_dim
        self.lstm_fwd = LstmLayer(lstm_in, c.lstm_hidden, rng, "lstm_fwd")
        self.lstm_bwd = LstmLayer(lstm_in, c.lstm_hidden, rng, "lstm_bwd")
        self.fc1 = DenseLayer(2 * c.lstm_hidden, c.fc_hidden, rng, "fc1")
        self.fc2 = DenseLayer(c.fc_hidden, c.out_dim, rng, "fc2")
        self.params = {}
        for layer in (self.embed, self.mhsa, self.squeeze, self.lstm_fwd,
                      self.lstm_bwd, self.fc1, self.fc2):
            self.params.update(layer.params)

    def preprocess(self, states: np.ndarray) -> np.ndarray:
        """Fixed feature conditioning: optional log10 then affine."""
        c = self.config
        out = np.array(states, dtype=np.float64)
        for j in range(c.feature_dim):
            col = out[..., j]
            if c.feature_log[j]:
                col = np.log10(np.maximum(col, 1e-300))
            out[..., j] = (col - c.feature_center[j]) / c.feature_scale[j]
        return out

    def forward(self, states: np.ndarray, workspace: Workspace = None):
        """states (B, M, N, F) -> logits (B, out_dim) plus cache.

        With a ``workspace``, the cache refers to its buffers until the
        next forward on the same workspace; ``backward`` must come first.
        Without one, the buffers are this call's own.

        A diverged network overflows in here without a warning: its
        non-finite outputs reach ``masked_softmax`` or the TD-residual
        check, which raise ``RaceError``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.preprocess(states)
            p = self.params
            e, c_embed = self.embed.forward(x, p)
            a, c_mhsa = self.mhsa.forward(e, p, workspace)
            s, c_squeeze = self.squeeze.forward(a, p)
            b, m, n, dsq = s.shape
            seq = s.reshape(b, m, n * dsq)
            h_fwd, c_fwd = self.lstm_fwd.forward(seq, p)
            h_bwd, c_bwd = self.lstm_bwd.forward(seq[:, ::-1, :], p)
            h = np.concatenate([h_fwd, h_bwd], axis=1)
            f1, c_fc1 = self.fc1.forward(h, p)
            relu = np.maximum(f1, 0.0)
            logits, c_fc2 = self.fc2.forward(relu, p)
        cache = (c_embed, c_mhsa, c_squeeze, (b, m, n, dsq), c_fwd, c_bwd,
                 c_fc1, f1, c_fc2)
        return logits, cache

    def backward(self, cache, dlogits):
        """Gradients of a scalar loss with logit-gradient ``dlogits``."""
        (c_embed, c_mhsa, c_squeeze, shape, c_fwd, c_bwd, c_fc1, f1,
         c_fc2) = cache
        b, m, n, dsq = shape
        p = self.params
        grads = {}
        drelu = self.fc2.backward(c_fc2, dlogits, p, grads)
        df1 = drelu * (f1 > 0.0)
        dh = self.fc1.backward(c_fc1, df1, p, grads)
        nh = self.config.lstm_hidden
        dseq = self.lstm_fwd.backward(c_fwd, dh[:, :nh], p, grads)
        dseq_b = self.lstm_bwd.backward(c_bwd, dh[:, nh:], p, grads)
        dseq = dseq + dseq_b[:, ::-1, :]
        ds = dseq.reshape(b, m, n, dsq)
        da = self.squeeze.backward(c_squeeze, ds, p, grads)
        de = self.mhsa.backward(c_mhsa, da, p, grads)
        self.embed.backward(c_embed, de, p, grads)
        return grads

    def policy(self, states: np.ndarray, mask: np.ndarray,
               workspace: Workspace = None):
        """Masked selection probabilities (B, N) plus caches."""
        logits, cache = self.forward(states, workspace)
        probs, sm_cache = masked_softmax(logits, mask,
                                         self.config.prob_floor)
        return probs, (cache, sm_cache)

    def policy_backward(self, caches, dprobs):
        cache, sm_cache = caches
        dlogits = masked_softmax_backward(sm_cache, dprobs)
        return self.backward(cache, dlogits)

    def value(self, states: np.ndarray, workspace: Workspace = None):
        """Scalar state values (B,) plus cache (critic head)."""
        logits, cache = self.forward(states, workspace)
        return logits[:, 0], cache


# --- optimizer -------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected adaptive-moment descent step, in place."""
    state.step += 1
    t = state.step
    scale = lr / (1.0 - beta1 ** t)
    inv_sqrt_bc2 = 1.0 / np.sqrt(1.0 - beta2 ** t)
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        # one scratch array carries each term in turn
        tmp = np.multiply(1.0 - beta1, g)
        m *= beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v += tmp
        np.sqrt(v, out=tmp)
        tmp *= inv_sqrt_bc2
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= scale
        params[k] -= tmp


# --- checkpoints -----------------------------------------------------------

def save_params(path, params: dict, meta: dict | None = None) -> None:
    """Versioned flat binary checkpoint.

    Layout: magic ``TSFCKPT1``, little-endian uint32 header length, UTF-8
    JSON header (names, shapes, dtype, metadata), then each array's raw
    bytes as little-endian float64 in header order.
    """
    names = sorted(params)
    header = {
        "format_version": 1,
        "byte_order": "little",
        "dtype": "float64",
        "names": names,
        "shapes": {k: list(params[k].shape) for k in names},
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for k in names:
            fh.write(np.ascontiguousarray(params[k], dtype="<f8").tobytes())


def load_params(path):
    """Load a checkpoint; returns (params, meta).

    A missing or unreadable file, a wrong magic, a corrupt header and a
    payload whose length differs from the one the header describes all
    raise ``CheckpointError``.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path!r}: "
                              f"{exc.strerror}") from exc
    with fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"bad checkpoint magic in {path!r}")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise CheckpointError(f"truncated checkpoint header in {path!r}")
        (hlen,) = struct.unpack("<I", raw_len)
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # JSON and UTF-8 errors alike
            raise CheckpointError(
                f"corrupt checkpoint header in {path!r}") from exc
        if not isinstance(header, dict) \
                or header.get("format_version") != 1:
            raise CheckpointError("unsupported checkpoint version")
        shapes = _header_shapes(header, path)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * sum(math.prod(shape) for shape in shapes.values())
        if payload != expected:
            raise CheckpointError(
                f"checkpoint payload of {path!r} is {payload} bytes, its "
                f"header describes {expected}")
        params = {}
        for k, shape in shapes.items():
            buf = fh.read(8 * math.prod(shape))
            params[k] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"corrupt checkpoint metadata in {path!r}")
    return params, meta


def _header_shapes(header, path) -> dict:
    """{name: shape} in payload order, from a checked header."""
    names = header.get("names")
    shapes = header.get("shapes")
    if not isinstance(names, list) or not isinstance(shapes, dict):
        raise CheckpointError(f"corrupt checkpoint header in {path!r}")
    out = {}
    for k in names:
        shape = shapes.get(k) if isinstance(k, str) else None
        if k in out or not isinstance(shape, list) \
                or not all(type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(
                f"bad entry {k!r} in checkpoint header of {path!r}")
        out[k] = tuple(shape)
    return out
