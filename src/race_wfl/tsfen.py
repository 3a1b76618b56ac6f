"""Temporal sequence feature extraction network with exact backprop.

Architecture: per-device linear embedding -> multi-head self-attention
across the device axis (shared over sub-periods) -> per-device linear
squeeze -> flatten devices -> bidirectional LSTM over the sub-period axis
-> fully connected head.  The actor head emits one logit per device and
turns them into selection probabilities through a masked softmax; the
critic reuses the same trunk with a scalar head.

Everything is float64 numpy with hand-written reverse-mode gradients:
each layer's ``forward`` returns an output plus a cache, and ``backward``
consumes the cache and the upstream gradient.  The embedding, the
attention and the squeeze are one layer (``MhsaLayer``): nothing
nonlinear lies between a device's features and the queries, keys and
values, or between the attention's output and the squeeze, so the layer
works in the (F+1)-wide augmented input instead of the D-wide model
space: each head's scores are a bilinear form in it, and its output a
linear map of its attention-weighted mean.  The attention's large
intermediates come from a ``Workspace`` that the caller may keep across
steps of one update, so that consecutive minibatches reuse its memory
instead of faulting fresh pages in.  Work is shaped into few, large BLAS
calls and long contiguous passes: the attention scores are stored
key-major, and the LSTM keeps its gates and states in time-major
whole-sequence arrays.  Its time loop holds only the recurrent GEMM and
the cell update; its sigmoid gates are ``tanh(z / 2) / 2 + 1/2``, one
``tanh`` with the cell candidate's, and its backward forms every step's
local derivative factors before the loop (see ``LstmLayer``).  The
masked softmax maps a zero mask entry to exactly zero probability
(additive log-mask), and probabilities of maskable entries are floored
at ``PROB_FLOOR`` and renormalized for numerical stability.

Inside a ``two_threads`` scope (a PPO update), OpenBLAS runs on one
thread and every batch>1 step splits its independent work in two: the
forward and the backward LSTM direction, the attention's score, softmax
and score-gradient passes over two halves of the (batch, sub-period)
pairs, and ``adam_step``'s parameters in two size-balanced groups.  One
half runs on the caller, the other on a single persistent worker
thread.  Each element is computed by the same operations in the same
order either way, so the outputs are the same bytes.  The worker writes
only into arrays the caller allocated before handing it the task.
"""

import contextlib
import contextvars
import json
import math
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import blas
from .errors import CheckpointError, RaceError

if TYPE_CHECKING:
    from .config import MappoSection

_MAGIC = b"TSFCKPT1"

# fixed conditioning of ``selection.build_state``'s (drift, gain, age)
# features: optional log10, then affine; their count is the MHSA's input
# width
FEATURE_LOG = (False, True, False)
FEATURE_CENTER = (0.1, 13.0, 0.5)
FEATURE_SCALE = (0.2, 3.0, 1.0)

# least probability of a device the mask admits
PROB_FLOOR = 1e-7


# pairs of the score gradient that ``_attend_backward`` forms per GEMM
SCORE_CHUNK = 16

_pool = None     # the worker's one-thread executor, made at the first scope
_worker = None   # ``_pool`` while a ``two_threads`` scope is open


@contextlib.contextmanager
def two_threads():
    """Run the independent halves of each batch>1 step on two threads.

    Within the scope OpenBLAS runs on one thread, and ``_pair`` hands its
    second task to one persistent worker thread; both are restored on
    exit, exceptions included.  Where OpenBLAS is not found or only one
    CPU is usable, nothing changes and the halves run inline.
    """
    global _pool, _worker
    old = blas.threads()
    if old is None or len(os.sched_getaffinity(0)) < 2:
        yield
        return
    if _pool is None:
        # imported here, at the first update, to keep it out of start-up
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(1, thread_name_prefix="tsfen")
    outer = _worker
    blas.set_threads(1)
    _worker = _pool
    try:
        yield
    finally:
        _worker = outer
        blas.set_threads(old)


def _pair(first, second, parallel=True):
    """``(first(), second())``, two tasks that share no output.

    With ``parallel`` inside a ``two_threads`` scope, ``second`` runs on
    the worker in a copy of the caller's context (numpy's ``errstate``
    included) while ``first`` runs here; otherwise both run here in
    turn.  An exception from either is raised once both have finished.
    """
    if not parallel or _worker is None:
        return first(), second()
    future = _worker.submit(contextvars.copy_context().run, second)
    try:
        result = first()
    except BaseException:
        future.exception()   # waits for ``second`` to finish
        raise
    return result, future.result()


def _halves(n, parallel, task):
    """``task(pairs)`` over ``range(n)`` as slices: two halves through
    ``_pair`` when they can run on two threads, else one slice."""
    if not parallel or _worker is None:
        task(slice(0, n))
    else:
        _pair(lambda: task(slice(0, n // 2)), lambda: task(slice(n // 2, n)))


def _attend(scores, xb, u, inv_z):
    """Softmax over axis 0 of key-major scores (N_key, B*, Q), and each
    query's attention-weighted mean of ``xb``'s (B*, N_key, F+1) rows.

    Overwrites ``scores`` with the unnormalized weights ``exp(s - max)``,
    whose largest entry per column is 1, writes the means into ``u``
    (B*, Q, F+1) and the reciprocal softmax sums into ``inv_z``
    (B* * Q, 1), which holds the column maxima until then.  ``xb``'s
    last column is 1, so the last column of the unnormalized means is the
    softmax sum and no pass of its own sums the weights.
    """
    peak = inv_z.reshape(scores.shape[1:])
    scores.max(axis=0, out=peak)
    scores -= peak
    np.exp(scores, out=scores)
    np.matmul(scores.transpose(1, 2, 0), xb, out=u)
    rows = u.reshape(-1, u.shape[-1])
    np.divide(1.0, rows[:, -1:], out=inv_z)
    rows *= inv_z


def _attend_backward(weights, xb, u, inv_z, du, dots, chunk):
    """Key-major score gradient of ``_attend`` from the means' gradient
    ``du``, multiplied into ``weights`` in place; overwrites ``du``.

    The softmax backward's row sum ``sum_j attn * dattn`` equals the row
    dot product ``u . du``, because ``dattn`` is ``xb @ du.T``.  It is
    written into ``dots`` (B* * Q,) and subtracted from ``du``'s ones
    column before that GEMM, and ``du`` is scaled by ``inv_z`` so that
    the unnormalized weights stand for the attention.  The GEMM runs over
    ``len(chunk)`` pairs at a time into ``chunk`` (C, N_key, Q), each
    part multiplied into ``weights`` before the next.
    """
    rows = du.reshape(-1, du.shape[-1])
    np.einsum("ij,ij->i", u.reshape(rows.shape), rows, out=dots)
    rows[:, -1] -= dots
    rows *= inv_z
    for i in range(0, len(xb), len(chunk)):
        pairs = slice(i, i + len(chunk))
        part = chunk[:len(xb[pairs])]
        np.matmul(xb[pairs], du[pairs].transpose(0, 2, 1), out=part)
        weights[:, pairs] *= part.transpose(1, 0, 2)
    return weights


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


def _uniform_init(rng, fan_in, shape):
    if rng is None:   # left for a checkpoint to fill
        return np.empty(shape)
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

    def forward(self, x):
        w = self.params[f"{self.prefix}.W"]
        b = self.params[f"{self.prefix}.b"]
        return x @ w + b, x

    def backward(self, cache, dout, grads):
        x = cache
        w = self.params[f"{self.prefix}.W"]
        x2 = x.reshape(-1, x.shape[-1])
        d2 = dout.reshape(-1, dout.shape[-1])
        grads[f"{self.prefix}.W"] = x2.T @ d2
        grads[f"{self.prefix}.b"] = d2.sum(axis=0)
        return dout @ w.T


class MhsaLayer:
    """Linear embedding, scaled dot-product multi-head self-attention over
    the device axis and linear squeeze, factored through the layer's
    (F+1)-wide augmented input.

    Input (B, M, N, F) features, output (B, M, N, S); attention runs
    independently per (batch, sub-period) pair with parameters shared
    across sub-periods.  The parameters are those of the three layers
    applied one after another: the embedding ``embed.W`` (F, D) and
    ``embed.b``, the query/key/value projections in one fused (D, 3D)
    matrix ``mhsa.Wqkv`` whose column blocks are the per-head
    projections, the output projection ``mhsa.Wo`` (D, D) and the squeeze
    ``squeeze.W`` (D, S) and ``squeeze.b``.

    With ``x1 = [x, 1]`` and ``E = [embed.W; embed.b]``, head h's queries,
    keys and values are ``x1 @ Wq_h``, ``x1 @ Wk_h`` and ``x1 @ Wv_h``,
    where ``[Wq_h, Wk_h, Wv_h]`` are (F+1, Dh) column blocks of
    ``E @ Wqkv``.  Its scores are therefore ``x1 A_h x1.T`` with the
    (F+1, F+1) matrix ``A_h = Wq_h Wk_h.T / sqrt(Dh)``, and its share of
    the squeezed output is ``(attn_h @ x1) M_h`` with the (F+1, S) matrix
    ``M_h = Wv_h (Wo @ squeeze.W)_h``.  The layer computes exactly that:
    one GEMM ``x1 @ [A_h]`` and one batched GEMM give the scores, and
    ``U @ [M_h] + squeeze.b`` the output, where ``U`` holds each query's
    attention-weighted mean of ``x1`` per head.  No query, key, value or
    D-wide context is formed.  The factoring saves flops while F+1 <
    D/H; a narrower head still gives the same function.

    The scores are kept key-major, (N_key, B*M, N_query*H), so that the
    softmax's max, subtract and exp are passes over long contiguous rows.
    Its normalizer needs no pass of its own: ``x1``'s last column is 1,
    so the last column of the unnormalized ``U`` is each softmax's sum.
    In ``backward`` the softmax row sum ``sum_j attn * dattn`` equals
    ``U . dU`` row by row, and is subtracted from ``dU``'s last column
    before the GEMM that forms the score gradient.  That GEMM runs a chunk
    of pairs at a time, each chunk multiplied into the attention weights
    in place, so no array of the weights' size holds the gradient.  Every
    weight gradient comes from the small matrices ``x1.T @ dP`` (the
    ``A_h``) and ``U.T @ dout`` (the ``M_h``).  The score, softmax and
    score-gradient passes are independent per (batch, sub-period) pair;
    at batch > 1 they run as two halves of the pairs (see ``_halves``).

    The augmented input, the projection, the attention weights and their
    gradients live in a ``Workspace``; the layer output and every
    gradient it returns are fresh arrays.
    """

    def __init__(self, n_in, d_model, n_heads, n_out, rng):
        self.d = d_model
        self.h = n_heads
        self.dh = d_model // n_heads
        self._inv_sqrt_dh = 1.0 / np.sqrt(self.dh)   # the query scale
        # drawn in layer order: embedding, attention, squeeze
        self.params = {
            "embed.W": _uniform_init(rng, n_in, (n_in, d_model)),
            "embed.b": _uniform_init(rng, n_in, (d_model,)),
            "mhsa.Wqkv": _uniform_init(rng, d_model, (d_model, 3 * d_model)),
            "mhsa.Wo": _uniform_init(rng, d_model, (d_model, d_model)),
            "squeeze.W": _uniform_init(rng, d_model, (d_model, n_out)),
            "squeeze.b": _uniform_init(rng, d_model, (n_out,)),
        }

    def _heads(self, w_in):
        """(H, F+1, Dh) query, key and value blocks of ``E @ Wqkv``."""
        f1 = w_in.shape[0]
        return w_in.reshape(f1, 3, self.h, self.dh).transpose(1, 2, 0, 3)

    def forward(self, x, workspace=None):
        params = self.params
        ws = Workspace() if workspace is None else workspace
        ws.generation += 1
        b, m, n, f = x.shape
        bm, h, f1 = b * m, self.h, f + 1
        x1 = ws.take("mhsa.x1", (bm * n, f1))
        x1[:, :f] = x.reshape(-1, f)
        x1[:, f] = 1.0
        xb = x1.reshape(bm, n, f1)
        e = np.concatenate((params["embed.W"], params["embed.b"][None]))
        w_in = e @ params["mhsa.Wqkv"]
        w_in[:, :self.d] *= self._inv_sqrt_dh
        wq, wk, wv = self._heads(w_in)
        a_cat = (wq @ wk.transpose(0, 2, 1)).transpose(1, 0, 2) \
            .reshape(f1, h * f1)
        # proj rows are (B*M*N, H*(F+1)); per (batch, sub-period) its
        # (N*H, F+1) view has one row per (query, head)
        proj = ws.take("mhsa.proj", (bm * n, h * f1))
        np.matmul(x1, a_cat, out=proj)
        nh = n * h
        per_query = proj.reshape(bm, nh, f1)
        weights = ws.take("mhsa.attn", (n, bm, nh))
        inv_z = ws.take("mhsa.inv_z", (bm * nh, 1))

        def attend(pairs):
            # U overwrites the projection, which the scores no longer need
            np.matmul(xb[pairs], per_query[pairs].transpose(0, 2, 1),
                      out=weights[:, pairs].transpose(1, 0, 2))
            _attend(weights[:, pairs], xb[pairs], per_query[pairs],
                    inv_z[pairs.start * nh:pairs.stop * nh])

        _halves(bm, b > 1, attend)
        w_out = params["mhsa.Wo"] @ params["squeeze.W"]
        m_cat = (wv @ w_out.reshape(h, self.dh, -1)).reshape(h * f1, -1)
        out = proj @ m_cat + params["squeeze.b"]
        return (out.reshape(b, m, n, -1),
                (x1, e, w_in, w_out, m_cat, weights, proj, inv_z, ws,
                 ws.generation, b > 1))

    def backward(self, cache, dout, grads):
        params = self.params
        x1, e, w_in, w_out, m_cat, weights, proj, inv_z, ws, generation, \
            parallel = cache
        if ws.generation != generation:
            raise RaceError("stale MHSA cache: a later forward has reused "
                            "its workspace buffers")
        n, bm, nh = weights.shape
        h, dh, f1 = self.h, self.dh, x1.shape[1]
        xb = x1.reshape(bm, n, f1)
        wq, wk, wv = self._heads(w_in)
        dflat = dout.reshape(bm * n, -1)
        dm = (proj.T @ dflat).reshape(h, f1, -1)
        hmat = (wv.transpose(0, 2, 1) @ dm).reshape(self.d, -1)
        grads["mhsa.Wo"] = hmat @ params["squeeze.W"].T
        grads["squeeze.W"] = params["mhsa.Wo"].T @ hmat
        grads["squeeze.b"] = dflat.sum(axis=0)
        dwv = dm @ w_out.reshape(h, dh, -1).transpose(0, 2, 1)
        dproj = ws.take("mhsa.dproj", proj.shape)
        np.matmul(dflat, m_cat.T, out=dproj)
        per_query = dproj.reshape(bm, nh, f1)
        u = proj.reshape(bm, nh, f1)
        dots = ws.take("mhsa.dots", (bm * nh,))
        chunks = [ws.take(f"mhsa.dscores{i}", (min(SCORE_CHUNK, bm), n, nh))
                  for i in range(2)]

        def score_gradient(pairs):
            # each half multiplies through a chunk buffer of its own
            rows = slice(pairs.start * nh, pairs.stop * nh)
            dscores = _attend_backward(
                weights[:, pairs], xb[pairs], u[pairs], inv_z[rows],
                per_query[pairs], dots[rows], chunks[pairs.start > 0])
            # dP overwrites dU
            np.matmul(dscores.transpose(1, 2, 0), xb[pairs],
                      out=per_query[pairs])

        _halves(bm, parallel, score_gradient)
        da = (x1.T @ dproj).reshape(f1, h, f1).transpose(1, 0, 2)
        gmat = np.stack((da @ wk, da.transpose(0, 2, 1) @ wq, dwv)) \
            .transpose(2, 0, 1, 3).reshape(f1, 3 * self.d)
        gmat[:, :self.d] *= self._inv_sqrt_dh
        grads["mhsa.Wqkv"] = e.T @ gmat
        de = gmat @ params["mhsa.Wqkv"].T
        grads["embed.W"] = de[:-1]
        grads["embed.b"] = de[-1]


def _tanh_gates(z, scale, shift):
    """Overwrite LSTM pre-activations with their gates, in place: with
    ``scale`` 1 and ``shift`` 0 a column gets ``tanh``, with 1/2 and 1/2
    ``sigmoid(z) = tanh(z / 2) / 2 + 1/2``."""
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift


class LstmLayer:
    """Single-direction LSTM over the middle axis; returns the final
    hidden state only.

    ``W`` stacks the input rows ``W[:n_in]`` over the recurrent rows
    ``W[n_in:]``, so a step's pre-activation is ``[x_t, h] @ W + b``.
    The layer works time-major.  The input part of every step is one GEMM
    before the time loop (Appleyard et al. 2016), into an (M, B, 4nh)
    array that each step completes in place with ``h @ W[n_in:]`` and
    then overwrites with its gates.  The hidden and cell states live in
    (M+1, B, nh) arrays whose row 0 is the zero initial state.  The
    sigmoid gates use ``sigmoid(z) = tanh(z / 2) / 2 + 1/2``, so a step
    takes one ``tanh`` over all four gate blocks, and no gate can
    overflow.  ``backward`` forms every step's local derivative factors
    in one pass before its loop, which then carries only ``dc``, ``dh``
    and the recurrent GEMM; ``dW``, ``db`` and ``dx`` come from all
    steps' ``dz`` at once after it.  Both write only into arrays that
    ``forward_arrays`` and ``backward_arrays`` make, so that a caller can
    make them before it runs the pass on another thread.
    """

    def __init__(self, n_in, n_hidden, rng, prefix):
        self.prefix = prefix
        self.nh = n_hidden
        self.params = {
            f"{prefix}.W": _uniform_init(rng, n_in + n_hidden,
                                         (n_in + n_hidden, 4 * n_hidden)),
            f"{prefix}.b": _uniform_init(rng, n_in + n_hidden,
                                         (4 * n_hidden,)),
        }
        # per-column scale and shift of the tanh-form gates i, f, g, o
        ones = np.ones((4, n_hidden))
        self._scale = (ones * [[0.5], [0.5], [1.0], [0.5]]).ravel()
        self._shift = (ones * [[0.5], [0.5], [0.0], [0.5]]).ravel()

    def forward_arrays(self, b, m, n_in):
        """The arrays ``forward`` writes at batch ``b``, ``m`` steps and
        ``n_in`` inputs: the time-major input, the gates, the hidden and
        cell states, ``tanh`` of the cells and the recurrent GEMM's
        output."""
        nh = self.nh
        return (np.empty((m, b, n_in)), np.empty((m, b, 4 * nh)),
                np.empty((2, m + 1, b, nh)), np.empty((m, b, nh)),
                np.empty((b, 4 * nh)))

    def forward(self, x, arrays=None):
        """x (B, M, n_in) -> final hidden state (B, nh) plus cache.

        ``arrays`` from ``forward_arrays`` are the only arrays it writes
        into; without them it makes its own.
        """
        w = self.params[f"{self.prefix}.W"]
        b, m, n_in = x.shape
        nh = self.nh
        xt, z, hc, tc, rec = self.forward_arrays(b, m, n_in) \
            if arrays is None else arrays
        xt[...] = x.transpose(1, 0, 2)
        xt = xt.reshape(-1, n_in)
        np.matmul(xt, w[:n_in], z.reshape(-1, 4 * nh))
        z += self.params[f"{self.prefix}.b"]
        w_h = w[n_in:]
        hc[:, 0] = 0.0
        h, c = hc
        # (M, B, nh) views of the four gate blocks of every step
        i, f, g, o = z.reshape(m, b, 4, nh).transpose(2, 0, 1, 3)
        for t in range(m):
            gates, c_next, tc_t = z[t], c[t + 1], tc[t]
            if t:
                np.matmul(h[t], w_h, rec)
                gates += rec
            _tanh_gates(gates, self._scale, self._shift)
            np.multiply(f[t], c[t], c_next)
            # tanh(c) holds i * g until it is formed
            np.multiply(i[t], g[t], tc_t)
            c_next += tc_t
            np.tanh(c_next, tc_t)
            np.multiply(o[t], tc_t, h[t + 1])
        return h[m], (xt, z, h, c, tc)

    def backward_arrays(self, cache):
        """The arrays ``backward`` writes for a ``forward`` cache: the
        gates' gradient, the cell-to-hidden factors, the recurrent
        ``dc``, ``dh`` and a scratch, and ``dW``, ``db`` and ``dx``."""
        xt, gates, *_ = cache
        m, b, _ = gates.shape
        nh = self.nh
        return (np.empty_like(gates), np.empty((m, b, nh)),
                np.empty((3, b, nh)),
                np.empty_like(self.params[f"{self.prefix}.W"]),
                np.empty(4 * nh), np.empty_like(xt))

    def backward(self, cache, dh_final, grads, arrays=None):
        """Gradients of the final hidden state's ``dh_final``: ``dW`` and
        ``db`` go into ``grads``, ``dx`` (B, M, n_in) is returned.

        ``arrays`` from ``backward_arrays`` are the only arrays it writes
        into; without them it makes its own.  ``dW``, ``db`` and ``dx``
        are those arrays.
        """
        p = self.prefix
        w = self.params[f"{p}.W"]
        xt, gates, h, c, tc = cache
        m, b, _ = gates.shape
        nh = self.nh
        n_in = xt.shape[1]
        w_h = w[n_in:]
        dz, dc_dh, (dc, dh_next, tmp), dw, db, dx = \
            self.backward_arrays(cache) if arrays is None else arrays
        # (M, B, nh) views of the four gate blocks of every step
        i, f, g, o = gates.reshape(m, b, 4, nh).transpose(2, 0, 1, 3)
        # step t's dz is [dc, dc, dc, dh] times the factors
        # [g i(1-i), c_prev f(1-f), i(1-g^2), tanh(c) o(1-o)]
        np.subtract(1.0, gates, out=dz)
        dz *= gates
        fac = dz.reshape(m, b, 4, nh)
        fi, ff, fg, fo = fac.transpose(2, 0, 1, 3)
        fi *= g
        ff *= c[:-1]
        np.multiply(g, g, out=fg)
        np.subtract(1.0, fg, out=fg)
        fg *= i
        fo *= tc
        np.multiply(tc, tc, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        dh = dh_final
        dc[...] = 0.0
        for t in range(m - 1, -1, -1):
            np.multiply(dh, dc_dh[t], tmp)
            dc += tmp
            dz_c, dz_h = fac[t, :, :3], fac[t, :, 3]
            dz_c *= dc[:, None, :]
            dz_h *= dh
            if t:
                dh = np.matmul(dz[t], w_h.T, dh_next)
                dc *= f[t]
        dz2 = dz.reshape(-1, 4 * nh)
        np.matmul(xt.T, dz2, dw[:n_in])
        np.matmul(h[:-1].reshape(-1, nh).T, dz2, dw[n_in:])
        grads[f"{p}.W"] = dw
        grads[f"{p}.b"] = dz2.sum(axis=0, out=db)
        np.matmul(dz2, w[:n_in].T, dx)
        return dx.reshape(m, b, n_in).transpose(1, 0, 2)


def masked_softmax(logits: np.ndarray, mask: np.ndarray):
    """Selection probabilities with hard-zero support outside the mask.

    Fractional mask entries scale the exponentiated scores (additive log
    mask); zero entries get exactly zero probability.  Probabilities of
    in-support entries are floored at ``PROB_FLOOR`` and renormalized.
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
    # log-mask plus logits on the support, -inf off it.  Off the support
    # exp would give the 0 the array holds; on it z is finite, or -inf
    # where the shift by the max overflows, and exp gives 0 there too
    z = np.full(mask.shape, -np.inf)
    np.log(mask, where=support, out=z)
    z += logits
    z -= z.max(axis=-1, keepdims=True)
    raw = np.zeros(mask.shape)
    np.exp(z, where=support, out=raw)
    raw /= raw.sum(axis=-1, keepdims=True)
    floored = np.zeros(mask.shape)
    np.maximum(raw, PROB_FLOOR, where=support, out=floored)
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
    """Trunk plus head over ``n_devices`` devices, with the layer sizes of
    the ``mappo`` section and ``out_dim`` outputs; see the module docstring
    for the layout.  The parameters are drawn from ``rng``; with ``rng``
    None they are left unset, for a checkpoint to fill."""

    def __init__(self, p: "MappoSection", n_devices: int, out_dim: int,
                 rng: np.random.Generator | None):
        self.mhsa = MhsaLayer(len(FEATURE_LOG), p.d_model, p.n_heads,
                              p.squeeze_dim, rng)
        lstm_in = n_devices * p.squeeze_dim
        self.lstm_fwd = LstmLayer(lstm_in, p.lstm_hidden, rng, "lstm_fwd")
        self.lstm_bwd = LstmLayer(lstm_in, p.lstm_hidden, rng, "lstm_bwd")
        self.fc1 = DenseLayer(2 * p.lstm_hidden, p.fc_hidden, rng, "fc1")
        self.fc2 = DenseLayer(p.fc_hidden, out_dim, rng, "fc2")
        self.params = {}
        for layer in (self.mhsa, self.lstm_fwd, self.lstm_bwd, self.fc1,
                      self.fc2):
            self.params.update(layer.params)

    @staticmethod
    def preprocess(states: np.ndarray) -> np.ndarray:
        """Fixed feature conditioning: optional log10 then affine.  An
        out-of-range state overflows without a warning, as in
        ``forward``."""
        out = np.array(states, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (log, center, scale) in enumerate(
                    zip(FEATURE_LOG, FEATURE_CENTER, FEATURE_SCALE)):
                col = out[..., j]
                if log:
                    col = np.log10(np.maximum(col, 1e-300))
                out[..., j] = (col - center) / scale
        return out

    def forward(self, states: np.ndarray, workspace: Workspace = None):
        """States (B, M, N, F) as ``preprocess`` returns them -> logits
        (B, out_dim) plus cache.  The caller conditions the states, once
        for every network that reads them.

        With a ``workspace``, the cache refers to its buffers until the
        next forward on the same workspace; ``backward`` must come first.
        Without one, the buffers are this call's own.

        A diverged network overflows in here without a warning: its
        non-finite outputs reach ``masked_softmax`` or the TD-residual
        check, which raise ``RaceError``.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            s, c_mhsa = self.mhsa.forward(states, workspace)
            b, m, n, dsq = s.shape
            seq = s.reshape(b, m, n * dsq)
            fwd, bwd = self.lstm_fwd, self.lstm_bwd
            a_fwd = fwd.forward_arrays(b, m, n * dsq)
            a_bwd = bwd.forward_arrays(b, m, n * dsq)
            (h_fwd, c_fwd), (h_bwd, c_bwd) = _pair(
                lambda: fwd.forward(seq, a_fwd),
                lambda: bwd.forward(seq[:, ::-1, :], a_bwd), b > 1)
            h = np.concatenate([h_fwd, h_bwd], axis=1)
            f1, c_fc1 = self.fc1.forward(h)
            relu = np.maximum(f1, 0.0)
            logits, c_fc2 = self.fc2.forward(relu)
        cache = (c_mhsa, (b, m, n, dsq), c_fwd, c_bwd, c_fc1, f1, c_fc2)
        return logits, cache

    def backward(self, cache, dlogits):
        """Gradients of a scalar loss with logit-gradient ``dlogits``."""
        c_mhsa, shape, c_fwd, c_bwd, c_fc1, f1, c_fc2 = cache
        b, m, n, dsq = shape
        grads = {}
        drelu = self.fc2.backward(c_fc2, dlogits, grads)
        df1 = drelu * (f1 > 0.0)
        dh = self.fc1.backward(c_fc1, df1, grads)
        fwd, bwd = self.lstm_fwd, self.lstm_bwd
        nh = fwd.nh
        a_fwd, a_bwd = fwd.backward_arrays(c_fwd), bwd.backward_arrays(c_bwd)
        grads_b = {}
        dseq, dseq_b = _pair(
            lambda: fwd.backward(c_fwd, dh[:, :nh], grads, a_fwd),
            lambda: bwd.backward(c_bwd, dh[:, nh:], grads_b, a_bwd), b > 1)
        grads.update(grads_b)
        dseq = dseq + dseq_b[:, ::-1, :]
        self.mhsa.backward(c_mhsa, dseq.reshape(b, m, n, dsq), grads)
        return grads

    def policy(self, states: np.ndarray, mask: np.ndarray,
               workspace: Workspace = None):
        """Masked selection probabilities (B, N) of raw states plus
        caches."""
        logits, cache = self.forward(self.preprocess(states), workspace)
        probs, sm_cache = masked_softmax(logits, mask)
        return probs, (cache, sm_cache)

    def policy_backward(self, caches, dprobs):
        cache, sm_cache = caches
        dlogits = masked_softmax_backward(sm_cache, dprobs)
        return self.backward(cache, dlogits)

    def value(self, states: np.ndarray, workspace: Workspace = None):
        """Scalar values (B,) of raw states plus cache (critic head)."""
        logits, cache = self.forward(self.preprocess(states), workspace)
        return logits[:, 0], cache


# --- optimizer -------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def adam_init(params: dict) -> AdamState:
    # np.zeros is calloc: pages fresh from the OS stay untouched until the
    # first step, but a heap chunk that glibc hands out again after a free
    # must be zeroed and is resident from then on.  Three default-size
    # evaluation policies built one after another in one process, each
    # dropped before the next, left 37, 51, 55 and 55 MB resident while
    # they built moments and 37, 50, 50 and 50 MB without (numpy 2.4.6,
    # glibc, x86_64).  So only a training policy builds them.
    return AdamState(
        m={k: np.zeros(p.shape) for k, p in params.items()},
        v={k: np.zeros(p.shape) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One bias-corrected adaptive-moment descent step, in place.

    The parameters are updated in two groups of about equal size through
    ``_pair``, each with one scratch array that carries every term in
    turn; both scratches are made here, before either group starts.
    """
    state.step += 1
    t = state.step
    scale = lr / (1.0 - beta1 ** t)
    inv_sqrt_bc2 = 1.0 / np.sqrt(1.0 - beta2 ** t)

    def update(names, scratch):
        for k in names:
            g = grads[k]
            m = state.m[k]
            v = state.v[k]
            tmp = scratch[:g.size].reshape(g.shape)
            np.multiply(1.0 - beta1, g, out=tmp)
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

    groups = ([], [])
    sizes = [0, 0]
    # largest first, each to the lighter group
    for k in sorted(grads, key=lambda k: -grads[k].size):
        lighter = sizes[1] < sizes[0]
        groups[lighter].append(k)
        sizes[lighter] += grads[k].size
    scratches = [np.empty(max((grads[k].size for k in names), default=0))
                 for names in groups]
    _pair(lambda: update(groups[0], scratches[0]),
          lambda: update(groups[1], scratches[1]))


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


def load_params(path, into=None):
    """Load a checkpoint; returns (params, meta).

    A missing or unreadable file, a wrong magic, a corrupt header, a
    header whose ``dtype`` is not ``"float64"`` or whose ``byte_order``
    is not ``"little"``, a payload whose length differs from the one the
    header describes and metadata that is not a JSON object all raise
    ``CheckpointError`` before any array is written.  ``into(shapes,
    meta)``, if given, is then called with the header's {name: shape} in
    payload order and its metadata; it returns {name: array of that
    shape} to copy the payload into, or raises ``CheckpointError`` to
    reject the file.  Without it the arrays are fresh.  The payload is
    copied in one array at a time, so no second copy of the parameters
    is staged.
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
        if header.get("dtype") != "float64" \
                or header.get("byte_order") != "little":
            raise CheckpointError(
                f"checkpoint {path!r} holds {header.get('dtype')!r} "
                f"{header.get('byte_order')!r}-endian values, not "
                "little-endian float64")
        shapes = _header_shapes(header, path)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = 8 * sum(math.prod(shape) for shape in shapes.values())
        if payload != expected:
            raise CheckpointError(
                f"checkpoint payload of {path!r} is {payload} bytes, its "
                f"header describes {expected}")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise CheckpointError(f"corrupt checkpoint metadata in {path!r}")
        params = {k: np.empty(shape) for k, shape in shapes.items()} \
            if into is None else into(shapes, meta)
        for k, shape in shapes.items():
            buf = fh.read(8 * math.prod(shape))
            params[k][...] = np.frombuffer(buf, dtype="<f8").reshape(shape)
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
