import contextlib
import copy
import json
import os
import struct
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from race_wfl import blas, tsfen
from race_wfl.config import MappoSection
from race_wfl.errors import CheckpointError, RaceError
from race_wfl.selection import _critic_step
from race_wfl.tsfen import (
    AdamState, DenseLayer, LstmLayer, MhsaLayer, TsfenNetwork,
    PROB_FLOOR, Workspace, adam_init, adam_step, load_params, masked_softmax,
    masked_softmax_backward, save_params, _attend, _attend_backward,
    _tanh_gates,
)


DATA = Path(__file__).parent / "data"


def _sigmoid(z):
    """Exp-form logistic function, the reference of the LSTM's gates."""
    # exp(-|z|) never overflows; both branches share it
    ez = np.exp(-np.abs(z))
    denom = 1.0 + ez
    return np.where(z >= 0, 1.0 / denom, ez / denom)


SMALL = MappoSection(d_model=8, n_heads=2, squeeze_dim=3, lstm_hidden=5,
                     fc_hidden=6)


class TestMhsa:
    """Properties of the folded embedding -> attention -> squeeze layer."""

    def test_identical_rows_give_uniform_attention(self):
        rng = np.random.default_rng(0)
        layer = MhsaLayer(3, 8, 2, 4, rng)
        x = np.tile(rng.standard_normal(3), (1, 1, 5, 1))
        _, cache = layer.forward(x)
        weights = cache[5]   # key-major (N, B*M, N*H), unnormalized
        attn = weights / weights.sum(axis=0)
        assert attn == pytest.approx(np.full_like(attn, 1 / 5), rel=1e-12)

    def test_single_device_reduces_to_value_projection(self):
        rng = np.random.default_rng(1)
        layer = MhsaLayer(3, 8, 2, 4, rng)
        p = layer.params
        x = rng.standard_normal((1, 3, 1, 3))
        out, _ = layer.forward(x)
        w_v = p["mhsa.Wqkv"][:, 16:]  # value block of the fused map
        e = x @ p["embed.W"] + p["embed.b"]
        expected = e @ w_v @ p["mhsa.Wo"] @ p["squeeze.W"] + p["squeeze.b"]
        assert out == pytest.approx(expected, rel=1e-12)

    def test_permutation_equivariance_over_devices(self):
        rng = np.random.default_rng(2)
        layer = MhsaLayer(3, 8, 4, 4, rng)
        x = rng.standard_normal((2, 2, 6, 3))
        out, _ = layer.forward(x)
        perm = rng.permutation(6)
        out_p, _ = layer.forward(x[:, :, perm, :])
        assert out_p == pytest.approx(out[:, :, perm, :], rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        layer = MhsaLayer(3, 8, 2, 4, rng)
        x = rng.standard_normal((2, 1, 4, 3))
        r = rng.standard_normal((2, 1, 4, 4))
        out, cache = layer.forward(x)
        grads = {}
        layer.backward(cache, r, grads)
        assert grads.keys() == layer.params.keys()
        h = 1e-5
        for name, p in layer.params.items():
            flat = p.ravel()
            for i in rng.choice(flat.size, size=min(8, flat.size),
                                replace=False):
                orig = flat[i]
                flat[i] = orig + h
                lp = float((layer.forward(x)[0] * r).sum())
                flat[i] = orig - h
                lm = float((layer.forward(x)[0] * r).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].ravel()[i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


class TestLstm:
    def test_zero_weights_and_inputs_give_zero_state(self):
        layer = LstmLayer(3, 4, np.random.default_rng(0), "l")
        for k in layer.params:
            layer.params[k][:] = 0.0
        h, _ = layer.forward(np.zeros((2, 5, 3)))
        assert (h == 0.0).all()

    def test_single_step_equals_one_cell(self):
        rng = np.random.default_rng(1)
        layer = LstmLayer(3, 4, rng, "l")
        x = rng.standard_normal((2, 1, 3))
        h, _ = layer.forward(x)
        w = layer.params["l.W"]
        b = layer.params["l.b"]
        zin = np.concatenate([x[:, 0, :], np.zeros((2, 4))], axis=1)
        z = zin @ w + b
        i = _sigmoid(z[:, :4])
        g = np.tanh(z[:, 8:12])
        o = _sigmoid(z[:, 12:])
        expected = o * np.tanh(i * g)  # zero initial cell state
        assert h == pytest.approx(expected, rel=1e-12)

    def test_tanh_form_gates_match_the_exp_form(self):
        nh = 8
        layer = LstmLayer(1, nh, np.random.default_rng(0), "l")
        grid = np.concatenate([np.linspace(-800.0, 800.0, 400_006),
                               [-1e300, 1e300]])
        z = grid.reshape(-1, nh)
        gates = np.tile(z, 4)   # the same values in every gate block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _tanh_gates(gates, layer._scale, layer._shift)
            ref = _sigmoid(z)
        i, f, g, o = (gates[:, k * nh:(k + 1) * nh] for k in range(4))
        assert np.array_equal(g, np.tanh(z))
        for sig in (i, f, o):
            assert ((sig >= 0.0) & (sig <= 1.0)).all()
            assert np.abs(sig - ref).max() <= 2.0 ** -51
        assert (i[z == -1e300] == 0.0).all() and (i[z == 1e300] == 1.0).all()

    def test_extreme_pre_activations_give_a_bounded_state(self):
        # an identity input row makes the pre-activations the inputs
        rng = np.random.default_rng(3)
        layer = LstmLayer(1, 4, rng, "l")
        layer.params["l.W"][0] = 1.0
        x = np.concatenate([np.linspace(-800.0, 800.0, 398),
                            [-1e300, 1e300]]).reshape(40, 10, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, _ = layer.forward(x)
            h_rev, _ = layer.forward(x[:, ::-1])
        for out in (h, h_rev):
            assert np.isfinite(out).all()
            assert (np.abs(out) <= 1.0).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        layer = LstmLayer(3, 4, rng, "l")
        x = rng.standard_normal((2, 3, 3))
        r = rng.standard_normal((2, 4))
        h, cache = layer.forward(x)
        grads = {}
        layer.backward(cache, r, grads)
        step = 1e-5
        for name, p in layer.params.items():
            flat = p.ravel()
            for i in rng.choice(flat.size, size=10, replace=False):
                orig = flat[i]
                flat[i] = orig + step
                lp = float((layer.forward(x)[0] * r).sum())
                flat[i] = orig - step
                lm = float((layer.forward(x)[0] * r).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * step)
                an = grads[name].ravel()[i]
                assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an), 1e-6)


def assert_close(actual, reference, rel=1e-13):
    """Whole-tensor check: the largest deviation is at most ``rel`` of
    the largest reference magnitude."""
    assert actual.shape == reference.shape
    scale = np.abs(reference).max()
    assert np.abs(actual - reference).max() <= rel * scale


def reference_lstm_forward(x, w, bias, nh):
    """Per-step LSTM on the concatenated ``[x_t, h]``: one GEMM with all of
    ``W`` per step.  Returns the final h and each step's values."""
    b, m, _ = x.shape
    h, c = np.zeros((b, nh)), np.zeros((b, nh))
    steps = []
    for t in range(m):
        zin = np.concatenate([x[:, t, :], h], axis=1)
        z = zin @ w + bias
        i, f = _sigmoid(z[:, :nh]), _sigmoid(z[:, nh:2 * nh])
        g, o = np.tanh(z[:, 2 * nh:3 * nh]), _sigmoid(z[:, 3 * nh:])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((zin, i, f, g, o, c_prev, tc))
    return h, steps


def reference_lstm_backward(steps, dh_final, w, n_in):
    """Backward of ``reference_lstm_forward``: per-step ``dW`` GEMMs and
    per-step ``dx`` slices.  Returns (dW, db, dx)."""
    b, m = dh_final.shape[0], len(steps)
    dw, db = np.zeros_like(w), np.zeros(w.shape[1])
    dx = np.zeros((b, m, n_in))
    dh, dc = dh_final, np.zeros_like(dh_final)
    for t in range(m - 1, -1, -1):
        zin, i, f, g, o, c_prev, tc = steps[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dc * g * i * (1.0 - i),
                             dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g),
                             do * o * (1.0 - o)], axis=1)
        dw += zin.T @ dz
        db += dz.sum(axis=0)
        dzin = dz @ w.T
        dx[:, t, :] = dzin[:, :n_in]
        dh = dzin[:, n_in:]
        dc = dc * f
    return dw, db, dx


class TestLstmMatchesPerStepReference:
    """The hoisted input projection and the after-loop ``dW``, ``db`` and
    ``dx`` against the concatenated per-step form, at the default
    network's LSTM size."""

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_whole_tensors_match(self, batch, reverse):
        n_in, nh = 20 * 8, 128
        rng = np.random.default_rng(batch)
        layer = LstmLayer(n_in, nh, rng, "l")
        w, bias = layer.params["l.W"], layer.params["l.b"]
        x = rng.standard_normal((batch, 5, n_in))
        if reverse:   # the backward direction reads a reversed view
            x = x[:, ::-1, :]
        dh = rng.standard_normal((batch, nh))
        h, cache = layer.forward(x)
        grads = {}
        dx = layer.backward(cache, dh, grads)
        ref_h, steps = reference_lstm_forward(x, w, bias, nh)
        ref_dw, ref_db, ref_dx = reference_lstm_backward(steps, dh, w, n_in)
        assert_close(h, ref_h)
        assert_close(grads["l.W"], ref_dw)
        assert_close(grads["l.b"], ref_db)
        assert_close(dx, ref_dx)


class UnfoldedMhsa:
    """Embedding, attention and squeeze applied layer by layer, with the
    score scale applied to the scores: the composition that ``MhsaLayer``
    folds.  It has ``MhsaLayer``'s interface, so a network can run on it
    in place of its attention layer."""

    def __init__(self, n_heads, params):
        self.h = n_heads
        self.params = params

    def forward(self, x, workspace=None):
        p = self.params
        b, m, n, _ = x.shape
        e = x @ p["embed.W"] + p["embed.b"]
        d = e.shape[-1]
        h, dh = self.h, d // self.h
        qkv = e @ p["mhsa.Wqkv"]
        # (B, M, H, N, Dh) per-head queries, keys and values
        q, k, v = (qkv[..., i * d:(i + 1) * d].reshape(b, m, n, h, dh)
                   .transpose(0, 1, 3, 2, 4) for i in range(3))
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(dh)
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 1, 3, 2, 4).reshape(b, m, n, d)
        a = ctx @ p["mhsa.Wo"]
        out = a @ p["squeeze.W"] + p["squeeze.b"]
        return out, (x, e, q, k, v, attn, ctx, a)

    def backward(self, cache, dout, grads):
        p = self.params
        x, e, q, k, v, attn, ctx, a = cache
        b, m, h, n, dh = q.shape
        d = h * dh

        def rows(t):
            return t.reshape(-1, t.shape[-1])

        grads["squeeze.W"] = rows(a).T @ rows(dout)
        grads["squeeze.b"] = rows(dout).sum(axis=0)
        da = dout @ p["squeeze.W"].T
        grads["mhsa.Wo"] = rows(ctx).T @ rows(da)
        dheads = (da @ p["mhsa.Wo"].T).reshape(b, m, n, h, dh) \
            .transpose(0, 1, 3, 2, 4)
        dattn = dheads @ v.swapaxes(-1, -2)
        dscores = (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) \
            * attn / np.sqrt(dh)
        dqkv = np.concatenate([
            t.transpose(0, 1, 3, 2, 4).reshape(b, m, n, d)
            for t in (dscores @ k, dscores.swapaxes(-1, -2) @ q,
                      attn.swapaxes(-1, -2) @ dheads)], axis=-1)
        grads["mhsa.Wqkv"] = rows(e).T @ rows(dqkv)
        de = dqkv @ p["mhsa.Wqkv"].T
        grads["embed.W"] = rows(x).T @ rows(de)
        grads["embed.b"] = rows(de).sum(axis=0)


class TestFoldedAttentionMatchesUnfolded:
    """Whole-network logits and every parameter gradient of the factored
    attention layer against ``UnfoldedMhsa``: at the default network size
    with the actor's and the critic's head, and at head widths at and
    below F+1 and device counts other than 20, which the same code path
    serves."""

    @staticmethod
    def _check(p, n_devices, out_dim, batch, rng):
        net = TsfenNetwork(p, n_devices, out_dim, rng)
        ref = copy.copy(net)   # shares every parameter array
        ref.mhsa = UnfoldedMhsa(p.n_heads, net.params)
        states = _features(rng, batch, n_devices, 5)
        dlogits = rng.standard_normal((batch, out_dim))
        logits, cache = net.forward(states)
        grads = net.backward(cache, dlogits)
        ref_logits, ref_cache = ref.forward(states)
        ref_grads = ref.backward(ref_cache, dlogits)
        assert_close(logits, ref_logits)
        assert grads.keys() == ref_grads.keys() == net.params.keys()
        for name, g in ref_grads.items():
            assert_close(grads[name], g)

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("out_dim", [20, 1])
    def test_whole_tensors_match(self, batch, out_dim):
        self._check(MappoSection(), 20, out_dim, batch,
                    np.random.default_rng(batch))

    @pytest.mark.parametrize("d_model,n_heads", [(8, 8), (16, 4), (16, 2)])
    @pytest.mark.parametrize("n_devices", [1, 7, 20])
    def test_narrow_heads_and_other_device_counts(self, d_model, n_heads,
                                                  n_devices):
        p = MappoSection(d_model=d_model, n_heads=n_heads, lstm_hidden=16,
                         fc_hidden=16)
        self._check(p, n_devices, n_devices, 4,
                    np.random.default_rng(d_model + n_devices))


class TestKeyMajorAttentionMatchesReductions:
    """``_attend`` and ``_attend_backward`` on key-major score tensors of
    the default network (8 heads, 20 devices, 5 sub-periods) against a
    softmax and a softmax backward written with ``max`` and ``sum`` over
    the key axis."""

    @staticmethod
    def _inputs(rng, batch, n=20, heads=8, f1=4):
        bm = batch * 5
        scores = 3.0 * rng.standard_normal((n, bm, n * heads))
        xb = rng.standard_normal((bm, n, f1))
        xb[..., -1] = 1.0   # the augmented input's ones column
        return scores, xb

    @staticmethod
    def _softmax(scores):
        attn = np.exp(scores - scores.max(axis=0))
        return attn / attn.sum(axis=0)

    @pytest.mark.parametrize("batch", [1, 32])
    def test_largest_weight_is_exactly_one(self, batch):
        scores, xb = self._inputs(np.random.default_rng(batch), batch)
        weights = scores.copy()
        bm, q = xb.shape[0], scores.shape[2]
        _attend(weights, xb, np.empty((bm, q, 4)), np.empty((bm * q, 1)))
        # the max is exact, so its column's exp is exp(0.0)
        assert (weights.max(axis=0) == 1.0).all()
        assert (weights.argmax(axis=0) == scores.argmax(axis=0)).all()

    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_forward(self, batch):
        scores, xb = self._inputs(np.random.default_rng(batch), batch)
        bm, q = xb.shape[0], scores.shape[2]
        attn = self._softmax(scores)
        ref_u = np.einsum("jbq,bjc->bqc", attn, xb)
        weights, u, inv_z = scores.copy(), np.empty((bm, q, 4)), \
            np.empty((bm * q, 1))
        _attend(weights, xb, u, inv_z)
        assert_close(weights * inv_z.reshape(bm, q), attn)
        assert_close(u, ref_u)

    @pytest.mark.parametrize("chunk", [1, 3, 16])
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_backward(self, batch, chunk):
        rng = np.random.default_rng(batch)
        scores, xb = self._inputs(rng, batch)
        bm, q = xb.shape[0], scores.shape[2]
        weights, u, inv_z = scores.copy(), np.empty((bm, q, 4)), \
            np.empty((bm * q, 1))
        _attend(weights, xb, u, inv_z)
        du = rng.standard_normal(u.shape)
        attn = self._softmax(scores)
        dattn = np.einsum("bjc,bqc->jbq", xb, du)
        ref = (dattn - (dattn * attn).sum(axis=0)) * attn
        out = _attend_backward(weights, xb, u, inv_z, du.copy(),
                               np.empty(bm * q), np.empty((chunk, 20, q)))
        assert out is weights   # the gradient overwrites the weights
        assert_close(out, ref)


def reference_masked_softmax(logits, mask):
    """``masked_softmax`` as a formula of whole-array ``np.where`` passes:
    the log-mask and the exp taken everywhere, the rest masked out."""
    support = mask > 0.0
    with np.errstate(divide="ignore"):
        z = np.where(support, logits + np.log(mask, where=support,
                                              out=np.zeros_like(mask)),
                     -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    raw = np.where(support, np.exp(z, where=np.isfinite(z),
                                   out=np.zeros_like(z)), 0.0)
    raw = raw / raw.sum(axis=-1, keepdims=True)
    floored = np.where(support, np.maximum(raw, PROB_FLOOR), 0.0)
    denom = floored.sum(axis=-1, keepdims=True)
    return floored / denom, (raw, floored, denom, support)


class TestMaskedSoftmax:
    @pytest.mark.parametrize("kind", ["binary", "fractional", "partly_zero"])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_matches_the_reference_formula_bit_for_bit(self, kind, batch):
        rng = np.random.default_rng(batch)
        for _ in range(50):
            logits = rng.standard_normal((batch, 20)) * 10.0 ** rng.uniform(
                -2, 2)
            if kind == "binary":
                mask = (rng.random((batch, 20)) < 0.6).astype(float)
            elif kind == "fractional":
                mask = 10.0 ** rng.uniform(-300, 0, (batch, 20))
            else:
                mask = rng.random((batch, 20)) * (rng.random((batch, 20))
                                                  < 0.5)
            mask[:, rng.integers(20)] = 1.0   # no all-zero row
            probs, cache = masked_softmax(logits, mask)
            ref_probs, ref_cache = reference_masked_softmax(logits, mask)
            assert probs.tobytes() == ref_probs.tobytes()
            assert len(cache) == len(ref_cache)
            for got, ref in zip(cache, ref_cache):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    def test_all_ones_mask_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((3, 6))
        probs, _ = masked_softmax(z, np.ones((3, 6)))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert probs == pytest.approx(e / e.sum(axis=1, keepdims=True),
                                      rel=1e-12)

    def test_zero_mask_entry_has_exactly_zero_probability(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 5))
        mask = np.ones((4, 5))
        mask[:, 2] = 0.0
        probs, _ = masked_softmax(z, mask)
        assert (probs[:, 2] == 0.0).all()
        assert probs.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)

    def test_probability_floor_applies(self):
        z = np.array([[0.0, -200.0, 0.0]])
        probs, _ = masked_softmax(z, np.ones((1, 3)))
        assert probs[0, 1] > 0.0
        assert probs[0, 1] == pytest.approx(1e-7, rel=1e-3)

    def test_fractional_mask_scales_scores(self):
        z = np.zeros((1, 2))
        probs, _ = masked_softmax(z, np.array([[1.0, 0.5]]))
        assert probs[0] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)

    def test_support_never_exceeds_mask(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.standard_normal((2, 7)) * 10
            mask = (rng.random((2, 7)) > 0.4).astype(float)
            mask[:, 0] = 1.0
            probs, _ = masked_softmax(z, mask)
            assert (probs[mask == 0.0] == 0.0).all()
            assert probs.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-12)

    def test_all_zero_mask_errors(self):
        with pytest.raises(RaceError):
            masked_softmax(np.zeros((1, 3)), np.zeros((1, 3)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 5))
        mask = np.array([[1, 1, 0, 1, 0.5], [1, 0, 1, 1, 1.0]], dtype=float)
        r = rng.standard_normal((2, 5))
        probs, cache = masked_softmax(z, mask)
        dz = masked_softmax_backward(cache, r)
        h = 1e-6
        for i in range(2):
            for j in range(5):
                zp = z.copy(); zp[i, j] += h
                zm = z.copy(); zm[i, j] -= h
                lp = float((masked_softmax(zp, mask)[0] * r).sum())
                lm = float((masked_softmax(zm, mask)[0] * r).sum())
                fd = (lp - lm) / (2 * h)
                assert abs(fd - dz[i, j]) <= 1e-5 * max(abs(fd), 1e-6)


class TestNetworkGradients:
    def test_full_policy_gradient_check(self):
        rng = np.random.default_rng(0)
        net = TsfenNetwork(SMALL, 4, 4, rng)
        # realistic (drift, gain, age) states: the fixed conditioning maps
        # them to inputs of about 1, so attention and LSTM gates stay
        # unsaturated and their gradients are worth checking
        states = _states(rng, 3, 4, 2)
        mask = np.ones((3, 4))
        mask[0, 1] = 0.0
        r = rng.standard_normal((3, 4))
        probs, caches = net.policy(states, mask)
        grads = net.policy_backward(caches, r.copy())
        # the largest query/key entry of the fused attention map is always
        # checked, and must be well above the 1e-6 floor below
        d = SMALL.d_model
        qk = np.abs(grads["mhsa.Wqkv"][:, :2 * d])
        qk_row, qk_col = np.unravel_index(qk.argmax(), qk.shape)
        assert qk[qk_row, qk_col] > 1e-4
        h = 1e-5
        worst = 0.0
        for name, p in net.params.items():
            flat = p.ravel()
            picks = rng.choice(flat.size, size=min(6, flat.size),
                               replace=False)
            if name == "mhsa.Wqkv":
                picks = np.append(picks, qk_row * p.shape[1] + qk_col)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                lp = float((net.policy(states, mask)[0] * r).sum())
                flat[i] = orig - h
                lm = float((net.policy(states, mask)[0] * r).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].ravel()[i]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst <= 1e-4

    def test_preprocess_is_fixed_and_finite(self):
        states = np.zeros((1, 2, 3, 3))
        states[..., 0] = 0.2            # drift
        states[..., 1] = 1e13           # raw gain spans huge magnitudes
        states[..., 2] = 0.5            # age
        out = TsfenNetwork.preprocess(states)
        assert np.isfinite(out).all()
        assert np.abs(out).max() < 10.0


def _states(rng, batch, n_devices, history):
    shape = (batch, history, n_devices)
    return np.stack([rng.uniform(0.0, 0.5, shape),
                     10.0 ** rng.uniform(8.0, 16.0, shape),
                     rng.uniform(0.0, 5.0, shape)], axis=-1)


def _features(rng, batch, n_devices, history):
    """``_states`` as ``TsfenNetwork.forward`` reads them."""
    return TsfenNetwork.preprocess(_states(rng, batch, n_devices, history))


class TestWorkspace:
    def test_shared_workspace_gives_the_same_bits_at_every_batch(self):
        rng = np.random.default_rng(7)
        net = TsfenNetwork(MappoSection(), 20, 20, rng)
        ws = Workspace()
        for batch in (32, 4, 1):   # smaller batches reuse the grown buffers
            states = _features(rng, batch, 20, 5)
            dlogits = rng.standard_normal((batch, 20))
            logits, cache = net.forward(states)
            grads = net.backward(cache, dlogits)
            logits_ws, cache_ws = net.forward(states, ws)
            grads_ws = net.backward(cache_ws, dlogits)
            assert logits_ws.tobytes() == logits.tobytes()
            assert grads_ws.keys() == grads.keys()
            for name, g in grads.items():
                assert grads_ws[name].tobytes() == g.tobytes(), name

    def test_backward_after_a_later_forward_raises(self):
        rng = np.random.default_rng(8)
        net = TsfenNetwork(SMALL, 4, 4, rng)
        ws = Workspace()
        logits_a, cache_a = net.forward(_features(rng, 3, 4, 2), ws)
        logits_b, cache_b = net.forward(_features(rng, 3, 4, 2), ws)
        with pytest.raises(RaceError, match="stale"):
            net.backward(cache_a, np.ones_like(logits_a))
        net.backward(cache_b, np.ones_like(logits_b))

    def test_repeated_steps_allocate_no_new_buffer(self):
        rng = np.random.default_rng(9)
        net = TsfenNetwork(SMALL, 4, 4, rng)
        ws = Workspace()

        def step(batch):
            logits, cache = net.forward(_features(rng, batch, 4, 2), ws)
            net.backward(cache, np.ones_like(logits))

        step(8)
        grown = ws.allocations
        assert grown > 0
        for batch in (8, 5, 1, 8):
            step(batch)
        assert ws.allocations == grown

    def test_returned_output_survives_a_later_forward(self):
        rng = np.random.default_rng(10)
        layer = MhsaLayer(3, 8, 2, 4, rng)
        ws = Workspace()
        out, _ = layer.forward(rng.standard_normal((2, 3, 5, 3)), ws)
        kept = out.copy()
        layer.forward(rng.standard_normal((2, 3, 5, 3)), ws)
        assert out.tobytes() == kept.tobytes()


class TestAdam:
    def test_zero_gradient_from_fresh_state_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert (params["w"] == np.array([1.0, -2.0])).all()

    def test_moments_decay_under_zero_gradient(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([2.0])}, state, lr=1e-3)
        m1 = state.m["w"].copy()
        adam_step(params, {"w": np.array([0.0])}, state, lr=1e-3)
        assert state.m["w"] == pytest.approx(0.9 * m1, rel=1e-15)

    def test_single_scalar_step_matches_hand_computation(self):
        g = 0.37
        lr = 1e-2
        params = {"w": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([g])}, state, lr=lr)
        # first step from zero moments: m_hat = g, v_hat = g^2
        expected = 1.0 - lr * g / (abs(g) + 1e-8)
        assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_two_runs_are_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            params = {"w": rng.standard_normal(8)}
            state = adam_init(params)
            for _ in range(50):
                adam_step(params, {"w": rng.standard_normal(8)}, state,
                          lr=1e-3)
            return params["w"]
        assert (run() == run()).all()


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        net = TsfenNetwork(SMALL, 4, 4, rng)
        path = tmp_path / "ckpt.bin"
        save_params(path, net.params, meta={"note": "round-trip"})
        loaded, meta = load_params(path)
        assert meta == {"note": "round-trip"}
        assert set(loaded) == set(net.params)
        for k in net.params:
            assert (loaded[k] == net.params[k]).all()

    def test_layered_checkpoint_gives_its_logits(self):
        # an actor and a critic saved by the layer-by-layer network (embed,
        # attention and squeeze applied one after another), with the
        # logits that network gave on four states drawn from
        # ``states_seed``; the folded layer reads the same parameters
        params, meta = load_params(DATA / "tsfen_layered.bin")
        shape = meta["network"]
        sizes = MappoSection(**{k: shape[k] for k in (
            "d_model", "n_heads", "squeeze_dim", "lstm_hidden", "fc_hidden")})
        n = shape["n_devices"]
        states = _features(np.random.default_rng(meta["states_seed"]), 4,
                           n, shape["history"])
        for head, out_dim in (("actor", n), ("critic", 1)):
            net = TsfenNetwork(sizes, n, out_dim, np.random.default_rng(0))
            for name, p in net.params.items():
                assert params[f"{head}.{name}"].shape == p.shape
                p[...] = params[f"{head}.{name}"]
            logits, _ = net.forward(states)
            assert_close(logits, np.array(meta["logits"][head]))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        net = TsfenNetwork(SMALL, 4, 4, rng)
        path = tmp_path / "ckpt.bin"
        save_params(path, net.params)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CheckpointError):
            load_params(path)

    @pytest.mark.parametrize("field,value", [
        ("dtype", "float32"), ("dtype", None), ("byte_order", "big"),
        ("byte_order", None)])
    def test_header_of_another_dtype_or_byte_order_rejected(
            self, tmp_path, field, value):
        # the payload stays little-endian float64; only the header lies
        net = TsfenNetwork(SMALL, 4, 4, np.random.default_rng(2))
        path = tmp_path / "ckpt.bin"
        save_params(path, net.params)
        data = path.read_bytes()
        end = 12 + struct.unpack("<I", data[8:12])[0]
        header = json.loads(data[12:end])
        if value is None:
            del header[field]
        else:
            header[field] = value
        blob = json.dumps(header).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                         + data[end:])
        called = []
        with pytest.raises(CheckpointError, match="little-endian float64"):
            load_params(path, into=lambda *args: called.append(args))
        assert called == []


def test_network_takes_its_sizes_from_the_mappo_section():
    p = MappoSection(d_model=12, n_heads=3, squeeze_dim=2, lstm_hidden=5,
                     fc_hidden=6)
    net = TsfenNetwork(p, 7, 9, np.random.default_rng(0))
    shapes = {name: w.shape for name, w in net.params.items()}
    assert shapes["embed.W"] == (3, 12)
    assert shapes["mhsa.Wqkv"] == (12, 36)
    assert shapes["squeeze.W"] == (12, 2)
    assert shapes["lstm_fwd.W"] == shapes["lstm_bwd.W"] == (7 * 2 + 5, 20)
    assert shapes["fc1.W"] == (10, 6)
    assert shapes["fc2.W"] == (6, 9)


@contextlib.contextmanager
def _blas_at_one_thread():
    old = blas.threads()
    blas.set_threads(1)
    try:
        yield
    finally:
        blas.set_threads(old)


@pytest.fixture
def worker():
    """An open ``two_threads`` scope whose worker runs; skips where
    OpenBLAS is not found or one CPU is usable, since the scope then
    runs everything inline."""
    with tsfen.two_threads():
        if tsfen._worker is None:
            pytest.skip("no worker: OpenBLAS not found or a single CPU")
        yield tsfen._worker


class TestTwoThreads:
    """The pair runner: a PPO update's batch>1 steps split their halves
    between the caller and one worker thread, with the same bytes as the
    inline run."""

    @staticmethod
    def _steps(net, opt, states, dlogits):
        """Two forward, backward and Adam steps on one workspace, at
        batch 32; every logit and gradient of both."""
        ws = Workspace()
        out = []
        for rows in (slice(0, 32), slice(32, 64)):
            logits, cache = net.forward(states[rows], ws)
            grads = net.backward(cache, dlogits[rows])
            out.append((logits.copy(), {k: g.copy()
                                        for k, g in grads.items()}))
            adam_step(net.params, grads, opt, 1e-3)
        return out

    @pytest.mark.parametrize("out_dim", [20, 1], ids=["actor", "critic"])
    def test_worker_and_inline_give_the_same_bytes(self, worker, out_dim):
        rng = np.random.default_rng(out_dim)
        net = TsfenNetwork(MappoSection(), 20, out_dim, rng)
        states = _features(rng, 64, 20, 5)
        dlogits = rng.standard_normal((64, out_dim))
        runs = []
        for threaded in (True, False):
            copy_net = copy.deepcopy(net)
            opt = adam_init(copy_net.params)
            if threaded:
                steps = self._steps(copy_net, opt, states, dlogits)
            else:
                with _blas_at_one_thread():
                    tsfen._worker = None   # restored by the fixture
                    steps = self._steps(copy_net, opt, states, dlogits)
                    tsfen._worker = worker
            runs.append((copy_net.params, opt, steps))
        (params, opt, steps), (params_i, opt_i, steps_i) = runs
        assert opt.step == opt_i.step == 2
        for (logits, grads), (logits_i, grads_i) in zip(steps, steps_i):
            assert logits.tobytes() == logits_i.tobytes()
            assert list(grads) == list(grads_i)
            assert grads.keys() == net.params.keys()
            for k in grads:
                assert grads[k].tobytes() == grads_i[k].tobytes(), k
        for k in net.params:
            assert params[k].tobytes() == params_i[k].tobytes(), k
            assert opt.m[k].tobytes() == opt_i.m[k].tobytes(), k
            assert opt.v[k].tobytes() == opt_i.v[k].tobytes(), k
            assert params[k].tobytes() != net.params[k].tobytes(), k

    @pytest.mark.parametrize("head", ["actor", "critic"])
    def test_diverged_network_raises_race_error_and_no_warning(
            self, worker, head):
        # the backward LSTM direction, on the worker, overflows; the
        # forward's errstate must reach it there
        rng = np.random.default_rng(3)
        net = TsfenNetwork(MappoSection(), 20, 20 if head == "actor" else 1,
                           rng)
        net.params["lstm_bwd.W"][...] = 1e308 * np.sign(
            rng.standard_normal(net.params["lstm_bwd.W"].shape))
        states = _states(rng, 32, 20, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RaceError, match="diverged"):
                if head == "actor":
                    net.policy(states, np.ones((32, 20)), Workspace())
                else:
                    _critic_step(net, adam_init(net.params), 1e-3, states,
                                 np.zeros(32), Workspace())

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_exception_is_raised_after_both_halves_finish(self, worker,
                                                          failing):
        finished = threading.Event()

        def fails():
            raise KeyError("half")

        def slow():
            time.sleep(0.2)
            finished.set()

        first, second = (fails, slow) if failing == "first" \
            else (slow, fails)
        with pytest.raises(KeyError, match="half"):
            tsfen._pair(first, second)
        assert finished.is_set()

    def test_second_half_runs_on_the_worker(self, worker):
        names = tsfen._pair(lambda: threading.current_thread().name,
                            lambda: threading.current_thread().name)
        assert names[0] == threading.current_thread().name != names[1]
        # a batch-1 step, or a pair that asks for it, stays inline
        assert tsfen._pair(threading.current_thread, threading.current_thread,
                           parallel=False) \
            == (threading.current_thread(),) * 2

    def test_scope_pins_blas_to_one_thread_and_restores_it(self):
        old = blas.threads()
        if old is None:
            pytest.skip("OpenBLAS not found")
        with pytest.raises(ValueError):
            with tsfen.two_threads():
                inside = blas.threads()
                raise ValueError
        assert inside == (1 if len(os.sched_getaffinity(0)) > 1 else old)
        assert blas.threads() == old
        assert tsfen._worker is None

    @pytest.mark.parametrize("missing", ["blas", "cpu"])
    def test_without_blas_or_a_second_cpu_the_pair_runs_inline(
            self, monkeypatch, missing):
        if missing == "blas":
            monkeypatch.setattr(blas, "threads", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        old = blas.threads()
        with tsfen.two_threads():
            assert tsfen._worker is None
            assert blas.threads() == old
            here = threading.current_thread()
            assert tsfen._pair(threading.current_thread,
                               threading.current_thread) == (here, here)
