"""Numeric verification of the convergence theory on small instances.

Everything runs on instrumented quadratic (or quadratic-plus-cosine)
multi-device problems where the smoothness and gradient-dominance
constants are certified eigenvalue computations, optima are solvable in
closed form (or by dense grid plus descent polish), and expectations over
random device subsets are exhaustive enumerations over all k-subsets.

Conventions: the sampled-gradient estimator is (1/k) sum_{n in S} w_n
grad f_n and the full-set reference gradient is (1/N) sum_n w_n grad f_n, with
w_n the per-device sample counts; the default instances use unit
counts, for which the deviation bound holds with equality.
"""

import functools
import itertools
import logging
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import RaceError
from .fl_engine import adaptive_threshold

log = logging.getLogger(__name__)

_PAIR = struct.Struct("<2d")   # the bits of a 2-D point


class _DeviceProblem:
    """What the test problems share: sample ``counts``, the matrices A_n
    and the count-weighted full-set gradient."""

    @property
    def n_devices(self):
        return len(self.counts)

    def mean_matrix(self):
        """Count-weighted mean of the A_n."""
        return np.einsum("n,nij->ij", self.counts,
                         self.matrices) / self.n_devices

    def global_gradient(self, w, grads=None):
        """(1/N) sum_n w_n grad f_n at w; pass ``grads`` if already known."""
        if grads is None:
            grads = self.device_gradients(w)
        return np.einsum("n,n...i->...i", self.counts, grads) / self.n_devices


@dataclass
class QuadraticTestProblem(_DeviceProblem):
    """Per-device losses f_n(w) = 0.5 (w - c_n)^T A_n (w - c_n)."""

    matrices: np.ndarray      # (N, d, d), symmetric positive definite
    centers: np.ndarray       # (N, d)
    counts: np.ndarray        # (N,) device sample counts

    def __post_init__(self):
        hess = self.mean_matrix()
        eigs = np.linalg.eigvalsh(hess)
        if eigs.min() <= 0:
            raise RaceError("average Hessian must be positive definite")
        self.smoothness = float(eigs.max())        # L
        self.pl_constant = float(eigs.min())       # gradient dominance
        rhs = np.einsum("n,nij,nj->i", self.counts, self.matrices,
                        self.centers) / len(self.counts)
        self.w_star = np.linalg.solve(hess, rhs)

    @property
    def dim(self):
        return self.centers.shape[1]

    def _offsets(self, w):
        """w - c_n per device, (N, d) or (N, B, d) for a batch of w."""
        w = np.asarray(w)
        return w[None, ...] - (self.centers[:, None, :] if w.ndim == 2
                               else self.centers)

    def device_gradients(self, w):
        """Raw per-device gradients at w (or a batch of w)."""
        return np.einsum("nij,n...j->n...i", self.matrices, self._offsets(w))

    def global_loss(self, w):
        diff = self._offsets(w)
        quad = np.einsum("n...i,nij,n...j->n...", diff, self.matrices, diff)
        return np.einsum("n,n...->...", self.counts, quad) \
            / (2.0 * self.n_devices)


def _random_spd(rng, n_devices, dim, eig_range):
    """(n_devices, dim, dim) random rotations of uniform spectra."""
    mats = np.empty((n_devices, dim, dim))
    for n in range(n_devices):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(*eig_range, size=dim)
        mats[n] = (q * eigs) @ q.T
    return mats


def random_quadratic_problem(rng, n_devices=6, dim=4, counts=None,
                             eig_range=(0.5, 3.0),
                             center_spread=2.0) -> QuadraticTestProblem:
    mats = _random_spd(rng, n_devices, dim, eig_range)
    centers = center_spread * rng.standard_normal((n_devices, dim))
    if counts is None:
        counts = np.ones(n_devices)
    return QuadraticTestProblem(matrices=mats, centers=centers,
                                counts=np.asarray(counts, dtype=np.float64))


@functools.lru_cache(maxsize=256)
def _subset_matrix(n, k, pool):
    """(S, n) read-only averaging matrix, one row per k-subset of
    ``pool`` (a tuple of device indices); built once per arguments."""
    subsets = list(itertools.combinations(pool, k))
    m = np.zeros((len(subsets), n))
    for row, s in enumerate(subsets):
        m[row, list(s)] = 1.0 / k
    m.flags.writeable = False
    return m


def _sample_subsets(rng, n_traj, n, k):
    return np.argsort(rng.random((n_traj, n)), axis=1)[:, :k]


def _sampled_step(problem, grads, rng, k):
    """Mean weighted gradient over one sampled k-subset per trajectory;
    ``grads`` is (N, B, d)."""
    n_traj = grads.shape[1]
    y = problem.counts[:, None, None] * grads
    picks = _sample_subsets(rng, n_traj, problem.n_devices, k)   # (B, k)
    return y[picks, np.arange(n_traj)[:, None], :].mean(axis=1)


def deviation_bound(problem: QuadraticTestProblem, w, k: int) -> float:
    """Closed-form bound on E|e|^2 at model(s) w for k-subsets."""
    n = problem.n_devices
    grads = problem.device_gradients(w)
    ref = problem.global_gradient(w, grads)
    sq = ((grads - ref) ** 2).sum(axis=-1)
    weighted = np.einsum("n,n...->...", problem.counts ** 2, sq)
    zbar = problem.counts.mean()
    if k == n:
        return np.zeros_like(weighted) if np.ndim(weighted) else 0.0
    return (1.0 - k / n) * weighted / (k * (n - 1) * zbar ** 2)


def deviation_exact(problem, w, k: int, grads=None, pool=None) -> float:
    """Exact E|e|^2 at model(s) w by enumerating every k-subset of
    ``pool`` (default: all devices) against the full-set reference;
    pass ``grads`` if the device gradients at w are already known."""
    if grads is None:
        grads = problem.device_gradients(w)      # (N, ..., d)
    y = problem.counts.reshape(-1, *([1] * (grads.ndim - 1))) * grads
    ybar = y.mean(axis=0)
    n = problem.n_devices
    m = _subset_matrix(n, k, tuple(map(
        int, range(n) if pool is None else pool)))   # (S, N)
    est = np.tensordot(m, y, axes=(1, 0))        # (S, ..., d)
    dev = ((est - ybar[None]) ** 2).sum(axis=-1)
    return dev.mean(axis=0)


def deviation_monte_carlo(problem, w, k, n_draws, rng) -> tuple:
    """(mean, standard error) of |e|^2 over sampled k-subsets."""
    grads = problem.device_gradients(w)
    y = problem.counts[:, None] * grads
    ybar = y.mean(axis=0)
    picks = _sample_subsets(rng, n_draws, problem.n_devices, k)
    est = y[picks].mean(axis=1)
    sq = ((est - ybar) ** 2).sum(axis=-1)
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(n_draws))


@dataclass
class Lemma3Result:
    empirical: float
    bound: float
    holds: bool


def verify_lemma3(problem: QuadraticTestProblem, k: int,
                  w: np.ndarray) -> Lemma3Result:
    """Exhaustive deviation second moment against the closed-form bound."""
    emp = float(deviation_exact(problem, w, k))
    bnd = float(deviation_bound(problem, w, k))
    holds = emp <= bnd * (1.0 + 1e-9) + 1e-15
    return Lemma3Result(empirical=emp, bound=bnd, holds=holds)


@dataclass
class BoundTrace:
    rounds: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    holds: bool
    extra: dict = field(default_factory=dict)


def _descent(problem: QuadraticTestProblem, k, rounds, n_traj, rng, w0):
    """Partial-participation descent from w0 over ``n_traj`` sampled
    trajectories.  Returns per-round (empirical mean optimality gap,
    bound with the enumerated deviation moment, bound with the
    worst-case heterogeneity)."""
    rng = rng or np.random.default_rng(0)
    n = problem.n_devices
    lr = 1.0 / problem.smoothness
    contraction = 1.0 - problem.pl_constant / problem.smoothness
    if w0 is None:
        w0 = problem.w_star + rng.standard_normal(problem.dim)
    w = np.tile(np.asarray(w0, dtype=np.float64), (n_traj, 1))
    f_star = float(problem.global_loss(problem.w_star))
    gap0 = float(problem.global_loss(np.asarray(w0))) - f_star
    zbar = problem.counts.mean()

    emp = np.empty(rounds)
    bnd_enum = np.empty(rounds)
    bnd_worst = np.empty(rounds)
    noise_enum = 0.0
    noise_worst = 0.0
    for t in range(rounds):
        grads = problem.device_gradients(w)          # (N, B, d)
        dev_sq = float(np.mean(deviation_exact(problem, w, k, grads)))
        ref = problem.global_gradient(w, grads)
        sq = ((grads - ref) ** 2).sum(axis=-1)
        # worst-case divergence, averaged over the trajectory ensemble
        gamma_sq = float((problem.counts[:, None] ** 2 * sq).max(axis=0)
                         .mean())
        term = ((1.0 - k / n) * gamma_sq / (k * zbar ** 2)) if k < n else 0.0
        noise_enum = contraction * noise_enum + dev_sq
        noise_worst = contraction * noise_worst + term
        decay = contraction ** (t + 1) * gap0
        bnd_enum[t] = decay + noise_enum / (2.0 * problem.smoothness)
        bnd_worst[t] = decay + noise_worst / (2.0 * problem.smoothness)
        w = w - lr * _sampled_step(problem, grads, rng, k)
        emp[t] = float(problem.global_loss(w).mean()) - f_star
    return emp, bnd_enum, bnd_worst


def verify_theorem4(problem: QuadraticTestProblem, k: int, rounds: int = 200,
                    n_traj: int = 1000, rng=None, w0=None) -> BoundTrace:
    """Partial-participation descent against the contraction-plus-noise
    bound, with the per-round deviation moment enumerated exactly."""
    emp, bnd, _ = _descent(problem, k, rounds, n_traj, rng, w0)
    holds = bool((emp <= bnd * (1.0 + 1e-9) + 1e-12).all())
    return BoundTrace(rounds=np.arange(1, rounds + 1), empirical=emp,
                      bound=bnd, holds=holds)


def verify_theorem5(problem: QuadraticTestProblem, k: int, rounds: int = 100,
                    n_traj: int = 500, rng=None, w0=None) -> BoundTrace:
    """Heterogeneity-form bound: validity and ordering against the
    enumerated-deviation bound of the convergence theorem."""
    emp, bnd4, bnd5 = _descent(problem, k, rounds, n_traj, rng, w0)
    valid = bool((emp <= bnd5 * (1.0 + 1e-9) + 1e-12).all())
    ordered = bool((bnd5 >= bnd4 * (1.0 - 1e-12) - 1e-15).all())
    return BoundTrace(rounds=np.arange(1, rounds + 1), empirical=emp,
                      bound=bnd5, holds=valid and ordered,
                      extra={"bound4": bnd4, "ordered": ordered})


@dataclass
class NonconvexProblem(_DeviceProblem):
    """Per-device smooth nonconvex losses: quadratic plus cosine ripple.

    f_n(w) = 0.5 w^T A_n w + amp_n * cos(b_n . w + phase_n); globally
    L-smooth with L <= lam_max(mean A) + mean(amp |b|^2).  The grid
    search's lower bound needs finite counts >= 0, symmetric positive
    semidefinite A_n and finite ripple parameters; anything else raises
    ``RaceError``.
    """

    matrices: np.ndarray        # (N, d, d), symmetric positive semidefinite
    ripple_dirs: np.ndarray     # (N, d)
    ripple_amps: np.ndarray     # (N,)
    phases: np.ndarray          # (N,)
    counts: np.ndarray          # (N,) device sample counts, >= 0

    def __post_init__(self):
        if not (np.isfinite(self.counts).all() and (self.counts >= 0).all()):
            raise RaceError("sample counts must be finite and >= 0")
        mats = self.matrices
        if not np.isfinite(mats).all():
            raise RaceError("each A_n must be finite")
        # _random_spd's products leave A_n asymmetric by up to an ulp
        trans = mats.swapaxes(-1, -2)
        tol = 4.0 * np.finfo(np.float64).eps \
            * np.abs(mats).max(axis=(-2, -1), keepdims=True)
        if not ((np.abs(mats - trans) <= tol).all()
                and (np.linalg.eigvalsh(0.5 * (mats + trans)) >= 0).all()):
            raise RaceError("each A_n must be symmetric (to rounding) and "
                            "positive semidefinite")
        if not all(np.isfinite(x).all() for x in
                   (self.ripple_dirs, self.ripple_amps, self.phases)):
            raise RaceError("ripple parameters must be finite")
        ripple = float(np.mean(self.counts * np.abs(self.ripple_amps)
                               * (self.ripple_dirs ** 2).sum(axis=1)))
        self.smoothness = \
            float(np.linalg.eigvalsh(self.mean_matrix()).max()) + ripple

    def _ripple(self, w):
        """(amp_n, b_n . w + phase_n), each (N, ...) for w of shape (..., d)."""
        lead = (-1, *([1] * (w.ndim - 1)))
        phase = np.einsum("ni,...i->n...", self.ripple_dirs, w)
        return (self.ripple_amps.reshape(lead),
                phase + self.phases.reshape(lead))

    def device_gradients(self, w):
        w = np.asarray(w)
        lin = np.einsum("nij,...j->n...i", self.matrices, w)
        amp, phase = self._ripple(w)
        return lin - (amp * np.sin(phase))[..., None] * \
            self.ripple_dirs.reshape(self.n_devices,
                                     *([1] * (w.ndim - 1)), -1)

    def global_loss(self, w):
        w = np.asarray(w)
        return self._loss_at([w[..., i] for i in range(w.shape[-1])])

    def _loss_at(self, x):
        """(1/N) sum_n w_n f_n at the points whose i-th coordinates are
        ``x[i]``; the ``x[i]`` broadcast against each other, so a grid can
        pass a column and a row.

        Each device's terms are formed elementwise in the order of the
        einsums ``...i,nij,...j->n...`` and ``ni,...i->n...``: products
        ``(w_i a_ij) w_j`` summed from 0 over (i, j) in row-major order,
        then ``b_i w_i`` summed from 0 over i, plus the phase.  The
        reduction over devices stays an einsum: for a single point a plain
        loop sums in another order.
        """
        dim = range(len(x))
        quad = np.empty((self.n_devices,
                         *np.broadcast_shapes(*map(np.shape, x))))
        phase = np.empty_like(quad)
        for n, (a, b) in enumerate(zip(self.matrices.tolist(),
                                       self.ripple_dirs.tolist())):
            quad[n] = sum((x[i] * a[i][j]) * x[j] for i in dim for j in dim)
            phase[n] = sum(b[i] * x[i] for i in dim) + self.phases[n]
        amp = self.ripple_amps.reshape(-1, *([1] * (quad.ndim - 1)))
        vals = 0.5 * quad + amp * np.cos(phase)
        return np.einsum("n,n...->...", self.counts, vals) / self.n_devices


def random_nonconvex_problem(rng, n_devices=4, dim=2) -> NonconvexProblem:
    return NonconvexProblem(
        matrices=_random_spd(rng, n_devices, dim, (0.8, 2.0)),
        ripple_dirs=rng.uniform(-1.5, 1.5, size=(n_devices, dim)),
        ripple_amps=rng.uniform(0.2, 0.8, size=n_devices),
        phases=rng.uniform(0, 2 * np.pi, size=n_devices),
        counts=np.ones(n_devices),
    )


def _polish(problem: NonconvexProblem, w0: float, w1: float) -> np.ndarray:
    """2000 gradient steps of size 0.5 / L from (w0, w1) on Python
    floats, with the arithmetic of ``w - lr * global_gradient(w)``: each
    device's gradient in the order of its einsums, then the devices
    summed in index order from 0.0.

    A step depends only on (w0, w1), so once one returns the same bits
    every later step would too, and the loop stops there."""
    lr = 0.5 / problem.smoothness
    n_dev = problem.n_devices
    devices = list(zip(problem.counts.tolist(), problem.matrices.tolist(),
                       problem.ripple_dirs.tolist(),
                       problem.ripple_amps.tolist(), problem.phases.tolist()))
    for _ in range(2000):
        g0 = g1 = 0.0
        for count, ((a00, a01), (a10, a11)), (b0, b1), amp, phase in devices:
            s = amp * math.sin(b0 * w0 + b1 * w1 + phase)
            g0 = g0 + count * (a00 * w0 + a01 * w1 - s * b0)
            g1 = g1 + count * (a10 * w0 + a11 * w1 - s * b1)
        step = (w0 - lr * (g0 / n_dev), w1 - lr * (g1 / n_dev))
        # equal values may still differ in the sign of a zero
        if step == (w0, w1) and _PAIR.pack(*step) == _PAIR.pack(w0, w1):
            break
        w0, w1 = step
    return np.array([w0, w1])


def _band_bounds(problem: NonconvexProblem, lo, hi):
    """Lower bounds of the loss over the rectangles [lo_b, hi_b] x
    [-4, 4] of (w_0, w_1), and the rounding margin they are compared
    with (see ``_grid_minimizer``)."""
    edge = np.clip(0.0, lo, hi)                     # (B,) w_0 nearest 0
    (a00, a01), (a10, a11) = problem.mean_matrix()
    s = -0.5 * (a01 + a10) * edge
    inner = np.abs(s) < 4.0 * a11          # stationary point inside
    w1 = np.where(inner, s / (a11 if a11 > 0 else 1.0), 4.0 * np.sign(s))
    quad = edge * (a00 * edge + (a01 + a10) * w1) + a11 * w1 * w1
    amp = np.abs(problem.ripple_amps)
    n_dev = problem.n_devices
    bound = 0.5 * quad - problem.counts @ amp / n_dev
    scale = problem.counts @ (
        8.0 * np.abs(problem.matrices).sum(axis=(1, 2))
        + amp * (1.0 + 4.0 * np.abs(problem.ripple_dirs).sum(axis=1)
                 + np.abs(problem.phases))) / n_dev
    return bound, 4.0 * (n_dev + 16) * np.finfo(np.float64).eps * scale


def _grid_minimizer(problem: NonconvexProblem):
    """Dense 801 x 801 grid over [-4, 4]^2 plus descent polish from its
    best point: (polished point, grid minimum value).

    The grid is split into bands of 20 rows (w_0 values) by all 801
    columns (w_1 values), each evaluated by one ``_loss_at`` call, so
    each device's temporaries stay cache-sized.  A band's values are
    bounded below by 0.5 q - (1/N) sum_n c_n |amp_n|, where q is the
    minimum of w^T A w over the band's rectangle and A = (1/N) sum_n
    c_n A_n (at least the sum of the per-device minima).  A is positive
    semidefinite, so q lies at the band's w_0 nearest 0 (0 when the band
    holds w_0 = 0), with w_1 at the stationary point -s w_0 / a_11
    (s = (a_01 + a_10) / 2) clipped to [-4, 4].

    Bands are evaluated in increasing bound order (a stable sort), and
    the search stops at the first band whose bound exceeds the best
    value so far by ``margin = 4 (N + 16) eps M``.  Here eps is float64's
    machine epsilon and M = (1/N) sum_n c_n (8 sum_ij |a_n,ij| + |amp_n|
    (1 + 4 sum_i |b_n,i| + |phase_n|)) bounds the size of the loss's
    terms on the grid.  The rounding error of a bound and that of a
    ``_loss_at`` value (its cosine within 4 ulps) are each under
    (N + 16) eps M, so every skipped point's value lies strictly above
    the kept one.  Among equal values the lowest row-major grid index
    wins, as ``np.argmin`` over the whole grid picks, so the point and
    the value are the exhaustive search's bit for bit.
    """
    if problem.matrices.shape[-1] != 2:
        raise RaceError("grid search implemented for 2-D problems")
    xs = np.linspace(-4.0, 4.0, 801)
    rows = 20
    starts = np.arange(0, xs.size, rows)
    bound, margin = _band_bounds(
        problem, xs[starts], xs[np.minimum(starts + rows, xs.size) - 1])
    best = (np.inf, xs.size ** 2)            # (value, row-major index)
    for b in np.argsort(bound, kind="stable"):
        if bound[b] > best[0] + margin:
            break
        r = int(starts[b])
        band = problem._loss_at([xs[r:r + rows, None], xs])
        j = int(np.argmin(band))
        best = min(best, (band.flat[j], r * xs.size + j))
    k = best[1]
    w = _polish(problem, float(xs[k // xs.size]), float(xs[k % xs.size]))
    return w, best[0]


def certified_minimum(problem: NonconvexProblem) -> float:
    """Global minimum value via dense 2-D grid plus descent polish: the
    smaller of the grid minimum and the loss at the polished point.  The
    grid search skips bands whose quadratic lower bound exceeds its best
    value by a rounding margin, and breaks ties to the lowest grid
    index, so both match the exhaustive grid's (see
    ``_grid_minimizer``)."""
    w, grid_min = _grid_minimizer(problem)
    return float(min(grid_min, problem.global_loss(w)))


def verify_theorem9(problem: NonconvexProblem, k: int, rounds: int = 100,
                    n_traj: int = 400, rng=None, w0=None) -> BoundTrace:
    """Stationary-point bound without gradient dominance."""
    rng = rng or np.random.default_rng(0)
    lr = 1.0 / problem.smoothness
    if w0 is None:
        w0 = rng.standard_normal(problem.matrices.shape[-1])
    f_star = certified_minimum(problem)
    f0 = float(problem.global_loss(np.asarray(w0)))
    w = np.tile(np.asarray(w0, dtype=np.float64), (n_traj, 1))

    grad_sq = np.empty(rounds)
    noise = np.empty(rounds)
    for t in range(rounds):
        grads = problem.device_gradients(w)
        ref = problem.global_gradient(w, grads)
        grad_sq[t] = float((ref ** 2).sum(axis=-1).mean())
        noise[t] = float(np.mean(deviation_exact(problem, w, k, grads)))
        w = w - lr * _sampled_step(problem, grads, rng, k)
    lhs = grad_sq.min()
    rhs = (2.0 * problem.smoothness * (f0 - f_star) + noise.sum()) / rounds
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return BoundTrace(rounds=np.arange(1, rounds + 1), empirical=grad_sq,
                      bound=np.full(rounds, rhs), holds=bool(holds),
                      extra={"min_grad_sq": float(lhs), "rhs": float(rhs)})


@dataclass
class AdaptiveThresholdResult:
    rounds_checked: int
    rounds_skipped: int
    ratios: np.ndarray
    holds: bool


def verify_theorem7(problem: QuadraticTestProblem, k: int, rounds: int = 50,
                    lam_min: float = None, lam_max: float = None,
                    adapt_rate: float = 1.0, rng=None,
                    w0=None) -> AdaptiveThresholdResult:
    """Adaptive-threshold eligibility: set inclusion, participation ratio,
    and the enumerated deviation inequality, on one shared trajectory."""
    rng = rng or np.random.default_rng(0)
    lr = 1.0 / problem.smoothness
    if w0 is None:
        w0 = problem.w_star + rng.standard_normal(problem.dim)
    w = np.asarray(w0, dtype=np.float64).copy()
    g0 = float(np.linalg.norm(problem.global_gradient(w)))
    if g0 == 0:
        raise RaceError("degenerate start: zero initial gradient")

    # calibrate thresholds to the observed drift scale when not given
    drift0 = lr * np.linalg.norm(problem.device_gradients(w), axis=-1) \
        / np.linalg.norm(w)
    if lam_min is None:
        lam_min = float(np.median(drift0))
    if lam_max is None:
        lam_max = float(drift0.max() * 2.0)

    ratios = []
    skipped = 0
    holds = True
    for t in range(rounds):
        grads = problem.device_gradients(w)
        drift = lr * np.linalg.norm(grads, axis=-1) / np.linalg.norm(w)
        gnorm = float(np.linalg.norm(problem.global_gradient(w, grads)))
        # lam_t >= lam_min, so the fixed set is a subset of the adaptive one
        lam_t = adaptive_threshold(gnorm, g0, lam_min, lam_max, adapt_rate)
        fixed_set = np.flatnonzero(drift <= lam_min)
        adapt_set = np.flatnonzero(drift <= lam_t)
        if len(fixed_set) < max(k, 1):
            skipped += 1
            log.debug("round %d skipped: eligible sets too small for "
                      "enumeration", t)
        else:
            rho = len(adapt_set) / len(fixed_set)
            ratios.append(rho)
            if rho < 1.0:
                holds = False
            e_a = deviation_exact(problem, w, k, grads, adapt_set)
            e_f = deviation_exact(problem, w, k, grads, fixed_set)
            if e_a > rho * e_f * (1.0 + 1e-9) + 1e-15:
                holds = False
        # advance by aggregating the adaptive eligible set (all members)
        agg = adapt_set if len(adapt_set) else np.arange(problem.n_devices)
        step = (problem.counts[agg, None] * grads[agg]).mean(axis=0)
        w = w - lr * step
    return AdaptiveThresholdResult(
        rounds_checked=rounds - skipped, rounds_skipped=skipped,
        ratios=np.asarray(ratios), holds=holds)


def verify_local_smoothness_containment(problem: NonconvexProblem,
                                        k: int, radius: float = 1.5,
                                        margin: float = 0.5,
                                        rounds: int = 100,
                                        seeds: int = 100) -> bool:
    """Qualitative check: with a small prescribed step size and
    initialization inside the ball, iterates never exit it."""
    center, _ = _grid_minimizer(problem)
    lr = margin / (2.0 * problem.smoothness * rounds
                   * math.sqrt(math.log(100.0)))
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        w = center + (radius - margin) * rng.uniform(0, 1) * direction
        for _ in range(rounds):
            picks = rng.permutation(problem.n_devices)[:k]
            grads = problem.device_gradients(w)
            step = (problem.counts[picks, None] * grads[picks]).mean(axis=0)
            w = w - lr * step
            if np.linalg.norm(w - center) > radius:
                return False
    return True
