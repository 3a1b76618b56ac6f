import dataclasses
import itertools

import numpy as np
import pytest

from race_wfl.errors import RaceError
from race_wfl.theory_checks import (
    NonconvexProblem, QuadraticTestProblem, _grid_minimizer, _polish,
    _band_bounds, _subset_matrix, deviation_bound, deviation_exact,
    deviation_monte_carlo, random_nonconvex_problem,
    random_quadratic_problem, verify_lemma3, verify_theorem4,
    verify_theorem5, verify_theorem7, verify_theorem9,
    verify_local_smoothness_containment,
)


def homogeneous_problem(n=6, dim=3):
    a = np.eye(dim) * 1.5
    return QuadraticTestProblem(
        matrices=np.tile(a, (n, 1, 1)),
        centers=np.tile(np.array([1.0, -2.0, 0.5][:dim]), (n, 1)),
        counts=np.ones(n),
    )


class TestLemma3:
    def test_full_participation_is_exactly_zero(self):
        prob = random_quadratic_problem(np.random.default_rng(0))
        w = prob.w_star + 1.0
        res = verify_lemma3(prob, prob.n_devices, w)
        assert res.empirical <= 1e-28   # summation noise only
        assert res.bound == 0.0
        assert res.holds

    def test_identical_devices_have_zero_deviation(self):
        prob = homogeneous_problem()
        w = np.array([3.0, 1.0, -1.0])
        res = verify_lemma3(prob, 2, w)
        assert res.empirical <= 1e-25
        assert res.holds

    def test_random_instances_hold_for_every_subset_size(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            prob = random_quadratic_problem(rng)
            w = prob.w_star + rng.standard_normal(prob.dim)
            for k in (1, 2, 3, 5, 6):
                assert verify_lemma3(prob, k, w).holds

    def test_bound_is_an_equality_at_unit_counts(self):
        rng = np.random.default_rng(3)
        prob = random_quadratic_problem(rng)
        w = prob.w_star + rng.standard_normal(prob.dim)
        res = verify_lemma3(prob, 2, w)
        assert res.empirical == pytest.approx(res.bound, rel=1e-12)

    def test_bound_breaks_for_heterogeneous_counts(self):
        # with identical gradients but unequal sample counts the printed
        # bound evaluates to zero while the true deviation is positive;
        # this is why the canonical instances above use unit counts
        prob = QuadraticTestProblem(
            matrices=np.tile(np.eye(2), (4, 1, 1)),
            centers=np.array([[1.0, 0.0], [-1.0, 0.0],
                              [0.0, 2.0], [0.0, -2.0]]),
            counts=np.full(4, 2.0),
        )
        w = np.zeros(2)  # device gradients sum to zero here
        exact = float(deviation_exact(prob, w, 2))
        bound = float(deviation_bound(prob, w, 2))
        assert exact > bound

    def test_monte_carlo_agrees_with_enumeration(self):
        rng = np.random.default_rng(4)
        prob = random_quadratic_problem(rng)
        w = prob.w_star + rng.standard_normal(prob.dim)
        mc, se = deviation_monte_carlo(prob, w, 3, 10 ** 5,
                                       np.random.default_rng(5))
        exact = float(deviation_exact(prob, w, 3))
        assert abs(mc - exact) <= 3 * se


class TestTheorem4:
    def test_full_participation_reduces_to_pure_contraction(self):
        prob = random_quadratic_problem(np.random.default_rng(1))
        tr = verify_theorem4(prob, k=prob.n_devices, rounds=60, n_traj=4,
                             rng=np.random.default_rng(2))
        assert tr.holds
        # no subset noise: the bound is the bare geometric decay
        contraction = 1.0 - prob.pl_constant / prob.smoothness
        ratio = tr.bound[1:15] / tr.bound[:14]
        assert ratio == pytest.approx(np.full(len(ratio), contraction),
                                      rel=1e-9)

    def test_partial_participation_bound_holds(self):
        for seed in range(3):
            prob = random_quadratic_problem(np.random.default_rng(seed))
            tr = verify_theorem4(prob, k=3, rounds=100, n_traj=400,
                                 rng=np.random.default_rng(seed + 100))
            assert tr.holds

    def test_bound_base_case_is_initial_gap(self):
        prob = random_quadratic_problem(np.random.default_rng(5))
        w0 = prob.w_star + 1.0
        gap0 = float(prob.global_loss(w0) - prob.global_loss(prob.w_star))
        contraction = 1.0 - prob.pl_constant / prob.smoothness
        tr = verify_theorem4(prob, k=2, rounds=1, n_traj=50,
                             rng=np.random.default_rng(6), w0=w0)
        dev0 = float(deviation_exact(prob, w0, 2))
        expected = contraction * gap0 + dev0 / (2 * prob.smoothness)
        assert tr.bound[0] == pytest.approx(expected, rel=1e-12)


class TestTheorem5:
    def test_homogeneous_devices_reduce_to_contraction(self):
        prob = homogeneous_problem()
        tr = verify_theorem5(prob, k=2, rounds=40, n_traj=50,
                             rng=np.random.default_rng(0))
        assert tr.holds
        assert tr.bound == pytest.approx(tr.extra["bound4"], rel=1e-9)

    def test_bound_ordering_and_validity(self):
        for seed in (0, 1, 2):
            prob = random_quadratic_problem(np.random.default_rng(seed))
            tr = verify_theorem5(prob, k=2, rounds=60, n_traj=300,
                                 rng=np.random.default_rng(seed + 50))
            assert tr.holds
            assert tr.extra["ordered"]

    def test_sparse_participation_with_outlier_is_tightest(self):
        # one strongly heterogeneous device: the worst-case bound is
        # closest to the truth in the small-k regime
        rng = np.random.default_rng(7)
        prob = random_quadratic_problem(rng)
        centers = prob.centers.copy()
        centers[0] += 8.0
        prob = QuadraticTestProblem(matrices=prob.matrices, centers=centers,
                                    counts=prob.counts)
        ratios = {}
        for k in (1, 5):
            tr = verify_theorem5(prob, k=k, rounds=30, n_traj=400,
                                 rng=np.random.default_rng(8))
            ratios[k] = float(tr.bound[-1] / tr.empirical[-1])
        assert ratios[1] < ratios[5]


class TestTheorem9:
    def test_full_participation_classic_bound(self):
        prob = random_nonconvex_problem(np.random.default_rng(0))
        tr = verify_theorem9(prob, k=prob.n_devices, rounds=50, n_traj=2,
                             rng=np.random.default_rng(1))
        assert tr.holds

    def test_partial_participation_and_horizon_scaling(self):
        prob = random_nonconvex_problem(np.random.default_rng(2))
        short = verify_theorem9(prob, k=2, rounds=50, n_traj=200,
                                rng=np.random.default_rng(3))
        long = verify_theorem9(prob, k=2, rounds=100, n_traj=200,
                               rng=np.random.default_rng(3))
        assert short.holds and long.holds
        assert long.extra["rhs"] < short.extra["rhs"]

    def test_no_violwidth_over_seeds(self):
        for seed in range(5):
            prob = random_nonconvex_problem(np.random.default_rng(seed))
            tr = verify_theorem9(prob, k=2, rounds=60, n_traj=150,
                                 rng=np.random.default_rng(seed + 10))
            assert tr.holds


class TestTheorem7:
    def test_equal_thresholds_pin_ratio_to_one(self):
        prob = random_quadratic_problem(np.random.default_rng(0))
        res = verify_theorem7(prob, k=2, rounds=30, lam_min=0.05,
                              lam_max=0.05, rng=np.random.default_rng(1))
        assert res.holds
        if len(res.ratios):
            assert (res.ratios == 1.0).all()

    def test_loose_ceiling_admits_every_device(self):
        prob = random_quadratic_problem(np.random.default_rng(2))
        res = verify_theorem7(prob, k=2, rounds=20, lam_min=1e-6,
                              lam_max=1e9, rng=np.random.default_rng(3))
        # adaptive set is everyone whenever the fixed set is non-degenerate
        assert res.holds

    def test_random_instance_chain_holds(self):
        for seed in (3, 5, 8):
            prob = random_quadratic_problem(np.random.default_rng(seed))
            res = verify_theorem7(prob, k=2, rounds=50,
                                  rng=np.random.default_rng(seed + 1000))
            assert res.holds
            assert (res.ratios >= 1.0).all()

    def test_structural_parts_hold_on_every_instance(self):
        # set inclusion and the participation ratio are construction-level
        # facts; the quantitative deviation leg is not (it fails on a
        # sizeable fraction of random instances), which the holds flag
        # reports rather than hides
        any_deviation_violation = False
        for seed in range(20):
            prob = random_quadratic_problem(np.random.default_rng(seed))
            res = verify_theorem7(prob, k=2, rounds=50,
                                  rng=np.random.default_rng(seed + 1000))
            if len(res.ratios):
                assert (res.ratios >= 1.0).all()
            if not res.holds:
                any_deviation_violation = True
        assert any_deviation_violation


def test_local_smoothness_ball_containment():
    prob = random_nonconvex_problem(np.random.default_rng(8))
    assert verify_local_smoothness_containment(prob, k=2, seeds=100)


def reference_loss(problem, w):
    """``NonconvexProblem.global_loss`` as the einsums it replaced."""
    w = np.asarray(w)
    lead = (-1, *([1] * (w.ndim - 1)))
    quad = 0.5 * np.einsum("...i,nij,...j->n...", w, problem.matrices, w)
    phase = np.einsum("ni,...i->n...", problem.ripple_dirs, w) \
        + problem.phases.reshape(lead)
    vals = quad + problem.ripple_amps.reshape(lead) * np.cos(phase)
    return np.einsum("n,n...->...", problem.counts, vals) \
        / problem.n_devices


def reference_grid_minimizer(problem):
    """The dense grid as one point array, then the numpy polish:
    (polished point, grid minimum, grid values)."""
    xs = np.linspace(-4.0, 4.0, 801)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = reference_loss(problem, pts)
    return reference_polish(problem, pts[np.argmin(vals)]), vals.min(), vals


def reference_polish(problem, w):
    """All 2000 numpy gradient steps of ``_polish``."""
    lr = 0.5 / problem.smoothness
    for _ in range(2000):
        w = w - lr * problem.global_gradient(w)
    return w


class TestGridSearchMatchesEinsum:
    """The blocked grid and the Python-float polish keep every bit of
    the einsum and numpy forms they replaced."""

    @pytest.mark.parametrize("seed", [0, 8])
    def test_full_grid_and_polish_are_bit_equal(self, seed):
        prob = random_nonconvex_problem(np.random.default_rng(seed))
        ref_w, ref_min, ref_vals = reference_grid_minimizer(prob)
        xs = np.linspace(-4.0, 4.0, 801)
        assert np.array_equal(prob._loss_at([xs[:, None], xs]).ravel(),
                              ref_vals)
        w, grid_min = _grid_minimizer(prob)
        assert np.array_equal(w, ref_w)
        assert np.array_equal(grid_min, ref_min)

    # the problems of ``verify --quick``, from starts the grid did not pick
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 8])
    def test_polish_stopped_at_its_fixed_point_is_the_2000_step_point(
            self, seed):
        prob = random_nonconvex_problem(np.random.default_rng(seed))
        starts = np.random.default_rng(seed + 500).uniform(-4.0, 4.0, (2, 2))
        for w in starts:
            assert (_polish(prob, *w.tolist()).tobytes()
                    == reference_polish(prob, w).tobytes())

    def test_random_and_single_points_are_bit_equal(self):
        for seed in range(20):
            prob = random_nonconvex_problem(np.random.default_rng(seed))
            pts = np.random.default_rng(seed + 1000).uniform(
                -5.0, 5.0, size=(1000, 2))
            assert np.array_equal(prob.global_loss(pts),
                                  reference_loss(prob, pts))
            for w in pts[:20]:
                assert prob.global_loss(w) == reference_loss(prob, w)


def exhaustive_grid_minimizer(problem):
    """The grid search before band pruning: every 20-row band evaluated
    into the full (801, 801) value array, then ``np.argmin``."""
    xs = np.linspace(-4.0, 4.0, 801)
    rows = 20
    vals = np.empty((xs.size, xs.size))
    for r in range(0, xs.size, rows):
        vals[r:r + rows] = problem._loss_at([xs[r:r + rows, None], xs])
    k = int(np.argmin(vals))
    w = _polish(problem, float(xs[k // xs.size]), float(xs[k % xs.size]))
    return w, vals.min()


def count_bands(monkeypatch, problem):
    """Number of ``_loss_at`` calls (one per band) that
    ``_grid_minimizer(problem)`` makes."""
    calls = []
    loss_at = NonconvexProblem._loss_at

    def counted(self, x):
        calls.append(x)
        return loss_at(self, x)

    monkeypatch.setattr(NonconvexProblem, "_loss_at", counted)
    _grid_minimizer(problem)
    monkeypatch.setattr(NonconvexProblem, "_loss_at", loss_at)
    return len(calls)


def assert_same_search(problem):
    ref_w, ref_min = exhaustive_grid_minimizer(problem)
    w, grid_min = _grid_minimizer(problem)
    assert w.tobytes() == ref_w.tobytes()
    assert type(grid_min) is type(ref_min)
    assert grid_min.tobytes() == ref_min.tobytes()


def reshaped(seed, **fields):
    """The ``random_nonconvex_problem(seed)`` instance with ``fields``
    replaced."""
    prob = random_nonconvex_problem(np.random.default_rng(seed))
    return dataclasses.replace(prob, **fields)


class TestPrunedGridSearch:
    """Skipping bands by their quadratic lower bound keeps the
    exhaustive grid's polished point and minimum bit for bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_problems_match_exhaustive_search(self, seed):
        assert_same_search(
            random_nonconvex_problem(np.random.default_rng(seed)))

    def test_zero_and_non_unit_counts_match(self):
        assert_same_search(reshaped(3, counts=np.array([0.0, 2.5, 1.0, 7.0])))
        assert_same_search(reshaped(4, counts=np.array([0.0, 0.0, 0.3, 0.0])))

    def test_unprunable_ripple_evaluates_every_band(self, monkeypatch):
        # a ripple of amplitude 10 with cos near +1 on the whole grid:
        # every band's bound (0.5 q - 10) lies below every value (> 9)
        prob = reshaped(5, ripple_amps=np.full(4, 10.0),
                        ripple_dirs=np.full((4, 2), 0.01),
                        phases=np.zeros(4))
        bands = count_bands(monkeypatch, prob)
        assert bands == 41
        assert_same_search(prob)

    def test_ties_go_to_the_lowest_grid_index(self, monkeypatch):
        # the loss ignores w_0, so every row holds the minimum once and
        # np.argmin picks row 0's; every band has the same bound
        prob = reshaped(6, matrices=np.tile(np.diag([0.0, 1.5]), (4, 1, 1)),
                        ripple_dirs=np.tile([0.0, 1.2], (4, 1)))
        bands = count_bands(monkeypatch, prob)
        assert bands == 41
        assert_same_search(prob)

    @staticmethod
    def bounds_and_lows(prob):
        """Each band's (bound, margin) and its smallest grid value."""
        xs = np.linspace(-4.0, 4.0, 801)
        starts = np.arange(0, 801, 20)
        bound, margin = _band_bounds(prob, xs[starts],
                                     xs[np.minimum(starts + 20, 801) - 1])
        lows = np.array([prob._loss_at([xs[r:r + 20, None], xs]).min()
                         for r in starts])
        return bound, margin, lows

    def test_bounds_hold_on_every_band(self):
        problems = [random_nonconvex_problem(np.random.default_rng(seed))
                    for seed in range(10)]
        problems.append(reshaped(3, counts=np.array([0.0, 2.5, 1.0, 7.0])))
        for prob in problems:
            bound, margin, lows = self.bounds_and_lows(prob)
            assert (bound <= lows + margin).all()

    def test_bound_without_ripple_is_the_quadratic_minimum(self):
        # w_1's stationary point -1.5 w_0 leaves [-4, 4] for |w_0| > 8/3;
        # the bound is reached to within the column spacing
        prob = reshaped(7, ripple_amps=np.zeros(4), matrices=np.tile(
            [[4.0, 1.5], [1.5, 1.0]], (4, 1, 1)))
        bound, margin, lows = self.bounds_and_lows(prob)
        assert (bound <= lows + margin).all()
        assert (lows - bound <= 1e-4).all()

    def test_most_bands_are_skipped(self, monkeypatch):
        for seed in range(5):
            prob = random_nonconvex_problem(np.random.default_rng(seed))
            bands = count_bands(monkeypatch, prob)
            assert bands < 41 / 2


class TestNonconvexPreconditions:
    """The bound's preconditions are checked when a problem is built."""

    def test_negative_count_is_rejected(self):
        with pytest.raises(RaceError, match="counts"):
            reshaped(0, counts=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_non_finite_count_is_rejected(self):
        with pytest.raises(RaceError, match="counts"):
            reshaped(0, counts=np.array([1.0, np.nan, 1.0, 1.0]))
        with pytest.raises(RaceError, match="counts"):
            reshaped(0, counts=np.array([1.0, np.inf, 1.0, 1.0]))

    def test_non_finite_matrix_is_rejected(self):
        mats = random_nonconvex_problem(np.random.default_rng(0)).matrices
        mats[2, 1, 1] = np.inf
        with pytest.raises(RaceError, match="finite"):
            reshaped(0, matrices=mats)

    def test_asymmetric_matrix_is_rejected(self):
        mats = random_nonconvex_problem(np.random.default_rng(0)).matrices
        mats[1, 0, 1] += 1e-6
        with pytest.raises(RaceError, match="symmetric"):
            reshaped(0, matrices=mats)

    def test_indefinite_matrix_is_rejected(self):
        mats = np.tile(np.diag([1.0, 1.0]), (4, 1, 1))
        mats[3] = [[1.0, 2.0], [2.0, 1.0]]      # eigenvalues 3 and -1
        with pytest.raises(RaceError, match="semidefinite"):
            reshaped(0, matrices=mats)

    def test_non_finite_ripple_is_rejected(self):
        for name in ("ripple_dirs", "ripple_amps", "phases"):
            prob = random_nonconvex_problem(np.random.default_rng(0))
            bad = getattr(prob, name).copy()
            bad.flat[0] = np.nan
            with pytest.raises(RaceError, match="ripple"):
                reshaped(0, **{name: bad})

    def test_random_problems_meet_them(self):
        for seed in range(200):
            random_nonconvex_problem(np.random.default_rng(seed))

    def test_singular_matrix_is_accepted(self):
        reshaped(0, matrices=np.tile(np.diag([0.0, 1.0]), (4, 1, 1)))


class TestSubsetMatrix:
    def test_built_once_and_read_only(self):
        m = _subset_matrix(5, 2, (0, 1, 3, 4))
        assert _subset_matrix(5, 2, (0, 1, 3, 4)) is m
        assert not m.flags.writeable
        assert m.shape == (6, 5)
        assert (m[:, 2] == 0).all() and (m.sum(axis=1) == 1.0).all()

    def test_numpy_pool_and_default_pool_match_reference(self):
        prob = random_quadratic_problem(np.random.default_rng(1))
        w = np.random.default_rng(2).standard_normal((7, prob.dim))
        grads = prob.device_gradients(w)
        y = prob.counts[:, None, None] * grads
        for pool in (None, np.array([0, 2, 3, 5]), np.arange(6)):
            members = range(6) if pool is None else pool
            est = np.array([y[list(s)].mean(axis=0) for s in
                            itertools.combinations(members, 2)])
            ref = ((est - y.mean(axis=0)) ** 2).sum(axis=-1).mean(axis=0)
            got = deviation_exact(prob, w, 2, grads, pool)
            assert got == pytest.approx(ref, rel=1e-12)
