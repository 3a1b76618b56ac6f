import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from conftest import random_instance
from race_wfl.channel import dbm_to_watts
from race_wfl.cost_model import DeviceProfile
from race_wfl.errors import ConvergenceError, InfeasibleError, RaceError
from race_wfl import resource_alloc as ra
from race_wfl.resource_alloc import (
    Binding, check_feasibility, grid_search_allocation, optimal_allocation,
    rho_from_delta,
)

LN2 = math.log(2.0)


def data_rate(bandwidth: float, rho: float, power: float,
              gain: float) -> float:
    """Achievable rate in bits/s at power fraction ``rho`` in [0, 1]: the
    Shannon rate that the solver writes inline, as an oracle."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    return bandwidth * np.log2(1.0 + rho * power * gain)


def test_data_rate_zero_power():
    assert data_rate(1e6, 0.0, 0.5, 1e9) == 0.0


def test_data_rate_unit_snr():
    assert data_rate(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_data_rate_high_precision_oracle():
    mp.dps = 50
    expected = mpf(10) ** 6 * mp.log(11, 2)
    got = data_rate(1e6, 1.0, dbm_to_watts(15.0), 10.0 / dbm_to_watts(15.0))
    assert got == pytest.approx(float(expected), rel=1e-12)


@given(
    r1=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
    r2=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
    gain=st.floats(1e-3, 1e6),
)
def test_data_rate_strictly_increasing_in_rho(r1, r2, gain):
    lo, hi = sorted((r1, r2))
    rl = data_rate(1e6, lo, 0.1, gain)
    rh = data_rate(1e6, hi, 0.1, gain)
    assert rh >= rl
    # strict once the SNR increment is visible at float resolution
    if (hi - lo) * 0.1 * gain > 1e-12 * (1.0 + lo * 0.1 * gain):
        assert rh > rl


class RegimeError(RaceError):
    """A closed-form approximation was evaluated outside its regime."""


def large_model_delta(chi: float, profile: DeviceProfile, gain: float,
                      bandwidth: float) -> float:
    """Closed-form transmission time for payloads much larger than the
    per-transmission-time bandwidth budget. Raises RegimeError when the
    logarithm's argument is not > 1 (no positive solution)."""
    ecp = profile.power_coeff * profile.work_cycles * (chi * profile.cpu_hz) ** 2
    numer = profile.model_bits * LN2
    arg = (profile.max_energy_j - ecp) * gain / numer
    if arg <= 1.0:
        raise RegimeError(
            "large-model approximation outside its regime (log argument <= 1)"
        )
    return numer / (bandwidth * math.log(arg))


def high_snr_delta(chi: float, profile: DeviceProfile, gain: float,
                   bandwidth: float) -> float:
    """Closed-form transmission time in the high-SNR binding regime.

    Requires received SNR at full power of at least 10.
    """
    if profile.max_power_w * gain < 10.0:
        raise RegimeError("high-SNR closed form requires P * gain >= 10")
    ecp = profile.power_coeff * profile.work_cycles * (chi * profile.cpu_hz) ** 2
    if ecp <= 0 or profile.max_energy_j <= 0:
        raise RegimeError("invalid energy terms")
    return profile.model_bits / (
        bandwidth * math.log1p(profile.max_energy_j * gain / ecp) / LN2
    )


def grid_feasibility(profile: DeviceProfile, gain: float, bandwidth: float,
                     resolution: int = 600) -> bool:
    """Dense log-grid oracle: does any (chi, rho) fit the energy budget?

    chi and rho extend far below the optimality grid so the oracle can
    approach the vanishing-power energy infimum.
    """
    chi = np.logspace(-8, 0, resolution)
    rho = np.logspace(-12, 0, resolution)
    mz = profile.work_cycles
    comp_e = profile.power_coeff * mz * (chi * profile.cpu_hz) ** 2
    rate = bandwidth * np.log1p(rho * profile.max_power_w * gain) / LN2
    tx_e = rho * profile.max_power_w * profile.model_bits / rate
    energy = comp_e[:, None] + tx_e[None, :]
    return bool((energy <= profile.max_energy_j).any())


def binding_profile(**kw):
    """Instance whose energy budget binds at the optimum."""
    base = dict(
        sample_count=184, cycles_per_sample=1.2e6, cpu_hz=2.1e8,
        power_coeff=6.5e-29, max_power_w=1.36, max_energy_j=3.8e-3,
        model_bits=1.3e5,
    )
    base.update(kw)
    return DeviceProfile(**base)


BINDING_GAIN = 932.58
BINDING_B = 3.87e5


def benchmark_instance(rng):
    """(profile, gain, bandwidth) from the log-uniform ranges of the
    benchmark's allocate profiles; every regime occurs."""
    prof = DeviceProfile(
        sample_count=int(rng.integers(20, 101)),
        cycles_per_sample=1e7, cpu_hz=10 ** rng.uniform(8.5, 9.5),
        power_coeff=1e-28, max_power_w=10 ** rng.uniform(-2.5, -0.5),
        max_energy_j=10 ** rng.uniform(-2.5, -0.5),
        model_bits=10 ** rng.uniform(5, 7),
    )
    return prof, 10 ** rng.uniform(4, 9), 1e6


def near_boundary_instances():
    """Feasible instances whose budgets sit just above the transmission-
    energy infimum; they push the rate exponent toward 0, where
    x e^x - expm1(x) cancels to nothing."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        prof, gain, bw = random_instance(rng)
        emax = LN2 * prof.model_bits / (bw * gain) * (
            1 + 10 ** rng.uniform(-16, -6))
        if check_feasibility(prof.model_bits, emax, bw, gain):
            yield dataclasses.replace(prof, max_energy_j=emax), gain, bw


class TestFeasibility:
    def test_boundary_is_infeasible(self):
        # equality case of the threshold is excluded
        bits, emax, bw = 1e6, 0.1, 1e6
        gain = LN2 * bits / (emax * bw)
        assert not check_feasibility(bits, emax, bw, gain)
        assert check_feasibility(bits, emax, bw, gain * (1 + 1e-12))

    def test_vanishing_payload_always_feasible(self):
        # shrinking the payload with everything else fixed crosses into
        # feasibility
        assert not check_feasibility(1e8, 0.1, 1e6, 0.5)
        assert check_feasibility(1e3, 0.1, 1e6, 0.5)
        assert check_feasibility(1e-3, 0.1, 1e6, 0.5)

    def test_table_values_arithmetic(self):
        # D = 1 Mbit, e_max = 0.1 J, B = 1 MHz, gain = 10
        assert (LN2 * 1e6 < 0.1 * 1e6 * 10)
        assert check_feasibility(1e6, 0.1, 1e6, 10.0)

    def test_flag_matches_grid_oracle_near_boundary(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            prof, gain, bw = random_instance(rng)
            # place the budget on either side of the threshold
            offset = rng.choice([-1, 1]) * 10 ** rng.uniform(-3, -0.3)
            emax = LN2 * prof.model_bits / (bw * gain) * (1 + offset)
            if emax <= 0:
                continue
            prof = DeviceProfile(
                sample_count=prof.sample_count,
                cycles_per_sample=prof.cycles_per_sample,
                cpu_hz=prof.cpu_hz, power_coeff=prof.power_coeff,
                max_power_w=prof.max_power_w, max_energy_j=emax,
                model_bits=prof.model_bits,
            )
            flag = check_feasibility(prof.model_bits, emax, bw, gain)
            assert flag == grid_feasibility(prof, gain, bw)


class TestRhoFromDelta:
    def test_full_power_boundary(self):
        prof = binding_profile()
        delta_min = prof.model_bits / (
            BINDING_B * math.log2(1 + prof.max_power_w * BINDING_GAIN))
        rho = rho_from_delta(delta_min, prof.model_bits, BINDING_B,
                             prof.max_power_w, BINDING_GAIN)
        assert rho == pytest.approx(1.0, rel=1e-12)

    def test_long_transmission_vanishing_power(self):
        rho = rho_from_delta(1e9, 1e6, 1e6, 0.1, 1e3)
        assert 0 < rho < 1e-8

    def test_round_trip_through_data_rate(self):
        prof = binding_profile()
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = 10 ** rng.uniform(-2, 2)
            try:
                rho = rho_from_delta(delta, prof.model_bits, BINDING_B,
                                     prof.max_power_w, BINDING_GAIN)
            except RaceError:
                continue
            rate = data_rate(BINDING_B, rho, prof.max_power_w, BINDING_GAIN)
            assert rate == pytest.approx(prof.model_bits / delta, rel=1e-9)

    def test_below_minimum_time_errors(self):
        prof = binding_profile()
        delta_min = prof.model_bits / (
            BINDING_B * math.log2(1 + prof.max_power_w * BINDING_GAIN))
        with pytest.raises(RaceError):
            rho_from_delta(0.5 * delta_min, prof.model_bits, BINDING_B,
                           prof.max_power_w, BINDING_GAIN)


class TestBindingDelta:
    """The interior-binding transmission time comes from the same rate
    exponent as chi, so it lies on the binding energy curve at chi."""

    def test_residual_at_root(self):
        prof = binding_profile()
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_BINDING and res.rho < 1.0
        residual = res.energy - prof.max_energy_j
        assert -1e-12 * prof.max_energy_j <= residual <= 0.0

    def test_against_million_point_grid(self):
        prof = binding_profile()
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        lo = prof.model_bits / (
            BINDING_B * math.log2(1 + prof.max_power_w * BINDING_GAIN))
        grid = np.linspace(lo, 1e3 * lo, 10 ** 6)
        ecp = prof.power_coeff * prof.work_cycles * (
            res.chi * prof.cpu_hz) ** 2
        u = prof.model_bits / (grid * BINDING_B)
        resid = ecp + grid * np.expm1(LN2 * u) / BINDING_GAIN - prof.max_energy_j
        cross = np.argmax(resid <= 0)  # first grid point past the root
        step = grid[1] - grid[0]
        assert abs(res.tx_time - grid[cross]) <= 2 * step


def _mp_overshoot(u, kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    """The solver's stationarity overshoot, in mpmath arithmetic."""
    x = u * mp.log(2)
    h = x * mp.exp(x) - mp.expm1(x)
    y = h / (2 * kappa * cpu_hz ** 3 * gain)
    chi_sq = 1 if y >= 1 else y ** (mpf(2) / 3)
    return (kappa * mz * cpu_hz ** 2 * chi_sq
            + bits * mp.expm1(x) / (u * bandwidth * gain) - emax)


def _mp_rate(args, start):
    """60-digit root of the overshoot: a bracket grown from ``start`` by
    factors of 2, closed by mpmath's bracketing Anderson-Bjorck solver."""
    with mp.workdps(60):
        args = [mpf(v) for v in args]
        lo = hi = mpf(start)
        while _mp_overshoot(lo, *args) >= 0:
            lo /= 2
        while _mp_overshoot(hi, *args) <= 0:
            hi *= 2
        return mp.findroot(lambda u: _mp_overshoot(u, *args), (lo, hi),
                           solver="anderson")


class TestRateMatchesExtendedPrecision:
    """The Stage-1 rate exponent against a 60-digit root of the same
    overshoot.  Near the feasibility boundary the overshoot's rounding
    error (a few eps of the budget) against its slope (about ln2 / 2 of
    the budget per unit of x = u ln2) bounds any float root to about
    eps / gap relative, where gap is the budget's relative excess over
    the transmission infimum."""

    def test_benchmark_ranges(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            args = _solver_args(*benchmark_instance(rng))
            u = ra._stationary_rate(*args)
            assert abs(u - _mp_rate(args, u)) <= 2e-14 * u

    def test_near_boundary_budgets(self):
        eps = 2.0 ** -52
        checked = 0
        for prof, gain, bw in near_boundary_instances():
            args = _solver_args(prof, gain, bw)
            with mp.workdps(60):
                gap = (mpf(prof.max_energy_j) * mpf(bw) * mpf(gain)
                       / (mp.log(2) * mpf(prof.model_bits)) - 1)
            if gap <= 0:
                # feasible only by the rounding of the float test: the
                # exact overshoot has no root
                continue
            u = ra._stationary_rate(*args)
            assert float(abs(u - _mp_rate(args, u)) / u * gap) <= 2 * eps
            checked += 1
        assert checked > 250


class TestOptimalAllocation:
    def test_large_budget_gives_full_allocation(self):
        prof = binding_profile(max_energy_j=100.0)
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_SLACK
        assert res.chi == 1.0 and res.rho == 1.0
        assert res.energy < prof.max_energy_j

    def test_binding_case_spends_exactly_the_budget(self):
        prof = binding_profile()
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_BINDING
        assert res.energy == pytest.approx(prof.max_energy_j, rel=1e-6)

    def test_chi_never_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            prof, gain, bw = random_instance(rng)
            if not check_feasibility(prof.model_bits, prof.max_energy_j,
                                     bw, gain):
                continue
            res = optimal_allocation(prof, gain, bw)
            assert res.chi > 0.0
            assert 0.0 < res.rho <= 1.0

    def test_never_beaten_by_grid_oracle(self):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 15:
            prof, gain, bw = random_instance(rng)
            if not check_feasibility(prof.model_bits, prof.max_energy_j,
                                     bw, gain):
                continue
            res = optimal_allocation(prof, gain, bw)
            grid_delay, _, _ = grid_search_allocation(prof, gain, bw)
            if not np.isfinite(grid_delay):
                continue
            assert res.total_delay <= grid_delay * (1 + 1e-9)
            checked += 1

    def test_infeasible_instance_raises(self):
        prof = binding_profile(max_energy_j=1e-9)
        with pytest.raises(InfeasibleError):
            optimal_allocation(prof, BINDING_GAIN, BINDING_B)

    @pytest.mark.parametrize("gain, bandwidth, name", [
        (-10.0, BINDING_B, "gain"), (0.0, BINDING_B, "gain"),
        (BINDING_GAIN, -1e6, "bandwidth"), (BINDING_GAIN, 0.0, "bandwidth"),
        # two negatives make the feasibility product positive
        (-10.0, -1e6, "gain"),
    ])
    def test_non_positive_gain_or_bandwidth_raises_value_error(
            self, gain, bandwidth, name):
        with pytest.raises(ValueError, match=f"^{name} must be > 0"):
            optimal_allocation(binding_profile(), gain, bandwidth)

    def test_binding_solves_stay_within_the_energy_budget(self):
        # the round loop aborts a device over budget by more than 1e-9
        # relative, tighter than the root-finder's residual tolerance, so
        # a converged binding root must sit on the feasible side
        rng = np.random.default_rng(5)
        binding = 0
        for _ in range(2000):
            prof, gain, bw = benchmark_instance(rng)
            res = optimal_allocation(prof, gain, bw)
            if res.binding is Binding.ENERGY_BINDING:
                binding += 1
                assert res.energy <= prof.max_energy_j * (1 + 1e-9)
                if res.rho < 1.0:
                    # an interior solve spends its whole budget
                    assert res.energy >= prof.max_energy_j * (1 - 1e-12)
        assert binding > 500

    def test_near_boundary_budgets_solve_within_budget(self):
        for prof, gain, bw in near_boundary_instances():
            res = optimal_allocation(prof, gain, bw)
            emax = prof.max_energy_j
            assert res.binding is Binding.ENERGY_BINDING
            assert res.chi > 0.0 and 0.0 < res.rho < 1.0
            assert res.energy <= emax * (1 + 1e-9)

    def test_over_budget_solve_raises(self):
        # u * bandwidth * gain overflows, so the stationarity path reads a
        # transmission energy of 0 where the allocation spends ~1e74
        # budgets; the solver reports that instead of returning it
        prof = DeviceProfile(
            sample_count=100, cycles_per_sample=1.0011302169771886e-138,
            cpu_hz=5e8, power_coeff=1e-28, max_power_w=0.0316,
            max_energy_j=1.9699149614688815e-278, model_bits=1e6,
        )
        with pytest.raises(ConvergenceError, match="failed to converge"):
            optimal_allocation(prof, 1.9499599122022312e303, 1e6)

    def test_slack_case_kkt_consistency(self):
        # with no energy pressure, interior stationarity in chi cannot hold:
        # the would-be multiplier on chi >= 0 is negative for every chi < 1
        prof = binding_profile(max_energy_j=100.0)
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_SLACK
        mz = prof.work_cycles
        for chi in np.linspace(0.01, 0.99, 50):
            lam3 = -mz / (chi ** 2 * prof.cpu_hz)
            assert lam3 < 0.0
        assert res.chi == 1.0


class TestClosedForms:
    def test_high_snr_inverts_its_approximate_constraint(self):
        prof = binding_profile()
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        d = high_snr_delta(res.chi, prof, BINDING_GAIN, BINDING_B)
        ecp = prof.power_coeff * prof.work_cycles * (res.chi * prof.cpu_hz) ** 2
        reproduced = ecp * math.expm1(
            LN2 * prof.model_bits / (d * BINDING_B)) / BINDING_GAIN
        assert reproduced == pytest.approx(prof.max_energy_j, rel=1e-9)

    def test_high_snr_decreases_with_gain(self):
        prof = binding_profile()
        d1 = high_snr_delta(0.8, prof, 1e3, BINDING_B)
        d2 = high_snr_delta(0.8, prof, 1e4, BINDING_B)
        assert d2 < d1

    def test_high_snr_regime_guard(self):
        prof = binding_profile(max_power_w=1e-3)
        with pytest.raises(RegimeError):
            high_snr_delta(1.0, prof, 1.0, BINDING_B)

    def test_large_model_matches_extended_precision(self):
        mp.dps = 50
        prof = binding_profile(max_energy_j=3.8e-3)
        gain, bw = 1e9, 1e6
        got = large_model_delta(0.5, prof, gain, bw)
        ecp = (mpf(prof.power_coeff) * mpf(prof.work_cycles)
               * (mpf("0.5") * mpf(prof.cpu_hz)) ** 2)
        expected = (mpf(prof.model_bits) * mp.log(2)
                    / (mpf(bw) * mp.log((mpf(prof.max_energy_j) - ecp)
                                        * mpf(gain)
                                        / (mpf(prof.model_bits) * mp.log(2)))))
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_large_model_superlinear_in_payload(self):
        prof = binding_profile()
        gain, bw = 1e9, 1e6
        d1 = large_model_delta(0.5, prof, gain, bw)
        prof2 = binding_profile(model_bits=2 * prof.model_bits)
        d2 = large_model_delta(0.5, prof2, gain, bw)
        assert d2 > 2 * d1  # log denominator shrinks

    def test_large_model_regime_guard(self):
        prof = binding_profile()
        with pytest.raises(RegimeError):
            large_model_delta(1.0, prof, 1.0, 1e6)  # log argument <= 1


# Reference copy of the Stage-1 root-finder with one helper call per term
# of each probe.  The solver evaluates the same expressions in the same
# order with that per-row and per-probe work shared, so every result, and
# every exception, must match this bit for bit.

def _ref_h(u):
    x = u * ra.LN2
    if x < 1e-3:
        return x * x * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (
            1.0 / 30.0 + x / 144.0))))
    return x * math.exp(x) - math.expm1(x)


def _ref_em1(u):
    return math.expm1(u * ra.LN2)


def _ref_chi_cubed(u, kappa, cpu_hz, gain):
    return _ref_h(u) / (2.0 * kappa * cpu_hz ** 3 * gain)


def _ref_stationarity_chi(u, kappa, cpu_hz, gain):
    return _ref_chi_cubed(u, kappa, cpu_hz, gain) ** (1.0 / 3.0)


def _ref_comp_energy(u, kappa, mz, cpu_hz, gain):
    chi = _ref_stationarity_chi(u, kappa, cpu_hz, gain)
    if chi > 1.0:
        chi = 1.0
    return kappa * mz * (chi * cpu_hz) ** 2


def _ref_energy(u, kappa, mz, cpu_hz, bits, bandwidth, gain):
    etx = bits * _ref_em1(u) / (u * bandwidth * gain)
    return _ref_comp_energy(u, kappa, mz, cpu_hz, gain) + etx


def _ref_energy_slope(u, kappa, mz, cpu_hz, bits, bandwidth, gain):
    h = _ref_h(u)
    slope = bits * h / (u * bandwidth * gain) / u
    if _ref_chi_cubed(u, kappa, cpu_hz, gain) < 1.0 and h > 0.0:
        ecp = _ref_comp_energy(u, kappa, mz, cpu_hz, gain)
        slope += (2.0 / 3.0) * ecp * ra.LN2 * (h + _ref_em1(u)) / h
    return slope


def _ref_binding_overshoot(u, kappa, mz, cpu_hz, bits, bandwidth, gain,
                           emax):
    return _ref_energy(u, kappa, mz, cpu_hz, bits, bandwidth, gain) - emax


def _ref_newton(u, kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    """(|log(E / emax)|, the Newton point on log(E / emax)) at u, or
    (inf, nan) where the step is undefined."""
    energy = _ref_energy(u, kappa, mz, cpu_hz, bits, bandwidth, gain)
    slope = _ref_energy_slope(u, kappa, mz, cpu_hz, bits, bandwidth, gain)
    ratio = energy / emax
    if not (ratio > 0.0 and slope > 0.0):
        return math.inf, math.nan
    return abs(math.log(ratio)), u - math.log(ratio) * energy / slope


def _ref_bracket(args):
    """The two bracket stages: (the lower end after stage 0, the lower
    end after stage 1, the upper end, the probes taken)."""
    probes = 0
    u_lo = 1e-6
    for _ in range(200):
        probes += 1
        if _ref_binding_overshoot(u_lo, *args) < 0.0:
            break
        u_lo *= 0.0625
    u_first = u_lo
    u_hi = 1.0
    while True:
        probes += 1
        if _ref_binding_overshoot(u_hi, *args) > 0.0:
            return u_first, u_lo, u_hi, probes
        u_lo = u_hi
        u_hi *= 2.0
        if u_hi > 1e9:
            raise ConvergenceError("allocation solver failed to converge")


def _ref_stationary_rate(*args):
    _, u_lo, u_hi, _ = _ref_bracket(args)
    lo, hi = (math.inf, math.nan), _ref_newton(u_hi, *args)
    widths = [math.inf, math.inf]
    for _ in range(300):
        width = u_hi - u_lo
        newton = hi[1] if hi[0] < lo[0] else lo[1]
        if width <= 0.5 * widths[-2] and u_lo <= newton <= u_hi:
            tol = 5e-15 * u_hi
            u = min(max(newton, u_lo + tol), u_hi - tol)
        else:
            u = 0.5 * (u_lo + u_hi)
        widths.append(width)
        if u == u_lo or u == u_hi:
            break
        if _ref_binding_overshoot(u, *args) > 0.0:
            u_hi, hi = u, _ref_newton(u, *args)
        else:
            u_lo, lo = u, _ref_newton(u, *args)
        if (u_hi - u_lo) <= 1e-14 * u_hi:
            break
    return u_lo


def _bisection_probes(*args):
    """Probes the former Stage-1 bisection took: the same bracket stages
    from the stage-0 lower end, then midpoints to the same stopping
    rules."""
    u_lo, _, u_hi, probes = _ref_bracket(args)
    for _ in range(300):
        mid = 0.5 * (u_lo + u_hi)
        if mid == u_lo or mid == u_hi:
            break
        probes += 1
        if _ref_binding_overshoot(mid, *args) > 0.0:
            u_hi = mid
        else:
            u_lo = mid
        if (u_hi - u_lo) <= 1e-14 * u_hi:
            break
    return probes


def _ref_allocation(profile, gain, bandwidth):
    kappa = profile.power_coeff
    mz = profile.work_cycles
    cpu_hz = profile.cpu_hz
    bits = profile.model_bits
    power = profile.max_power_w
    emax = profile.max_energy_j
    if not check_feasibility(bits, emax, bandwidth, gain):
        raise InfeasibleError("infeasible device instance: budget below "
                              "transmission infimum")
    u_full = math.log1p(power * gain) / ra.LN2
    delta_full = bits / (bandwidth * u_full)
    if kappa * mz * cpu_hz ** 2 + power * delta_full <= emax:
        ra._check_full_rate(bits, delta_full, bandwidth)
        return ra._result(profile, 1.0, 1.0, delta_full,
                          Binding.ENERGY_SLACK)
    u_star = _ref_stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain,
                                  emax)
    if u_star > u_full:
        etx = power * delta_full
        chi = min(math.sqrt((emax - etx) / (kappa * mz * cpu_hz ** 2)), 1.0)
        if 2.0 * kappa * cpu_hz ** 3 * chi ** 3 == 0.0:
            raise ZeroDivisionError("CPU fraction cubed underflows to 0: "
                                    "energy multiplier beyond the float "
                                    "range")
        ra._check_full_rate(bits, delta_full, bandwidth)
        if bits / (delta_full * bandwidth) == 0.0:
            raise ZeroDivisionError("full-power rate exponent underflows "
                                    "to 0: beyond the float range")
        return ra._result(profile, chi, 1.0, delta_full,
                          Binding.ENERGY_BINDING)
    chi = min(_ref_stationarity_chi(u_star, kappa, cpu_hz, gain), 1.0)
    delta = bits / (u_star * bandwidth)
    rho = rho_from_delta(delta, bits, bandwidth, power, gain)
    if _ref_h(u_star) == 0.0:
        raise ZeroDivisionError("stationarity term h(u) underflows to 0: "
                                "energy multiplier beyond the float range")
    return ra._result(profile, chi, rho, delta, Binding.ENERGY_BINDING)


def _outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers every failure mode
        return type(exc), str(exc)


def _solver_args(prof, gain, bw):
    return (prof.power_coeff, prof.work_cycles, prof.cpu_hz,
            prof.model_bits, bw, gain, prof.max_energy_j)


def assert_matches_reference(prof, gain, bw):
    """Same rate exponent and the same allocation, bit for bit, or the
    same exception with the same message; returns the allocation."""
    args = _solver_args(prof, gain, bw)
    assert (_outcome(ra._stationary_rate, *args)
            == _outcome(_ref_stationary_rate, *args))
    got = _outcome(optimal_allocation, prof, gain, bw)
    assert got == _outcome(_ref_allocation, prof, gain, bw)
    return got


def clamp_threshold_instances():
    """(side, profile, gain, bandwidth) with gains that put h(u) / den
    within a few ulps of 1 at the bracket probes u = 1, 2 and 4, where chi
    switches to its clamp; side is the sign of h(u) / den - 1.  Budgets at
    and next to the probe's energy make the probe's sign, and so the
    bracket, hang on the last bit of that energy."""
    prof = DeviceProfile(sample_count=100, cycles_per_sample=1e8,
                         cpu_hz=1.1e9, power_coeff=1e-28,
                         max_power_w=1.0, max_energy_j=1.0,
                         model_bits=1e6)
    kappa, mz, cpu_hz = prof.power_coeff, prof.work_cycles, prof.cpu_hz
    for u in (1.0, 2.0, 4.0):
        gain = _ref_h(u) / (2.0 * kappa * cpu_hz ** 3)
        for _ in range(6):
            gain = math.nextafter(gain, 0.0)
        for _ in range(12):
            y = _ref_chi_cubed(u, kappa, cpu_hz, gain)
            if abs(y - 1.0) <= 4 * math.ulp(1.0):
                energy = _ref_energy(u, kappa, mz, cpu_hz, prof.model_bits,
                                     1e6, gain)
                for emax in (math.nextafter(energy, 0.0), energy,
                             math.nextafter(energy, math.inf)):
                    yield ((y > 1.0) - (y < 1.0),
                           dataclasses.replace(prof, max_energy_j=emax),
                           gain, 1e6)
            gain = math.nextafter(gain, math.inf)


class TestRootFinderMatchesReference:
    def test_benchmark_ranges(self):
        rng = np.random.default_rng(11)
        regimes = set()
        for _ in range(2000):
            res = assert_matches_reference(*benchmark_instance(rng))
            regimes.add((res.binding, res.rho == 1.0))
        assert len(regimes) == 3  # slack, capped and interior

    def test_near_boundary_budgets(self):
        for prof, gain, bw in near_boundary_instances():
            assert_matches_reference(prof, gain, bw)

    def test_clamp_threshold(self):
        sides = set()
        for side, prof, gain, bw in clamp_threshold_instances():
            sides.add(side)
            assert_matches_reference(prof, gain, bw)
        assert sides == {-1, 0, 1}

    @pytest.mark.parametrize("args, message", [
        # cpu_hz ** 3 overflows before the first probe
        ((2.9535952126392307e-28, 1804268722.5116382, 6.465628684535347e+103,
          6.1333400979114705, 11815180.737259423, 4.88692675892327e+277,
          4.949286653662645e+236), "Numerical result out of range"),
        # the upper bracket end doubles past exp's range
        ((5.351780526914687e-37, 111556010.96834107, 2.658105011666212e+69,
          1425118.9494111072, 6867.134326546906, 1.3387821153284959e+307,
          3.1710512840212606e+288), "math range error"),
    ])
    def test_overflow_raises_as_before(self, args, message):
        expected = _outcome(_ref_stationary_rate, *args)
        assert expected[0] is OverflowError and message in expected[1]
        assert _outcome(ra._stationary_rate, *args) == expected


@pytest.fixture
def probes(monkeypatch):
    """Probes of one root-find, counted as calls of the per-probe helper."""
    calls = []
    h = ra._h
    monkeypatch.setattr(ra, "_h", lambda u: calls.append(u) or h(u))

    def count(args):
        calls.clear()
        ra._stationary_rate(*args)
        return len(calls)
    return count


class TestProbeCount:
    def test_benchmark_ranges_take_few_probes(self, probes):
        # the bisection took 53.9 on these rows
        rng = np.random.default_rng(11)
        counts = [probes(_solver_args(*benchmark_instance(rng)))
                  for _ in range(2000)]
        assert sum(counts) / len(counts) <= 14

    def test_no_row_takes_twice_the_bisection_probes(self, probes):
        rng = np.random.default_rng(11)
        rows = [benchmark_instance(rng) for _ in range(2000)]
        rows += list(near_boundary_instances())
        rows += [row[1:] for row in clamp_threshold_instances()]
        for row in rows:
            args = _solver_args(*row)
            assert probes(args) <= 2 * _bisection_probes(*args)
