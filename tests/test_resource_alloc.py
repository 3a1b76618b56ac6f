import dataclasses
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import random_instance
from race_wfl.channel import data_rate
from race_wfl.cost_model import DeviceProfile
from race_wfl.errors import ConvergenceError, InfeasibleError, RaceError
from race_wfl import resource_alloc as ra
from race_wfl.resource_alloc import (
    Binding, check_feasibility, grid_search_allocation, optimal_allocation,
    rho_from_delta,
)

LN2 = math.log(2.0)


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


class TestOptimalAllocation:
    def test_large_budget_gives_full_allocation(self):
        prof = binding_profile(max_energy_j=100.0)
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_SLACK
        assert res.chi == 1.0 and res.rho == 1.0
        assert res.multipliers[0] == 0.0

    def test_binding_case_spends_exactly_the_budget(self):
        prof = binding_profile()
        res = optimal_allocation(prof, BINDING_GAIN, BINDING_B)
        assert res.binding is Binding.ENERGY_BINDING
        assert res.energy == pytest.approx(prof.max_energy_j, rel=1e-6)
        assert res.multipliers[0] > 0.0

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

    def test_binding_solves_stay_within_the_energy_budget(self):
        # the round loop aborts a device over budget by more than 1e-9
        # relative, tighter than the root-finder's residual tolerance, so
        # a converged binding root must sit on the feasible side
        rng = np.random.default_rng(5)
        binding = 0
        for _ in range(2000):
            prof = DeviceProfile(
                sample_count=int(rng.integers(20, 101)),
                cycles_per_sample=1e7, cpu_hz=10 ** rng.uniform(8.5, 9.5),
                power_coeff=1e-28, max_power_w=10 ** rng.uniform(-2.5, -0.5),
                max_energy_j=10 ** rng.uniform(-2.5, -0.5),
                model_bits=10 ** rng.uniform(5, 7),
            )
            res = optimal_allocation(prof, 10 ** rng.uniform(4, 9), 1e6)
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
            assert res.multipliers[0] > 0.0
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
        assert res.multipliers[0] == 0.0
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


# Reference copy of the Stage-1 bisection with one helper call per term
# of each probe.  The solver evaluates the same expressions in the same
# order with that per-row and per-probe work shared, so every result, and
# every exception, must match this bit for bit.

def _ref_h(u):
    x = u * ra.LN2
    if x < 1e-3:
        return x * x * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (
            1.0 / 30.0 + x / 144.0))))
    return x * math.exp(x) - math.expm1(x)


def _ref_stationarity_chi(u, kappa, cpu_hz, gain):
    return (_ref_h(u) / (2.0 * kappa * cpu_hz ** 3 * gain)) ** (1.0 / 3.0)


def _ref_binding_overshoot(u, kappa, mz, cpu_hz, bits, bandwidth, gain,
                           emax):
    chi = _ref_stationarity_chi(u, kappa, cpu_hz, gain)
    if chi > 1.0:
        chi = 1.0
    ecp = kappa * mz * (chi * cpu_hz) ** 2
    etx = bits * math.expm1(ra.LN2 * u) / (u * bandwidth * gain)
    return ecp + etx - emax


def _ref_stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    u_lo = 1e-6
    for _ in range(200):
        if _ref_binding_overshoot(u_lo, kappa, mz, cpu_hz, bits, bandwidth,
                                  gain, emax) < 0.0:
            break
        u_lo *= 0.0625
        if u_lo < 1e-280:
            raise ConvergenceError("allocation solver failed to converge")
    u_hi = 1.0
    for _ in range(200):
        if _ref_binding_overshoot(u_hi, kappa, mz, cpu_hz, bits, bandwidth,
                                  gain, emax) > 0.0:
            break
        u_hi *= 2.0
        if u_hi > 1e9:
            raise ConvergenceError("allocation solver failed to converge")
    for _ in range(300):
        mid = 0.5 * (u_lo + u_hi)
        if mid == u_lo or mid == u_hi:
            break
        if _ref_binding_overshoot(mid, kappa, mz, cpu_hz, bits, bandwidth,
                                  gain, emax) > 0.0:
            u_hi = mid
        else:
            u_lo = mid
        if (u_hi - u_lo) <= 1e-14 * u_hi:
            break
    return u_lo


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
        u = bits / (delta_full * bandwidth)
        lam2 = (bandwidth * power * gain * delta_full
                / (bits * ra.LN2 * math.exp(ra.LN2 * u)))
        return ra._result(profile, 1.0, 1.0, delta_full,
                          Binding.ENERGY_SLACK, (0.0, lam2, 0.0, mz / cpu_hz))
    u_star = _ref_stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain,
                                  emax)
    if u_star > u_full:
        etx = power * delta_full
        chi = min(math.sqrt((emax - etx) / (kappa * mz * cpu_hz ** 2)), 1.0)
        lam1 = 1.0 / (2.0 * kappa * cpu_hz ** 3 * chi ** 3)
        u = bits / (delta_full * bandwidth)
        lam2 = max(0.0, (1.0 - lam1 * _ref_h(u) / gain) * delta_full * power
                   * gain / (u * ra.LN2 * math.exp(ra.LN2 * u)))
        return ra._result(profile, chi, 1.0, delta_full,
                          Binding.ENERGY_BINDING, (lam1, lam2, 0.0, 0.0))
    chi = min(_ref_stationarity_chi(u_star, kappa, cpu_hz, gain), 1.0)
    delta = bits / (u_star * bandwidth)
    rho = rho_from_delta(delta, bits, bandwidth, power, gain)
    lam1 = gain / _ref_h(u_star)
    lam4 = max(0.0, mz / cpu_hz * (1.0 - 2.0 * lam1 * kappa * cpu_hz ** 3)
               ) if chi >= 1.0 else 0.0
    return ra._result(profile, chi, rho, delta, Binding.ENERGY_BINDING,
                      (lam1, 0.0, 0.0, lam4))


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


class TestBisectionMatchesReference:
    def test_benchmark_ranges(self):
        # the log-uniform ranges of the benchmark's allocate profiles
        rng = np.random.default_rng(11)
        regimes = set()
        for _ in range(2000):
            prof = DeviceProfile(
                sample_count=int(rng.integers(20, 101)),
                cycles_per_sample=1e7, cpu_hz=10 ** rng.uniform(8.5, 9.5),
                power_coeff=1e-28, max_power_w=10 ** rng.uniform(-2.5, -0.5),
                max_energy_j=10 ** rng.uniform(-2.5, -0.5),
                model_bits=10 ** rng.uniform(5, 7),
            )
            res = assert_matches_reference(prof, 10 ** rng.uniform(4, 9), 1e6)
            regimes.add((res.binding, res.rho == 1.0))
        assert len(regimes) == 3  # slack, capped and interior

    def test_near_boundary_budgets(self):
        for prof, gain, bw in near_boundary_instances():
            assert_matches_reference(prof, gain, bw)

    def test_clamp_threshold(self):
        # gains that put h(u) / den within a few ulps of 1 at the bracket
        # probes u = 1, 2 and 4, where chi switches to its clamp; budgets
        # at and next to the probe's energy make the probe's sign, and so
        # the bracket, hang on the last bit of that energy
        prof = DeviceProfile(sample_count=100, cycles_per_sample=1e8,
                             cpu_hz=1.1e9, power_coeff=1e-28,
                             max_power_w=1.0, max_energy_j=1.0,
                             model_bits=1e6)
        args = _solver_args(prof, 0.0, 1e6)
        kappa, cpu_hz = prof.power_coeff, prof.cpu_hz
        sides = set()
        for u in (1.0, 2.0, 4.0):
            gain = _ref_h(u) / (2.0 * kappa * cpu_hz ** 3)
            for _ in range(6):
                gain = math.nextafter(gain, 0.0)
            for _ in range(12):
                y = _ref_h(u) / (2.0 * kappa * cpu_hz ** 3 * gain)
                if abs(y - 1.0) <= 4 * math.ulp(1.0):
                    sides.add((y > 1.0) - (y < 1.0))
                    energy = _ref_binding_overshoot(u, *args[:5], gain, 0.0)
                    for emax in (math.nextafter(energy, 0.0), energy,
                                 math.nextafter(energy, math.inf)):
                        assert_matches_reference(
                            dataclasses.replace(prof, max_energy_j=emax),
                            gain, 1e6)
                gain = math.nextafter(gain, math.inf)
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
