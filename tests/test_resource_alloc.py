import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import random_instance
from race_wfl.channel import data_rate
from race_wfl.cost_model import DeviceProfile
from race_wfl.errors import InfeasibleError, RaceError, RegimeError
from race_wfl.resource_alloc import (
    Binding, SolverSettings, check_feasibility, grid_feasibility,
    grid_search_allocation, high_snr_delta, large_model_delta,
    optimal_allocation, rho_from_delta, solve_binding_delta,
    _binding_residual,
)

LN2 = math.log(2.0)


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
    def test_residual_at_root(self):
        prof = binding_profile()
        delta = solve_binding_delta(1.0, prof, BINDING_GAIN, BINDING_B)
        ecp = prof.power_coeff * prof.work_cycles * prof.cpu_hz ** 2
        g = _binding_residual(delta, ecp, prof.model_bits, BINDING_B,
                              BINDING_GAIN, prof.max_energy_j)
        assert abs(g) <= 1e-6 * prof.max_energy_j

    def test_against_million_point_grid(self):
        prof = binding_profile()
        delta = solve_binding_delta(1.0, prof, BINDING_GAIN, BINDING_B)
        lo = prof.model_bits / (
            BINDING_B * math.log2(1 + prof.max_power_w * BINDING_GAIN))
        grid = np.linspace(lo, 1e3 * lo, 10 ** 6)
        ecp = prof.power_coeff * prof.work_cycles * prof.cpu_hz ** 2
        u = prof.model_bits / (grid * BINDING_B)
        resid = ecp + grid * np.expm1(LN2 * u) / BINDING_GAIN - prof.max_energy_j
        cross = np.argmax(resid <= 0)  # first grid point past the root
        step = grid[1] - grid[0]
        assert abs(delta - grid[cross]) <= 2 * step

    def test_energy_slack_bracket_errors(self):
        prof = binding_profile(max_energy_j=10.0)
        with pytest.raises(InfeasibleError):
            solve_binding_delta(1.0, prof, BINDING_GAIN, BINDING_B)

    def test_infeasible_instance_errors(self):
        prof = binding_profile(max_energy_j=1e-9)
        with pytest.raises(InfeasibleError):
            solve_binding_delta(1.0, prof, BINDING_GAIN, BINDING_B)


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
        assert binding > 500

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
