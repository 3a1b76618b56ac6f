import numpy as np
import pytest
from hypothesis import given, strategies as st

from race_wfl.cost_model import DeviceProfile, comp_costs, round_delay
from race_wfl.errors import AssignmentError, RaceError
from race_wfl.selection import check_actions

PROFILE = DeviceProfile(
    sample_count=1, cycles_per_sample=1e7, cpu_hz=0.5e9, power_coeff=1e-28,
    max_power_w=10 ** (15 / 10) / 1000, max_energy_j=0.1, model_bits=1e6,
)


def test_comp_time_table_values():
    # mu = 1e7 cycles, one sample, 0.5 GHz fully allocated -> 20 ms
    comp_time, _ = comp_costs(PROFILE, 1.0)
    assert comp_time == pytest.approx(0.02, rel=0, abs=0)


def test_chi_scaling_laws_exact():
    chi = 0.25
    a_time, a_energy = comp_costs(PROFILE, chi)
    b_time, b_energy = comp_costs(PROFILE, 2 * chi)
    assert b_time == 0.5 * a_time
    assert b_energy == 4.0 * a_energy


def test_zero_cpu_fraction_errors():
    with pytest.raises(RaceError):
        comp_costs(PROFILE, 0.0)


def test_round_delay_single_device():
    delays = np.array([0.0, 0.0, 0.3, 0.0])
    assert round_delay(np.array([2]), delays) == 0.3


def test_round_delay_is_max():
    delays = np.array([0.1, 9.9, 0.5, 9.9, 0.2])
    assert round_delay(np.array([0, 2, 4]), delays) == 0.5


def test_round_delay_empty_assignment_is_zero():
    assert round_delay(np.full(3, -1), np.full(5, 7.0)) == 0.0


def test_round_delay_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, k = 20, 6
        devices = rng.choice(n, size=k, replace=False)
        delays = rng.uniform(0.01, 2.0, size=n)
        expected = max(delays[d] for d in devices)  # exhaustive over assigned
        assert round_delay(np.append(devices, -1), delays) == expected


def test_round_delay_invariant_under_subchannel_permutation():
    rng = np.random.default_rng(4)
    actions = np.array([1, 3, 5, 7])
    delays = rng.uniform(0.0, 1.0, size=8)
    base = round_delay(actions, delays)
    for _ in range(10):
        perm = rng.permutation(4)
        assert round_delay(actions[perm], delays) == base


def test_assignment_validation_errors():
    mask = np.array([1.0, 1.0, 0.0, 0.5])
    for actions in ([0.0, 1.0],   # not integers
                    [1, 1],       # one device on two sub-channels
                    [0, 4],       # no such device
                    [-2, 0],      # below the idle marker
                    [2, -1],      # masked-out device
                    [0],          # one action for two agents
                    [[0, 1]]):    # not a vector
        with pytest.raises(AssignmentError):
            check_actions(actions, mask, 2)
    got = check_actions([3, -1], mask, 2)
    assert got.dtype == np.int64 and got.tolist() == [3, -1]


@given(st.integers(0, 6))
def test_profile_validation(bad_field):
    fields = dict(
        sample_count=10, cycles_per_sample=1e7, cpu_hz=1e9,
        power_coeff=1e-28, max_power_w=0.1, max_energy_j=0.1,
        model_bits=1e6,
    )
    name = list(fields)[bad_field]
    fields[name] = 0
    with pytest.raises(ValueError):
        DeviceProfile(**fields)
