import numpy as np
import pytest
from hypothesis import given, strategies as st

from race_wfl.aoi_metrics import (
    RoundLedger, csv_header, csv_row, objective_term, reward,
    update_aoi_vector,
)
from race_wfl.config import config_from_dict
from race_wfl.simulation import run_experiment


def update_one(prev, selected, delay):
    """The vector recursion applied to a single device."""
    return update_aoi_vector(np.array([prev]), np.array([selected]),
                             delay)[0]


class TestUpdateAoi:
    def test_selection_resets_to_zero(self):
        assert update_one(123.4, True, 9.9) == 0.0

    def test_unselected_accumulates_delay(self):
        assert update_one(5.0, False, 2.0) == 7.0

    def test_never_selected_telescopes(self):
        delays = [0.3, 1.2, 0.0, 2.5]
        age = np.zeros(3)
        for d in delays:
            age = update_aoi_vector(age, np.zeros(3, dtype=bool), d)
        assert age == pytest.approx([sum(delays)] * 3, rel=1e-15)

    @given(prev=st.floats(0, 1e6), delay=st.floats(0, 1e3),
           sel=st.booleans())
    def test_recursion_cases(self, prev, delay, sel):
        got = update_one(prev, sel, delay)
        assert got == (0.0 if sel else prev + delay)

    def test_vector_path_matches_scalar(self):
        rng = np.random.default_rng(0)
        prev = rng.uniform(0, 10, size=12)
        sel = rng.random(12) < 0.3
        delay = 0.7
        vec = update_aoi_vector(prev, sel, delay)
        scal = [0.0 if s else p + delay for p, s in zip(prev, sel)]
        assert vec == pytest.approx(scal, rel=0, abs=0)


class TestReward:
    def test_ideal_round_scores_zero(self):
        assert reward(np.zeros(5), np.zeros(5), 1.0, 10.0, 5, 4) == 0.0

    def test_arithmetic_case(self):
        aoi = np.array([4.0, 6.0])
        got = reward(aoi, np.zeros(2), 1.0, 0.0, 5, 2)
        assert got == pytest.approx(-1.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 30)
            aoi = rng.uniform(0, 5, size=n)
            drift = rng.uniform(0, 1, size=n)
            alpha, beta = rng.uniform(0, 3, size=2)
            m, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            expected = 0.0
            for i in range(n):
                expected += alpha * aoi[i] + beta * drift[i] ** 2
            expected = -expected / (m * k)
            assert reward(aoi, drift, alpha, beta, m, k) == \
                pytest.approx(expected, rel=1e-12)

    def test_monotone_in_age_and_drift(self):
        base_aoi = np.array([1.0, 2.0])
        base_drift = np.array([0.1, 0.2])
        r0 = reward(base_aoi, base_drift, 1.0, 10.0, 5, 2)
        assert reward(base_aoi + 0.5, base_drift, 1.0, 10.0, 5, 2) < r0
        assert reward(base_aoi, base_drift + 0.1, 1.0, 10.0, 5, 2) < r0

    def test_dominating_trajectory_scores_higher(self):
        better = reward(np.array([1.0, 1.0]), np.array([0.1, 0.1]),
                        1.0, 10.0, 5, 2)
        worse = reward(np.array([2.0, 1.5]), np.array([0.3, 0.2]),
                       1.0, 10.0, 5, 2)
        assert better > worse


class TestObjective:
    def test_single_round(self):
        expected = 1.0 * 3.0 + 10.0 * 0.75
        assert objective_term([1.0, 2.0], [0.5, 0.25], 1.0, 10.0) == \
            pytest.approx(expected)

    def test_beta_zero_reduces_to_sum_aoi(self):
        rng = np.random.default_rng(5)
        aoi, drift = rng.uniform(0, 5, 6), rng.uniform(0, 1, 6)
        assert objective_term(aoi, drift, 1.0, 0.0) == \
            pytest.approx(aoi.sum(), rel=1e-15)

    def test_recompute_matches_recorded_terms(self, tmp_path):
        # the cumulative column of rounds.csv is the running sum of each
        # round's term over the ages and drifts the same row records
        cfg = config_from_dict({
            "platoon": {"n_followers": 4},
            "selection": {"n_subchannels": 2},
            "task": {"model_dim": 40, "n_samples": 200},
            "run": {"episodes": 1, "rounds_per_episode": 10, "seed": 7}})
        report = run_experiment(cfg, "random", tmp_path, log_every=0)
        table = np.genfromtxt(report.csv_path, delimiter=",", names=True)
        aoi = np.stack([table[f"aoi_{n}"] for n in range(4)], axis=1)
        drift = np.stack([table[f"drift_{n}"] for n in range(4)], axis=1)
        terms = [objective_term(a, d, cfg.run.alpha, cfg.run.beta)
                 for a, d in zip(aoi, drift)]
        assert table["cumulative_objective"] == pytest.approx(
            np.cumsum(terms), rel=1e-15)

    def test_linear_and_squared_drift_never_conflated(self):
        # the cumulative objective is linear in drift, the reward squares
        # it; on any drift not in {0, 1} the two weighting styles differ
        drift = np.array([0.5, 0.5])
        aoi = np.zeros(2)
        obj = objective_term(aoi, drift, 0.0, 1.0)
        rew_weight = -reward(aoi, drift, 0.0, 1.0, 1, 1)
        assert obj != rew_weight


class TestLedgerAndCsv:
    def make_ledger(self):
        aoi = np.array([1.5, 0.0, 2.5, 0.0])
        drift = np.array([0.1, 0.2, 0.3, 0.4])
        return RoundLedger(
            round_index=3, aoi=aoi, drift=drift, actions=np.array([1, 3]),
            round_delay=0.25, rewards=np.array([-1.0, -1.0]),
            objective_term=objective_term(aoi, drift, 1.0, 10.0),
        )

    def test_validate_passes_on_consistent_ledger(self):
        self.make_ledger().validate()

    def test_validate_rejects_selected_device_with_age(self):
        led = self.make_ledger()
        led.aoi[1] = 0.5
        with pytest.raises(ValueError):
            led.validate()

    def test_csv_row_matches_header_width(self):
        led = self.make_ledger()
        header = csv_header(4, 2)
        row = csv_row(0, led, 12.5)
        assert len(header.split(",")) == len(row.split(","))

    def test_csv_serializes_17_significant_digits(self):
        led = self.make_ledger()
        led.aoi[0] = 1.0 / 3.0
        row = csv_row(0, led, 0.0)
        assert "0.33333333333333331" in row

    def test_csv_row_matches_per_value_formatting(self):
        # each float through ``format(float(x), ".17g")`` on its own
        def fmt(x):
            return format(float(x), ".17g")

        led = self.make_ledger()
        led.aoi[:] = [-0.0, 5e-324, 1e308, 0.1 + 0.2]
        led.drift[:] = [2.2250738585072014e-308, 1.7976931348623157e308,
                        123456789.12345678, -1.0 / 3.0]
        led.round_delay = np.float64(2.5e-320)
        led.rewards[:] = [-0.0, -9.8765432109876543e-5]
        for cumulative in (0.0, 1e300 * 7.0, 4.9406564584124654e-324):
            ref = ",".join(
                [str(7), str(led.round_index)]
                + [fmt(v) for v in led.aoi] + [fmt(v) for v in led.drift]
                + [str(int(a)) for a in led.actions]
                + [fmt(led.round_delay)] + [fmt(v) for v in led.rewards]
                + [fmt(cumulative)])
            assert csv_row(7, led, cumulative) == ref

    def test_csv_reports_idle_agents(self):
        led = self.make_ledger()
        led.actions[1] = -1
        row = csv_row(0, led, 0.0).split(",")
        header = csv_header(4, 2).split(",")
        assert row[header.index("device_of_agent_1")] == "-1"
