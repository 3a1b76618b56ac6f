"""Benchmark workloads: seeded inputs, one repeatable unit of work, and
the checks on each unit's outputs.

Every workload drives the package through its public entry points,
``simulation.run_experiment`` or ``cli.main``.  A unit is the smallest
piece of work whose time a user sees: one training episode with its PPO
update, one evaluation episode of each of two policies, one ``race-wfl
allocate`` call or one ``race-wfl verify --quick`` call.  Units of a run
repeat the same inputs, so their outputs must hash the same.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from race_wfl import cli, simulation
from race_wfl.config import ScenarioConfig, config_from_dict
from race_wfl.cost_model import DeviceProfile
from race_wfl.resource_alloc import Binding, grid_search_allocation

import tracer
from layers import GUARD_REL

ALLOCATE_ROWS = 10_000
GRID_SAMPLE_ROWS = 32
# ``race-wfl allocate`` prints delays with 12 significant digits
PRINTED_REL = 1e-11


@dataclass
class Unit:
    seconds: float              # timed work, set-up excluded
    setup_s: float = 0.0        # program set-up inside the call
    ref_s: float = 0.0          # mean reference kernel time over the unit
    attempted: int = 0          # operations: rounds, solves or checks
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def strict_json(text):
    """``json.loads`` that rejects NaN and infinities."""
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Hooks:
    """Light probes kept in place for a whole run, traced or not.

    They record the start of the first round of a call (which ends its
    set-up) and the statistics every PPO update returns, and they let the
    speed probe sample between rounds, PPO updates, solves and theory
    checks.
    """

    PROBE_POINTS = [
        ("resource_alloc", "optimal_allocation"),
        ("theory_checks", "verify_lemma3"),
        ("theory_checks", "verify_theorem4"),
        ("theory_checks", "verify_theorem5"),
        ("theory_checks", "verify_theorem7"),
        ("theory_checks", "verify_theorem9"),
        ("theory_checks", "verify_local_smoothness_containment"),
    ]

    def __init__(self, probe):
        self.probe = probe
        self.first_round = None
        self.ppo_stats = []
        self._undo = []

    def install(self):
        probe = self.probe

        def clock(orig):
            def advance_round(world, select_fn):
                if self.first_round is None:
                    self.first_round = time.perf_counter()
                probe.maybe()
                return orig(world, select_fn)
            return advance_round

        def stats(orig):
            def ppo_update(bundle, rng):
                out = orig(bundle, rng)
                self.ppo_stats.append(out)
                probe.maybe()
                return out
            return ppo_update

        def sampled(orig):
            def call(*args, **kwargs):
                out = orig(*args, **kwargs)
                probe.maybe()
                return out
            return call

        self._undo += tracer.replace("simulation", "World.advance_round",
                                     clock)
        self._undo += tracer.replace("selection", "ppo_update", stats)
        for module, name in self.PROBE_POINTS:
            self._undo += tracer.replace(module, name, sampled)

    def uninstall(self):
        tracer.restore(self._undo)

    def reset(self):
        self.first_round = None
        self.ppo_stats = []


class Workload:
    name = ""
    op_name = ""
    # the reference kernel that tracks this workload's speed; see
    # reference.py
    reference_mix = "interpreter"

    def __init__(self, seed, work_dir, hooks):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.hooks = hooks

    def prepare(self):
        """Benchmark-side inputs; not timed."""

    def warm_up(self):
        """Untimed work that fills caches and starts BLAS threads."""

    def run_unit(self) -> Unit:
        raise NotImplementedError

    def final_checks(self, units):
        """Checks made once after timing; returns (failed ops, problems)."""
        return 0, []

    def summary(self, units):
        """(label, value, unit) lines for the report: the unit time under
        the name users know it by, and what the outputs contained."""
        return []


class SameOutput:
    """Every unit of a run must write the same bytes."""

    def __init__(self):
        self.reference = None

    def check(self, path, unit):
        digest = file_sha256(path)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            unit.problems.append(f"{os.path.basename(path)} differs from "
                                 "the first unit's")


class Episode:
    """One ``run_experiment`` call of one episode.

    The timed part runs from the first round to the call's return; what
    comes before it (``World`` and policy construction, checkpoint load)
    is the call's set-up.  Each call starts from the same seed, so each
    must write the same ``rounds.csv``, and ``summary.json`` must be
    strict JSON.
    """

    def __init__(self, overrides, policy, seed, out_dir, hooks, train=False,
                 checkpoint=None):
        self.overrides = overrides
        self.cfg = config_from_dict(overrides)
        self.policy = policy
        self.seed = seed
        self.out_dir = out_dir
        self.hooks = hooks
        self.train = train
        self.checkpoint = checkpoint
        self.same = SameOutput()

    def _call(self, cfg, out_dir):
        return simulation.run_experiment(
            cfg, self.policy, out_dir, seed=self.seed, episodes=1,
            train=self.train, checkpoint_in=self.checkpoint, log_every=0)

    def warm_up(self):
        short = {**self.overrides,
                 "run": {**self.overrides.get("run", {}),
                         "rounds_per_episode": 8}}
        self._call(config_from_dict(short), self.out_dir + "-warm")

    def run(self):
        rounds = self.cfg.run.rounds_per_episode
        self.hooks.reset()
        start = time.perf_counter()
        try:
            report = self._call(self.cfg, self.out_dir)
        except Exception as exc:  # a failed unit is counted, not fatal
            return Unit(seconds=time.perf_counter() - start,
                        attempted=rounds, failed=rounds,
                        problems=[f"{type(exc).__name__}: {exc}"])
        end = time.perf_counter()
        first = self.hooks.first_round or start
        unit = Unit(seconds=end - first, setup_s=first - start,
                    attempted=rounds)
        self.same.check(report.csv_path, unit)
        try:
            with open(os.path.join(self.out_dir, "summary.json"),
                      encoding="utf-8") as fh:
                strict_json(fh.read())
        except ValueError as exc:
            unit.problems.append(f"summary.json: {exc}")
        return unit


class Train(Workload):
    """MAPPO training on the default scenario: each unit is one episode
    and the PPO update of every agent on it, at full network size."""

    name = "train"
    op_name = "rounds"
    # the PPO update is as much memory-bound as interpreter-bound
    reference_mix = "mixed"
    overrides = {"mappo": {"episodes_per_update": 1}}

    def prepare(self):
        self.episode = Episode(self.overrides, "mappo", self.seed,
                               os.path.join(self.work_dir, "train"),
                               self.hooks, train=True)

    def warm_up(self):
        self.episode.warm_up()

    def run_unit(self):
        unit = self.episode.run()
        stats = self.hooks.ppo_stats
        agents = self.episode.cfg.selection.n_subchannels
        if not unit.failed and len(stats) != agents:
            unit.problems.append(f"{len(stats)} PPO updates, expected "
                                 f"{agents}")
        for entry in stats:
            if not all(math.isfinite(v) for v in entry.values()):
                unit.problems.append(f"non-finite PPO statistics {entry}")
        if unit.problems:
            unit.failed = unit.attempted
        return unit

    def summary(self, units):
        return [("train_episode_s", statistics.median(u.seconds for u in units), "s")]


class Rollout(Workload):
    """Evaluation on the default scenario: each unit is one episode of a
    frozen MAPPO policy loaded from a checkpoint, then one episode of the
    network-free ``greedy_aoi`` baseline, through the same round loop."""

    name = "rollout"
    op_name = "rounds"

    def prepare(self):
        # a policy with other initial weights stands in for a trained one
        self.checkpoint = os.path.join(self.work_dir, "policy.bin")
        simulation.make_policy(ScenarioConfig(), "mappo",
                               self.seed + 1).save(self.checkpoint)
        self.episodes = {
            kind: Episode({}, kind, self.seed,
                          os.path.join(self.work_dir, kind), self.hooks,
                          checkpoint=self.checkpoint if kind == "mappo"
                          else None)
            for kind in ("mappo", "greedy_aoi")}

    def warm_up(self):
        for episode in self.episodes.values():
            episode.warm_up()

    def run_unit(self):
        parts = {kind: ep.run() for kind, ep in self.episodes.items()}
        unit = Unit(seconds=0.0)
        for kind, part in parts.items():
            unit.seconds += part.seconds
            unit.setup_s += part.setup_s
            unit.attempted += part.attempted
            unit.failed += part.failed
            unit.problems += [f"{kind}: {p}" for p in part.problems]
            unit.notes[f"{kind}_s"] = part.seconds
        return unit

    def summary(self, units):
        rounds = units[0].attempted // len(self.episodes)
        return [(f"rollout_{label}_rounds_per_s",
                 rounds / statistics.median(u.notes[f"{kind}_s"] for u in units),
                 "1/s")
                for label, kind in (("mappo", "mappo"),
                                    ("greedy", "greedy_aoi"))]


_PROFILE_HEADER = ["sample_count", "cycles_per_sample", "cpu_hz",
                   "power_coeff", "max_power_w", "max_energy_j",
                   "model_bits", "gain"]


def allocate_profiles(seed, rows=ALLOCATE_ROWS):
    """Seeded device profiles that reach all three allocation regimes.

    Log-uniform ranges; every row is feasible because the budget always
    exceeds the vanishing-power transmission energy
    ``ln2 * model_bits / (bandwidth * gain)`` at the default 1 MHz.
    """
    rng = np.random.default_rng(seed)
    return {
        "sample_count": rng.integers(20, 101, rows),
        "cycles_per_sample": np.full(rows, 1e7),
        "cpu_hz": 10 ** rng.uniform(8.5, 9.5, rows),
        "power_coeff": np.full(rows, 1e-28),
        "max_power_w": 10 ** rng.uniform(-2.5, -0.5, rows),
        "max_energy_j": 10 ** rng.uniform(-2.5, -0.5, rows),
        "model_bits": 10 ** rng.uniform(5, 7, rows),
        "gain": 10 ** rng.uniform(4, 9, rows),
    }


def write_profiles(path, columns):
    rows = len(columns["gain"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PROFILE_HEADER)
        for i in range(rows):
            writer.writerow([repr(columns[c][i].item())
                             for c in _PROFILE_HEADER])


def profile_at(columns, i):
    return DeviceProfile(
        sample_count=int(columns["sample_count"][i]),
        cycles_per_sample=float(columns["cycles_per_sample"][i]),
        cpu_hz=float(columns["cpu_hz"][i]),
        power_coeff=float(columns["power_coeff"][i]),
        max_power_w=float(columns["max_power_w"][i]),
        max_energy_j=float(columns["max_energy_j"][i]),
        model_bits=float(columns["model_bits"][i]),
    )


class Allocate(Workload):
    """``race-wfl allocate`` in-process on a seeded profile CSV."""

    name = "allocate"
    op_name = "solves"

    def prepare(self):
        self.columns = allocate_profiles(self.seed)
        self.profiles = os.path.join(self.work_dir, "profiles.csv")
        self.out = os.path.join(self.work_dir, "allocation.csv")
        write_profiles(self.profiles, self.columns)
        self.rows = len(self.columns["gain"])
        self.same = SameOutput()

    def warm_up(self):
        small = os.path.join(self.work_dir, "warm.csv")
        write_profiles(small, allocate_profiles(self.seed, rows=200))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["allocate", "--profiles", small, "--out",
                      os.path.join(self.work_dir, "warm_out.csv")])

    def run_unit(self):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["allocate", "--profiles", self.profiles,
                             "--out", self.out])
        unit = Unit(seconds=time.perf_counter() - start,
                    attempted=self.rows)
        if code != 0:
            unit.problems.append(f"allocate exited {code}")
            unit.failed = self.rows
            return unit
        self.same.check(self.out, unit)
        table = self.read_output()
        if len(table) != self.rows:
            unit.problems.append(f"{len(table)} output rows for "
                                 f"{self.rows} profiles")
            unit.failed = self.rows
            return unit
        unit.notes = self.regime_counts(table)
        if unit.problems:
            unit.failed = self.rows
        return unit

    def summary(self, units):
        """Solves per second, and how many solves per unit landed in each
        regime.  ``guard_overshoot`` counts binding solves whose energy is
        over budget by more than the round loop's guard allows: inside the
        solver's own tolerance, yet a simulated round would abort on them.
        """
        lines = [("allocate_solves_per_s",
                  self.rows / statistics.median(u.seconds for u in units), "1/s")]
        lines += [(regime, count, f"of {self.rows} solves")
                  for regime, count in units[0].notes.items()]
        return lines

    def read_output(self):
        with open(self.out, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def regime_counts(self, table):
        """Slack, interior, capped and guard-overshoot counts of a table."""
        counts = {"slack": 0, "interior": 0, "capped": 0,
                  "guard_overshoot": 0}
        budgets = self.columns["max_energy_j"]
        for i, row in enumerate(table):
            if row["binding"] == Binding.ENERGY_SLACK.value:
                counts["slack"] += 1
                continue
            counts["capped" if float(row["rho"]) == 1.0
                   else "interior"] += 1
            if float(row["energy_residual"]) > GUARD_REL * budgets[i]:
                counts["guard_overshoot"] += 1
        return counts

    def final_checks(self, units):
        """The solver's delay is no worse than the grid oracle's on a fixed
        sample of rows; a row that loses fails in every unit."""
        table = self.read_output()
        bandwidth = ScenarioConfig().channel.bandwidth
        bad = []
        for i in range(GRID_SAMPLE_ROWS):
            grid_delay, _, _ = grid_search_allocation(
                profile_at(self.columns, i), float(self.columns["gain"][i]),
                bandwidth)
            if float(table[i]["total_delay"]) > grid_delay * (
                    1 + PRINTED_REL):
                bad.append(i)
        if not bad:
            return 0, []
        return len(bad) * len(units), [
            f"rows {bad} slower than the grid oracle"]


class Verify(Workload):
    """``race-wfl verify --quick``; its inputs are fixed by the program,
    so the seed does not change them."""

    name = "verify"
    op_name = "gating checks"

    def prepare(self):
        self.out_dir = os.path.join(self.work_dir, "verify")

    def run_unit(self):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--quick", "--out-dir", self.out_dir])
        unit = Unit(seconds=time.perf_counter() - start)
        # table rows read "<check name> PASS|FAIL"; the one informational
        # check says so in its name and does not gate
        for line in buf.getvalue().splitlines():
            name, _, verdict = line.rpartition(" ")
            if verdict not in ("PASS", "FAIL") or "informational" in name:
                continue
            unit.attempted += 1
            if verdict == "FAIL":
                unit.failed += 1
                unit.problems.append(f"{name.strip()} failed")
        if unit.attempted == 0:
            unit.attempted = unit.failed = 1
            unit.problems.append("no gating checks in the verify output")
        elif (code == 0) != (unit.failed == 0):
            unit.problems.append(f"verify exited {code} with "
                                 f"{unit.failed} failed checks")
            unit.failed = unit.attempted
        return unit

    def summary(self, units):
        return [("verify_s", statistics.median(u.seconds for u in units), "s")]


WORKLOADS = {cls.name: cls for cls in (Train, Rollout, Allocate, Verify)}
