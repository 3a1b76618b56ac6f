"""Tests of the benchmark itself: span arithmetic, seeded inputs, the
allocation regimes the inputs reach, and the result format.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import reference
import tracer
import workloads
from race_wfl import cli, resource_alloc, simulation
from race_wfl.resource_alloc import Binding, optimal_allocation

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def _spans(*rows):
    return [list(row) for row in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 9.5, 9.75, 0),
    )
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0 - 0.25, 3.0 - 1.0, 1.0, 4.0, 0.25])
    totals = tracer.aggregate(spans)
    assert totals["b"] == (2, pytest.approx(4.25))
    assert totals["root"] == (1, pytest.approx(2.75))


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = _spans(
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 6.0, 0),       # overlaps x: union is [1, 6]
        ("z", 9.0, 12.0, 0),      # runs past the parent: clipped to [9, 10]
    )
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_splits():
    t = tracer.Tracer()

    def leaf(x):
        return x

    def outer(x):
        return inner(x) + inner(x)

    def inner(x):
        return leaf(x)

    leaf = t.wrap("leaf", leaf,
                  split=lambda tr, args, kw, res, exc: "big" if res > 1
                  else None)
    inner = t.wrap("inner", inner)
    outer = t.wrap("outer", outer)
    assert outer(2) == 4
    names = [s[0] for s in t.spans]
    parents = [s[3] for s in t.spans]
    assert names == ["outer", "inner", "leaf.big", "inner", "leaf.big"]
    assert parents == [-1, 0, 1, 0, 3]
    assert all(s[2] >= s[1] for s in t.spans)


def test_tracer_replaces_names_imported_into_other_modules():
    orig = resource_alloc.optimal_allocation
    t = tracer.Tracer()
    t.install([("resource_alloc", "optimal_allocation", None),
               ("simulation", "World.advance_round", None)])
    try:
        assert simulation.optimal_allocation is not orig
        assert simulation.optimal_allocation is cli.optimal_allocation
        assert resource_alloc.optimal_allocation is cli.optimal_allocation
    finally:
        t.uninstall()
    assert simulation.optimal_allocation is orig
    assert cli.optimal_allocation is orig
    assert "advance_round" in simulation.World.__dict__
    assert not hasattr(simulation.World.advance_round, "__wrapped__")


def test_every_trace_target_and_probe_point_exists():
    points = [(m, q, None) for m, q in workloads.Hooks.PROBE_POINTS]
    for module, qualname, _ in layers.TARGETS + points:
        owner = sys.modules[f"race_wfl.{module}"]
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_allocate_profiles_are_deterministic_for_a_seed(tmp_path):
    a = workloads.allocate_profiles(5, rows=300)
    b = workloads.allocate_profiles(5, rows=300)
    c = workloads.allocate_profiles(6, rows=300)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])
    assert not np.array_equal(a["gain"], c["gain"])
    workloads.write_profiles(tmp_path / "a.csv", a)
    workloads.write_profiles(tmp_path / "b.csv", b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_rollout_checkpoint_is_deterministic_for_a_seed(tmp_path):
    paths = []
    for name in ("one", "two"):
        work = tmp_path / name
        work.mkdir()
        wl = workloads.Rollout(3, str(work),
                               workloads.Hooks(reference.SpeedProbe()))
        wl.prepare()
        paths.append(wl.checkpoint)
    assert workloads.file_sha256(paths[0]) == workloads.file_sha256(paths[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_allocate_profiles_reach_all_three_regimes(seed):
    cols = workloads.allocate_profiles(seed, rows=1500)
    bandwidth = 1e6
    counts = {"slack": 0, "interior": 0, "capped": 0}
    for i in range(1500):
        profile = workloads.profile_at(cols, i)
        gain = float(cols["gain"][i])
        assert resource_alloc.check_feasibility(
            profile.model_bits, profile.max_energy_j, bandwidth, gain)
        res = optimal_allocation(profile, gain, bandwidth)
        if res.binding is Binding.ENERGY_SLACK:
            counts["slack"] += 1
        else:
            counts["capped" if res.rho >= 1.0 else "interior"] += 1
    for regime, count in counts.items():
        assert count >= 0.05 * 1500, (regime, counts)


@pytest.mark.parametrize("mix", sorted(reference.MIXES))
def test_speed_probe_samples_inside_a_unit_at_most_once_per_gap(mix):
    probe = reference.SpeedProbe(mix, gap=0.0)
    probe.sample()
    probe.begin_unit()
    probe.maybe()
    probe.maybe()
    ref_s, inside_s = probe.end_unit()
    assert len(probe.samples) == 4     # both ends and two inside
    assert inside_s == pytest.approx(sum(probe.samples[1:3]))
    assert ref_s == pytest.approx(sum(probe.samples) / 4)
    probe.maybe()                      # between units: no sampling
    assert len(probe.samples) == 4
    probe.begin_unit(inside=False)     # a traced unit: ends only
    probe.maybe()
    assert probe.end_unit()[1] == 0.0
    assert len(probe.samples) == 2


def test_strict_json_rejects_nan():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        workloads.strict_json('{"a": NaN}')


def _run(args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_is_strict_json_with_the_declared_metrics(trace):
    proc = _run(["--workload", "allocate", "--seed", "4", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = workloads.strict_json(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_declared_per_layer_metrics_match_the_tracer():
    declared = _benchmark_json()["per_layer"]
    assert [m["name"] for m in declared] == list(layers.metric_units())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "train", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path,
                run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
