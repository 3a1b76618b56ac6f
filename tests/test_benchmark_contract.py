"""The benchmark's hold on the package: every function that
``perfbench/layers.py`` traces and every function that
``perfbench/workloads.Hooks`` wraps still exists under its name, and the
calls that the wrappers intercept keep the forms the wrappers accept.
Without these tests, a rename or a changed signature in the package
would first show as a failed benchmark run.  The benchmark's modules
are imported and used as they are."""

import importlib
import math
import sys
from pathlib import Path

import pytest

from race_wfl.config import config_from_dict
from race_wfl.simulation import run_experiment

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_TRAINING = {
    "platoon": {"n_followers": 6},
    "selection": {"n_subchannels": 2, "subperiods": 3},
    "task": {"model_dim": 40, "n_samples": 300},
    "mappo": {"d_model": 8, "n_heads": 2, "squeeze_dim": 3,
              "lstm_hidden": 6, "fc_hidden": 6, "episodes_per_update": 1},
    "run": {"episodes": 1, "rounds_per_episode": 6, "seed": 5},
}


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``layers``, ``tracer`` and ``workloads`` modules,
    imported the way ``perfbench/run.py`` imports them."""
    sys.path.insert(0, str(BENCH))
    try:
        yield tuple(importlib.import_module(name)
                    for name in ("layers", "tracer", "workloads"))
    finally:
        sys.path.remove(str(BENCH))


class _Probe:
    def maybe(self):
        pass


def _resolve(module, qualname):
    obj = importlib.import_module(f"race_wfl.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(obj, cls_name))[attr]  # a method of its class
    return getattr(obj, qualname)


def test_every_traced_and_wrapped_name_resolves(bench):
    layers, _, workloads = bench
    names = [(module, qualname) for module, qualname, _ in layers.TARGETS]
    names += workloads.Hooks.PROBE_POINTS
    names += [("simulation", "World.advance_round"),
              ("selection", "ppo_update")]
    for module, qualname in names:
        assert callable(_resolve(module, qualname)), f"{module}.{qualname}"


def test_traced_training_run_calls_through_the_hooks(bench, tmp_path):
    # as in a traced benchmark run: ``Hooks`` wraps
    # ``World.advance_round(world, select_fn)`` and
    # ``selection.ppo_update(batch, rng)`` with exactly those positional
    # parameters, ``Train`` wants one dict of finite floats per agent, and
    # the span-splitting hooks read positional arguments and results of
    # ``TsfenNetwork.forward`` and ``optimal_allocation``
    layers, tracer, workloads = bench
    hooks = workloads.Hooks(_Probe())
    hooks.install()
    trace = tracer.Tracer()
    trace.install(layers.TARGETS)
    try:
        run_experiment(config_from_dict(TINY_TRAINING), "mappo", tmp_path,
                       train=True, log_every=0)
    finally:
        trace.uninstall()
        hooks.uninstall()
    assert hooks.first_round is not None
    assert len(hooks.ppo_stats) == TINY_TRAINING["selection"]["n_subchannels"]
    for stats in hooks.ppo_stats:
        assert isinstance(stats, dict)
        assert all(math.isfinite(v) for v in stats.values())
    names = [name for name, *_ in trace.spans]
    assert names.count("selection.build_state") \
        == TINY_TRAINING["run"]["rounds_per_episode"]
    assert {"tsfen.TsfenNetwork.forward.b1",
            "tsfen.TsfenNetwork.forward.minibatch",
            "resource_alloc.optimal_allocation.slack",
            "platoon.step_platoon"} <= set(names)
    assert set(names) <= set(layers.span_names())
