"""The traced functions of each race_wfl module and the per-layer metric
names they produce.

Each function gives ``<module>.<function>.calls`` and ``.self_s`` per
traced unit of work.  Two functions are split by a property of the
call: ``TsfenNetwork.forward`` by batch size (``b1`` for a single state,
``minibatch`` otherwise) and ``optimal_allocation`` by outcome.
"""

import os

from race_wfl.resource_alloc import Binding

# the round loop's energy guard (``World._advance``): a solve whose energy
# exceeds its budget by more than this share aborts a simulated round
GUARD_REL = 1e-9


def _batch_class(tracer, args, kwargs, result, exc):
    states = args[1] if len(args) > 1 else kwargs["states"]
    return "b1" if len(states) == 1 else "minibatch"


def _solve_outcome(tracer, args, kwargs, result, exc):
    if exc is not None:
        return "failed"
    if result.binding is Binding.ENERGY_SLACK:
        return "slack"
    profile = args[0] if args else kwargs["profile"]
    if result.energy > profile.max_energy_j * (1 + GUARD_REL):
        return "guard_overshoot"
    return "capped" if result.rho >= 1.0 else "interior"


def _saved_bytes(tracer, args, kwargs, result, exc):
    if exc is None:
        path = args[0] if args else kwargs["path"]
        tracer.counters["tsfen.save_params.bytes"] += os.path.getsize(path)
    return None


TARGETS = [
    ("simulation", "run_experiment", None),
    ("simulation", "World.advance_round", None),
    ("selection", "select_actions", None),
    ("selection", "ppo_update", None),
    ("selection", "baseline_policy", None),
    ("selection", "build_state", None),
    ("tsfen", "TsfenNetwork.forward", _batch_class),
    ("tsfen", "TsfenNetwork.backward", None),
    ("tsfen", "MhsaLayer.forward", None),
    ("tsfen", "MhsaLayer.backward", None),
    ("tsfen", "LstmLayer.forward", None),
    ("tsfen", "LstmLayer.backward", None),
    ("tsfen", "DenseLayer.forward", None),
    ("tsfen", "DenseLayer.backward", None),
    ("tsfen", "masked_softmax", None),
    ("tsfen", "adam_step", None),
    ("tsfen", "save_params", _saved_bytes),
    ("tsfen", "load_params", None),
    ("platoon", "step_platoon", None),
    ("fl_engine", "local_gradient", None),
    ("fl_engine", "flmd", None),
    ("fl_engine", "fedavg", None),
    ("channel", "realize_gains", None),
    ("resource_alloc", "optimal_allocation", _solve_outcome),
    ("resource_alloc", "check_feasibility", None),
    ("aoi_metrics", "RoundLedger.validate", None),
    ("aoi_metrics", "csv_row", None),
    ("cli", "cmd_allocate", None),
    ("cli", "cmd_verify", None),
    ("theory_checks", "verify_lemma3", None),
    ("theory_checks", "verify_theorem4", None),
    ("theory_checks", "verify_theorem5", None),
    ("theory_checks", "verify_theorem7", None),
    ("theory_checks", "verify_theorem9", None),
    ("theory_checks", "verify_local_smoothness_containment", None),
]

SPLITS = {
    "tsfen.TsfenNetwork.forward": ("b1", "minibatch"),
    "resource_alloc.optimal_allocation": (
        "slack", "interior", "capped", "guard_overshoot", "failed"),
}

# outcomes that never take time worth reporting get a call count only
_COUNT_ONLY = {"resource_alloc.optimal_allocation.failed"}

COUNTERS = ["tsfen.save_params.bytes"]


def span_names():
    names = []
    for module, qualname, _ in TARGETS:
        name = f"{module}.{qualname}"
        names += [f"{name}.{s}" for s in SPLITS[name]] \
            if name in SPLITS else [name]
    return names


def metric_units():
    """{per-layer metric name: unit}, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        if name not in _COUNT_ONLY:
            units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes"
    units["trace.spans"] = "count"
    units["trace.overhead"] = "%"
    return units
