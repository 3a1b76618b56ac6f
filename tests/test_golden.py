"""Golden-output hashes: TSFEN kernels, a short training run, platoon
trajectories and an allocation table, bit for bit.

The kernels in ``tsfen.py``, ``platoon.py`` and ``resource_alloc.py`` may
be restructured (views instead of copies, fused calls, preallocated
buffers, a different control flow) as long as every float they produce
stays the same.  A change that must move last bits, such as regrouping a
BLAS reduction, declares which pins move and why, shows that old and
new outputs differ only by rounding (for TSFEN: logits and gradients
within 1e-13 relative), and re-pins only those entries.  Stage 1's
root-finder runs only for energy-binding devices, so three pins cover
it: the ``allocate`` table and the ``round_robin-binding`` and
``random-infeasible`` baseline runs (320 and 23 root-finds; the
latter's few feasible devices have budgets within 10x of the
transmission-energy infimum).  The other pins never call it.  These
tests pin SHA-256 hashes of

* the raw bytes of ``TsfenNetwork`` logits and of every parameter gradient,
  at batch 1 (the rollout path) and batch 32 (the PPO minibatch path),
  at the default network size;
* ``rounds.csv`` and ``checkpoint_final.bin`` of a 1-episode, 40-round
  training run on the default scenario.  40 rounds give each agent's PPO
  update one 32-row and one 8-row minibatch per epoch;
* ``rounds.csv`` and ``summary.json`` of a 1-episode, 40-round
  evaluation run of that training run's ``checkpoint_final.bin``, the
  path that loads a checkpoint into a policy that does not train;
* the same two files of a 2-episode, 20-round run that updates after
  every episode, so the second episode's rounds are chosen by a policy
  that has taken a PPO update and drawn its minibatch permutations;
* ``rounds.csv`` of four 2-episode, 20-round baseline runs on an
  8-follower, 2-sub-channel scenario: ``greedy_aoi`` as is, ``random``
  with the adaptive threshold, the adaptive mask and an adversary,
  ``round_robin`` with the energy budget binding, and ``random`` with a
  budget so small that devices are infeasible and agents idle;
* the positions and speeds of repeated ``step_platoon`` calls, initial
  state first, for three cruising platoons and one whose leader brakes
  to a standstill, so that every vehicle takes the stop-within-a-sub-step
  branch;
* the ``race-wfl allocate`` table of seeded log-uniform profiles whose
  rows reach the slack, interior-binding, power-capped and infeasible
  outcomes.  The default scenario reaches only the first;
* the five trace CSVs of ``race-wfl verify --quick``, the numeric theory
  suite.

Pinned with Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31.188.0
(64-bit ints, DYNAMIC_ARCH) on x86_64 with AVX-512, at OpenBLAS's default
2 threads; every pin gives the same bytes at 1 thread.  A different numpy
or BLAS build may legitimately differ in the last bits, and so may
another BLAS thread count, so the tests skip when either version differs
or OpenBLAS runs other than 1 or 2 threads; re-pin with
``PYTHONPATH=src python tests/test_golden.py``, which prints the hashes of
the code as it stands and then names each pinned entry whose hash they
no longer match.
"""

import csv
import hashlib
import io

import numpy as np
import pytest

from race_wfl import blas
from race_wfl.cli import main
from race_wfl.config import MappoSection, PlatoonSection, config_from_dict
from race_wfl.platoon import init_platoon, step_platoon
from race_wfl.simulation import run_experiment
from race_wfl.tsfen import TsfenNetwork

PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "0.3.31.188.0"
PINNED_BLAS_THREADS = (1, 2)

NETWORK_HASHES = {
    1: {
        "embed.W":
            "5d8a25c18e482dac64406209cf4b5ab44e3350c5e62e4617ef49b3da1e2c044f",
        "embed.b":
            "b2bc552cf749feea442d5758db2292c9729fb93f3fe71508d59c236be31cc550",
        "fc1.W":
            "94ce57af6023fee979a8e27b77cf7616b4c3f4bf3348fa82ec7ebe112498f754",
        "fc1.b":
            "1f362d3ec5f49f17cb70513a051341663461e40ca26e801a66bff82ef7c96eb5",
        "fc2.W":
            "f75f41f98dc9f2346cc4c2f9fdf28d050b781c1edaeb2389a227e0b5dfa1ae25",
        "fc2.b":
            "1df53324ebd669bdd80b13a9b6f2e2fafb2d27dc140bee4ea6e66c9daa550065",
        "logits":
            "6f4fe02f62b677963a46a3bb118acbf26df535a1746cf59bdd0e77da614517de",
        "lstm_bwd.W":
            "cd88d60f2d13444c48f9fdeeb828c762137333f3a49b72ec909c042b0a4479ab",
        "lstm_bwd.b":
            "99837876050e5761cff889ff31ba9e8b75d444f7c43ed62957ea15b8fa1935e3",
        "lstm_fwd.W":
            "3a371ff5f8fcda85b284cf0978901473a3eef44b2a53611d8ce770a29123102a",
        "lstm_fwd.b":
            "698905ac80e99cf2079660cb0baee94d7c6c18a406c4a08219dacba1115733f8",
        "mhsa.Wo":
            "538f740ed70982f9b1d162b9bb437db919ed3c6c61aea02c78ae1fdd76cf86f3",
        "mhsa.Wqkv":
            "e66742ebdf26dc937a2b4fc83a3c7d44f9e6983718b77827add66b025e8702da",
        "squeeze.W":
            "797eef237e57fa551094e8c6ece81d1dc2068ab05c676c78c5c91e944d29bff9",
        "squeeze.b":
            "948413ceaf9ab7d7ee7b1effa48d0effa342bfa988930d12465a7098d13020d5",
    },
    32: {
        "embed.W":
            "f6aee69dfc5ff398604ece53635aaee6509a7cca888900ec040f126bc5ca87a5",
        "embed.b":
            "7196810ae7f88ce82eaec310f03fb68d3db87ec017facf12b1eccb380b731920",
        "fc1.W":
            "1093fb8406949372e83411b4b795589dc55d34bd507d3f618908942de3310f4c",
        "fc1.b":
            "c09d3bf1de758d271a1224bc0c1b2871bd3a9c3638a007c8b466d2befd6bb431",
        "fc2.W":
            "e2e7065e5acfed02fefe1490a1d7379036140fddc47cce8382aa2b81cd6b5bbe",
        "fc2.b":
            "b369a24f3a8d1d7d7a22a46f3be7b9c493e6be4a23f00e489d3387aa94ea088e",
        "logits":
            "adb13cec4bf00cdee1ba28729e1d832c61603ae9b74b4d310a78226aee80e478",
        "lstm_bwd.W":
            "ef9d46a7bcd4eaf32f9a829054cbc243282cd14a40f66620c0d2efcf8ffa1bc7",
        "lstm_bwd.b":
            "69f75d981e6a0a473c750c2d88c20dffeb3c0151cae4ef95b4c404d23345aa3f",
        "lstm_fwd.W":
            "ca196159177cb6cd2f1a064f487b196ec591459787a341f584eaad5561995891",
        "lstm_fwd.b":
            "57a97533f060aea12e77205dcf44d7e1467a0c441a58e372c34c0b4dc298128c",
        "mhsa.Wo":
            "892d33c95750002e0b0fb72e6ba56aadf5628fca49f84b19e9eb2963f7dd147c",
        "mhsa.Wqkv":
            "5fa5b940df97447f531a7b7328922fdc027ad617aeb14586e647db94edc8bf5b",
        "squeeze.W":
            "12ddaf883766f5ef93b37c41a6c747ceda9ea5f476f61a3e883868426fd864b4",
        "squeeze.b":
            "2e8d60a85967a18185e5a8c389e3c6f95d5ba2b3537d8bf91bfcd11af1f45714",
    },
}

TRAIN_HASHES = {
    "checkpoint_final.bin":
        "7aa78bce54a8aa84ed5996c824c80224a8297b481869635d5418deeb986237b8",
    "rounds.csv":
        "6fdb7eef566dc72a99e9c5933670668dba32ae8a6ef9c45f3d0b868513782bb0",
}

TRAIN_CONFIG = {
    "mappo": {"episodes_per_update": 1},
    "run": {"episodes": 1, "rounds_per_episode": 40, "seed": 1},
}

EVALUATE_HASHES = {
    "rounds.csv":
        "3e23db7fce6c5eecef2d71cb7d426983535846d423e24ffffd35e5a946591392",
    "summary.json":
        "d4f20abe18e0f54137e13dd48c7e55fff1f022e059ff4fc39b2ce98278dbc0b8",
}

UPDATED_TRAIN_HASHES = {
    "checkpoint_final.bin":
        "1b981e3001580b869e88ee99a4da726f31cc09d480314ad61d82b373e05397c4",
    "rounds.csv":
        "0d052227cd3379a6938b0490c7caf625f7efd4ce02b99e110ae3f4d4ed51a708",
}

UPDATED_TRAIN_CONFIG = {
    "mappo": {"episodes_per_update": 1},
    "run": {"episodes": 2, "rounds_per_episode": 20, "seed": 1},
}

BASELINE_SCENARIO = {
    "platoon": {"n_followers": 8},
    "selection": {"n_subchannels": 2},
    "run": {"episodes": 2, "rounds_per_episode": 20, "seed": 1},
}

BASELINE_RUNS = {
    "greedy_aoi": ("greedy_aoi", {}),
    "random-adaptive": ("random", {
        "thresholds": {"mode": "adaptive"},
        "selection": {"mask": "adaptive"},
        "task": {"adversary_devices": [2]}}),
    "round_robin-binding": ("round_robin", {"cost": {"max_energy_j": 0.01}}),
    "random-infeasible": ("random", {"cost": {"max_energy_j": 1e-15}}),
}

BASELINE_HASHES = {
    "greedy_aoi":
        "98c64b847bc46abab71182f2e4521e946664688091387ceaef858b06b3f37107",
    "random-adaptive":
        "cdb03007b08ad31739e243f4332dd31055df30ccda4d103b8790ce48d79dfc80",
    "random-infeasible":
        "e222c6f670c0cfbd75ab73f3b5a2662b66566254328c5d891908fe0036f935e8",
    "round_robin-binding":
        "0d98844648136af79af35637a3591c3430c5168ee4436d37b31fb09ac3d395c3",
}


PLATOON_HASHES = {
    "cruise-0":
        "b1ff78e554641052c52f804611fc8394e24caa545ce9fa97f8ee5568d23ff2e1",
    "cruise-1":
        "a3c3f393eb9fa255ce426afe7ad5bf7c03112f2ed2bc6c1698a29a8ddead5120",
    "cruise-2":
        "bc59b3234fb15304f013a402c2e1e83834b6438e529add66969700bdea5445e5",
    "stop-3":
        "bd367e0ace4d8bbd5f94524011df508bf2460254c2677cc46c9bb6b45e5a6a41",
}

ALLOCATE_HASH = (
    "80ce14735a6f512cb210878a39f7b8c8ad786210ad8bb72cad75f6ac5a1d16f3")

VERIFY_HASHES = {
    "verify_adaptive_threshold.csv":
        "6585d5da17237c188eba4316f0f954edfe980a8eb7a5c939306808639796a5a3",
    "verify_convergence_bound.csv":
        "5af9250094ba97cb17bd5240169c7dc2eefa713e9c314cacf59a6b7cb54f6053",
    "verify_deviation_bound.csv":
        "028d1dcef7371cd7964edf75467c61c9a987feaa6c1629e80477e905542a5891",
    "verify_heterogeneity_bound.csv":
        "22bb5dc3095f813a9ff6c60f24f9c5d8176c44521aa0a5dc3216b89a42a6585b",
    "verify_stationary_bound.csv":
        "fb59a91cdb09a46bad83c3cb2f1b30619457fb116ff40df2b80699aeefd3db77",
}

ALLOCATE_COLUMNS = ("sample_count", "cycles_per_sample", "cpu_hz",
                    "power_coeff", "max_power_w", "max_energy_j",
                    "model_bits", "gain")


def _blas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "version"]
    except (KeyError, TypeError):
        return None


def _skip_unless_pinned_build():
    if np.__version__ != PINNED_NUMPY or _blas_version() != PINNED_BLAS:
        pytest.skip(f"hashes pinned on numpy {PINNED_NUMPY} / BLAS "
                    f"{PINNED_BLAS}, running numpy {np.__version__} / "
                    f"BLAS {_blas_version()}")
    threads = blas.threads()
    if threads not in PINNED_BLAS_THREADS:
        pytest.skip(f"hashes pinned at {PINNED_BLAS_THREADS} OpenBLAS "
                    f"threads, running {threads}")


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def network_hashes(batch: int) -> dict:
    """{"logits" or parameter name: SHA-256 of its raw float64 bytes}."""
    rng = np.random.default_rng(2024)
    net = TsfenNetwork(MappoSection(), 20, 20, rng)
    shape = (batch, 5, 20)   # the default sub-periods and followers
    states = np.stack([rng.uniform(0.0, 0.5, shape),
                       10.0 ** rng.uniform(8.0, 16.0, shape),
                       rng.uniform(0.0, 5.0, shape)], axis=-1)
    logits, cache = net.forward(TsfenNetwork.preprocess(states))
    grads = net.backward(cache, rng.standard_normal(logits.shape))
    out = {"logits": _sha(logits.tobytes())}
    out.update({k: _sha(g.tobytes()) for k, g in sorted(grads.items())})
    return out


def train_hashes(out_dir, config=TRAIN_CONFIG) -> dict:
    cfg = config_from_dict(config)
    run_experiment(cfg, "mappo", out_dir, train=True, log_every=0)
    return {name: _sha((out_dir / name).read_bytes())
            for name in ("rounds.csv", "checkpoint_final.bin")}


def evaluate_hashes(out_dir, checkpoint) -> dict:
    """{name: SHA-256} of an evaluation run of ``TRAIN_CONFIG`` from
    ``checkpoint``."""
    cfg = config_from_dict(TRAIN_CONFIG)
    run_experiment(cfg, "mappo", out_dir, checkpoint_in=checkpoint,
                   log_every=0)
    return {name: _sha((out_dir / name).read_bytes())
            for name in ("rounds.csv", "summary.json")}


def baseline_hashes(out_dir) -> dict:
    """{run: SHA-256 of its rounds.csv} over ``BASELINE_RUNS``."""
    out = {}
    for name, (policy, overrides) in BASELINE_RUNS.items():
        data = {section: dict(vals)
                for section, vals in BASELINE_SCENARIO.items()}
        for section, vals in overrides.items():
            data.setdefault(section, {}).update(vals)
        run_experiment(config_from_dict(data), policy, out_dir / name,
                       log_every=0)
        out[name] = _sha((out_dir / name / "rounds.csv").read_bytes())
    return out


def platoon_hashes() -> dict:
    """{case: SHA-256 of its position then speed trajectory bytes}."""
    stop = np.concatenate([np.full(10, 18.0), np.zeros(70)])
    cases = {f"cruise-{seed}": (seed, 100, 18.0) for seed in range(3)}
    cases["stop-3"] = (3, len(stop), stop)
    out = {}
    for name, (seed, steps, targets) in cases.items():
        state = init_platoon(PlatoonSection(), np.random.default_rng(seed))
        xs, vs = [state.positions], [state.speeds]
        for target in np.broadcast_to(targets, steps):
            state = step_platoon(state, PlatoonSection(), target)
            xs.append(state.positions)
            vs.append(state.speeds)
        out[name] = _sha(np.array(xs).tobytes() + np.array(vs).tobytes())
    return out


def write_allocate_profiles(path, rows: int = 60):
    """Seeded log-uniform profiles at a 1 MHz bandwidth; the last row's
    budget is below the transmission-energy infimum."""
    rng = np.random.default_rng(11)
    cols = {
        "sample_count": rng.integers(20, 101, rows),
        "cycles_per_sample": np.full(rows, 1e7),
        "cpu_hz": 10 ** rng.uniform(8.5, 9.5, rows),
        "power_coeff": np.full(rows, 1e-28),
        "max_power_w": 10 ** rng.uniform(-2.5, -0.5, rows),
        "max_energy_j": 10 ** rng.uniform(-2.5, -0.5, rows),
        "model_bits": 10 ** rng.uniform(5, 7, rows),
        "gain": 10 ** rng.uniform(4, 9, rows),
    }
    cols["max_energy_j"][-1] = 1e-9
    lines = [",".join(ALLOCATE_COLUMNS)]
    lines += [",".join(repr(cols[c][i].item()) for c in ALLOCATE_COLUMNS)
              for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")


def allocate_table(tmp_dir) -> bytes:
    profiles = tmp_dir / "profiles.csv"
    out = tmp_dir / "allocation.csv"
    write_allocate_profiles(profiles)
    assert main(["allocate", "--profiles", str(profiles), "--bandwidth",
                 "1e6", "--out", str(out)]) == 3
    return out.read_bytes()


def verify_hashes(out_dir) -> dict:
    """{trace CSV name: SHA-256} of a ``verify --quick`` run."""
    assert main(["verify", "--quick", "--out-dir", str(out_dir)]) == 0
    return {p.name: _sha(p.read_bytes())
            for p in sorted(out_dir.glob("verify_*.csv"))}


@pytest.mark.parametrize("batch", sorted(NETWORK_HASHES))
def test_network_logits_and_gradients_are_pinned(batch):
    _skip_unless_pinned_build()
    assert network_hashes(batch) == NETWORK_HASHES[batch]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(output directory, hashes) of the pinned training run."""
    _skip_unless_pinned_build()
    out_dir = tmp_path_factory.mktemp("train")
    return out_dir, train_hashes(out_dir)


def test_training_run_outputs_are_pinned(trained):
    assert trained[1] == TRAIN_HASHES


def test_evaluation_from_the_trained_checkpoint_is_pinned(trained,
                                                          tmp_path):
    assert evaluate_hashes(tmp_path, trained[0] / "checkpoint_final.bin") \
        == EVALUATE_HASHES


def test_rollout_after_an_update_is_pinned(tmp_path):
    _skip_unless_pinned_build()
    assert train_hashes(tmp_path, UPDATED_TRAIN_CONFIG) \
        == UPDATED_TRAIN_HASHES


def test_baseline_runs_are_pinned(tmp_path):
    _skip_unless_pinned_build()
    assert baseline_hashes(tmp_path) == BASELINE_HASHES


def test_platoon_trajectories_are_pinned():
    _skip_unless_pinned_build()
    assert platoon_hashes() == PLATOON_HASHES


def test_allocate_table_is_pinned(tmp_path):
    _skip_unless_pinned_build()
    table = allocate_table(tmp_path)
    rows = csv.DictReader(io.StringIO(table.decode()))
    outcomes = {"infeasible" if r["feasible"] == "0"
                else "capped" if r["binding"] == "binding" and r["rho"] == "1"
                else r["binding"] for r in rows}
    assert outcomes == {"slack", "binding", "capped", "infeasible"}
    assert _sha(table) == ALLOCATE_HASH


def test_verify_traces_are_pinned(tmp_path):
    _skip_unless_pinned_build()
    assert verify_hashes(tmp_path) == VERIFY_HASHES


def _flat_hashes(hashes, name=""):
    """(name, hash) pairs of a nested pin dict, named as in this file."""
    if not isinstance(hashes, dict):
        yield name, hashes
        return
    for key, value in hashes.items():
        yield from _flat_hashes(
            value, f"{name}[{key!r}]" if name else key)


def moved_pins(current: dict) -> list:
    """Names of the pinned entries whose hash differs in ``current``,
    which holds the hashes of the code as it stands keyed like ``PINS``."""
    now = dict(_flat_hashes(current))
    return [name for name, pinned in _flat_hashes(PINS)
            if now.get(name) != pinned]


PINS = {
    "NETWORK_HASHES": NETWORK_HASHES,
    "TRAIN_HASHES": TRAIN_HASHES,
    "EVALUATE_HASHES": EVALUATE_HASHES,
    "UPDATED_TRAIN_HASHES": UPDATED_TRAIN_HASHES,
    "BASELINE_HASHES": BASELINE_HASHES,
    "PLATOON_HASHES": PLATOON_HASHES,
    "ALLOCATE_HASH": ALLOCATE_HASH,
    "VERIFY_HASHES": VERIFY_HASHES,
}


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    print(f"numpy {np.__version__}, BLAS {_blas_version()}, "
          f"{blas.threads()} BLAS threads")
    with tempfile.TemporaryDirectory() as tmp:
        current = {
            "NETWORK_HASHES": {b: network_hashes(b)
                               for b in sorted(NETWORK_HASHES)},
            "TRAIN_HASHES": train_hashes(Path(tmp)),
            "EVALUATE_HASHES": evaluate_hashes(
                Path(tmp) / "evaluate", Path(tmp) / "checkpoint_final.bin"),
            "UPDATED_TRAIN_HASHES": train_hashes(Path(tmp),
                                                 UPDATED_TRAIN_CONFIG),
            "BASELINE_HASHES": baseline_hashes(Path(tmp) / "baseline"),
            "PLATOON_HASHES": platoon_hashes(),
            "ALLOCATE_HASH": _sha(allocate_table(Path(tmp))),
            "VERIFY_HASHES": verify_hashes(Path(tmp) / "verify"),
        }
    for group, hashes in current.items():
        print(f"{group} = ", end="")
        pprint.pprint(hashes)
    moved = moved_pins(current)
    print(f"moved from the pins ({len(moved)}):")
    for name in moved:
        print(f"  {name}")
