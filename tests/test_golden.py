"""Golden-output hashes: TSFEN kernels, a short training run, platoon
trajectories and an allocation table, bit for bit.

The kernels in ``tsfen.py``, ``platoon.py`` and ``resource_alloc.py`` may
be restructured (views instead of copies, fused calls, preallocated
buffers, a different control flow) as long as every float they produce
stays the same.  A change that must move last bits, such as regrouping a
BLAS reduction, declares which pins move and why, shows that old and
new outputs differ only by rounding (for TSFEN: logits and gradients
within 1e-13 relative), and re-pins only those entries.  These tests pin
SHA-256 hashes of

* the raw bytes of ``TsfenNetwork`` logits and of every parameter gradient,
  at batch 1 (the rollout path) and batch 32 (the PPO minibatch path),
  at the default network size;
* ``rounds.csv`` and ``checkpoint_final.bin`` of a 1-episode, 40-round
  training run on the default scenario.  40 rounds give each agent's PPO
  update one 32-row and one 8-row minibatch per epoch;
* the same two files of a 2-episode, 20-round run that updates after
  every episode, so the second episode's rounds are chosen by a policy
  that has taken a PPO update and drawn its minibatch permutations;
* ``rounds.csv`` of four 2-episode, 20-round baseline runs on an
  8-follower, 2-sub-channel scenario: ``greedy_aoi`` as is, ``random``
  with the adaptive threshold, the adaptive mask and an adversary,
  ``round_robin`` with the energy budget binding, and ``random`` with a
  budget so small that devices are infeasible and agents idle;
* ``simulate_platoon`` positions and speeds for three cruising platoons
  and one whose leader brakes to a standstill, so that every vehicle
  takes the stop-within-a-sub-step branch;
* the ``race-wfl allocate`` table of seeded log-uniform profiles whose
  rows reach the slack, interior-binding, power-capped and infeasible
  outcomes.  The default scenario reaches only the first;
* the five trace CSVs of ``race-wfl verify --quick``, the numeric theory
  suite.

Pinned with Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31.188.0
(64-bit ints, DYNAMIC_ARCH) on x86_64 with AVX-512, at OpenBLAS's default
2 threads.  A different numpy or BLAS build may legitimately differ in the
last bits, and so may another BLAS thread count (one thread changes some
batch-4/20/100 weight gradients and the trained checkpoints), so the tests
skip when either version or the thread count differs; re-pin with
``PYTHONPATH=src python tests/test_golden.py``, which prints the hashes of
the code as it stands and then names each pinned entry whose hash they
no longer match.
"""

import csv
import ctypes
import hashlib
import io

import numpy as np
import pytest

from race_wfl.cli import main
from race_wfl.config import PlatoonSection, config_from_dict
from race_wfl.platoon import init_platoon, simulate_platoon
from race_wfl.simulation import run_experiment
from race_wfl.tsfen import TsfenConfig, TsfenNetwork

PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "0.3.31.188.0"
PINNED_BLAS_THREADS = 2

NETWORK_HASHES = {
    1: {
        "embed.W":
            "8698550b3226c092f2cc9cba0515c4d203b23e9b8e3fcbd0502debe81f699f7f",
        "embed.b":
            "73970e737e316ae91225432990d52def41320ed5513ff4173329bb7045e56aea",
        "fc1.W":
            "7d51b7ffaffd276d65a5ddb4adae991b69a436e34234fc037f252a4f76825c14",
        "fc1.b":
            "1f362d3ec5f49f17cb70513a051341663461e40ca26e801a66bff82ef7c96eb5",
        "fc2.W":
            "2d4ab47ef11946b1235be7063d8646d6705c8c0a799fb96ec8257216d7704677",
        "fc2.b":
            "1df53324ebd669bdd80b13a9b6f2e2fafb2d27dc140bee4ea6e66c9daa550065",
        "logits":
            "3131c3eaec0f9c3114f3c3ca446300f806d253432dc533cd8f57d68f875acae8",
        "lstm_bwd.W":
            "a16e537f058897bb6b3864020d4e881ab1f7651a13675ee745c4363fee68ae53",
        "lstm_bwd.b":
            "9cf383f030ffc26220d0d09bab37030144327fd95cb6b0d2820c04e3ca6ec693",
        "lstm_fwd.W":
            "2b82e6645698c1dd0731c48dc30f7c724f588a8a56097a8965972a88cdeaf37e",
        "lstm_fwd.b":
            "b504f0fbb028a2ac7f7433b3e2e540ebd3462d36e9b5cee14f49cc07116f886e",
        "mhsa.Wo":
            "28781b562da53ac52e8d4f670805d41db3847873150b9108926ace1b587187f2",
        "mhsa.Wqkv":
            "213e2a545f28a939128837ccecddeab0f4e29b6d95aa6968ad960b5c3aba16a9",
        "squeeze.W":
            "edc2ebe8b0318ed2bd3a71c48a1e21d4689376aff33a1c845c9e3a63f97fcadf",
        "squeeze.b":
            "140d00a86316b1c38ddb0b8318654fa69609e2aab3d6845248eae5e5e268493e",
    },
    32: {
        "embed.W":
            "2763f402842221c6012dd277496daf304d44754fc86110098d05483ed2b7cd89",
        "embed.b":
            "9fb047c25c2bb9e46bf5012098835fabfba53d11e161c62b71930d519a4bd762",
        "fc1.W":
            "6941d2d813d4d771f17cd69cb1d82b71e37a1ead30c17217fb72c49225ebb097",
        "fc1.b":
            "c09d3bf1de758d271a1224bc0c1b2871bd3a9c3638a007c8b466d2befd6bb431",
        "fc2.W":
            "0a190e31d1f5435ec3ec01a9c19011a7f4c2f797111347281d8c5ea3e83c9499",
        "fc2.b":
            "b369a24f3a8d1d7d7a22a46f3be7b9c493e6be4a23f00e489d3387aa94ea088e",
        "logits":
            "603fcaf49df6e016437b9750a719168bce8c8f5ca94b2b32fe7b1cf99cfcd561",
        "lstm_bwd.W":
            "3a88d19e1d46bfae80ce9926786a4233090c14b256c1c2873f40517a4d9b3085",
        "lstm_bwd.b":
            "dc2ab5c5c8dc90698ca81b53d80a2156c5a94b70801befe62f387e5ca1516389",
        "lstm_fwd.W":
            "ea1622dc105792620aec9a698db0ec18e9fda072c5907cdf70de24e70cfc3886",
        "lstm_fwd.b":
            "4e2841e4252d62aa5c0f0da0b2c6ac429a64ec061f98bcae1eee1215bf6ac52b",
        "mhsa.Wo":
            "0edad7800c02e1024f1b8c12afb700e8489a4fcd0aac876bacaa48daafc37065",
        "mhsa.Wqkv":
            "67cbc4104bf31710bfe6469172fdff88f903484278aed0db02fbd439e5b6393f",
        "squeeze.W":
            "a994c5fb9a7c56cc2caf894b95a26c069a21382a838dd601eef3496a0987b1f0",
        "squeeze.b":
            "57a9b647c6210d4f8f999c46d963e60c5dff1bfa75450dc8915087d3bda788ab",
    },
}

TRAIN_HASHES = {
    "checkpoint_final.bin":
        "37e72eefd38f705991ac775da928d24cf18d95cdc64d491a7f1ca9a9f1bab361",
    "rounds.csv":
        "6fdb7eef566dc72a99e9c5933670668dba32ae8a6ef9c45f3d0b868513782bb0",
}

TRAIN_CONFIG = {
    "mappo": {"episodes_per_update": 1},
    "run": {"episodes": 1, "rounds_per_episode": 40, "seed": 1},
}

UPDATED_TRAIN_HASHES = {
    "checkpoint_final.bin":
        "e33ea051bd118100e0749b21056fc0b8ca38a6dd527c5f04d8a68105dc1b1898",
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
        "7c3dbd57e38c4bd8aa14a8bcb19068fe4fec37f778cbf799fe7f61f55a8214c4",
    "round_robin-binding":
        "b678f28a861ac42760091813017e8c5a90386bd2c073ab63c757c646696985e0",
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
    "7845a3e24d3f062a5979a1d0c41a831d5154d2d895b374633a6d3841dcb99758")

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


def _blas_threads():
    """The thread count OpenBLAS reports through its ``get_num_threads``
    symbol in the library loaded into this process; None if unreadable."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _skip_unless_pinned_build():
    if np.__version__ != PINNED_NUMPY or _blas_version() != PINNED_BLAS:
        pytest.skip(f"hashes pinned on numpy {PINNED_NUMPY} / BLAS "
                    f"{PINNED_BLAS}, running numpy {np.__version__} / "
                    f"BLAS {_blas_version()}")
    threads = _blas_threads()
    if threads != PINNED_BLAS_THREADS:
        pytest.skip(f"hashes pinned at {PINNED_BLAS_THREADS} OpenBLAS "
                    f"threads, running {threads}")


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def network_hashes(batch: int) -> dict:
    """{"logits" or parameter name: SHA-256 of its raw float64 bytes}."""
    rng = np.random.default_rng(2024)
    cfg = TsfenConfig(n_devices=20)
    net = TsfenNetwork(cfg, rng)
    shape = (batch, cfg.history, cfg.n_devices)
    states = np.stack([rng.uniform(0.0, 0.5, shape),
                       10.0 ** rng.uniform(8.0, 16.0, shape),
                       rng.uniform(0.0, 5.0, shape)], axis=-1)
    logits, cache = net.forward(states)
    grads = net.backward(cache, rng.standard_normal(logits.shape))
    out = {"logits": _sha(logits.tobytes())}
    out.update({k: _sha(g.tobytes()) for k, g in sorted(grads.items())})
    return out


def train_hashes(out_dir, config=TRAIN_CONFIG) -> dict:
    cfg = config_from_dict(config)
    run_experiment(cfg, "mappo", out_dir, train=True, log_every=0)
    return {name: _sha((out_dir / name).read_bytes())
            for name in ("rounds.csv", "checkpoint_final.bin")}


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
        tx, tv = simulate_platoon(state, PlatoonSection(), steps, targets)
        out[name] = _sha(tx.tobytes() + tv.tobytes())
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


def test_training_run_outputs_are_pinned(tmp_path):
    _skip_unless_pinned_build()
    assert train_hashes(tmp_path) == TRAIN_HASHES


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
          f"{_blas_threads()} BLAS threads")
    with tempfile.TemporaryDirectory() as tmp:
        current = {
            "NETWORK_HASHES": {b: network_hashes(b)
                               for b in sorted(NETWORK_HASHES)},
            "TRAIN_HASHES": train_hashes(Path(tmp)),
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
