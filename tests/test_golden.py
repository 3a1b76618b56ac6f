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
            "43d57b8f5de63b3f4255a32bd6e29aac0bfcc1838e07baba125a3139e1ad0e97",
        "embed.b":
            "e797f50215dc4c0b629e32d725b543302835084243753a224403970250569b47",
        "fc1.W":
            "ecdb6dc708c9798c7dafb22b7ea81824a8527f7b581b85415906c6acb5ce5349",
        "fc1.b":
            "1f362d3ec5f49f17cb70513a051341663461e40ca26e801a66bff82ef7c96eb5",
        "fc2.W":
            "d5cab2c0996b63ee9a23933c06afffc6b97a3f4d021a2b90d75e411d6ea0b0a6",
        "fc2.b":
            "1df53324ebd669bdd80b13a9b6f2e2fafb2d27dc140bee4ea6e66c9daa550065",
        "logits":
            "9ecbc025dca3988d8e2b8620eff0d66d565f8b894a261f231c4b6c81b4cc3bcd",
        "lstm_bwd.W":
            "11149c888fa9807a55d73f99d4dd7be7e427388a42284bc8559e362c5cd184ca",
        "lstm_bwd.b":
            "f322f19a2e84003e43c38c1cf7656444e573f362df8c9a97a06ed270cc62d20e",
        "lstm_fwd.W":
            "45075791028b275377c569afe365c19bbcea6082b41474487ad639d6c634a64f",
        "lstm_fwd.b":
            "c574a99d808009ef6163ff206babf7065f0c3da555feb7a2125f11f7becc91ab",
        "mhsa.Wo":
            "0326ff158315d0931368461feb63bebacc5613b9acbc14ef9f4e37a14fa8aa31",
        "mhsa.Wqkv":
            "8839a5ca073ebb4bae95bd79367e2f6900d755c75789fb96ea9772e6a0dd723f",
        "squeeze.W":
            "590ce44c4f5b85947917bcfceb32cf955938a35b619d9437b33278468fdcec23",
        "squeeze.b":
            "04fc7f967e9ac68b97da2922532188144c151ce8d4ac967e00475f58b702393d",
    },
    32: {
        "embed.W":
            "94070da962877d3cc6be28c16b2746c0fd239ff6c0bfce967065a1ee7fc5a13b",
        "embed.b":
            "8ee33440959fc2b2f49db6d1e903527a51181aad905f5641a05f37a2f1a7897b",
        "fc1.W":
            "7c41632491e290508b2fae46cab9e1a5579dea9db2942811df8a8a0d05b0cb59",
        "fc1.b":
            "c09d3bf1de758d271a1224bc0c1b2871bd3a9c3638a007c8b466d2befd6bb431",
        "fc2.W":
            "bef2d24f19baf0cb3c4e7550f300ec9cb5aa6c886338242a8c45e6fac680f5cd",
        "fc2.b":
            "b369a24f3a8d1d7d7a22a46f3be7b9c493e6be4a23f00e489d3387aa94ea088e",
        "logits":
            "5495e08d5de3a4a26a0fd0697afa0d9ade90af8e71cfe2ebf160722d4b46760b",
        "lstm_bwd.W":
            "26b4737d2961a1309899b84a236c3726ae5606522f01f35228ed7a68e034e86d",
        "lstm_bwd.b":
            "4288d755beffdcfa7e7eff4c537dc0e48931d99224491dc2abeac5db2eaf910a",
        "lstm_fwd.W":
            "0649bfe0c8064dd1245f7c0596b1879cb764b6ff925acb952551dd335e6ee601",
        "lstm_fwd.b":
            "3ebc47fa6057687da1d25e58f08293d63a91ae758c1131197745903409248ba5",
        "mhsa.Wo":
            "4d68972ccdabdb0de505ee48d133251c734b5b9a8de0bb8dc1647f1562ae844b",
        "mhsa.Wqkv":
            "a0fec69a1e3c8ab1804def47da34c6dc7084f6a7387d4e86162da1b5b96e2811",
        "squeeze.W":
            "a6fd7868bd3b1473eceae0fa48b90d225fba39877d125f48d56506bc5db02e01",
        "squeeze.b":
            "3e6d129c42bef0bacd78e583aeb1dc7caf51f646fc04becf7329dbe9b7ecd56d",
    },
}

TRAIN_HASHES = {
    "checkpoint_final.bin":
        "1a692a6e5444ddd1889ce0ddddd8a7bd6e59ef5be64ec5ba26257dde257abd34",
    "rounds.csv":
        "6fdb7eef566dc72a99e9c5933670668dba32ae8a6ef9c45f3d0b868513782bb0",
}

TRAIN_CONFIG = {
    "mappo": {"episodes_per_update": 1},
    "run": {"episodes": 1, "rounds_per_episode": 40, "seed": 1},
}

UPDATED_TRAIN_HASHES = {
    "checkpoint_final.bin":
        "fd6fd959627a9c877ec321b2ab66d13168e0a414134115e6c8682277c9685dad",
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
