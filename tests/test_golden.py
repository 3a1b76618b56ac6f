"""Golden-output hashes: TSFEN kernels, a short training run, platoon
trajectories and an allocation table, bit for bit.

The kernels in ``tsfen.py``, ``platoon.py`` and ``resource_alloc.py`` may
be restructured (views instead of copies, fused calls, preallocated
buffers, a different control flow) only if every float they produce stays
the same.  These tests pin SHA-256 hashes of

* the raw bytes of ``TsfenNetwork`` logits and of every parameter gradient,
  at batch 1 (the rollout path) and batch 32 (the PPO minibatch path),
  at the default network size;
* ``rounds.csv`` and ``checkpoint_final.bin`` of a 1-episode, 40-round
  training run on the default scenario.  40 rounds give each agent's PPO
  update one 32-row and one 8-row minibatch per epoch;
* ``simulate_platoon`` positions and speeds for three cruising platoons
  and one whose leader brakes to a standstill, so that every vehicle
  takes the stop-within-a-sub-step branch;
* the ``race-wfl allocate`` table of seeded log-uniform profiles whose
  rows reach the slack, interior-binding, power-capped and infeasible
  outcomes.  The default scenario reaches only the first.

Pinned with Python 3.11.7, numpy 2.4.6 and scipy-openblas 0.3.31.188.0
(64-bit ints, DYNAMIC_ARCH) on x86_64 with AVX-512, at OpenBLAS's default
2 threads.  A different numpy or BLAS build may legitimately differ in the
last bits, so the tests skip when either version differs; re-pin with
``PYTHONPATH=src python tests/test_golden.py``, which prints the hashes of
the code as it stands.
"""

import csv
import hashlib
import io

import numpy as np
import pytest

from race_wfl.cli import main
from race_wfl.config import config_from_dict
from race_wfl.platoon import IdmParams, init_platoon, simulate_platoon
from race_wfl.simulation import run_experiment
from race_wfl.tsfen import TsfenConfig, TsfenNetwork

PINNED_NUMPY = "2.4.6"
PINNED_BLAS = "0.3.31.188.0"

NETWORK_HASHES = {
    1: {
        "embed.W":
            "a86e0f1519da515ca3dc75f22f519b3db845f730c38b89823ebabb156c5bc857",
        "embed.b":
            "31a8d8e4d620845c4c5ac49ce4e07f16d4d2b539141f61fdfb84d21d3a2c031c",
        "fc1.W":
            "e74f8a3911d9b07e27b254e122840ce392fabb553b5382dd4e440b2bea5e5403",
        "fc1.b":
            "1f362d3ec5f49f17cb70513a051341663461e40ca26e801a66bff82ef7c96eb5",
        "fc2.W":
            "10b1fc1a23b1069cd6fbf749915b622708cc3fe4ab4acbefb963ce4e0d10e5f9",
        "fc2.b":
            "1df53324ebd669bdd80b13a9b6f2e2fafb2d27dc140bee4ea6e66c9daa550065",
        "logits":
            "f26754e5e2317a1d58e4a26497f74e83689f5b36f414444373647d3d5b094107",
        "lstm_bwd.W":
            "5b1b67cd0744ff7ced9ccf2c2c80a4e247f60853b3f36d73729388a55bc149ae",
        "lstm_bwd.b":
            "e8c6fffeb875f63d889d2b38458e6630390abd07862b38c953e38255b661af69",
        "lstm_fwd.W":
            "adc831942486752402c50c2b0831bcb964be8f5430458e39491ea3b7b60234e4",
        "lstm_fwd.b":
            "249f88bf4023492b740686ae7c18477c0b36d3c9b09f4fe87d84fba5c3b827a5",
        "mhsa.Wo":
            "b682ec62542c24e528031aaeb97eacacb65fd802a95ff8db42a05bf1d7cd331e",
        "mhsa.Wqkv":
            "e0201380b16e7a61ea464928c4cef3404b2304072395db775c28813d8f82034d",
        "squeeze.W":
            "d1d80f5fe599a19f927133559038f0e0503023dd91ba8be632fcb3612366a3d6",
        "squeeze.b":
            "cf0973c8ef05634748f89398e999357c4491566178c6c7d1e21f20d1aa70fb38",
    },
    32: {
        "embed.W":
            "d18ccc79160dbc66dbdf954badffda81f4e225dab54cea338e4b3aa6cb164fa9",
        "embed.b":
            "73670ae7c4d32e4ec529ff35626deea0fe9f444179eefea07f829502c3c123d6",
        "fc1.W":
            "4a163096c459874106484441678d99437e7b0357aff7de48f7dadfadfa1bd098",
        "fc1.b":
            "c09d3bf1de758d271a1224bc0c1b2871bd3a9c3638a007c8b466d2befd6bb431",
        "fc2.W":
            "db5134f589699bbc1a9fa050adb54c1e9dc26445bb269a292fc05c2d07a747cb",
        "fc2.b":
            "b369a24f3a8d1d7d7a22a46f3be7b9c493e6be4a23f00e489d3387aa94ea088e",
        "logits":
            "dc42b59bfdef5d10e08124e4b332633288a6ca500216674b72d39cf2e69e2bf1",
        "lstm_bwd.W":
            "4cbbab1b5a17ed2797d78e97ce894430f63bec40fce1c117600f03b7b0bb6785",
        "lstm_bwd.b":
            "84610ae9617b1a1c22154f1d53da99c75c450a86922284267657d18207887ff4",
        "lstm_fwd.W":
            "1fea3388bc0bdd037246a93a5dc14394265c27a667896018bd90be39139735b4",
        "lstm_fwd.b":
            "6c9c9ca701170d8e7c78e1508d616a62e6fd7da82556b51fc8ea7e65b03c6594",
        "mhsa.Wo":
            "05df0e7fa079368a2e539f2e109e76e08552b1487683098aaff6aa54f9715e1c",
        "mhsa.Wqkv":
            "16d460da301c162c29b611c6e28a7e0d6f1427cfcb776e2c8b748eaad80cce3e",
        "squeeze.W":
            "cbb7aa7e4a0c50197044e120927652db2074afc4ae4f14bc37e636e1fda5dcc9",
        "squeeze.b":
            "356719e18f0a54727eecb9d635941a165eb434c07dc3c2e527bdd2667f9f1c35",
    },
}

TRAIN_HASHES = {
    "checkpoint_final.bin":
        "c58171d97f320bae91d7ccfa6442406802fb9c5e6894f11c391da04654624c00",
    "rounds.csv":
        "281e5803478cf6a1d95604517b548549eac3b7d2cb110b726bef33a88dbe4103",
}

TRAIN_CONFIG = {
    "mappo": {"episodes_per_update": 1},
    "run": {"episodes": 1, "rounds_per_episode": 40, "seed": 1},
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
    "9bbefe5d1743c3f858d2f86bf2a3c80e7f11b861416d8d281467192fe0eb7717")

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


def train_hashes(out_dir) -> dict:
    cfg = config_from_dict(TRAIN_CONFIG)
    run_experiment(cfg, "mappo", out_dir, train=True, log_every=0)
    return {name: _sha((out_dir / name).read_bytes())
            for name in ("rounds.csv", "checkpoint_final.bin")}


def platoon_hashes() -> dict:
    """{case: SHA-256 of its position then speed trajectory bytes}."""
    stop = np.concatenate([np.full(10, 18.0), np.zeros(70)])
    cases = {f"cruise-{seed}": (seed, 100, 18.0) for seed in range(3)}
    cases["stop-3"] = (3, len(stop), stop)
    out = {}
    for name, (seed, steps, targets) in cases.items():
        state = init_platoon(20, np.random.default_rng(seed))
        tx, tv = simulate_platoon(state, IdmParams(), steps, targets)
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


@pytest.mark.parametrize("batch", sorted(NETWORK_HASHES))
def test_network_logits_and_gradients_are_pinned(batch):
    _skip_unless_pinned_build()
    assert network_hashes(batch) == NETWORK_HASHES[batch]


def test_training_run_outputs_are_pinned(tmp_path):
    _skip_unless_pinned_build()
    assert train_hashes(tmp_path) == TRAIN_HASHES


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


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    print(f"numpy {np.__version__}, BLAS {_blas_version()}")
    pprint.pprint({b: network_hashes(b) for b in sorted(NETWORK_HASHES)})
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(train_hashes(Path(tmp)))
        pprint.pprint(platoon_hashes())
        print(_sha(allocate_table(Path(tmp))))
