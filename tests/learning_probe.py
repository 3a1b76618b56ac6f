"""Learning probe: does MAPPO training lower the sum of AoI on its world?

Trains mappo at reduced scale on each training seed: 8 followers, 2
sub-channels, a small TSFEN (``d_model`` 16, 2 heads, ``lstm_hidden`` 16,
``fc_hidden`` 32), learning rate 1e-3, a PPO update every 2 episodes, 20
rounds per episode.  For each seed it prints the mean per-episode sum of
AoI over the first and over the last ``--window`` episodes, then the mean
and the standard error of the last-window means across seeds.  A change
to the trainer is compared with its parent on the same seeds.

    PYTHONPATH=src python tests/learning_probe.py --seeds 0 1 2 3 4

300 episodes take about half a minute per seed on a 2-core CPU.
"""

import argparse
import csv
import math
import statistics
import sys
import tempfile
from pathlib import Path

from race_wfl.config import config_from_dict
from race_wfl.simulation import run_experiment

SCENARIO = {
    "platoon": {"n_followers": 8},
    "selection": {"n_subchannels": 2},
    "mappo": {"d_model": 16, "n_heads": 2, "lstm_hidden": 16,
              "fc_hidden": 32, "learning_rate": 1e-3,
              "episodes_per_update": 2},
    "run": {"rounds_per_episode": 20, "checkpoint_every": 0},
}


def episode_sums(csv_path) -> list:
    """Per-episode sum over rounds and devices of the ages in rounds.csv."""
    sums = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            ep = int(row["episode"])
            sums[ep] = sums.get(ep, 0.0) + sum(
                float(v) for k, v in row.items() if k.startswith("aoi_"))
    return [sums[ep] for ep in sorted(sums)]


def probe(seed: int, episodes: int, out_dir) -> list:
    """Train on ``seed`` and return its per-episode sums of AoI."""
    cfg = config_from_dict(SCENARIO)
    report = run_experiment(cfg, "mappo", out_dir, seed=seed,
                            episodes=episodes, train=True, log_every=0)
    return episode_sums(report.csv_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--window", type=int, default=50)
    args = parser.parse_args(argv)
    window = min(args.window, args.episodes)
    last = []
    print(f"seed first{window} last{window}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            sums = probe(seed, args.episodes, Path(tmp) / str(seed))
            first_mean = statistics.fmean(sums[:window])
            last.append(statistics.fmean(sums[-window:]))
            print(f"{seed} {first_mean:.1f} {last[-1]:.1f}", flush=True)
    sem = (statistics.stdev(last) / math.sqrt(len(last))
           if len(last) > 1 else float("nan"))
    print(f"mean last{window} {statistics.fmean(last):.1f} "
          f"standard error {sem:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
