"""Command-line entry points.

Subcommands: ``allocate`` (per-device resource allocation table),
``train`` (policy optimization), ``evaluate`` (checkpoint rollouts),
``baseline`` (heuristic policy rollouts), ``verify`` (numeric theory
suite), and ``report`` (summarize finished runs).

Exit codes: 0 success, 2 configuration error, 3 infeasible allocation
instance, 4 verification/assertion failure.  The output root defaults to
the ``RACE_WFL_OUT_ROOT`` environment variable, then to ``./runs``.
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import ConfigError, InfeasibleError, RaceError
from .resource_alloc import Binding, optimal_allocation
from .cost_model import DeviceProfile
from .simulation import BASELINE_KINDS, run_experiment
from . import theory_checks as tc

log = logging.getLogger("race_wfl")

# DeviceProfile's fields in declaration order, then the channel gain
_PROFILE_COLUMNS = tuple(f.name for f in fields(DeviceProfile)) + ("gain",)


def _out_root() -> Path:
    return Path(os.environ.get("RACE_WFL_OUT_ROOT", "runs"))


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return ScenarioConfig()


def _make_out_dir(args, default_name: str) -> Path:
    """The run's output directory, created if missing."""
    out_dir = Path(args.out_dir) if getattr(args, "out_dir", None) \
        else _out_root() / default_name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {str(out_dir)!r}: "
            f"{exc.strerror}") from exc
    return out_dir


def _create(path):
    """``path`` opened for writing; a path that cannot be created is a
    configuration error."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot create output file {str(path)!r}: "
                          f"{exc.strerror}") from exc


def _row_number(idx, column, text) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"profile row {idx}, column {column}: "
                          f"{text!r} is not a finite number")
    return value


def cmd_allocate(args) -> int:
    cfg = _load_config(args)
    bandwidth = args.bandwidth
    if bandwidth is None:
        bandwidth = cfg.channel.bandwidth
    elif not 0.0 < bandwidth < math.inf:
        raise ConfigError(f"--bandwidth must be finite and > 0, got "
                          f"{bandwidth!r}")
    try:
        with open(args.profiles, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # like csv.DictReader: a repeated name reads its last column,
            # blank lines are skipped, extra fields are ignored
            at = {name: j for j, name in enumerate(header)}
            missing = set(_PROFILE_COLUMNS) - set(at)
            if missing:
                raise ConfigError(
                    f"profile file missing columns: {sorted(missing)}")
            rows = [row for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from exc
    picks = [at[col] for col in _PROFILE_COLUMNS]
    bw_at = at.get("bandwidth")
    lines = ["device,feasible,binding,chi,rho,tx_time,comp_time,"
             "total_delay,energy_residual\n"]
    any_infeasible = False
    for idx, raw in enumerate(rows):
        try:
            values = [float(raw[j]) for j in picks]
            ok = all(map(math.isfinite, values))
        except (IndexError, ValueError):
            ok = False
        if not ok:
            # name the first bad column; a missing field reads as None
            values = [_row_number(idx, col, raw[j] if j < len(raw) else None)
                      for col, j in zip(_PROFILE_COLUMNS, picks)]
        text = raw[bw_at] if bw_at is not None and bw_at < len(raw) else ""
        bw = _row_number(idx, "bandwidth", text) if text else bandwidth
        try:
            prof = DeviceProfile(*values[:-1])
            res = optimal_allocation(prof, values[-1], bw)
        except InfeasibleError:
            any_infeasible = True
            lines.append(f"{idx},0,,,,,,,\n")
            continue
        except (ValueError, ArithmeticError) as exc:
            # a rejected profile, or values beyond the solver's float range
            raise ConfigError(f"profile row {idx}: {exc}") from exc
        except RaceError as exc:
            # keep the subclass: it selects the CLI exit code
            raise type(exc)(f"profile row {idx}: {exc}") from exc
        residual = res.energy - prof.max_energy_j \
            if res.binding is Binding.ENERGY_BINDING else 0.0
        lines.append("%d,1,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.6g\n" % (
            idx, res.binding.value, res.chi, res.rho, res.tx_time,
            res.comp_time, res.total_delay, residual))
    sink = _create(args.out) if args.out else sys.stdout
    try:
        sink.write("".join(lines))
    finally:
        if args.out:
            sink.close()
    if any_infeasible:
        log.error("one or more instances are infeasible")
        return 3
    return 0


def _run_cmd(args, policy_kind: str, train: bool,
             checkpoint=None) -> int:
    cfg = _load_config(args)
    out_dir = _make_out_dir(args, f"{policy_kind}")
    report = run_experiment(
        cfg, policy_kind, out_dir, seed=args.seed, episodes=args.episodes,
        train=train, checkpoint_in=checkpoint,
    )
    print(json.dumps(report.summary, indent=2, sort_keys=True))
    print(f"rounds csv: {report.csv_path}")
    return 0


def cmd_train(args) -> int:
    return _run_cmd(args, "mappo", train=True)


def cmd_evaluate(args) -> int:
    return _run_cmd(args, "mappo", train=False, checkpoint=args.checkpoint)


def cmd_baseline(args) -> int:
    return _run_cmd(args, args.policy, train=False)


def _write_trace(path, header, rows):
    with _create(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_verify(args) -> int:
    """Numeric verification suite; exit 4 on any gating failure."""
    out_dir = _make_out_dir(args, "verify")
    quick = args.quick
    results = []

    def record(name, passed, csv_name=None, header=None, rows=None,
               gating=True):
        if csv_name is not None:
            _write_trace(out_dir / csv_name, header, rows)
        results.append((name, passed, gating))

    # deviation bound: exhaustive enumeration over random instances
    n_inst = 10 if quick else 50
    rows = []
    ok = True
    for seed in range(n_inst):
        rng = np.random.default_rng(seed)
        prob = tc.random_quadratic_problem(rng)
        w = prob.w_star + rng.standard_normal(prob.dim)
        for k in (1, 2, 3, 5, 6):
            res = tc.verify_lemma3(prob, k, w)
            rows.append([seed, k, res.empirical, res.bound, int(res.holds)])
            ok &= res.holds
    record("deviation-bound (enumeration)", ok, "verify_deviation_bound.csv",
           ["seed", "k", "empirical", "bound", "holds"], rows)

    # convergence bound along partial-participation descent
    seeds = 3 if quick else 10
    rounds = 50 if quick else 200
    traj = 200 if quick else 1000
    rows = []
    ok = True
    for seed in range(seeds):
        prob = tc.random_quadratic_problem(np.random.default_rng(seed))
        tr = tc.verify_theorem4(prob, k=3, rounds=rounds, n_traj=traj,
                                rng=np.random.default_rng(seed + 500))
        ok &= tr.holds
        rows += [[seed, t, e, b] for t, e, b in
                 zip(tr.rounds, tr.empirical, tr.bound)]
    record("convergence-bound (descent)", ok, "verify_convergence_bound.csv",
           ["seed", "round", "empirical_gap", "bound"], rows)

    # heterogeneity bound: validity and ordering
    ok = True
    rows = []
    for seed in range(3):
        prob = tc.random_quadratic_problem(np.random.default_rng(seed))
        tr = tc.verify_theorem5(prob, k=2, rounds=60, n_traj=300,
                                rng=np.random.default_rng(seed + 900))
        ok &= tr.holds
        rows += [[seed, t, e, b5, b4] for t, e, b5, b4 in
                 zip(tr.rounds, tr.empirical, tr.bound, tr.extra["bound4"])]
    record("heterogeneity-bound (ordering+validity)", ok,
           "verify_heterogeneity_bound.csv",
           ["seed", "round", "empirical_gap", "bound_worst_case",
            "bound_enumerated"], rows)

    # stationary-point bound on the nonconvex task
    seeds = 5 if quick else 20
    ok = True
    rows = []
    for seed in range(seeds):
        prob = tc.random_nonconvex_problem(np.random.default_rng(seed))
        tr = tc.verify_theorem9(prob, k=2, rounds=60, n_traj=150,
                                rng=np.random.default_rng(seed + 300))
        ok &= tr.holds
        rows.append([seed, tr.extra["min_grad_sq"], tr.extra["rhs"],
                     int(tr.holds)])
    record("stationary-point bound", ok, "verify_stationary_bound.csv",
           ["seed", "min_grad_sq", "rhs", "holds"], rows)

    # adaptive threshold: structural guarantees gate; the deviation chain
    # is reported but known not to hold universally
    ok_struct = True
    chain_holds = 0
    checked = 0
    rows = []
    for seed in range(10):
        prob = tc.random_quadratic_problem(np.random.default_rng(seed))
        res = tc.verify_theorem7(prob, k=2, rounds=40,
                                 rng=np.random.default_rng(seed + 700))
        if len(res.ratios):
            ok_struct &= bool((res.ratios >= 1.0).all())
        chain_holds += int(res.holds)
        checked += 1
        rows.append([seed, res.rounds_checked, res.rounds_skipped,
                     res.ratios.min() if len(res.ratios) else np.nan,
                     int(res.holds)])
    record("adaptive-threshold participation ratio", ok_struct,
           "verify_adaptive_threshold.csv",
           ["seed", "rounds_checked", "rounds_skipped", "min_ratio",
            "chain_holds"], rows)
    record(f"adaptive-threshold deviation chain "
           f"({chain_holds}/{checked} instances; informational)",
           chain_holds > 0, gating=False)

    # local-smoothness ball containment
    prob = tc.random_nonconvex_problem(np.random.default_rng(8))
    contained = tc.verify_local_smoothness_containment(
        prob, k=2, seeds=20 if quick else 100)
    record("local-smoothness ball containment", contained)

    failed = False
    print(f"{'check':<55} result")
    for name, passed, gating in results:
        print(f"{name:<55} {'PASS' if passed else 'FAIL'}")
        if gating and not passed:
            failed = True
    print(f"traces written to {out_dir}")
    return 4 if failed else 0


def cmd_report(args) -> int:
    rows = []
    for run_dir in args.runs:
        summary_path = Path(run_dir) / "summary.json"
        if not summary_path.exists():
            raise ConfigError(f"no summary.json under {run_dir}")
        try:
            with open(summary_path, encoding="utf-8") as fh:
                s = json.load(fh)["summary"]
            flmd = s["final_mean_flmd_of_aggregated"]
            rows.append([
                Path(run_dir).name, s["policy"], s["episodes"],
                f"{s['cumulative_sum_aoi_mean']:.4f}",
                "n/a" if flmd is None else f"{flmd:.6f}",
                f"{s['final_test_accuracy']:.4f}",
                f"{s['mean_reward']:.5f}",
            ])
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ConfigError(
                f"malformed summary.json under {run_dir}: {exc!r}") from exc
    header = ["run", "policy", "episodes", "sum_aoi", "final_flmd",
              "accuracy", "mean_reward"]
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if args.out:
        _write_trace(args.out, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="race-wfl",
        description="Two-stage resource allocation and vehicle selection "
                    "for wireless federated learning in platoons.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, episodes=True):
        p.add_argument("--config", help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
        p.add_argument("--out-dir", default=None,
                       help="output directory (default under "
                            "$RACE_WFL_OUT_ROOT or ./runs)")
        if episodes:
            p.add_argument("--episodes", type=int, default=None,
                           help="override run.episodes")

    p = sub.add_parser("allocate",
                       help="solve per-device resource allocation from a "
                            "profile CSV")
    p.add_argument("--profiles", required=True,
                   help=f"CSV with columns {', '.join(_PROFILE_COLUMNS)} "
                        "(optional: bandwidth)")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.add_argument("--config", help="scenario YAML file")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("train", help="train the selection policy")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="roll out a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="roll out a heuristic policy")
    common(p)
    p.add_argument("--policy", required=True, choices=BASELINE_KINDS)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("verify", help="run the numeric theory suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced instance counts")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize finished runs")
    p.add_argument("runs", nargs="+", help="run directories")
    p.add_argument("--out", default=None, help="write the table as CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except InfeasibleError as exc:
        log.error("infeasible instance: %s", exc)
        return 3
    except RaceError as exc:
        log.error("%s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
