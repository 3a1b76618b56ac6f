"""End-to-end benchmark of race-wfl with an optional traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run builds its inputs from ``--seed``, sets the program up, warms it,
then repeats units of work for ``--seconds`` seconds and checks every
unit's outputs.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced units and prints
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and prints their metrics together.

The package is imported from ``src`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  Working files,
results and span dumps go to ``.bench_out`` at the repository root.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer as tracing
from reference import REF_SECONDS, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("train", "rollout", "allocate", "verify")

END_TO_END = {"unit_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# import timings taken before and again after the timed units
IMPORT_SAMPLES = 2
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import race_wfl.cli; "
                 "print(repr(time.perf_counter() - t))")


def import_seconds(probe):
    """Time to import the whole package in a fresh interpreter, and that
    time over the reference kernel's time around it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    before = probe.sample()
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    seconds = float(out.stdout.strip().splitlines()[-1])
    return seconds, seconds / (0.5 * (before + probe.sample()))


def measure(workload, probe, seconds, trace, targets):
    """Repeat units until the next would end past ``seconds``.

    The speed probe samples before the first unit and after each unit,
    and inside units when the run is untraced; it sets each unit's
    ``ref_s`` and takes its own time out of the unit's ``seconds``.  In
    traced mode units alternate untraced, traced, untraced, ... and at
    least one of each runs; no unit is sampled inside, so that traced and
    untraced units compare alike and no span holds kernel time.  Returns
    (units as (unit, traced) pairs, tracer or None).
    """
    tracer = tracing.Tracer() if trace else None
    units = []
    walls = []
    start = time.perf_counter()
    deadline = start + seconds
    probe.sample()
    while True:
        traced = trace and len(units) % 2 == 1
        t0 = time.perf_counter()
        probe.begin_unit(inside=not trace)
        if traced:
            tracer.install(targets)
        try:
            unit = workload.run_unit()
        finally:
            if traced:
                tracer.uninstall()
        unit.ref_s, inside_s = probe.end_unit()
        unit.seconds -= inside_s
        units.append((unit, traced))
        now = time.perf_counter()
        walls.append(now - t0)
        if trace and len(units) < 2:
            continue
        if now + statistics.median(walls) > deadline:
            return units, tracer


def relative(unit):
    return unit.seconds / unit.ref_s


def per_layer(layers, tracer, units):
    """Per-layer metrics per traced unit, and the tracing overhead on
    relative unit time against the untraced units of the same run."""
    traced = [relative(u) for u, t in units if t]
    plain = [relative(u) for u, t in units if not t]
    n = len(traced)
    totals = tracing.aggregate(tracer.spans)
    metrics = {}
    for name, unit in layers.metric_units().items():
        if name == "trace.spans":
            value = len(tracer.spans) / n
        elif name == "trace.overhead":
            value = 100.0 * (statistics.median(traced)
                             / statistics.median(plain) - 1.0)
        elif name in layers.COUNTERS:
            value = tracer.counters.get(name, 0.0) / n
        else:
            span, _, kind = name.rpartition(".")
            calls, self_s = totals.get(span, (0, 0.0))
            value = (calls if kind == "calls" else self_s) / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_one(args):
    if not os.path.isdir(os.path.join(SRC, "race_wfl")):
        print(f"race_wfl package not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import envinfo
    import layers
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe(workload_cls.reference_mix)
    import_s = [import_seconds(probe) for _ in range(IMPORT_SAMPLES)]
    env = envinfo.environment(ROOT)
    os.makedirs(OUT_ROOT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT_ROOT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    hooks = workloads.Hooks(probe)
    hooks.install()
    try:
        workload = workload_cls(args.seed, work_dir, hooks)
        workload.prepare()
        workload.warm_up()
        units, tracer = measure(workload, probe, args.seconds, args.trace,
                                layers.TARGETS)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        import_s += [import_seconds(probe) for _ in range(IMPORT_SAMPLES)]
        final_failed, final_problems = workload.final_checks(
            [u for u, _ in units])
    finally:
        hooks.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(u.attempted for u, _ in units)
    failed = sum(u.failed for u, _ in units) + final_failed
    problems = [p for u, _ in units for p in u.problems] + final_problems
    plain = [u for u, t in units if not t]
    if args.trace:
        metrics = per_layer(layers, tracer, units)
        tracer.write(os.path.join(OUT_ROOT, f"spans-{tag}.csv.gz"))
    else:
        setup_s = REF_SECONDS * (
            statistics.median(r for _, r in import_s)
            + statistics.median(u.setup_s / u.ref_s for u in plain))
        values = {"unit_ref": statistics.median(relative(u) for u in plain),
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]}
                   for k in END_TO_END}

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# units {len(units)} ({len(plain)} untraced); unit seconds "
          + " ".join(f"{u.seconds:.4f}{'*' if t else ''}" for u, t in units))
    print(f"# unit_s {statistics.median(u.seconds for u in plain):.6g} s; "
          f"reference kernel "
          f"{statistics.median(u.ref_s for u, _ in units):.6g} s")
    print(f"# import_s samples "
          f"{' '.join(f'{s:.4f}' for s, _ in import_s)}; in-call set-up "
          f"{statistics.median(u.setup_s for u in plain):.4f} s")
    for label, value, unit in workload.summary(plain):
        print(f"# {label} {value:.6g} {unit}")
    print(f"# failed_ratio {failed}/{attempted} {workload.op_name} = "
          f"{failed / attempted:.6g}")
    print(f"# checks {'passed' if not problems else 'FAILED'}")
    for problem in problems[:20]:
        print(f"#   {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    result = {"correct": not problems and failed == 0,
              "attempted": int(attempted), "failed": int(failed),
              "metrics": metrics}
    record = {"args": vars(args), "env": env, "result": result,
              "import_s": import_s, "problems": problems,
              "units": [{"seconds": u.seconds, "setup_s": u.setup_s,
                         "ref_s": u.ref_s, "traced": t, "attempted": u.attempted,
                         "failed": u.failed, "notes": u.notes}
                        for u, t in units]}
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args):
    """Each workload in its own process; their metrics side by side."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, allow_nan=False))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
