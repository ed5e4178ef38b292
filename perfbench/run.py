"""Run one workload of the latentid benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass, an untraced pass over the same ops and a child run with one
BLAS thread.  The lines before it record the environment, the refusals by
error class and the unscaled wall-clock figures.  The exit code is 0 only
when every answer passed its check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["simulate", "hmm-recover", "certify-cli", "nonparam-recover"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latentid" / "__init__.py").is_file():
        print(f"error: no latentid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = perf_counter()
    from perfbench import harness  # imports numpy and every latentid module

    import_s = perf_counter() - start

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            metrics, units, timed, failures = traced_run(harness, args, workdir)
        else:
            metrics, units, timed, failures = untraced_run(harness, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"wrong answer: {failure}", file=sys.stderr)
    print("env: " + json.dumps(harness.environment(), sort_keys=True))
    print(
        "report: "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "ops": timed.attempted,
                "failure_ratio": sum(timed.refusals.values()) / timed.attempted,
                "refusals": dict(sorted(timed.refusals.items())),
                "wall_ops_per_s": timed.attempted / sum(timed.wall),
                "wall_op_ms_p50": statistics.median(timed.wall) * 1e3,
                "probe_ms": statistics.median(timed.probes) * 1e3,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": timed.attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


def untraced_run(harness, args, workdir, import_s):
    setup_times = []  # reference seconds, each including the one import
    failures = []
    for _ in range(harness.SETUP_REPEATS):
        t0 = perf_counter()
        slots, warm = harness.setup(args.workload, args.seed, workdir)
        setup_times.append((import_s + perf_counter() - t0) * warm.scale)
        failures += warm.failures
    scaled = harness.WORKLOADS[args.workload].scaled
    timed = harness.run_pass(slots, seconds=args.seconds, scaled=scaled)
    metrics = harness.end_to_end(timed, statistics.median(setup_times))
    units = {name: unit for name, unit, _ in harness.END_TO_END}
    return metrics, units, timed, failures + timed.failures


def traced_run(harness, args, workdir):
    setup_tracer = harness.Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.op():
            harness.WORKLOADS[args.workload].build(args.seed, workdir)
        setup_tracer.fold()
    finally:
        setup_tracer.uninstall()

    slots, warm = harness.setup(args.workload, args.seed, workdir)
    scaled = harness.WORKLOADS[args.workload].scaled
    untraced = harness.run_pass(slots, seconds=args.seconds, scaled=scaled)
    tracer = harness.Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(
            slots, min_ops=untraced.attempted, tracer=tracer, scaled=scaled
        )
    finally:
        tracer.uninstall()
    one_thread = harness.one_thread_p50(
        Path(__file__), args.workload, args.seed, max(1, args.seconds // 2)
    )
    metrics = harness.per_layer(tracer, setup_tracer, warm, untraced, traced, one_thread)
    units = {name: unit for name, unit, _ in harness.PER_LAYER}
    return metrics, units, untraced, warm.failures + untraced.failures + traced.failures


if __name__ == "__main__":
    sys.exit(main())
