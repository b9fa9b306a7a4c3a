"""Benchmark liporbit on one workload and print its metrics.

    python3 perfbench/run.py --workload kink-sweep --seed 3 --seconds 20 --trace 0

Runs from the root of a checkout with the liporbit sources under src/.
The load is closed-loop: one solve at a time in this process.  Inputs
come in blocks (see workloads.py); the run starts another block only
while the time spent so far plus the last block's time fits in
--seconds, and always runs at least one, so every run sees whole blocks.

--trace 0 reports the end-to-end metrics.  setup_s is the median, over
several fresh processes, of the time to import liporbit and build the
workload's models.  Times are corrected for the host's speed (see
speed.py); raw wall times are printed and recorded beside them.
--trace 1 solves the same blocks traced, and every other input untraced
too, and reports per-layer counts and times per solve plus the tracing
overhead.
Both print one line per metric, then, as the last line, a JSON object
with the keys correct, attempted, failed, metrics.

A solve fails if it does not exit 0 or fails any check.  `correct` is
false if any solve claimed success and failed a check, or reported its
own result inconsistently; failing inputs that the solver itself
reports as failures are counted in `failed`, not in `correct`.
Generated inputs, every solve, the environment and the metrics are
written to .perfbench_out/, and the spans of a traced run beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "verified_per_min": "1/min",
    "verified_share": "ratio",
    "peak_rss_mb": "MB",
}


def setup_probe(workload: str) -> None:
    """Child process: time importing liporbit and building the models."""
    import speed

    with speed.Timed(armed=False) as timed:
        env.prepare()
        import numpy  # noqa: F401  (liporbit's first import)

        timed.arm()
        import liporbit  # noqa: F401
        from workloads import WORKLOADS

        WORKLOADS[workload].setup()
    print(timed.seconds)


def measure_setup(workload: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_blocks(wl, seed: int, seconds: float, solve):
    """Solve whole blocks of inputs with solve(input, out_dir, index).

    Returns (inputs, results, wall seconds)."""
    inputs, results = [], []
    t0 = time.perf_counter()
    block, last = 0, 0.0
    while block == 0 or time.perf_counter() - t0 + last <= seconds:
        b0 = time.perf_counter()
        for i, inp in enumerate(wl.inputs(seed, block)):
            out_dir = env.OUT / wl.name / str(i)
            out_dir.mkdir(parents=True, exist_ok=True)
            results.append(solve(inp, out_dir, len(results)))
            inputs.append(inp)
        last = time.perf_counter() - b0
        block += 1
    return inputs, results, time.perf_counter() - t0


def traced_pair(wl, tracer):
    """solve() for run_blocks that solves each input traced and every
    other input untraced as well, to measure the tracing overhead; the
    pairs alternate which side goes first so that neither gains from the
    other's warm caches.  Returns (untraced or None, traced)."""
    def solve(inp, out_dir, k):
        pair = {False: None}
        sides = (True,) if k % 2 else ((False, True) if k % 4 == 0 else (True, False))
        for traced in sides:
            if traced:
                tracer.solve_id = k
                with tracer.installed():
                    pair[traced] = wl.solve(inp, out_dir, tracer)
            else:
                pair[traced] = wl.solve(inp, out_dir)
        return pair[False], pair[True]
    return solve


def end_to_end(outcomes, wall: float, setup_times: list[float]) -> tuple[dict, dict]:
    """(bounded metrics, informational metrics) of an untraced run."""
    passed = [o for o in outcomes if o.passed]
    crosschecks = [o.crosscheck.seconds for o in outcomes if o.crosscheck is not None]
    work_s = sum(o.solve.seconds for o in outcomes) + sum(crosschecks)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s_p50": statistics.median(o.solve.seconds for o in outcomes),
        "verified_per_min": len(passed) / (work_s / 60.0),
        "verified_share": len(passed) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "verified_per_wall_min": (len(passed) / (wall / 60.0), "1/min"),
        "failed_share": (1.0 - len(passed) / len(outcomes), "ratio"),
        "crosscheck_s_p50": (statistics.median(crosschecks), "s") if crosschecks else None,
        "c_err_max": (max((o.c_err for o in passed), default=0.0), "1"),
        "residual_max": (max((o.residual for o in passed), default=0.0), "1"),
        "solve_s_max": (max(o.solve.seconds for o in outcomes), "s"),
        "solve_wall_s_p50": (statistics.median(o.solve.wall for o in outcomes), "s"),
        "wall_s": (wall, "s"),
    }
    return metrics, {k: v for k, v in info.items() if v is not None}


def per_layer(tracer, traced, untraced) -> dict:
    """Per-solve layer counts and times from the traced solves; untraced
    holds the untraced twin of each traced solve, or None."""
    # Span times get their solve's host-speed correction, as solve times do.
    n = len(traced)
    spans = tracer.totals({k: o.solve.seconds / o.solve.wall for k, o in enumerate(traced)})
    counts = tracer.counter_totals()

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0.0) / n

    def count(key):
        return counts.get(key, 0.0) / n

    subgradients = spans.get("action.min_norm_subgradient", {}).get("calls", 0.0)
    hulls = spans.get("action.project_hull", {}).get("calls", 0.0)
    accepted = sum(o.details["ridge_polish"] for o in traced)
    attempted = accepted + sum(o.details["rejected_candidates"] for o in traced)
    twins = [(t, u) for t, u in zip(traced, untraced) if u is not None]
    traced_s = sum(t.solve.seconds for t, _ in twins)
    untraced_s = sum(u.solve.seconds for _, u in twins)
    return {
        "potentials.certify.s": (span("potentials.certify"), "s"),
        "potentials.points_evaluated": (count("potentials.points_evaluated"), "count"),
        "trajectory.constructions": (count("trajectory.constructions"), "count"),
        "trajectory.from_samples.calls": (count("trajectory.from_samples.calls"), "count"),
        "action.action_value.calls": (span("action.action_value", "calls"), "count"),
        "action.action_value.s": (span("action.action_value"), "s"),
        "action.min_norm_subgradient.calls.l2":
            (count("action.min_norm_subgradient.calls.l2"), "count"),
        "action.min_norm_subgradient.calls.h1precond":
            (count("action.min_norm_subgradient.calls.h1precond"), "count"),
        "action.min_norm_subgradient.s": (span("action.min_norm_subgradient"), "s"),
        "action.project_hull.calls": (span("action.project_hull", "calls"), "count"),
        "action.project_hull.s": (span("action.project_hull"), "s"),
        "action.project_hull.per_subgradient":
            (hulls / subgradients if subgradients else 0.0, "ratio"),
        "linking.calibrate_superquadratic.s": (span("linking.calibrate_superquadratic"), "s"),
        "linking.certify_linking.s": (span("linking.certify_linking"), "s"),
        "linking.calibrate_saddle.s": (span("linking.calibrate_saddle"), "s"),
        "solver.init_surface.s": (span("solver.init_surface"), "s"),
        "solver.deform_step.calls": (span("solver.deform_step", "calls"), "count"),
        "solver.deform_step.s": (span("solver.deform_step"), "s"),
        "solver.ridge_probe.calls": (span("solver.ridge_probe", "calls"), "count"),
        "solver.ridge_probe.s": (span("solver.ridge_probe"), "s"),
        "solver.run.self_s": (span("solver.run_minimax", "self_s")
                              + span("solver.run_saddle", "self_s"), "s"),
        "solver.iterations": (sum(o.details["iterations"] for o in traced) / n, "count"),
        "solver.rejected_candidates":
            (sum(o.details["rejected_candidates"] for o in traced) / n, "count"),
        "solver.polish_yield": (accepted / attempted if attempted else 0.0, "ratio"),
        "verification.inclusion_residual.calls":
            (span("verification.inclusion_residual", "calls"), "count"),
        "verification.inclusion_residual.s": (span("verification.inclusion_residual"), "s"),
        "verification.shooting_oracle.s": (span("verification.shooting_oracle"), "s"),
        "verification.shooting_oracle.newton_iters":
            (count("verification.shooting_oracle.newton_iters"), "count"),
        "cli.cmd_solve.self_s": (span("cli.cmd_solve", "self_s"), "s"),
        "cli.artifact_bytes": (sum(o.details["artifact_bytes"] for o in traced) / n, "bytes"),
        "trace.spans": (len(tracer.end) / n, "count"),
        "trace.overhead_s": ((traced_s - untraced_s) / len(twins), "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }


def outcome_record(inp: dict, o) -> dict:
    return {"input": inp, "code": o.code, "passed": o.passed, "wrong": o.wrong,
            "solve_s": o.solve.seconds, "solve_wall_s": o.solve.wall,
            "crosscheck_s": o.crosscheck.seconds if o.crosscheck else None,
            "checks": o.checks, "c_err": o.c_err, "residual": o.residual,
            "details": o.details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        env.prepare()
    except env.MissingSources as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env.OUT.mkdir(exist_ok=True)
    stem = env.OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"

    setup_times = [] if args.trace else measure_setup(wl.name)
    wl.setup()
    if args.trace:
        tracer = Tracer()
        inputs, pairs, wall = run_blocks(wl, args.seed, args.seconds, traced_pair(wl, tracer))
        tracer.write(stem.with_suffix(".spans.npz"))
        untraced, traced = (list(side) for side in zip(*pairs))
        rows = per_layer(tracer, traced, untraced)
        inputs = [i for i, u in zip(inputs, untraced) if u is not None] + inputs
        outcomes = [u for u in untraced if u is not None] + traced
    else:
        inputs, outcomes, wall = run_blocks(wl, args.seed, args.seconds,
                                            lambda inp, out_dir, k: wl.solve(inp, out_dir))
        metrics, info = end_to_end(outcomes, wall, setup_times)
        rows = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        rows.update(info)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in rows.items()}

    summary = {"correct": not any(o.wrong for o in outcomes),
               "attempted": len(outcomes),
               "failed": sum(not o.passed for o in outcomes)}
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": wall, "env": env.describe(),
        "setup_s": setup_times, **summary, "metrics": metrics,
        "solves": [outcome_record(i, o) for i, o in zip(inputs, outcomes)],
    }, indent=1))

    print(f"{wl.name:17s} env " + " ".join(f"{k}={v}" for k, v in env.describe().items()))
    for name, m in metrics.items():
        print(f"{wl.name:17s} {name:44s} {m['value']:14.6g} {m['unit']}")
    reported = {name: metrics[name] for name in
                (END_TO_END_UNITS if not args.trace else metrics)}
    print(json.dumps({**summary, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
