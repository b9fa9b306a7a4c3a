"""Count the action-layer work of a solve on the hard inputs and the saddle wells.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 tools/polish_counts.py [REPEATS]

Runs from the root of a checkout against the liporbit sources under its
src/.  Solves kink-sweep T = 1.75, 2.0, 2.25, 2.4, smooth-sweep quartic
T = 5.5, 8.5 at K = 64 and T = 8.5 at K = 128, and the quartic at n = 2,
T = 8.5, K = 64 (not a benchmark input), through `cli.cmd_solve`, with
the benchmark's configs (perfbench/workloads.py) and sampler seed 1,
then the 17 saddle-offcenter wells of seed 1, block 0 through the
workload's own solve (calibrate_saddle, run_saddle, inclusion_residual
and the answer check), and prints per solve:

* the exit code and the records of the run (result.json `iterations`,
  or the well's history length);
* for each of `action_values`, `min_norm_residuals` and
  `residual_jacobians`, the calls and the rows they evaluate, counted
  by wrapping the names `linking` and `solver` hold, as calls/rows per
  module; a name the module does not hold prints "-";
* the points `PotentialModel.value` evaluates inside `ridge_probe` and
  inside `certify_linking` (the names `solver` and `linking` hold), a
  deterministic count of the two phases' work;
* the median in-process time of REPEATS (default 5) further unwrapped
  solves;
* the stack sizes of the run's `solver._polish_candidates` calls, one
  per call (the seeds polished in one lockstep at K0, then each K-level
  polish);
* the run's rejection list (result.json `diagnostics.rejections`, or
  the well's `SolverResult`), one gate name per rejected loop: a name
  of a gate other than measure on a loop that ended below tol_conv at
  K0 shows the gates judged there.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from liporbit import cli, linking, solver  # noqa: E402
from liporbit.potentials import PotentialModel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SAMPLER_SEED = 1
COUNTED = [(module, name) for module in (linking, solver)
           for name in ("action_values", "min_norm_residuals", "residual_jacobians")]
PHASES = [(solver, "ridge_probe"), (linking, "certify_linking")]


def cmd_solve_input(raw: dict):
    """A solve of raw through cmd_solve: (exit code, records, rejections)."""
    def run(out: str) -> tuple[int, int, list[str]]:
        code = cli.cmd_solve(cli.RunConfig.from_dict(dict(raw, output_dir=out, verbosity=0)))
        result = json.loads((Path(out) / "result.json").read_text())
        return code, result["iterations"], result["diagnostics"]["rejections"]
    return run


def well_input(inp: dict):
    """A saddle-offcenter solve of inp: (exit code, records, rejections)."""
    def run(out: str) -> tuple[int, int, list[str]]:
        results = []
        run_saddle = solver.run_saddle          # the name the workload imports per solve
        solver.run_saddle = lambda *args: results.append(run_saddle(*args)) or results[-1]
        try:
            outcome = WORKLOADS["saddle-offcenter"].solve(inp, Path(out))
        finally:
            solver.run_saddle = run_saddle
        return (outcome.code, outcome.details["iterations"],
                results[-1].diagnostics["rejections"])
    return run


def inputs() -> list[tuple[str, object]]:
    kink, smooth = WORKLOADS["kink-sweep"], WORKLOADS["smooth-sweep"]
    saddle = WORKLOADS["saddle-offcenter"]
    return ([(f"kink T = {T}", cmd_solve_input(kink.config(T, SAMPLER_SEED)))
             for T in (1.75, 2.0, 2.25, 2.4)]
            + [(f"quartic T = {T}, K = {K}", cmd_solve_input(smooth.config(T, K, SAMPLER_SEED)))
               for T, K in ((5.5, 64), (8.5, 64), (8.5, 128))]
            + [("quartic n = 2, T = 8.5", cmd_solve_input(
                dict(smooth.config(8.5, 64, SAMPLER_SEED), n=2)))]
            + [(f"well {i} eps2 = {inp['eps2']}", well_input(inp))
               for i, inp in enumerate(saddle.inputs(1, 0))])


def counted(fn, tally: list[int]):
    """fn, adding 1 to tally[0] and its stacked rows to tally[1] per call."""
    def wrapper(x, *args, **kwargs):
        tally[0] += 1
        tally[1] += len(x)
        return fn(x, *args, **kwargs)
    return wrapper


def stacked(fn, stacks: list[int]):
    """fn, appending the number of its first argument's rows to stacks per call."""
    def wrapper(q0s, *args, **kwargs):
        stacks.append(len(q0s))
        return fn(q0s, *args, **kwargs)
    return wrapper


def phase_points(fn, points: dict, name: str):
    """fn, charging the points PotentialModel.value evaluates during each call to points[name]."""
    def wrapper(*args, **kwargs):
        value = PotentialModel.value

        def counting(model, x):
            points[name] += int(np.prod(np.shape(x)[:-1]))
            return value(model, x)
        PotentialModel.value = counting
        try:
            return fn(*args, **kwargs)
        finally:
            PotentialModel.value = value
    return wrapper


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 5
    held = [(module, name) for module, name in COUNTED if hasattr(module, name)]
    labels = [f"{module.__name__.split('.')[-1]}.{name}" for module, name in COUNTED]
    width = max(map(len, labels))
    print(f"{'input':24s} {'exit':>4s} {'records':>7s} "
          + " ".join(f"{label:>{width}s}" for label in labels)
          + f" {'probe pts':>9s} {'cert pts':>9s} {'median ms':>9s} {'stacks':>9s} rejections")
    with tempfile.TemporaryDirectory() as tmp:
        inputs()[0][1](tmp)                 # warm-up, so the first time is not the process's
        for label, run in inputs():
            tallies = {key: [0, 0] for key in held}
            originals = {key: getattr(*key) for key in held}
            for (module, name), tally in tallies.items():
                setattr(module, name, counted(originals[module, name], tally))
            stacks: list[int] = []
            polish = solver._polish_candidates
            solver._polish_candidates = stacked(polish, stacks)
            points = {name: 0 for _, name in PHASES}
            phases = {name: getattr(module, name) for module, name in PHASES}
            for module, name in PHASES:
                setattr(module, name, phase_points(phases[name], points, name))
            try:
                code, records, rejections = run(tmp)
            finally:
                for (module, name), fn in originals.items():
                    setattr(module, name, fn)
                solver._polish_candidates = polish
                for module, name in PHASES:
                    setattr(module, name, phases[name])
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run(tmp)
                times.append(time.perf_counter() - t0)
            cells = [f"{tallies[key][0]}/{tallies[key][1]}" if key in tallies else "-"
                     for key in COUNTED]
            print(f"{label:24s} {code:4d} {records:7d} "
                  + " ".join(f"{cell:>{width}s}" for cell in cells)
                  + "".join(f" {points[name]:9d}" for _, name in PHASES)
                  + f" {1e3 * statistics.median(times):9.1f} {str(stacks):>9s} {rejections}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
