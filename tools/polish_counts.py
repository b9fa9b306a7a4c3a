"""Count the Newton polish's residual and Jacobian work on the hard inputs.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 tools/polish_counts.py [REPEATS]

Runs from the root of a checkout against the liporbit sources under its
src/.  Solves kink-sweep T = 1.75, 2.25, 2.4 and smooth-sweep quartic
T = 5.5, 8.5 at K = 64 through `cli.cmd_solve`, with the benchmark's
configs (perfbench/workloads.py) and sampler seed 1, and prints per
solve:

* the exit code and the records of the run (result.json `iterations`);
* `min_norm_residuals` calls and the rows they evaluate, and
  `residual_jacobians` calls and rows, over every level, counted by
  wrapping the names `solver` holds;
* the median in-process time of REPEATS (default 5) further unwrapped
  `cmd_solve` calls.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from liporbit import cli, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SAMPLER_SEED = 1


def inputs() -> list[tuple[str, dict]]:
    kink, smooth = WORKLOADS["kink-sweep"], WORKLOADS["smooth-sweep"]
    return ([(f"kink T = {T}", kink.config(T, SAMPLER_SEED)) for T in (1.75, 2.25, 2.4)]
            + [(f"quartic T = {T}, K = 64", smooth.config(T, 64, SAMPLER_SEED))
               for T in (5.5, 8.5)])


def counted(fn, tally: list[int]):
    """fn, adding 1 to tally[0] and its stacked rows to tally[1] per call."""
    def wrapper(x, *args, **kwargs):
        tally[0] += 1
        tally[1] += len(x)
        return fn(x, *args, **kwargs)
    return wrapper


def solve(raw: dict, out: str) -> int:
    return cli.cmd_solve(cli.RunConfig.from_dict(dict(raw, output_dir=out, verbosity=0)))


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 5
    print(f"{'input':24s} {'exit':>4s} {'records':>7s} {'res calls':>9s} {'res rows':>8s} "
          f"{'jac calls':>9s} {'jac rows':>8s} {'median ms':>9s}")
    residuals, jacobians = solver.min_norm_residuals, solver.residual_jacobians
    with tempfile.TemporaryDirectory() as tmp:
        solve(inputs()[0][1], tmp)          # warm-up, so the first time is not the process's
        for name, raw in inputs():
            res, jac = [0, 0], [0, 0]
            solver.min_norm_residuals = counted(residuals, res)
            solver.residual_jacobians = counted(jacobians, jac)
            try:
                code = solve(raw, tmp)
            finally:
                solver.min_norm_residuals, solver.residual_jacobians = residuals, jacobians
            records = json.loads((Path(tmp) / "result.json").read_text())["iterations"]
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                solve(raw, tmp)
                times.append(time.perf_counter() - t0)
            print(f"{name:24s} {code:4d} {records:7d} {res[0]:9d} {res[1]:8d} "
                  f"{jac[0]:9d} {jac[1]:8d} {1e3 * statistics.median(times):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
