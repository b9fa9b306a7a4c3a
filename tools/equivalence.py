"""Write the byte-identity set of the benchmark's inputs under OUT.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 tools/equivalence.py OUT > hashes.txt

Runs from the root of a checkout against the liporbit sources under its
src/, on the inputs perfbench/workloads.py generates for seeds 1-2,
blocks 0-1:

* every smooth-sweep and kink-sweep input (72) through `cli.cmd_solve`,
  then its trajectory.json through `cli.cmd_verify` with the same config
  (written to verify/verification.json);
* `cli.cmd_bench`;
* every saddle-offcenter well (68) through calibrate_saddle, run_saddle
  and inclusion_residual, with the workload's settings, written as
  `SolverResult.to_json()` plus the inclusion report; its exit code is
  the workload's (0 when converged and the aggregate passes the gate).

It prints the BLAS thread variables, each run's exit code, beside it
the `pass` flag of the run's geometry (its geometry.json, or a saddle
well's calibrate_saddle result; so a diff shows whether the
certificate's verdict held where the hash of a geometry.json or a
result.json moved), and one sha256 per written file except
run_meta.json (wall-clock metadata).
Artifacts are byte-reproducible only at a fixed BLAS thread count, so
two checkouts give the same answers when `diff` of their outputs, made
with the same thread settings, is empty.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from liporbit import cli  # noqa: E402
from liporbit.linking import calibrate_saddle  # noqa: E402
from liporbit.solver import SolverConfig, run_saddle  # noqa: E402
from liporbit.verification import inclusion_residual  # noqa: E402
from checks import VERIFY_TOL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
BLOCKS = (0, 1)


def geometry_pass(out_dir: Path) -> str:
    """" pass <flag>" of a run's geometry.json, else ""."""
    path = out_dir / "geometry.json"
    return f" pass {json.loads(path.read_text())['pass']}" if path.exists() else ""


def solve_inputs(name: str, raw_of, out: Path) -> list[str]:
    lines = []
    wl = WORKLOADS[name]
    for seed in SEEDS:
        for block in BLOCKS:
            for i, inp in enumerate(wl.inputs(seed, block)):
                out_dir = out / name / f"s{seed}b{block}" / str(i)
                raw = dict(raw_of(inp), output_dir=str(out_dir), verbosity=0)
                code = cli.cmd_solve(cli.RunConfig.from_dict(raw))
                lines.append(f"exit {code}{geometry_pass(out_dir)} {out_dir.relative_to(out)}")
                traj = out_dir / "trajectory.json"
                if traj.exists():
                    cfg = cli.RunConfig.from_dict(dict(raw, output_dir=str(out_dir / "verify")))
                    code = cli.cmd_verify(cfg, str(traj))
                    lines.append(f"exit {code} {out_dir.relative_to(out)}/verify")
    return lines


def saddle_wells(out: Path) -> list[str]:
    """The saddle-offcenter solve of perfbench/workloads.py, answers kept."""
    lines = []
    wl = WORKLOADS["saddle-offcenter"]
    for seed in SEEDS:
        for block in BLOCKS:
            for i, inp in enumerate(wl.inputs(seed, block)):
                model = wl.well(np.array(inp["p"]), inp["eps2"])[0]
                geom = calibrate_saddle(model, {"A": 1.0, "a": 1.0}, 1.0, K=16, seed=0)
                cfg = SolverConfig(mode="saddle", K=16, grid=9, tol_conv=1e-6,
                                   max_iters=3000, seed=0)
                res = run_saddle(model, geom, cfg)
                report = inclusion_residual(res.candidate, model)
                out_dir = out / wl.name / f"s{seed}b{block}" / str(i)
                out_dir.mkdir(parents=True)
                (out_dir / "result.json").write_text(res.to_json())
                (out_dir / "verification.json").write_text(
                    json.dumps(report.to_dict(), sort_keys=True, indent=1))
                code = 0 if res.converged and report.aggregate < VERIFY_TOL else 1
                lines.append(f"exit {code} pass {geom.passed} {out_dir.relative_to(out)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    smooth, kink = WORKLOADS["smooth-sweep"], WORKLOADS["kink-sweep"]
    lines = [f"{var}={os.environ.get(var)}" for var in cli.BLAS_THREAD_VARS]
    lines += solve_inputs(smooth.name,
                          lambda inp: smooth.config(inp["T"], inp["K"], inp["sampler_seed"]),
                          out)
    lines += solve_inputs(kink.name, lambda inp: kink.config(inp["T"], inp["sampler_seed"]),
                          out)
    lines.append(f"exit {cli.cmd_bench(str(out / 'bench'), verbosity=0)} bench")
    for case in json.loads((out / "bench" / "bench.json").read_text())["results"]:
        case_dir = out / "bench" / case["case"]
        lines.append(f"exit {case['exit']}{geometry_pass(case_dir)} {case_dir.relative_to(out)}")
    lines += saddle_wells(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name != "run_meta.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out)}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
