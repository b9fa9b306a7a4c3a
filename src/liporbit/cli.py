"""Batch front door: certify, calibrate, solve, verify, bench.

One declarative JSON config drives every subcommand; command-line flags
override config keys (flags > file > defaults).  `solver` takes grid,
tol_conv, max_iters and seed; `hypotheses` takes the parameters that
potentials.HYPOTHESIS_PARAMS names for the mode's hypotheses, and any
other key is an input error.  Exit code contract:
0 success, 1 certified-negative (a checker ran and said no), 2 input
error, 3 hypothesis/threshold infeasible.  Result artifacts are
byte-reproducible only for a fixed config, seed and BLAS thread count:
another thread count moves trailing digits of result.json,
trajectory.json, cerami.csv and geometry.json.  run_meta.json records
that count (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS) next
to the wall-clock metadata it quarantines, so the other files compare
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linking, potentials, solver
from .action import history_to_csv
from .potentials import HypothesisCertificate, PotentialModel, SamplerSpec, certify
from .trajectory import PeriodicTrajectory
from .verification import inclusion_residual

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3

# The BLAS thread settings that run_meta.json records: the trailing digits
# of the other artifacts depend on them.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _is_positive_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


@dataclass
class RunConfig:
    potential: dict
    T: float
    n: int = 1
    K: int = 64
    mode: str = "superquadratic"
    hypotheses: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    sampler: dict = field(default_factory=dict)
    output_dir: str = "out"
    verbosity: int = 1
    verify_tol: float = 1e-4

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        for key in raw:
            if key not in known:
                raise ConfigError(key, "unknown key")
        if "potential" not in raw:
            raise ConfigError("potential", "missing")
        if "T" not in raw:
            raise ConfigError("T", "missing")
        cfg = cls(**raw)
        for key in ("potential", "hypotheses", "solver", "sampler"):
            if not isinstance(getattr(cfg, key), dict):
                raise ConfigError(key, f"must be an object, got {getattr(cfg, key)!r}")
        for key in ("T", "verify_tol"):
            value = getattr(cfg, key)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value > 0):
                raise ConfigError(key, f"must be a finite positive number, got {value!r}")
        for key in ("n", "K"):
            value = getattr(cfg, key)
            if not _is_positive_int(value):
                raise ConfigError(key, f"must be a positive integer, got {value!r}")
        if not (isinstance(cfg.verbosity, numbers.Integral)
                and not isinstance(cfg.verbosity, bool) and cfg.verbosity >= 0):
            raise ConfigError("verbosity", f"must be an integer >= 0, got {cfg.verbosity!r}")
        if not (isinstance(cfg.output_dir, str) and cfg.output_dir):
            raise ConfigError("output_dir", f"must be a non-empty string, got {cfg.output_dir!r}")
        if cfg.mode not in ("superquadratic", "saddle"):
            raise ConfigError("mode", f"unknown mode {cfg.mode!r}")
        # Unknown keys fail; the table's defaults, then the zoo's constants,
        # fill in what the config leaves out.
        table = [potentials.HYPOTHESIS_PARAMS[hyp] for hyp in cfg.hypothesis_names]
        potential_type = cfg.potential.get("type")
        if not isinstance(potential_type, str):
            raise ConfigError("potential.type", f"must be a string, got {potential_type!r}")
        zoo = potentials.ZOO_PARAMS.get(potential_type, {})
        for key in cfg.hypotheses:
            if not any(key in params for params in table):
                raise ConfigError(f"hypotheses.{key}",
                                  f"unknown key in {cfg.mode} mode")
        defaults = table + [zoo.get(hyp, {}) for hyp in cfg.hypothesis_names]
        cfg.hypotheses = dict({key: value for params in defaults
                               for key, value in params.items() if value is not None},
                              **cfg.hypotheses)
        for key, value in cfg.hypotheses.items():
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value)):
                raise ConfigError(f"hypotheses.{key}",
                                  f"must be a finite number, got {value!r}")
        for key in ("radius", "a1", "A"):
            if key in cfg.hypotheses and cfg.hypotheses[key] <= 0:
                raise ConfigError(f"hypotheses.{key}",
                                  f"must be > 0, got {cfg.hypotheses[key]!r}")
        mu1 = cfg.hypotheses.get("mu1")
        if mu1 is not None:
            if cfg.mode == "superquadratic" and mu1 <= 2.0:
                raise ConfigError("hypotheses.mu1",
                                  f"superquadratic mode requires mu1 > 2, got {mu1}")
            if cfg.mode == "saddle" and mu1 >= 2.0:
                raise ConfigError("hypotheses.mu1",
                                  f"saddle mode requires mu1 < 2, got {mu1}")
        return cfg

    @property
    def hypothesis_names(self) -> tuple[str, ...]:
        if self.mode == "superquadratic":
            return potentials.SUPERQUADRATIC
        return potentials.SUBQUADRATIC

    def hypothesis_params(self) -> list[tuple[str, dict]]:
        """(hypothesis, its parameters) for each hypothesis of the mode."""
        out = []
        for hyp in self.hypothesis_names:
            for key in potentials.HYPOTHESIS_PARAMS[hyp]:
                if key not in self.hypotheses:
                    raise ConfigError(f"hypotheses.{key}", f"required by {hyp} but missing")
            out.append((hyp, {key: self.hypotheses[key]
                              for key in potentials.HYPOTHESIS_PARAMS[hyp]}))
        return out

    def build_model(self) -> PotentialModel:
        spec = dict(self.potential)
        dim = spec.setdefault("dim", self.n)
        if not _is_positive_int(dim):
            raise ConfigError("potential.dim", f"must be a positive integer, got {dim!r}")
        if dim != self.n:
            raise ConfigError("potential.dim", f"disagrees with n = {self.n}")
        if dim > potentials.MAX_SAMPLER_DIM:
            raise ConfigError("potential.dim", f"must be <= {potentials.MAX_SAMPLER_DIM} "
                                               f"(the certificate sampler's limit), got {dim}")
        try:
            return potentials.from_spec(spec)
        except (KeyError, ValueError) as err:
            raise ConfigError("potential", str(err))

    def solver_config(self) -> solver.SolverConfig:
        try:
            return solver.SolverConfig(mode=self.mode, K=self.K,
                                       verify_tol=self.verify_tol, **self.solver)
        except (TypeError, ValueError) as err:
            raise ConfigError("solver", str(err))

    def sampler_spec(self) -> SamplerSpec:
        keys = dict(self.sampler)
        keys.setdefault("seed", int(self.solver_config().seed))
        try:
            return SamplerSpec(**keys)
        except (TypeError, ValueError) as err:
            raise ConfigError("sampler", str(err))


def _write(out_dir: Path, name: str, text: str, verbosity: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)
    if verbosity > 1:
        print(f"wrote {out_dir / name}")


def _certify(cfg: RunConfig, model: PotentialModel) -> list[HypothesisCertificate]:
    """Certify every hypothesis of the mode and write certificates.json."""
    sampler = cfg.sampler_spec()
    certs = [certify(model, hyp, params, sampler) for hyp, params in cfg.hypothesis_params()]
    _write(Path(cfg.output_dir), "certificates.json",
           json.dumps({"certificates": [c.to_dict() for c in certs]},
                      sort_keys=True, indent=1), cfg.verbosity)
    return certs


def _calibrate(cfg: RunConfig, model: PotentialModel) -> linking.LinkingGeometry | int:
    """Calibrate and certify the geometry and write geometry.json, or
    return the exit code of a calibration that cannot proceed."""
    params = {key: value for _, hyp_params in cfg.hypothesis_params()
              for key, value in hyp_params.items()}
    seed = int(cfg.solver_config().seed)
    try:
        if cfg.mode == "superquadratic":
            geom = linking.certify_linking(
                linking.calibrate_superquadratic(model, params, cfg.T),
                model, cfg.T, K=cfg.K, seed=seed)
        else:
            geom = linking.calibrate_saddle(model, params, cfg.T, K=cfg.K, seed=seed)
    except linking.InfeasibleGeometryError as err:
        print(f"infeasible: {err}\nadmissible periods: "
              f"0 < T < {linking.threshold_period(params['A']):g}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except linking.NonCoerciveError as err:
        print(f"calibration failed: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    _write(Path(cfg.output_dir), "geometry.json",
           json.dumps(geom.to_dict(), sort_keys=True, indent=1), cfg.verbosity)
    return geom


def cmd_certify(cfg: RunConfig) -> int:
    """Run every certifier applicable to the configured mode."""
    certs = _certify(cfg, cfg.build_model())
    if cfg.verbosity:
        for c in certs:
            flag = " [non-coercive]" if c.flags.get("non_coercive") else ""
            print(f"{c.hypothesis:4s} {'PASS' if c.passed else 'FAIL'} "
                  f"worst margin {c.worst_margin:+.3e}{flag}")
    return EXIT_OK if all(c.passed for c in certs) else EXIT_NEGATIVE


def cmd_calibrate(cfg: RunConfig) -> int:
    geom = _calibrate(cfg, cfg.build_model())
    if isinstance(geom, int):
        return geom
    if cfg.verbosity:
        print(f"mode={geom.mode} pass={geom.passed} "
              f"alpha={geom.alpha_sampled} beta={geom.beta_sampled}")
    return EXIT_OK if geom.passed else EXIT_NEGATIVE


def cmd_solve(cfg: RunConfig, force: bool = False) -> int:
    """certify -> calibrate -> run -> verify -> write artifacts."""
    import os

    model = cfg.build_model()
    scfg = cfg.solver_config()          # a bad solver key exits before any write
    t_start = time.time()

    if not all(c.passed for c in _certify(cfg, model)) and not force:
        print("hypothesis certificates failed (use --force to override)",
              file=sys.stderr)
        return EXIT_NEGATIVE
    geom = _calibrate(cfg, model)
    if isinstance(geom, int):
        return geom
    if not geom.passed:                 # run_* refuses it, so --force cannot help
        print("linking certificate failed", file=sys.stderr)
        return EXIT_NEGATIVE

    run = solver.run_minimax if cfg.mode == "superquadratic" else solver.run_saddle
    result = run(model, geom, scfg)

    out = Path(cfg.output_dir)
    _write(out, "result.json", result.to_json(), cfg.verbosity)
    _write(out, "trajectory.json", result.candidate.to_json(), cfg.verbosity)
    _write(out, "trajectory.csv", result.candidate.to_csv(), cfg.verbosity)
    _write(out, "cerami.csv", history_to_csv(result.history), cfg.verbosity)
    _write(out, "run_meta.json",
           json.dumps({"wall_seconds": time.time() - t_start,
                       "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                       "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
                      sort_keys=True), cfg.verbosity)

    ver = result.verification
    if cfg.verbosity:
        print(f"converged={result.converged} c={result.c_estimate:.8g} "
              f"residual={ver.aggregate:.3e} nonconstant={ver.nonconstant}")
    return EXIT_OK if result.converged else EXIT_NEGATIVE


def cmd_verify(cfg: RunConfig, trajectory_path: str) -> int:
    model = cfg.build_model()
    try:
        traj = PeriodicTrajectory.from_json(Path(trajectory_path).read_text())
    except FileNotFoundError:
        print(f"trajectory file not found: {trajectory_path}", file=sys.stderr)
        return EXIT_INPUT
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as err:
        print(f"cannot parse trajectory: {err}", file=sys.stderr)
        return EXIT_INPUT
    if traj.n != model.dim:
        print(f"trajectory dimension {traj.n} != model dimension {model.dim}",
              file=sys.stderr)
        return EXIT_INPUT
    for key, value in (("T", traj.T), ("K", traj.K)):
        if value != getattr(cfg, key):
            raise ConfigError(key, f"{getattr(cfg, key)!r} != the trajectory's {value!r}")
    report = inclusion_residual(traj, model)
    _write(Path(cfg.output_dir), "verification.json",
           json.dumps(report.to_dict(), sort_keys=True, indent=1), cfg.verbosity)
    if cfg.verbosity:
        print(f"aggregate={report.aggregate:.3e} max={report.max_distance:.3e}")
    return EXIT_OK if report.aggregate < cfg.verify_tol else EXIT_NEGATIVE


BENCH_CONFIGS = {
    "quartic": {
        "potential": {"type": "quartic"}, "T": 2 * np.pi, "n": 1, "K": 64,
        "mode": "superquadratic",
        "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
    },
    "maxpair": {
        "potential": {"type": "maxpair"}, "T": 2.0, "n": 2, "K": 64,
        "mode": "superquadratic",
        "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
    },
    "subq32": {
        "potential": {"type": "subq32"}, "T": 1.0, "n": 2, "K": 64,
        "mode": "saddle",
        "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 2000, "seed": 0},
    },
}


def cmd_bench(cfg_dir: str, verbosity: int = 1) -> int:
    """Run the built-in zoo benchmarks and report one line per case."""
    rows = []
    worst = EXIT_OK
    for name, raw in BENCH_CONFIGS.items():
        case = dict(raw)
        case["output_dir"] = str(Path(cfg_dir) / name)
        case["verbosity"] = 0
        t0 = time.time()
        code = cmd_solve(RunConfig.from_dict(case))
        dt = time.time() - t0
        result = json.loads((Path(cfg_dir) / name / "result.json").read_text())
        rows.append((name, code, result["c_estimate"],
                     result["verification"]["aggregate"], dt))
        worst = max(worst, code)
    if verbosity:
        print(f"{'case':10s} {'exit':4s} {'c_estimate':>12s} {'residual':>10s} {'sec':>6s}")
        for name, code, c, agg, dt in rows:
            print(f"{name:10s} {code:4d} {c:12.6f} {agg:10.2e} {dt:6.1f}")
    _write(Path(cfg_dir), "bench.json",
           json.dumps({"results": [
               {"case": r[0], "exit": r[1], "c_estimate": r[2],
                "residual": r[3]} for r in rows]}, sort_keys=True, indent=1),
           verbosity)
    return worst


def _apply_overrides(raw: dict, args) -> dict:
    if args.output is not None:
        raw["output_dir"] = args.output
    if args.seed is not None:
        raw.setdefault("solver", {})["seed"] = args.seed
    if args.modes is not None:
        raw["K"] = args.modes
    if args.grid is not None:
        raw.setdefault("solver", {})["grid"] = args.grid
    if args.period is not None:
        raw["T"] = args.period
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liporbit",
        description="periodic solutions of 0 in q'' + dV(q) by nonsmooth minimax")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="JSON run configuration")
        p.add_argument("-o", "--output", help="output directory override")
        p.add_argument("--seed", type=int, help="solver seed override")
        p.add_argument("--modes", type=int, help="Fourier mode count override (K)")
        p.add_argument("--grid", type=int, help="grid points per axis override")
        p.add_argument("--period", type=float, help="period T override")

    add_common(sub.add_parser("certify", help="sample the growth hypotheses"))
    add_common(sub.add_parser("calibrate", help="build and certify the geometry"))
    p_solve = sub.add_parser("solve", help="full pipeline to a verified orbit")
    add_common(p_solve)
    p_solve.add_argument("--force", action="store_true",
                         help="run even when the hypothesis certificates fail")
    p_verify = sub.add_parser("verify", help="check a stored trajectory")
    add_common(p_verify)
    p_verify.add_argument("trajectory", help="trajectory JSON file")
    p_bench = sub.add_parser("bench", help="run the built-in zoo benchmarks")
    p_bench.add_argument("-o", "--output", default="bench_out")

    args = parser.parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args.output)

    try:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ConfigError(str(args.config), "top level must be an object")
        cfg = RunConfig.from_dict(_apply_overrides(raw, args))
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as err:
        print(f"bad config: {err}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "calibrate":
            return cmd_calibrate(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, force=args.force)
        if args.command == "verify":
            return cmd_verify(cfg, args.trajectory)
    except ConfigError as err:
        print(f"bad config: {err}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
