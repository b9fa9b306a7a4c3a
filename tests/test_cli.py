import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from liporbit import cli
from liporbit.trajectory import PeriodicTrajectory

MAXPAIR_K32 = {
    "potential": {"type": "maxpair"}, "T": 2.0, "n": 2, "K": 32,
    "mode": "superquadratic",
    "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
}


def test_solve_artifacts_are_byte_reproducible(tmp_path):
    # K = 32 goes through the coarse level at K0 = 16.
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli.cmd_solve(cli.RunConfig.from_dict(
            dict(MAXPAIR_K32, output_dir=str(out), verbosity=0)))
        assert code == cli.EXIT_OK
        outs.append(out)
    for name in ("certificates.json", "geometry.json", "result.json",
                 "trajectory.json", "trajectory.csv", "cerami.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert json.loads((outs[0] / "result.json").read_text())["diagnostics"]["coarse_K"] == 16


def test_run_meta_records_the_blas_thread_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert cli.cmd_solve(quartic_config(2 * math.pi, 16, tmp_path)) == cli.EXIT_OK
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["blas_threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2",
                                    "MKL_NUM_THREADS": None}


def test_threads_is_not_a_solver_key(tmp_path):
    raw = dict(MAXPAIR_K32, solver={"threads": 2})
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw).solver_config()
    assert err.value.key == "solver"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    with pytest.raises(SystemExit) as exit_:
        cli.main(["solve", str(path), "--threads", "2"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("key, value", [("init_step", 1.0), ("max_restarts", 3),
                                        ("probe_every", 5), ("max_iters", 0),
                                        ("max_polishes", 0), ("eta", 123), ("sigma", -5),
                                        ("max_halvings", -3), ("tol_conv", float("nan")),
                                        ("tol_conv", 0.0), ("seed", 1.5), ("seed", "3"),
                                        ("seed", -1), ("seed", True), ("grid", 4.5),
                                        ("max_iters", 50.5), ("grid", True)])
def test_removed_or_invalid_solver_key_exits_2(tmp_path, key, value):
    raw = dict(MAXPAIR_K32, solver={key: value})
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw).solver_config()
    assert err.value.key == "solver"
    assert key in str(err.value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert not (tmp_path / "out").exists()      # nothing written before the exit


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--grid", "9"]], ids=["seed", "grid"])
@pytest.mark.parametrize("solver", [5, None, []], ids=["5", "null", "list"])
def test_solver_override_on_a_solver_that_is_not_an_object_exits_2(tmp_path, capsys,
                                                                   solver, flag):
    # --seed and --grid write into "solver"; one that is not an object gets
    # the message of the run without the flag, not a TypeError.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(MAXPAIR_K32, solver=solver)))
    out = ["-o", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(["solve", str(path)] + out) == cli.EXIT_INPUT
    plain = capsys.readouterr().err
    assert plain == f"bad config: config key 'solver': must be an object, got {solver!r}\n"
    assert cli.main(["solve", str(path)] + out + flag) == cli.EXIT_INPUT
    assert capsys.readouterr().err == plain
    assert not (tmp_path / "out").exists()


def test_force_overrides_only_the_hypothesis_certificates(tmp_path, capsys):
    # radius = 10 fails a hypothesis certificate and, under --force, the
    # linking certificate, which no flag overrides: both paths exit 1.
    raw = {"potential": {"type": "quartic"}, "T": 6.0, "n": 1, "K": 32,
           "hypotheses": {"radius": 10.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    for flags, message in (([], "hypothesis certificates failed (use --force"),
                           (["--force"], "linking certificate failed\n")):
        out = tmp_path / f"out{len(flags)}"
        capsys.readouterr()
        assert cli.main(["solve", str(path), "-o", str(out)] + flags) == cli.EXIT_NEGATIVE
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "result.json").exists()
    assert (out / "geometry.json").exists()
    assert json.loads((out / "geometry.json").read_text())["pass"] is False


@pytest.mark.parametrize("raw", [
    {"potential": {"type": "subq32"}, "T": 1.0, "n": 2, "K": 64, "mode": "saddle",
     "hypotheses": {"a": -1}, "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 2000}},
    {"potential": {"type": "quartic"}, "T": 6.0, "n": 1, "K": 32, "hypotheses": {"A": 0.05}},
], ids=["subq32-a<0", "quartic-A=0.05"])
def test_forced_run_with_a_sample_below_the_analytic_bound_exits_1(tmp_path, capsys, raw):
    # Under --force the geometry is calibrated from constants that do not
    # hold: a sample of f (the zero loop in saddle mode, a sphere loop in
    # superquadratic mode) sits below alpha_bound, and the certificate fails.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(out), "--force"]) == cli.EXIT_NEGATIVE
    assert capsys.readouterr().err.startswith("linking certificate failed\n")
    geom = json.loads((out / "geometry.json").read_text())
    assert geom["pass"] is False and geom["alpha_sampled"] < geom["alpha_bound"]
    assert not (out / "result.json").exists()


def quartic_level(T):
    # c(T) = (4 sqrt(2) L)^4 / (12 T^3), L = Gamma(1/4) Gamma(1/2) / (4 Gamma(3/4)):
    # the level of the T-periodic orbit of q'' + 4 q^3 = 0 with its minimal period.
    L = math.gamma(0.25) * math.gamma(0.5) / (4.0 * math.gamma(0.75))
    return (4.0 * math.sqrt(2.0) * L) ** 4 / (12.0 * T ** 3)


def quartic_config(T, K, tmp_path, **extra):
    return cli.RunConfig.from_dict(dict(
        {"potential": {"type": "quartic"}, "T": T, "n": 1, "K": K,
         "mode": "superquadratic", "solver": dict(MAXPAIR_K32["solver"]),
         "output_dir": str(tmp_path), "verbosity": 0}, **extra))


@pytest.mark.parametrize("T, K", [(4.5, 32), (8.0, 32), (8.5, 64)], ids=["4.5", "8.0", "8.5"])
def test_quartic_solve_reaches_closed_form_level(tmp_path, T, K):
    # T = 4.5: a probe of the deformed surface seeded q = 0; T = 8.0: the
    # sampled sphere level lies above c(T), so gating on it rejected c(T);
    # T = 8.5: the polishes of the probe point fell to q = 0 under LM.
    assert cli.cmd_solve(quartic_config(T, K, tmp_path)) == cli.EXIT_OK
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["converged"] is True
    assert abs(result["c_estimate"] - quartic_level(T)) <= 1e-8 * quartic_level(T)


@pytest.mark.parametrize("n, K", [(1, 128), (2, 64)], ids=["n1-K128", "n2-K64"])
def test_quartic_at_T_8_5_reports_the_brake_orbit(tmp_path, n, K):
    # The coarse polish is deflated off the constant loops.  n = 1, K = 128
    # (K0 = 32): every seed used to fall below alpha_bound and the run
    # exited 1.  n = 2: the probe point reaches the brake orbit's level
    # c(T), where the uniform circle (c = 0.6344577) used to be reported.
    assert cli.cmd_solve(quartic_config(8.5, K, tmp_path, n=n)) == cli.EXIT_OK
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["converged"] is True
    assert abs(result["c_estimate"] - quartic_level(8.5)) <= 1e-8 * quartic_level(8.5)


def test_a_singular_newton_system_exits_1_after_writing_the_result(tmp_path, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.solver, "_polish_steps", singular)
    assert cli.cmd_solve(quartic_config(2 * math.pi, 32, tmp_path)) == cli.EXIT_NEGATIVE
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["converged"] is False
    assert set(result["diagnostics"]["rejections"]) == {"measure"}


def test_converged_is_false_when_the_inclusion_gate_fails(tmp_path):
    # The polish reaches c(2 pi) with aggregate ~1e-8, above this verify_tol.
    code = cli.cmd_solve(quartic_config(2 * math.pi, 64, tmp_path, verify_tol=1e-12))
    assert code == cli.EXIT_NEGATIVE
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["converged"] is False
    assert result["verification"]["aggregate"] >= 1e-12


def test_maxpair_solve_reaches_circular_orbit_level(tmp_path):
    # For T <= pi / sqrt(2) the circle |x| = w / (2 sqrt 2), w = 2 pi / T,
    # on the outer piece solves the inclusion, at level T (w^4 / 32 + 1).
    T = MAXPAIR_K32["T"]
    w = 2.0 * math.pi / T
    code = cli.cmd_solve(cli.RunConfig.from_dict(
        dict(MAXPAIR_K32, output_dir=str(tmp_path), verbosity=0)))
    assert code == cli.EXIT_OK
    c = json.loads((tmp_path / "result.json").read_text())["c_estimate"]
    assert abs(c - T * (w ** 4 / 32.0 + 1.0)) <= 1e-8 * T * (w ** 4 / 32.0 + 1.0)


@pytest.mark.parametrize("key, value", [
    ("T", "abc"), ("T", float("nan")), ("T", 0.0), ("n", "1"), ("K", 2.5),
    ("n", True), ("hypotheses", [1]), ("potential", "quartic"),
    ("solver", None), ("sampler", 3), ("verify_tol", float("inf")),
    ("verify_tol", -1e-4),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    raw = dict(MAXPAIR_K32, **{key: value})
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw)
    assert err.value.key == key
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["x", None, 1.5, True])
def test_bad_potential_dim_exits_2_before_any_write(tmp_path, capsys, dim):
    # "x" and null used to crash with a traceback and exit 1; 1.5 and true
    # were truncated to 1 and solved with exit 0.
    raw = {"potential": {"type": "quartic", "dim": dim}, "T": 6.0, "n": 1, "K": 32,
           "mode": "superquadratic"}
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw).build_model()
    assert err.value.key == "potential.dim"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "config key 'potential.dim'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, named", [
    ("hypotheses", "mu1", "4", "hypotheses.mu1"),
    ("hypotheses", "A", "x", "hypotheses.A"),
    ("hypotheses", "A", 0.0, "hypotheses.A"),
    ("hypotheses", "radius", 0.0, "hypotheses.radius"),
    ("hypotheses", "a1", float("nan"), "hypotheses.a1"),
    ("hypotheses", "a1", -1, "hypotheses.a1"),
    ("hypotheses", "a1", 0.0, "hypotheses.a1"),
    ("hypotheses", "a2", True, "hypotheses.a2"),
    ("sampler", "count", 0, "sampler"),
    ("sampler", "r_max", -1, "sampler"),
    ("sampler", "r_min", float("inf"), "sampler"),
    ("sampler", "seed", -1, "sampler"),
    ("sampler", "seed", 1.5, "sampler"),
    ("sampler", "seed", True, "sampler"),
    ("sampler", "count", True, "sampler"),
    ("sampler", "r_min", True, "sampler"),
    ("sampler", "r_max", True, "sampler"),
])
def test_bad_hypothesis_or_sampler_value_exits_2(tmp_path, capsys, section, key, value,
                                                 named):
    # These used to crash with a traceback and exit 1, the certified-negative
    # code; a sampler seed of true used to run silently as seed 1, a count
    # of true certified from one sample and an r_max of true sampled [0, 1].
    raw = {"potential": {"type": "quartic"}, "T": 6.0, "n": 1, "K": 32,
           "mode": "superquadratic", section: {key: value}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"config key {named!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("verbosity", "loud"), ("verbosity", True), ("verbosity", -1), ("verbosity", 1.5),
    ("verbosity", None), ("output_dir", 5), ("output_dir", ""), ("output_dir", None),
    ("output_dir", ["out"]),
])
def test_bad_verbosity_or_output_dir_exits_2_before_any_write(tmp_path, capsys,
                                                             monkeypatch, key, value):
    # A verbosity of "loud" used to exit 1 with a traceback after writing
    # certificates.json, an output_dir of 5 exited 1 with a traceback, and a
    # verbosity of true or -1 was accepted.
    monkeypatch.chdir(tmp_path)
    raw = dict(MAXPAIR_K32, **{key: value})
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw)
    assert err.value.key == key
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path)]) == cli.EXIT_INPUT
    assert f"config key {key!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("potential, named", [
    ({"type": "subq32cos", "amp": True}, "amp"),
    ({"type": "subq32cos", "amp": "0.3"}, "amp"),
    ({"type": "subq32cos", "amp": float("nan")}, "amp"),
    ({"type": "subq32cos", "amp": float("inf")}, "amp"),
    ({"type": "subq32cos", "amp": None}, "amp"),
    ({"type": "maxpoly", "pieces": [[0, 0, float("nan")]]}, "pieces"),
    ({"type": "maxpoly", "pieces": [[0, 0, 1], []]}, "pieces"),
    ({"type": "maxpoly", "pieces": []}, "pieces"),
    ({"type": "maxpoly", "pieces": [[0, True, 1]]}, "pieces"),
    ({"type": "maxpoly", "pieces": [[0, "1", 1]]}, "pieces"),
    ({"type": "maxpoly", "pieces": [1.0]}, "pieces"),
    ({"type": "maxpoly", "pieces": "[[0, 1]]"}, "pieces"),
    ({"type": "maxpoly"}, "pieces"),
    ({"type": "quartic", "amp": 5, "pieces": 3}, "amp"),
    ({"type": "maxpair", "ampl": 0.1}, "ampl"),
    ({"type": "maxpoly", "pieces": [[0, 0, 1]], "amp": 0.3}, "amp"),
    ({"type": "subq32", "amp": 0.3}, "amp"),
], ids=["amp-true", "amp-str", "amp-nan", "amp-inf", "amp-null", "pieces-nan",
        "pieces-empty-piece", "pieces-empty", "pieces-bool", "pieces-str-coeff",
        "pieces-flat", "pieces-str", "pieces-missing", "quartic-amp-pieces",
        "maxpair-ampl", "maxpoly-amp", "subq32-amp"])
def test_bad_amp_or_pieces_exits_2_before_any_write(tmp_path, capsys, potential, named):
    # An amp of true or "0.3" used to be read as a number, a non-finite amp
    # or coefficient gave NaN certificates with exit 1, and an empty piece
    # exited 1 with a traceback from np.stack.  A key the type does not
    # read (an amp on quartic, a misspelt ampl) used to be dropped.
    raw = {"potential": potential, "T": 1.0, "n": 1, "K": 16, "mode": "saddle",
           "hypotheses": {"mu1": 1.5, "A": 1.0}}
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw).build_model()
    assert err.value.key == "potential"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["certify", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    message = capsys.readouterr().err
    assert "config key 'potential'" in message and named in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("potential_type", [["quartic"], {"a": 1}, 3, None],
                         ids=["list", "object", "number", "null"])
def test_non_string_potential_type_exits_2_before_any_write(tmp_path, capsys, potential_type):
    # A list or object type used to exit 1 with "unhashable type" from the
    # zoo-constant lookup in from_dict.
    raw = {"potential": {"type": potential_type}, "T": 6.0, "n": 1, "K": 16}
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw)
    assert err.value.key == "potential.type"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["certify", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "config key 'potential.type'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
def test_verify_of_a_bad_period_exits_2_before_any_write(tmp_path, capsys, T):
    # A period of NaN used to exit 1 with a traceback, and one of Infinity
    # was verified to aggregate = inf and exit 1 as a certified negative.
    traj = tmp_path / "trajectory.json"
    traj.write_text(json.dumps(dict(PeriodicTrajectory.zero(1.0, 1, 4).to_dict(), T=T)))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"potential": {"type": "quartic"}, "T": 6.0, "n": 1,
                                "K": 4, "mode": "superquadratic"}))
    capsys.readouterr()
    assert cli.main(["verify", str(path), str(traj), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_INPUT
    assert "cannot parse trajectory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config_T, flags, key", [
    (6.0, ["--period", "3.0"], "T"), (3.0, [], "T"),
    (6.0, ["--modes", "8"], "K"), (6.0, ["--modes", "32"], "K"),
], ids=["period-flag", "config-T", "fewer-modes", "more-modes"])
def test_verify_of_another_period_or_mode_count_exits_2_before_any_write(
        tmp_path, capsys, config_T, flags, key):
    # verify used to check the loop at its own T and K, whatever the config
    # and --period / --modes said, and exit 0 on a loop of another period.
    traj = tmp_path / "trajectory.json"
    traj.write_text(PeriodicTrajectory.zero(6.0, 1, 16).to_json())
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"potential": {"type": "quartic"}, "T": config_T, "n": 1,
                                "K": 16, "mode": "superquadratic"}))
    capsys.readouterr()
    assert cli.main(["verify", str(path), str(traj), "-o", str(tmp_path / "out"), *flags]) \
        == cli.EXIT_INPUT
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verification_keys_of_solve_and_verify_are_fixed(tmp_path):
    # perfbench reads aggregate and nonconstant; removing a key is a
    # deliberate change to this set.
    keys = {"aggregate", "max_distance", "nonconstant", "periodicity", "n_nodes"}
    assert cli.cmd_solve(quartic_config(2 * math.pi, 16, tmp_path / "solve")) == cli.EXIT_OK
    result = json.loads((tmp_path / "solve" / "result.json").read_text())
    assert set(result["verification"]) == keys
    cfg = quartic_config(2 * math.pi, 16, tmp_path / "verify")
    assert cli.cmd_verify(cfg, str(tmp_path / "solve" / "trajectory.json")) == cli.EXIT_OK
    assert set(json.loads((tmp_path / "verify" / "verification.json").read_text())) == keys
    assert json.loads((tmp_path / "verify" / "verification.json").read_text())["aggregate"] \
        == result["verification"]["aggregate"]


def test_potential_dim_above_the_sampler_table_exits_2(tmp_path, capsys):
    raw = {"potential": {"type": "quartic"}, "T": 6.0, "n": 21, "K": 16,
           "mode": "superquadratic"}
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig.from_dict(raw).build_model()
    assert err.value.key == "potential.dim"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "config key 'potential.dim'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, potential, key", [
    ("superquadratic", "quartic", "a_1"), ("superquadratic", "quartic", "Radius"),
    ("saddle", "subq32", "radius"),
])
def test_unknown_hypothesis_key_exits_2(tmp_path, capsys, mode, potential, key):
    # A misspelt or other-mode key used to be ignored in favour of the zoo default.
    raw = {"potential": {"type": potential}, "T": 1.0, "n": 1, "K": 16, "mode": mode,
           "hypotheses": {key: 0.5}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"config key 'hypotheses.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "calibrate", "solve"])
def test_missing_required_hypothesis_exits_2(tmp_path, capsys, command):
    # maxpoly has no zoo constants, so mu1, a1 and A must come from the config.
    raw = {"potential": {"type": "maxpoly", "pieces": [[0.0, 0.0, 1.0]]}, "T": 2.0,
           "n": 1, "K": 16, "hypotheses": {"mu1": 4.0, "a1": 1.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main([command, str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert "config key 'hypotheses.A'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


IMPORT_AND_FAULTS = """
import json, resource, sys
import liporbit.cli as cli
raw = {"potential": {"type": "maxpair"}, "T": 1.5, "n": 2, "K": 64, "verbosity": 0,
       "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
       "output_dir": sys.argv[1]}
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = cli.cmd_solve(cli.RunConfig.from_dict(dict(raw)))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"scipy_stats": "scipy.stats" in sys.modules, "code": code,
                  "faults": faults}))
"""


def _fresh_process(script, tmp_path):
    """The JSON last line of script run in a new interpreter on this src/."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_skips_scipy_stats_and_solves_without_page_faults(tmp_path):
    # A fresh process: scipy.stats must not load, and once the allocator
    # holds its temporaries a repeated kink solve faults in almost no pages
    # (about 0; about 4500 without the package's allocator warm-up).
    out = _fresh_process(IMPORT_AND_FAULTS, tmp_path)
    assert out["scipy_stats"] is False
    assert out["code"] == cli.EXIT_OK
    if platform.libc_ver()[0] == "glibc":
        assert out["faults"][1] < 1000, out["faults"]


NO_SCIPY = """
import json, sys
import numpy as np
import liporbit.cli as cli
from liporbit.potentials import make_quartic
from liporbit.verification import shooting_oracle
raw = {"potential": {"type": "quartic"}, "T": 6.0, "n": 1, "K": 32, "verbosity": 0,
       "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
       "output_dir": sys.argv[1]}
code = cli.cmd_solve(cli.RunConfig.from_dict(raw))
shot = shooting_oracle(make_quartic(1), 2 * np.pi, [1.18, 0.0], K=16)
print(json.dumps({"scipy": [m for m in sys.modules if m.startswith("scipy")], "code": code,
                  "closure": shot.closure_residual}))
"""


def test_a_solve_and_a_shooting_run_load_no_scipy(tmp_path):
    # A fresh process: the package, a solve with its certificates and the
    # shooting oracle's flows run on numpy alone.
    out = _fresh_process(NO_SCIPY, tmp_path)
    assert out["scipy"] == []
    assert out["code"] == cli.EXIT_OK
    assert out["closure"] < 1e-9


def test_bench_reports_a_case_that_wrote_no_result_with_null_values(tmp_path, monkeypatch,
                                                                     capsys):
    # quartic at T = 9.5 is past the calibration threshold: cmd_solve exits
    # 3 before writing result.json.  An earlier run's result.json in the
    # case directory is not reported as this run's.
    monkeypatch.setattr(cli, "BENCH_CONFIGS",
                        {"quartic": dict(cli.BENCH_CONFIGS["quartic"], T=9.5)})
    case = tmp_path / "quartic"
    case.mkdir()
    (case / "result.json").write_text(json.dumps(
        {"c_estimate": 1.0163, "verification": {"aggregate": 7.3e-9}}))
    assert cli.cmd_bench(str(tmp_path)) == cli.EXIT_INFEASIBLE
    assert json.loads((tmp_path / "bench.json").read_text())["results"] == [
        {"case": "quartic", "exit": cli.EXIT_INFEASIBLE, "c_estimate": None, "residual": None}]
    assert not (case / "result.json").exists()
    assert capsys.readouterr().out.splitlines()[1].split()[:4] == ["quartic", "3", "-", "-"]
