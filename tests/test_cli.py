import json
import math

import numpy as np
import pytest

from liporbit import cli

MAXPAIR_K32 = {
    "potential": {"type": "maxpair"}, "T": 2.0, "n": 2, "K": 32,
    "mode": "superquadratic",
    "solver": {"grid": 9, "tol_conv": 1e-5, "max_iters": 4000, "seed": 0},
}


def test_solve_artifacts_are_byte_reproducible(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli.cmd_solve(cli.RunConfig.from_dict(
            dict(MAXPAIR_K32, output_dir=str(out), verbosity=0)))
        assert code == cli.EXIT_OK
        outs.append(out)
    for name in ("result.json", "trajectory.json", "cerami.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
                                        ("seed", -1), ("seed", True)])
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


def test_a_singular_newton_system_exits_1_after_writing_the_result(tmp_path, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli.solver, "_polish_step", singular)
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
])
def test_bad_hypothesis_or_sampler_value_exits_2(tmp_path, capsys, section, key, value,
                                                 named):
    # These used to crash with a traceback and exit 1, the certified-negative code.
    raw = {"potential": {"type": "quartic"}, "T": 6.0, "n": 1, "K": 32,
           "mode": "superquadratic", section: {key: value}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli.main(["solve", str(path), "-o", str(tmp_path / "out")]) == cli.EXIT_INPUT
    assert f"config key {named!r}" in capsys.readouterr().err
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
