"""Tests of the benchmark's own code: inputs, checks, tracing, entry point.

    python3 -m pytest -q perfbench
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import env  # noqa: E402

env.prepare()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SEEDS = range(12)


# -- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_seed_and_block(name):
    wl = WORKLOADS[name]
    for seed in SEEDS:
        assert wl.inputs(seed, 0) == wl.inputs(seed, 0)
        assert wl.inputs(seed, 0) != wl.inputs(seed, 1)
    assert wl.inputs(0, 0) != wl.inputs(1, 0)


@pytest.mark.parametrize("name", ["smooth-sweep", "kink-sweep"])
def test_grid_workloads_solve_the_whole_grid_in_a_seeded_order(name):
    wl = WORKLOADS[name]
    grid = sorted(wl.GRID)
    orders = set()
    for seed in SEEDS:
        inputs = wl.inputs(seed, 0)
        points = [(i["T"], i["K"]) if "K" in i else i["T"] for i in inputs]
        assert sorted(points) == grid
        assert len({i["sampler_seed"] for i in inputs}) == len(inputs)
        orders.add(tuple(points))
    assert len(orders) > 1


def test_grids_keep_passing_and_failing_inputs():
    smooth = WORKLOADS["smooth-sweep"].GRID
    assert {K for _, K in smooth} == {32, 64, 128}
    Ts = [T for T, _ in smooth]
    assert min(Ts) == 3.5 and max(Ts) == 8.5 and 4.5 in Ts
    kink = WORKLOADS["kink-sweep"].GRID
    assert min(kink) == 1.5 and max(kink) == 2.4 and 2.25 in kink


def test_saddle_offcenter_blocks_cover_every_stratum():
    wl = WORKLOADS["saddle-offcenter"]
    for seed in SEEDS:
        inputs = wl.inputs(seed, 0)
        wells = [(i["eps2"], tuple(np.sign(i["p"]))) for i in inputs if i["eps2"] > 0]
        assert len(wells) == 16 and len(set(wells)) == 8
        assert sum(i["eps2"] == 0.0 for i in inputs) == 1
        for i in inputs:
            p = np.abs(i["p"])
            assert np.all((p >= 0.1) & (p <= 0.4))
            # off the surface grid, whose coordinates are multiples of 0.5
            assert np.all(np.abs(p / 0.5 - np.round(p / 0.5)) * 0.5 >= 0.1)


# -- references and checks ----------------------------------------------


def test_references_match_recorded_bench_levels():
    assert checks.quartic_c(2 * math.pi) == pytest.approx(1.016314, abs=1e-6)
    assert checks.maxpair_c(2.0) == pytest.approx(8.088068, abs=1e-6)
    T = 4.0
    assert checks.quartic_c(T) * T ** 3 == pytest.approx(checks.quartic_c(7.0) * 7.0 ** 3)
    # the kink branch meets the outer branch where the circle reaches |x| = 1
    T_join = math.pi / math.sqrt(2.0)
    assert checks.maxpair_c(T_join * (1 - 1e-12)) == pytest.approx(checks.maxpair_c(T_join))


def test_smooth_checks_accept_a_solve_and_reject_a_scaled_candidate(tmp_path):
    from liporbit.verification import shooting_oracle

    wl = WORKLOADS["smooth-sweep"]
    wl.setup()
    T, K = 5.0, 32
    outcome = wl.solve({"T": T, "K": K, "sampler_seed": 3}, tmp_path)
    assert outcome.passed, outcome.checks

    from workloads import _read_answer
    result, traj = _read_answer(tmp_path)
    scaled = traj * 1.01
    start = np.concatenate([traj.evaluate(0.0), traj.derivative().evaluate(0.0)])
    shot = shooting_oracle(wl.model, T, start, K=K).trajectory
    found, _, _ = checks.check_smooth(T, 0, result, scaled, shot)
    for name in ("c_matches_result", "c_reference", "residual", "shooting_agrees",
                 "exit_matches_verdict"):
        assert not found[name], name
    found, _, _ = checks.check_smooth(T, 1, result, traj, shot)
    assert not found["exit_matches_verdict"]


def _circle(T: float, r: float, K: int = 64):
    from liporbit.trajectory import PeriodicTrajectory

    a = np.zeros((K, 2))
    b = np.zeros((K, 2))
    a[0, 0] = b[0, 1] = r
    return PeriodicTrajectory(T, np.zeros(2), a, b)


def _reported(traj, model, c):
    from liporbit.verification import inclusion_residual

    report = inclusion_residual(traj, model)
    return {"converged": True, "c_estimate": c,
            "verification": {"aggregate": report.aggregate,
                             "nonconstant": report.nonconstant}}


@pytest.mark.parametrize("T", [1.7, 2.3])
def test_kink_checks_accept_the_circle_and_reject_a_scaled_candidate(T):
    wl = WORKLOADS["kink-sweep"]
    wl.setup()
    w = 2 * math.pi / T
    r = w / (2 * math.sqrt(2)) if T <= math.pi / math.sqrt(2) else 1.0
    circle = _circle(T, r)
    result = _reported(circle, wl.model, checks.maxpair_c(T))
    found, c_err, residual = checks.check_kink(T, 0, result, circle, wl.model)
    assert all(found.values()), found
    assert c_err < 1e-12 and residual < 1e-9

    found, _, _ = checks.check_kink(T, 0, result, circle * 1.01, wl.model)
    for name in ("c_matches_result", "residual_matches_result", "c_reference",
                 "residual", "exit_matches_verdict"):
        assert not found[name], name
    found, _, _ = checks.check_kink(T, 1, result, circle, wl.model)
    assert not found["exit_matches_verdict"]


def test_saddle_checks_accept_the_well_centre_and_reject_a_scaled_candidate():
    from liporbit.trajectory import PeriodicTrajectory

    p = np.array([0.12, -0.1])
    _, value, grad = WORKLOADS["saddle-offcenter"].well(p, 0.1)
    centre = PeriodicTrajectory.constant(1.0, p, K=16)
    found, _, _ = checks.check_saddle(p, 0.0, centre, value, grad)
    assert all(found.values()), found
    found, _, _ = checks.check_saddle(p, 0.0, centre * 1.01, value, grad)
    assert not any(found.values()), found


def test_outcome_separates_failures_from_wrong_answers():
    ok = {"exit_matches_verdict": True, "c_reference": True}
    bad_level = {"exit_matches_verdict": True, "c_reference": False}
    lied = {"exit_matches_verdict": False, "c_reference": False}
    assert Outcome(0, 1.0, ok, 0.0, 0.0).passed
    assert Outcome(0, 1.0, bad_level, 0.0, 0.0).wrong
    honest_failure = Outcome(1, 1.0, bad_level, 0.0, 0.0)
    assert not honest_failure.passed and not honest_failure.wrong
    assert Outcome(1, 1.0, lied, 0.0, 0.0).wrong


def test_timed_samples_the_host_and_excludes_the_kernel_from_wall():
    import time

    import speed

    t0 = time.perf_counter()
    with speed.Timed() as timed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    assert len(timed.samples) >= 5
    assert timed.wall == pytest.approx(elapsed - sum(timed.samples), abs=2e-3)
    assert timed.seconds == pytest.approx(timed.wall * speed.speed_factor(timed.samples))


# -- tracing ----------------------------------------------------------------


def test_tracer_wraps_names_where_they_are_imported_and_restores_them():
    from liporbit import action, solver, verification

    originals = (action.action_value, solver.action_value, verification.project_hull)
    with Tracer().installed():
        assert solver.action_value is not originals[1]
        assert verification.project_hull is not originals[2]
    assert (action.action_value, solver.action_value, verification.project_hull) == originals


def test_tracer_records_nested_spans_and_counts():
    from liporbit import verification
    from liporbit.potentials import make_maxpair

    tracer = Tracer()
    model = tracer.count_points(make_maxpair(2))
    tracer.solve_id = 7
    with tracer.installed():
        # every node of the unit circle sits on the kink, so verification
        # projects onto a two-vertex hull through its imported name
        verification.inclusion_residual(_circle(2.5, 1.0), model)
    totals = tracer.totals()
    nodes = 4 * 64 + 4
    assert totals["action.project_hull"]["calls"] == nodes
    outer = totals["verification.inclusion_residual"]
    assert outer["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - totals["action.project_hull"]["s"])
    parents = set(np.frombuffer(tracer.parent, dtype=np.int_)[1:])
    assert parents == {0}
    assert set(np.frombuffer(tracer.solve, dtype=np.int_)) == {7}
    assert tracer.counter_totals()["potentials.points_evaluated"] > nodes


def test_tracer_self_time_subtracts_only_direct_children():
    tracer = Tracer()
    tracer.names = ["run", "step", "leaf"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 2.0, 3.0), (1, 0, 5.0, 6.0)]
    for nid, parent, start, end in spans:
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.solve.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    totals = tracer.totals()
    assert totals["run"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals["step"] == {"calls": 2.0, "s": 4.0, "self_s": pytest.approx(3.0)}
    assert totals["leaf"]["self_s"] == pytest.approx(1.0)


# -- entry point --------------------------------------------------------------


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kink-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_run_reports():
    import json

    import run

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    details = {"iterations": 1, "rejected_candidates": 0, "ridge_polish": True,
               "artifact_bytes": 0}
    timed = SimpleNamespace(seconds=1.0, wall=1.0)
    solve = Outcome(0, timed, {}, 0.0, 0.0, details=details)
    rows = run.per_layer(Tracer(), [solve], [solve])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in rows.items()}
