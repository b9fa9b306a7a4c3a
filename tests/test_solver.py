import itertools
from dataclasses import replace

import numpy as np
import pytest

from liporbit.action import (
    action_value,
    action_values,
    min_norm_residuals,
    min_norm_subgradient,
    residual_jacobians,
)
from liporbit.linking import (
    LinkingGeometry,
    calibrate_saddle,
    calibrate_superquadratic,
    certify_linking,
    unit_direction,
)
from liporbit.potentials import make_maxpair, make_maxpoly, make_quartic, make_subq32
from liporbit.solver import (
    SCREEN_TOL,
    GeometryNotCertified,
    SolverConfig,
    StallError,
    Surface,
    _grid_points,
    _polish_candidates,
    _polish_steps,
    _screen,
    _seed_variants,
    deform_step,
    init_surface,
    ridge_probe,
    run_minimax,
    run_saddle,
)
from liporbit.newton import newton_steps
from liporbit.trajectory import PeriodicTrajectory, h1_norm, l2_norm, random_trajectory
from liporbit.verification import inclusion_residual

TWO_PI = 2.0 * np.pi
QUARTIC_CERTS = {"A": 0.25, "radius": 1.0, "a1": 0.25, "a2": 0.0, "mu1": 4.0}
MAXPAIR_CERTS = {"A": 1.0, "radius": 1.0, "a1": 1.0, "a2": -1.0, "mu1": 4.0}


def maxpair_geometry(T):
    M = make_maxpair(2)
    geom = calibrate_superquadratic(M, MAXPAIR_CERTS, T)
    return M, certify_linking(geom, M, T, n_samples=100, K=32, seed=0)


@pytest.fixture(scope="module")
def quartic_setup():
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    geom = certify_linking(geom, V, TWO_PI, n_samples=150, K=32, seed=0)
    return V, geom


@pytest.fixture(scope="module")
def saddle_setup():
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=16, seed=0)
    return V, geom


# -- surface construction -------------------------------------------------


def test_init_surface_identity_embedding(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=16, grid=5)
    surf = init_surface(geom, V, cfg)
    assert surf.shape == (5, 5)
    # node (x1 = 0, s = 0) is the zero loop
    mid = 2  # center of the x1 axis
    flat = int(np.ravel_multi_index((mid, 0), surf.shape))
    assert l2_norm(surf.node(flat)) == 0.0
    assert np.all(surf.node(flat).a0 == 0.0)
    # node (0, r2) is r2 * e
    top = int(np.ravel_multi_index((mid, 4), surf.shape))
    e = geom.e.pad_modes(16)
    expect = geom.r2 * e
    assert np.allclose(surf.node(top).b, expect.b)
    # interior nodes interpolate linearly in (x1, s)
    j = int(np.ravel_multi_index((3, 2), surf.shape))
    x1 = np.linspace(-geom.r1, geom.r1, 5)[3]
    s = np.linspace(0, geom.r2, 5)[2]
    manual = PeriodicTrajectory.constant(TWO_PI, [x1], K=16) + s * e
    assert np.allclose(surf.node(j).a0, manual.a0)
    assert np.allclose(surf.node(j).b, manual.b)


def test_init_surface_pins_all_faces(quartic_setup):
    V, geom = quartic_setup
    surf = init_surface(geom, V, SolverConfig(K=8, grid=4))
    pinned = surf.pinned.reshape(surf.shape)
    assert pinned[0, :].all() and pinned[-1, :].all()
    assert pinned[:, 0].all() and pinned[:, -1].all()
    assert not pinned[1:-1, 1:-1].any()


def test_init_surface_resolution_guard():
    with pytest.raises(ValueError, match="grid"):
        SolverConfig(grid=2)


@pytest.mark.parametrize("key, value", [
    ("tol_conv", 0.0), ("tol_conv", -1e-5), ("tol_conv", float("nan")),
    ("tol_conv", float("inf")), ("K", True), ("K", 0), ("K", 20.5),
    ("verify_tol", float("nan")), ("verify_tol", -1.0), ("verify_tol", 0.0),
    ("verify_tol", float("inf")),
])
def test_solver_config_rejects_bad_polish_count_and_tolerance(key, value):
    # A NaN tol_conv would pass every measure gate, an infinite verify_tol
    # every aggregate; K = True would run at K = 1.
    with pytest.raises(ValueError, match=key):
        SolverConfig(**{key: value})


def test_saddle_surface_constant_loops(saddle_setup):
    V, geom = saddle_setup
    surf = init_surface(geom, V, SolverConfig(mode="saddle", K=8, grid=5))
    assert surf.shape == (5, 5)
    for flat in range(surf.n_nodes):
        q = surf.node(flat)
        assert l2_norm(q.derivative()) == 0.0  # all constant loops
    corners = [0, 4, 20, 24]
    for c in corners:
        assert surf.pinned[c]


def test_saddle_surface_one_dimensional():
    V = make_subq32(1)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=8, seed=0)
    surf = init_surface(geom, V, SolverConfig(mode="saddle", K=8, grid=5))
    assert surf.shape == (5,)
    assert surf.pinned[0] and surf.pinned[-1]
    assert not surf.pinned[1:-1].any()


def test_neighbors_von_neumann(quartic_setup):
    V, geom = quartic_setup
    surf = init_surface(geom, V, SolverConfig(K=8, grid=5))
    nbs = surf.neighbors(int(np.ravel_multi_index((2, 2), surf.shape)))
    expect = {np.ravel_multi_index(i, surf.shape)
              for i in [(1, 2), (3, 2), (2, 1), (2, 3)]}
    assert set(nbs) == expect


# -- deformation steps -----------------------------------------------------


def test_deform_step_noop_at_critical(saddle_setup):
    V, geom = saddle_setup
    surf = init_surface(geom, V, SolverConfig(mode="saddle", K=8, grid=5))
    # argmax over constant loops is the center (V minimal at 0), which is
    # an exact equilibrium: the step is a no-op with measure 0.
    surf2, rec = deform_step(surf, V, SolverConfig(mode="saddle", K=8, grid=5))
    assert rec.measure == 0.0
    assert surf2 is surf


def test_deform_step_decreases_peak(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=16, grid=9)
    surf = init_surface(geom, V, cfg)
    before = float(np.max(surf.f_values))
    surf2, rec = deform_step(surf, V, cfg)
    assert float(np.max(surf2.f_values)) < before


def test_deform_monotone_max_and_pinned_nodes_frozen(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=16, grid=7)
    surf = init_surface(geom, V, cfg)
    pinned_rows = surf.coeffs[surf.pinned].copy()
    prev_max = float(np.max(surf.f_values))
    for _ in range(40):
        try:
            surf, rec = deform_step(surf, V, cfg)
        except StallError:
            break
        cur = float(np.max(surf.f_values))
        assert cur <= prev_max + 1e-12
        prev_max = cur
        if rec.measure <= cfg.tol_conv:
            break
    assert np.array_equal(surf.coeffs[surf.pinned], pinned_rows)  # bitwise frozen


def test_ridge_probe_sees_between_node_crossing(quartic_setup):
    # The initial 9x9 node max sits below the mountain-pass level; the
    # interpolated column probe recovers a crossing above it.
    V, geom = quartic_setup
    surf = init_surface(geom, V, SolverConfig(K=32, grid=9))
    node_max = float(np.max(surf.f_values))
    hit = ridge_probe(geom, V, 32, 9, floor=geom.alpha_bound - 1e-6)
    assert hit is not None
    seed, val = hit
    assert val >= node_max - 1e-12
    assert val >= geom.alpha_bound - 1e-8
    assert np.isclose(action_value(seed, V), val, rtol=1e-12)


def rows(chain):
    return np.stack([q.coefficients() for q in chain])


def serial_polyline_max(chain, model, n_probe=7):
    """_polyline_max as a loop over segments and thetas."""
    thetas = np.arange(1, n_probe + 1) / (n_probe + 1)
    best = (-np.inf, 0, 0.0)
    for seg in range(len(chain) - 1):
        diff = chain[seg + 1] + -1.0 * chain[seg]
        for th in thetas:
            val = action_value(chain[seg] + float(th) * diff, model)
            if val > best[0]:
                best = (val, seg, float(th))
    return best


# -- full runs ---------------------------------------------------------------


def test_run_minimax_quartic_small(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=32, grid=9, tol_conv=1e-5, max_iters=3000, seed=0)
    res = run_minimax(V, geom, cfg)
    assert res.converged
    assert res.history[-1].measure <= cfg.tol_conv
    assert res.c_estimate >= geom.alpha_sampled - 1e-8
    assert res.verification.nonconstant
    assert res.verification.aggregate < 1e-5
    # the orbit level of the T = 2 pi quartic oscillator
    assert np.isclose(res.c_estimate, 1.016314, atol=1e-4)


def test_run_minimax_monotone_history_and_barrier(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=32, grid=9, tol_conv=1e-5, max_iters=3000, seed=0)
    res = run_minimax(V, geom, cfg)
    assert res.diagnostics["ridge_barrier_slack"] is None or \
        res.diagnostics["ridge_barrier_slack"] >= -1e-8
    assert res.diagnostics["max_h1norm"] < 1e6


def test_run_minimax_requires_certificate(quartic_setup):
    V, geom = quartic_setup
    uncertified = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    with pytest.raises(GeometryNotCertified):
        run_minimax(V, uncertified, SolverConfig(K=8))


def test_run_minimax_budget_exhaustion_returns_result(quartic_setup):
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=16, grid=9, max_iters=2, seed=0))
    assert not res.converged  # not an exception
    assert len(res.history) <= 2


def test_run_probes_once_and_never_deforms(quartic_setup, saddle_setup, monkeypatch):
    import liporbit.solver as solver

    def no_deform(*args, **kwargs):
        raise AssertionError("the run called deform_step")

    def no_surface(*args, **kwargs):
        raise AssertionError("the run built or read a grid surface")

    probes = []

    def counted_probe(*args, **kwargs):
        probes.append(1)
        return ridge_probe(*args, **kwargs)

    monkeypatch.setattr(solver, "deform_step", no_deform)
    monkeypatch.setattr(solver, "init_surface", no_surface)
    for name in ("node", "argmax_node", "with_updates"):
        monkeypatch.setattr(Surface, name, no_surface)
    monkeypatch.setattr(solver, "ridge_probe", counted_probe)
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=32, grid=9, max_iters=3000, seed=0))
    assert res.converged
    assert probes == [1]
    assert set(res.diagnostics) == {"seed", "coarse_K", "ridge_barrier_slack", "max_h1norm",
                                    "mode", "ridge_polish", "rejected_candidates",
                                    "rejections"}
    # Saddle mode seeds its one polish with the grid point of least V and
    # never probes.
    probes.clear()
    for V, geom, cfg in (offcenter_well(), (*saddle_setup, SolverConfig(
            mode="saddle", K=16, grid=9, tol_conv=1e-5, max_iters=500, seed=0))):
        res = run_saddle(V, geom, cfg)
        assert res.converged and probes == []
        assert res.diagnostics["ridge_barrier_slack"] is None


def test_coarse_level_polishes_at_a_quarter_of_K(quartic_setup, monkeypatch):
    # K = 64: the seeds are polished at K0 = 16, and the pass is decided by
    # a polish at K of the coarse loop padded to K.
    import liporbit.solver as solver

    seed_modes = []
    polish = solver._polish_candidates
    monkeypatch.setattr(solver, "_polish_candidates",
                        lambda q0s, *a, **kw: seed_modes.extend(q.K for q in q0s)
                        or polish(q0s, *a, **kw))
    V, geom = quartic_setup
    cfg = SolverConfig(K=64, grid=9, max_iters=3000, seed=0)
    res = run_minimax(V, geom, cfg)
    assert res.converged and res.diagnostics["coarse_K"] == 16
    assert res.history[0].trajectory.K == 16
    assert res.history[-1].trajectory.K == 64 and res.candidate.K == 64
    assert res.history[-1].measure <= cfg.tol_conv
    assert seed_modes == [16, 64]
    assert [r.index for r in res.history] == list(range(len(res.history)))


@pytest.mark.parametrize("K", [8, 16])
def test_coarse_level_is_the_run_for_K_at_most_16(quartic_setup, saddle_setup, K):
    V, geom = quartic_setup
    S, sgeom = saddle_setup
    for res in (run_minimax(V, geom, SolverConfig(K=K, grid=9, max_iters=3000, seed=0)),
                run_saddle(S, sgeom, SolverConfig(mode="saddle", K=K, grid=9,
                                                  max_iters=500, seed=0))):
        assert res.diagnostics["coarse_K"] == K
        assert {r.trajectory.K for r in res.history} == {K}
        assert res.candidate.K == K


def test_coarse_records_count_against_max_iters(quartic_setup):
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=32, grid=9, max_iters=3, seed=0))
    assert res.diagnostics["coarse_K"] == 16
    assert len(res.history) <= 3
    assert res.candidate.K == 32


def test_coarse_level_only_rejects(quartic_setup, monkeypatch):
    # A seed whose coarse polish ends above tol_conv is rejected on
    # "measure" without a polish at K; the reported loop is the probe
    # point padded to K.
    import liporbit.solver as solver

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    seed_modes = []
    polish = solver._polish_candidates
    monkeypatch.setattr(solver, "_polish_candidates",
                        lambda q0s, *a, **kw: seed_modes.extend(q.K for q in q0s)
                        or polish(q0s, *a, **kw))
    monkeypatch.setattr(solver, "_polish_steps", singular)
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=64, grid=9, max_iters=3000, seed=0))
    assert not res.converged
    assert seed_modes == [16] * 6
    assert res.diagnostics["rejections"] == ["measure"] * 6
    assert res.candidate.K == 64
    assert np.array_equal(res.candidate.coefficients(),
                          res.history[0].trajectory.pad_modes(64).coefficients())


def test_run_mode_guards(quartic_setup, saddle_setup):
    V, geom = quartic_setup
    S, sgeom = saddle_setup
    with pytest.raises(ValueError, match="saddle"):
        run_saddle(V, geom, SolverConfig())
    with pytest.raises(ValueError, match="superquadratic"):
        run_minimax(S, sgeom, SolverConfig(mode="saddle"))


@pytest.mark.parametrize("case", ["superquadratic", "saddle"])
def test_solver_config_mode_must_match_the_geometry(quartic_setup, saddle_setup, case):
    # SolverConfig.mode is a caller argument: a mismatch fails, it is not overridden.
    if case == "superquadratic":
        (V, geom), run, mode = quartic_setup, run_minimax, "saddle"
    else:
        (V, geom), run, mode = saddle_setup, run_saddle, "superquadratic"
    with pytest.raises(ValueError, match="mode"):
        run(V, geom, SolverConfig(mode=mode, K=8))


def test_run_saddle_subq32(saddle_setup):
    V, geom = saddle_setup
    cfg = SolverConfig(mode="saddle", K=16, grid=9, tol_conv=1e-5,
                       max_iters=500, seed=0)
    res = run_saddle(V, geom, cfg)
    assert res.converged
    assert res.history[-1].measure <= cfg.tol_conv
    assert res.verification.aggregate < 1e-4
    # the equilibrium at the origin solves the inclusion
    assert res.c_estimate >= geom.alpha_bound - 1e-8


def test_run_saddle_one_dimensional_degenerate_sphere():
    V = make_subq32(1)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=8, seed=0)
    res = run_saddle(V, geom, SolverConfig(mode="saddle", K=8, grid=5,
                                           max_iters=200, seed=0))
    assert res.converged


OFFCENTER_P = np.array([0.31, -0.22])


def offcenter_well(p=OFFCENTER_P, eps2=0.01):
    """The subquadratic well regularized by eps2 and shifted to p, with its
    calibrated saddle geometry and the saddle-offcenter solver settings."""

    def val(x):
        d2 = np.sum((x - p) ** 2, axis=-1)
        return (d2 + eps2) ** 0.75 - eps2 ** 0.75

    def grad(x):
        d = x - p
        d2 = np.sum(d ** 2, axis=-1)
        return 1.5 * (d2 + eps2) ** -0.25 * d if d.ndim == 1 else \
            (1.5 * (d2 + eps2) ** -0.25)[..., None] * d

    from liporbit.potentials import PotentialModel
    V = PotentialModel.smooth(val, grad, 2, "shifted_subq")
    geom = calibrate_saddle(V, {"A": 1.0, "a": 1.0}, 1.0, K=16, seed=0)
    cfg = SolverConfig(mode="saddle", K=16, grid=9, tol_conv=1e-6,
                       max_iters=3000, seed=0)
    return V, geom, cfg


def test_run_saddle_settles_the_cusp_well():
    # eps2 = 0: V ~ |x - p|^(3/2) has a cusp at p.  A full solve of
    # J s = -R on the constant seed lets rounding grow an oscillation that
    # stalls the polish just above tol_conv; the mean-block step keeps the
    # loop constant and reaches p.
    p = np.array([-0.3858659575748219, -0.21630366888929675])
    V, geom, cfg = offcenter_well(p, eps2=0.0)
    res = run_saddle(V, geom, cfg)
    assert res.converged
    assert res.diagnostics["rejections"] == []
    assert np.all(res.candidate.a == 0.0) and np.all(res.candidate.b == 0.0)
    assert np.allclose(res.candidate.mean(), p, atol=1e-9)


def test_constant_polish_step_moves_the_mean_only():
    # On a constant loop the step solves the n x n mean block of J and
    # leaves the other coefficients at zero.
    V, geom, cfg = offcenter_well()
    x = np.zeros((2 * 16 + 1, 2))
    x[0] = [0.5, 0.5]
    R = min_norm_residuals(x[None], 1.0, V)[0].ravel()
    step = _polish_steps(x.ravel()[None], R[None], x.shape, 1.0, V)[0]
    J = residual_jacobians(x[None], 1.0, V)[0]
    assert np.all(step[2:] == 0.0)
    assert np.array_equal(step[:2], np.linalg.solve(J[:2, :2], -R[:2]))


def test_run_saddle_offcenter_equilibrium_does_real_work():
    # Shifting the well off the grid forces genuine work: the saddle of
    # f among constants sits at the (regularized) subquadratic well p.
    p = OFFCENTER_P
    V, geom, cfg = offcenter_well()
    res = run_saddle(V, geom, cfg)
    assert res.converged
    assert len(res.history) > 1
    assert res.verification.aggregate < 1e-4
    assert np.allclose(res.candidate.mean(), p, atol=1e-3)


@pytest.mark.parametrize("case", ["maxpair-1.875", "offcenter", "subq32"])
def test_reported_verification_is_the_candidates_report(saddle_setup, case):
    # _run judges each candidate once and reports the judged report; it
    # must be the report a fresh check of the candidate gives.
    if case == "maxpair-1.875":
        model, geom = maxpair_geometry(1.875)
        res = run_minimax(model, geom, SolverConfig(K=32, grid=9, max_iters=4000, seed=0))
    elif case == "offcenter":
        model, geom, cfg = offcenter_well()
        res = run_saddle(model, geom, cfg)
    else:
        model, geom = saddle_setup
        res = run_saddle(model, geom, SolverConfig(mode="saddle", K=16, grid=9,
                                                   tol_conv=1e-5, max_iters=500, seed=0))
    assert res.converged
    fresh = inclusion_residual(res.candidate, model)
    assert res.verification.to_dict() == fresh.to_dict()
    assert np.array_equal(res.verification.distances, fresh.distances)


@pytest.mark.parametrize("case", ["subq32", "offcenter-loose"])
def test_argmax_record_is_the_h1precond_measure(saddle_setup, case):
    # The argmax node seeds the saddle polish, and its record comes from
    # the batched residual rows.  The centred well's equilibrium is an
    # interior grid node, so the polish stops at that first record and
    # reports it; with a loose tol_conv the off-centre well's argmax node
    # passes the measure gate with a nonzero measure and fails the aggregate.
    if case == "subq32":
        V, geom = saddle_setup
        cfg = SolverConfig(mode="saddle", K=16, grid=9, tol_conv=1e-5,
                           max_iters=500, seed=0)
    else:
        V, geom, cfg = offcenter_well()
        cfg = replace(cfg, tol_conv=10.0)
    surf = init_surface(geom, V, cfg)
    q = surf.node(surf.argmax_node())
    res = run_saddle(V, geom, cfg)
    g = min_norm_subgradient(q, V, metric="h1precond").l2_norm
    rec = res.history[0]
    assert rec.measure == (1.0 + h1_norm(q)) * g
    assert rec.f_value == action_value(q, V)
    assert np.array_equal(rec.trajectory.coefficients(), q.coefficients())
    if case == "subq32":
        assert len(res.history) == 1 and res.diagnostics["ridge_polish"]
    else:
        assert rec.measure > 0.0
        assert res.diagnostics["rejections"][0] == "aggregate"


def test_determinism_same_seed_same_candidate(quartic_setup):
    V, geom = quartic_setup
    cfg = SolverConfig(K=32, grid=9, tol_conv=1e-5, max_iters=3000, seed=0)
    r1 = run_minimax(V, geom, cfg)
    r2 = run_minimax(V, geom, cfg)
    assert np.array_equal(r1.candidate.a, r2.candidate.a)
    assert np.array_equal(r1.candidate.b, r2.candidate.b)
    assert r1.c_estimate == r2.c_estimate
    assert len(r1.history) == len(r2.history)


def test_nonsmooth_run_finds_verified_candidate():
    M, geom = maxpair_geometry(2.0)
    cfg = SolverConfig(K=32, grid=9, tol_conv=1e-5, max_iters=3000, seed=0)
    res = run_minimax(M, geom, cfg)
    assert res.converged
    assert res.verification.aggregate < 1e-4
    assert res.verification.nonconstant
    # the planar kink-crossing candidate cannot pass the posterior gate;
    # the rotating orbit of radius pi/(2 sqrt 2) does
    radii = np.linalg.norm(res.candidate.sample(256), axis=1)
    assert np.allclose(radii, np.pi / (2 * np.sqrt(2.0)), atol=1e-6)


def test_result_serialization_roundtrip(quartic_setup):
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=16, grid=9, max_iters=1000, seed=0))
    import json
    d = json.loads(res.to_json())
    assert set(d) >= {"c_estimate", "converged", "geometry", "verification",
                      "candidate", "iterations"}
    back = PeriodicTrajectory.from_dict(d["candidate"])
    assert np.allclose(back.a, res.candidate.a)


def test_polish_records_match_min_norm_subgradient():
    # The records reuse the LM residual; their min-norm values are the bits
    # min_norm_subgradient gives for the same loop.
    M = make_maxpair(2)
    rng = np.random.default_rng(4)
    q0 = PeriodicTrajectory.harmonic(2.0, 2, 1, cos_amp=1.0, sin_amp=0.0, K=16)
    q0 = q0 + PeriodicTrajectory.harmonic(2.0, 2, 1, axis=1, K=16)
    q0 = q0 + 0.05 * random_trajectory(rng, 2.0, 2, 16)
    records = next(_polish_candidates([q0], M, SolverConfig(K=16), start_index=7))
    assert len(records) >= 3
    assert [r.index for r in records] == list(range(7, 7 + len(records)))
    for rec in records:
        grad = min_norm_subgradient(rec.trajectory, M, metric="l2")
        assert rec.min_norm == grad.l2_norm
        assert rec.f_value == action_value(rec.trajectory, M)
    assert records[-1].measure < records[0].measure


# -- coefficient-row surface ---------------------------------------------


def trajectory_nodes(geom, model, config):
    """init_surface's nodes built one trajectory at a time, constant(x1) + s e."""
    m, n = config.grid, model.dim
    superquadratic = geom.mode == "superquadratic"
    radius = geom.r1 if superquadratic else geom.R
    axes = [np.linspace(-radius, radius, m) for _ in range(n)]
    if superquadratic:
        e = geom.e.pad_modes(config.K)
        axes.append(np.linspace(0.0, geom.r2, m))
    nodes = []
    for idx in itertools.product(range(m), repeat=len(axes)):
        x1 = np.array([axes[d][idx[d]] for d in range(n)])
        q = PeriodicTrajectory.constant(geom.T, x1, K=config.K)
        nodes.append(q + axes[n][idx[n]] * e if superquadratic else q)
    return nodes


@pytest.fixture(scope="module")
def surfaces(quartic_setup, saddle_setup):
    """(model, surface) for superquadratic n = 1 and 2 and saddle n = 2."""
    V, geom = quartic_setup
    M, mgeom = maxpair_geometry(2.0)
    S, sgeom = saddle_setup
    return {"quartic": (V, geom, SolverConfig(K=32, grid=9)),
            "maxpair": (M, mgeom, SolverConfig(K=16, grid=5)),
            "saddle": (S, sgeom, SolverConfig(mode="saddle", K=16, grid=7))}


@pytest.mark.parametrize("case", ["quartic", "maxpair", "saddle"])
def test_init_surface_rows_equal_trajectory_construction(surfaces, case):
    model, geom, cfg = surfaces[case]
    surf = init_surface(geom, model, cfg)
    old = rows(trajectory_nodes(geom, model, cfg))
    assert np.array_equal(surf.coeffs, old)
    assert np.array_equal(surf.f_values, action_values(old, geom.T, model))
    assert not surf.coeffs.flags.writeable


def column_flats(shape):
    for prefix in itertools.product(*(range(s) for s in shape[:-1])):
        yield [int(np.ravel_multi_index(prefix + (j,), shape)) for j in range(shape[-1])]


def serial_ridge_probe(surface, nodes, model, floor):
    """ridge_probe as a loop over columns of trajectories."""
    best_inf, best = np.inf, None
    for flats in column_flats(surface.shape):
        chain = [nodes[k] for k in flats]
        col_val, seg, th = serial_polyline_max(chain, model)
        node_max = float(np.max(surface.f_values[flats]))
        if node_max >= col_val:
            col_val, seg, th = node_max, None, 0.0
        if col_val < floor or col_val >= best_inf:
            continue
        best_inf = col_val
        if seg is None:
            best = nodes[flats[int(np.argmax(surface.f_values[flats]))]]
        else:
            best = chain[seg] + th * (chain[seg + 1] - chain[seg])
    if best is None:
        return None
    return best, float(best_inf)


@pytest.fixture(scope="module")
def cylinders(surfaces):
    """(model, geometry, config) of linking cylinders: quartic n = 1 and
    maxpair n = 2, and the saddle fixture's subq32 on a cylinder over its
    X1 box, whose columns all peak at their top node."""
    S, sgeom, _ = surfaces["saddle"]
    cyl = LinkingGeometry(mode="superquadratic", T=sgeom.T, alpha_bound=0.0, rho=0.5,
                          r1=sgeom.R, r2=2.0, e=unit_direction(sgeom.T, 2))
    return {"quartic": surfaces["quartic"], "maxpair": surfaces["maxpair"],
            "saddle": (S, cyl, SolverConfig(K=16, grid=7))}


def column_rows(surface):
    """Each grid column's probe rows in s order, from init_surface's nodes:
    node j, then a + theta (b - a) towards node j + 1 for theta = k / 8,
    k = 1..7; shape (columns, 8 (m - 1) + 1, 2K + 1, n)."""
    m = surface.shape[-1]
    chains = surface.coeffs.reshape(-1, m, *surface.coeffs.shape[1:])
    th = np.arange(8) / 8
    inner = chains[:, :-1, None] + th[:, None, None] * (chains[:, 1:] - chains[:, :-1])[:, :, None]
    return np.concatenate([inner.reshape(len(chains), -1, *chains.shape[2:]), chains[:, -1:]],
                          axis=1)


@pytest.mark.parametrize("case", ["quartic", "maxpair", "saddle"])
def test_ridge_probe_matches_serial_column_loop(cylinders, case):
    # The grid surface's probe, a loop over init_surface's columns, is the
    # reference: the same point and value bit for bit.
    model, geom, cfg = cylinders[case]
    surf = init_surface(geom, model, cfg)
    nodes = trajectory_nodes(geom, model, cfg)
    col_vals = sorted(max(serial_polyline_max([nodes[k] for k in flats], model)[0],
                          float(np.max(surf.f_values[flats])))
                      for flats in column_flats(surf.shape))
    # no floor; a floor that discards the lower half of the columns
    for floor in (-np.inf, col_vals[len(col_vals) // 2]):
        (q, val), (q_old, val_old) = (ridge_probe(geom, model, cfg.K, cfg.grid, floor=floor),
                                      serial_ridge_probe(surf, nodes, model, floor))
        assert val == val_old >= floor
        assert np.array_equal(q.coefficients(), q_old.coefficients())
    above = col_vals[-1] + 1.0
    assert ridge_probe(geom, model, cfg.K, cfg.grid, floor=above) is None
    assert serial_ridge_probe(surf, nodes, model, above) is None


@pytest.mark.parametrize("case", ["quartic", "maxpair", "saddle"])
def test_ridge_probe_evaluates_only_near_top_points(cylinders, case, monkeypatch):
    # Every column is screened, and the one exact evaluation covers just
    # the points within SCREEN_TOL of their column's top, nodes included;
    # a column screened below floor costs no exact evaluation.
    import liporbit.solver as solver

    model, geom, cfg = cylinders[case]
    points = column_rows(init_surface(geom, model, cfg))
    C, P = points.shape[:2]
    exact = action_values(points.reshape(C * P, *points.shape[2:]), geom.T, model).reshape(C, P)
    top = np.max(exact, axis=1, keepdims=True)
    gap = (top - exact) / (SCREEN_TOL * (1.0 + np.abs(top)))
    evaluated = []
    monkeypatch.setattr(solver, "action_values",
                        lambda c, T, mdl: evaluated.append(c) or action_values(c, T, mdl))
    ridge_probe(geom, model, cfg.K, cfg.grid, floor=-np.inf)
    assert len(evaluated) == 1
    where = {row.tobytes(): k for k, row in enumerate(points.reshape(C * P, -1))}
    hit = np.zeros(C * P, dtype=int)
    np.add.at(hit, [where[row.tobytes()] for row in evaluated[0].reshape(len(evaluated[0]), -1)],
              1)
    hit = hit.reshape(C, P)
    assert hit.max() == 1
    assert np.all(hit[gap <= 0.5]) and not np.any(hit[gap > 2.0])
    assert C <= len(evaluated[0]) < C * P
    evaluated.clear()
    above = float(np.max(top)) + 2.0 * SCREEN_TOL * (1.0 + float(np.max(np.abs(top))))
    assert ridge_probe(geom, model, cfg.K, cfg.grid, floor=above) is None
    assert sum(len(c) for c in evaluated) == 0


def test_ridge_probe_on_a_flat_cylinder_takes_the_first_exact_max_in_s_order(monkeypatch):
    # V = (w^2 / 2) |x|^2 with w = 2 pi / T resonates with e: f(x1 + s e)
    # = -T V(x1) for every s, so each column is flat up to rounding, every
    # point lies within SCREEN_TOL of its column's top and is evaluated
    # exactly, and rounding ties nodes with interior points.
    import liporbit.solver as solver

    T = 2.0
    model = make_maxpoly([[0.0, 2.0 * np.pi ** 2 / T ** 2]], 2)
    geom = LinkingGeometry(mode="superquadratic", T=T, alpha_bound=0.0, rho=0.5, r1=1.0,
                           r2=2.0, e=unit_direction(T, 2))
    points = column_rows(init_surface(geom, model, SolverConfig(K=16, grid=5)))
    C, P = points.shape[:2]
    exact = action_values(points.reshape(C * P, *points.shape[2:]), T, model).reshape(C, P)
    evaluated = []
    monkeypatch.setattr(solver, "action_values",
                        lambda c, T, mdl: evaluated.append(len(c)) or action_values(c, T, mdl))
    q, val = ridge_probe(geom, model, 16, 5, floor=-np.inf)
    assert evaluated == [C * P]
    col_vals = np.max(exact, axis=1)
    c = int(np.argmin(col_vals))
    assert val == col_vals[c]
    assert np.array_equal(q.coefficients(), points[c, np.argmax(exact[c])])


@pytest.mark.parametrize("case", ["quartic", "maxpair", "saddle"])
def test_screened_probe_values_track_action_values(cylinders, case):
    # The screen sits far inside SCREEN_TOL, so the exact maximum of each
    # column is always among the points evaluated again.
    model, geom, cfg = cylinders[case]
    m = cfg.grid
    points = column_rows(init_surface(geom, model, cfg))
    s_nodes = np.linspace(0.0, geom.r2, m)
    th = np.arange(8) / 8
    s = np.append((s_nodes[:-1, None] + th * np.diff(s_nodes)[:, None]).ravel(), s_nodes[-1])
    x1 = _grid_points(geom.r1, m, model.dim)
    screened = _screen(geom, model, cfg.K, x1, s)
    assert screened.shape == points.shape[:2] == (m ** model.dim, 8 * (m - 1) + 1)
    for x, rows_, row in zip(x1, points, screened):
        exact = action_values(rows_, geom.T, model)
        assert np.all(np.abs(row - exact) <= 1e-12 * (1.0 + np.abs(exact)))
        assert np.array_equal(_screen(geom, model, cfg.K, x[None], s)[0], row)


@pytest.mark.parametrize("case", ["subq32", "subq32-1d", "offcenter", "offcenter-cusp",
                                  "offcenter-K64"])
def test_saddle_seed_is_the_argmax_node_of_init_surface(saddle_setup, case):
    # The run seeds at the grid point of least V; the saddle grid surface's
    # argmax node, at the coarse K, is the same loop bit for bit.
    if case == "subq32":
        V, geom = saddle_setup
        cfg = SolverConfig(mode="saddle", K=16, grid=9, tol_conv=1e-5, max_iters=500)
    elif case == "subq32-1d":
        V = make_subq32(1)
        geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=16, seed=0)
        cfg = SolverConfig(mode="saddle", K=16, grid=5, tol_conv=1e-5, max_iters=500)
    else:
        p = {"offcenter": OFFCENTER_P, "offcenter-cusp": np.array([-0.18, 0.27]),
             "offcenter-K64": np.array([0.12, 0.35])}[case]
        V, geom, cfg = offcenter_well(p, eps2=0.0 if case == "offcenter-cusp" else 0.01)
        cfg = replace(cfg, K=64 if case == "offcenter-K64" else 16)
    surf = init_surface(geom, V, replace(cfg, K=16))
    res = run_saddle(V, geom, cfg)
    assert np.array_equal(res.history[0].trajectory.coefficients(),
                          surf.coeffs[surf.argmax_node()])


# -- the Newton polish ---------------------------------------------------


def probe_seeds(model, geom, K, count):
    seed, _ = ridge_probe(geom, model, K, 9, floor=geom.alpha_bound - 1e-6)
    return list(_seed_variants(seed, model.dim, np.random.default_rng(0), count))


def values(record):
    return (record.f_value, record.h1norm, record.min_norm, record.measure)


@pytest.mark.parametrize("case", ["maxpair-2.4", "quartic-2pi"])
def test_polish_records_each_loop_once(quartic_setup, case):
    # maxpair T = 2.4 (its line brake orbit) and quartic T = 2 pi: no loop
    # is recorded twice.
    model, geom = quartic_setup if case == "quartic-2pi" else maxpair_geometry(2.4)
    K = 32 if case == "quartic-2pi" else 64
    cfg = SolverConfig(K=K)
    q0 = probe_seeds(model, geom, K, 1)[0]
    for max_steps in (60, 2):
        records = next(_polish_candidates([q0], model, cfg, start_index=0,
                                     max_steps=max_steps))
        assert len(records) <= max_steps + 1
        assert [r.index for r in records] == list(range(len(records)))
        assert all(values(a) != values(b) for a, b in zip(records, records[1:]))
    assert len(records) == 3          # two steps, then the loop they reached


def test_lockstep_rows_take_the_iterates_they_take_alone():
    # maxpair T = 2.4: the six K0 = 16 seeds of a run, a constant loop and
    # a row whose step solve is singular go through newton_steps as one
    # stack.  Each row yields the bits it yields alone; the singular row
    # ends at once, and its failure sends the stacked solve row by row
    # without ending any other row.
    model, geom = maxpair_geometry(2.4)
    seeds = probe_seeds(model, geom, 16, 6)
    T, shape = geom.T, (33, 2)
    constant = PeriodicTrajectory.constant(T, [0.7, -0.4], K=16)
    singular = seeds[0] + 0.01 * seeds[1]
    rows = np.stack([q.coefficients().ravel() for q in seeds + [constant, singular]])

    def residual(x):
        return min_norm_residuals(x.reshape(-1, *shape), T, model).reshape(len(x), -1), None

    def step(x, R):
        if any(np.array_equal(row, rows[-1]) for row in x):
            raise np.linalg.LinAlgError("Singular matrix")
        return _polish_steps(x, R, shape, T, model)

    def iterates(x):
        out = [[] for _ in x]
        for idx, xs, Rs, _ in newton_steps(x, residual(x)[0], residual, step, 6):
            for i, xi, Ri in zip(idx, xs, Rs):
                out[i].append((xi, Ri))
        return out

    stacked = iterates(rows)
    assert len(stacked[-1]) == 0 and len(stacked[-2]) > 0
    assert sum(len(seq) > 1 for seq in stacked) >= 6
    for row, seq in zip(rows, stacked):
        alone = iterates(row[None])[0]
        assert len(seq) == len(alone)
        for (x, R), (x1, R1) in zip(seq, alone):
            assert np.array_equal(x, x1) and np.array_equal(R, R1)


@pytest.mark.parametrize("max_iters", [12, 25, 41, 4000])
def test_lockstep_keeps_the_one_at_a_time_history_under_the_budget(monkeypatch, max_iters):
    # maxpair T = 2.4, K = 64: every seed stalls at K0 = 16, so the run
    # polishes the first seed alone and the other five in lockstep.  With
    # the record budget binding or not, the history and rejections are
    # those of polishing each seed alone, in order, with the budget left.
    import liporbit.solver as solver

    model, geom = maxpair_geometry(2.4)
    cfg = SolverConfig(K=64, grid=9, max_iters=max_iters, seed=0)
    records, rejections = [], []
    for seed in probe_seeds(model, geom, 16, 6):
        room = cfg.max_iters - len(records)
        if room < 1:
            break
        records += next(_polish_candidates([seed], model, cfg, start_index=len(records),
                                           max_steps=min(60, room - 1)))
        assert records[-1].measure > cfg.tol_conv
        rejections.append("measure")

    stacks = []
    polish = solver._polish_candidates
    monkeypatch.setattr(solver, "_polish_candidates",
                        lambda q0s, *a, **kw: stacks.append(len(q0s)) or polish(q0s, *a, **kw))
    res = run_minimax(model, geom, cfg)
    assert stacks == [1, 5]
    assert res.diagnostics["rejections"] == rejections
    assert len(res.history) == len(records) <= max_iters
    for got, want in zip(res.history, records):
        assert (got.index, values(got)) == (want.index, values(want))
        assert np.array_equal(got.trajectory.coefficients(), want.trajectory.coefficients())


@pytest.mark.parametrize("case", ["maxpair-1.875", "quartic-2pi"])
def test_polish_step_is_orthogonal_to_the_tangent(quartic_setup, case):
    # The bordered step has no component along q', and solves J s = -R up
    # to a multiple of q'.
    model, geom = quartic_setup if case == "quartic-2pi" else maxpair_geometry(1.875)
    K = 32 if case == "quartic-2pi" else 64
    q = probe_seeds(model, geom, K, 1)[0]
    shape = (2 * K + 1, q.n)
    x = q.coefficients().ravel()
    R = min_norm_residuals(x.reshape(1, *shape), q.T, model)[0].ravel()
    s = _polish_steps(x[None], R[None], shape, q.T, model)[0]
    p = q.derivative().coefficients().ravel()
    p /= np.linalg.norm(p)
    assert np.linalg.norm(s) > 1e-6
    assert abs(s @ p) <= 1e-12 * np.linalg.norm(s)
    r = residual_jacobians(x.reshape(1, *shape), q.T, model)[0] @ s + R
    assert np.linalg.norm(r - (r @ p) * p) <= 1e-9 * np.linalg.norm(R)


def test_constant_seed_polishes_to_a_constant_loop():
    # On a constant loop the step is J s = -R, which moves only the mean:
    # the polish is Newton on grad V(x) = 0 and ends at the well centre.
    V, geom, cfg = offcenter_well()
    q0 = PeriodicTrajectory.constant(1.0, [0.8, 0.4], K=16)
    records = next(_polish_candidates([q0], V, cfg, start_index=0))
    q = records[-1].trajectory
    assert records[-1].measure <= 0.1 * cfg.tol_conv
    assert len(records) > 3
    assert np.max(np.abs(np.concatenate([q.a, q.b]))) <= 1e-15
    assert np.allclose(q.a0, OFFCENTER_P, atol=1e-8)


def test_saddle_mode_runs_one_polish(monkeypatch):
    # A saddle seed is a constant loop: run_saddle polishes the probe point
    # only, even when that polish fails its gate (here a singular Newton
    # system leaves it at its seed).
    import liporbit.solver as solver

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    V, geom, cfg = offcenter_well()
    polishes = []
    polish = solver._polish_candidates
    monkeypatch.setattr(solver, "_polish_candidates",
                        lambda *a, **kw: polishes.append(1) or polish(*a, **kw))
    monkeypatch.setattr(solver, "_polish_steps", singular)
    res = run_saddle(V, geom, cfg)
    assert len(polishes) == 1
    assert res.diagnostics["rejections"] == ["measure"]


def test_a_singular_newton_system_ends_the_polish(quartic_setup, monkeypatch):
    # A LinAlgError from the step ends that polish with what it reached;
    # it never escapes the run.
    import liporbit.solver as solver

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(solver, "_polish_steps", singular)
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=32, grid=9, max_iters=4000, seed=0))
    assert not res.converged
    assert res.diagnostics["rejections"] == ["measure"] * 6
    assert len(res.history) == 6                # one record per polish: its seed


# -- rejection reasons -------------------------------------------------------


@pytest.mark.parametrize("K, expected", [
    (64, ["aggregate"] + ["measure"] * 5),
    (32, ["measure"] * 6),
])
def test_rejections_name_the_failed_gate(K, expected):
    # maxpair T = 2.25: at K = 64 the first polish reaches the line orbit
    # through the origin, which fails the inclusion gate, and the seed
    # variants end above tol_conv; at K = 32 every polish does.
    M, geom = maxpair_geometry(2.25)
    res = run_minimax(M, geom, SolverConfig(K=K, grid=9, max_iters=4000, seed=0))
    assert not res.converged
    assert res.diagnostics["rejections"] == expected
    assert res.diagnostics["rejected_candidates"] == len(expected)
