import numpy as np
import pytest

from liporbit.action import action_value, min_norm_subgradient
from liporbit.linking import (
    LinkingGeometry,
    calibrate_saddle,
    calibrate_superquadratic,
    certify_linking,
    unit_direction,
)
from liporbit.potentials import make_maxpair, make_quartic, make_subq32
from liporbit.solver import (
    GeometryNotCertified,
    SolverConfig,
    StallError,
    _polish_candidate,
    _polyline_max,
    deform_step,
    init_surface,
    ridge_probe,
    run_minimax,
    run_saddle,
)
from liporbit.trajectory import PeriodicTrajectory, l2_norm, random_trajectory

TWO_PI = 2.0 * np.pi
QUARTIC_CERTS = {"A": 0.25, "radius": 1.0, "a1": 0.25, "a2": 0.0, "mu1": 4.0}


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
    assert l2_norm(surf.nodes[flat]) == 0.0
    assert np.all(surf.nodes[flat].a0 == 0.0)
    # node (0, r2) is r2 * e
    top = int(np.ravel_multi_index((mid, 4), surf.shape))
    e = geom.e.pad_modes(16)
    expect = geom.r2 * e
    assert np.allclose(surf.nodes[top].b, expect.b)
    # interior nodes interpolate linearly in (x1, s)
    j = int(np.ravel_multi_index((3, 2), surf.shape))
    x1 = np.linspace(-geom.r1, geom.r1, 5)[3]
    s = np.linspace(0, geom.r2, 5)[2]
    manual = PeriodicTrajectory.constant(TWO_PI, [x1], K=16) + s * e
    assert np.allclose(surf.nodes[j].a0, manual.a0)
    assert np.allclose(surf.nodes[j].b, manual.b)


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


def test_saddle_surface_constant_loops(saddle_setup):
    V, geom = saddle_setup
    surf = init_surface(geom, V, SolverConfig(mode="saddle", K=8, grid=5))
    assert surf.shape == (5, 5)
    for flat in range(surf.n_nodes):
        q = surf.nodes[flat]
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
    pinned_snapshots = [(i, surf.nodes[i]) for i in range(surf.n_nodes)
                        if surf.pinned[i]]
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
    for i, traj in pinned_snapshots:
        assert surf.nodes[i] is traj  # bitwise identical objects


def test_ridge_probe_sees_between_node_crossing(quartic_setup):
    # The initial 9x9 node max sits below the mountain-pass level; the
    # interpolated column probe recovers a crossing above it.
    V, geom = quartic_setup
    surf = init_surface(geom, V, SolverConfig(K=32, grid=9))
    node_max = float(np.max(surf.f_values))
    hit = ridge_probe(surf, V, floor=geom.alpha_bound - 1e-6)
    assert hit is not None
    seed, val = hit
    assert val >= node_max - 1e-12
    assert val >= geom.alpha_bound - 1e-8
    assert np.isclose(action_value(seed, V), val, rtol=1e-12)


def serial_polyline_max(chain, model, n_probe=7):
    """_polyline_max as a loop over segments and thetas."""
    thetas = np.arange(1, n_probe + 1) / (n_probe + 1)
    best = (-np.inf, 0, 0.0)
    for seg in range(len(chain) - 1):
        diff = chain[seg + 1] - chain[seg]
        for th in thetas:
            val = action_value(chain[seg] + float(th) * diff, model)
            if val > best[0]:
                best = (val, seg, float(th))
    return best


def test_polyline_max_matches_serial_loop(quartic_setup):
    V, geom = quartic_setup
    surf = init_surface(geom, V, SolverConfig(K=32, grid=9))
    for x1 in range(surf.shape[0]):
        chain = [surf.nodes[int(np.ravel_multi_index((x1, j), surf.shape))]
                 for j in range(surf.shape[1])]
        assert _polyline_max(chain, V) == serial_polyline_max(chain, V)
    M = make_maxpair(2)
    rng = np.random.default_rng(4)
    chain = [random_trajectory(rng, 2.0, 2, 16) for _ in range(6)]
    assert _polyline_max(chain, M, n_probe=5) == serial_polyline_max(chain, M, n_probe=5)
    # segment 2 repeats segment 0 bit for bit; ties go to the earlier one
    tied = chain[:2] * 2
    assert _polyline_max(tied, M) == serial_polyline_max(tied, M)
    assert _polyline_max(tied, M)[1] != 2


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


def test_run_probes_once_and_never_deforms(quartic_setup, monkeypatch):
    import liporbit.solver as solver

    def no_deform(*args, **kwargs):
        raise AssertionError("the run called deform_step")

    probes = []

    def counted_probe(*args, **kwargs):
        probes.append(1)
        return ridge_probe(*args, **kwargs)

    monkeypatch.setattr(solver, "deform_step", no_deform)
    monkeypatch.setattr(solver, "ridge_probe", counted_probe)
    V, geom = quartic_setup
    res = run_minimax(V, geom, SolverConfig(K=32, grid=9, max_iters=3000, seed=0))
    assert res.converged
    assert probes == [1]
    assert set(res.diagnostics) == {"seed", "ridge_barrier_slack", "max_h1norm",
                                    "mode", "ridge_polish", "rejected_candidates"}


def test_run_mode_guards(quartic_setup, saddle_setup):
    V, geom = quartic_setup
    S, sgeom = saddle_setup
    with pytest.raises(ValueError, match="saddle"):
        run_saddle(V, geom, SolverConfig())
    with pytest.raises(ValueError, match="superquadratic"):
        run_minimax(S, sgeom, SolverConfig(mode="saddle"))


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


def test_run_saddle_offcenter_equilibrium_does_real_work():
    # Shifting the well off the grid forces genuine work: the saddle of
    # f among constants sits at the (regularized) subquadratic well p.
    p = np.array([0.31, -0.22])
    eps2 = 0.01

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
    res = run_saddle(V, geom, cfg)
    assert res.converged
    assert len(res.history) > 1
    assert res.verification.aggregate < 1e-4
    assert np.allclose(res.candidate.mean(), p, atol=1e-3)


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
    M = make_maxpair(2)
    certs = {"A": 1.0, "radius": 1.0, "a1": 1.0, "a2": -1.0, "mu1": 4.0}
    geom = calibrate_superquadratic(M, certs, 2.0)
    geom = certify_linking(geom, M, 2.0, n_samples=100, K=32, seed=0)
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
    records = []
    _polish_candidate(q0, M, SolverConfig(K=16), records, start_index=7)
    assert len(records) >= 3
    assert [r.index for r in records] == list(range(7, 7 + len(records)))
    for rec in records:
        grad = min_norm_subgradient(rec.trajectory, M, metric="l2")
        assert rec.min_norm == grad.l2_norm
        assert rec.f_value == action_value(rec.trajectory, M)
    assert records[-1].measure < records[0].measure
