import numpy as np
import pytest

from liporbit.action import (
    BATCH_ROWS,
    CeramiRecord,
    action_value,
    action_values,
    h1_preconditioned,
    history_to_csv,
    min_norm_residuals,
    min_norm_subgradient,
    project_hull,
    residual_jacobians,
)
from liporbit.potentials import (
    PotentialModel,
    make_maxpair,
    make_maxpoly,
    make_quartic,
    subdiff,
)
from liporbit.trajectory import (
    PeriodicTrajectory,
    default_grid_size,
    h1_norm,
    l2_norm,
    l2_norm_row,
    random_trajectory,
)
from liporbit.verification import inclusion_residual, shooting_oracle

TWO_PI = 2.0 * np.pi


def zero_potential(n):
    return PotentialModel.smooth(lambda x: np.zeros(x.shape[:-1]),
                                 lambda x: np.zeros_like(x), n, "zero")


def simplex_lattice(m, n_div):
    """All weight vectors with coordinates j/n_div summing to 1."""
    grids = np.meshgrid(*[np.arange(n_div + 1)] * (m - 1), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=1)
    keep = free.sum(axis=1) <= n_div
    free = free[keep]
    last = n_div - free.sum(axis=1)
    return np.column_stack([free, last]) / n_div


def simplex_grid_min(point, verts, levels=(8, 24, 72, 216, 648, 1944), beam=5):
    """Brute-force nearest-point distance via a coarse-to-fine simplex grid.

    Full lattice at the first resolution, then windows around the best
    few lattice points per level (the beam guards against near-flat
    valleys where a single coarse minimizer can sit cells away from the
    fine one).  Final step 1/1944 < 1e-3; pure enumeration throughout.
    """
    verts = np.asarray(verts, dtype=float)
    m = verts.shape[0]
    if m == 1:
        return float(np.linalg.norm(point - verts[0]))

    def dist(W):
        return np.linalg.norm(W @ verts - point, axis=1)

    W = simplex_lattice(m, levels[0])
    vals = dist(W)
    order = np.argsort(vals)[:beam]
    centers = W[order]
    best_val = float(vals[order[0]])
    for prev, n_div in zip(levels, levels[1:]):
        step = 1.0 / n_div
        ratio = n_div // prev
        span = np.arange(-1.5 * ratio, 1.5 * ratio + 0.5) * step
        grids = np.meshgrid(*[span] * (m - 1), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=1)
        blocks = []
        for c in centers:
            free = offsets + c[:-1]
            keep = np.all(free >= -1e-12, axis=1) & (free.sum(axis=1) <= 1 + 1e-12)
            free = np.clip(free[keep], 0.0, 1.0)
            Wc = np.column_stack([free, np.clip(1.0 - free.sum(axis=1), 0.0, 1.0)])
            blocks.append(Wc)
        W = np.vstack(blocks)
        vals = dist(W)
        order = np.argsort(vals)[:beam]
        centers = W[order]
        best_val = min(best_val, float(vals[order[0]]))
    return best_val


# -- action values --------------------------------------------------------


def test_action_zero_loop_quartic():
    V = make_quartic(1)
    assert action_value(PeriodicTrajectory.zero(TWO_PI, 1, 8), V) == 0.0


def test_action_pure_kinetic():
    q = PeriodicTrajectory.harmonic(3.0, 1, 1)
    assert np.isclose(action_value(q, zero_potential(1)), np.pi ** 2 / 3.0, rtol=1e-12)


def test_action_sine_under_quartic():
    # f = pi^2/T - (1/4) int sin^4 = pi/2 - (3/32) 2 pi at T = 2 pi.
    V = make_quartic(1)
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 1, K=8)
    expected = np.pi / 2.0 - (3.0 / 32.0) * TWO_PI
    assert np.isclose(action_value(q, V), expected, rtol=1e-12)
    # quadrature oracle on an independent (denser, offset-free) grid
    N = 1024
    t = np.arange(N) * TWO_PI / N
    vals = 0.5 * np.cos(t) ** 2 - 0.25 * np.sin(t) ** 4
    assert np.isclose(action_value(q, V), TWO_PI * np.mean(vals), rtol=1e-12)


def test_action_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        action_value(PeriodicTrajectory.zero(1.0, 2, 2), make_quartic(3))


# -- batched nodal core ----------------------------------------------------


def make_maxpoly3(dim):
    """max(s, s^2, 2 s^2 - 1) in s = |x|^2: all three pieces meet on |x| = 1."""
    return make_maxpoly([[0.0, 1.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 2.0]], dim)


MODELS = {"quartic": (make_quartic, 1), "maxpair": (make_maxpair, 2),
          "maxpoly3": (make_maxpoly3, 2)}


def serial_residual(q, V):
    """The residual -qdd - v of one loop, built node by node from the
    PeriodicTrajectory API: the loop form of the batched core."""
    N = default_grid_size(q.K)
    qs = q.sample(N)
    target = -q.derivative().derivative().sample(N)
    sel = np.empty_like(target)
    for j in range(N):
        vertices = subdiff(V, qs[j]).vertices
        if len(vertices) == 1:
            sel[j] = vertices[0]
        else:
            sel[j] = project_hull(target[j], vertices)[0]
    return PeriodicTrajectory.from_samples(target - sel, q.T, K=q.K).coefficients()


def serial_action(q, V):
    energy = np.sum(q.a ** 2 + q.b ** 2, axis=1)
    kinetic = 0.25 * q.T * float(q.omegas ** 2 @ energy)
    return kinetic - q.T * float(np.mean(V.value(q.sample(default_grid_size(q.K)))))


def batch_loops(n, T=2.0, K=16):
    """More loops than one block holds; the last two cross the sphere
    |x| = 1 and run along it."""
    rng = np.random.default_rng(11)
    loops = [random_trajectory(rng, T, n, K) * rng.uniform(0.2, 1.2)
             for _ in range(BATCH_ROWS + 5)]
    loops.append(PeriodicTrajectory.harmonic(T, n, 1, sin_amp=1.3, K=K))
    circle = PeriodicTrajectory.harmonic(T, n, 1, cos_amp=1.0, sin_amp=0.0, K=K)
    if n > 1:
        circle = circle + PeriodicTrajectory.harmonic(T, n, 1, axis=1, K=K)
    return loops + [circle]


@pytest.mark.parametrize("case", list(MODELS))
def test_batched_residual_rows_equal_serial(case):
    make, dim = MODELS[case]
    V = make(dim)
    loops = batch_loops(V.dim)
    rows = min_norm_residuals(np.stack([q.coefficients() for q in loops]), 2.0, V)
    for q, row in zip(loops, rows):
        assert np.array_equal(row, min_norm_subgradient(q, V, metric="l2").residual.coefficients())
        assert np.array_equal(row, serial_residual(q, V))
    if V.kind == "max":
        # every node of the unit circle has all pieces active and is projected
        vals = V.piece_values(loops[-1].sample(default_grid_size(16)))
        assert np.all(np.ptp(vals, axis=0) < 1e-12)


@pytest.mark.parametrize("case", list(MODELS))
def test_inclusion_distances_equal_serial_hull_projection(case):
    # The gate's distances, node by node from subdiff and project_hull.
    make, dim = MODELS[case]
    V = make(dim)
    for q in batch_loops(V.dim):
        N = default_grid_size(q.K)
        qs = q.sample(N)
        target = -q.derivative().derivative().sample(N)
        sel = np.empty_like(target)
        for j in range(N):
            verts = subdiff(V, qs[j]).vertices
            sel[j] = verts[0] if len(verts) == 1 else project_hull(target[j], verts)[0]
        ref = np.linalg.norm(target - sel, axis=1)
        assert np.array_equal(inclusion_residual(q, V).distances, ref)


@pytest.mark.parametrize("make", [make_quartic, make_maxpair], ids=["quartic", "maxpair"])
def test_batched_action_values_equal_serial(make):
    V = make(2)
    loops = batch_loops(2)
    vals = action_values(np.stack([q.coefficients() for q in loops]), 2.0, V)
    assert vals.shape == (len(loops),)
    for q, val in zip(loops, vals):
        assert val == action_value(q, V) == serial_action(q, V)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_min_norm_rejects_nodes_without_active_piece(bad):
    V = make_maxpair(2)
    c = PeriodicTrajectory.harmonic(2.0, 2, 1, sin_amp=1.3, K=8).coefficients()
    c[0, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="no active piece"):
        min_norm_residuals(c[None], 2.0, V)


@pytest.mark.parametrize("call", [min_norm_residuals, residual_jacobians])
def test_smooth_path_rejects_non_finite_nodes_as_max_path_does(call):
    # A quartic loop with a0 = inf raised nothing on the smooth path: NaN
    # residual rows came back.  Both paths now raise the same error.
    c = PeriodicTrajectory.harmonic(2.0, 2, 1, sin_amp=1.3, K=8).coefficients()
    c[0, 0] = np.inf
    messages = []
    for V in (make_quartic(2), make_maxpair(2)):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
            call(c[None], 2.0, V)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "q must be finite" in messages[0]


def forward_difference_jacobian(q, V, h):
    """dR/dx column by column from min_norm_residuals, x = q.coefficients()."""
    c = q.coefficients()
    X = np.tile(c.ravel(), (c.size + 1, 1))
    X[np.arange(1, c.size + 1), np.arange(c.size)] += h
    R = min_norm_residuals(X.reshape(-1, *c.shape), q.T, V).reshape(c.size + 1, -1)
    return ((R[1:] - R[0]) / h).T


def kink_circle(K):
    """The unit circle at T = 2.6 (4 < w^2 < 8): every node has all pieces
    active and -qdd strictly inside the segment, so dv/da is not zero."""
    T = 2.6
    return (PeriodicTrajectory.harmonic(T, 2, 1, cos_amp=1.0, sin_amp=0.0, K=K)
            + PeriodicTrajectory.harmonic(T, 2, 1, axis=1, K=K))


@pytest.mark.parametrize("case", ["quartic", "maxpair", "maxpair-kink", "maxpoly3-kink"])
def test_residual_jacobian_matches_forward_differences(case):
    rng = np.random.default_rng(21)
    h_ref = 1e-7
    if case == "quartic":
        V = make_quartic(1)
        loops = [random_trajectory(rng, 2.0, 1, 8, zero_mean=False) for _ in range(3)]
    elif case == "maxpair":
        V = make_maxpair(2)
        loops = [random_trajectory(rng, 2.0, 2, 8, zero_mean=False) * 0.8
                 for _ in range(3)]
        loops.append(PeriodicTrajectory.harmonic(2.0, 2, 1, sin_amp=1.3, K=8))
    else:
        # The reference step stays well inside the activity band, so the
        # reference keeps every node on the kink.  maxpoly3's hull is the
        # segment [2x, 8x] with 4x inside, so -qdd = 5.84x sits between
        # two of its three active pieces.
        V = make_maxpair(2) if case == "maxpair-kink" else make_maxpoly3(2)
        h_ref = 1e-8
        loops = [kink_circle(8)]
        weights = min_norm_subgradient(loops[0], V, metric="l2").weights
        assert np.all(np.sort(weights, axis=1)[:, -2] > 0.1)
    for q in loops:
        J = residual_jacobians(q.coefficients()[None], q.T, V)[0]
        J_fd = forward_difference_jacobian(q, V, h_ref)
        np.testing.assert_allclose(J, J_fd, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(J_fd)))


@pytest.mark.parametrize("K", [16, 64])
def test_residual_jacobians_rows_equal_one_row_calls(K):
    # The selection is per node and each block a matrix product per row,
    # so a row of the stack is its one-row Jacobian bit for bit: quartic
    # n = 1, and maxpair and maxpoly3 n = 2 with rows whose nodes all sit
    # on |x| = 1.
    rng = np.random.default_rng(22)
    quartic = [random_trajectory(rng, 2.0, 1, K, zero_mean=False) for _ in range(3)]
    circle = kink_circle(K)
    kinked = [circle, circle.time_shift(0.3),
              random_trajectory(rng, circle.T, 2, K, zero_mean=False) * 0.8]
    for V, loops in ((make_quartic(1), quartic), (make_maxpair(2), kinked),
                     (make_maxpoly3(2), kinked)):
        stack = np.stack([q.coefficients() for q in loops])
        got = residual_jacobians(stack, loops[0].T, V)
        assert got.shape == (len(loops), stack[0].size, stack[0].size)
        for J, q in zip(got, loops):
            assert np.array_equal(J, residual_jacobians(q.coefficients()[None], q.T, V)[0])


@pytest.mark.parametrize("n", [1, 2])
def test_one_piece_model_is_smooth_and_matches_an_inactive_second_piece(n):
    # kind follows from the piece count, so a one-piece model takes the
    # smooth paths of _select and residual_jacobians, whichever factory
    # built it; the constant piece -1e6 is never active.
    rng = np.random.default_rng(40 + n)
    one_piece = [make_maxpoly([[0, 0, 1]], n),
                 PotentialModel.piecewise_max([(make_maxpair(n).values[0],
                                                make_maxpair(n).gradients[0])], n)]
    two = make_maxpoly([[0, 0, 1], [-1e6]], n)
    assert two.kind == "max"
    stack = np.stack([random_trajectory(rng, 2.0, n, 16).coefficients() for _ in range(3)])
    for V in one_piece:
        assert V.kind == "smooth"
        assert np.array_equal(min_norm_residuals(stack, 2.0, V),
                              min_norm_residuals(stack, 2.0, two))
        assert np.array_equal(residual_jacobians(stack, 2.0, V),
                              residual_jacobians(stack, 2.0, two))


def test_shooting_oracle_takes_a_one_piece_table_as_the_quartic():
    ref = shooting_oracle(make_quartic(1), TWO_PI, [1.18, 0.0], K=32)
    got = shooting_oracle(make_maxpoly([[0, 0, 0.25]], 1), TWO_PI, [1.18, 0.0], K=32)
    assert np.array_equal(got.initial_state, ref.initial_state)
    assert np.array_equal(got.trajectory.coefficients(), ref.trajectory.coefficients())
    assert (got.closure_residual, got.fit_residual, got.newton_iters) \
        == (ref.closure_residual, ref.fit_residual, ref.newton_iters)


# -- nearest point in hull -------------------------------------------------


def test_project_hull_point_inside():
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    p = np.array([1.0, 0.5])
    proj, w = project_hull(p, verts)
    assert np.linalg.norm(proj - p) < 1e-10
    assert np.all(w >= 0) and np.isclose(w.sum(), 1.0)


def test_project_hull_segment_endpoint():
    proj, w = project_hull(np.array([2.0, 0.0]),
                           np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(proj, [1.0, 0.0])
    assert np.allclose(w, [0.0, 1.0])


def test_project_hull_singleton():
    proj, w = project_hull(np.array([5.0]), np.array([[2.0]]))
    assert proj[0] == 2.0 and w[0] == 1.0


def test_project_hull_matches_simplex_grid():
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        verts = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0)
        p = rng.standard_normal(n) * 1.5
        proj, w = project_hull(p, verts)
        d_wolfe = np.linalg.norm(p - proj)
        d_grid = simplex_grid_min(p, verts)
        assert abs(d_wolfe - d_grid) < 1e-3
        # nearest-point optimality conditions, exact form
        for v in verts:
            assert np.dot(p - proj, v - proj) <= 1e-9
        assert np.allclose(w @ verts, proj, atol=1e-9)


# -- min-norm subgradient ---------------------------------------------------


def test_min_norm_zero_at_critical_constant():
    V = make_quartic(1)
    grad = min_norm_subgradient(PeriodicTrajectory.zero(TWO_PI, 1, 8), V)
    assert grad.l2_norm == 0.0


def test_min_norm_pure_kinetic():
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 1, K=4)
    grad = min_norm_subgradient(q, zero_potential(1), metric="l2")
    w1 = 1.0
    assert np.isclose(grad.l2_norm, w1 ** 2 * np.sqrt(TWO_PI / 2.0), rtol=1e-10)
    # residual is -qdd exactly
    assert np.allclose(grad.residual.b[0], [w1 ** 2], atol=1e-12)


def test_min_norm_small_on_shooting_solution():
    V = make_quartic(1)
    orbit = shooting_oracle(V, TWO_PI, [1.18, 0.0], K=64).trajectory
    grad = min_norm_subgradient(orbit, V, metric="l2")
    assert grad.l2_norm < 1e-6


def test_min_norm_weights_are_convex_combinations():
    V = make_maxpair(2)
    # A loop crossing the switching sphere |x| = 1.
    q = PeriodicTrajectory.harmonic(2.0, 2, 1, sin_amp=1.3, K=16)
    grad = min_norm_subgradient(q, V)
    w = grad.weights
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=1), 1.0)


def test_min_norm_selection_is_per_node_optimal():
    V = make_maxpair(1)
    rng = np.random.default_rng(3)
    q = PeriodicTrajectory.harmonic(2.0, 1, 1, sin_amp=1.2, K=16)
    N = default_grid_size(q.K)
    qs = q.sample(N)
    target = -q.derivative().derivative().sample(N)
    grad = min_norm_subgradient(q, V)
    piece_vals = V.piece_values(qs)
    grads = np.stack([g(qs) for g in V.gradients])
    for j in range(N):
        w = grad.weights[j]
        sel = np.tensordot(w, grads[:, j], axes=1)
        base = np.linalg.norm(target[j] - sel)
        for _ in range(5):
            dw = rng.standard_normal(w.shape)
            dw -= dw.mean()
            dw[w <= 1e-12] = np.abs(dw[w <= 1e-12])
            eps = 1e-4
            w_try = np.clip(w + eps * dw, 0.0, None)
            if w_try.sum() == 0:
                continue
            w_try /= w_try.sum()
            active = piece_vals[:, j] >= piece_vals[:, j].max() - 1e-7
            w_try = np.where(active, w_try, 0.0)
            if w_try.sum() == 0:
                continue
            w_try /= w_try.sum()
            trial = np.linalg.norm(target[j] - np.tensordot(w_try, grads[:, j], axes=1))
            assert trial >= base - 1e-10


def test_smooth_gradient_matches_directional_differences():
    V = make_quartic(1)
    rng = np.random.default_rng(8)
    q = random_trajectory(rng, T=TWO_PI, n=1, K=12)
    grad = min_norm_subgradient(q, V, metric="l2")
    h = 1e-6
    for _ in range(20):
        phi = random_trajectory(rng, T=TWO_PI, n=1, K=12)
        fd = (action_value(q + h * phi, V) - action_value(q, V)) / h
        r = grad.residual      # <r, phi> by polarization
        pairing = (l2_norm(r + phi) ** 2 - l2_norm(r + (-1.0) * phi) ** 2) / 4.0
        assert abs(fd - pairing) < 1e-4 * (1 + abs(pairing)) + 1e-6


def test_homogeneity_anchor_quartic():
    # For V = |x|^4/4 the selection satisfies int <v, q> = 4 int V(q) on
    # the shared quadrature grid (exact Euler identity at every node).
    V = make_quartic(2)
    rng = np.random.default_rng(9)
    q = random_trajectory(rng, T=1.5, n=2, K=10)
    N = default_grid_size(q.K)
    qs = q.sample(N)
    grads = V.gradients[0](qs)
    pairing = (q.T / N) * float(np.sum(grads * qs))
    potential = (q.T / N) * float(np.sum(V.value(qs)))
    assert np.isclose(pairing, 4.0 * potential, rtol=1e-12)


def test_h1_preconditioner_scales_modes():
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 3, K=5)
    p = h1_preconditioned(q)
    w3 = 3.0
    assert np.isclose(p.b[2, 0], 1.0 / (1.0 + w3 ** 2), rtol=1e-14)


def test_metric_choice_changes_direction_not_residual():
    V = make_quartic(1)
    rng = np.random.default_rng(10)
    q = random_trajectory(rng, T=TWO_PI, n=1, K=8)
    g_l2 = min_norm_subgradient(q, V, metric="l2")
    g_pre = min_norm_subgradient(q, V, metric="h1precond")
    assert np.allclose(g_l2.residual.a, g_pre.residual.a)
    assert g_l2.l2_norm == g_pre.l2_norm
    assert not np.allclose(g_l2.direction.a, g_pre.direction.a)
    with pytest.raises(ValueError, match="metric"):
        min_norm_subgradient(q, V, metric="h2")


# -- Cerami records ---------------------------------------------------------


def run_record(q, model, index=0):
    """The record the solver builds: the L2 norm of the min-norm residual rows."""
    R = min_norm_residuals(q.coefficients()[None], q.T, model)[0]
    return CeramiRecord.at(q, action_value(q, model), l2_norm_row(R, q.T), index)


def test_cerami_measure_zero_at_critical():
    V = make_quartic(1)
    rec = run_record(PeriodicTrajectory.zero(TWO_PI, 1, 4), V)
    assert rec.measure == 0.0 and rec.min_norm == 0.0


def test_cerami_measure_dominates_min_norm():
    V = make_quartic(1)
    rng = np.random.default_rng(11)
    for _ in range(10):
        q = random_trajectory(rng, T=TWO_PI, n=1, K=6)
        rec = run_record(q, V)
        assert rec.measure >= rec.min_norm > 0.0


def test_record_at_matches_the_field_by_field_formula():
    # CeramiRecord.at is the one place the measure is computed; it must
    # give the bits the callers' own formulas gave.
    rng = np.random.default_rng(14)
    for model in (make_quartic(1), make_maxpair(2)):
        for i in range(8):
            q = random_trajectory(rng, TWO_PI, model.dim, 6, zero_mean=False)
            g = min_norm_subgradient(q, model, metric="l2").l2_norm
            f = action_value(q, model)
            norm = h1_norm(q)
            rec = CeramiRecord.at(q, f, g, index=i)
            assert rec.h1norm == norm
            assert rec.measure == (1.0 + norm) * g
            assert rec.trajectory is q
            assert (rec.index, rec.f_value, rec.min_norm) == (i, f, g)
            assert run_record(q, model, index=i) == rec


def test_history_csv_format():
    V = make_quartic(1)
    rng = np.random.default_rng(12)
    recs = [run_record(random_trajectory(rng, TWO_PI, 1, 4), V, index=i)
            for i in range(3)]
    text = history_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,f,h1norm,minnorm,measure"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert lines[3] == recs[2].csv_row()
