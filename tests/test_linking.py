import re

import numpy as np
import pytest

from liporbit import linking
from liporbit.action import action_value, action_values
from liporbit.linking import (
    LEVEL_TOL,
    LOW_MODE_FRACTION,
    LOW_MODE_MAX,
    ZERO_MEAN_SAMPLES,
    InfeasibleGeometryError,
    LinkingGeometry,
    NonCoerciveError,
    alpha_lower_bound,
    calibrate_saddle,
    calibrate_superquadratic,
    certify_linking,
    cylinder_values,
    _box_boundary_points,
    _kinetic_norm,
    outer_boundary_bound,
    sphere_rows,
    threshold_period,
    unit_direction,
)
from liporbit.potentials import (PotentialModel, make_maxpair, make_quartic, make_subq32,
                                 make_subq32cos)
from liporbit.trajectory import PeriodicTrajectory, default_grid_size, l2_norm, random_trajectory

TWO_PI = 2.0 * np.pi

QUARTIC_CERTS = {"A": 0.25, "radius": 1.0, "a1": 0.25, "a2": 0.0, "mu1": 4.0}


# -- the quadratic lower bound ------------------------------------------


def test_alpha_bound_threshold_boundary_case():
    # At T = pi sqrt(2/A) the coefficient vanishes identically.
    assert alpha_lower_bound(1.0, np.pi * np.sqrt(2.0), 1.0) == 0.0


def test_alpha_bound_plugin_value():
    assert np.isclose(alpha_lower_bound(1.0, np.pi, 1.0), 0.25, rtol=1e-15)


def test_alpha_bound_zero_radius():
    assert alpha_lower_bound(2.0, 1.0, 0.0) == 0.0


def test_alpha_bound_quadratic_in_rho():
    A, T = 0.7, 1.3
    base = alpha_lower_bound(A, T, 1.0)
    for rho in (0.5, 2.0, 3.7):
        assert np.isclose(alpha_lower_bound(A, T, rho), base * rho ** 2, rtol=1e-14)


def test_alpha_bound_decreasing_in_T_with_exact_sign_flip():
    A = 0.8
    thr = threshold_period(A)
    Ts = np.linspace(0.1, thr * 0.999, 50)
    vals = [alpha_lower_bound(A, T, 1.0) for T in Ts]
    assert np.all(np.diff(vals) < 0)
    # the flip sits at the threshold to rounding accuracy
    assert abs(alpha_lower_bound(A, thr, 1.0)) < 1e-14
    assert alpha_lower_bound(A, thr * (1.0 + 1e-13), 1.0) < 0.0
    assert alpha_lower_bound(A, thr * (1.0 - 1e-13), 1.0) > 0.0


def test_unit_direction_is_normalized_zero_mean():
    e = unit_direction(TWO_PI, 2)
    assert np.isclose(l2_norm(e.derivative()), 1.0, rtol=1e-14)
    assert np.all(e.a0 == 0.0)


# -- superquadratic calibration -----------------------------------------


def test_calibrate_quartic_positive_alpha():
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    assert geom.alpha_bound > 0
    assert geom.r2 > geom.rho > 0
    assert geom.r1 == geom.r2 / 4.0
    # rho capped by the Sobolev map into the certificate ball
    assert np.isclose(np.sqrt(TWO_PI / 12.0) * geom.rho, 1.0, rtol=1e-12)


def test_calibrate_refuses_at_threshold():
    V = make_quartic(1)
    certs = dict(QUARTIC_CERTS, A=1.0)
    T_thr = threshold_period(1.0)
    with pytest.raises(InfeasibleGeometryError, match="threshold"):
        calibrate_superquadratic(V, certs, T_thr)
    with pytest.raises(InfeasibleGeometryError):
        calibrate_superquadratic(V, certs, T_thr * 1.5)


def test_calibrate_alpha_positive_below_threshold():
    V = make_quartic(1)
    certs = dict(QUARTIC_CERTS, A=1.0)
    geom = calibrate_superquadratic(V, certs, 0.9 * threshold_period(1.0))
    assert geom.alpha_bound > 0


def test_calibrate_r2_nonincreasing_in_a1():
    V = make_quartic(1)
    r2s = []
    for a1 in (0.05, 0.25, 1.0, 5.0):
        geom = calibrate_superquadratic(V, dict(QUARTIC_CERTS, a1=a1), TWO_PI)
        r2s.append(geom.r2)
    assert all(x >= y for x, y in zip(r2s, r2s[1:]))


def test_calibrate_validates_constants():
    V = make_quartic(1)
    with pytest.raises(ValueError, match="mu1 > 2"):
        calibrate_superquadratic(V, dict(QUARTIC_CERTS, mu1=1.5), 1.0)
    with pytest.raises(ValueError, match="a1"):
        calibrate_superquadratic(V, dict(QUARTIC_CERTS, a1=0.0), 1.0)


@pytest.mark.parametrize("case", ["scaled", "mean", "period", "dimension"])
def test_calibrate_refuses_a_direction_off_the_jensen_bound(case):
    # The outer-boundary bound assumes a zero-mean e with ||edot||_L2 = 1
    # at the calibrated T and n.  3 e calibrated a too small r2 and still
    # passed; a mean of 0.5 failed the certificate without saying why.
    V, T = make_quartic(1), 6.0
    e = unit_direction(T, 1)
    e = {"scaled": 3.0 * e,
         "mean": e + PeriodicTrajectory.constant(T, [0.5]),
         "period": unit_direction(2.0 * T, 1),
         "dimension": unit_direction(T, 2)}[case]
    with pytest.raises(ValueError, match="direction e"):
        calibrate_superquadratic(V, QUARTIC_CERTS, T, e=e)


def test_calibrate_accepts_a_unit_direction_to_rounding():
    e = unit_direction(6.0, 1, K=12, mode=3) * (1.0 + 5e-13)
    assert calibrate_superquadratic(make_quartic(1), QUARTIC_CERTS, 6.0, e=e).e is e


def test_outer_bound_dominates_f_on_rays():
    # The Jensen bound must sit above the true action along x1 + s e.
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    e = geom.e.pad_modes(8)
    e_l2sq = l2_norm(e) ** 2
    rng = np.random.default_rng(0)
    for _ in range(30):
        s = rng.uniform(0, geom.r2)
        x1 = rng.uniform(-geom.r1, geom.r1, size=1)
        q = PeriodicTrajectory.constant(TWO_PI, x1, K=8) + s * e
        f = action_value(q, V)
        bound = outer_boundary_bound(s, np.linalg.norm(x1), QUARTIC_CERTS,
                                     TWO_PI, e_l2sq)
        assert f <= bound + 1e-9


def test_certify_linking_quartic_passes():
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    geom = certify_linking(geom, V, TWO_PI, n_samples=150, K=16, seed=0)
    assert geom.passed
    assert geom.alpha_sampled > geom.beta_sampled
    assert geom.alpha_sampled >= geom.alpha_bound - 1e-8


def test_sphere_samples_respect_certificate_ball_and_bound():
    # calibrate_superquadratic caps rho so that sup |q| <= sqrt(T/12) rho
    # (Sobolev) keeps every sphere loop in the ball where V <= A |x|^2;
    # there f >= alpha_lower_bound (Wirtinger), the level the run gates on.
    V = make_quartic(2)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    rows = sphere_rows(np.random.default_rng(1), TWO_PI, 2, 16, geom.rho, 40)
    assert np.allclose(_kinetic_norm(rows, TWO_PI), geom.rho, rtol=1e-12)
    assert np.all(rows[:, 0] == 0.0)
    for row in rows:
        q = PeriodicTrajectory.from_coefficients(TWO_PI, row)
        sup = np.max(np.linalg.norm(q.sample(32 * default_grid_size(q.K)), axis=1))
        assert sup <= np.sqrt(TWO_PI / 12.0) * geom.rho + 1e-9   # = the ball radius
    assert np.min(action_values(rows, TWO_PI, V)) >= geom.alpha_bound - 1e-8


@pytest.mark.parametrize("A, T, rho, n", [(0.25, TWO_PI, 1.7, 1), (1.0, 2.0, 0.4, 2),
                                          (0.05, 9.0, 3.0, 3)])
def test_alpha_lower_bound_is_attained_by_the_first_harmonic(A, T, rho, n):
    # For V = A |x|^2 Wirtinger holds with equality on the first harmonic,
    # so f(rho e) is exactly the bound.
    V = PotentialModel.smooth(lambda x: A * np.sum(x ** 2, axis=-1), lambda x: 2.0 * A * x,
                              n, "quadratic")
    f = action_value(unit_direction(T, n, K=8) * rho, V)
    bound = alpha_lower_bound(A, T, rho)
    assert abs(f - bound) <= 1e-12 * abs(bound)


def test_alpha_sampled_is_min_over_stream():
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    geom = certify_linking(geom, V, TWO_PI, n_samples=60, K=8, seed=3)
    rows = sphere_rows(np.random.default_rng(3), TWO_PI, 1, 8, geom.rho, 60)
    vals = [action_value(PeriodicTrajectory.from_coefficients(TWO_PI, row), V) for row in rows]
    assert geom.alpha_sampled == min(vals)


def test_constant_loops_inside_disk_nonpositive():
    V = make_quartic(1)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x1 = rng.uniform(-0.5, 0.5, size=1)
        q = PeriodicTrajectory.constant(TWO_PI, x1, K=4)
        assert action_value(q, V) <= 0.0


def _forced_geometry():
    # A potential with a genuine quadratic part: V = |x|^2/2 + |x|^4/4,
    # so A = 1/2 + margin near zero, with a geometry set above the
    # threshold.
    def val(x):
        r2 = np.sum(x ** 2, axis=-1)
        return 0.5 * r2 + 0.25 * r2 ** 2

    def grad(x):
        r2 = np.sum(x ** 2, axis=-1)
        return (1.0 + r2)[..., None] * x

    V = PotentialModel.smooth(val, grad, 1)
    T = 1.2 * threshold_period(0.5)
    e = unit_direction(T, 1)
    geom = LinkingGeometry(mode="superquadratic", T=T,
                           alpha_bound=alpha_lower_bound(0.5, T, 1.0),
                           rho=1.0, r1=1.0, r2=4.0, e=e)
    return geom, V, T


def test_forced_geometry_above_threshold_fails_certificate():
    # Above the threshold the sphere level drops below the boundary
    # level and the certificate reports the failure rather than raising.
    geom, V, T = _forced_geometry()
    assert geom.alpha_bound < 0
    geom = certify_linking(geom, V, T, n_samples=200, K=16, seed=4)
    assert not geom.passed


@pytest.mark.parametrize("n_samples", [0, -5])
def test_certify_linking_rejects_empty_certificate(n_samples):
    # With no sphere sample alpha_sampled would be +inf: a pass with
    # nothing sampled, and not valid JSON in geometry.json.
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    with pytest.raises(ValueError, match="n_samples"):
        certify_linking(geom, V, TWO_PI, n_samples=n_samples, K=8)


@pytest.mark.parametrize("T,model", [(TWO_PI * (1 + 1e-12), make_quartic(1)),
                                     (TWO_PI, make_quartic(2))])
def test_certify_linking_rejects_direction_off_the_loops(T, model):
    # e carries the calibration's T and n; rows x1 + s e need both to match.
    geom = calibrate_superquadratic(make_quartic(1), QUARTIC_CERTS, TWO_PI)
    with pytest.raises(ValueError, match="direction e"):
        certify_linking(geom, model, T, n_samples=10, K=8)


def test_certify_linking_requires_the_calibrated_period_exactly():
    # e carries geom.T exactly, so any other T, however close, is refused
    # up front, and the message names the calibrated T.
    geom = calibrate_superquadratic(make_quartic(1), QUARTIC_CERTS, TWO_PI)
    with pytest.raises(ValueError, match=re.escape(f"calibrated for T = {geom.T!r},")):
        certify_linking(geom, make_quartic(1), geom.T * (1 + 1e-12), n_samples=10, K=8)


# -- the sampled sets ----------------------------------------------------


MAXPAIR_CERTS = {"A": 1.0, "radius": 1.0, "a1": 1.0, "a2": -1.0, "mu1": 4.0}


def _certify_case(name):
    if name == "quartic":
        V = make_quartic(1)
        return calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI), V, TWO_PI
    if name == "maxpair":
        M = make_maxpair(2)
        return calibrate_superquadratic(M, MAXPAIR_CERTS, 2.0), M, 2.0
    if name == "forced":
        return _forced_geometry()
    V = make_quartic(1)                             # e with more modes than K
    e = unit_direction(TWO_PI, 1, K=12, mode=3)
    return calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI, e=e), V, TWO_PI


def _drawn_rows(monkeypatch, geom, V, T, **kwargs):
    """certify_linking's result, the sphere rows it handed to action_values
    and the (e, K, x1, s) of its one cylinder_values call."""
    sphere, faces = [], []

    def recording_rows(rows, T, model):
        sphere.append(rows.copy())
        return action_values(rows, T, model)

    def recording_pairs(e, K, x1, s, model):
        faces.append((e, K, x1.copy(), s.copy()))
        return cylinder_values(e, K, x1, s, model)

    monkeypatch.setattr(linking, "action_values", recording_rows)
    monkeypatch.setattr(linking, "cylinder_values", recording_pairs)
    geom = certify_linking(geom, V, T, **kwargs)
    assert len(sphere) == len(faces) == 1
    return geom, sphere[0], faces[0]


def _face_rows(e, K, x1, s):
    """Coefficient rows of the loops x1 + s e at K modes."""
    rows = s[:, None, None] * e.pad_modes(K).coefficients()
    rows[:, 0] += x1
    return rows


CERTIFY_CASES = [("quartic", 32, 200, 0), ("quartic", 128, 200, 7), ("maxpair", 64, 200, 1),
                 ("forced", 16, 200, 4), ("wide_e", 8, 60, 3), ("wide_e", 8, 1, 2)]


@pytest.mark.parametrize("name,K,n_samples,seed", CERTIFY_CASES)
def test_every_face_row_lies_on_its_face(monkeypatch, name, K, n_samples, seed):
    # Q's boundary: the bottom disk s = 0, the lateral shell |x1| = r1 with
    # 0 <= s <= r2 and the top disk s = r2, each |x1| <= r1; plus the zero loop.
    geom, V, T = _certify_case(name)
    _, sphere, (e, width, x1s, s) = _drawn_rows(monkeypatch, geom, V, T, n_samples=n_samples,
                                                K=K, seed=seed)
    m = max(n_samples // 3, 8)
    assert e is geom.e and width == max(K, geom.e.K)
    assert sphere.shape[1] == 2 * K + 1 and x1s.shape == (3 * m + 1, V.dim)
    assert s.shape == (3 * m + 1,)
    x1 = np.linalg.norm(x1s, axis=1)
    inside = x1 <= geom.r1 * (1.0 + 1e-12)
    bottom = inside & (np.abs(s) <= 1e-12 * geom.r2)
    lateral = np.isclose(x1, geom.r1, rtol=1e-12, atol=0.0) & (s >= 0.0) & (s <= geom.r2)
    top = inside & np.isclose(s, geom.r2, rtol=1e-12, atol=0.0)
    assert np.all(bottom | lateral | top)
    assert (bottom.sum(), lateral.sum(), top.sum()) == (m + 1, m, m)
    assert np.any((x1 == 0.0) & (s == 0.0))                       # the zero loop
    assert len(np.unique(x1[bottom | top])) == 2 * m + 1          # disk points spread


def _unit(e):
    return e * (1.0 / l2_norm(e.derivative()))


def _cylinder_case(name):
    """(model, e, K, x1 (C, n), s (P,)) of a kernel case."""
    rng = np.random.default_rng(5)
    if name == "maxpair-kink":
        # e peaks at the node t = T/4, so s = 1 / e(T/4) puts the nodes
        # there on |x| = 1, where the two pieces meet; x1 on the kink too.
        T, K = 2.0, 16
        e = unit_direction(T, 2)
        peak = float(np.max(np.abs(e.sample(default_grid_size(K))[:, 0])))
        x1 = np.vstack([np.zeros(2), [0.6, 0.8], [1.0, 0.0], rng.uniform(-1, 1, (3, 2))])
        s = np.concatenate([[0.0, 1.0 / peak, 0.5 / peak], rng.uniform(0, 3, 4)])
        return make_maxpair(2), e, K, x1, s
    if name == "forced":
        geom, V, T = _forced_geometry()
        return V, geom.e, 16, rng.uniform(-1, 1, (4, 1)), rng.uniform(0, 4, 5)
    T, K = TWO_PI, 24
    e = {"quartic": unit_direction(T, 1), "mode3": unit_direction(T, 1, K=12, mode=3),
         "mode2": unit_direction(T, 1, mode=2),
         # e(T/2 - t) != e(t) for both: sin + sin 2 and sin + cos of 2 pi t / T
         "sin+sin2": _unit(PeriodicTrajectory(T, [0.0], [[0.0], [0.0]], [[1.0], [1.0]])),
         "sin+cos": _unit(PeriodicTrajectory(T, [0.0], [[1.0]], [[1.0]]))}[name]
    return make_quartic(1), e, K, rng.uniform(-1, 1, (4, 1)), rng.uniform(0, 5, 6)


CYLINDER_CASES = ["quartic", "maxpair-kink", "forced", "mode3", "mode2", "sin+sin2", "sin+cos"]


@pytest.mark.parametrize("name", CYLINDER_CASES)
def test_cylinder_values_are_action_values_of_the_rows(name):
    # mode2, sin+sin2 and sin+cos break e(T/2 - t) = e(t).  Folding the
    # nodes of the last two would miss the half of the grid that differs;
    # a pure mode 2 is T/2-periodic, so its folded sum equals the full one
    # in exact arithmetic, and only the node count shows a wrong fold.
    model, e, K, x1, s = _cylinder_case(name)
    vals = cylinder_values(e, K, x1[:, None], s, model)
    assert vals.shape == (len(x1), len(s))
    for x, row in zip(x1, vals):
        exact = action_values(_face_rows(e, K, np.broadcast_to(x, (len(s), len(x))), s),
                              e.T, model)
        assert np.all(np.abs(row - exact) <= 1e-12 * (1.0 + np.abs(exact))), (row, exact)


@pytest.mark.parametrize("name", CYLINDER_CASES)
def test_cylinder_values_give_a_loop_the_bits_of_its_block(name):
    model, e, K, x1, s = _cylinder_case(name)
    block = cylinder_values(e, K, x1[:, None], s, model)
    for x, row in zip(x1, block):
        assert np.array_equal(cylinder_values(e, K, x[None, None], s, model)[0], row)
        assert np.array_equal([cylinder_values(e, K, x, t, model) for t in s], row)
    paired = cylinder_values(e, K, x1[:, None].repeat(len(s), axis=1).reshape(-1, len(x1[0])),
                             np.tile(s, len(x1)), model)
    assert np.array_equal(paired, block.ravel())


@pytest.mark.parametrize("name, nodes", [("quartic", 51), ("mode3", 51), ("mode2", 100),
                                         ("sin+sin2", 100), ("sin+cos", 100)])
def test_cylinder_values_evaluate_half_the_nodes_of_a_symmetric_direction(name, nodes):
    # K = 24: N = 100 nodes, folded to N/2 + 1 = 51 when e(T/2 - t) = e(t).
    quartic, e, K, x1, s = _cylinder_case(name)
    seen = []

    def value(x):
        seen.append(np.prod(np.shape(x)[:-1]))
        return quartic.value(x)

    model = PotentialModel.smooth(value, quartic.gradients[0], 1)
    cylinder_values(e, K, x1[:, None], s, model)
    assert seen == [len(x1) * len(s) * nodes]


@pytest.mark.parametrize("T, n, K, count", [(2.0, 2, 16, 2000), (5.0, 1, 32, 2000),
                                            (1.3, 3, 6, 2000)])
def test_sphere_rows_are_zero_mean_on_the_sphere_with_two_decay_laws(T, n, K, count):
    rows = sphere_rows(np.random.default_rng(17), T, n, K, 1.3, count)
    assert rows.shape == (count, 2 * K + 1, n)
    assert np.all(rows[:, 0] == 0.0)
    assert np.allclose(_kinetic_norm(rows, T), 1.3, rtol=1e-12, atol=0.0)
    # low-mode rows carry nothing above LOW_MODE_MAX; the rest carry every mode
    modes = rows[:, 1:].reshape(count, 2, K, n)
    low = np.all(modes[:, :, LOW_MODE_MAX:] == 0.0, axis=(1, 2, 3))
    assert np.all(modes[~low] != 0.0)
    assert abs(low.mean() - LOW_MODE_FRACTION) < 4.0 * np.sqrt(0.21 / count)
    # amplitude k^-decay times a standard normal: after removing k^-decay
    # and each row's scale, every mode has unit mean square
    k = np.arange(1, K + 1, dtype=float)
    for rows_of, decay, top in ((low, 1.0, LOW_MODE_MAX), (~low, 1.5, K)):
        w = modes[rows_of][:, :, :top] * (k[:top] ** decay)[:, None]
        w /= np.sqrt(np.mean(w ** 2, axis=(1, 2, 3)))[:, None, None, None]
        per_mode = np.mean(w ** 2, axis=(0, 1, 3))
        assert np.all(np.abs(per_mode - 1.0) < 0.15), per_mode


@pytest.mark.parametrize("name,K,n_samples,seed", CERTIFY_CASES)
def test_sampled_extremes_are_action_values_of_the_drawn_rows(monkeypatch, name, K,
                                                              n_samples, seed):
    geom, V, T = _certify_case(name)
    geom, sphere, (e, width, x1, s) = _drawn_rows(monkeypatch, geom, V, T, n_samples=n_samples,
                                                  K=K, seed=seed)
    assert len(sphere) == n_samples == geom.n_samples
    one_row = [[action_value(PeriodicTrajectory.from_coefficients(T, row), V)
                for row in rows] for rows in (sphere, _face_rows(e, width, x1, s))]
    assert geom.alpha_sampled == min(one_row[0])
    beta = max(one_row[1])
    assert abs(geom.beta_sampled - beta) <= 1e-12 * (1.0 + abs(beta))
    if one_row[1][-1] == beta:                                    # the zero loop is the max
        assert geom.beta_sampled == beta
    assert geom.passed == (geom.alpha_sampled > geom.beta_sampled
                           and geom.alpha_sampled >= geom.alpha_bound - LEVEL_TOL)
    assert geom.passed == (name != "forced")


def _bench_geometry(name, T, K):
    if name == "maxpair":
        return calibrate_superquadratic(make_maxpair(2), MAXPAIR_CERTS, T), make_maxpair(2)
    V = make_quartic(int(name[-1]))
    return calibrate_superquadratic(V, QUARTIC_CERTS, T), V


# The (T, K) grids of the smooth-sweep and kink-sweep benchmarks.
SMOOTH_GRID = [(3.5 + 0.5 * j, (32, 64, 128)[j % 3]) for j in range(11)]
KINK_GRID = [(T, 64) for T in (1.5, 1.625, 1.75, 1.875, 2.0, 2.25, 2.4)]


@pytest.mark.parametrize("name", ["quartic1", "quartic2", "maxpair"])
def test_certificate_verdict_holds_at_the_benchmark_inputs(name):
    for T, K in KINK_GRID if name == "maxpair" else SMOOTH_GRID:
        geom, V = _bench_geometry(name, T, K)
        for seed in range(10):
            assert certify_linking(geom, V, T, K=K, seed=seed).passed, (T, K, seed)
    geom, V, T = _forced_geometry()
    for seed in range(10):
        assert not certify_linking(geom, V, T, K=16, seed=seed).passed


def test_row_norms_equal_trajectory_norms():
    rng = np.random.default_rng(11)
    for i in range(50):
        T, n, K = rng.uniform(0.5, 9.0), int(rng.integers(1, 4)), int(rng.integers(1, 40))
        q = random_trajectory(rng, T, n, K, zero_mean=bool(i % 2))
        if i % 3 == 0:
            q = q.pad_modes(K + int(rng.integers(1, 20)))
        assert _kinetic_norm(q.coefficients(), T) == l2_norm(q.derivative())


def _shifted_well(p, eps2):
    def value(x):
        d2 = np.sum((x - p) ** 2, axis=-1)
        return (d2 + eps2) ** 0.75 - eps2 ** 0.75

    def grad(x):
        d = x - p
        d2 = np.sum(d ** 2, axis=-1)
        return (1.5 * (d2 + eps2) ** -0.25)[..., None] * d

    return PotentialModel.smooth(value, grad, 2)


SADDLE_CASES = {
    "well_eps2_0.01": (lambda: _shifted_well(np.array([0.3, -0.15]), 0.01), 1.0),
    "well_eps2_0": (lambda: _shifted_well(np.array([-0.2, 0.35]), 0.0), 1.0),
    "subq32": (lambda: make_subq32(2), 27.0 / 256.0),
}


def _staged_calibrate_saddle(model, certs, T, K, seed, n_samples=120):
    # calibrate_saddle's stages in its rng order: the R doublings, then the
    # zero-mean starts drawn one loop at a time, each evaluated alone.
    a = float(certs["a"])
    rng = np.random.default_rng(seed)
    n = model.dim
    inf_bound = -a * T
    R = 1.0
    for _ in range(40):
        pts = _box_boundary_points(rng, n, R, n_samples)
        beta = float(np.max(-T * model.value(pts)))
        if beta <= inf_bound - 1e-3 * T * (1.0 + abs(a)):
            break
        R *= 2.0
    loops = [PeriodicTrajectory.zero(T, n, K)] + [
        random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5) for _ in range(4)]
    alpha = min(action_value(q, model) for q in loops)
    return LinkingGeometry(mode="saddle", T=T, alpha_bound=inf_bound, R=R,
                           alpha_sampled=float(alpha), beta_sampled=beta,
                           passed=bool(alpha > beta and inf_bound > beta
                                       and alpha >= inf_bound - 1e-8),
                           n_samples=n_samples, seed=seed)


@pytest.mark.parametrize("name", sorted(SADDLE_CASES))
def test_calibrate_saddle_equals_its_stages(name):
    make, a = SADDLE_CASES[name]
    model = make()
    for seed in (0, 3):
        geom = calibrate_saddle(model, {"A": 1.0, "a": a}, 1.0, K=16, seed=seed)
        ref = _staged_calibrate_saddle(model, {"A": 1.0, "a": a}, 1.0, 16, seed)
        assert geom.to_dict() == ref.to_dict()
        assert geom.alpha_sampled >= geom.alpha_bound


@pytest.mark.parametrize("name", sorted(SADDLE_CASES))
def test_saddle_alpha_sampled_is_min_over_zero_loop_and_drawn_starts(monkeypatch, name):
    # One action_values call over the zero loop and ZERO_MEAN_SAMPLES
    # random zero-mean rows drawn after the boundary points; its min
    # equals the min of one-row action_value calls.
    make, a = SADDLE_CASES[name]
    model = make()
    blocks = []

    def recording(rows, T, model):
        blocks.append(rows.copy())
        return action_values(rows, T, model)

    monkeypatch.setattr(linking, "action_values", recording)
    geom = calibrate_saddle(model, {"A": 1.0, "a": a}, 1.0, K=8, seed=2)
    (rows,) = blocks
    assert rows.shape == (ZERO_MEAN_SAMPLES + 1, 17, 2)
    assert np.all(rows[0] == 0.0) and np.all(rows[:, 0] == 0.0)
    assert np.all(np.any(rows[1:] != 0.0, axis=(1, 2)))
    loops = [PeriodicTrajectory.from_coefficients(1.0, row) for row in rows]
    assert geom.alpha_sampled == min(action_value(q, model) for q in loops)
    assert geom.alpha_sampled <= action_value(PeriodicTrajectory.zero(1.0, 2, 8), model)


def _saddle_verdict_cases():
    # subq32 and subq32cos at their zoo constants, and benchmark-style
    # shifted wells at the benchmark's constants A = a = 1.
    yield "subq32", make_subq32(2), {"A": 1.0, "a": 27.0 / 256.0}
    yield "subq32cos", make_subq32cos(2), {"A": 1.0, "a": 0.5}
    rng = np.random.default_rng(9)
    for eps2 in (0.0, 0.01, 0.1):
        for _ in range(3):
            p = rng.uniform(-0.4, 0.4, size=2)
            yield f"well eps2={eps2}", _shifted_well(p, eps2), {"A": 1.0, "a": 1.0}


def test_saddle_verdict_is_the_analytic_bound_over_the_boundary_sup():
    # V4' holds on every case, so no sample sits below the bound and the
    # verdict is inf_bound > beta_sampled alone.
    for name, model, certs in _saddle_verdict_cases():
        for K, seed in ((16, 0), (64, 1)):
            geom = calibrate_saddle(model, certs, 1.0, K=K, seed=seed)
            assert geom.alpha_sampled >= geom.alpha_bound, (name, K, seed)
            assert geom.passed == (geom.alpha_bound > geom.beta_sampled), (name, K, seed)
            assert geom.passed, (name, K, seed)


def test_a_sample_below_the_analytic_bound_fails_the_certificate():
    # a < 0 claims f >= -a T > 0 on X2, which the zero loop (f = 0) breaks;
    # a sphere level A below the true curvature does the same on S.
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": -1.0}, 1.0, K=16, seed=0)
    assert geom.alpha_sampled == 0.0 < geom.alpha_bound and geom.beta_sampled < 0.0
    assert not geom.passed
    certs = dict(QUARTIC_CERTS, A=0.05)
    V = make_quartic(1)
    geom = certify_linking(calibrate_superquadratic(V, certs, 6.0), V, 6.0, K=32, seed=0)
    assert geom.beta_sampled < geom.alpha_sampled < geom.alpha_bound - LEVEL_TOL
    assert not geom.passed


def test_certificate_json_schema():
    V = make_quartic(1)
    geom = calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI)
    geom = certify_linking(geom, V, TWO_PI, n_samples=40, K=8, seed=5)
    d = geom.to_dict()
    assert set(d) == {"mode", "T", "rho", "r1", "r2", "R", "alpha_bound",
                      "alpha_sampled", "beta_sampled", "pass", "samples", "seed"}
    assert d["pass"] is True
    assert d["samples"] == 40


def test_geometry_invariants_enforced():
    e = unit_direction(1.0, 1)
    with pytest.raises(ValueError, match="r2 > rho"):
        LinkingGeometry(mode="superquadratic", T=1.0, alpha_bound=0.1,
                        rho=2.0, r1=1.0, r2=1.5, e=e)
    with pytest.raises(ValueError, match="alpha_sampled > beta_sampled"):
        LinkingGeometry(mode="superquadratic", T=1.0, alpha_bound=0.1,
                        rho=1.0, r1=1.0, r2=2.0, e=e,
                        alpha_sampled=0.1, beta_sampled=0.5, passed=True)
    with pytest.raises(ValueError, match="alpha_sampled >= alpha_bound"):
        LinkingGeometry(mode="saddle", T=1.0, alpha_bound=1.0, R=1.0,
                        alpha_sampled=0.0, beta_sampled=-1.0, passed=True)
    LinkingGeometry(mode="saddle", T=1.0, alpha_bound=1.0, R=1.0,     # within LEVEL_TOL
                    alpha_sampled=1.0 - 0.5 * LEVEL_TOL, beta_sampled=-1.0, passed=True)


# -- saddle calibration ---------------------------------------------------


def test_calibrate_saddle_subq32():
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=16, seed=0)
    assert geom.mode == "saddle"
    assert geom.passed
    assert geom.R <= 4.0  # moderate radius suffices
    assert np.isclose(geom.alpha_bound, -27.0 / 256.0, rtol=1e-12)
    # the sampled f on X2 respects the analytic bound
    assert geom.alpha_sampled >= geom.alpha_bound - LEVEL_TOL
    assert geom.beta_sampled < geom.alpha_bound


def test_calibrate_saddle_threshold_violation():
    # Quadratic-dominated potential above the admissible window.
    V = make_subq32(1)
    with pytest.raises(InfeasibleGeometryError, match="threshold"):
        calibrate_saddle(V, {"A": 8.0, "a": 1.0}, 2.0, K=8)


def test_calibrate_saddle_non_coercive():
    # V = tanh(|x|^2) is bounded by 1, so against the V4' floor -aT with
    # a = 2 the boundary sup -T tanh(R^2) ~ -T can never drop below it.
    bounded = PotentialModel.smooth(
        lambda x: np.tanh(np.sum(x ** 2, axis=-1)),
        lambda x: (2.0 / np.cosh(np.sum(x ** 2, axis=-1)) ** 2)[..., None] * x,
        dim=2)
    with pytest.raises(NonCoerciveError, match="coercive"):
        calibrate_saddle(bounded, {"A": 1.0, "a": 2.0}, 1.0, K=8,
                         max_doublings=6)


def test_certify_linking_mode_guard():
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=8, seed=0)
    with pytest.raises(ValueError, match="superquadratic"):
        certify_linking(geom, V, 1.0)


def test_maxpair_geometry_for_nonsmooth_runs():
    M = make_maxpair(2)
    certs = {"A": 1.0, "radius": 1.0, "a1": 1.0, "a2": -1.0, "mu1": 4.0}
    geom = calibrate_superquadratic(M, certs, 2.0)
    geom = certify_linking(geom, M, 2.0, n_samples=100, K=16, seed=0)
    assert geom.passed
    assert geom.alpha_bound > 0
