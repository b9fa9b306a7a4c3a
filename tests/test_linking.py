import re
from dataclasses import replace

import numpy as np
import pytest

from liporbit.action import action_value, action_values
from liporbit.linking import (
    InfeasibleGeometryError,
    LinkingGeometry,
    NonCoerciveError,
    alpha_lower_bound,
    calibrate_saddle,
    calibrate_superquadratic,
    certify_linking,
    _ball_point,
    _box_boundary_points,
    _descend_lockstep,
    _kinetic_norm,
    _sphere_point,
    outer_boundary_bound,
    sphere_rows,
    threshold_period,
    unit_direction,
)
from liporbit.potentials import PotentialModel, make_maxpair, make_quartic, make_subq32
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


# -- batched certificates against the serial loops ------------------------


def _serial_sphere_sample(rng, T, n, K, rho):
    # The sampler as it was before the rows: one PeriodicTrajectory each.
    if rng.uniform() < 0.7:
        q = random_trajectory(rng, T, n, min(4, K), zero_mean=True, decay=1.0).pad_modes(K)
    else:
        q = random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5)
    kin = l2_norm(q.derivative())
    if kin == 0.0:
        q = PeriodicTrajectory.harmonic(T, n, 1, K=K)
        kin = l2_norm(q.derivative())
    return q * (rho / kin)


def _serial_certify_linking(geom, model, T, n_samples, K, seed):
    # One action_value call per sample, in the certificate's rng order.
    rng = np.random.default_rng(seed)
    n = model.dim
    e = geom.e.pad_modes(K) if geom.e.K < K else geom.e
    alpha = np.inf
    for _ in range(n_samples):
        alpha = min(alpha, action_value(_serial_sphere_sample(rng, T, n, K, geom.rho), model))
    beta = -np.inf
    per_face = max(n_samples // 3, 8)
    for _ in range(per_face):
        q = PeriodicTrajectory.constant(T, _ball_point(rng, n, geom.r1), K=K)
        beta = max(beta, action_value(q, model))
    beta = max(beta, action_value(PeriodicTrajectory.constant(T, np.zeros(n), K=K), model))
    for _ in range(per_face):
        x1 = _sphere_point(rng, n, geom.r1)
        s = rng.uniform(0.0, geom.r2)
        beta = max(beta, action_value(PeriodicTrajectory.constant(T, x1, K=K) + s * e, model))
    for _ in range(per_face):
        q = PeriodicTrajectory.constant(T, _ball_point(rng, n, geom.r1), K=K) + geom.r2 * e
        beta = max(beta, action_value(q, model))
    return replace(geom, alpha_sampled=float(alpha), beta_sampled=float(beta),
                   passed=bool(alpha > beta), n_samples=n_samples, seed=seed)


def _certify_case(name):
    if name == "quartic":
        V = make_quartic(1)
        return calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI), V, TWO_PI
    if name == "maxpair":
        M = make_maxpair(2)
        certs = {"A": 1.0, "radius": 1.0, "a1": 1.0, "a2": -1.0, "mu1": 4.0}
        return calibrate_superquadratic(M, certs, 2.0), M, 2.0
    if name == "forced":
        return _forced_geometry()
    V = make_quartic(1)                             # e with more modes than K
    e = unit_direction(TWO_PI, 1, K=12, mode=3)
    return calibrate_superquadratic(V, QUARTIC_CERTS, TWO_PI, e=e), V, TWO_PI


@pytest.mark.parametrize("name,K,n_samples,seed", [
    ("quartic", 32, 200, 0), ("quartic", 128, 200, 7), ("maxpair", 64, 200, 1),
    ("forced", 16, 200, 4), ("wide_e", 8, 60, 3), ("wide_e", 8, 1, 2)])
def test_batched_certificate_equals_serial_loop(name, K, n_samples, seed):
    geom, V, T = _certify_case(name)
    batched = certify_linking(geom, V, T, n_samples=n_samples, K=K, seed=seed)
    serial = _serial_certify_linking(geom, V, T, n_samples, K, seed)
    assert batched.to_dict() == serial.to_dict()
    assert batched.passed == serial.passed
    assert batched.passed == (name != "forced")


def test_sphere_sample_is_one_row_of_sphere_rows():
    # Rows draw from rng in turn: one-row calls give the rows of one call.
    for seed in range(4):
        rows = sphere_rows(np.random.default_rng(seed), 2.0, 2, 16, 1.3, 12)
        rng, rng_serial = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in rows:
            assert np.array_equal(sphere_rows(rng, 2.0, 2, 16, 1.3, 1)[0], row)
            serial = _serial_sphere_sample(rng_serial, 2.0, 2, 16, 1.3)
            assert np.array_equal(serial.coefficients(), row)


def _serial_sphere_rows(rng, T, n, K, rho, count, low_mode_fraction=0.7, low_mode_max=4):
    # sphere_rows as a loop that normalizes each row after its draws.
    rows = np.zeros((count, 2 * K + 1, n))
    for row in rows:
        if rng.uniform() < low_mode_fraction:
            k, decay = min(low_mode_max, K), 1.0
        else:
            k, decay = K, 1.5
        scale = np.arange(1, k + 1, dtype=float) ** (-decay)
        row[1:k + 1] = rng.standard_normal((k, n)) * scale[:, None]
        row[K + 1:K + 1 + k] = rng.standard_normal((k, n)) * scale[:, None]
        kin = l2_norm(PeriodicTrajectory.from_coefficients(T, row).derivative())
        if kin == 0.0:
            row[:] = 0.0
            row[K + 1, 0] = 1.0
            kin = l2_norm(PeriodicTrajectory.from_coefficients(T, row).derivative())
        row *= rho / kin
    return rows


class _ZeroRowsRng:
    """A generator whose normal draws are zeros for every third row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self):
        return self.rng.uniform()

    def standard_normal(self, shape):
        self.draws += 1
        z = self.rng.standard_normal(shape)
        return np.zeros(shape) if (self.draws - 1) // 2 % 3 == 0 else z


@pytest.mark.parametrize("T, n, K, count, low", [
    (2.0, 2, 16, 12, 0.7), (5.0, 1, 32, 200, 0.7), (1.3, 2, 64, 50, 0.0),
    (7.5, 3, 100, 20, 0.3), (0.9, 4, 1, 9, 1.0)])
def test_sphere_rows_equal_serial_row_loop(T, n, K, count, low):
    for seed in range(3):
        batched = sphere_rows(np.random.default_rng(seed), T, n, K, 1.3, count, low)
        serial = _serial_sphere_rows(np.random.default_rng(seed), T, n, K, 1.3, count, low)
        assert np.array_equal(batched, serial)
    # rows whose draws are all zero fall back to sin(w_1 t) e_1
    batched = sphere_rows(_ZeroRowsRng(0), T, n, K, 1.3, count, low)
    assert np.array_equal(batched, _serial_sphere_rows(_ZeroRowsRng(0), T, n, K, 1.3, count, low))
    harmonic = PeriodicTrajectory.harmonic(T, n, 1, K=K)
    scaled = harmonic * (1.3 / l2_norm(harmonic.derivative()))
    assert np.array_equal(batched[0], scaled.coefficients())


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


def _saddle_starts(T, n, K):
    rng = np.random.default_rng(5)
    starts = [random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5) for _ in range(5)]
    starts.insert(2, PeriodicTrajectory.zero(T, n, K))
    return np.stack([q.coefficients() for q in starts])


@pytest.mark.parametrize("name", sorted(SADDLE_CASES))
def test_lockstep_rows_equal_their_one_row_calls(name):
    # No step reaches a row from another, so each row of the batch ends
    # bitwise where it ends alone; an accepted step lowers f.
    make, _ = SADDLE_CASES[name]
    model = make()
    T, n, K = 1.0, 2, 16
    starts = _saddle_starts(T, n, K)
    got = _descend_lockstep(model, T, starts)
    alone = [_descend_lockstep(model, T, row[None])[0] for row in starts]
    assert got.tolist() == alone
    assert np.all(got <= action_values(starts, T, model))
    if name == "subq32":
        # grad V(0) = 0: the zero row stops at once beside live rows.
        assert got[2] == action_value(PeriodicTrajectory.zero(T, n, K), model)
        assert np.all(got[[0, 1, 3, 4, 5]] < got[2])


def test_lockstep_singular_block_falls_back_row_by_row(monkeypatch):
    # One row's zero-mean Jacobian block is forced singular, so the
    # stacked solve raises; that step is then taken row by row, the
    # singular row on its gradient step, and every row still ends as it
    # does alone.
    import liporbit.linking as linking

    model = SADDLE_CASES["well_eps2_0.01"][0]()
    T, n, K = 1.0, 2, 16
    starts = _saddle_starts(T, n, K)
    free = [_descend_lockstep(model, T, row[None])[0] for row in starts]
    marked = np.array([0.05, -0.05])            # the descents never move the mean
    starts[3, 0] = marked
    free[3] = _descend_lockstep(model, T, starts[3][None])[0]
    jacobians = linking.residual_jacobians

    def singular_for_marked(coeffs, T, model):
        J = jacobians(coeffs, T, model)
        J[np.all(coeffs[:, 0] == marked, axis=1), n:, n:] = 0.0
        return J

    monkeypatch.setattr(linking, "residual_jacobians", singular_for_marked)
    got = _descend_lockstep(model, T, starts)
    alone = [_descend_lockstep(model, T, row[None])[0] for row in starts]
    assert got.tolist() == alone
    assert alone[:3] + alone[4:] == free[:3] + free[4:]
    assert alone[3] != free[3]
    assert np.all(got <= action_values(starts, T, model))


def test_newton_descent_reaches_inf_on_the_subspace(monkeypatch):
    # On p = (0.3, -0.15), eps2 = 0.01 the zero loop is the minimiser of f
    # on X2 (grad V(0) is constant); the Newton descents reach its f within
    # a few residual evaluations.
    import liporbit.linking as linking

    model = SADDLE_CASES["well_eps2_0.01"][0]()
    T, n, K = 1.0, 2, 16
    rng = np.random.default_rng(0)
    starts = np.stack([random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5).coefficients()
                       for _ in range(4)])
    calls = []
    residuals = linking.min_norm_residuals
    monkeypatch.setattr(linking, "min_norm_residuals",
                        lambda *a, **kw: calls.append(1) or residuals(*a, **kw))
    got = _descend_lockstep(model, T, starts)
    inf = action_value(PeriodicTrajectory.zero(T, n, K), model)
    assert np.all(np.abs(got - inf) <= 1e-12 * abs(inf))
    assert len(calls) <= 6


def test_lockstep_descent_keeps_start_f_when_line_search_fails():
    # The gradient is reported with the wrong sign, so on the first mode
    # (w_1^2 < 2c) the Newton step looks uphill, the fallback gradient
    # climbs the true f and the line search fails at once, while on the
    # second mode (w_2^2 > 2c) the kinetic part wins and the row descends
    # beside it.
    c = 50.0
    model = PotentialModel.smooth(lambda x: -c * np.sum(x ** 2, axis=-1),
                                  lambda x: 2.0 * c * x, 2)
    rng = np.random.default_rng(2)
    starts = np.stack([q.coefficients() for q in (
        PeriodicTrajectory.harmonic(1.0, 2, 1, K=8),
        PeriodicTrajectory.harmonic(1.0, 2, 2, axis=1, K=8),
        random_trajectory(rng, 1.0, 2, 8, zero_mean=True))])
    f0 = action_values(starts, 1.0, model)
    got = _descend_lockstep(model, 1.0, starts)
    assert got[0] == f0[0]
    assert got[1] < f0[1]
    assert np.all(got <= f0)


def _staged_calibrate_saddle(model, certs, T, K, seed, n_samples=120, n_descents=4):
    # calibrate_saddle's stages in its rng order: the R doublings, then the
    # zero-mean starts drawn one loop at a time, then the descents.
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
    starts = [random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5)
              for _ in range(n_descents)]
    alpha = min(min(_descend_lockstep(model, T, row.coefficients()[None])[0]
                    for row in starts),
                action_value(PeriodicTrajectory.zero(T, n, K), model))
    return LinkingGeometry(mode="saddle", T=T, alpha_bound=inf_bound, R=R,
                           alpha_sampled=float(alpha), beta_sampled=beta,
                           passed=bool(alpha > beta and inf_bound > beta),
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


def test_calibrate_saddle_without_descents_uses_zero_loop():
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=8, n_descents=0)
    assert geom.alpha_sampled == action_value(PeriodicTrajectory.zero(1.0, 2, 8), V)


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


# -- saddle calibration ---------------------------------------------------


def test_calibrate_saddle_subq32():
    V = make_subq32(2)
    geom = calibrate_saddle(V, {"A": 1.0, "a": 27.0 / 256.0}, 1.0, K=16, seed=0)
    assert geom.mode == "saddle"
    assert geom.passed
    assert geom.R <= 4.0  # moderate radius suffices
    assert np.isclose(geom.alpha_bound, -27.0 / 256.0, rtol=1e-12)
    # descent estimate of inf f respects the analytic bound
    assert geom.alpha_sampled >= geom.alpha_bound - 1e-8
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
