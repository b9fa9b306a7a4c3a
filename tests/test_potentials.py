import numpy as np
import pytest

from liporbit.potentials import (
    HYPOTHESIS_PARAMS,
    ZOO_PARAMS,
    PotentialModel,
    SamplerSpec,
    _pairing_extremes,
    _sq_norm,
    active_set,
    certify,
    from_spec,
    make_maxpair,
    make_maxpoly,
    make_quartic,
    make_subq32,
    make_subq32cos,
    subdiff,
)


def abs_model():
    """|x| in one dimension as the max of the two linear pieces."""
    return PotentialModel.piecewise_max(
        [(lambda x: x[..., 0], lambda x: np.ones_like(x)),
         (lambda x: -x[..., 0], lambda x: -np.ones_like(x))], dim=1)


# -- values and subdifferentials -----------------------------------------


def test_smooth_quartic_single_vertex():
    V = make_quartic(2)
    sg = subdiff(V, np.array([1.0, 0.0]))
    assert sg.vertices.shape == (1, 2)
    assert np.allclose(sg.vertices[0], [1.0, 0.0])  # grad = |x|^2 x


def test_maxpair_two_vertices_on_switching_sphere():
    V = make_maxpair(2)
    x = np.array([1.0, 0.0])
    sg = subdiff(V, x)
    assert sg.vertices.shape == (2, 2)
    assert np.allclose(sorted(sg.vertices[:, 0]), [4.0, 8.0])


def test_maxpair_single_vertex_at_origin():
    V = make_maxpair(2)
    sg = subdiff(V, np.zeros(2))
    assert sg.vertices.shape == (1, 2)
    assert np.allclose(sg.vertices[0], 0.0)
    assert sg.active == (0,)  # piece 1 wins: 0 > -1


def test_piecewise_value_is_max_of_pieces():
    V = make_maxpair(2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        pieces = [v(x) for v in V.values]
        assert float(V.value(x)) == max(pieces)


def test_active_set_reproduces_every_site_rule():
    # The rules each call site wrote out before sharing active_set, restated.
    V = make_maxpair(2)
    pts = SamplerSpec(count=300, seed=3).points(2)
    theta = np.linspace(0.0, 2.0 * np.pi, 40)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.vstack([pts, circle, circle * (1.0 + 3e-8), circle * (1.0 - 3e-8)])
    vals = V.piece_values(pts)
    top = np.max(vals, axis=0)
    rel = 1e-8 * (1.0 + np.abs(top))
    fixed = 2.5e-7
    # subdiff: one point, the relative default or a given scalar tolerance
    for col in vals.T:
        default = 1e-8 * (1.0 + float(np.max(np.abs(np.max(col)))))
        assert np.array_equal(active_set(col), col >= np.max(col) - default)
        assert np.array_equal(active_set(col, fixed), col >= np.max(col) - fixed)
    # _pairing_extremes, inclusion_residual
    assert np.array_equal(active_set(vals), vals >= top - rel)
    # inclusion_residual with a given tolerance, and its 10x exclusion band
    assert np.array_equal(active_set(vals, fixed), vals >= top - np.full(top.size, fixed))
    assert np.array_equal(active_set(vals, widen=10.0), vals >= top - 10.0 * rel)
    assert np.array_equal(active_set(vals, fixed, widen=10.0),
                          vals >= top - 10.0 * np.full(top.size, fixed))
    # action._select: the relative or given tolerance widened by 10
    assert np.array_equal(active_set(vals, None, 10.0), vals >= top - rel * 10.0)
    assert np.array_equal(active_set(vals, fixed, 10.0),
                          vals >= top - np.full(top.size, fixed) * 10.0)
    # the band edges fall inside the sample
    assert 0 < np.sum(active_set(vals, widen=10.0)) - np.sum(active_set(vals)) < pts.shape[0]


def test_negative_tol_rejected():
    V = make_maxpair(2)
    with pytest.raises(ValueError):
        subdiff(V, np.zeros(2), tol_active=-1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subdiff_rejects_non_finite_point(bad):
    with pytest.raises(ValueError, match="x must be finite"):
        subdiff(make_maxpair(2), np.array([bad, 0.0]))


@pytest.mark.parametrize("make", [make_quartic, make_maxpair, make_subq32])
def test_pairing_extremes_match_subdiff_loop(make):
    V = make(2)
    pts = SamplerSpec(count=400, seed=5).points(2)
    theta = np.linspace(0.0, 2.0 * np.pi, 16)
    pts = np.vstack([pts, np.column_stack([np.cos(theta), np.sin(theta)])])
    for minimum, pick in ((True, np.min), (False, np.max)):
        loop = np.array([pick(subdiff(V, x).vertices @ x) for x in pts])
        # Batched gradient maps may round differently from one-point calls.
        np.testing.assert_allclose(_pairing_extremes(V, pts, minimum), loop,
                                   rtol=8 * np.finfo(float).eps, atol=0.0)


def test_gradient_fd_audit_on_zoo():
    # Central differences of every piece value against its gradient map.
    rng = np.random.default_rng(1)
    h = 1e-6
    for model in (make_quartic(2), make_maxpair(3), make_subq32cos(2)):
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=model.dim)
            for val, grad in zip(model.values, model.gradients):
                g = np.asarray(grad(x), dtype=float)
                fd = np.array([(val(x + e) - val(x - e)) / (2 * h)
                               for e in h * np.eye(model.dim)])
                assert np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g)) < 1e-5


# -- Clarke directional derivative ---------------------------------------
#
# For smooth and max-type V the generalized gradient is the hull of the
# vertices subdiff returns, so V0(x; v) = max <g, v> over them; with
# v = +-x this is the pairing _pairing_extremes gives the V2 / V2' margins.


def clarke(model, x, v):
    return float(np.max(subdiff(model, x).vertices @ np.asarray(v, dtype=float)))


def clarke_fd(model, x, v, rng, n_base=16, n_steps=4, radius=2e-7):
    """sup (V(y + s v) - V(y)) / s over base points y within s of x, the
    limsup over y -> x, s -> 0+ at scales just above rounding noise."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    best = -np.inf
    for s in radius * 2.0 ** -np.arange(n_steps):
        offsets = rng.standard_normal((n_base, x.shape[0]))
        offsets *= s / np.maximum(np.linalg.norm(offsets, axis=1, keepdims=True), 1e-300)
        y = np.vstack([x + offsets, x])
        best = max(best, float(np.max((model.value(y + s * v) - model.value(y)) / s)))
    return best


def test_clarke_smooth_case():
    V = make_quartic(2)
    x = np.array([[1.0, 0.0]])
    assert np.isclose(clarke(V, x[0], x[0]), 1.0)
    assert _pairing_extremes(V, x, True) == _pairing_extremes(V, x, False) == 1.0


def test_clarke_maxpair_picks_largest_pairing():
    V = make_maxpair(2)
    x = np.array([[1.0, 0.0]])
    assert np.isclose(clarke(V, x[0], x[0]), 8.0)
    assert _pairing_extremes(V, x, False) == 8.0 and _pairing_extremes(V, x, True) == 4.0


def test_clarke_absolute_value_at_kink():
    V = abs_model()
    assert np.isclose(clarke(V, np.zeros(1), np.ones(1)), 1.0)


def test_clarke_linear_in_v_for_smooth():
    V = make_quartic(3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    v, w = rng.standard_normal(3), rng.standard_normal(3)
    lhs = clarke(V, x, v + 0.7 * w)
    rhs = clarke(V, x, v) + 0.7 * clarke(V, x, w)
    assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


def test_clarke_sublinear_and_positively_homogeneous():
    V = make_maxpair(2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=2)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        lam = rng.uniform(0, 3)
        f_v = clarke(V, x, v)
        f_w = clarke(V, x, w)
        f_vw = clarke(V, x, v + w)
        assert f_vw <= f_v + f_w + 1e-10 * (1 + abs(f_v) + abs(f_w))
        assert np.isclose(clarke(V, x, lam * v), lam * f_v, rtol=1e-12, atol=1e-12)


def test_clarke_fd_estimator_agrees_away_from_kinks():
    V = make_maxpair(2)
    rng = np.random.default_rng(6)
    count = 0
    while count < 30:
        x = rng.uniform(-1.8, 1.8, size=2)
        if abs(np.linalg.norm(x) - 1.0) <= 1e-3:
            continue
        v = rng.standard_normal(2)
        exact = clarke(V, x, v)
        est = clarke_fd(V, x, v, np.random.default_rng(count))
        assert abs(est - exact) < 1e-5 * (1 + abs(exact))
        count += 1


def test_clarke_fd_estimator_sees_the_kink():
    # Both pieces of |x| are active at 0: subdiff's vertex formula and the
    # difference quotients agree on V0(0; 1) = 1.
    V = abs_model()
    est = clarke_fd(V, np.zeros(1), np.ones(1), np.random.default_rng(0))
    assert np.isclose(est, clarke(V, np.zeros(1), np.ones(1)), atol=1e-5)


# -- hypothesis certification --------------------------------------------


def test_certify_quartic_euler_identity():
    V = make_quartic(2)
    cert = certify(V, "V2", {"mu1": 4.0, "mu2": 0.0}, SamplerSpec(count=500, seed=0))
    assert cert.passed
    assert abs(cert.worst_margin) < 1e-9  # <grad, x> = 4V exactly


def test_certify_maxpair_superquadratic_set():
    V = make_maxpair(2)
    sampler = SamplerSpec(count=500, seed=1)
    for hyp, params in [("V2", {"mu1": 4.0, "mu2": 0.0}),
                        ("V3", {"mu1": 4.0, "a1": 1.0, "a2": -1.0}),
                        ("V4", {"A": 1.0, "radius": 1.0})]:
        cert = certify(V, hyp, params, sampler)
        assert cert.passed, (hyp, cert.worst_margin)


def test_maxpair_outer_piece_margin_is_four():
    # For |x| > 1 the pairing is 8|x|^4 against 4(2|x|^4 - 1): margin 4.
    V = make_maxpair(2)
    x = np.array([1.3, 0.2])
    sg = subdiff(V, x)
    margin = float(np.min(sg.vertices @ x)) - 4.0 * float(V.value(x))
    assert np.isclose(margin, 4.0, rtol=1e-12)


def test_certify_subquadratic_homogeneity():
    V = make_subq32(2)
    cert = certify(V, "V2'", {"mu1": 1.5, "mu2": 0.0}, SamplerSpec(count=500, seed=2))
    assert cert.passed
    assert abs(cert.worst_margin) < 1e-9


def test_certify_subq32_upper_quadratic_bound():
    V = make_subq32(3)
    cert = certify(V, "V4'", {"A": 1.0, "a": 27.0 / 256.0},
                   SamplerSpec(r_max=20.0, count=2000, seed=3))
    assert cert.passed


def test_certify_subq32cos_documented_constants():
    V = make_subq32cos(2)
    sampler = SamplerSpec(r_max=30.0, count=2000, seed=4)
    assert certify(V, "V2'", {"mu1": 1.8, "mu2": 0.75}, sampler).passed
    assert certify(V, "V4'", {"A": 1.0, "a": 0.5}, sampler).passed
    assert certify(V, "V3'", {"threshold": 0.0}, sampler).passed


def test_certify_parameter_validation():
    V = make_quartic(1)
    with pytest.raises(ValueError, match="mu1 > 2"):
        certify(V, "V2", {"mu1": 1.5})
    with pytest.raises(ValueError, match="mu1 < 2"):
        certify(V, "V2'", {"mu1": 2.5})
    with pytest.raises(ValueError, match="a1 > 0"):
        certify(V, "V3", {"mu1": 4.0, "a1": -1.0})
    with pytest.raises(ValueError, match="unknown hypothesis"):
        certify(V, "V9", {})


def test_certify_failure_is_a_negative_certificate():
    V = make_quartic(2)
    # A = 0.1 on the unit ball fails: V = r^4/4 > 0.1 r^2 near r = 1.
    cert = certify(V, "V4", {"A": 0.1, "radius": 1.0}, SamplerSpec(count=500, seed=5))
    assert not cert.passed
    assert cert.worst_margin < -1e-3


def test_certify_flags_non_coercive():
    bounded = PotentialModel.smooth(
        lambda x: np.tanh(np.sum(x ** 2, axis=-1)),
        lambda x: (2.0 / np.cosh(np.sum(x ** 2, axis=-1)) ** 2)[..., None] * x,
        dim=2)
    cert = certify(bounded, "V3'", {"threshold": 5.0},
                   SamplerSpec(r_max=50.0, count=300, seed=6))
    assert not cert.passed
    assert cert.flags.get("non_coercive") is True
    assert cert.flags["min_on_shell"] < 1.001


def test_certify_inner_cutoff_radius():
    # The classical superquadratic condition only needs |x| >= r0; an
    # inner cutoff makes that reading testable.  A Gaussian bump breaks
    # the pairing inequality near the origin and is negligible outside.
    def val(x):
        r2 = np.sum(x ** 2, axis=-1)
        return 0.25 * r2 ** 2 + 0.1 * np.exp(-r2)

    def grad(x):
        r2 = np.sum(x ** 2, axis=-1)
        return (r2 - 0.2 * np.exp(-r2))[..., None] * x

    bumped = PotentialModel.smooth(val, grad, dim=2)
    params = {"mu1": 4.0, "mu2": -0.01}
    inner = certify(bumped, "V2", params,
                    SamplerSpec(r_min=0.0, r_max=6.0, count=400, seed=7))
    outer = certify(bumped, "V2", params,
                    SamplerSpec(r_min=3.0, r_max=6.0, count=400, seed=7))
    assert not inner.passed   # margin ~ -0.39 at the origin
    assert outer.passed       # negligible bump beyond r = 3


def test_sampler_respects_radius_range():
    spec = SamplerSpec(r_min=2.0, r_max=3.0, count=200, seed=8)
    pts = spec.points(3)
    radii = np.linalg.norm(pts, axis=1)
    assert pts.shape == (200, 3)
    assert np.all(radii >= 2.0 - 1e-9) and np.all(radii <= 3.0 + 1e-9)


def test_sampler_is_deterministic():
    a = SamplerSpec(count=64, seed=9).points(2)
    b = SamplerSpec(count=64, seed=9).points(2)
    assert np.array_equal(a, b)


# -- zoo and config construction -----------------------------------------


def test_maxpoly_reproduces_maxpair():
    ref = make_maxpair(2)
    poly = make_maxpoly([[0.0, 0.0, 1.0], [-1.0, 0.0, 2.0]], 2)
    rng = np.random.default_rng(10)
    for _ in range(30):
        x = rng.uniform(-2, 2, size=2)
        assert np.isclose(poly.value(x), ref.value(x), rtol=1e-14)
        gp = subdiff(poly, x).vertices
        gr = subdiff(ref, x).vertices
        assert np.allclose(np.sort(gp, axis=0), np.sort(gr, axis=0))


def test_from_spec_builds_zoo_and_custom():
    assert from_spec({"type": "quartic", "dim": 3}).name == "quartic"
    assert from_spec({"type": "subq32cos", "dim": 2, "amp": 0.1}).name == "subq32cos"
    poly = from_spec({"type": "maxpoly", "dim": 2,
                      "pieces": [[0.0, 1.0], [0.5, 0.5]]})
    assert poly.n_pieces == 2
    with pytest.raises(ValueError, match="unknown potential"):
        from_spec({"type": "nope"})


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_sq_norm_equals_numpy_reduce_bitwise(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal((257, n)), rng.standard_normal((3, 17, n)),
              np.zeros((4, n)), 1e150 * rng.standard_normal((64, n)),
              1e-150 * rng.standard_normal((64, n))):
        assert np.array_equal(_sq_norm(x), np.sum(x ** 2, axis=-1))
        assert np.array_equal(np.sqrt(_sq_norm(x)), np.linalg.norm(x, axis=-1))


@pytest.mark.parametrize("n", [8, 16])
def test_sq_norm_within_ulps_of_numpy_pairwise_sum(n):
    # from n = 8 numpy sums in eight lanes, the column sum left to right
    x = np.random.default_rng(n).standard_normal((4096, n))
    np.testing.assert_array_max_ulp(_sq_norm(x), np.sum(x ** 2, axis=-1), maxulp=8)


def test_zoo_constants_are_parameters_of_their_hypothesis():
    # RunConfig rejects a hypotheses key the table does not name, so a zoo
    # constant outside the table could never be overridden.
    for name, table in ZOO_PARAMS.items():
        for hyp, params in table.items():
            assert set(params) <= set(HYPOTHESIS_PARAMS[hyp]), (name, hyp)
