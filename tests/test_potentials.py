import numpy as np
import pytest

from liporbit.potentials import (
    HYPOTHESIS_PARAMS,
    MAX_SAMPLER_DIM,
    ZOO_PARAMS,
    PotentialModel,
    SamplerSpec,
    _ball_directions_from_unit,
    _pairing_extremes,
    _sobol_block,
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
    # One rule for every site: V_i >= V - 1e-7 (1 + |V|), in the bits the
    # polish's widened band had.
    V = make_maxpair(2)
    pts = SamplerSpec(count=300, seed=3).points(2)
    theta = np.linspace(0.0, 2.0 * np.pi, 40)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.vstack([pts, circle, circle * (1.0 + 3e-8), circle * (1.0 - 3e-8)])
    vals = V.piece_values(pts)
    top = np.max(vals, axis=0)
    band = 1e-8 * (1.0 + np.abs(top)) * 10.0
    # _select, residual_jacobians, inclusion_residual, _pairing_extremes
    assert np.array_equal(active_set(vals), vals >= top - band)
    # subdiff: one point at a time
    for j, x in enumerate(pts):
        assert subdiff(V, x).active == tuple(np.flatnonzero(vals[:, j] >= top[j] - band[j]))
    # the +-3e-8 circles sit inside the band: both pieces active on all 120
    on_kink = np.all(active_set(vals), axis=0)
    assert np.all(on_kink[-120:])
    assert not np.any(on_kink[:300])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subdiff_rejects_non_finite_point(bad):
    with pytest.raises(ValueError, match="x must be finite"):
        subdiff(make_maxpair(2), np.array([bad, 0.0]))


@pytest.mark.parametrize("make", [make_quartic, make_maxpair])
def test_an_overflowing_value_admits_the_pieces_equal_to_it(make):
    # |x|^4 = 1e320 overflows; inf - inf made the band NaN, and no piece was
    # active, so subdiff raised from np.stack and _select called q non-finite.
    V = make(1)
    with np.errstate(over="ignore", invalid="ignore"):
        sg = subdiff(V, [1e80])
        mask = active_set(np.array([[np.inf, 1.0], [np.inf, np.inf]]))
    assert np.all(np.isfinite(sg.vertices)) and len(sg.active) == V.n_pieces
    assert np.array_equal(mask, [[True, False], [True, True]])
    # a NaN top still admits nothing, and a NaN point still fails loudly
    assert not active_set(np.array([[np.nan], [1.0]])).any()
    with pytest.raises(ValueError, match="x must be finite"):
        subdiff(V, [np.nan])


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


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("d", range(1, 22))
def test_sobol_block_equals_scipy_bit_for_bit(d):
    from scipy.stats import qmc

    for m in range(12):
        ref = qmc.Sobol(d, scramble=False).random_base2(m)
        block = _sobol_block(d, m)
        assert block.shape == ref.shape == (1 << m, d)
        assert np.array_equal(_bits(block), _bits(ref))


def _qmc_points(spec, dim):
    """SamplerSpec.points as written on scipy.stats.qmc.Sobol."""
    from scipy.stats import qmc

    n_sobol = spec.count // 2
    n_rand = spec.count - n_sobol
    rng = np.random.default_rng(spec.seed)
    blocks = []
    if n_sobol > 0:
        eng = qmc.Sobol(d=dim + 1, scramble=False)
        u = eng.random_base2(int(np.ceil(np.log2(n_sobol))) if n_sobol > 1 else 1)[:n_sobol]
        z = _ball_directions_from_unit(u[:, :dim], dim)
        r = spec.r_min + (spec.r_max - spec.r_min) * u[:, dim]
        blocks.append(z * r[:, None])
    if n_rand > 0:
        z = rng.standard_normal((n_rand, dim))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = rng.uniform(spec.r_min, spec.r_max, size=n_rand)
        blocks.append(z * r[:, None])
    return np.vstack(blocks)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r_min, r_max", [(0.0, 10.0), (0.0, 1.0), (2.5, 7.0)])
def test_sampler_points_equal_the_qmc_formula(dim, r_min, r_max):
    for count, seed in [(1, 0), (2, 3), (3, 11), (64, 9), (400, 5), (2000, 12345)]:
        spec = SamplerSpec(r_min=r_min, r_max=r_max, count=count, seed=seed)
        assert np.array_equal(_bits(spec.points(dim)), _bits(_qmc_points(spec, dim)))


def test_sobol_block_is_cached_read_only():
    block = _sobol_block(3, 5)
    assert _sobol_block(3, 5) is block
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0.5
    SamplerSpec(count=64, seed=1).points(2)     # points does not write into it
    assert np.array_equal(block, _sobol_block.__wrapped__(3, 5))


def test_sampler_dim_above_the_table_raises_by_name():
    assert MAX_SAMPLER_DIM == 20
    assert SamplerSpec(count=8).points(MAX_SAMPLER_DIM).shape == (8, MAX_SAMPLER_DIM)
    with pytest.raises(ValueError, match="dim"):
        SamplerSpec(count=8).points(MAX_SAMPLER_DIM + 1)


# -- zoo and config construction -----------------------------------------


def _power_sum_piece(coeffs):
    """A maxpoly piece as the generic power sum the coefficient tables
    replaced."""
    c = np.asarray(coeffs, dtype=float)

    def val(x):
        s = _sq_norm(x)
        return sum(c[j] * s ** j for j in range(len(c)))

    def grad(x):
        x = np.asarray(x, dtype=float)
        if len(c) <= 1:
            return np.zeros_like(x)
        s = _sq_norm(x)
        return 2.0 * np.asarray(sum(j * c[j] * s ** (j - 1)
                                    for j in range(1, len(c))))[..., None] * x

    return val, grad


# The hand-written quartic and maxpair pieces the tables replaced.
HAND_WRITTEN = {
    "quartic": [(lambda x: 0.25 * _sq_norm(x) ** 2, lambda x: _sq_norm(x)[..., None] * x)],
    "maxpair": [(lambda x: _sq_norm(x) ** 2, lambda x: 4.0 * _sq_norm(x)[..., None] * x),
                (lambda x: 2.0 * _sq_norm(x) ** 2 - 1.0,
                 lambda x: 8.0 * _sq_norm(x)[..., None] * x)],
}
TABLES = {"quartic": [[0, 0, 0.25]], "maxpair": [[0, 0, 1], [-1, 0, 2]],
          "maxpoly3": [[0.0, 1.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 2.0]],
          "dense": [[0.3, -1.2, 0.7, 0.1], [2.0], [0.0, 3.5]]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_radial_tables_reproduce_the_replaced_pieces_bit_for_bit(n):
    # Values and gradients of every piece, on a batch and on single points
    # with x = 0 and |x| = 1 among them.
    rng = np.random.default_rng(n)
    unit = rng.standard_normal((50, n))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    batch = np.concatenate([rng.uniform(-2, 2, (2000, n)), np.zeros((1, n)),
                            np.eye(n), -np.eye(n), unit])
    cases = [(make_quartic(n), HAND_WRITTEN["quartic"]),
             (make_maxpair(n), HAND_WRITTEN["maxpair"]),
             (make_maxpoly(TABLES["quartic"], n), HAND_WRITTEN["quartic"]),
             (make_maxpoly(TABLES["maxpair"], n), HAND_WRITTEN["maxpair"])]
    cases += [(make_maxpoly(table, n), [_power_sum_piece(c) for c in table])
              for table in TABLES.values()]
    for model, pieces in cases:
        assert model.n_pieces == len(pieces)
        assert model.kind == ("smooth" if len(pieces) == 1 else "max")
        for x in [batch, batch[2000], batch[2001], batch[-1]]:
            for (v, g), (v_ref, g_ref) in zip(zip(model.values, model.gradients), pieces):
                assert np.array_equal(v(x), v_ref(x))
                assert np.array_equal(g(x), g_ref(x))
    assert [m.name for m in (make_quartic(n), make_maxpair(n), make_maxpoly([[1]], n))] \
        == ["quartic", "maxpair", "maxpoly"]


def test_from_spec_builds_zoo_and_custom():
    assert from_spec({"type": "quartic", "dim": 3}).name == "quartic"
    assert from_spec({"type": "subq32cos", "dim": 2, "amp": 0.1}).name == "subq32cos"
    poly = from_spec({"type": "maxpoly", "dim": 2,
                      "pieces": [[0.0, 1.0], [0.5, 0.5]]})
    assert poly.n_pieces == 2
    with pytest.raises(ValueError, match="unknown potential"):
        from_spec({"type": "nope"})


@pytest.mark.parametrize("dim", [0, -1, 1.5, True, "2", None])
def test_from_spec_rejects_bad_dim(dim):
    # 1.5 and true used to build a 1-D model and 0 a 0-D one.
    with pytest.raises(ValueError, match="dim must be an integer >= 1"):
        from_spec({"type": "quartic", "dim": dim})


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
