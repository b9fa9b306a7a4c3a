import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liporbit.trajectory import (
    PeriodicTrajectory,
    default_grid_size,
    h1_norm,
    l2_inner,
    l2_norm,
    l2_norm_row,
    random_trajectory,
    split,
)

TWO_PI = 2.0 * np.pi


def quadrature_inner(p, q, N=None):
    """Trapezoid-rule oracle for int <p, q> dt on the uniform grid."""
    N = 4 * max(p.K, q.K) + 4 if N is None else N
    h = p.T / N
    return h * float(np.sum(p.sample(N) * q.sample(N)))


# -- evaluation ---------------------------------------------------------


def test_evaluate_constant_loop():
    q = PeriodicTrajectory.constant(3.0, [1.0, 0.0])
    for t in (0.0, 0.7, 2.9, -5.0):
        assert np.allclose(q.evaluate(t), [1.0, 0.0])


def test_evaluate_first_harmonic_peak():
    T = 4.0
    q = PeriodicTrajectory.harmonic(T, 2, 1, axis=0)
    assert np.allclose(q.evaluate(T / 4.0), [1.0, 0.0], atol=1e-14)


def test_evaluate_matches_direct_summation():
    rng = np.random.default_rng(7)
    q = random_trajectory(rng, T=2.5, n=3, K=12)
    t = 0.37 * q.T
    direct = q.a0.copy()
    for k in range(q.K):
        w = 2 * np.pi * (k + 1) / q.T
        direct = direct + q.a[k] * np.cos(w * t) + q.b[k] * np.sin(w * t)
    assert np.max(np.abs(q.evaluate(t) - direct)) < 1e-12


def test_evaluate_is_periodic():
    rng = np.random.default_rng(3)
    q = random_trajectory(rng, T=1.7, n=2, K=6)
    t = 0.3
    assert np.allclose(q.evaluate(t), q.evaluate(t + 5 * q.T), atol=1e-10)


def test_sample_agrees_with_evaluate():
    rng = np.random.default_rng(11)
    q = random_trajectory(rng, T=3.3, n=2, K=9)
    N = 64
    assert np.allclose(q.sample(N), q.evaluate(q.grid(N)), atol=1e-12)


def test_roundtrip_through_samples():
    rng = np.random.default_rng(0)
    q = random_trajectory(rng, T=TWO_PI, n=2, K=8)
    back = PeriodicTrajectory.from_samples(q.sample(2 * q.K + 2), q.T, K=q.K)
    assert np.max(np.abs(back.a0 - q.a0)) < 1e-13
    assert np.max(np.abs(back.a - q.a)) < 1e-13
    assert np.max(np.abs(back.b - q.b)) < 1e-13


# -- calculus -----------------------------------------------------------


def test_derivative_constant_is_zero():
    q = PeriodicTrajectory.constant(2.0, [1.0, -2.0], K=3)
    d = q.derivative()
    assert l2_norm(d) == 0.0


def test_derivative_of_sine_is_omega_cosine():
    T = 5.0
    w1 = 2 * np.pi / T
    q = PeriodicTrajectory.harmonic(T, 1, 1)
    d = q.derivative()
    t = np.linspace(0, T, 33)
    assert np.allclose(d.evaluate(t)[:, 0], w1 * np.cos(w1 * t), atol=1e-12)


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(5)
    q = random_trajectory(rng, T=2.0, n=2, K=10)
    d = q.derivative()
    h = 1e-5 * q.T
    ts = rng.uniform(0, q.T, size=20)
    fd = (q.evaluate(ts + h) - q.evaluate(ts - h)) / (2 * h)
    assert np.max(np.abs(d.evaluate(ts) - fd)) < 1e-6  # O(h^2) central differences


def test_derivative_kills_the_mean():
    rng = np.random.default_rng(9)
    q = random_trajectory(rng, T=1.0, n=3, K=5)
    assert np.all(q.derivative().a0 == 0.0)


def test_time_shift_exact():
    rng = np.random.default_rng(13)
    q = random_trajectory(rng, T=2.2, n=2, K=7)
    delta = 0.41
    shifted = q.time_shift(delta)
    ts = np.linspace(0, q.T, 17)
    assert np.allclose(shifted.evaluate(ts), q.evaluate(ts - delta), atol=1e-12)


# -- inner products and norms ------------------------------------------


def test_l2_inner_orthogonality_sin_cos():
    T = TWO_PI
    s = PeriodicTrajectory.harmonic(T, 1, 1, sin_amp=1.0)
    c = PeriodicTrajectory.harmonic(T, 1, 1, cos_amp=1.0, sin_amp=0.0)
    assert abs(l2_inner(s, c)) < 1e-14


def test_l2_norm_of_first_harmonic():
    T = 3.7
    s = PeriodicTrajectory.harmonic(T, 1, 1)
    assert np.isclose(l2_norm(s) ** 2, T / 2.0, rtol=1e-14)


def test_l2_inner_matches_quadrature():
    rng = np.random.default_rng(21)
    p = random_trajectory(rng, T=1.9, n=2, K=11)
    q = random_trajectory(rng, T=1.9, n=2, K=11)
    exact = l2_inner(p, q)
    quad = quadrature_inner(p, q)
    assert abs(exact - quad) < 1e-10 * (1 + abs(exact))


def test_l2_inner_pads_mismatched_mode_counts():
    rng = np.random.default_rng(2)
    p = random_trajectory(rng, T=1.0, n=2, K=4)
    q = random_trajectory(rng, T=1.0, n=2, K=9)
    assert np.isclose(l2_inner(p, q), quadrature_inner(p, q), atol=1e-10)


def test_l2_inner_dimension_errors():
    p = PeriodicTrajectory.harmonic(1.0, 1, 1)
    q_wrong_T = PeriodicTrajectory.harmonic(2.0, 1, 1)
    q_wrong_n = PeriodicTrajectory.harmonic(1.0, 2, 1)
    with pytest.raises(ValueError):
        l2_inner(p, q_wrong_T)
    with pytest.raises(ValueError):
        l2_inner(p, q_wrong_n)


@pytest.mark.parametrize("K", [1, 8, 64, 512])
def test_parseval_consistency_across_mode_counts(K):
    rng = np.random.default_rng(K)
    q = random_trajectory(rng, T=2.0, n=2, K=K)
    exact = l2_norm(q) ** 2
    quad = quadrature_inner(q, q)
    assert abs(exact - quad) < 1e-10 * (1 + exact)


def test_h1_norm_constant_loop():
    q = PeriodicTrajectory.constant(TWO_PI, [3.0, 4.0])
    assert np.isclose(h1_norm(q), 5.0, rtol=1e-15)


def test_h1_norm_first_harmonic():
    T = TWO_PI
    w1 = 2 * np.pi / T
    q = PeriodicTrajectory.harmonic(T, 1, 1)
    assert np.isclose(h1_norm(q), w1 * np.sqrt(T / 2.0), rtol=1e-14)


def test_h1_norm_matches_quadrature():
    rng = np.random.default_rng(17)
    q = random_trajectory(rng, T=4.1, n=2, K=13)
    d = q.derivative()
    quad = np.sqrt(quadrature_inner(d, d)) + np.linalg.norm(q.evaluate(0.0))
    assert abs(h1_norm(q) - quad) < 1e-10 * (1 + quad)


def test_h1_norm_mean_variant_differs_for_shifted_loops():
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 1, cos_amp=1.0, sin_amp=0.0)
    # h1_norm is anchored at q(0) = 1, not at the mean 0.
    kinetic = l2_norm(q.derivative())
    assert h1_norm(q) == kinetic + 1.0
    assert h1_norm(q) > kinetic + np.linalg.norm(q.mean())


# -- splitting ----------------------------------------------------------


def test_split_constant():
    q = PeriodicTrajectory.constant(1.0, [2.0, -1.0], K=2)
    parts = split(q)
    assert np.allclose(parts.mean, [2.0, -1.0])
    assert l2_norm(parts.oscillation) == 0.0


def test_split_pure_harmonic():
    q = PeriodicTrajectory.harmonic(1.0, 2, 1)
    parts = split(q)
    assert np.all(parts.mean == 0.0)
    assert np.all(parts.oscillation.a == q.a)
    assert np.all(parts.oscillation.b == q.b)


def test_split_reassembles_exactly():
    rng = np.random.default_rng(31)
    q = random_trajectory(rng, T=1.5, n=3, K=6)
    parts = split(q)
    assert np.all(parts.mean == q.a0) and np.all(parts.oscillation.a0 == 0.0)
    assert np.all(parts.oscillation.a == q.a) and np.all(parts.oscillation.b == q.b)


def test_split_is_idempotent_projection():
    rng = np.random.default_rng(32)
    q = random_trajectory(rng, T=1.5, n=2, K=6)
    osc = split(q).oscillation
    assert np.all(split(osc).mean == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 12))
def test_split_roundtrip_property(seed, n, K):
    q = random_trajectory(np.random.default_rng(seed), T=2.0, n=n, K=K)
    parts = split(q)
    assert np.all(parts.mean == q.a0) and np.all(parts.oscillation.a0 == 0.0)
    assert np.all(parts.oscillation.a == q.a) and np.all(parts.oscillation.b == q.b)


# -- classical inequalities ---------------------------------------------
#
# Both sides by Parseval.  Wirtinger's constant (2 pi / T)^2 is the one in
# linking.alpha_lower_bound, Sobolev's sqrt(T / 12) the one behind the
# rho cap of linking.calibrate_superquadratic; test_linking checks those.


def wirtinger_sides(q):
    """int |qdot|^2 >= (2 pi / T)^2 int |q|^2 for zero-mean loops."""
    return l2_norm(q.derivative()) ** 2, (2.0 * np.pi / q.T) ** 2 * l2_norm(q) ** 2


def friedrichs_sides(q):
    """int |qdot|^2 >= (pi / T)^2 int |q|^2 for loops with q(0) = 0."""
    return l2_norm(q.derivative()) ** 2, (np.pi / q.T) ** 2 * l2_norm(q) ** 2


def dense_sup(q):
    """max_t |q(t)| on a grid 32 times the quadrature grid; never above the sup."""
    return float(np.max(np.linalg.norm(q.sample(32 * default_grid_size(q.K)), axis=1)))


def sobolev_bound(q):
    """sup |q| <= sqrt(T / 12) (int |qdot|^2)^(1/2) for zero-mean loops."""
    return float(np.sqrt(q.T / 12.0)) * l2_norm(q.derivative())


def test_wirtinger_equality_on_first_harmonic():
    lhs, rhs = wirtinger_sides(PeriodicTrajectory.harmonic(TWO_PI, 1, 1))
    assert abs(lhs - rhs) < 1e-12


def test_wirtinger_second_harmonic_ratio_is_four():
    lhs, rhs = wirtinger_sides(PeriodicTrajectory.harmonic(3.0, 1, 2))
    assert np.isclose(lhs / rhs, 4.0, rtol=1e-12)


def test_wirtinger_rejects_nonzero_mean():
    # A mean breaks the inequality; the zero-mean part of the loop keeps it.
    q = PeriodicTrajectory.constant(1.0, [1.0], K=2) + PeriodicTrajectory.harmonic(1.0, 1, 1, K=2)
    lhs, rhs = wirtinger_sides(q)
    assert lhs < rhs
    lhs, rhs = wirtinger_sides(split(q).oscillation)
    assert abs(lhs - rhs) < 1e-12 * rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 16),
       st.sampled_from([1.0, TWO_PI, 10.0]))
def test_wirtinger_margin_nonnegative_property(seed, n, K, T):
    q = random_trajectory(np.random.default_rng(seed), T=T, n=n, K=K, zero_mean=True)
    lhs, rhs = wirtinger_sides(q)
    assert lhs >= rhs * (1.0 - 1e-12)


def test_wirtinger_equality_iff_only_first_mode():
    # Construction: adding any k >= 2 content creates a strictly positive margin.
    lhs, rhs = wirtinger_sides(PeriodicTrajectory.harmonic(2.0, 1, 1, cos_amp=0.3,
                                                           sin_amp=-0.8))
    assert abs(lhs - rhs) < 1e-12
    a = np.zeros((3, 1))
    b = np.zeros((3, 1))
    b[0, 0] = 1.0
    a[2, 0] = 1e-3
    lhs, rhs = wirtinger_sides(PeriodicTrajectory(2.0, np.zeros(1), a, b))
    assert lhs - rhs > 1e-12


def test_sobolev_zero_loop_trivial():
    q = PeriodicTrajectory.zero(1.0, 2, 3)
    assert dense_sup(q) == 0.0 and sobolev_bound(q) == 0.0


def test_sobolev_first_harmonic_strict():
    T = TWO_PI
    w1 = 2 * np.pi / T
    q = PeriodicTrajectory.harmonic(T, 1, 1)
    assert np.isclose(dense_sup(q), 1.0, atol=1e-10)
    assert np.isclose(sobolev_bound(q), np.sqrt(T / 12.0) * w1 * np.sqrt(T / 2.0), rtol=1e-12)
    assert sobolev_bound(q) - dense_sup(q) > 0.2  # pi/sqrt(6) - 1 ~ 0.28


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 16),
       st.sampled_from([1.0, TWO_PI, 10.0]))
def test_sobolev_property(seed, n, K, T):
    q = random_trajectory(np.random.default_rng(seed), T=T, n=n, K=K, zero_mean=True)
    assert dense_sup(q) <= sobolev_bound(q) + 1e-8


def half_sine_trajectory(T, K):
    """Fourier fit of sin(pi t / T) on [0, T], adjusted so q(0) = 0 exactly.

    The periodization is |sin(pi t / T)|, the Friedrichs extremal; the
    truncated series is shifted by a constant so the vanishing-endpoint
    precondition is met exactly.
    """
    N = 2 * K + 2
    t = np.arange(N) * T / N
    vals = np.sin(np.pi * t / T)[:, None]
    q = PeriodicTrajectory.from_samples(vals, T, K=K)
    a0 = -q.a.sum(axis=0)
    return PeriodicTrajectory(T, a0, q.a, q.b)


def test_friedrichs_near_equality_on_half_sine():
    q = half_sine_trajectory(2.0, K=64)
    assert abs(q.evaluate(0.0)[0]) < 1e-12
    lhs, rhs = friedrichs_sides(q)
    assert lhs - rhs >= -1e-10
    # The half sine is the extremal: the two sides agree to a few percent
    # at this truncation (the kink in the periodization slows convergence).
    assert lhs / rhs < 1.05


def test_friedrichs_first_harmonic_ratio_four():
    lhs, rhs = friedrichs_sides(PeriodicTrajectory.harmonic(3.0, 1, 1))
    assert np.isclose(lhs / rhs, 4.0, rtol=1e-10)


def test_friedrichs_zero_loop_trivial_report():
    assert friedrichs_sides(PeriodicTrajectory.zero(1.0, 1, 2)) == (0.0, 0.0)


def test_friedrichs_rejects_nonvanishing_start():
    # Without q(0) = 0 the inequality fails: a constant loop has no kinetic term.
    lhs, rhs = friedrichs_sides(PeriodicTrajectory.constant(1.0, [1.0], K=2))
    assert lhs == 0.0 < rhs


def test_sup_norm_on_known_loop():
    q = PeriodicTrajectory.harmonic(1.0, 2, 1, cos_amp=0.6, sin_amp=0.8)
    # Dense-grid max slightly undershoots the true sup; it never overshoots.
    assert 1.0 - 1e-4 < dense_sup(q) <= 1.0 + 1e-12


# -- the row norm ---------------------------------------------------------


def test_l2_norm_row_is_the_parseval_norm_bitwise():
    # The polish, the saddle descents and l2_norm all take norms of
    # coefficient rows through l2_norm_row; it must give the bits of
    # the Parseval inner product, across sizes and scales.
    rng = np.random.default_rng(23)
    for K in (1, 2, 7, 32, 64, 128):
        for n in (1, 2, 3, 5):
            for scale in (1e-8, 1e-3, 1.0, 1e3):
                T = rng.uniform(0.5, 9.0)
                c = scale * rng.standard_normal((2 * K + 1, n))
                q = PeriodicTrajectory.from_coefficients(T, c)
                assert l2_norm_row(c, T) == float(np.sqrt(l2_inner(q, q)))
                assert l2_norm(q) == l2_norm_row(c, T)


# -- serialization ------------------------------------------------------


def test_json_roundtrip():
    rng = np.random.default_rng(41)
    q = random_trajectory(rng, T=1.25, n=2, K=4)
    back = PeriodicTrajectory.from_json(q.to_json())
    assert back.T == q.T
    assert np.all(back.a0 == q.a0) and np.all(back.a == q.a) and np.all(back.b == q.b)


def test_json_schema_fields():
    q = PeriodicTrajectory.harmonic(2.0, 2, 1)
    d = json.loads(q.to_json())
    assert set(d) == {"T", "n", "K", "a0", "a", "b"}
    assert d["n"] == 2 and d["K"] == 1


def test_from_dict_rejects_inconsistent_shape():
    q = PeriodicTrajectory.harmonic(2.0, 2, 1)
    d = q.to_dict()
    d["n"] = 3
    with pytest.raises(ValueError):
        PeriodicTrajectory.from_dict(d)


def test_csv_sampling_header_and_values():
    q = PeriodicTrajectory.harmonic(2.0, 2, 1)
    text = q.to_csv(N=8)
    lines = text.strip().split("\n")
    assert lines[0] == "t,q_1,q_2,qdot_1,qdot_2"
    assert len(lines) == 9
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == 0.0
    assert np.isclose(row[1], q.evaluate(0.0)[0])
    assert np.isclose(row[3], q.derivative().evaluate(0.0)[0])


def test_invalid_construction():
    with pytest.raises(ValueError):
        PeriodicTrajectory(-1.0, np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        PeriodicTrajectory(1.0, np.zeros(1), np.full((1, 1), np.nan), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        PeriodicTrajectory(1.0, np.zeros(1), np.zeros((2, 1)), np.zeros((1, 1)))
