"""Construction and certification of the minimax geometries.

Superquadratic mode realizes the sphere-versus-cylinder linking: on the
zero-mean sphere S = {q : ||qdot||_L2 = rho} the quadratic bound near the
origin gives

    f(q) >= [1/2 - A T^2/(2 pi)^2] rho^2 =: alpha,

positive whenever T < pi sqrt(2/A), while on the outer boundary of the
cylinder Q = {x1 + s e} the growth bound and Jensen's inequality force

    f(x1 + s e) <= s^2/2 - a1 T^{1-mu1/2} (T|x1|^2 + s^2 int|e|^2)^{mu1/2} - a2 T,

which goes negative once the box is large enough.  Saddle mode grows a
radius R until the sup of f over constant loops on the boundary sphere
drops below the analytic lower bound of f on the zero-mean subspace X2;
that bound decides, and f at a few zero-mean loops is sampled beside it.

Certificates are sampled evidence plus the analytic bound, and a sample
below the bound fails them: a failing certificate is a valid negative
result.  Each sampled set (the sphere, the three faces of the cylinder,
the saddle mode's zero-mean loops) is drawn as one block and evaluated
in one call.  The sphere and the zero-mean loops are coefficient rows
for action_values.  The face points all take the form x1 + s e, and
cylinder_values evaluates them from e's node values alone, with no
coefficient rows; the probe of the solver screens its columns with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .action import action_values
from .potentials import PotentialModel
from .trajectory import PeriodicTrajectory, default_grid_size, l2_norm, random_trajectory


# Share of the sphere rows drawn in the modes k <= LOW_MODE_MAX only.
LOW_MODE_FRACTION = 0.7
LOW_MODE_MAX = 4
# Random points per radius on the boundary box of the saddle calibration.
BOUNDARY_SAMPLES = 120
# Random zero-mean loops sampled beside the zero loop in the saddle calibration.
ZERO_MEAN_SAMPLES = 4
# A pass needs alpha_sampled >= alpha_bound - LEVEL_TOL, as the solver's level gate.
LEVEL_TOL = 1e-8


class InfeasibleGeometryError(ValueError):
    """The period violates the quadratic-threshold requirement."""


class NonCoerciveError(RuntimeError):
    """Boundary growth never overtook the coercivity threshold."""


def alpha_lower_bound(A: float, T: float, rho: float) -> float:
    """(1/2 - A T^2 / (4 pi^2)) rho^2; sign flips exactly at T = pi sqrt(2/A)."""
    return (0.5 - A * T ** 2 / (4.0 * np.pi ** 2)) * rho ** 2


def threshold_period(A: float) -> float:
    """Largest admissible period pi sqrt(2/A) for quadratic bound A."""
    return np.pi * np.sqrt(2.0 / A)


def _require_below_threshold(A: float, T: float):
    thr = threshold_period(A)
    if T >= thr:
        raise InfeasibleGeometryError(
            f"period T = {T:g} is not below the threshold pi*sqrt(2/A) = {thr:g} "
            f"for A = {A:g}")


def unit_direction(T: float, n: int, K: int = 1, axis: int = 0,
                   mode: int = 1) -> PeriodicTrajectory:
    """First-harmonic direction sin(2 pi k t / T) e_axis with ||edot||_L2 = 1.

    The lowest frequency maximizes the Wirtinger margin at fixed kinetic
    norm, which is why it is the default linking direction.
    """
    e = PeriodicTrajectory.harmonic(T, n, mode, axis=axis, K=max(K, mode))
    scale = l2_norm(e.derivative())
    return e * (1.0 / scale)


@dataclass(frozen=True)
class LinkingGeometry:
    """Calibrated minimax geometry plus its sampled certificate."""

    mode: str                           # "superquadratic" | "saddle"
    T: float                            # the period the calibration is valid for
    alpha_bound: float
    rho: float | None = None
    r1: float | None = None
    r2: float | None = None
    R: float | None = None
    e: PeriodicTrajectory | None = None
    alpha_sampled: float | None = None
    beta_sampled: float | None = None
    passed: bool | None = None
    n_samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("superquadratic", "saddle"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "superquadratic":
            if not (self.r2 and self.rho and self.r2 > self.rho):
                raise ValueError(f"need r2 > rho > 0, got r2={self.r2}, rho={self.rho}")
        if self.passed and not (self.alpha_sampled > self.beta_sampled):
            raise ValueError("a passing certificate requires alpha_sampled > beta_sampled")
        if self.passed and not (self.alpha_sampled >= self.alpha_bound - LEVEL_TOL):
            raise ValueError("a passing certificate requires alpha_sampled >= alpha_bound")

    def to_dict(self) -> dict:
        def opt(v):
            return None if v is None else float(v)

        return {
            "mode": self.mode,
            "T": float(self.T),
            "rho": opt(self.rho),
            "r1": opt(self.r1),
            "r2": opt(self.r2),
            "R": opt(self.R),
            "alpha_bound": float(self.alpha_bound),
            "alpha_sampled": opt(self.alpha_sampled),
            "beta_sampled": opt(self.beta_sampled),
            "pass": self.passed,
            "samples": self.n_samples,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- superquadratic calibration ----------------------------------------


def outer_boundary_bound(s, x1_norm, certs: dict, T: float, e_l2sq: float):
    """Jensen upper bound for f(x1 + s e) on the cylinder boundary."""
    a1, a2, mu1 = certs["a1"], certs["a2"], certs["mu1"]
    mass = T * np.asarray(x1_norm) ** 2 + np.asarray(s) ** 2 * e_l2sq
    return 0.5 * np.asarray(s) ** 2 - a1 * T ** (1.0 - mu1 / 2.0) * mass ** (mu1 / 2.0) - a2 * T


def calibrate_superquadratic(model: PotentialModel, certs: dict, T: float,
                             e: PeriodicTrajectory | None = None) -> LinkingGeometry:
    """Choose rho, r1, r2 and the direction e from certified constants.

    certs carries A and the ball radius of the quadratic bound, plus the
    growth constants a1, a2, mu1.  rho is capped so the sup-norm of every
    sphere sample stays inside the certified ball (||q||_inf <=
    sqrt(T/12) rho); r2 (with r1 = r2/4) doubles, at most 60 times, until
    the Jensen bound is strictly negative on the lateral and top faces.
    """
    A = float(certs["A"])
    _require_below_threshold(A, T)
    if float(certs["mu1"]) <= 2.0:
        raise ValueError(f"superquadratic calibration needs mu1 > 2, got {certs['mu1']}")
    if float(certs["a1"]) <= 0.0:
        raise ValueError(f"growth constant a1 must be positive, got {certs['a1']}")
    radius = float(certs["radius"])
    rho = radius * np.sqrt(12.0 / T)
    alpha = alpha_lower_bound(A, T, rho)

    if e is None:
        e = unit_direction(T, model.dim)
    # The Jensen bound below assumes a zero-mean e with ||edot||_L2 = 1.
    edot = l2_norm(e.derivative())
    if e.T != T or e.n != model.dim or np.any(e.a0 != 0.0) or not abs(edot - 1.0) <= 1e-12:
        raise ValueError(
            f"direction e must have T = {T!r}, n = {model.dim}, zero mean and "
            f"||edot||_L2 = 1; got T = {e.T!r}, n = {e.n}, mean {e.a0.tolist()}, "
            f"||edot||_L2 = {edot!r}")
    e_l2sq = l2_norm(e) ** 2

    s_grid = np.linspace(0.0, 1.0, 513)
    r2 = max(2.0 * rho, 1.0)
    for _ in range(60):
        r1 = r2 / 4.0
        lateral = float(np.max(outer_boundary_bound(s_grid * r2, r1, certs, T, e_l2sq)))
        top = float(outer_boundary_bound(r2, 0.0, certs, T, e_l2sq))
        worst = max(lateral, top)
        if worst < -1e-9 * (1.0 + r2 ** 2):
            return LinkingGeometry(mode="superquadratic", T=T, alpha_bound=alpha,
                                   rho=rho, r1=r1, r2=r2, e=e)
        r2 *= 2.0
    raise InfeasibleGeometryError(
        f"outer boundary bound stayed nonnegative up to r2 = {r2:g}; "
        f"check the growth certificate constants")


def sphere_rows(rng: np.random.Generator, T: float, n: int, K: int, rho: float,
                count: int) -> np.ndarray:
    """count random zero-mean loops scaled to ||qdot||_L2 = rho, as rows (count, 2K+1, n).

    Mixes mostly low-mode rows, amplitudes 1/k for k <= LOW_MODE_MAX and
    zero above (they minimize f at fixed rho and so dominate the true
    minimum), with full-spectrum rows, amplitudes k^-1.5.  One uniform
    draw picks each row's kind and one standard_normal draw gives every
    coefficient.  A row whose draws are all zero has no kinetic norm to
    scale by and comes out NaN, which fails the certificate.
    """
    k = np.arange(1, K + 1, dtype=float)
    low = rng.uniform(size=count) < LOW_MODE_FRACTION
    scale = np.where(low[:, None], np.where(k <= LOW_MODE_MAX, 1.0 / k, 0.0), k ** -1.5)
    rows = np.zeros((count, 2 * K + 1, n))
    rows[:, 1:] = rng.standard_normal((count, 2 * K, n)) * np.tile(scale, 2)[:, :, None]
    return rows * (rho / _kinetic_norm(rows, T))[:, None, None]


def _kinetic_norm(c: np.ndarray, T: float) -> np.ndarray:
    """l2_norm(q.derivative()) of each loop with coefficient row c (..., 2K+1, n)."""
    K = (c.shape[-2] - 1) // 2
    w = (2.0 * np.pi * np.arange(1, K + 1) / T)[:, None]
    wa, wb = w * c[..., 1:K + 1, :], w * c[..., K + 1:, :]
    return np.sqrt(0.5 * T * (np.sum(wb * wb, axis=(-2, -1)) + np.sum(wa * wa, axis=(-2, -1))))


def cylinder_values(e: PeriodicTrajectory, K: int, x1, s,
                    model: PotentialModel) -> np.ndarray:
    """f at the loops x1 + s e of K modes, x1 (..., n) broadcast against s (...).

    f = s^2 ||edot||^2 / 2 - T sum_j w_j V(x1 + s e(t_j)) over the nodes
    t_j = j T / N of the N = 4K+4 grid action_values integrates on, from
    e's node values alone: no coefficient rows and no FFT per loop.  When
    e(T/2 - t) = e(t), which holds exactly when a_k = 0 for odd k and
    b_k = 0 for even k (every unit_direction of odd mode), nodes j and
    N/2 - j carry the same value for every x1 and s, so the N/2 + 1 nodes
    j = -N/4 .. N/4 cover the grid, at weight 1/N at +-N/4 and 2/N
    between.  Any other e takes all N nodes at weight 1/N.  The fold is
    decided by exact zeros among e's coefficients.  A loop's value has
    the same bits alone as in any batch.
    """
    if K < e.K:
        raise ValueError(f"cannot pad down from K={e.K} to {K}")
    N = default_grid_size(K)
    nodes = e.sample(N)
    weight = np.ones(N)
    if np.all(e.a[::2] == 0.0) and np.all(e.b[1::2] == 0.0):   # a_k, k odd; b_k, k even
        nodes = nodes[np.arange(-N // 4, N // 4 + 1)]
        weight = np.full(len(nodes), 2.0)
        weight[[0, -1]] = 1.0
    x1, s = np.asarray(x1, dtype=float), np.asarray(s, dtype=float)
    # Points laid out (..., n, nodes) in C order, so the model reads each
    # coordinate along contiguous nodes; the sum runs along contiguous
    # nodes in every batch, which keeps a loop's bits.
    points = np.add(x1[..., None], s[..., None, None] * nodes.T, order="C")
    V = np.ascontiguousarray(model.value(np.swapaxes(points, -1, -2)))   # (..., nodes)
    return 0.5 * _kinetic_norm(e.coefficients(), e.T) ** 2 * s ** 2 - e.T * (
        np.sum(V * weight, axis=-1) / N)


def certify_linking(geom: LinkingGeometry, model: PotentialModel, T: float,
                    n_samples: int = 200, K: int = 16,
                    seed: int = 0) -> LinkingGeometry:
    """Sample f on the sphere S and on the three cylinder-boundary faces.

    alpha_sampled is the minimum over S (never exceeding f at any
    individual S point by construction); beta_sampled the maximum over
    the bottom disk, the lateral shell, the top disk and the zero loop.
    The returned geometry records pass <=> alpha_sampled > beta_sampled
    and alpha_sampled >= alpha_bound - LEVEL_TOL; a fail is a valid
    negative certificate.

    Each set is drawn as one block: the n_samples sphere rows of
    sphere_rows, evaluated in one action_values call, then
    max(n_samples // 3, 8) points per face from one standard_normal draw
    of directions and one uniform draw, which gives a disk point its
    radius and a shell point its s.  Every face point is a loop x1 + s e
    at the one width max(K, e.K); with the zero loop they are evaluated
    in one cylinder_values call.
    """
    if geom.mode != "superquadratic":
        raise ValueError("certify_linking applies to superquadratic geometries")
    if T != geom.T:
        raise ValueError(f"geometry and direction e were calibrated for T = {geom.T!r}, got {T!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    n = model.dim
    e = geom.e
    if (e.T, e.n) != (T, n):
        raise ValueError(f"direction e has T = {e.T!r}, n = {e.n}; loops T = {T!r}, n = {n}")

    alpha = np.min(action_values(sphere_rows(rng, T, n, K, geom.rho, n_samples),
                                 T, model))

    face = np.repeat([0, 1, 2], max(n_samples // 3, 8))   # bottom disk, lateral shell, top disk
    z = rng.standard_normal((face.size, n))
    u = rng.uniform(size=face.size)
    radius = geom.r1 * np.where(face == 1, 1.0, u ** (1.0 / n))
    s = np.append(geom.r2 * np.where(face == 1, u, face / 2.0), 0.0)
    x1 = np.zeros((s.size, n))                            # the last point is the zero loop
    x1[:-1] = (radius / np.linalg.norm(z, axis=1))[:, None] * z
    beta = np.max(cylinder_values(e, max(K, e.K), x1, s, model))

    return replace(geom, alpha_sampled=float(alpha), beta_sampled=float(beta),
                   passed=bool(alpha > beta and alpha >= geom.alpha_bound - LEVEL_TOL),
                   n_samples=n_samples, seed=seed)


# -- saddle calibration -------------------------------------------------


def _box_boundary_points(rng: np.random.Generator, n: int, R: float,
                         count: int) -> np.ndarray:
    """Points on the max-norm sphere ||x||_inf = R (the pinned family)."""
    pts = rng.uniform(-R, R, size=(count, n))
    face = rng.integers(0, n, size=count)
    signs = rng.choice([-1.0, 1.0], size=count)
    pts[np.arange(count), face] = signs * R
    # Face centers are where a coercive potential is smallest.
    centers = np.vstack([s * R * np.eye(n)[i] for i in range(n) for s in (-1.0, 1.0)])
    return np.vstack([pts, centers])


def calibrate_saddle(model: PotentialModel, certs: dict, T: float,
                     K: int = 16, seed: int = 0, max_doublings: int = 40) -> LinkingGeometry:
    """Grow R until sup f on the boundary sphere sits below inf f on X2.

    V4' (the quadratic bound with the Wirtinger constant) bounds the inf
    by -a T, and that bound decides: it must lie above beta_sampled, the
    sampled sup of f over constant loops on the boundary.  If no gap opens
    within the doubling budget, the potential is reported non-coercive.

    alpha_sampled is sampled evidence: the min of f over the zero loop,
    which is critical for f restricted to X2 for every V (its nodal
    gradient grad V(0) has no zero-mean part), and ZERO_MEAN_SAMPLES random
    loops of X2 drawn after the boundary points.  V4' puts every
    sample at or above -a T, so a pass also needs alpha_sampled >=
    -a T - LEVEL_TOL, and alpha_sampled > beta_sampled then follows.
    """
    A, a = float(certs["A"]), float(certs["a"])
    _require_below_threshold(A, T)
    rng = np.random.default_rng(seed)
    n = model.dim
    inf_bound = -a * T
    gap_margin = 1e-3 * T * (1.0 + abs(a))

    R = 1.0
    beta = np.inf
    for _ in range(max_doublings):
        pts = _box_boundary_points(rng, n, R, BOUNDARY_SAMPLES)
        beta = float(np.max(-T * model.value(pts)))
        if beta <= inf_bound - gap_margin:
            break
        R *= 2.0
    else:
        raise NonCoerciveError(
            f"sup f on the boundary stayed at {beta:g} >= {inf_bound:g} up to "
            f"R = {R:g}; the potential does not look coercive")

    rows = np.zeros((ZERO_MEAN_SAMPLES + 1, 2 * K + 1, n))     # row 0 is the zero loop
    for row in rows[1:]:
        row[:] = random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5).coefficients()
    alpha = float(np.min(action_values(rows, T, model)))

    return LinkingGeometry(mode="saddle", T=T, alpha_bound=inf_bound, R=R,
                           alpha_sampled=alpha, beta_sampled=beta,
                           passed=bool(alpha > beta and inf_bound > beta
                                       and alpha >= inf_bound - LEVEL_TOL),
                           n_samples=BOUNDARY_SAMPLES, seed=seed)
