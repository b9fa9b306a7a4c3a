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
drops below the analytic lower bound of f on the zero-mean subspace.

Certificates are sampled evidence plus the analytic bound: a failing
certificate is a valid negative result.  Samples are coefficient rows
drawn in a fixed rng order and evaluated as stacked action_values
batches, bit-identical per row to one action_value call each; the
descents that estimate inf f on X2 run in lockstep as such a batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .action import action_value, action_values, min_norm_residuals
from .potentials import PotentialModel
from .trajectory import PeriodicTrajectory, l2_norm, l2_norm_row, random_trajectory


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

    @property
    def gap(self) -> float | None:
        if self.alpha_sampled is None or self.beta_sampled is None:
            return None
        return self.alpha_sampled - self.beta_sampled

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
                             e: PeriodicTrajectory | None = None,
                             max_doublings: int = 60) -> LinkingGeometry:
    """Choose rho, r1, r2 and the direction e from certified constants.

    certs carries A and the ball radius of the quadratic bound, plus the
    growth constants a1, a2, mu1.  rho is capped so the sup-norm of every
    sphere sample stays inside the certified ball (||q||_inf <=
    sqrt(T/12) rho); r2 (with r1 = r2/4) doubles until the Jensen bound
    is strictly negative on the lateral and top faces.
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
    e_l2sq = l2_norm(e) ** 2

    s_grid = np.linspace(0.0, 1.0, 513)
    r2 = max(2.0 * rho, 1.0)
    for _ in range(max_doublings):
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
                count: int, low_mode_fraction: float = 0.7,
                low_mode_max: int = 4) -> np.ndarray:
    """count random zero-mean loops scaled to ||qdot||_L2 = rho, as rows (count, 2K+1, n).

    Mixes mostly low-mode samples (which minimize f at fixed rho and so
    dominate the true minimum) with full-spectrum ones.  The rows draw
    from rng in turn and are built with the arithmetic of
    random_trajectory, pad_modes and l2_norm(q.derivative()), so a row
    equals the loop those would give from the same rng state.
    """
    rows = np.zeros((count, 2 * K + 1, n))
    for row in rows:
        if rng.uniform() < low_mode_fraction:
            k, decay = min(low_mode_max, K), 1.0
        else:
            k, decay = K, 1.5
        scale = np.arange(1, k + 1, dtype=float) ** (-decay)
        row[1:k + 1] = rng.standard_normal((k, n)) * scale[:, None]
        row[K + 1:K + 1 + k] = rng.standard_normal((k, n)) * scale[:, None]
    kin = _kinetic_norm(rows, T)
    flat = kin == 0.0                       # fall back to sin(w_1 t) e_1
    rows[flat] = 0.0
    rows[flat, K + 1, 0] = 1.0
    kin[flat] = _kinetic_norm(rows[flat], T)
    rows *= (rho / kin)[:, None, None]
    return rows


def _kinetic_norm(c: np.ndarray, T: float) -> np.ndarray:
    """l2_norm(q.derivative()) of each loop with coefficient row c (..., 2K+1, n)."""
    K = (c.shape[-2] - 1) // 2
    w = (2.0 * np.pi * np.arange(1, K + 1) / T)[:, None]
    wa, wb = w * c[..., 1:K + 1, :], w * c[..., K + 1:, :]
    return np.sqrt(0.5 * T * (np.sum(wb * wb, axis=(-2, -1)) + np.sum(wa * wa, axis=(-2, -1))))


def certify_linking(geom: LinkingGeometry, model: PotentialModel, T: float,
                    n_samples: int = 200, K: int = 16,
                    seed: int = 0) -> LinkingGeometry:
    """Sample f on the sphere S and on the three cylinder-boundary faces.

    alpha_sampled is the minimum over S (never exceeding f at any
    individual S point by construction); beta_sampled the maximum over
    the bottom disk, the lateral shell and the top disk.  The returned
    geometry records pass <=> alpha_sampled > beta_sampled; a fail is a
    valid negative certificate.

    The samples are rows drawn in the order sphere, bottom disk, zero
    loop, lateral shell, top disk, and evaluated as stacked action_values
    batches, bit-identical per row to one action_value call each.  Disk
    rows carry K modes; rows x1 + s e carry max(K, e.K), as loop sums do.
    """
    if geom.mode != "superquadratic":
        raise ValueError("certify_linking applies to superquadratic geometries")
    if T != geom.T:
        raise ValueError(f"geometry and direction e were calibrated for T = {geom.T!r}, got {T!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    n = model.dim
    e = geom.e.pad_modes(max(K, geom.e.K))
    if (e.T, e.n) != (T, n):
        raise ValueError(f"direction e has T = {e.T!r}, n = {e.n}; loops T = {T!r}, n = {n}")

    alpha = np.min(action_values(sphere_rows(rng, T, n, K, geom.rho, n_samples),
                                 T, model))

    per_face = max(n_samples // 3, 8)
    disks = np.zeros((per_face + 1, 2 * K + 1, n))   # bottom disk (s = 0), zero loop
    for row in disks[:per_face]:
        row[0] = _ball_point(rng, n, geom.r1)
    shell = np.zeros((2 * per_face, 2 * e.K + 1, n))  # x1 + s e: lateral, then top
    s = np.full(2 * per_face, geom.r2)
    for i in range(per_face):                       # lateral shell, |x1| = r1
        shell[i, 0] = _sphere_point(rng, n, geom.r1)
        s[i] = rng.uniform(0.0, geom.r2)
    for row in shell[per_face:]:                    # top disk, s = r2
        row[0] = _ball_point(rng, n, geom.r1)
    shell += s[:, None, None] * e.coefficients()
    beta = max(np.max(action_values(rows, T, model)) for rows in (disks, shell))

    return replace(geom, alpha_sampled=float(alpha), beta_sampled=float(beta),
                   passed=bool(alpha > beta), n_samples=n_samples, seed=seed)


def _sphere_point(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    z = rng.standard_normal(n)
    return radius * z / max(np.linalg.norm(z), 1e-300)


def _ball_point(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    return _sphere_point(rng, n, radius) * rng.uniform() ** (1.0 / n)


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


def _descend_lockstep(model: PotentialModel, T: float, starts: np.ndarray) -> np.ndarray:
    """Crude preconditioned descents in the zero-mean subspace, one per row of starts.

    Each step makes one min_norm_residuals call over the live rows and one
    action_values call per halving round over the rows still searching;
    every row keeps its own step, Armijo test and 60-step budget.  Returns
    each row's last accepted f, its smallest (an accepted step lowers f).
    Used only to estimate inf f on the subspace, not to locate critical points.
    """
    q = np.array(starts, dtype=float)
    K = (q.shape[1] - 1) // 2
    omegas = 2.0 * np.pi * np.arange(1, K + 1) / T
    precond = np.concatenate([[0.0], np.tile(1.0 / (1.0 + omegas ** 2), 2)])[:, None]
    f = action_values(q, T, model)
    step = np.ones(len(q))
    live = np.arange(len(q))
    for _ in range(60):
        if not live.size:
            break
        d = min_norm_residuals(q[live], T, model) * precond * (-1.0)
        d[:, 0] = 0.0                                   # stay zero-mean
        dn2 = np.array([l2_norm_row(row, T) ** 2 for row in d])
        moving = dn2 != 0.0
        live, d, dn2 = live[moving], d[moving], dn2[moving]
        searching = np.arange(live.size)                # indices into live
        for _ in range(30):
            if not searching.size:
                break
            rows = live[searching]
            trial = q[rows] + step[rows, None, None] * d[searching]
            ft = action_values(trial, T, model)
            ok = ft <= f[rows] - 1e-4 * step[rows] * dn2[searching]
            q[rows[ok]], f[rows[ok]] = trial[ok], ft[ok]
            step[rows[ok]] *= 2.0
            step[rows[~ok]] *= 0.5
            searching = searching[~ok]
        live = np.delete(live, searching)               # failed line searches stop
    return f


def calibrate_saddle(model: PotentialModel, certs: dict, T: float,
                     K: int = 16, seed: int = 0, n_samples: int = 120,
                     n_descents: int = 4, max_doublings: int = 40,
                     gap_margin: float | None = None) -> LinkingGeometry:
    """Grow R until sup f on the boundary sphere sits below inf f on X2.

    The inf is bounded analytically by -a T through the quadratic bound
    (with the Wirtinger constant) and estimated by preconditioned
    descent from random zero-mean starts; the sup over constant loops on
    the boundary is sampled.  Failure to open a gap within the doubling
    budget reports the potential as non-coercive.

    The starts are drawn up front (the descents draw nothing) and descend
    in lockstep as one batch; a row stopped by dn2 == 0 or by a failed
    line search drops out of it.
    """
    A, a = float(certs["A"]), float(certs["a"])
    _require_below_threshold(A, T)
    rng = np.random.default_rng(seed)
    n = model.dim
    inf_bound = -a * T
    if gap_margin is None:
        gap_margin = 1e-3 * T * (1.0 + abs(a))

    R = 1.0
    beta = np.inf
    for _ in range(max_doublings):
        pts = _box_boundary_points(rng, n, R, n_samples)
        beta = float(np.max(-T * model.value(pts)))
        if beta <= inf_bound - gap_margin:
            break
        R *= 2.0
    else:
        raise NonCoerciveError(
            f"sup f on the boundary stayed at {beta:g} >= {inf_bound:g} up to "
            f"R = {R:g}; the potential does not look coercive")

    starts = np.zeros((n_descents, 2 * K + 1, n))
    for row in starts:
        row[:] = random_trajectory(rng, T, n, K, zero_mean=True, decay=1.5).coefficients()
    alpha = np.min(_descend_lockstep(model, T, starts), initial=np.inf)
    alpha = float(min(alpha, action_value(PeriodicTrajectory.zero(T, n, K), model)))

    return LinkingGeometry(mode="saddle", T=T, alpha_bound=inf_bound, R=R,
                           alpha_sampled=alpha, beta_sampled=beta,
                           passed=bool(alpha > beta and inf_bound > beta),
                           n_samples=n_samples, seed=seed)
