"""Locally Lipschitz potentials with an explicit subdifferential oracle.

Two structural classes are supported: smooth potentials (a value map with
its gradient) and finite maxima of smooth pieces V(x) = max_i V_i(x).
For the latter the generalized gradient at x is the convex hull of the
gradients of the pieces active at x, which is exact for max-type
functions; fully general Lipschitz potentials admit no computable oracle
and are out of scope.

The module also certifies, by sampling, the growth hypotheses used by
the existence theory: a superquadratic set

    (V2)  <y, x> >= mu1 V(x) + mu2  for all y in dV(x), mu1 > 2
    (V3)  V(x) >= a1 |x|^mu1 + a2,  a1 > 0
    (V4)  0 <= V(x) <= A |x|^2 on a stated ball around the origin

and a subquadratic set

    (V2') <y, x> <= mu1 V(x) + mu2  for all y in dV(x), mu1 < 2
    (V3') V(x) -> +inf as |x| -> inf (tested on an outer shell)
    (V4') V(x) <= A |x|^2 + a everywhere.

The hypotheses are universally quantified, so a sampler can only
falsify them or build confidence; certificates record the sample budget
and the worst observed margin rather than claiming a proof.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

Value = Callable[[np.ndarray], np.ndarray]
Gradient = Callable[[np.ndarray], np.ndarray]

SUPERQUADRATIC = ("V2", "V3", "V4")
SUBQUADRATIC = ("V2'", "V3'", "V4'")

# The parameters of each hypothesis and their defaults; None marks a
# required one.
HYPOTHESIS_PARAMS = {
    "V2": {"mu1": None, "mu2": 0.0},
    "V3": {"mu1": None, "a1": None, "a2": 0.0},
    "V4": {"A": None, "radius": 1.0},
    "V2'": {"mu1": None, "mu2": 0.0},
    "V3'": {"threshold": 0.0},
    "V4'": {"A": None, "a": 0.0},
}


@dataclass(frozen=True)
class PotentialModel:
    """Potential V on R^n, either smooth or a finite max of smooth pieces.

    Value and gradient maps must be pure and vectorized: values accept
    points of shape (..., n) and return (...,), gradients return (..., n).
    """

    dim: int
    values: tuple[Value, ...]
    gradients: tuple[Gradient, ...]
    kind: str  # "smooth" | "max"
    name: str = "custom"

    @classmethod
    def smooth(cls, value: Value, gradient: Gradient, dim: int,
               name: str = "custom") -> "PotentialModel":
        return cls(dim, (value,), (gradient,), "smooth", name)

    @classmethod
    def piecewise_max(cls, pieces: Sequence[tuple[Value, Gradient]], dim: int,
                      name: str = "custom") -> "PotentialModel":
        if not pieces:
            raise ValueError("need at least one piece")
        vals, grads = zip(*pieces)
        return cls(dim, tuple(vals), tuple(grads), "max", name)

    @property
    def n_pieces(self) -> int:
        return len(self.values)

    def piece_values(self, x: np.ndarray) -> np.ndarray:
        """Stack of piece values, shape (n_pieces,) + x.shape[:-1]."""
        return np.stack([v(x) for v in self.values], axis=0)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "smooth":
            return self.values[0](x)
        return np.max(self.piece_values(x), axis=0)


@dataclass(frozen=True)
class SubgradientSet:
    """dV(x) as the convex hull of finitely many gradient vectors."""

    x: np.ndarray
    vertices: np.ndarray        # (m, n), gradients of the active pieces
    active: tuple[int, ...]     # indices of the active pieces

    def __post_init__(self):
        if self.vertices.shape[0] < 1:
            raise RuntimeError("internal error: empty active set")


def active_set(piece_vals: np.ndarray, tol_active: float | None = None,
               widen: float = 1.0) -> np.ndarray:
    """The one activity rule: V_i(x) >= V(x) - widen * tol.

    piece_vals has shape (n_pieces, ...) (as PotentialModel.piece_values
    returns); the mask has the same shape.  tol defaults to the relative
    1e-8 (1 + |V(x)|) per point, since an absolute one fails under
    scaling; a given tol_active (scalar or per point) replaces it.
    widen > 1 admits near-active pieces as well.
    """
    top = np.max(piece_vals, axis=0)
    tol = 1e-8 * (1.0 + np.abs(top)) if tol_active is None else tol_active
    return piece_vals >= top - tol * widen


def subdiff(model: PotentialModel, x, tol_active: float | None = None) -> SubgradientSet:
    """Active-piece gradients at x: {grad V_i(x) : V_i(x) >= V(x) - tol}."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x}")
    if tol_active is not None and tol_active < 0:
        raise ValueError(f"tol_active must be >= 0, got {tol_active}")
    if model.kind == "smooth":
        g = np.asarray(model.gradients[0](x), dtype=float)
        return SubgradientSet(x=x, vertices=g[None, :], active=(0,))
    active = tuple(int(i) for i in np.flatnonzero(
        active_set(model.piece_values(x), tol_active)))
    verts = np.stack([np.asarray(model.gradients[i](x), dtype=float) for i in active])
    return SubgradientSet(x=x, vertices=verts, active=active)


# -- hypothesis certification ----------------------------------------


@dataclass(frozen=True)
class SamplerSpec:
    """Where and how much to sample: radii in [r_min, r_max], count, seed.

    Half the points come from a Sobol sequence, half from a seeded
    generator; directions are uniform on the sphere and radii uniform in
    the stated range.  r_min > 0 restricts a hypothesis to an outer
    region (the classical superquadratic condition is only needed for
    |x| >= r0, so both readings are testable).
    """

    r_min: float = 0.0
    r_max: float = 10.0
    count: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.count, numbers.Integral) and self.count >= 1):
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if not (np.isfinite(self.r_max) and 0.0 <= self.r_min < self.r_max):
            raise ValueError(f"bad radius range [{self.r_min}, {self.r_max}]")

    def points(self, dim: int) -> np.ndarray:
        n_sobol = self.count // 2
        n_rand = self.count - n_sobol
        rng = np.random.default_rng(self.seed)
        blocks = []
        if n_sobol > 0:
            eng = qmc.Sobol(d=dim + 1, scramble=False)
            # Draw a power-of-two block (Sobol balance), keep what we need.
            u = eng.random_base2(int(np.ceil(np.log2(n_sobol))) if n_sobol > 1 else 1)[:n_sobol]
            z = _ball_directions_from_unit(u[:, :dim], dim)
            r = self.r_min + (self.r_max - self.r_min) * u[:, dim]
            blocks.append(z * r[:, None])
        if n_rand > 0:
            z = rng.standard_normal((n_rand, dim))
            z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
            r = rng.uniform(self.r_min, self.r_max, size=n_rand)
            blocks.append(z * r[:, None])
        return np.vstack(blocks)


def _ball_directions_from_unit(u: np.ndarray, dim: int) -> np.ndarray:
    """Map unit-cube rows to sphere directions via the Gaussian inverse CDF."""
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    if dim == 1:
        out = np.sign(z)
        out[out == 0.0] = 1.0
        return out
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # The cube center maps to the zero vector; give it a fixed direction.
    degenerate = norms[:, 0] < 1e-10
    z[degenerate] = 0.0
    z[degenerate, 0] = 1.0
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norms


@dataclass(frozen=True)
class HypothesisCertificate:
    """Sampled evidence for one growth hypothesis.

    passed is True when the worst margin stays above -1e-9; a failing
    certificate is a valid negative result, not an error.
    """

    hypothesis: str
    params: dict
    sample_count: int
    worst_margin: float
    passed: bool
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "params": {k: float(v) for k, v in self.params.items()},
            "sample_count": self.sample_count,
            "worst_margin": float(self.worst_margin),
            "passed": bool(self.passed),
            "flags": dict(self.flags),
        }


PASS_TOL = 1e-9


def certify(model: PotentialModel, hypothesis: str, params: dict,
            sampler: SamplerSpec | None = None) -> HypothesisCertificate:
    """Sample one hypothesis and report the worst margin (>= 0 is good).

    Margins per sample point x:

      V2   min_{y in vertices} <y,x> - mu1 V(x) - mu2
      V2'  mu1 V(x) + mu2 - max_{y in vertices} <y,x>
      V3   V(x) - a1 |x|^mu1 - a2
      V3'  min V on the outer shell minus the coercivity threshold
      V4   min(V(x), A|x|^2 - V(x)) on the stated ball
      V4'  A|x|^2 + a - V(x)
    """
    if hypothesis not in HYPOTHESIS_PARAMS:
        raise ValueError(f"unknown hypothesis {hypothesis!r}, "
                         f"expected one of {tuple(HYPOTHESIS_PARAMS)}")
    params = {**HYPOTHESIS_PARAMS[hypothesis], **params}
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"{hypothesis} requires {missing}")
    if hypothesis == "V2" and not params["mu1"] > 2.0:
        raise ValueError(f"V2 requires mu1 > 2, got {params['mu1']}")
    if hypothesis == "V2'" and not params["mu1"] < 2.0:
        raise ValueError(f"V2' requires mu1 < 2, got {params['mu1']}")
    if hypothesis == "V3" and not params["a1"] > 0.0:
        raise ValueError(f"V3 requires a1 > 0, got {params['a1']}")

    if sampler is None:
        sampler = SamplerSpec()
    if hypothesis == "V4":
        sampler = SamplerSpec(0.0, float(params["radius"]), sampler.count, sampler.seed)
    if hypothesis == "V3'":
        # Coercivity is probed on the outer shell only.
        shell = max(sampler.r_max * 0.9, sampler.r_min)
        sampler = SamplerSpec(shell, sampler.r_max, sampler.count, sampler.seed)

    pts = sampler.points(model.dim)
    vals = model.value(pts)
    r2 = np.sum(pts ** 2, axis=1)
    flags: dict = {}

    if hypothesis in ("V2", "V2'"):
        mu1, mu2 = float(params["mu1"]), float(params["mu2"])
        pairing = _pairing_extremes(model, pts, minimum=(hypothesis == "V2"))
        if hypothesis == "V2":
            margins = pairing - mu1 * vals - mu2
        else:
            margins = mu1 * vals + mu2 - pairing
    elif hypothesis == "V3":
        a1, a2, mu1 = float(params["a1"]), float(params["a2"]), float(params["mu1"])
        margins = vals - a1 * np.sqrt(r2) ** mu1 - a2
    elif hypothesis == "V3'":
        threshold = float(params["threshold"])
        margins = vals - threshold
        min_shell = float(np.min(vals))
        flags["min_on_shell"] = min_shell
        if min_shell <= threshold:
            flags["non_coercive"] = True
    elif hypothesis == "V4":
        A = float(params["A"])
        margins = np.minimum(vals, A * r2 - vals)
        flags["radius"] = float(params["radius"])
    else:  # V4'
        A, a = float(params["A"]), float(params["a"])
        margins = A * r2 + a - vals

    worst = float(np.min(margins))
    return HypothesisCertificate(
        hypothesis=hypothesis,
        params=params,
        sample_count=pts.shape[0],
        worst_margin=worst,
        passed=worst >= -PASS_TOL,
        flags=flags,
    )


def _pairing_extremes(model: PotentialModel, pts: np.ndarray, minimum: bool) -> np.ndarray:
    """min or max of <y, x> over subdifferential vertices, per point.

    The active pieces at each point are those subdiff would pick with its
    default tolerance; all points are paired at once.
    """
    active = active_set(model.piece_values(pts))          # (P, M)
    # Row-by-row matmul, the product subdiff's vertices @ x computes.
    pairings = np.stack([(np.asarray(g(pts), dtype=float)[:, None, :]
                          @ pts[:, :, None])[:, 0, 0]
                         for g in model.gradients])       # (P, M)
    if minimum:
        return np.min(np.where(active, pairings, np.inf), axis=0)
    return np.max(np.where(active, pairings, -np.inf), axis=0)


# -- built-in zoo -----------------------------------------------------
#
# Each entry documents the constants its certificates are run with.
# quartic:    V = |x|^4 / 4.   (V2) mu1=4, mu2=0 exactly (Euler identity);
#             (V3) a1=1/4, a2=0; (V4) A=1/4 on the unit ball.
# maxpair:    V = max(|x|^4, 2|x|^4 - 1).  (V2) mu1=4, mu2=0;
#             (V3) a1=1, a2=-1; (V4) A=1 on the unit ball.
# subq32:     V = |x|^{3/2}.  (V2') mu1=3/2, mu2=0 exactly;
#             (V3') coercive; (V4') A=1, a=27/256.
# subq32cos:  V = |x|^{3/2} + 0.3 cos(x_1).  (V2') mu1=1.8, mu2=0.75;
#             (V3') coercive; (V4') A=1, a=0.5.


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis as a column sum: a tenth of the time of
    numpy's reduce over a short axis.  For n < 8 both add left to right,
    so the bits are those of np.sum(x ** 2, axis=-1); from n = 8 numpy
    sums in eight lanes and the two differ by a few ulp."""
    x = np.asarray(x, dtype=float)
    out = x[..., 0] ** 2
    for j in range(1, x.shape[-1]):
        out = out + x[..., j] ** 2
    return out


def make_quartic(dim: int) -> PotentialModel:
    def val(x):
        return 0.25 * _sq_norm(x) ** 2

    def grad(x):
        return _sq_norm(x)[..., None] * x

    return PotentialModel.smooth(val, grad, dim, name="quartic")


def make_maxpair(dim: int) -> PotentialModel:
    def v1(x):
        return _sq_norm(x) ** 2

    def g1(x):
        return 4.0 * _sq_norm(x)[..., None] * x

    def v2(x):
        return 2.0 * _sq_norm(x) ** 2 - 1.0

    def g2(x):
        return 8.0 * _sq_norm(x)[..., None] * x

    return PotentialModel.piecewise_max([(v1, g1), (v2, g2)], dim, name="maxpair")


def make_subq32(dim: int) -> PotentialModel:
    def val(x):
        return _sq_norm(x) ** 0.75

    def grad(x):
        # grad |x|^{3/2} = 1.5 |x|^{-1/2} x, which extends by 0 at x = 0.
        r = np.sqrt(_sq_norm(x))
        scale = np.where(r > 0, 1.5 * np.maximum(r, 1e-300) ** -0.5, 0.0)
        return scale[..., None] * x

    return PotentialModel.smooth(val, grad, dim, name="subq32")


def make_subq32cos(dim: int, amp: float = 0.3) -> PotentialModel:
    base = make_subq32(dim)

    def val(x):
        x = np.asarray(x, dtype=float)
        return base.values[0](x) + amp * np.cos(x[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.array(base.gradients[0](x))
        g[..., 0] -= amp * np.sin(x[..., 0])
        return g

    return PotentialModel.smooth(val, grad, dim, name="subq32cos")


def make_maxpoly(coeff_lists: Sequence[Sequence[float]], dim: int) -> PotentialModel:
    """Max of radial polynomials: piece i is sum_j c_ij |x|^(2j).

    Coefficients are powers of |x|^2, so every piece is smooth.
    """
    pieces = []
    for coeffs in coeff_lists:
        c = np.asarray(coeffs, dtype=float)

        def val(x, c=c):
            s = _sq_norm(x)
            return sum(c[j] * s ** j for j in range(len(c)))

        def grad(x, c=c):
            x = np.asarray(x, dtype=float)
            s = _sq_norm(x)
            dvds = sum(j * c[j] * s ** (j - 1) for j in range(1, len(c)))
            if len(c) <= 1:
                return np.zeros_like(x)
            return 2.0 * np.asarray(dvds)[..., None] * x

        pieces.append((val, grad))
    return PotentialModel.piecewise_max(pieces, dim, name="maxpoly")


ZOO = {
    "quartic": make_quartic,
    "maxpair": make_maxpair,
    "subq32": make_subq32,
    "subq32cos": make_subq32cos,
}

# Documented hypothesis constants for the zoo, keyed by model name.
ZOO_PARAMS = {
    "quartic": {
        "V2": {"mu1": 4.0, "mu2": 0.0},
        "V3": {"mu1": 4.0, "a1": 0.25, "a2": 0.0},
        "V4": {"A": 0.25, "radius": 1.0},
    },
    "maxpair": {
        "V2": {"mu1": 4.0, "mu2": 0.0},
        "V3": {"mu1": 4.0, "a1": 1.0, "a2": -1.0},
        "V4": {"A": 1.0, "radius": 1.0},
    },
    "subq32": {
        "V2'": {"mu1": 1.5, "mu2": 0.0},
        "V3'": {"threshold": 0.0},
        "V4'": {"A": 1.0, "a": 27.0 / 256.0},
    },
    "subq32cos": {
        "V2'": {"mu1": 1.8, "mu2": 0.75},
        "V3'": {"threshold": 0.0},
        "V4'": {"A": 1.0, "a": 0.5},
    },
}


def from_spec(spec: dict) -> PotentialModel:
    """Build a model from a config mapping {type: ..., params...}."""
    spec = dict(spec)
    kind = spec.pop("type", None)
    dim = int(spec.pop("dim", 1))
    if kind in ZOO:
        if kind == "subq32cos" and "amp" in spec:
            return make_subq32cos(dim, amp=float(spec["amp"]))
        return ZOO[kind](dim)
    if kind == "maxpoly":
        return make_maxpoly(spec["pieces"], dim)
    raise ValueError(f"unknown potential type {kind!r}")
