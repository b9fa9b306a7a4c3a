"""Locally Lipschitz potentials with an explicit subdifferential oracle.

A model is a finite max of smooth pieces V(x) = max_i V_i(x), smooth
when it has one piece; dV(x) is the convex hull of the active pieces'
gradients, exact for max-type functions (Clarke 1983, 2.3).  Fully
general Lipschitz potentials admit no computable oracle and are out of
scope.  quartic, maxpair and maxpoly are maxima of radial polynomials
p_i(|x|^2), coefficient tables read by one evaluator.

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

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

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
    """Potential V on R^n, the max of one or more smooth pieces.

    Value and gradient maps must be pure and vectorized: values accept
    points of shape (..., n) and return (...,), gradients return (..., n).
    kind is "smooth" for one piece, whichever factory built it, else "max".
    """

    dim: int
    values: tuple[Value, ...]
    gradients: tuple[Gradient, ...]
    name: str = "custom"

    @classmethod
    def smooth(cls, value: Value, gradient: Gradient, dim: int,
               name: str = "custom") -> "PotentialModel":
        return cls(dim, (value,), (gradient,), name)

    @classmethod
    def piecewise_max(cls, pieces: Sequence[tuple[Value, Gradient]], dim: int,
                      name: str = "custom") -> "PotentialModel":
        if not pieces:
            raise ValueError("need at least one piece")
        vals, grads = zip(*pieces)
        return cls(dim, tuple(vals), tuple(grads), name)

    @property
    def kind(self) -> str:
        return "smooth" if len(self.values) == 1 else "max"

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


def active_set(piece_vals: np.ndarray) -> np.ndarray:
    """The one activity rule: V_i(x) >= V(x) - 1e-7 (1 + |V(x)|).

    piece_vals has shape (n_pieces, ...) (as PotentialModel.piece_values
    returns); the mask has the same shape.  The band is relative, since
    an absolute one fails under scaling, and wide enough that a node's
    selection does not chatter across a kink during line searches.  The
    polish, its Jacobians, the inclusion gate, the V2 pairing and subdiff
    all decide activity here, so "critical" means one thing to each.
    """
    top = np.max(piece_vals, axis=0)
    # Not 1e-7 * (...): the two round apart at the band's edge, and this
    # form keeps the masks, and so the artifacts, bit for bit.  An infinite
    # top makes the band NaN; the pieces equal to it are then the active ones.
    return (piece_vals >= top - 1e-8 * (1.0 + np.abs(top)) * 10.0) | (piece_vals == top)


def subdiff(model: PotentialModel, x) -> SubgradientSet:
    """Active-piece gradients at x, the pieces active_set admits."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x}")
    active = tuple(int(i) for i in np.flatnonzero(active_set(model.piece_values(x))))
    verts = np.stack([np.asarray(model.gradients[i](x), dtype=float) for i in active])
    return SubgradientSet(x=x, vertices=verts, active=active)


# -- hypothesis certification ----------------------------------------


# Sobol direction numbers: rows 1-21 of Joe & Kuo's new-joe-kuo-6.21201
# table (SIAM J. Sci. Comput. 30, 2008), as (primitive polynomial with
# its leading and trailing bits, initial m_1..m_s).  Row 1 is van der
# Corput's sequence, every m_i = 1.
_JOE_KUO = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)
SOBOL_BITS = 30
# The sampler draws dim + 1 Sobol coordinates (direction and radius).
MAX_SAMPLER_DIM = len(_JOE_KUO) - 1


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """Direction integers v[k, j] = m_k 2^(BITS - 1 - k) of the first d
    coordinates, shape (BITS, d).  Past its initial m_1..m_s, coordinate
    j follows the Bratley-Fox recurrence m_k = m_(k-s) ^ 2^s m_(k-s) ^
    XOR_(0<i<s) 2^i a_i m_(k-i), a_i the polynomial's inner bits."""
    cols = [[1] * SOBOL_BITS]
    for poly, m_init in _JOE_KUO[1:d]:
        s = poly.bit_length() - 1
        m = list(m_init)
        for k in range(s, SOBOL_BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (poly >> (s - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        cols.append(m)
    v = np.array(cols, dtype=np.int64).T << np.arange(SOBOL_BITS - 1, -1, -1)[:, None]
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=16)
def _sobol_block(d: int, m: int) -> np.ndarray:
    """The first 2^m points of the unscrambled d-dimensional Sobol
    sequence, origin first, in Gray-code order: point i is the XOR of
    the direction integers at the set bits of gray(i) = i ^ (i >> 1),
    times 2^-BITS.  Cached, so read-only."""
    v = _sobol_directions(d)
    i = np.arange(1 << m, dtype=np.int64)
    gray = i ^ (i >> 1)
    x = np.zeros((1 << m, d), dtype=np.int64)
    for k in range(m):
        x[(gray >> k) & 1 == 1] ^= v[k]
    block = x * 2.0 ** -SOBOL_BITS
    block.flags.writeable = False
    return block


@dataclass(frozen=True)
class SamplerSpec:
    """Where and how much to sample: radii in [r_min, r_max], count, seed.

    Half the points come from a Sobol sequence, half from a seeded
    generator; directions are uniform on the sphere and radii uniform in
    the stated range.  r_min > 0 restricts a hypothesis to an outer
    region (the classical superquadratic condition is only needed for
    |x| >= r0, so both readings are testable).

    The Sobol half is the unscrambled sequence in dim + 1 coordinates,
    origin included, in Gray-code order (Antonov & Saleev 1979) with 30
    bits and the direction numbers of Joe & Kuo's first 21 rows, so dim
    is at most 20 (MAX_SAMPLER_DIM).  It takes the first count // 2
    points of the smallest power-of-two block, of at least 2 points,
    that holds them.
    """

    r_min: float = 0.0
    r_max: float = 10.0
    count: int = 2000
    seed: int = 0

    def __post_init__(self):
        for key in ("count", "seed", "r_min", "r_max"):
            if isinstance(getattr(self, key), bool):
                raise ValueError(f"{key} must be a number, got {getattr(self, key)!r}")
        if not (isinstance(self.count, numbers.Integral) and self.count >= 1):
            raise ValueError(f"count must be an integer >= 1, got {self.count!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (np.isfinite(self.r_max) and 0.0 <= self.r_min < self.r_max):
            raise ValueError(f"bad radius range [{self.r_min}, {self.r_max}]")

    def points(self, dim: int) -> np.ndarray:
        if dim > MAX_SAMPLER_DIM:
            raise ValueError(f"dim must be <= {MAX_SAMPLER_DIM} for the Sobol "
                             f"sampler, got {dim}")
        n_sobol = self.count // 2
        n_rand = self.count - n_sobol
        rng = np.random.default_rng(self.seed)
        blocks = []
        if n_sobol > 0:
            # Draw a power-of-two block (Sobol balance), keep what we need.
            m = int(np.ceil(np.log2(n_sobol))) if n_sobol > 1 else 1
            u = _sobol_block(dim + 1, m)[:n_sobol]
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

    The active pieces at each point are those active_set (and so subdiff)
    admits; all points are paired at once.
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
# quartic:    V = |x|^4 / 4, the radial table ((0, 0, 1/4),): one piece,
#             so smooth.  (V2) mu1=4, mu2=0 exactly (Euler identity);
#             (V3) a1=1/4, a2=0; (V4) A=1/4 on the unit ball.
# maxpair:    V = max(|x|^4, 2|x|^4 - 1), the table ((0, 0, 1), (-1, 0, 2)).
#             (V2) mu1=4, mu2=0; (V3) a1=1, a2=-1; (V4) A=1 on the unit ball.
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


def _power_sum(const: float, terms: list[tuple[int, float]], s):
    """const + sum c s^j over terms, the nonzero (j >= 1, c) in ascending
    j, summed from the constant, a scalar, with no s ** 1 or 1.0 * t
    formed: the bits of the sum written out by hand."""
    out = None if const == 0.0 else const
    for j, c in terms:
        t = s if j == 1 else s ** j
        t = t if c == 1.0 else c * t
        out = t if out is None else out + t
    return out if terms else np.full_like(s, const)


def _radial_max(table: Sequence[Sequence[float]], dim: int, name: str) -> PotentialModel:
    """max_i p_i(|x|^2), p_i(s) = sum_j table[i][j] s^j.  Piece i's
    gradient is 2 p_i'(s) x, its coefficients 2 j c_ij formed once."""
    def piece(coeffs):
        c = [float(cj) for cj in coeffs]
        d = [2.0 * j * cj for j, cj in enumerate(c)][1:] or [0.0]   # 2 p'(s)
        v_terms = [(j, cj) for j, cj in enumerate(c) if j and cj]
        g_terms = [(j, dj) for j, dj in enumerate(d) if j and dj]
        return (lambda x: _power_sum(c[0], v_terms, _sq_norm(x)),
                lambda x: _power_sum(d[0], g_terms, _sq_norm(x))[..., None] * x)

    return PotentialModel.piecewise_max([piece(coeffs) for coeffs in table], dim, name)


def make_quartic(dim: int) -> PotentialModel:
    return _radial_max(((0, 0, 0.25),), dim, "quartic")


def make_maxpair(dim: int) -> PotentialModel:
    return _radial_max(((0, 0, 1), (-1, 0, 2)), dim, "maxpair")


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
    return _radial_max(coeff_lists, dim, "maxpoly")


ZOO = {"quartic": make_quartic, "maxpair": make_maxpair, "subq32": make_subq32,
       "subq32cos": make_subq32cos}

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


# The keys each type's spec reads beyond type and dim; any other is an error.
SPEC_KEYS = dict.fromkeys(ZOO, ()) | {"subq32cos": ("amp",), "maxpoly": ("pieces",)}


def from_spec(spec: dict) -> PotentialModel:
    """Build a model from a config mapping {type, dim, the type's SPEC_KEYS}."""
    spec = dict(spec)
    name = spec.pop("type", None)
    dim = spec.pop("dim", 1)
    if not (isinstance(dim, numbers.Integral) and not isinstance(dim, bool) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    dim = int(dim)
    if not (isinstance(name, str) and name in SPEC_KEYS):
        raise ValueError(f"unknown potential type {name!r}")
    for key in spec:
        if key not in SPEC_KEYS[name]:
            raise ValueError(f"{name} reads no key {key!r}")
    if name == "maxpoly":
        pieces = spec.get("pieces")
        if not (isinstance(pieces, list) and pieces and all(
                isinstance(c, list) and c and all(map(_is_finite_real, c)) for c in pieces)):
            raise ValueError("pieces must be a non-empty list of non-empty lists of "
                             f"finite numbers, got {pieces!r}")
        return make_maxpoly(pieces, dim)
    if "amp" in spec:
        if not _is_finite_real(spec["amp"]):
            raise ValueError(f"amp must be a finite number, got {spec['amp']!r}")
        return make_subq32cos(dim, amp=float(spec["amp"]))
    return ZOO[name](dim)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and bool(np.isfinite(value)))
