"""The action functional on periodic loops and its generalized gradient.

For a potential V and a T-periodic loop q the action is

    f(q) = (1/2) int_0^T |qdot|^2 dt - int_0^T V(q) dt.

Critical points of f (in the generalized sense) are T-periodic solutions
of the differential inclusion 0 in qdd + dV(q).  On the discrete Fourier
model the generalized gradient is sampled per quadrature node:

    df(q)  ~  { -qdd(t) - v(t) : v(t) in conv(active gradients at q(t)) },

and the product structure makes the minimum-norm element computable node
by node as a nearest-point-in-convex-hull projection.  _select is that
one nodal oracle: the residuals, their Jacobians and the inclusion gate
verification.inclusion_residual all select through it, and it decides
activity by the one rule potentials.active_set.  The min-norm
value feeds the Cerami-type diagnostics: a sequence behaves like a
generalized Palais-Smale sequence when f settles and
(1 + ||q_n||) min||df(q_n)|| -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potentials import PotentialModel, active_set
from .trajectory import (
    PeriodicTrajectory,
    default_grid_size,
    h1_norm,
    l2_norm,
)

# Forward-difference step of the nodal blocks in residual_jacobians.
JACOBIAN_STEP = 1e-7


def action_value(traj: PeriodicTrajectory, model: PotentialModel) -> float:
    """f(q) = (1/2) int |qdot|^2 - int V(q).

    The kinetic term is summed exactly by Parseval; the potential term
    uses trapezoid quadrature on the 4K+4 grid (spectrally accurate for
    periodic integrands).  A one-row call of :func:`action_values`.
    """
    if model.dim != traj.n:
        raise ValueError(f"model dimension {model.dim} != trajectory dimension {traj.n}")
    return float(action_values(traj.coefficients()[None], traj.T, model)[0])


# -- batched nodal core -------------------------------------------------
#
# Loops sharing T and K are stacked as coefficient rows of shape
# (B, 2K+1, n), each row laid out as PeriodicTrajectory.coefficients().
# The core evaluates BATCH_ROWS rows at a time; a row gives the same bits
# as it would alone, because every step is elementwise per node or a
# 1-D transform or reduction per row.  The residual Jacobians are batched
# too: residual_jacobians takes the whole stack (its callers pass a few
# rows) through one selection and one matrix product per row and block.

# Rows per evaluated block.  Bigger blocks run no faster, and their
# temporaries (about 50 kB per row at K = 64, n = 2) raise the peak
# memory of a polish step.
BATCH_ROWS = 32


def _blocks(coeffs: np.ndarray):
    coeffs = np.asarray(coeffs, dtype=float)
    for start in range(0, coeffs.shape[0], BATCH_ROWS):
        yield coeffs[start:start + BATCH_ROWS]


def _synthesize(coeffs: np.ndarray, T: float, N: int, accel: bool):
    """Node values q, and -qdd when accel, of each row on the N-point grid.

    One irfft serves the block.  The arithmetic repeats
    PeriodicTrajectory.sample and derivative() term by term.
    """
    B, rows, n = coeffs.shape
    K = (rows - 1) // 2
    a0, a, b = coeffs[:, 0], coeffs[:, 1:K + 1], coeffs[:, K + 1:]
    spec = np.zeros((B, N // 2 + 1, 2 * n if accel else n), dtype=complex)
    spec[:, 0, :n] = a0 * N
    spec[:, 1:K + 1, :n] = (a - 1j * b) * (N / 2.0)
    if accel:
        w = (2.0 * np.pi * np.arange(1, K + 1) / T)[:, None]
        spec[:, 1:K + 1, n:] = (w * (-w * a) - 1j * (-w * (w * b))) * (N / 2.0)
    vals = np.fft.irfft(spec, n=N, axis=1)
    if not accel:
        return vals, None
    return vals[..., :n], -vals[..., n:]


def _select(model: PotentialModel, qs: np.ndarray, target: np.ndarray,
            active: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-node min-norm selection v = proj(target | dV(q)) over nodes (M, n).

    The one nodal subdifferential oracle.  Returns v (M, n) and its
    convex weights over the pieces (M, n_pieces).  The piece gradients
    are evaluated once for all nodes.  A node with one active piece takes
    that gradient; every node with more goes through project_hull.  The
    activity rule is active_set; a given mask active (n_pieces, M)
    replaces it.  A non-finite node raises ValueError on every model,
    smooth ones included.
    """
    M = qs.shape[0]
    if not np.all(np.isfinite(qs)):
        raise ValueError("a node is not finite or has no active piece: q must be finite")
    if model.kind == "smooth":
        return np.asarray(model.gradients[0](qs), dtype=float), np.ones((M, 1))
    if active is None:
        active = active_set(model.piece_values(qs))
    grads = np.stack([np.asarray(g(qs), dtype=float)
                      for g in model.gradients])           # (P, M, n)
    n_active = active.sum(axis=0)
    if not np.all(n_active):
        raise ValueError("a node is not finite or has no active piece: q must be finite")
    sel = np.empty_like(target)
    weights = np.zeros((M, model.n_pieces))
    cols = np.flatnonzero(n_active == 1)
    piece_of = np.argmax(active[:, cols], axis=0)
    sel[cols] = grads[piece_of, cols]
    weights[cols, piece_of] = 1.0
    for j in np.flatnonzero(n_active > 1):
        pieces = np.flatnonzero(active[:, j])
        sel[j], weights[j, pieces] = project_hull(target[j], grads[pieces, j])
    return sel, weights


def _residual_block(coeffs: np.ndarray, T: float,
                    model: PotentialModel) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows -qdd - v (B, 2K+1, n) and node weights (B, N, n_pieces)."""
    B, rows, n = coeffs.shape
    K = (rows - 1) // 2
    N = default_grid_size(K)
    qs, target = _synthesize(coeffs, T, N, accel=True)
    sel, weights = _select(model, qs.reshape(-1, n), target.reshape(-1, n))
    spec = np.fft.rfft(target - sel.reshape(B, N, n), axis=1)
    out = np.empty_like(coeffs)
    out[:, 0] = spec[:, 0].real / N
    out[:, 1:K + 1] = 2.0 * spec[:, 1:K + 1].real / N
    out[:, K + 1:] = -2.0 * spec[:, 1:K + 1].imag / N
    return out, weights.reshape(B, N, -1)


def action_values(coeffs: np.ndarray, T: float, model: PotentialModel) -> np.ndarray:
    """f at each stacked coefficient row, shape (B,)."""
    out = []
    for c in _blocks(coeffs):
        B, rows, n = c.shape
        K = (rows - 1) // 2
        N = default_grid_size(K)
        w2 = (2.0 * np.pi * np.arange(1, K + 1) / T) ** 2
        energy = np.sum(c[:, 1:K + 1] ** 2 + c[:, K + 1:] ** 2, axis=2)   # (B, K)
        # One dot per row: a matrix-vector product may sum in another order.
        kinetic = 0.25 * T * np.array([w2 @ e for e in energy])
        qs, _ = _synthesize(c, T, N, accel=False)
        potential = T * np.mean(model.value(qs.reshape(-1, n)).reshape(B, N), axis=1)
        out.append(kinetic - potential)
    return np.concatenate(out) if out else np.zeros(0)


def min_norm_residuals(coeffs: np.ndarray, T: float, model: PotentialModel) -> np.ndarray:
    """Coefficient rows of the min-norm residual -qdd - v, shape (B, 2K+1, n)."""
    parts = [_residual_block(c, T, model)[0] for c in _blocks(coeffs)]
    return np.concatenate(parts)


# Synthesis basis S (N, 2K+1) per (K, N): S maps a coefficient column to
# node values, and P = diag(1/N, 2/N, ..., 2/N) S^T recovers the
# coefficients as _residual_block does through rfft.  Only S is kept:
# P X is applied as the row scaling of S^T X.
_SYNTHESIS: dict[tuple[int, int], np.ndarray] = {}


def _synthesis_basis(K: int, N: int) -> np.ndarray:
    if (K, N) not in _SYNTHESIS:
        phase = (2.0 * np.pi / N) * (np.outer(np.arange(N), np.arange(1, K + 1)) % N)
        S = np.empty((N, 2 * K + 1))
        S[:, 0] = 1.0
        np.cos(phase, out=S[:, 1:K + 1])
        np.sin(phase, out=S[:, K + 1:])
        S.flags.writeable = False
        _SYNTHESIS[(K, N)] = S
    return _SYNTHESIS[(K, N)]


def residual_jacobians(coeffs: np.ndarray, T: float,
                       model: PotentialModel) -> np.ndarray:
    """Jacobians of the min-norm residual rows at stacked coefficient rows.

    coeffs has shape (B, 2K+1, n); the result (B, m, m), m = (2K+1) n.
    With x = coeffs[b].ravel() and R(x) the matching ravel of
    min_norm_residuals, R = D x - P v(q, a) where q = S x and a = -qdd =
    S D x at the nodes and D = diag(w_k^2) (0 for the mean).  The
    selection v(t_j) depends on q(t_j) and a(t_j) alone, so

        J = D (x) I_n - P (dv/dq S + dv/da S D),

    with the nodal blocks dv/dq and dv/da (N, n, n) taken by forward
    differences of step JACOBIAN_STEP that move every node at once; all
    perturbed copies of the nodes of all rows go through one selection.
    Each node keeps its unperturbed active pieces, so the blocks are
    derivatives of the selection on that piece set: a step that carried
    a kink node out of the activity band would pick up the jump of the
    selection instead.  dv/da vanishes where one piece is active and is
    skipped for smooth models.  The selection is per node and S^T X a
    matrix product per row, so a row gives the same bits as it would alone.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    B, rows, n = coeffs.shape
    K = (rows - 1) // 2
    N = default_grid_size(K)
    qs, target = _synthesize(coeffs, T, N, accel=True)      # (B, N, n)
    S = _synthesis_basis(K, N)
    scale = np.full((rows, 1), -2.0 / N)                  # -P = scale * S^T
    scale[0] = -1.0 / N
    w2 = (2.0 * np.pi * np.arange(1, K + 1) / T) ** 2
    d2 = np.concatenate([[0.0], w2, w2])
    # Node copies: unperturbed, then q moved by h e_d, then a moved by h e_d.
    h = JACOBIAN_STEP
    steps = h * np.eye(n)
    q_copies = [qs] + [qs + e for e in steps]
    a_copies = [target] * (n + 1)
    active = None
    if model.kind != "smooth":
        q_copies += [qs] * n
        a_copies += [target + e for e in steps]
        active = np.tile(active_set(model.piece_values(qs.reshape(-1, n))),
                         (1, 2 * n + 1))
    v = _select(model, np.concatenate(q_copies).reshape(-1, n),
                np.concatenate(a_copies).reshape(-1, n), active)[0]
    v = v.reshape(-1, B, N, n)
    dv = ((v[1:] - v[0]) / h).transpose(1, 2, 3, 0)       # [row, j, out, copy - 1]
    SD = S * d2 if model.kind != "smooth" else None
    J = np.empty((B, rows * n, rows * n))
    for out in range(n):
        for d in range(n):
            nodal = dv[:, :, out, d, None] * S
            if SD is not None:
                nodal += dv[:, :, out, n + d, None] * SD
            block = S.T @ nodal
            block *= scale
            J[:, out::n, d::n] = block
    J.reshape(B, -1)[:, ::rows * n + 1] += np.repeat(d2, n)     # the diagonals
    return J


# -- nearest point in a convex hull -----------------------------------


def project_hull(point, vertices, tol: float = 1e-14,
                 max_iter: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point of conv(vertices) to point, with its convex weights.

    Wolfe's minimum-norm-point iteration on the shifted polytope
    {v_i - point}: maintain a corral of affinely independent vertices,
    alternate between adding the vertex most aligned with the current
    point and pruning corral members whose affine weight turns negative.
    Terminates when <x, P_i - x> >= -tol_scale for every vertex, which is
    exactly the nearest-point optimality condition.
    """
    point = np.asarray(point, dtype=float)
    P = np.atleast_2d(np.asarray(vertices, dtype=float)) - point
    m = P.shape[0]
    if m == 1:
        return P[0] + point, np.ones(1)

    scale = 1.0 + float(np.max(np.sum(P ** 2, axis=1)))
    stop = tol * scale

    idx = int(np.argmin(np.sum(P ** 2, axis=1)))
    corral = [idx]
    lam = np.array([1.0])
    x = P[idx].copy()

    for _ in range(max_iter):
        gaps = P @ x - float(x @ x)
        j = int(np.argmin(gaps))
        if gaps[j] >= -stop:
            break
        if j in corral:
            break  # numerically stalled; x is optimal to working precision
        corral.append(j)
        lam = np.append(lam, 0.0)

        # Minor cycle: min-norm point of the affine hull of the corral,
        # walking back toward the last feasible combination if weights
        # leave the simplex.
        while True:
            C = P[corral]
            k = C.shape[0]
            M = np.zeros((k + 1, k + 1))
            M[0, 1:] = 1.0
            M[1:, 0] = 1.0
            M[1:, 1:] = C @ C.T
            rhs = np.zeros(k + 1)
            rhs[0] = 1.0
            alpha = np.linalg.lstsq(M, rhs, rcond=None)[0][1:]
            if np.all(alpha > tol):
                lam = alpha
                x = C.T @ alpha
                break
            neg = alpha <= tol
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(ratios[np.isfinite(ratios)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = theta * alpha + (1.0 - theta) * lam
            lam[neg & (lam <= tol)] = 0.0
            keep = lam > tol
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = P[corral].T @ lam

    weights = np.zeros(m)
    for c, l in zip(corral, lam):
        weights[c] += l
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    return x + point, weights


# -- generalized gradient of the action --------------------------------


@dataclass(frozen=True)
class ActionGradient:
    """Min-norm representative of the discretized generalized gradient.

    residual holds r = -qdd - v as K Fourier modes (the projection of
    the continuum representative onto the discrete space); direction is
    the descent representative for the requested metric; weights[j]
    are the convex coefficients of the selected v(t_j) over the model's
    pieces.
    """

    residual: PeriodicTrajectory
    direction: PeriodicTrajectory
    l2_norm: float
    weights: np.ndarray          # (N, n_pieces)

    def descent_direction(self) -> PeriodicTrajectory:
        return -1.0 * self.direction


def h1_preconditioned(traj: PeriodicTrajectory) -> PeriodicTrajectory:
    """Mode-diagonal Sobolev preconditioner: coefficient k scaled by 1/(1+w_k^2)."""
    scale = 1.0 / (1.0 + traj.omegas ** 2)
    return PeriodicTrajectory(traj.T, traj.a0.copy(),
                              traj.a * scale[:, None], traj.b * scale[:, None])


def min_norm_subgradient(traj: PeriodicTrajectory, model: PotentialModel,
                         metric: str = "h1precond") -> ActionGradient:
    """Per-node min-norm selection v(t) = proj(-qdd(t) | dV(q(t))).

    The residual -qdd - v is assembled back into Fourier modes 0..K.
    metric "l2" returns the plain representative as the direction;
    "h1precond" applies the 1/(1+w_k^2) diagonal, the standard Sobolev
    gradient (positive diagonal, so critical points are unchanged).  The
    residual is a one-row call of the batched core (min_norm_residuals).
    """
    if metric not in ("l2", "h1precond"):
        raise ValueError(f"unknown metric {metric!r}")
    rows, weights = _residual_block(traj.coefficients()[None], traj.T, model)
    residual = PeriodicTrajectory.from_coefficients(traj.T, rows[0])
    direction = h1_preconditioned(residual) if metric == "h1precond" else residual
    return ActionGradient(residual=residual, direction=direction,
                          l2_norm=l2_norm(residual), weights=weights[0])


# -- Cerami-type sequence diagnostics ----------------------------------


@dataclass(frozen=True)
class CeramiRecord:
    """One iterate's compactness bookkeeping.

    measure = (1 + ||q||_{H1}) * min-norm-gradient is the quantity whose
    decay characterizes generalized Cerami sequences; h1norm is the norm
    anchored at q(0) (trajectory.h1_norm).  Build records with at().
    """

    index: int
    f_value: float
    h1norm: float
    min_norm: float
    measure: float
    trajectory: PeriodicTrajectory | None = field(default=None, repr=False, compare=False)

    CSV_HEADER = "iter,f,h1norm,minnorm,measure"

    @classmethod
    def at(cls, q: PeriodicTrajectory, f_value: float, min_norm: float,
           index: int = 0) -> "CeramiRecord":
        """The record of q, whose action and min-norm gradient norm the caller holds."""
        norm = h1_norm(q)
        return cls(index=index, f_value=float(f_value), h1norm=norm,
                   min_norm=min_norm, measure=cls.cerami_measure(norm, min_norm), trajectory=q)

    @staticmethod
    def cerami_measure(h1norm: float, min_norm: float) -> float:
        """The measure of a record with these norms."""
        return (1.0 + h1norm) * min_norm

    def csv_row(self) -> str:
        return ",".join([str(self.index)] + [repr(float(v)) for v in
                                             (self.f_value, self.h1norm,
                                              self.min_norm, self.measure)])


def history_to_csv(records) -> str:
    lines = [CeramiRecord.CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
