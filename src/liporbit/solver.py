"""Minimax candidates from the linking geometry: one seed list, then polish.

A run polishes a list of seeds by phase-anchored damped Newton on the
inclusion residual until one passes every gate, and builds no grid
surface.  In superquadratic mode the seeds are the point of one probe
of the linking cylinder's grid columns x1 + s e (ridge_probe; node
values miss the critical ridge where it runs between nodes, so each
column is probed between its nodes too; linking.cylinder_values
screens every column from e's node values, and only the points near a
column's top are evaluated as coefficient rows), then its quarter-period
rotating mixes, one per symmetry class of f (none at n = 1).  In saddle
mode the one seed is the max of f over the constant loops of the X1
box's grid, the grid point of least V.  A run draws no random numbers.
It reports the polished loop with the lowest inclusion aggregate among
those that pass the measure, level and shape gates, and why each other
one failed; converged means that aggregate is below verify_tol, the
test behind exit code 0.

A run works on two levels of the Fourier space (nested iteration).  The
probe, the seeds and a first polish of each seed live at the coarse
K0 = min(K, max(16, K // 4)) modes.  In superquadratic mode that polish
is deflated off the constant loops, which no pass can be, so Newton is
not drawn to them.  A coarse loop goes through every gate at K0; one
that passes them all is padded to the caller's K, polished again (not
deflated) and judged there.  The coarse level only rejects: every pass
is decided by the gates at K.  For K <= 16 the two levels coincide.

A run's seeds are polished at K0 together from the first round, as the
rows of one lockstep Newton iteration (newton.newton_steps): a round
makes one Jacobian call and one stacked solve for all rows, and each row
takes the iterates it would take alone.  They are finalized in seed
order (the gates at K0, the polish at K, the rejection list) as each row
ends, and the run stops at the first pass, leaving later rows
unfinished.  The history is the one of polishing each seed alone: records
are appended in seed order and numbered on, and each keeps the prefix
the record budget leaves room for at its turn.

Surface, init_surface (the grid of node loops, boundary pinned) and
deform_step (a peak-shaving descent step at its argmax node) are not
part of a run and are kept only for the benchmark's tracer, which names
them: the deformed node set stops linking within a few steps.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .action import (
    CeramiRecord,
    action_value,
    action_values,
    min_norm_residuals,
    min_norm_subgradient,
    residual_jacobians,
)
from .linking import LEVEL_TOL, LinkingGeometry, cylinder_values
from .newton import newton_steps
from .potentials import PotentialModel
from .trajectory import (
    PeriodicTrajectory,
    derivative_rows,
    h1_norm_row,
    l2_norm,
    l2_norm_row,
)
from .verification import VerificationReport, inclusion_residual, nonconstant_row


class StallError(RuntimeError):
    """Line search exhausted while the argmax node was still non-critical."""

    def __init__(self, message: str, node: int, measure: float, step: float):
        super().__init__(message)
        self.node = node
        self.measure = measure
        self.step = step


class GeometryNotCertified(ValueError):
    """run_* requires a geometry whose certificate passed."""


# Polishes per superquadratic run: the probe point and its rotating mixes
# (n - 1 of them, one per symmetry class, so the cap binds from n = 5).
MAX_POLISHES = 4

# deform_step's line search: neighbor diffusion factor, Armijo decrement
# coefficient and halving budget.
DEFORM_ETA = 0.5
DEFORM_SIGMA = 1e-4
DEFORM_MAX_HALVINGS = 40


@dataclass
class SolverConfig:
    mode: str = "superquadratic"        # "superquadratic" | "saddle"
    K: int = 64                         # Fourier modes of the reported loop
    grid: int = 9                       # nodes per grid axis
    tol_conv: float = 1e-5              # Cerami-measure stopping level
    # Cerami records for the whole run, the coarse polishes at
    # K0 = min(K, max(16, K // 4)) included; the coarse level only rejects.
    max_iters: int = 20000
    seed: int = 0                       # certificate sampling only; a run draws nothing
    verify_tol: float = 1e-4            # posterior inclusion gate for candidates

    def __post_init__(self):
        for key, low in (("seed", 0), ("grid", 3), ("max_iters", 1), ("K", 1)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
        for key in ("tol_conv", "verify_tol"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Surface:
    """Loops over the parameter grid as coefficient rows, boundary pinned."""

    shape: tuple[int, ...]
    T: float
    coeffs: np.ndarray                  # (n_nodes, 2K+1, n) read-only rows
    pinned: np.ndarray                  # (n_nodes,) bool
    f_values: np.ndarray                # (n_nodes,) cached action values
    last_step: float = 1.0

    @property
    def n_nodes(self) -> int:
        return self.coeffs.shape[0]

    def node(self, i: int) -> PeriodicTrajectory:
        return PeriodicTrajectory.from_coefficients(self.T, self.coeffs[i])

    def argmax_node(self) -> int:
        # np.argmax takes the first maximum, so ties break at the lowest index.
        return int(np.argmax(self.f_values))

    def neighbors(self, flat: int) -> list[int]:
        idx = np.unravel_index(flat, self.shape)
        out = []
        for axis in range(len(self.shape)):
            for delta in (-1, 1):
                j = idx[axis] + delta
                if 0 <= j < self.shape[axis]:
                    nb = list(idx)
                    nb[axis] = j
                    out.append(int(np.ravel_multi_index(nb, self.shape)))
        return out

    def with_updates(self, updates: dict[int, PeriodicTrajectory],
                     f_updates: dict[int, float], last_step: float) -> "Surface":
        coeffs = self.coeffs.copy()
        f_vals = self.f_values.copy()
        for i, traj in updates.items():
            coeffs[i] = traj.coefficients()
        for i, fv in f_updates.items():
            f_vals[i] = fv
        coeffs.flags.writeable = False
        return Surface(self.shape, self.T, coeffs, self.pinned, f_vals, last_step)


def init_surface(geom: LinkingGeometry, model: PotentialModel,
                 config: SolverConfig) -> Surface:
    """Identity embedding of the parameter domain, boundary pinned.

    Superquadratic: node (x1, s) -> constant loop x1 plus s e on the grid
    over [-r1, r1]^n x [0, r2].  Saddle: node x1 -> constant loop on the
    grid over [-R, R]^n (max-norm ball; for n = 1 the boundary is the
    two-point sphere).
    """
    m = config.grid
    n = model.dim
    superquadratic = geom.mode == "superquadratic"
    if not superquadratic and geom.R is None:
        raise ValueError("saddle surface needs the radius R")
    radius = geom.r1 if superquadratic else geom.R
    shape = (m,) * (n + 1 if superquadratic else n)
    grid = np.indices(shape).reshape(len(shape), -1)
    coeffs = np.zeros((grid.shape[1], 2 * config.K + 1, n))
    coeffs[:, 0] = np.repeat(_grid_points(radius, m, n), len(coeffs) // m ** n, axis=0)
    if superquadratic:
        s = np.linspace(0.0, geom.r2, m)[grid[n]]
        coeffs += s[:, None, None] * geom.e.pad_modes(config.K).coefficients()
    coeffs.flags.writeable = False
    pinned = np.any((grid == 0) | (grid == m - 1), axis=0)
    return Surface(shape, geom.T, coeffs, pinned, action_values(coeffs, geom.T, model))


def deform_step(surface: Surface, model: PotentialModel, config: SolverConfig,
                measure_tol: float | None = None) -> tuple[Surface, CeramiRecord]:
    """One peak-shaving descent step; returns the post-step argmax record.

    If the argmax node is already critical to tolerance the surface is
    returned unchanged.  Raises StallError when the backtracking line
    search cannot decrease the peak.
    """
    measure_tol = config.tol_conv if measure_tol is None else measure_tol
    peak = surface.argmax_node()
    if surface.pinned[peak]:
        raise StallError("argmax sits on the pinned boundary; the geometry "
                         "certificate is violated", peak, np.inf, 0.0)
    q = surface.node(peak)
    f_old = float(surface.f_values[peak])
    grad = min_norm_subgradient(q, model, metric="h1precond")
    rec = CeramiRecord.at(q, f_old, grad.l2_norm)
    if rec.measure <= measure_tol:
        return surface, rec

    d = grad.descent_direction()
    dn2 = l2_norm(d) ** 2
    nbs = [j for j in surface.neighbors(peak) if not surface.pinned[j]]
    step = surface.last_step
    for _ in range(DEFORM_MAX_HALVINGS + 1):
        trial = q + step * d
        f_trial = action_value(trial, model)
        if f_trial <= f_old - DEFORM_SIGMA * step * dn2:
            # Peak-shaving: drag neighbors along by eta of the displacement,
            # but never let a dragged neighbor climb above the old max (the
            # max over nodes stays non-increasing).
            shift = (DEFORM_ETA * step) * d
            updates = {peak: trial}
            f_updates = {peak: f_trial}
            for j in nbs:
                moved = surface.node(j) + shift
                f_moved = action_value(moved, model)
                if f_moved <= f_old:
                    updates[j] = moved
                    f_updates[j] = f_moved
            new_surface = surface.with_updates(updates, f_updates,
                                               last_step=min(step * 2.0, 1e6))
            top = new_surface.argmax_node()
            q_top = new_surface.node(top)
            grad_top = min_norm_subgradient(q_top, model, metric="l2")
            return new_surface, CeramiRecord.at(q_top, new_surface.f_values[top],
                                                grad_top.l2_norm)
        step *= 0.5
    raise StallError(f"line search exhausted at node {peak} with Cerami "
                     f"measure {rec.measure:.3e}", peak, rec.measure, step)


@dataclass(frozen=True)
class SolverResult:
    candidate: PeriodicTrajectory
    c_estimate: float
    history: tuple[CeramiRecord, ...]
    converged: bool
    geometry: LinkingGeometry
    verification: VerificationReport
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "c_estimate": float(self.c_estimate),
            "converged": bool(self.converged),
            "iterations": len(self.history),
            "final_measure": float(self.history[-1].measure) if self.history else None,
            "geometry": self.geometry.to_dict(),
            "verification": self.verification.to_dict(),
            "candidate": self.candidate.to_dict(),
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


SCREEN_TOL = 1e-9   # screens are within 2e-14 (1 + |f|) of f on the benchmark's cylinders
N_PROBE = 7         # probe points inside each segment of a column, at theta = k / 8
SCREEN_COLUMNS = 8  # columns per screened block, which bounds the screen's peak memory


def _grid_points(radius: float, m: int, n: int) -> np.ndarray:
    """The m^n points of the grid over [-radius, radius]^n, shape (m^n, n), last axis fastest."""
    return np.linspace(-radius, radius, m)[np.indices((m,) * n).reshape(n, -1).T]


def ridge_probe(geom: LinkingGeometry, model: PotentialModel, K: int, m: int,
                floor: float) -> tuple[PeriodicTrajectory, float] | None:
    """Inf-sup over the linking cylinder's grid columns: the discrete minimax point.

    Superquadratic mode, loops of K modes.  A column is the segment
    x1 + s e, s in [0, r2], for x1 on the m^n grid of the X1 box; its
    points in s order are the m nodes s_j (init_surface's rows: zeros,
    row 0 = x1, plus s_j e) and, between node rows a and b, N_PROBE rows
    a + theta (b - a), theta = k / (N_PROBE + 1).  Node values alone miss
    the ridge when it runs between nodes; a column's max estimates its
    crossing level, and the smallest column max realizes the discrete
    inf-sup.  Columns whose max falls below floor have slipped around the
    sphere through the mean directions (the quadratic barrier only binds
    zero-mean loops) and are discarded.  Returns None when every column
    leaked, else the first exact maximum in s order of the first column
    with the smallest max, and that max.

    Every column is screened by linking.cylinder_values, SCREEN_COLUMNS
    columns at a time, which evaluates V at half the grid's nodes for
    the default direction; the points within SCREEN_TOL (1 + |top|) of
    their column's screened top go through one action_values call, and
    a column screened below floor costs none.
    action_values gives a row the same bits in any batch, so the answer
    is the one every point's exact value gives, save that an exact tie
    between a node and an earlier interior point goes to the interior
    point (the grid surface's probe gave it to the node).
    """
    x1 = _grid_points(geom.r1, m, model.dim)
    s_nodes = np.linspace(0.0, geom.r2, m)
    E = geom.e.pad_modes(K).coefficients()
    node = np.repeat(np.arange(m), N_PROBE + 1)[:-N_PROBE]
    nxt = np.minimum(node + 1, m - 1)
    theta = np.tile(np.arange(N_PROBE + 1) / (N_PROBE + 1), m)[:-N_PROBE]
    s = s_nodes[node] + theta * (s_nodes[nxt] - s_nodes[node])
    screened = np.concatenate([cylinder_values(geom.e, K, x1[i:i + SCREEN_COLUMNS, None], s, model)
                               for i in range(0, len(x1), SCREEN_COLUMNS)])
    top = np.max(screened, axis=1, keepdims=True)
    tol = SCREEN_TOL * (1.0 + np.abs(top))
    near = (screened >= top - tol) & (top >= floor - tol)

    def rows(col: np.ndarray, point: np.ndarray) -> np.ndarray:
        a, b = np.zeros((2, len(col), *E.shape))
        for out, j in ((a, node[point]), (b, nxt[point])):
            out[:, 0] = x1[col]
            out += s_nodes[j][:, None, None] * E
        return a + theta[point][:, None, None] * (b - a)

    exact = np.full(screened.shape, -np.inf)
    exact[near] = action_values(rows(*np.nonzero(near)), geom.T, model)
    best = np.argmax(exact, axis=1)
    col_vals = exact[np.arange(len(x1)), best]
    kept = np.flatnonzero(col_vals >= floor)
    if not kept.size:
        return None
    c = kept[np.argmin(col_vals[kept])]
    point = rows(np.array([c]), best[c:c + 1])[0]
    return PeriodicTrajectory.from_coefficients(geom.T, point), float(col_vals[c])


def _polish_steps(x: np.ndarray, R: np.ndarray, shape: tuple[int, int], T: float,
                  model: PotentialModel) -> np.ndarray:
    """The Newton steps of the residual rows R at the rows x (B, m), anchored in phase.

    Every time shift of a critical loop is critical, so on a nonconstant
    loop J is near-singular along the tangent q' (benchmark Jacobians have
    one singular value of 5e-9 to 2e-4, the next >= 1.36).  The step s
    solves [J p; p^T 0][s; lam] = [-R; 0] with p = q'/|q'|; p is a column
    as well as a row because f is shift-invariant, so R is orthogonal to
    q'.  On a constant loop q' = 0, and the step solves the n x n mean
    block J[:n, :n] s0 = -R[:n] and leaves every other coefficient as it
    is: solving all of J s = -R there lets rounding grow an oscillation
    (1e-14, then 3.6e-13 at |a0 - p| ~ 1e-12 on the eps2 = 0 cusp wells)
    that stalls the polish just above tol_conv.  One residual_jacobians
    call serves the stack, the bordered systems are solved in one
    stacked solve and the mean blocks in another; a row's step has the
    bits of its one-row call.
    """
    B, m = R.shape
    n = shape[1]
    coeffs = x.reshape(B, *shape)
    J = residual_jacobians(coeffs, T, model)
    moving = np.array([nonconstant_row(c, T) for c in coeffs])
    steps = np.zeros_like(R)
    rows = np.flatnonzero(~moving)
    if rows.size:
        steps[rows, :n] = np.linalg.solve(J[rows, :n, :n], -R[rows, :n, None])[..., 0]
    rows = np.flatnonzero(moving)
    if rows.size:
        p = derivative_rows(coeffs[rows], T).reshape(rows.size, m)
        p /= np.array([np.linalg.norm(row) for row in p])[:, None]
        bordered = np.zeros((rows.size, m + 1, m + 1))
        bordered[:, :m, :m] = J[rows]
        bordered[:, :m, m] = p
        bordered[:, m, :m] = p
        rhs = np.zeros((rows.size, m + 1, 1))
        rhs[:, :m, 0] = -R[rows]
        steps[rows] = np.linalg.solve(bordered, rhs)[:, :m, 0]
    return steps


def _deflation(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The deflation factors m = 1 + 1/|y|^2 of the coefficient rows x and their gradients.

    y is a row with its n mean entries zeroed, so m is infinite on the
    constant loops and near 1 far from them.
    """
    y = np.array(x, dtype=float)
    y[:, :n] = 0.0
    y2 = np.array([row @ row for row in y])
    return 1.0 + 1.0 / y2, y * (-2.0 / y2 ** 2)[:, None]


def _deflated_steps(x: np.ndarray, G: np.ndarray, shape: tuple[int, int], T: float,
                    model: PotentialModel) -> np.ndarray:
    """The Newton steps of the deflated residual rows G = m R at the rows x.

    G's Jacobian m J + R grad(m)^T is m J plus a rank-one term, so
    (Sherman-Morrison) its phase-anchored step is _polish_steps' step d
    for R = G / m scaled by m / (m - grad(m) . d).  A row's step has the
    bits of its one-row call.
    """
    m, grad = _deflation(x, shape[1])
    d = _polish_steps(x, G / m[:, None], shape, T, model)
    return d * (m / (m - np.array([g @ s for g, s in zip(grad, d)])))[:, None]


def _polish_candidates(q0s: list[PeriodicTrajectory], model: PotentialModel,
                       config: SolverConfig, max_steps: int, deflate: bool = False
                       ) -> Iterator[list[CeramiRecord]]:
    """Damped Newton zero-finding on the discrete inclusion residual.

    R maps Fourier coefficients to those of the min-norm residual
    -qdd - v (its Jacobian is residual_jacobians').  newton_steps with
    _polish_steps' phase-anchored steps turns a ridge point located by
    the probe into a candidate whose Cerami measure meets the stopping
    tolerance.  With deflate, newton_steps searches and end-tests the
    deflated residual G = m R (_deflation, _deflated_steps) instead, which
    has R's zeros save the constant loops, so the polish is not drawn to
    them (Farrell, Birkisson & Funke 2015); the records and the stop test
    read R.  The seeds q0s share T and K and are the rows of one
    lockstep iteration; each gets the records it would get alone.
    Yields one list of records per seed, in seed order, as soon as the
    polishes of that seed and of every seed before it have ended, so a
    caller that stops early leaves the later rows unfinished.  A list
    holds one record per loop reached, indexed from 0, at most
    max_steps + 1, the last one that of the polished loop; a seed's
    polish stops once the measure is below tol_conv / 10 or its ||R||
    stops contracting (newton_steps' end test).  Until a seed is yielded
    its loops are kept as coefficient rows; then one action_values call
    gives their f, and only the loops reached, not the line-search
    trials, are built as trajectories.
    """
    T, shape = q0s[0].T, (2 * q0s[0].K + 1, q0s[0].n)
    reached = [[] for _ in q0s]     # per seed: (coefficients, h1norm, min_norm, measure)
    live = np.ones(len(q0s), dtype=bool)

    # The rows searched (R, or G with deflate) and the true residual rows R.
    def residual(x: np.ndarray):
        R = min_norm_residuals(x.reshape(-1, *shape), T, model).reshape(len(x), -1)
        return (_deflation(x, shape[1])[0][:, None] * R if deflate else R), R

    def reach(rows, x: np.ndarray, R: np.ndarray):
        for i, xi, Ri in zip(rows, x, R):
            c = xi.reshape(shape)
            h1, min_norm = h1_norm_row(c, T), l2_norm_row(Ri.reshape(shape), T)
            measure = CeramiRecord.cerami_measure(h1, min_norm)
            reached[i].append((c, h1, min_norm, measure))
            live[i] = not measure <= config.tol_conv * 0.1

    def records(i: int) -> list[CeramiRecord]:
        f = action_values(np.stack([c for c, *_ in reached[i]]), T, model)
        return [CeramiRecord(k, float(fk), h1, min_norm, measure,
                             q0s[i] if k == 0 else PeriodicTrajectory.from_coefficients(T, c))
                for k, ((c, h1, min_norm, measure), fk) in enumerate(zip(reached[i], f))]

    x = np.stack([q.coefficients().ravel() for q in q0s])
    G, R = residual(x)
    steps = _deflated_steps if deflate else _polish_steps
    rounds = newton_steps(x, G, residual,
                          lambda x, G: steps(x, G, shape, T, model), max_steps, live=live)
    ended = 0                   # seeds yielded so far
    for rows, x, _, R in itertools.chain([(range(len(q0s)), x, G, R)], rounds):
        reach(rows, x, R)
        while ended < len(q0s) and not live[ended]:
            yield records(ended)
            ended += 1
    for i in range(ended, len(q0s)):
        yield records(i)


def _seed_variants(seed: PeriodicTrajectory, dim: int, max_variants: int):
    """Polish seeds in preference order: the ridge point itself, then one
    quarter-period rotating mix per other axis (autonomous radial systems
    keep planar data planar, so these break that symmetry), at most
    max_variants in all.  At n = 1 the ridge point is the only seed.

    A mix writes the main axis shifted by T/4 into one other axis.  The
    mix with the opposite sign is not polished: V is autonomous, so f is
    invariant under M = (time reversal) o (shift by T/2), which maps
    a_k -> (-1)^k a_k and b_k -> -(-1)^k b_k and fixes the mean.  M fixes
    the ridge point x1 + s e (e is a first-harmonic sine) and negates its
    T/4 shift, so it maps one sign's mix onto the other's, and their
    polishes reach the same critical loop up to M."""
    yield seed
    if dim == 1:            # no axis pair to mix: skip the time shift
        return
    amp = np.linalg.norm(seed.a, axis=0) + np.linalg.norm(seed.b, axis=0)
    j_main = int(np.argmax(amp))
    shifted = seed.time_shift(seed.T / 4.0)
    others = (j for j in range(dim) if j != j_main)
    for j_other in itertools.islice(others, max_variants - 1):
        a = np.array(seed.a)
        b = np.array(seed.b)
        a[:, j_other] = shifted.a[:, j_main]
        b[:, j_other] = shifted.b[:, j_main]
        yield PeriodicTrajectory(seed.T, seed.a0, a, b)


def _run(model: PotentialModel, geom: LinkingGeometry,
         config: SolverConfig) -> SolverResult:
    """Polish the geometry's seeds in order until one passes every gate.

    Superquadratic: the ridge_probe point, then its _seed_variants, one
    rotating mix per other axis, at most MAX_POLISHES.  Saddle: the grid
    point of least V alone; a constant seed's rotating mixes repeat it.
    The probe, the seeds and their first polish are at
    K0 = min(K, max(16, K // 4)) modes; a superquadratic seed's polish
    there is deflated off the constant loops (_polish_candidates), which
    every run rejects.  A coarse loop goes through every gate of judge at
    K0 (measure, level, constant, aggregate); one that fails any is
    rejected on it, else it is padded to K, polished again at K without
    deflation and judged there, so every pass is decided at K.  Both
    levels' records go into the history and count against max_iters.  A
    seed that is already critical is its polish's only record.  With no
    loop judged at K to report, the report is the K0 loop of least
    aggregate among those that passed measure, level and constant, padded
    to K, else the first seed or, when every probe column leaked, the zero
    loop, at K; it is verified at K.

    Every seed is polished at K0 from the first round, as the rows of one
    lockstep polish (_polish_candidates), and finalized in seed order as
    its row ends, truncated to the records the budget leaves it then, so
    the history, the rejections and the answer are those of polishing
    each seed alone in turn.
    """
    if config.mode != geom.mode:
        raise ValueError(f"solver config mode {config.mode!r} does not match "
                         f"the {geom.mode!r} geometry")
    if geom.passed is not True:
        raise GeometryNotCertified(
            "geometry certificate absent or failed; calibrate and certify first")
    coarse_K = int(min(config.K, max(16, config.K // 4)))
    superquadratic = geom.mode == "superquadratic"
    records: list[CeramiRecord] = []
    rejections: list[str] = []          # why each rejected candidate failed
    best: PeriodicTrajectory | None = None
    best_report: VerificationReport | None = None
    best_aggregate = np.inf
    coarse_best: PeriodicTrajectory | None = None   # the K0 fallback report, K0 < K only
    coarse_aggregate = np.inf

    # The first gate q fails (None if it passes), and q's inclusion report
    # when q may be reported (it passed every gate but perhaps the
    # aggregate; else None).  In superquadratic mode a critical point
    # below the certified sphere level alpha_bound is not the linking
    # level, and a constant loop is not an orbit (a polish that falls to
    # q = 0 fails both).
    def judge(q: PeriodicTrajectory, rec: CeramiRecord):
        if rec.measure > config.tol_conv:
            return "measure", None
        if superquadratic and rec.f_value < geom.alpha_bound - LEVEL_TOL:
            return "level", None
        report = inclusion_residual(q, model)
        if superquadratic and not report.nonconstant:
            return "constant", None
        return (None if report.aggregate < config.verify_tol else "aggregate"), report

    # Newton steps the record budget leaves a polish that starts now (< 0: none).
    def steps_left() -> int:
        return min(60, config.max_iters - len(records) - 1)

    # The polishes of the seeds q0s, all at the seeds' K, in seed order
    # (_polish_candidates); with the budget spent, their seeds' records.
    def polish(q0s: list[PeriodicTrajectory], deflate: bool = False
               ) -> Iterator[list[CeramiRecord]]:
        return _polish_candidates(q0s, model, config, steps_left(), deflate=deflate)

    # Append a polish's records, the prefix the budget leaves room for now
    # (the polish it would have made alone), numbered on from the history;
    # returns its loop, or None when the budget is spent.
    def commit(polished: list[CeramiRecord]) -> PeriodicTrajectory | None:
        if steps_left() < 0:
            return None
        records.extend([replace(rec, index=i) for i, rec
                        in enumerate(polished[:steps_left() + 1], len(records))])
        return records[-1].trajectory

    # The saddle seed maximizes f = -T V(x1) over the X1 grid; ties to the first.
    first_seed = ridge_slack = None
    seeds: list[PeriodicTrajectory] = []
    if not superquadratic:
        if geom.R is None:
            raise ValueError("saddle mode needs the X1 radius R")
        x1 = _grid_points(geom.R, config.grid, model.dim)
        first_seed = PeriodicTrajectory.constant(geom.T, x1[np.argmin(model.value(x1))],
                                                 K=coarse_K)
        seeds = [first_seed]
    elif (hit := ridge_probe(geom, model, coarse_K, config.grid,
                             floor=geom.alpha_bound - 1e-6)) is not None:
        first_seed, probe_val = hit
        ridge_slack = float(probe_val - geom.alpha_bound)
        seeds = list(_seed_variants(first_seed, model.dim, MAX_POLISHES))

    for polished in polish(seeds, superquadratic) if seeds else ():
        candidate = commit(polished)
        if candidate is not None and coarse_K < config.K:
            reason, report = judge(candidate, records[-1])
            if report is not None and report.aggregate < coarse_aggregate:
                coarse_best, coarse_aggregate = candidate, report.aggregate
            if reason is not None:
                rejections.append(reason)
                continue
            candidate = commit(next(polish([candidate.pad_modes(config.K)])))
        if candidate is None:
            break
        reason, report = judge(candidate, records[-1])
        if report is not None and report.aggregate < best_aggregate:
            best, best_report, best_aggregate = candidate, report, report.aggregate
        if reason is None:
            break
        rejections.append(reason)

    candidate, verification = best, best_report
    if candidate is None:
        fallback = coarse_best or first_seed or PeriodicTrajectory.zero(geom.T, model.dim,
                                                                        coarse_K)
        candidate = fallback.pad_modes(config.K)
        verification = inclusion_residual(candidate, model)
    diagnostics = {
        "seed": config.seed,
        "coarse_K": coarse_K,
        "ridge_barrier_slack": ridge_slack,
        "max_h1norm": float(max((r.h1norm for r in records), default=0.0)),
        "mode": geom.mode,
        "ridge_polish": best is not None or coarse_best is not None,
        "rejected_candidates": len(rejections),
        "rejections": rejections,
    }
    return SolverResult(candidate=candidate,
                        c_estimate=action_value(candidate, model),
                        history=tuple(records),
                        converged=best_aggregate < config.verify_tol,
                        geometry=geom, verification=verification,
                        diagnostics=diagnostics)


def run_minimax(model: PotentialModel, geom: LinkingGeometry,
                config: SolverConfig) -> SolverResult:
    """Probe the linking cylinder and polish its minimax point to a critical loop.

    c_estimate is f at the reported candidate.  A candidate counts only
    at or above the certified sphere level alpha_bound (to LEVEL_TOL).
    """
    if geom.mode != "superquadratic":
        raise ValueError("run_minimax expects a superquadratic geometry")
    return _run(model, geom, config)


def run_saddle(model: PotentialModel, geom: LinkingGeometry,
               config: SolverConfig) -> SolverResult:
    """Polish the max of f over the X1 ball of constant loops (no level gate)."""
    if geom.mode != "saddle":
        raise ValueError("run_saddle expects a saddle geometry")
    return _run(model, geom, config)
