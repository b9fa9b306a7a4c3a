"""Minimax candidates from a grid surface: one seed list, then polish.

A Surface holds one loop per node of a parameter grid, the identity
embedding of the cylinder {x1-box} x [0, r2] (superquadratic mode) or of
the X1 ball as a max-norm box (saddle mode), boundary nodes pinned, as
one array of Fourier coefficient rows.  A run polishes a list of seeds
by phase-anchored damped Newton on the inclusion residual until one
passes every gate.  In superquadratic mode the seeds are the point of
one probe of the piecewise-linear interpolation of the surface along
its grid columns (ridge_probe; node values miss the critical ridge
where it runs between nodes; every column is screened in one pass, with
no column skipped), then symmetry-breaking variants of it.
In saddle mode the one seed is the argmax node, the max of f over the
X1 ball.  A run reports the polished loop with the lowest inclusion
aggregate among those that pass the measure, level and shape gates,
and why each other one failed; converged means that aggregate is below
verify_tol, the test behind exit code 0.

A run works on two levels of the Fourier space (nested iteration).  The
surface, the probe, the seeds and a first polish of each seed live at
the coarse K0 = min(K, max(16, K // 4)) modes; a seed whose coarse polish
ends at a measure at or below tol_conv is padded to the caller's K and
polished and judged there.  The coarse level only rejects: a seed that
ends above tol_conv at K0 is rejected on "measure", and every pass is
decided by the gates at K.  For K <= 16 the two levels coincide.

The seeds' coarse polishes run one at a time until one ends above
tol_conv (a stalled seed).  The remaining variants are then drawn, in
the same rng order, and polished at K0 together, as the rows of one
lockstep Newton iteration (newton.newton_steps): a round makes one
Jacobian call and one stacked solve for all rows, and each row takes
the iterates it would take alone.  They are finalized in seed order
(the polish at K, the gates, the rejection list) as each row ends, and
the run stops at the first pass, leaving later rows unfinished.  The
history is the one of polishing each seed alone: records are appended
in seed order and re-indexed, and each keeps the prefix the record
budget leaves room for at its turn.

deform_step, a peak-shaving descent step at the argmax node, is not part
of a run: on the benchmark inputs it never decided an answer, and the
deformed node set stops linking within a few steps.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .action import (
    CeramiRecord,
    _synthesize,
    action_value,
    action_values,
    min_norm_residuals,
    min_norm_subgradient,
    residual_jacobians,
)
from .linking import LinkingGeometry
from .newton import newton_steps
from .potentials import PotentialModel
from .trajectory import (
    PeriodicTrajectory,
    default_grid_size,
    derivative_rows,
    h1_norm_row,
    l2_norm,
    l2_norm_row,
    random_trajectory,
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


# Polishes per superquadratic run: the probe point and its seed variants.
MAX_POLISHES = 6

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
    seed: int = 0
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
    coeffs[:, 0] = np.linspace(-radius, radius, m)[grid[:n].T]
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


SCREEN_TOL = 1e-9   # screens are within 1e-14 (1 + |f|) of f on the benchmark's surfaces

# Columns per _screened_values call: 16 raised the kink-sweep peak RSS by
# 1.1 MB, 8 left it where the one-column screen had it.
SCREEN_COLUMNS = 8


def _screened_values(chains, T: float, model: PotentialModel, n_probe: int) -> np.ndarray:
    """f at the probe points of the polylines through chains (C, m, 2K+1, n), up to rounding:
    V at the interpolated samples of the node loops, the kinetic term as a quadratic in
    theta.  Shape (C, (m-1) n_probe), segment-major."""
    C, m, rows, n = chains.shape
    K = (rows - 1) // 2
    thetas = np.arange(1, n_probe + 1) / (n_probe + 1)
    qs, _ = _synthesize(chains.reshape(C * m, rows, n), T, default_grid_size(K), accel=False)
    qs = qs.reshape(C, m, *qs.shape[1:])
    pts = qs[:, :-1, None] + thetas[:, None, None] * (qs[:, 1:] - qs[:, :-1])[:, :, None]
    potential = T * np.mean(model.value(pts.reshape(-1, n)).reshape(pts.shape[:4]), axis=3)
    w2 = np.tile((2.0 * np.pi * np.arange(1, K + 1) / T) ** 2, 2)[:, None]
    c, d = chains[:, :-1, 1:], chains[:, 1:, 1:] - chains[:, :-1, 1:]
    cc, cd, dd = (np.sum(w2 * x * y, axis=(2, 3))[..., None] for x, y in ((c, c), (c, d), (d, d)))
    return (0.25 * T * (cc + thetas * (2.0 * cd + thetas * dd)) - potential).reshape(C, -1)


def _polyline_maxima(chains: np.ndarray, T: float, model: PotentialModel,
                     floor: float = -np.inf, n_probe: int = 7):
    """Coarse max of f over the piecewise-linear curve through each chain.

    chains holds the coefficient rows (C, m, 2K+1, n) of the curves'
    nodes.  Returns per curve (value, segment index, theta), arrays of
    shape (C,); the chain endpoints are assumed cached elsewhere so only
    interior points are probed.  Every chain is screened, SCREEN_COLUMNS
    at a time, and the points within SCREEN_TOL (1 + |top|) of their
    chain's screened max top go through one action_values call, as if
    all were evaluated; ties go to the first segment and the smallest
    theta.  A chain whose top is that far below floor costs no exact
    evaluation and gets (-inf, 0, 1 / (n_probe + 1)).
    """
    screened = np.concatenate([_screened_values(chains[i:i + SCREEN_COLUMNS], T, model, n_probe)
                               for i in range(0, len(chains), SCREEN_COLUMNS)])
    top = np.max(screened, axis=1, keepdims=True)
    tol = SCREEN_TOL * (1.0 + np.abs(top))
    near = (screened >= top - tol) & (top >= floor - tol)
    col, k = np.nonzero(near)
    seg, k = np.divmod(k, n_probe)
    th = (k + 1) / (n_probe + 1)
    exact = np.full(screened.shape, -np.inf)
    exact[near] = action_values(chains[col, seg] + th[:, None, None]
                                * (chains[col, seg + 1] - chains[col, seg]), T, model)
    best = np.argmax(exact, axis=1)
    seg, k = np.divmod(best, n_probe)
    return exact[np.arange(len(chains)), best], seg, (k + 1) / (n_probe + 1)


def ridge_probe(surface: Surface, model: PotentialModel,
                floor: float) -> tuple[PeriodicTrajectory, float] | None:
    """Inf-sup over the interpolated cylinder surface: the discrete minimax point.

    Superquadratic mode only.  Node values alone miss the critical ridge
    when it runs between grid points; the piecewise-linear curves through
    each grid column (the s axis) are paths whose maxima estimate the
    ridge crossing level, and the smallest column max realizes the
    discrete inf-sup.  A column's max is its node max when that is at
    least its polyline max.  Columns whose max falls below floor have
    slipped around the sphere through the mean directions (the quadratic
    barrier only binds zero-mean loops) and are discarded.  Returns None
    when every column leaked, else the best point of the first column
    with the smallest max, and that max.  All columns go through one
    screened pass (_polyline_maxima); a column screened below floor costs
    no exact evaluation.
    """
    m = surface.shape[-1]
    chains = surface.coeffs.reshape(-1, m, *surface.coeffs.shape[1:])
    f_nodes = surface.f_values.reshape(-1, m)
    poly, seg, th = _polyline_maxima(chains, surface.T, model, floor=floor)
    node = np.max(f_nodes, axis=1)
    on_node = node >= poly
    col_vals = np.where(on_node, node, poly)
    kept = np.flatnonzero(col_vals >= floor)
    if not kept.size:
        return None
    c = kept[np.argmin(col_vals[kept])]
    chain = chains[c]
    if on_node[c]:
        point = chain[np.argmax(f_nodes[c])]
    else:
        point = chain[seg[c]] + th[c] * (chain[seg[c] + 1] - chain[seg[c]])
    return PeriodicTrajectory.from_coefficients(surface.T, point), float(col_vals[c])


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


def _polish_candidates(q0s: list[PeriodicTrajectory], model: PotentialModel,
                       config: SolverConfig, start_index: int = 0,
                       max_steps: int = 60) -> Iterator[list[CeramiRecord]]:
    """Damped Newton zero-finding on the discrete inclusion residual.

    R maps Fourier coefficients to those of the min-norm residual
    -qdd - v (its Jacobian is residual_jacobians').  newton_steps with
    _polish_steps' phase-anchored steps turns a ridge point located by
    the probe into a candidate whose Cerami measure meets the stopping
    tolerance.  The seeds q0s share T and K and are the rows of one
    lockstep iteration; each gets the records it would get alone.
    Yields one list of records per seed, in seed order, as soon as the
    polishes of that seed and of every seed before it have ended, so a
    caller that stops early leaves the later rows unfinished.  A list
    holds one record per loop reached, indexed from start_index, at most
    max_steps + 1, the last one that of the polished loop; a seed's
    polish stops once the measure is below tol_conv / 10 or no step
    lowers ||R||.  Until a seed is yielded its loops are kept as
    coefficient rows; then one action_values call gives their f, and
    only the loops reached, not the rejected line-search trials, are
    built as trajectories.
    """
    T, shape = q0s[0].T, (2 * q0s[0].K + 1, q0s[0].n)
    reached = [[] for _ in q0s]     # per seed: (coefficients, h1norm, min_norm, measure)
    live = np.ones(len(q0s), dtype=bool)

    def residual(x: np.ndarray):
        return min_norm_residuals(x.reshape(-1, *shape), T, model).reshape(len(x), -1), None

    def reach(rows, x: np.ndarray, R: np.ndarray):
        for i, xi, Ri in zip(rows, x, R):
            c = xi.reshape(shape)
            h1, min_norm = h1_norm_row(c, T), l2_norm_row(Ri.reshape(shape), T)
            measure = CeramiRecord.cerami_measure(h1, min_norm)
            reached[i].append((c, h1, min_norm, measure))
            live[i] = not measure <= config.tol_conv * 0.1

    def records(i: int) -> list[CeramiRecord]:
        f = action_values(np.stack([c for c, *_ in reached[i]]), T, model)
        return [CeramiRecord(start_index + k, float(fk), h1, min_norm, measure,
                             q0s[i] if k == 0 else PeriodicTrajectory.from_coefficients(T, c))
                for k, ((c, h1, min_norm, measure), fk) in enumerate(zip(reached[i], f))]

    x = np.stack([q.coefficients().ravel() for q in q0s])
    R, _ = residual(x)
    rounds = newton_steps(x, R, residual,
                          lambda x, R: _polish_steps(x, R, shape, T, model), max_steps, live=live)
    ended = 0                   # seeds yielded so far
    for rows, x, R, _ in itertools.chain([(range(len(q0s)), x, R, None)], rounds):
        reach(rows, x, R)
        while ended < len(q0s) and not live[ended]:
            yield records(ended)
            ended += 1
    for i in range(ended, len(q0s)):
        yield records(i)


def _seed_variants(seed: PeriodicTrajectory, dim: int,
                   rng: np.random.Generator, max_variants: int):
    """Polish seeds in preference order: the ridge point itself, then
    quarter-period rotating mixes across axis pairs (autonomous radial
    systems keep planar data planar, so these break that symmetry), then
    mildly noised copies."""
    yield seed
    produced = 1
    if dim >= 2 and produced < max_variants:
        amp = np.linalg.norm(seed.a, axis=0) + np.linalg.norm(seed.b, axis=0)
        j_main = int(np.argmax(amp))
        shifted = seed.time_shift(seed.T / 4.0)
        for j_other in range(dim):
            if j_other == j_main or produced >= max_variants:
                continue
            for sign in (1.0, -1.0):
                if produced >= max_variants:
                    break
                a = np.array(seed.a)
                b = np.array(seed.b)
                a[:, j_other] = sign * shifted.a[:, j_main]
                b[:, j_other] = sign * shifted.b[:, j_main]
                yield PeriodicTrajectory(seed.T, seed.a0, a, b)
                produced += 1
    while produced < max_variants:
        noise = random_trajectory(rng, seed.T, seed.n, seed.K, zero_mean=True)
        kin = l2_norm(noise.derivative())
        scale = 0.1 * (l2_norm(seed.derivative()) + 1.0)
        if kin > 0:
            noise = noise * (scale / kin)
        yield seed + noise
        produced += 1


def _run(model: PotentialModel, geom: LinkingGeometry,
         config: SolverConfig) -> SolverResult:
    """Polish the geometry's seeds in order until one passes every gate.

    Superquadratic: the ridge_probe point, then its _seed_variants, at
    most MAX_POLISHES.  Saddle: the argmax node alone; a constant seed's
    variants repeat it or polish to tiny nonconstant loops that are not
    the equilibrium.  The surface, the seeds and their first polish are
    at K0 = min(K, max(16, K // 4)) modes.  A seed whose coarse polish
    ends above tol_conv is rejected on "measure"; else its loop, padded
    to K, is polished again at K and judged there, so every pass is
    decided at K.  Both levels' records go into the history and count
    against max_iters.  A seed that is already critical is its polish's
    only record.  With no polished loop to report, the report is the
    probe point or, without one, the argmax node, padded to K.

    Seeds are polished one at a time until one stalls at K0; then the
    remaining variants are polished at K0 together in lockstep
    (_polish_candidates) and finalized in seed order as their rows end,
    each truncated to the records the budget leaves it then, so the
    history, the rejections and the answer are those of the
    one-at-a-time schedule.  Saddle mode has one seed and never gets
    there.
    """
    if config.mode != geom.mode:
        raise ValueError(f"solver config mode {config.mode!r} does not match "
                         f"the {geom.mode!r} geometry")
    if geom.passed is not True:
        raise GeometryNotCertified(
            "geometry certificate absent or failed; calibrate and certify first")
    rng = np.random.default_rng(config.seed)
    coarse_K = int(min(config.K, max(16, config.K // 4)))
    surface = init_surface(geom, model, replace(config, K=coarse_K))
    superquadratic = geom.mode == "superquadratic"
    records: list[CeramiRecord] = []
    rejections: list[str] = []          # why each rejected candidate failed
    best: PeriodicTrajectory | None = None
    best_report: VerificationReport | None = None
    best_aggregate = np.inf

    # The first gate q fails (None if it passes), and q's inclusion report
    # when q may be reported (it passed every gate but perhaps the
    # aggregate; else None).  In superquadratic mode a critical point
    # below the certified sphere level alpha_bound is not the linking
    # level, and a constant loop is not an orbit (a polish that falls to
    # q = 0 fails both).
    def judge(q: PeriodicTrajectory, rec: CeramiRecord):
        if rec.measure > config.tol_conv:
            return "measure", None
        if superquadratic and rec.f_value < geom.alpha_bound - 1e-8:
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
    def polish(q0s: list[PeriodicTrajectory]) -> Iterator[list[CeramiRecord]]:
        return _polish_candidates(q0s, model, config, start_index=len(records),
                                  max_steps=steps_left())

    # Append a polish's records, the prefix the budget leaves room for now
    # (the polish it would have made alone), re-indexed; returns its loop,
    # or None when the budget is spent.
    def commit(polished: list[CeramiRecord]) -> PeriodicTrajectory | None:
        if steps_left() < 0:
            return None
        kept = polished[:steps_left() + 1]
        if kept[0].index != len(records):
            kept = [replace(rec, index=i) for i, rec in enumerate(kept, len(records))]
        records.extend(kept)
        return kept[-1].trajectory

    probe_seed = ridge_slack = None
    seeds = iter(())
    if not superquadratic:
        seeds = iter([surface.node(surface.argmax_node())])
    elif (hit := ridge_probe(surface, model, floor=geom.alpha_bound - 1e-6)) is not None:
        probe_seed, probe_val = hit
        ridge_slack = float(probe_val - geom.alpha_bound)
        seeds = _seed_variants(probe_seed, model.dim, rng, MAX_POLISHES)

    # Each seed's polish at K0, in seed order: one at a time until one ends
    # above tol_conv, then every remaining seed in one lockstep polish.
    def coarse_polishes():
        for seed_try in seeds:
            polished = next(polish([seed_try]))
            yield polished
            if polished[-1].measure > config.tol_conv:
                if rest := list(seeds):
                    yield from polish(rest)
                return

    for polished in coarse_polishes():
        candidate = commit(polished)
        if candidate is not None and coarse_K < config.K:
            if records[-1].measure > config.tol_conv:
                rejections.append("measure")
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
        candidate = (probe_seed or surface.node(surface.argmax_node())).pad_modes(config.K)
        verification = inclusion_residual(candidate, model)
    diagnostics = {
        "seed": config.seed,
        "coarse_K": coarse_K,
        "ridge_barrier_slack": ridge_slack,
        "max_h1norm": float(max((r.h1norm for r in records), default=0.0)),
        "mode": geom.mode,
        "ridge_polish": best is not None,
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
    """Probe and polish the linked cylinder surface to a critical loop.

    c_estimate is f at the reported candidate.  A candidate counts only
    at or above the certified sphere level alpha_bound (to 1e-8).
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
