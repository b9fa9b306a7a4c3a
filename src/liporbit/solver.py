"""Minimax candidates from a grid surface: probe it once, then polish.

A Surface holds one loop per node of a parameter grid, the identity
embedding of the cylinder {x1-box} x [0, r2] (superquadratic mode) or of
the X1 ball as a max-norm box (saddle mode), boundary nodes pinned, as
one array of Fourier coefficient rows.  A run accepts an interior argmax
node that is already critical.  Otherwise it probes the piecewise-linear
interpolation of the surface along its grid columns once (ridge_probe;
node values miss the critical ridge where it runs between nodes) and
polishes the probe's point by phase-anchored damped Newton on the
inclusion residual; in superquadratic mode a polish that fails a gate
reseeds with a symmetry-breaking variant of the point.  It reports the
polished loop with the lowest inclusion aggregate among those that pass
the measure, level and shape gates, and why each other one failed;
converged means that aggregate is below verify_tol, the test behind
exit code 0.

deform_step, a peak-shaving descent step at the argmax node, is not part
of a run: on the benchmark inputs it never decided an answer, and the
deformed node set stops linking within a few steps.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .action import (
    CeramiRecord,
    _synthesize,
    action_value,
    action_values,
    min_norm_residuals,
    min_norm_subgradient,
    residual_jacobian,
)
from .linking import LinkingGeometry
from .newton import newton_steps
from .potentials import PotentialModel
from .trajectory import (
    PeriodicTrajectory,
    default_grid_size,
    l2_norm,
    l2_norm_row,
    random_trajectory,
)
from .verification import VerificationReport, inclusion_residual, is_nonconstant


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
    K: int = 64
    grid: int = 9                       # nodes per grid axis
    tol_conv: float = 1e-5              # Cerami-measure stopping level
    max_iters: int = 20000              # Cerami records for the whole run
    seed: int = 0
    verify_tol: float = 1e-4            # posterior inclusion gate for candidates

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.grid < 3:
            raise ValueError(f"grid resolution must be >= 3, got {self.grid}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (np.isfinite(self.tol_conv) and self.tol_conv > 0):
            raise ValueError(f"tol_conv must be finite and > 0, got {self.tol_conv}")


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


def _screened_values(chain, T: float, model: PotentialModel, n_probe: int) -> np.ndarray:
    """f at the probe points of the polyline through chain, (m-1, n_probe), up to rounding:
    V at the interpolated samples of the node loops, the kinetic term as a quadratic in theta."""
    K = (chain.shape[1] - 1) // 2
    thetas = np.arange(1, n_probe + 1) / (n_probe + 1)
    qs, _ = _synthesize(chain, T, default_grid_size(K), accel=False)
    pts = qs[:-1, None] + thetas[:, None, None] * (qs[1:] - qs[:-1])[:, None]
    potential = T * np.mean(model.value(pts.reshape(-1, model.dim)).reshape(pts.shape[:3]), axis=2)
    w2 = np.tile((2.0 * np.pi * np.arange(1, K + 1) / T) ** 2, 2)[:, None]
    c, d = chain[:-1, 1:], chain[1:, 1:] - chain[:-1, 1:]
    cc, cd, dd = (np.sum(w2 * x * y, axis=(1, 2))[:, None] for x, y in ((c, c), (c, d), (d, d)))
    return 0.25 * T * (cc + thetas * (2.0 * cd + thetas * dd)) - potential


def _polyline_max(chain: np.ndarray, T: float, model: PotentialModel, n_probe: int = 7,
                  floor: float = -np.inf) -> tuple[float, int, float] | None:
    """Coarse max of f over the piecewise-linear curve through the chain.

    chain holds the coefficient rows (m, 2K+1, n) of the curve's nodes.
    Returns (value, segment index, theta); the chain endpoints are
    assumed cached elsewhere so only interior points are probed.  Points
    within SCREEN_TOL (1 + |top|) of the screened max top are evaluated by
    action_values, as if all were; ties go to the first segment and the
    smallest theta.  None, with no exact work, if top is that far below floor.
    """
    screened = _screened_values(chain, T, model, n_probe).ravel()
    top = float(np.max(screened))
    tol = SCREEN_TOL * (1.0 + abs(top))
    if top < floor - tol:
        return None
    seg, k = np.divmod(np.flatnonzero(screened >= top - tol), n_probe)
    th = (k + 1) / (n_probe + 1)
    vals = action_values(chain[seg] + th[:, None, None] * (chain[seg + 1] - chain[seg]), T, model)
    best = int(np.argmax(vals))
    return float(vals[best]), int(seg[best]), float(th[best])


def ridge_probe(surface: Surface, model: PotentialModel,
                floor: float = -np.inf) -> tuple[PeriodicTrajectory, float] | None:
    """Inf-sup over the interpolated surface: the discrete minimax point.

    Node values alone miss the critical ridge when it runs between grid
    points; the piecewise-linear curves through each grid column (along
    the last parameter axis) are paths whose maxima estimate the ridge
    crossing level, and the smallest column max realizes the discrete
    inf-sup.  Columns whose max falls below floor have slipped around
    the sphere through the mean directions (the quadratic barrier only
    binds zero-mean loops) and are discarded.  Returns None when every
    column leaked, else the best point of the winning column and its f.
    A column screened below floor costs no exact evaluation.
    """
    m = surface.shape[-1]
    columns = surface.coeffs.reshape(-1, m, *surface.coeffs.shape[1:])
    best_inf = np.inf
    best = None
    for chain, f_nodes in zip(columns, surface.f_values.reshape(-1, m)):
        col_val, seg, th = _polyline_max(chain, surface.T, model, floor=floor) or (-np.inf, 0, 0.0)
        point = chain[seg] + th * (chain[seg + 1] - chain[seg])
        if np.max(f_nodes) >= col_val:
            col_val, point = float(np.max(f_nodes)), chain[int(np.argmax(f_nodes))]
        if col_val < floor or col_val >= best_inf:
            continue
        best_inf, best = col_val, point
    if best is None:
        return None
    return PeriodicTrajectory.from_coefficients(surface.T, best), float(best_inf)


def _polish_step(x: np.ndarray, R: np.ndarray, shape: tuple[int, int], T: float,
                 model: PotentialModel) -> np.ndarray:
    """The Newton step of the residual rows R at x, anchored in phase.

    Every time shift of a critical loop is critical, so on a nonconstant
    loop J is near-singular along the tangent q' (benchmark Jacobians have
    one singular value of 5e-9 to 2e-4, the next >= 1.36).  The step s
    solves [J p; p^T 0][s; lam] = [-R; 0] with p = q'/|q'|; p is a column
    as well as a row because f is shift-invariant, so R is orthogonal to
    q'.  On a constant loop q' = 0, and J s = -R keeps the loop constant.
    """
    J = residual_jacobian(x.reshape(shape), T, model)
    q = PeriodicTrajectory.from_coefficients(T, x.reshape(shape))
    if not is_nonconstant(q):
        return np.linalg.solve(J, -R)
    p = q.derivative().coefficients().ravel()
    p /= np.linalg.norm(p)
    bordered = np.block([[J, p[:, None]], [p[None, :], np.zeros((1, 1))]])
    return np.linalg.solve(bordered, np.append(-R, 0.0))[:-1]


def _polish_candidate(q0: PeriodicTrajectory, model: PotentialModel,
                      config: SolverConfig, records: list[CeramiRecord],
                      start_index: int, max_steps: int = 60) -> PeriodicTrajectory:
    """Damped Newton zero-finding on the discrete inclusion residual.

    R maps Fourier coefficients to those of the min-norm residual
    -qdd - v (its Jacobian is residual_jacobian's).  newton_steps with
    _polish_step's phase-anchored step turns a ridge point located by the
    probe into a candidate whose Cerami measure meets the stopping
    tolerance.  Emits one record per loop it reaches, at most
    max_steps + 1 records, the last one that of the returned loop; stops
    once the measure is below tol_conv / 10 or no step lowers ||R||.
    """
    shape = (2 * q0.K + 1, q0.n)

    def residual(x: np.ndarray):
        rows = x.reshape(shape)
        return (min_norm_residuals(rows[None], q0.T, model)[0].ravel(),
                PeriodicTrajectory.from_coefficients(q0.T, rows))

    x = q0.coefficients().ravel()
    R, _ = residual(x)
    steps = newton_steps(x, R, residual,
                         lambda x, R: _polish_step(x, R, shape, q0.T, model), max_steps)
    for index, (_, R, q) in enumerate(itertools.chain([(x, R, q0)], steps), start_index):
        rec = CeramiRecord.at(q, action_value(q, model),
                              l2_norm_row(R.reshape(shape), q0.T), index)
        records.append(rec)
        if rec.measure <= config.tol_conv * 0.1:
            break
    return q


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
    if config.mode != geom.mode:
        raise ValueError(f"solver config mode {config.mode!r} does not match "
                         f"the {geom.mode!r} geometry")
    if geom.passed is not True:
        raise GeometryNotCertified(
            "geometry certificate absent or failed; calibrate and certify first")
    rng = np.random.default_rng(config.seed)
    surface = init_surface(geom, model, config)
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

    # An interior argmax node that is already critical is accepted as it
    # stands (the equilibrium of a centred well sits on a grid node).
    peak = surface.argmax_node()
    if not surface.pinned[peak]:
        q = surface.node(peak)
        R = min_norm_residuals(surface.coeffs[peak][None], geom.T, model)[0]
        rec = CeramiRecord.at(q, surface.f_values[peak], l2_norm_row(R, geom.T))
        if rec.measure <= config.tol_conv:
            records.append(rec)
            reason, report = judge(q, rec)
            if reason is None:
                best, best_report, best_aggregate = q, report, report.aggregate
            else:
                rejections.append(reason)

    probe_seed = ridge_slack = None
    if best is None:
        # One probe of the linked surface seeds the polish; a polished loop
        # that fails a gate reseeds with the next variant of the seed.
        floor = geom.alpha_bound - 1e-6 if superquadratic else -np.inf
        hit = ridge_probe(surface, model, floor=floor)
        if hit is not None:
            probe_seed, probe_val = hit
            ridge_slack = float(probe_val - geom.alpha_bound)
            # A saddle seed is a constant loop, whose variants repeat it or
            # polish to tiny nonconstant loops that are not the equilibrium.
            polishes = MAX_POLISHES if superquadratic else 1
            for seed_try in _seed_variants(probe_seed, model.dim, rng, polishes):
                room = config.max_iters - len(records)
                if room < 1:
                    break
                candidate = _polish_candidate(seed_try, model, config, records,
                                              start_index=len(records),
                                              max_steps=min(60, room - 1))
                reason, report = judge(candidate, records[-1])
                if report is not None and report.aggregate < best_aggregate:
                    best, best_report, best_aggregate = candidate, report, report.aggregate
                if reason is None:
                    break
                rejections.append(reason)

    candidate, verification = best, best_report
    if candidate is None:
        candidate = probe_seed if probe_seed is not None else surface.node(peak)
        verification = inclusion_residual(candidate, model)
    diagnostics = {
        "seed": config.seed,
        "ridge_barrier_slack": ridge_slack,
        "max_h1norm": float(max((r.h1norm for r in records), default=0.0)),
        "mode": geom.mode,
        "ridge_polish": best is not None and probe_seed is not None,
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
    """Probe and polish over the X1 ball of constant loops (no level gate)."""
    if geom.mode != "saddle":
        raise ValueError("run_saddle expects a saddle geometry")
    return _run(model, geom, config)
