"""A posteriori checks that a loop solves 0 in qdd + dV(q).

The headline quantity is the pointwise inclusion distance
dist(-qdd(t), dV(q(t))) sampled on the quadrature grid and aggregated in
L2.  Nodes whose active piece set changes within a widened tolerance sit
on a switching surface, where a truncated Fourier qdd cannot track a
discontinuous selection pointwise; they are tallied separately and kept
out of the headline aggregate, which is the honest discrete criterion.

For smooth potentials an independent shooting oracle integrates
qdd = -grad V(q) with scipy's adaptive DOP853 (rtol = atol = FLOW_TOL)
and closes the period map with newton.newton_steps; the Fourier fit
takes the FIT_SAMPLES dense-output samples of the flow that closed it.
It shares only that line search with the polish, not the discretization
or the closure residual that decides closure, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .action import project_hull
from .newton import newton_steps
from .potentials import PotentialModel, active_set
from .trajectory import PeriodicTrajectory, default_grid_size, split, l2_norm

ENERGY_GRID_REFINE = 32
FLOW_TOL = 1e-13           # rtol = atol of every shooting-oracle flow
FIT_SAMPLES = 4096         # path nodes handed to the oracle's Fourier fit
MAX_RHS_CALLS = 4 * FIT_SAMPLES  # gradient calls one flow may spend


class OracleFailure(RuntimeError):
    """Shooting Newton failed to close the orbit from the given guess."""


@dataclass(frozen=True)
class VerificationReport:
    distances: np.ndarray        # per-node inclusion distance, all nodes
    aggregate: float             # L2 norm of distances over included nodes
    max_distance: float          # pointwise max over all nodes
    excluded_fraction: float     # share of nodes near switching surfaces
    energy_drift: float          # max |E(t) - mean E|, E = |qdot|^2/2 + V(q)
    nonconstant: bool
    periodicity: str = "exact by representation (truncated Fourier loop)"

    def to_dict(self) -> dict:
        return {
            "aggregate": float(self.aggregate),
            "max_distance": float(self.max_distance),
            "excluded_fraction": float(self.excluded_fraction),
            "energy_drift": float(self.energy_drift),
            "nonconstant": bool(self.nonconstant),
            "periodicity": self.periodicity,
            "n_nodes": int(self.distances.size),
        }


def inclusion_residual(traj: PeriodicTrajectory, model: PotentialModel,
                       tol_active: float | None = None) -> VerificationReport:
    """Distance from -qdd(t) to the subdifferential hull at each node."""
    N = default_grid_size(traj.K)
    qs = traj.sample(N)
    target = -traj.derivative().derivative().sample(N)

    if model.kind == "smooth":
        grads = np.asarray(model.gradients[0](qs), dtype=float)
        dists = np.linalg.norm(target - grads, axis=1)
        excluded = np.zeros(N, dtype=bool)
    else:
        piece_vals = model.piece_values(qs)             # (P, N)
        active = active_set(piece_vals, tol_active)
        active_wide = active_set(piece_vals, tol_active, widen=10.0)
        excluded = np.any(active != active_wide, axis=0)
        grads = np.stack([np.asarray(g(qs), dtype=float)
                          for g in model.gradients])     # (P, N, n)
        dists = np.empty(N)
        for j in range(N):
            verts = grads[active[:, j], j]
            if verts.shape[0] == 1:
                dists[j] = float(np.linalg.norm(target[j] - verts[0]))
            else:
                proj, _ = project_hull(target[j], verts)
                dists[j] = float(np.linalg.norm(target[j] - proj))

    h = traj.T / N
    included = ~excluded
    aggregate = float(np.sqrt(np.sum(dists[included] ** 2) * h))
    return VerificationReport(
        distances=dists,
        aggregate=aggregate,
        max_distance=float(np.max(dists)),
        excluded_fraction=float(np.mean(excluded)),
        energy_drift=energy_drift(traj, model),
        nonconstant=is_nonconstant(traj),
    )


def is_nonconstant(traj: PeriodicTrajectory) -> bool:
    """Whether the loop's oscillation exceeds 1e-6 (1 + |mean|) in L2."""
    parts = split(traj)
    return l2_norm(parts.oscillation) > 1e-6 * (1.0 + float(np.linalg.norm(parts.mean)))


def energy_drift(traj: PeriodicTrajectory, model: PotentialModel) -> float:
    """max_t |E(t) - mean E| with E = |qdot|^2/2 + V(q) on a dense grid.

    The autonomous flow conserves E along true solutions, so drift is an
    independent first-integral check (it is not part of the inclusion).
    """
    N = ENERGY_GRID_REFINE * default_grid_size(traj.K)
    qs = traj.sample(N)
    qd = traj.derivative().sample(N)
    E = 0.5 * np.sum(qd ** 2, axis=1) + model.value(qs)
    return float(np.max(np.abs(E - np.mean(E))))


# -- shooting oracle ----------------------------------------------------


@dataclass(frozen=True)
class ShootingResult:
    trajectory: PeriodicTrajectory
    closure_residual: float      # |flow_T(x) - x| at the accepted state
    fit_residual: float          # max node error of the Fourier fit
    newton_iters: int
    initial_state: np.ndarray    # (2n,) accepted (q(0), qdot(0))


def _flow(model: PotentialModel, T: float, y0: np.ndarray, t_eval=None) -> np.ndarray:
    """Integrate (q, v)' = (v, -grad V(q)) over [0, T] with DOP853.

    y0 is one state (2n,) or a batch (B, 2n).  The batch is integrated as
    one stacked system, so every row follows the same adaptive step
    sequence.  Returns the states at t_eval, shape (len(t_eval),) +
    y0.shape; by default at the end of every step, so the last is the
    state at T.  Raises OracleFailure once the right-hand side has been
    called MAX_RHS_CALLS times, or if the integrator gives up.
    """
    n = model.dim
    y0 = np.asarray(y0, dtype=float)
    calls = 0

    def rhs(_t, y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise OracleFailure(
                f"flow over T = {T} needs more than {MAX_RHS_CALLS} gradient calls")
        y = y.reshape(-1, 2 * n)
        force = -np.asarray(model.gradients[0](y[:, :n]), dtype=float)
        return np.concatenate([y[:, n:], force], axis=1).ravel()

    sol = solve_ivp(rhs, (0.0, T), y0.ravel(), method="DOP853",
                    t_eval=t_eval, rtol=FLOW_TOL, atol=FLOW_TOL)
    if sol.status != 0:
        raise OracleFailure(f"flow over T = {T} failed: {sol.message}")
    return sol.y.T.reshape((-1,) + y0.shape)


def shooting_oracle(model: PotentialModel, T: float, initial_guess,
                    K: int = 64, max_newton: int = 50,
                    tol: float = 1e-9, stall_accept: float = 1e-6) -> ShootingResult:
    """Close the period-T orbit of qdd = -grad V(q) through Newton on (q0, v0).

    Smooth models only.  newton_steps takes its steps from a
    forward-difference Jacobian of the period map, whose 2n + 1 flows run
    as one stacked batch: columns differenced across separately adapted
    meshes would carry the flow's tolerance FLOW_TOL divided by the
    difference step, about 1e-6, as noise.  That ratio is also the cutoff
    of the least-squares step, since the monodromy of a conservative
    orbit is singular along the flow and misses the energy direction.

    The adaptive flow only admits fixed points up to its own truncation
    error: the iteration ends once no step longer than FLOW_TOL * scale,
    the accuracy asked of the flow, lowers the residual.  An end below
    stall_accept counts as closure, with the achieved residual reported;
    an end above it raises OracleFailure.

    Every flow may call the gradient at most MAX_RHS_CALLS times, which
    bounds the cost of a guess whose orbit oscillates many times per
    period.  A trial step past that budget counts as rejected; any other
    flow past it, the guess's own first, raises OracleFailure.  Closure
    flows also sample the fit nodes, at DOP853's 3 dense-output stages per step.
    """
    if model.kind != "smooth":
        raise ValueError("shooting oracle requires a smooth model")
    x = np.asarray(initial_guess, dtype=float).ravel()
    if x.size != 2 * model.dim:
        raise ValueError(f"initial guess must have size 2n = {2 * model.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"initial_guess must be finite, got {x.tolist()}")

    times = np.append(T * np.arange(FIT_SAMPLES) / FIT_SAMPLES, T)

    def closure(state):             # flow_T(state) - state, q at the fit nodes
        path = _flow(model, T, state, t_eval=times)
        return path[-1] - state, path[:-1, :model.dim]

    def trial_closure(state):
        try:
            return closure(state)
        except OracleFailure:
            return np.full(state.size, np.inf), None

    fd_h = 1e-7

    def newton_step(state, _res):
        batch = np.vstack([state, state[None, :] + fd_h * np.eye(state.size)])
        yT = _flow(model, T, batch)[-1]
        F0 = yT[0] - state
        J = (((yT[1:] - batch[1:]) - F0) / fd_h).T   # J[i, j] = dF_i / dx_j
        return np.linalg.lstsq(J, -F0, rcond=FLOW_TOL / fd_h)[0]

    res, samples = closure(x)
    scale = 1.0 + float(np.linalg.norm(x))
    iters = 0
    if np.linalg.norm(res) > tol * scale:
        for iters, (x, res, samples) in enumerate(newton_steps(
                x, res, trial_closure, newton_step, max_newton,
                xtol=FLOW_TOL * scale), 1):
            if np.linalg.norm(res) <= tol * scale:
                break
    res_norm = float(np.linalg.norm(res))
    if res_norm > stall_accept * scale:
        raise OracleFailure(f"shooting Newton stopped at residual {res_norm:.3e} "
                            f"after {iters} iterations")

    traj = PeriodicTrajectory.from_samples(samples, T, K=K)
    fit_err = float(np.max(np.linalg.norm(
        traj.sample(samples.shape[0]) - samples, axis=1)))
    return ShootingResult(trajectory=traj, closure_residual=res_norm,
                          fit_residual=fit_err, newton_iters=iters,
                          initial_state=x)
