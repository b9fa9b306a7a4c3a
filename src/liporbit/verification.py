"""A posteriori checks that a loop solves 0 in qdd + dV(q).

The headline quantity is the pointwise inclusion distance
dist(-qdd(t), dV(q(t))) sampled on the quadrature grid and aggregated in
L2 over every node.  dV(q) is the hull of the gradients of the pieces
that potentials.active_set admits, the one activity rule the polish and
its stopping rule use too, and the nearest hull points come from
action._select, the nodal oracle of the min-norm residuals.  So a loop
the polish calls critical is judged by the same subdifferential here.

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

from .action import _select, _synthesize
from .action import project_hull  # unused here; perfbench's tracer test patches it
from .newton import newton_steps
from .potentials import PotentialModel
from .trajectory import PeriodicTrajectory, default_grid_size, l2_norm_row

FLOW_TOL = 1e-13           # rtol = atol of every shooting-oracle flow
FIT_SAMPLES = 4096         # path nodes handed to the oracle's Fourier fit
MAX_RHS_CALLS = 4 * FIT_SAMPLES  # gradient calls one flow may spend
STALL_ACCEPT = 1e-6        # relative closure residual a stalled oracle still accepts


class OracleFailure(RuntimeError):
    """Shooting Newton failed to close the orbit from the given guess."""


@dataclass(frozen=True)
class VerificationReport:
    """The inclusion gate's reading of one loop: every node counts, with
    dV taken over the pieces the one activity rule admits."""

    distances: np.ndarray        # per-node inclusion distance, all nodes
    aggregate: float             # L2 norm of the distances, sqrt(T/N sum d^2)
    max_distance: float          # pointwise max over all nodes
    nonconstant: bool
    periodicity: str = "exact by representation (truncated Fourier loop)"

    def to_dict(self) -> dict:
        return {
            "aggregate": float(self.aggregate),
            "max_distance": float(self.max_distance),
            "nonconstant": bool(self.nonconstant),
            "periodicity": self.periodicity,
            "n_nodes": int(self.distances.size),
        }


def inclusion_residual(traj: PeriodicTrajectory, model: PotentialModel) -> VerificationReport:
    """Distance from -qdd(t) to the subdifferential hull at each node,
    selected through action._select under the one activity rule."""
    N = default_grid_size(traj.K)
    qs, target = _synthesize(traj.coefficients()[None], traj.T, N, accel=True)
    qs, target = qs[0], target[0]
    sel, _ = _select(model, qs, target)
    dists = np.linalg.norm(target - sel, axis=1)
    return VerificationReport(
        distances=dists,
        aggregate=float(np.sqrt(np.sum(dists ** 2) * (traj.T / N))),
        max_distance=float(np.max(dists)),
        nonconstant=nonconstant_row(traj.coefficients(), traj.T),
    )


def nonconstant_row(c: np.ndarray, T: float) -> bool:
    """Whether the oscillation of the loop of period T with coefficient
    row c (2K+1, n) exceeds 1e-6 (1 + |mean|) in L2."""
    oscillation = np.array(c)
    oscillation[0] = 0.0
    return l2_norm_row(oscillation, T) > 1e-6 * (1.0 + float(np.linalg.norm(c[0])))


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
                    tol: float = 1e-9) -> ShootingResult:
    """Close the period-T orbit of qdd = -grad V(q) through Newton on (q0, v0).

    Smooth models only.  newton_steps, with (q0, v0) as its one row,
    takes its steps from a forward-difference Jacobian of the period map,
    whose 2n + 1 flows run as one stacked batch: columns differenced
    across separately adapted meshes would carry the flow's tolerance
    FLOW_TOL divided by the difference step, about 1e-6, as noise.  That
    ratio is also the cutoff of the least-squares step, since the
    monodromy of a conservative orbit is singular along the flow and
    misses the energy direction.

    The adaptive flow only admits fixed points up to its own truncation
    error: the iteration ends once no step longer than FLOW_TOL * scale,
    the accuracy asked of the flow, lowers the residual.  An end below
    STALL_ACCEPT * scale counts as closure, with the achieved residual
    reported; an end above it raises OracleFailure.

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

    def trial_closure(states):      # newton_steps' one row
        try:
            res, samples = closure(states[0])
        except OracleFailure:
            return np.full(states.shape, np.inf), [None]
        return res[None], [samples]

    fd_h = 1e-7

    def newton_step(states, _res):
        state = states[0]
        batch = np.vstack([state, state[None, :] + fd_h * np.eye(state.size)])
        yT = _flow(model, T, batch)[-1]
        F0 = yT[0] - state
        J = (((yT[1:] - batch[1:]) - F0) / fd_h).T   # J[i, j] = dF_i / dx_j
        return np.linalg.lstsq(J, -F0, rcond=FLOW_TOL / fd_h)[0][None]

    res, samples = closure(x)
    scale = 1.0 + float(np.linalg.norm(x))
    iters = 0
    if np.linalg.norm(res) > tol * scale:
        for iters, (_, xs, rs, extra) in enumerate(newton_steps(
                x[None], res[None], trial_closure, newton_step, max_newton,
                xtol=FLOW_TOL * scale), 1):
            x, res, samples = xs[0], rs[0], extra[0]
            if np.linalg.norm(res) <= tol * scale:
                break
    res_norm = float(np.linalg.norm(res))
    if res_norm > STALL_ACCEPT * scale:
        raise OracleFailure(f"shooting Newton stopped at residual {res_norm:.3e} "
                            f"after {iters} iterations")

    traj = PeriodicTrajectory.from_samples(samples, T, K=K)
    fit_err = float(np.max(np.linalg.norm(
        traj.sample(samples.shape[0]) - samples, axis=1)))
    return ShootingResult(trajectory=traj, closure_residual=res_norm,
                          fit_residual=fit_err, newton_iters=iters,
                          initial_state=x)
