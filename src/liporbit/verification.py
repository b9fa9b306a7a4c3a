"""A posteriori checks that a loop solves 0 in qdd + dV(q).

The headline quantity is the pointwise inclusion distance
dist(-qdd(t), dV(q(t))) sampled on the quadrature grid and aggregated in
L2.  Nodes whose active piece set changes within a widened tolerance sit
on a switching surface, where a truncated Fourier qdd cannot track a
discontinuous selection pointwise; they are tallied separately and kept
out of the headline aggregate, which is the honest discrete criterion.

For smooth potentials an independent shooting oracle integrates
qdd = -grad V(q) by fixed-step RK4 and closes the period map with a
damped Newton iteration.  It shares no code or discretization with the
variational path, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import project_hull
from .potentials import PotentialModel, active_set
from .trajectory import PeriodicTrajectory, default_grid_size, split, l2_norm

ENERGY_GRID_REFINE = 32


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

    def distances_csv(self, traj: PeriodicTrajectory) -> str:
        t = traj.grid(self.distances.size)
        lines = ["t,dist"]
        lines.extend(f"{repr(float(tj))},{repr(float(dj))}"
                     for tj, dj in zip(t, self.distances))
        return "\n".join(lines) + "\n"


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
    parts = split(traj)
    osc_norm = l2_norm(parts.oscillation)
    nonconstant = osc_norm > 1e-6 * (1.0 + float(np.linalg.norm(parts.mean)))
    return VerificationReport(
        distances=dists,
        aggregate=aggregate,
        max_distance=float(np.max(dists)),
        excluded_fraction=float(np.mean(excluded)),
        energy_drift=energy_drift(traj, model),
        nonconstant=nonconstant,
    )


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


def _rk4_flow(model: PotentialModel, T: float, y0: np.ndarray,
              n_steps: int, keep_path: bool = False):
    """Integrate (q, v)' = (v, -grad V(q)) with classical RK4.

    y0 may be a batch of states, shape (..., 2n); the whole batch is
    advanced in lockstep so Jacobian columns cost one pass.
    """
    n = model.dim
    h = T / n_steps

    def rhs(y):
        q, v = y[..., :n], y[..., n:]
        return np.concatenate([v, -np.asarray(model.gradients[0](q), dtype=float)],
                              axis=-1)

    y = np.array(y0, dtype=float)
    path = [y[..., :n].copy()] if keep_path else None
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if keep_path:
            path.append(y[..., :n].copy())
    if keep_path:
        return y, np.stack(path, axis=0)
    return y, None


def shooting_oracle(model: PotentialModel, T: float, initial_guess,
                    K: int = 64, n_steps: int = 4096, max_newton: int = 50,
                    tol: float = 1e-9, stall_accept: float = 1e-6) -> ShootingResult:
    """Close the period-T orbit of qdd = -grad V(q) through Newton on (q0, v0).

    Smooth models only.  The Newton step is damped Levenberg-Marquardt
    (the monodromy of an autonomous orbit is singular along the flow
    direction).  The discrete RK4 flow only admits fixed points up to its
    own truncation error, so stagnation below stall_accept counts as
    closure and the achieved residual is reported; stagnation above it
    raises OracleFailure.  The damping search ends once the step is
    shorter than the rounding of one flow (n_steps * eps * scale): a
    shorter step cannot move the end state by more than that rounding.
    """
    if model.kind != "smooth":
        raise ValueError("shooting oracle requires a smooth model")
    x = np.asarray(initial_guess, dtype=float).ravel()
    if x.size != 2 * model.dim:
        raise ValueError(f"initial guess must have size 2n = {2 * model.dim}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def closure(state):
        yT, _ = _rk4_flow(model, T, state, n_steps)
        return yT - state

    fd_h = 1e-7
    iters = 0
    res = closure(x)
    res_norm = float(np.linalg.norm(res))
    scale = 1.0 + float(np.linalg.norm(x))
    xtol = n_steps * np.finfo(float).eps * scale
    damping = 1e-8
    slow_steps = 0
    while res_norm > tol * scale:
        if slow_steps >= 2 and res_norm <= stall_accept * scale:
            break  # ground out on the discrete flow's own truncation floor
        if iters >= max_newton:
            if res_norm <= stall_accept * scale:
                break
            raise OracleFailure(
                f"shooting Newton stalled at residual {res_norm:.3e} "
                f"after {iters} iterations")
        iters += 1
        # Batched forward-difference Jacobian of the period map.  The
        # monodromy of an autonomous orbit is singular along the flow, so
        # the step is damped Levenberg-Marquardt style instead of solved
        # exactly.
        dim = x.size
        batch = np.vstack([x, x[None, :] + fd_h * np.eye(dim)])
        yT, _ = _rk4_flow(model, T, batch, n_steps)
        F0 = yT[0] - x
        J = ((yT[1:] - (x[None, :] + fd_h * np.eye(dim))) - F0) / fd_h
        JtJ = J.T @ J
        JtF = J.T @ F0
        diag_scale = float(np.trace(JtJ)) / dim + 1e-30
        accepted = False
        for _ in range(25):
            step = np.linalg.solve(JtJ + damping * diag_scale * np.eye(dim), -JtF)
            if np.linalg.norm(step) <= xtol:
                break
            trial = x + step
            trial_res = closure(trial)
            trial_norm = float(np.linalg.norm(trial_res))
            if trial_norm < res_norm:
                slow_steps = slow_steps + 1 if trial_norm > 0.5 * res_norm else 0
                x, res, res_norm = trial, trial_res, trial_norm
                damping = max(damping / 3.0, 1e-12)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            if res_norm <= stall_accept * scale:
                break
            raise OracleFailure(
                f"shooting damping search failed at residual {res_norm:.3e}")

    _, path = _rk4_flow(model, T, x, n_steps, keep_path=True)
    samples = path[:-1]                           # drop duplicated endpoint
    K_fit = min(K, (samples.shape[0] - 2) // 2)
    traj = PeriodicTrajectory.from_samples(samples, T, K=K_fit)
    fit_err = float(np.max(np.linalg.norm(
        traj.sample(samples.shape[0]) - samples, axis=1)))
    return ShootingResult(trajectory=traj, closure_residual=res_norm,
                          fit_residual=fit_err, newton_iters=iters,
                          initial_state=x)
