"""Correctness checks that do not take the solver's word for its answer.

Reference levels come from closed forms, not from liporbit:

* q'' + q^3 = 0 (quartic, n = 1): the period-T orbit of amplitude A has
  T = 4 sqrt(2) I / A with I = int_0^1 (1 - u^4)^(-1/2) du, and by the
  virial identity its action is E T / 3 = A^4 T / 12, so
  c(T) = (4 sqrt(2) I)^4 / (12 T^3).  This is the scaling law
  c(T) T^3 = const with its constant.
* maxpair, V = max(|x|^4, 2|x|^4 - 1): the planar circle |x| = r run at
  w = 2 pi / T solves the inclusion when w^2 r lies in dV's radial hull.
  For T <= pi / sqrt(2) it lies on the outer piece, r = w / (2 sqrt 2)
  and c = T (w^4 / 32 + 1); for pi / sqrt(2) < T <= pi it sits on the
  kink |x| = 1 and c = T (w^2 / 2 - 1).
* the shifted well V = (|x - p|^2 + eps^2)^(3/4) - eps^(3/2): the saddle
  point is the constant loop at p, with c = 0.

Residuals of smooth problems are recomputed here from the Fourier
coefficients, on a grid offset by half a step from the solver's
collocation nodes, so they share no code with `liporbit.verification`.
Each check returns named booleans; a solve passes only if all hold.
"""

from __future__ import annotations

import math

import numpy as np

VERIFY_TOL = 1e-4          # liporbit's default posterior inclusion gate
C_REL_TOL = 1e-8           # |c - reference| / reference
SHOOT_TOL = 1e-6           # sup |q_shoot - q| / (1 + sup |q|)
MEAN_TOL = 1e-3            # |mean(q) - p|, saddle-offcenter
SADDLE_C_TOL = 1e-9        # |c|, saddle-offcenter
CONSISTENCY_TOL = 1e-9     # recomputed vs reported, relative
# Checks of the solver's report against itself; failing one is a wrong
# answer even when the solver reported failure.
SELF_REPORT = ("exit_matches_verdict", "c_matches_result", "residual_matches_result")


def quartic_c(T: float) -> float:
    lemniscate = math.gamma(0.25) * math.gamma(0.5) / (4.0 * math.gamma(0.75))
    return (4.0 * math.sqrt(2.0) * lemniscate) ** 4 / (12.0 * T ** 3)


def maxpair_c(T: float) -> float:
    w = 2.0 * math.pi / T
    if w >= 2.0 * math.sqrt(2.0):
        return T * (w ** 4 / 32.0 + 1.0)
    if w >= 2.0:
        return T * (w ** 2 / 2.0 - 1.0)
    raise ValueError(f"no circular reference orbit for T = {T}")


def fourier_eval(traj, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(t) and q''(t) by direct trigonometric sums, shape (m, n) each."""
    w = 2.0 * math.pi * np.arange(1, traj.a.shape[0] + 1) / traj.T
    phase = np.outer(t, w)
    cos, sin = np.cos(phase), np.sin(phase)
    q = traj.a0 + cos @ traj.a + sin @ traj.b
    qdd = -(cos * w ** 2) @ traj.a - (sin * w ** 2) @ traj.b
    return q, qdd


def _offset_grid(traj, per_mode: int = 8) -> np.ndarray:
    N = per_mode * (traj.a.shape[0] + 1)
    return (np.arange(N) + 0.5) * (traj.T / N)


def smooth_residual(traj, grad) -> float:
    """L2 norm over one period of q'' + grad V(q)."""
    t = _offset_grid(traj)
    q, qdd = fourier_eval(traj, t)
    r = qdd + grad(q)
    return float(np.sqrt(np.sum(r ** 2) * traj.T / t.size))


def smooth_action(traj, value) -> float:
    """f(q) = int |q'|^2 / 2 - V(q), kinetic part by Parseval."""
    w = 2.0 * math.pi * np.arange(1, traj.a.shape[0] + 1) / traj.T
    kinetic = 0.25 * traj.T * float(np.sum(w[:, None] ** 2 * (traj.a ** 2 + traj.b ** 2)))
    q, _ = fourier_eval(traj, _offset_grid(traj))
    return kinetic - traj.T * float(np.mean(value(q)))


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def quartic_value(q):
    return 0.25 * np.sum(q ** 2, axis=-1) ** 2


def quartic_grad(q):
    return np.sum(q ** 2, axis=-1)[..., None] * q


def check_smooth(T: float, code: int, result: dict, traj, shooting) -> tuple[dict, float, float]:
    """smooth-sweep: closed-form level, own residual, shooting agreement.

    shooting is the oracle's trajectory started from the candidate's
    (q(0), q'(0)), or None when the oracle failed to close the orbit.
    Returns (checks, |c - reference|, recomputed residual).
    """
    c = smooth_action(traj, quartic_value)
    residual = smooth_residual(traj, quartic_grad)
    c_err = abs(c - quartic_c(T))
    verdict = bool(result["converged"]) and residual < VERIFY_TOL and bool(
        result["verification"]["nonconstant"])
    checks = {
        "exit_matches_verdict": (code == 0) == verdict,
        "c_matches_result": _close(c, result["c_estimate"], CONSISTENCY_TOL),
        "c_reference": c_err <= C_REL_TOL * quartic_c(T),
        "residual": residual < VERIFY_TOL,
        "shooting_agrees": shooting is not None and _agrees(traj, shooting),
    }
    return checks, c_err, residual


def _agrees(traj, other) -> bool:
    t = np.linspace(0.0, traj.T, 256, endpoint=False)
    q, _ = fourier_eval(traj, t)
    p, _ = fourier_eval(other, t)
    return float(np.max(np.abs(p - q))) <= SHOOT_TOL * (1.0 + float(np.max(np.abs(q))))


def check_kink(T: float, code: int, result: dict, traj, model) -> tuple[dict, float, float]:
    """kink-sweep: recompute the verifier and the action from the written
    trajectory, hold them against result.json and the exit code, and
    hold passing levels against the circular-orbit reference."""
    from liporbit.action import action_value
    from liporbit.verification import inclusion_residual

    report = inclusion_residual(traj, model)
    c = action_value(traj, model)
    c_err = abs(c - maxpair_c(T))
    verdict = bool(result["converged"]) and report.aggregate < VERIFY_TOL and report.nonconstant
    reported = result["verification"]["aggregate"]
    checks = {
        "exit_matches_verdict": (code == 0) == verdict,
        "c_matches_result": _close(c, result["c_estimate"], CONSISTENCY_TOL),
        "residual_matches_result": abs(report.aggregate - reported)
        <= CONSISTENCY_TOL + 1e-6 * reported,
        "c_reference": c_err <= C_REL_TOL * maxpair_c(T),
        "residual": report.aggregate < VERIFY_TOL,
    }
    return checks, c_err, float(report.aggregate)


def check_saddle(p: np.ndarray, c_estimate: float, traj, value, grad) -> tuple[dict, float, float]:
    """saddle-offcenter: the candidate is the constant loop at p, c = 0."""
    residual = smooth_residual(traj, grad)
    c = smooth_action(traj, value)
    checks = {
        "mean_at_p": float(np.max(np.abs(traj.a0 - p))) <= MEAN_TOL,
        "c_zero": abs(c) <= SADDLE_C_TOL and abs(c_estimate) <= SADDLE_C_TOL,
        "residual": residual < VERIFY_TOL,
    }
    return checks, abs(c), residual
