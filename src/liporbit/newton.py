"""The damped Newton iteration that the polish and the shooting oracle share."""

from __future__ import annotations

import numpy as np

MAX_HALVINGS = 11          # step lengths 1, 1/2, ..., 2^-MAX_HALVINGS


def newton_steps(x, R, residual, newton_step, max_steps: int, xtol: float = 0.0):
    """Yield (x, R, extra) after each accepted damped Newton step from x.

    residual(x) returns the residual vector at x and what the caller keeps
    of that evaluation; R is the residual at the start.  newton_step(x, R)
    returns the full step.  The step length is the first that halves ||R||
    or, if none does, the one of least ||R|| before ||R|| rises again: on
    a square-root force, such as that of the cusp V ~ |x - p|^(3/2), the
    full step flips x - p and any decrease would accept that flip-flop.
    The iteration ends after max_steps steps, when no step longer than
    xtol lowers ||R||, or when the Newton system is singular.
    """
    norm = float(np.linalg.norm(R))
    for _ in range(max_steps):
        try:
            step = newton_step(x, R)
        except np.linalg.LinAlgError:
            return
        if not np.all(np.isfinite(step)):
            return
        step_norm = float(np.linalg.norm(step))
        best = None
        for t in 0.5 ** np.arange(MAX_HALVINGS + 1):
            if t * step_norm <= xtol:
                break
            trial = x + t * step
            R_try, extra = residual(trial)
            norm_try = float(np.linalg.norm(R_try))
            if best is not None and not norm_try < best[0]:
                break                           # ||R|| rises again, or is NaN
            if norm_try < norm:
                best = (norm_try, trial, R_try, extra)
                if norm_try <= 0.5 * norm:
                    break
        if best is None:
            return
        norm, x, R, extra = best
        yield x, R, extra
