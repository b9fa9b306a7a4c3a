"""The damped Newton iteration that the polish and the shooting oracle share.

The iteration advances a stack of rows, each an independent problem
x (m,) with its residual R(x) (m,), in lockstep: a round makes one
newton_step call over the rows still iterating and, over the rows still
searching, one residual call per chunk of step lengths: {1}, {1/2, 1/4},
{1/8 ... 1/64}, {1/128 ... 1/2048}.  A row reads its lengths in order and
no value reaches it from another, so it takes the iterates of a search
of one length per call, alone.  The shooting oracle passes one row, the
polish one row per seed.  It is the only damped search that a solve or
a calibration makes.
"""

from __future__ import annotations

import numpy as np

MAX_HALVINGS = 11          # step lengths 1, 1/2, ..., 2^-MAX_HALVINGS
CONTRACTION = 0.25         # a step of length t must cut ||R|| by the factor 1 - CONTRACTION * t
_CHUNKS = [[0.5 ** k for k in range(a, b)]      # the lengths in doubling chunks
           for a, b in ((0, 1), (1, 3), (3, 7), (7, MAX_HALVINGS + 1))]


def _row_steps(newton_step, x: np.ndarray, R: np.ndarray) -> np.ndarray:
    """newton_step on the stack; if it raises LinAlgError, row by row, a
    row whose own system is singular getting a NaN step."""
    try:
        return newton_step(x, R)
    except np.linalg.LinAlgError:
        if len(x) == 1:
            return np.full_like(x, np.nan)
        return np.concatenate([_row_steps(newton_step, x[i:i + 1], R[i:i + 1])
                               for i in range(len(x))])


def newton_steps(x, R, residual, newton_step, max_steps: int, xtol: float = 0.0,
                 live=None):
    """Yield (rows, x, R, extra) after each round of damped Newton steps.

    x and R are stacked rows (B, m), R the residual at x.  residual(x)
    takes stacked rows and returns their residual rows and what the
    caller keeps of that evaluation, one entry per row (or None);
    newton_step(x, R) returns the rows' full steps.  A round yields the
    indices of the rows that accepted a step, their new x and R and the
    extra of that evaluation.  A row's step length t is the first that
    halves ||R|| or, if none does, the one of least ||R|| before ||R||
    rises again: on a square-root force, such as that of the cusp
    V ~ |x - p|^(3/2), the full step flips x - p and any decrease would
    accept that flip-flop.  A row ends, at its x, when no step longer than
    xtol lowers its ||R||, when its step t leaves ||R|| above 1 -
    CONTRACTION * t times the current one (Deuflhard's restricted
    monotonicity test), or when its step is not finite or its Newton
    system singular; all end after max_steps rounds.  live (B,) bool
    marks the rows still iterating: the iteration clears a row that
    ends, and a caller ends a row by clearing its entry before a round.
    """
    x = np.array(x, dtype=float)
    R = np.array(R, dtype=float)
    norms = [float(np.linalg.norm(r)) for r in R]
    live = np.ones(len(x), dtype=bool) if live is None else live
    for _ in range(max_steps):
        rows = np.flatnonzero(live)
        if not rows.size:
            return
        steps = _row_steps(newton_step, x[rows], R[rows])
        finite = np.all(np.isfinite(steps), axis=1)
        live[rows[~finite]] = False
        rows, steps, start = rows[finite], steps[finite], x[rows[finite]]
        step_norms = [float(np.linalg.norm(s)) for s in steps]
        best = [None] * len(rows)       # per row: (||R||, t, x, R, extra) of the best trial
        searching = list(range(len(rows)))
        for lengths in _CHUNKS:
            trials = [(i, t) for i in searching for t in lengths if t * step_norms[i] > xtol]
            if not trials:
                break
            trial = np.array([start[i] + t * steps[i] for i, t in trials])
            R_try, extra = residual(trial)
            ended = set()
            for j, (i, t) in enumerate(trials):
                if i in ended:
                    continue
                norm_try = float(np.linalg.norm(R_try[j]))
                if best[i] is not None and not norm_try < best[i][0]:
                    ended.add(i)                # ||R|| rises again, or is NaN
                elif norm_try < norms[rows[i]]:
                    best[i] = (norm_try, t, trial[j], R_try[j],
                               None if extra is None else extra[j])
                    if norm_try <= 0.5 * norms[rows[i]]:
                        ended.add(i)
            searching = [i for i in searching if i not in ended]
        live[rows] = [b is not None and b[0] <= (1 - CONTRACTION * b[1]) * norms[r]
                      for b, r in zip(best, rows)]
        accepted = np.flatnonzero(live[rows])
        for i in accepted:
            norms[rows[i]], _, x[rows[i]], R[rows[i]], _ = best[i]
        if accepted.size:
            rows = rows[accepted]
            yield rows, x[rows], R[rows], [best[i][4] for i in accepted]
