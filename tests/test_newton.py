"""The damped Newton driver: chunked line search and the end test."""

import numpy as np
import pytest

from liporbit.newton import CONTRACTION, MAX_HALVINGS, _row_steps, newton_steps


def sequential_steps(x, R, residual, newton_step, max_steps, xtol=0.0,
                     contraction=CONTRACTION):
    """newton_steps with one residual call per step length, 1, 1/2, ...,
    each over the rows still searching: the search the chunks replay.
    contraction=0 turns the end test off."""
    x, R = np.array(x, dtype=float), np.array(R, dtype=float)
    norms = [float(np.linalg.norm(r)) for r in R]
    live = np.ones(len(x), dtype=bool)
    for _ in range(max_steps):
        rows = np.flatnonzero(live)
        if not rows.size:
            return
        steps = _row_steps(newton_step, x[rows], R[rows])
        finite = np.all(np.isfinite(steps), axis=1)
        live[rows[~finite]] = False
        rows, steps, start = rows[finite], steps[finite], x[rows[finite]]
        step_norms = [float(np.linalg.norm(s)) for s in steps]
        best = [None] * len(rows)
        searching = list(range(len(rows)))
        for t in 0.5 ** np.arange(MAX_HALVINGS + 1):
            searching = [i for i in searching if t * step_norms[i] > xtol]
            if not searching:
                break
            trial = start[searching] + t * steps[searching]
            R_try, _ = residual(trial)
            still = []
            for j, i in enumerate(searching):
                norm_try = float(np.linalg.norm(R_try[j]))
                if best[i] is not None and not norm_try < best[i][0]:
                    continue
                if norm_try < norms[rows[i]]:
                    best[i] = (norm_try, t, trial[j], R_try[j])
                    if norm_try <= 0.5 * norms[rows[i]]:
                        continue
                still.append(i)
            searching = still
        live[rows] = [b is not None and b[0] <= (1 - contraction * b[1]) * norms[r]
                      for b, r in zip(best, rows)]
        accepted = np.flatnonzero(live[rows])
        for i in accepted:
            norms[rows[i]], _, x[rows[i]], R[rows[i]] = best[i]
        if accepted.size:
            rows = rows[accepted]
            yield rows, x[rows], R[rows], None


# Rows [a, z (3,)]: R = [0, z + z^3 / 10] and the step -a R.  With
# a = 1.3 * 2^k the first length that lowers ||R|| is 2^-k, and it
# halves ||R||; a = 0.4 lowers ||R|| by 40% at length 1 and less at 1/2,
# so the row takes 1 without halving; a = 0 has a singular system.
def cubic_residual(x):
    z = x[:, 1:]
    return np.concatenate([np.zeros((len(x), 1)), z + 0.1 * z ** 3], axis=1), None


def scaled_step(x, R):
    if np.any(x[:, 0] == 0):
        raise np.linalg.LinAlgError("Singular matrix")
    return -x[:, :1] * np.concatenate([np.zeros((len(x), 1)), R[:, 1:]], axis=1)


def cubic_rows(factors):
    z = np.array([[0.9, -0.5, 0.3], [0.2, 0.7, -1.0], [-0.6, 0.1, 0.8]])
    return np.array([[a, *z[i % 3]] for i, a in enumerate(factors)])


HALVINGS = [1.3 * 2.0 ** k for k in range(MAX_HALVINGS + 1)]   # 0 ... 11 halvings


def yielded(rounds):
    return [(list(rows), x.copy(), R.copy()) for rows, x, R, _ in rounds]


def assert_same_rounds(got, ref):
    assert len(got) == len(ref)
    for (rows, x, R), (rows1, x1, R1) in zip(got, ref):
        assert rows == rows1
        assert np.array_equal(x, x1) and np.array_equal(R, R1)


@pytest.mark.parametrize("cut", [False, True])
def test_chunked_search_takes_the_sequential_steps(cut):
    # Lockstep rows that need 0 to 11 halvings, one that takes length 1
    # without halving, one whose system is singular and a 9-halving row
    # at a millionth of the scale; with cut, xtol stops that row's
    # lengths at 1/16, inside the third chunk, before any of them lowers
    # its ||R||, and is far below every other row's steps.
    x = cubic_rows(HALVINGS + [0.4, 0.0, HALVINGS[9]])
    x[-1, 1:] *= 1e-6
    R = cubic_residual(x)[0]
    xtol = 0.0
    if cut:
        xtol = 2.0 ** -5 * float(np.linalg.norm(scaled_step(x[-1:], R[-1:])))
    got = yielded(newton_steps(x, R, cubic_residual, scaled_step, 6, xtol=xtol))
    ref = yielded(sequential_steps(x, R, cubic_residual, scaled_step, 6, xtol=xtol))
    assert_same_rounds(got, ref)
    moved = {i for rows, _, _ in got for i in rows}
    assert moved == set(range(13)) | (set() if cut else {14})


def test_a_round_makes_at_most_four_residual_calls():
    # rows needing 0 ... 11 halvings and one no length helps (12 "halvings"):
    # the round evaluates all 12 lengths in 4 calls, the sequential search in 12
    x = cubic_rows(HALVINGS + [1.3 * 2.0 ** 12])
    R = cubic_residual(x)[0]
    for driver, calls_expected in ((newton_steps, 4), (sequential_steps, 12)):
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return cubic_residual(xs)

        rounds = yielded(driver(x, R, counted, scaled_step, 1))
        assert len(calls) == calls_expected
        assert rounds[0][0] == list(range(MAX_HALVINGS + 1))
        for k, xk in enumerate(rounds[0][1]):       # row k took length 2^-k
            assert np.array_equal(xk, x[k] + 2.0 ** -k * scaled_step(x[k:k + 1], R[k:k + 1])[0])
    assert calls[0] == len(x)


def test_a_row_that_stops_contracting_ends_after_one_round():
    # R(x + t s) = (1 - t/8) R(x) for every length t: each step lowers
    # ||R||, by less than the factor 1 - t/4 the end test asks.
    def residual(x):
        return x.copy(), None

    steps_taken = []

    def step(x, R):
        steps_taken.append(len(x))
        return -R / 8

    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    live = np.ones(2, dtype=bool)
    assert yielded(newton_steps(x, x.copy(), residual, step, 5, live=live)) == []
    assert steps_taken == [2] and not live.any()
    # without the end test the rows would creep on, 12.5% per round
    assert len(yielded(sequential_steps(x, x.copy(), residual, step, 5,
                                        contraction=0.0))) == 5


def test_a_quadratically_convergent_row_is_unaffected():
    # Newton on z^2 = 2 from z = 3, 2.5 and -4: each accepted at length 1
    def residual(x):
        return x ** 2 - 2.0, None

    def step(x, R):
        return -R / (2 * x)

    x = np.array([[3.0], [2.5], [-4.0]])
    R = residual(x)[0]
    got = yielded(newton_steps(x, R, residual, step, 5))
    assert_same_rounds(got, yielded(sequential_steps(x, R, residual, step, 5,
                                                     contraction=0.0)))
    assert len(got) == 5 and all(rows == [0, 1, 2] for rows, _, _ in got)
    assert np.all(np.abs(got[-1][2]) < 1e-9)
