"""A posteriori checks that a loop solves 0 in qdd + dV(q).

The headline quantity is the pointwise inclusion distance
dist(-qdd(t), dV(q(t))) sampled on the quadrature grid and aggregated in
L2 over every node.  dV(q) is the hull of the gradients of the pieces
that potentials.active_set admits, the one activity rule the polish and
its stopping rule use too, and the nearest hull points come from
action._select, the nodal oracle of the min-norm residuals.  So a loop
the polish calls critical is judged by the same subdifferential here.

For smooth potentials an independent shooting oracle integrates
qdd = -grad V(q) with an in-tree adaptive DOP853 (rtol = atol =
FLOW_TOL), step for step scipy's solve_ivp(method="DOP853"), and closes
the period map with newton.newton_steps; the Fourier fit
takes the FIT_SAMPLES dense-output samples of the flow that closed it.
It shares only that line search with the polish, not the discretization
or the closure residual that decides closure, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

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
    if model.dim != traj.n:
        raise ValueError(f"model dimension {model.dim} != trajectory dimension {traj.n}")
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


# Dormand and Prince's DOP853, an 8th-order pair with 5th- and 3rd-order
# error estimates and a 7th-degree dense output from 3 extra stages
# (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6).  The literals
# are scipy.integrate's (_ivp/dop853_coefficients.py): rows 1-11 of _A
# are the stages, row 12 the weights, rows 13-15 the dense output's extra
# stages.  The flows are autonomous, so the stage times c_i are not kept.


def _table(rows: int, entries: tuple) -> np.ndarray:
    out = np.zeros((rows, 16))
    for i, row in enumerate(entries):
        for j, a in row.items():
            out[i, j] = a
    return out


_A = _table(16, (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
))
_D = _table(4, (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
))
_B = _A[12, :12]
_E5 = _table(1, ({0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
                  6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
                  8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
                  10: 0.8192320648511571246570742613e-1,
                  11: -0.2235530786388629525884427845e-1},))[0, :13]
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(rhs, y: np.ndarray, f: np.ndarray, T: float) -> float:
    """The first step length of Hairer, Norsett & Wanner II.4, at the
    order 7 of DOP853's error estimate (one gradient call)."""
    scale = FLOW_TOL + np.abs(y) * FLOW_TOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, T)
    d2 = _rms((rhs(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), T)
    return min(100 * h0, (0.01 / max(d1, d2)) ** 0.125, T)


def _dense_coefficients(rhs, K: np.ndarray, y_old: np.ndarray, y: np.ndarray,
                        f: np.ndarray, h: float) -> np.ndarray:
    """The 7 coefficient rows of the accepted step's dense output, after
    its 3 extra stages; K holds the step's stages, f the end slope."""
    for s in (13, 14, 15):
        K[s] = rhs(y_old + np.dot(K[:s].T, _A[s, :s]) * h)
    delta = y - y_old
    F = np.empty((7, y.size))
    F[0] = delta
    F[1] = h * K[0] - delta
    F[2] = 2 * delta - h * (f + K[0])
    F[3:] = h * np.dot(_D, K)
    return F


def _flow(model: PotentialModel, T: float, y0: np.ndarray, t_eval=None) -> np.ndarray:
    """Integrate (q, v)' = (v, -grad V(q)) over [0, T] with DOP853.

    The stepper is scipy's solve_ivp(method="DOP853", rtol = atol =
    FLOW_TOL) step for step: its first-step rule, its err5/err3 error
    norm and its controller (safety 0.9, factor in [0.2, 10], exponent
    -1/8, no growth right after a rejection), so it gives the same bits.
    y0 is one state (2n,) or a batch (B, 2n).  The batch is integrated as
    one stacked system, so every row follows the same adaptive step
    sequence.  Returns the states at t_eval, shape (len(t_eval),) +
    y0.shape, from the dense output of the step each node falls in (the
    step that ends there for a node on a boundary), evaluated once at
    the end; by default y0 and the state at the end of every step, so
    the last is the state at T.  Raises OracleFailure once the
    right-hand side has been called MAX_RHS_CALLS times, dense-output
    stages included, or if a step falls below 10 spacings of t.
    """
    n = model.dim
    y0 = np.asarray(y0, dtype=float)
    T = float(T)
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise OracleFailure(
                f"flow over T = {T} needs more than {MAX_RHS_CALLS} gradient calls")
        y = y.reshape(-1, 2 * n)
        force = -np.asarray(model.gradients[0](y[:, :n]), dtype=float)
        return np.concatenate([y[:, n:], force], axis=1).ravel()

    t, y = 0.0, y0.ravel()
    f = rhs(y)
    h_abs = _initial_step(rhs, y, f, T)
    K = np.empty((16, y.size))
    states, steps, done = [y], [], 0
    while t < T:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise OracleFailure(f"flow over T = {T} failed: step below "
                                    f"{min_step:.3g} at t = {t:.6g}")
            t_new = min(t + h_abs, T)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = rhs(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = K[12] = rhs(y_new)
            scale = FLOW_TOL + np.maximum(np.abs(y), np.abs(y_new)) * FLOW_TOL
            err5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
            error = (0.0 if err5 == 0 and err3 == 0
                     else h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        if t_eval is None:
            states.append(y_new)
        else:
            stop = np.searchsorted(t_eval, t_new, side="right")
            if stop > done:
                steps.append((stop - done, t, h, y,
                              _dense_coefficients(rhs, K, y, y_new, f_new, h)))
                done = stop
        t, y, f = t_new, y_new, f_new
    if t_eval is None:
        return np.array(states).reshape((-1,) + y0.shape)
    counts, t_old, hs, y_old, F = (np.array(a) for a in zip(*steps))
    step = np.repeat(np.arange(counts.size), counts)
    x = ((np.asarray(t_eval, dtype=float) - t_old[step]) / hs[step])[:, None]
    F = F[step]
    out = np.zeros((step.size, y.size))
    for i in range(7):
        out += F[:, 6 - i]
        out *= x if i % 2 == 0 else 1 - x
    return (out + y_old[step]).reshape((-1,) + y0.shape)


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
    misses the energy direction.  Trial steps are flowed each alone: a
    stacked flow shares its adaptive steps, so a trial would lose its bits.

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

    def trial_closure(states):      # each trial row flowed alone
        res, samples = np.full(states.shape, np.inf), [None] * len(states)
        for i, state in enumerate(states):
            with contextlib.suppress(OracleFailure):   # a trial past the budget is rejected
                res[i], samples[i] = closure(state)
        return res, samples

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
