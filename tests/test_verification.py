import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from liporbit.action import project_hull
from liporbit.potentials import PotentialModel, make_maxpair, make_quartic, subdiff
from liporbit.trajectory import PeriodicTrajectory, default_grid_size, random_trajectory
from liporbit import verification
from liporbit.newton import newton_steps
from liporbit.verification import (
    OracleFailure,
    inclusion_residual,
    shooting_oracle,
)

TWO_PI = 2.0 * np.pi


def quartic_period(amplitude):
    """Time-of-flight period of qdd = -q^3 at the given amplitude.

    Quarter period = int_0^A dq / sqrt((A^4 - q^4)/2), by energy
    conservation from the turning point (A, 0); quadrature oracle,
    no time stepping involved.
    """
    integrand = lambda u: 1.0 / np.sqrt((1.0 - u ** 4) / 2.0)
    val, err = quad(integrand, 0.0, 1.0, points=[1.0], limit=200)
    assert err < 1e-9
    return 4.0 * val / amplitude


# -- inclusion residual ----------------------------------------------------


def test_zero_loop_is_equilibrium():
    V = make_quartic(1)
    rep = inclusion_residual(PeriodicTrajectory.zero(TWO_PI, 1, 8), V)
    assert rep.aggregate == 0.0
    assert rep.max_distance == 0.0
    assert not rep.nonconstant


def test_harmonic_under_zero_potential_is_not_a_solution():
    V0 = PotentialModel.smooth(lambda x: np.zeros(x.shape[:-1]),
                               lambda x: np.zeros_like(x), 1, "zero")
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 1, K=8)
    rep = inclusion_residual(q, V0)
    # distance is |qdd| pointwise, so the aggregate is ||qdd||_L2
    assert np.isclose(rep.aggregate, np.sqrt(TWO_PI / 2.0), rtol=1e-6)
    assert rep.nonconstant


def test_smooth_aggregate_matches_direct_quadrature():
    V = make_quartic(1)
    rng = np.random.default_rng(3)
    q = random_trajectory(rng, T=2.0, n=1, K=10)
    rep = inclusion_residual(q, V)
    N = default_grid_size(q.K)
    qs = q.sample(N)
    qdd = q.derivative().derivative().sample(N)
    resid = qdd + V.gradients[0](qs)
    direct = np.sqrt((q.T / N) * np.sum(resid ** 2))
    assert np.isclose(rep.aggregate, direct, rtol=1e-12)


def test_kink_crossing_nodes_count_their_hull_distance():
    V = make_maxpair(1)
    # The peak node sits just outside the switching sphere, inside the
    # activity band: both pieces are active there, and the node counts
    # its distance to their hull like every other node.
    q = PeriodicTrajectory.harmonic(2.0, 1, 1, sin_amp=1.0 + 2.0e-8, K=16)
    rep = inclusion_residual(q, V)
    N = default_grid_size(q.K)
    qs = q.sample(N)
    target = -q.derivative().derivative().sample(N)
    peak = int(np.argmax(np.abs(qs[:, 0])))
    assert subdiff(V, qs[peak]).active == (0, 1)
    serial = [np.linalg.norm(target[j] - project_hull(target[j], subdiff(V, qs[j]).vertices)[0])
              for j in range(N)]
    assert np.allclose(rep.distances, serial, rtol=1e-12, atol=1e-12)
    assert rep.distances.size == N
    assert rep.aggregate == float(np.sqrt(q.T / N * np.sum(rep.distances ** 2)))


def test_node_exactly_on_kink_uses_full_hull():
    V = make_maxpair(1)
    # Both pieces active on the sphere: the hull distance is the honest
    # inclusion distance there, so it stays below either gradient's.
    q = PeriodicTrajectory.harmonic(2.0, 1, 1, sin_amp=1.0, K=16)
    rep = inclusion_residual(q, V)
    qs = q.sample(rep.distances.size)
    peak = int(np.argmax(np.abs(qs[:, 0])))
    target = -q.derivative().derivative().sample(rep.distances.size)[peak]
    assert rep.distances[peak] <= min(np.linalg.norm(target - g(qs[peak]))
                                      for g in V.gradients)


@pytest.mark.parametrize("make", [make_quartic, make_maxpair], ids=["quartic", "maxpair"])
def test_inclusion_residual_rejects_a_loop_of_another_dimension(make):
    # The radial pieces accept points of any dimension, so a planar loop
    # under a 1-D model was judged (aggregate 0.74) instead of refused.
    q = PeriodicTrajectory.harmonic(2.0, 2, 1, sin_amp=1.3, K=8)
    with pytest.raises(ValueError, match="dimension"):
        inclusion_residual(q, make(1))


def test_report_dict_and_csv():
    V = make_quartic(1)
    q = PeriodicTrajectory.harmonic(TWO_PI, 1, 1, K=4)
    rep = inclusion_residual(q, V)
    assert set(rep.to_dict()) == {"aggregate", "max_distance", "nonconstant",
                                  "periodicity", "n_nodes"}


# -- shooting oracle ---------------------------------------------------------


@pytest.fixture(scope="module")
def quartic_orbit():
    V = make_quartic(1)
    return V, shooting_oracle(V, TWO_PI, [1.18, 0.0], K=64)


def test_oracle_closes_quartic_orbit(quartic_orbit):
    V, res = quartic_orbit
    assert res.closure_residual < 1e-6
    assert res.fit_residual < 1e-8
    amp = np.max(np.abs(res.trajectory.sample(2048)))
    # amplitude determined by the period law P(A) = P(1)/A
    assert np.isclose(amp, quartic_period(1.0) / TWO_PI, atol=1e-4)


def test_oracle_newton_closes_below_tol_from_off_orbit_guess(quartic_orbit):
    # (1.18, 0) is not on a period-2 pi orbit; Gauss-Newton on the period
    # map's Jacobian (not its transpose) closes it below tol, not only at
    # the stall acceptance.
    V, res = quartic_orbit
    scale = 1.0 + float(np.linalg.norm(res.initial_state))
    assert res.closure_residual <= 1e-9 * scale
    assert res.newton_iters <= 4


def test_oracle_consistency_loop(quartic_orbit):
    V, res = quartic_orbit
    rep = inclusion_residual(res.trajectory, V)
    assert rep.aggregate < 1e-6
    assert rep.nonconstant
    # The autonomous flow conserves E = |qdot|^2/2 + V(q) along true orbits.
    N = 32 * default_grid_size(res.trajectory.K)
    E = (0.5 * np.sum(res.trajectory.derivative().sample(N) ** 2, axis=1)
         + V.value(res.trajectory.sample(N)))
    assert np.max(np.abs(E - np.mean(E))) < 1e-6


def test_amplitude_period_monotonicity():
    # Larger amplitude -> shorter period, computed by time of flight.
    p1, p2 = quartic_period(0.8), quartic_period(1.6)
    assert p1 > p2
    assert np.isclose(p1 / p2, 2.0, rtol=1e-9)  # exact 1/A scaling


def test_oracle_matches_time_of_flight():
    V = make_quartic(1)
    A = 1.4
    T = quartic_period(A)
    res = shooting_oracle(V, T, [A, 0.0], K=32)
    assert res.closure_residual < 1e-6
    amp = np.max(np.abs(res.trajectory.sample(2048)))
    assert np.isclose(amp, A, atol=1e-5)


def test_oracle_harmonic_closes_any_amplitude():
    w0 = 1.3
    H = PotentialModel.smooth(lambda x: 0.5 * w0 ** 2 * np.sum(x ** 2, axis=-1),
                              lambda x: w0 ** 2 * x, 1, "harmonic")
    res = shooting_oracle(H, TWO_PI / w0, [0.7, 0.0], K=16)
    assert res.newton_iters == 0
    assert res.closure_residual < 1e-10
    # phase-space circle: energy w0^2 q^2/2 + v^2/2 constant
    q = res.trajectory.sample(256)
    v = res.trajectory.derivative().sample(256)
    E = 0.5 * w0 ** 2 * q[:, 0] ** 2 + 0.5 * v[:, 0] ** 2
    assert np.max(np.abs(E - E.mean())) < 1e-10


def _count_flows(monkeypatch):
    flows = []
    flow = verification._flow
    monkeypatch.setattr(verification, "_flow",
                        lambda *args, **kw: flows.append(1) or flow(*args, **kw))
    return flows


def _rk4_quartic_end_state(T, q, v, n_steps=65536):
    """End state of qdd = -q^3 after n_steps classical RK4 steps (n = 1)."""
    h = T / n_steps
    for _ in range(n_steps):
        k1q, k1v = v, -q ** 3
        q2, v2 = q + 0.5 * h * k1q, v + 0.5 * h * k1v
        k2q, k2v = v2, -q2 ** 3
        q3, v3 = q + 0.5 * h * k2q, v + 0.5 * h * k2v
        k3q, k3v = v3, -q3 ** 3
        q4, v4 = q + h * k3q, v + h * k3v
        k4q, k4v = v4, -q4 ** 3
        q += (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        v += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return np.array([q, v])


def test_flow_matches_fine_rk4_reference(quartic_orbit):
    V, res = quartic_orbit
    q0, v0 = (float(c) for c in res.initial_state)
    end = verification._flow(V, TWO_PI, res.initial_state)[-1]
    assert np.max(np.abs(end - _rk4_quartic_end_state(TWO_PI, q0, v0))) <= 1e-11


def test_stacked_flow_rows_match_single_row_flows(quartic_orbit):
    V, res = quartic_orbit
    x = res.initial_state
    batch = np.vstack([x, x + 1e-7 * np.eye(2), [0.4, -0.3], [2.0, 1.0]])
    stacked = verification._flow(V, TWO_PI, batch)[-1]
    for row, end in zip(batch, stacked):
        assert np.max(np.abs(end - verification._flow(V, TWO_PI, row)[-1])) <= 1e-11


def _counting(model):
    """model with its gradient calls counted in calls[0]."""
    calls = [0]

    def gradient(x):
        calls[0] += 1
        return model.gradients[0](x)

    return PotentialModel.smooth(model.values[0], gradient, model.dim), calls


def _scipy_flow(model, T, y0, t_eval=None):
    """The flow of _flow as scipy's solve_ivp integrates it."""
    n, y0 = model.dim, np.asarray(y0, dtype=float)

    def rhs(_t, y):
        y = y.reshape(-1, 2 * n)
        return np.concatenate([y[:, n:], -model.gradients[0](y[:, :n])], axis=1).ravel()

    sol = solve_ivp(rhs, (0.0, T), y0.ravel(), method="DOP853", t_eval=t_eval,
                    rtol=verification.FLOW_TOL, atol=verification.FLOW_TOL)
    return sol, sol.y.T.reshape((-1,) + y0.shape) if sol.status == 0 else None


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("T", [0.7, TWO_PI, 5.5])
@pytest.mark.parametrize("nodes", [None, "fit", 37])
@pytest.mark.parametrize("stacked", [False, True])
def test_flow_equals_solve_ivp_step_for_step(n, T, nodes, stacked):
    # The in-tree DOP853 takes scipy's steps: the same bits at every node
    # (fit nodes end on T, a step boundary) and the same gradient calls.
    model, calls = _counting(make_quartic(n))
    y0 = np.random.default_rng(n).uniform(-1.5, 1.5, 2 * n)
    if stacked:
        y0 = np.vstack([y0, y0 + 1e-7 * np.eye(2 * n), np.full(2 * n, 0.3)])
    t_eval = {None: None, "fit": np.append(T * np.arange(verification.FIT_SAMPLES)
                                           / verification.FIT_SAMPLES, T),
              37: np.sort(np.random.default_rng(7).uniform(0.0, T, 37))}[nodes]
    ours = verification._flow(model, T, y0, t_eval=t_eval)
    ours_calls, calls[0] = calls[0], 0
    sol, ref = _scipy_flow(model, T, y0, t_eval)
    assert ours.shape == ref.shape
    assert np.array_equal(ours, ref)
    assert ours_calls == sol.nfev == calls[0]


def test_flow_fails_where_solve_ivp_fails():
    # The gradient is NaN beyond |q| = 2, where the repelled orbit goes:
    # every step is rejected until it falls below the minimum length.
    def gradient(x):
        return np.where(np.linalg.norm(x, axis=-1, keepdims=True) > 2.0, np.nan, -x)

    model = PotentialModel.smooth(lambda x: -0.5 * np.sum(x * x, axis=-1), gradient, 1)
    sol, _ = _scipy_flow(model, 5.0, [1.0, 1.0])
    assert sol.status == -1
    with pytest.raises(OracleFailure, match="step below"):
        verification._flow(model, 5.0, [1.0, 1.0])


def test_oracle_stops_on_the_truncation_floor(quartic_orbit, monkeypatch):
    # Below the flow's own floor no step lowers the residual; the damping
    # search ends once the step is shorter than the flow's tolerance
    # instead of running all 25 ever more damped flows.
    V, res = quartic_orbit
    scale = 1.0 + float(np.linalg.norm(res.initial_state))
    flows = _count_flows(monkeypatch)
    again = shooting_oracle(V, TWO_PI, res.initial_state, K=64,
                            tol=1e-3 * res.closure_residual / scale)
    assert again.closure_residual <= res.closure_residual < 1e-6 * scale
    assert len(flows) <= 12


def test_oracle_gives_up_on_a_fast_guess_after_one_flow(monkeypatch):
    # [40, 2] oscillates about 34 times per period: the flow from the guess
    # runs past its gradient-call budget before any Newton step.
    flows = _count_flows(monkeypatch)
    with pytest.raises(OracleFailure, match="gradient calls"):
        shooting_oracle(make_quartic(1), TWO_PI, [40.0, 2.0], K=8, max_newton=4)
    assert len(flows) == 1


@pytest.mark.parametrize("nudge, newton_iters, n_flows", [(0.0, 0, 1), (1e-6, 1, 3)])
def test_oracle_fits_the_flow_that_closed_the_orbit(quartic_orbit, monkeypatch,
                                                     nudge, newton_iters, n_flows):
    # A closed guess flows once; one Newton step flows the guess, the
    # Jacobian batch and the accepted trial.  No flow re-samples the orbit.
    V, res = quartic_orbit
    flows = _count_flows(monkeypatch)
    again = shooting_oracle(V, TWO_PI, res.initial_state + [nudge, 0.0], K=64)
    assert (again.newton_iters, len(flows)) == (newton_iters, n_flows)


def test_oracle_trial_rows_get_the_bits_of_one_row_calls(quartic_orbit, monkeypatch):
    # newton_steps evaluates a chunk of step lengths in one residual call;
    # the oracle flows each trial row alone, so two rows in one call get
    # the closure residuals and fit samples of two one-row calls.
    V, res = quartic_orbit
    residuals = []

    def spy(x, R, residual, *args, **kwargs):
        residuals.append(residual)
        return newton_steps(x, R, residual, *args, **kwargs)

    monkeypatch.setattr(verification, "newton_steps", spy)
    shooting_oracle(V, TWO_PI, res.initial_state + [1e-6, 0.0], K=64)
    states = res.initial_state + np.array([[1e-6, 0.0], [0.0, -1e-4]])
    both, both_samples = residuals[0](states)
    for i in range(2):
        one, one_samples = residuals[0](states[i:i + 1])
        assert np.array_equal(both[i], one[0])
        assert np.array_equal(both_samples[i], one_samples[0])


def _reflowing_oracle(*args, **kwargs):
    """shooting_oracle with the closure and the fit samples on separate
    flows: each end state from a plain flow, and the fit nodes from a
    second flow of the same state with t_eval = nodes."""
    flow = verification._flow

    def split_flow(model, T, y0, t_eval=None):
        if t_eval is None:
            return flow(model, T, y0)
        return np.concatenate([flow(model, T, y0, t_eval=t_eval[:-1]),
                               flow(model, T, y0)[-1:]])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_flow", split_flow)
        return shooting_oracle(*args, **kwargs)


def _quartic_guess(T, stretch):
    return [stretch * quartic_period(1.0) / T, 0.0]    # P(A) = P(1) / A


@pytest.mark.parametrize("T, guess, K", [
    (TWO_PI, [1.18, 0.0], 64), (3.5, _quartic_guess(3.5, 1.01), 32),
    (5.5, _quartic_guess(5.5, 0.98), 64), (8.5, _quartic_guess(8.5, 1.0), 128),
    (6.0, [0.3, 0.2], 64)])
def test_oracle_equals_a_reflow_of_the_accepted_state(T, guess, K):
    V = make_quartic(1)
    res, ref = shooting_oracle(V, T, guess, K=K), _reflowing_oracle(V, T, guess, K=K)
    assert np.array_equal(res.trajectory.coefficients(), ref.trajectory.coefficients())
    assert (res.closure_residual, res.fit_residual, res.newton_iters) == \
        (ref.closure_residual, ref.fit_residual, ref.newton_iters)
    assert np.array_equal(res.initial_state, ref.initial_state)


def test_oracle_failure_on_bad_guess():
    V = make_quartic(1)
    with pytest.raises(OracleFailure):
        shooting_oracle(V, TWO_PI, [40.0, 2.0], K=8, max_newton=4)


def test_a_singular_oracle_system_is_an_oracle_failure(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", singular)
    with pytest.raises(OracleFailure, match="after 0 iterations"):
        shooting_oracle(make_quartic(1), TWO_PI, [1.18, 0.0], K=16)


def test_oracle_rejects_nonsmooth_models():
    with pytest.raises(ValueError, match="smooth"):
        shooting_oracle(make_maxpair(1), 1.0, [1.0, 0.0])


@pytest.mark.parametrize("guess", [[np.nan, 0.0], [1.0, np.inf]])
def test_oracle_rejects_non_finite_guess(guess):
    with pytest.raises(ValueError, match="initial_guess"):
        shooting_oracle(make_quartic(1), TWO_PI, guess)
