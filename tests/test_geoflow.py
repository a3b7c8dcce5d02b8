"""Zero-energy Hamiltonian flow, two-point shooting, and Jacobi data.

The constant-potential checks are exact: orbits are straight lines with
|p| = sqrt(1 - E^2), so flight time, distance, and the bordered
determinant all have closed forms.
"""

import math
import signal
from operator import mul

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from diracgreen import dop853, geoflow, oracle1d
from diracgreen.clifford import DomainError, build_dirac_rep
from diracgreen.cli import ConfigError, RunConfig
from diracgreen.dop853 import TIGHT, UNDERFLOW, OdeOpts, solve_lanes
from diracgreen.geoflow import (BALL, CHART_ESCAPE, CONVERGED, ITER_LIMIT, LOOSE, MAX_ITER,
                                NEWTON_TOL, POLISH_TOL, RETIRE_RADIUS, STALL,
                                ConjugatePointError, ShootingError,
                                _fan_starts, _flow_one, _newton, _var_index,
                                bordered_determinant, det_exp_prime,
                                integrate_flow, shoot_geodesic)
from diracgreen.selfcheck import (agmon_distance_quadrature_1d, bessel_K_oracle,
                                  exp_inverse_from_geodesic, exp_map_oracle, exp_prime_fd)
from diracgreen.kernel import (bessel_K, constant_V_exact, leading_kernel_1d,
                               leading_kernel_multid, ratio_sweep)
from diracgreen.potential import PotentialModel, make_potential

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}
COSINE = {"base": -0.55, "depth": 0.35, "radius": 2.5}


def constant_model(dim, value=-0.6):
    return make_potential(dim, "constant", {"value": value})


def bump_model(dim):
    return make_potential(dim, "bump_well", BUMP)


# ---------------------------------------------------------------- flow basics

def test_phase_point_validation():
    """The flow refuses a start with |p| >= 1 or with x and p of unequal length."""
    m = constant_model(2)
    with pytest.raises(DomainError, match=r"phase point requires \|p\| < 1"):
        integrate_flow(m, np.zeros(2), np.array([1.0, 0.5]), 0.3)
    with pytest.raises(DomainError, match="position and momentum must have equal length"):
        integrate_flow(m, np.zeros(2), np.zeros(3), 0.3)


def test_flow_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        integrate_flow(constant_model(1), [0.0], [0.5], 0.0)


def test_flow_stops_at_momentum_ball_boundary():
    # |p| inside the guard band: the start check must refuse
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    with pytest.raises(DomainError):
        integrate_flow(m, [0.0], [math.sqrt(1.0 - 5e-13)], 5.0)


def test_constant_flow_closed_form():
    """Straight-line orbit at E = -0.6: speed 4/3, action rate 16/15."""
    m = constant_model(3)
    traj = integrate_flow(m, [-0.5, 0.0, 0.0], [0.8, 0.0, 0.0], 0.75)
    np.testing.assert_allclose(traj.x_end, [0.5, 0.0, 0.0], atol=1e-12)
    x_half, p_half = traj.phase(0.375)
    np.testing.assert_allclose(x_half, [0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(p_half, [0.8, 0.0, 0.0], atol=1e-13)
    assert traj.action_end == pytest.approx(0.8, abs=1e-12)
    half = integrate_flow(m, [-0.5, 0.0, 0.0], [0.8, 0.0, 0.0], 0.375)
    assert half.action_end == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(traj.velocity(0.2), [4.0 / 3.0, 0.0, 0.0], atol=1e-12)
    assert traj.hamiltonian_sup() <= 1e-12


def test_trajectory_end_velocities_are_its_velocity_reads():
    """v_start and v_end, taken from p_start and p_end, equal velocity(0) and velocity(tau)
    bit for bit."""
    traj = integrate_flow(bump_model(3), [-1.0, -0.3, 0.2], [0.5, 0.3, -0.1], 1.7)
    assert np.array_equal(traj.v_start, traj.velocity(0.0))
    assert np.array_equal(traj.v_end, traj.velocity(traj.tau))


def test_constant_flow_jacobi_blocks():
    # dpX(t) = t (I/w + p p^T / w^3), dpP(t) = I for a constant potential
    m = constant_model(3)
    traj = integrate_flow(m, [-0.5, 0.0, 0.0], [0.8, 0.0, 0.0], 0.75)
    dpx = traj.dp_x(0.75)
    np.testing.assert_allclose(np.diag(dpx), [125.0 / 36.0, 1.25, 1.25], rtol=1e-12)
    assert np.max(np.abs(dpx - np.diag(np.diag(dpx)))) <= 1e-12
    dpp = traj.sol(0.75)[_var_index(3) + 9:].reshape(3, 3)
    np.testing.assert_allclose(dpp, np.eye(3), atol=1e-12)


def test_energy_diagnostic_keeps_the_domain_checks():
    """hamiltonian_sup raises where hamiltonian does: |p| >= 1."""
    m = constant_model(2)
    traj = integrate_flow(m, [0.0, 0.0], [0.5, 0.0], 0.3)
    state = np.array([0.0, 0.0, 0.6, 0.8, 0.0])
    traj.sol = lambda t: np.multiply.outer(state, np.ones_like(t))
    with pytest.raises(DomainError):
        traj.hamiltonian_sup()


# ------------------------------------------------------------------- shooting

def test_free_shot_frozen_values_3d():
    m = constant_model(3)
    geo = shoot_geodesic(m, [-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    assert geo.tau == pytest.approx(0.75, abs=1e-10)
    assert geo.agmon == pytest.approx(0.8, abs=1e-10)
    np.testing.assert_allclose(geo.p0, [0.8, 0.0, 0.0], atol=1e-10)
    assert geo.bordered_det == pytest.approx(25.0 / 9.0, rel=1e-9)
    assert geo.det_exp_prime == pytest.approx(1.0, abs=1e-8)
    assert geo.uniqueness["n_starts"] == 26
    assert geo.uniqueness["n_distinct"] == 1
    assert not geo.uniqueness["multiple"]


def test_free_shot_frozen_values_2d():
    geo = shoot_geodesic(constant_model(2), [-0.5, 0.0], [0.5, 0.0])
    assert geo.bordered_det == pytest.approx(20.0 / 9.0, rel=1e-9)
    assert geo.det_exp_prime == pytest.approx(1.0, abs=1e-8)
    assert geo.trajectory.hamiltonian_sup() <= 1e-10


def test_shot_residual_and_momentum_shell(d2_bump_fan):
    m = bump_model(2)
    y, x = np.array([-1.0, -0.3]), np.array([1.0, 0.4])
    geo = d2_bump_fan
    assert np.max(np.abs(geo.trajectory.x_end - x)) <= 1e-9
    vy = m.value(y)
    assert np.linalg.norm(geo.p0) == pytest.approx(math.sqrt(1.0 - vy * vy), abs=1e-10)
    assert geo.trajectory.hamiltonian_sup() <= 1e-10


def test_identical_endpoints_rejected():
    with pytest.raises(DomainError):
        shoot_geodesic(constant_model(2), [0.5, 0.0], [0.5, 0.0])


def test_shooting_failure_is_reported(monkeypatch):
    monkeypatch.setattr(geoflow, "MAX_ITER", 1)
    with pytest.raises(ShootingError):
        shoot_geodesic(bump_model(1), [-1.0], [1.0], multistart=2)


def test_reversal_symmetry_bump_2d(d2_bump_fan, d2_bump_fan_rev):
    fwd, rev = d2_bump_fan, d2_bump_fan_rev
    assert rev.agmon == pytest.approx(fwd.agmon, rel=1e-9)
    assert rev.tau == pytest.approx(fwd.tau, rel=1e-9)
    np.testing.assert_allclose(rev.trajectory.p_end, -fwd.p0, atol=1e-8)
    # the exponential-map determinant is endpoint symmetric by construction
    assert rev.det_exp_prime == pytest.approx(fwd.det_exp_prime, rel=1e-9)


def test_jacobi_block_matches_finite_differences(d2_bump_fan):
    """dpX(tau) against central differences of the endpoint over p0."""
    m = bump_model(2)
    geo = d2_bump_fan
    y, p0, tau = geo.y_star, geo.p0, geo.tau
    step = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        plus = integrate_flow(m, y, p0 + e, tau).x_end
        minus = integrate_flow(m, y, p0 - e, tau).x_end
        fd[:, j] = (plus - minus) / (2.0 * step)
    np.testing.assert_allclose(geo.trajectory.dp_x(tau), fd, atol=1e-6)


def test_agmon_distance_against_quadrature_1d():
    m = bump_model(1)
    geo = shoot_geodesic(m, [-1.0], [1.0])
    assert geo.agmon == pytest.approx(0.97023732588996514, rel=1e-10)
    quad_val = agmon_distance_quadrature_1d(m, -1.0, 1.0)
    assert abs(geo.agmon - quad_val) <= 1e-10
    with pytest.raises(DomainError):
        agmon_distance_quadrature_1d(bump_model(2), -1.0, 1.0)


def test_agmon_distance_tanh_frozen():
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    geo = shoot_geodesic(m, [-1.0], [1.0])
    assert geo.agmon == pytest.approx(1.7171618705311922, rel=1e-10)
    assert abs(geo.agmon - agmon_distance_quadrature_1d(m, -1.0, 1.0)) <= 1e-10


def test_phase_integral_closed_form_1d():
    # theta = int V'/(2V) dt along the orbit is (asin V(y) - asin V(x))/2 whenever H = 0
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    traj = shoot_geodesic(m, [-1.0], [1.0]).trajectory

    def integrand(t):
        v, grad, _ = m.evaluate(traj.phase(t)[0])
        return grad[0] / (2.0 * v)

    theta, _ = quad(integrand, 0.0, traj.tau, epsabs=1e-13, epsrel=1e-12, limit=200)
    expected = 0.5 * (math.asin(m.value([-1.0])) - math.asin(m.value([1.0])))
    assert theta == pytest.approx(expected, abs=1e-10)


# ------------------------------------------------------------------ lane fan

# the CONFIGS pairs of the acceptance gate
FAN_PAIRS = [
    (1, "bump_well", BUMP, [-1.0], [1.0]),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2}, [-1.2], [0.8]),
    (1, "cosine_well", COSINE, [-1.0], [1.3]),
    (2, "bump_well", BUMP, [-1.0, -0.3], [1.0, 0.4]),
    (2, "cosine_well", COSINE, [-1.2, 0.2], [0.9, -0.4]),
    (2, "bump_well", BUMP, [-0.8, 0.7], [1.1, 0.3]),
    (3, "bump_well", BUMP, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
    (3, "cosine_well", COSINE, [-1.1, 0.3, -0.2], [0.9, -0.3, 0.3]),
    (3, "bump_well", BUMP, [-0.9, 0.5, 0.1], [1.0, 0.2, -0.4]),
]
# the d = 3 cosine across its flat stretch
COSINE_FLAT = (3, "cosine_well", COSINE, [-3.1, 0.3, -0.2], [2.9, -0.3, 0.3])


@pytest.mark.parametrize("dim,kind,params,y,x,count",
                         [(*p, None) for p in FAN_PAIRS] + [(*COSINE_FLAT, 7)],
                         ids=[f"d{p[0]}-{p[1]}-{i % 3}" for i, p in enumerate(FAN_PAIRS)]
                         + ["d3-cosine_well-flat"])
def test_lane_fan_matches_single_start_shots(dim, kind, params, y, x, count):
    """The lane fan converges on the starts one shot per start does, to the same p0.

    A fan root is certified at NEWTON_TOL, so its p0 lies within 1e-6 of the lone
    start's; polished, as shoot_geodesic polishes it, its p0 is the lone start's within
    1e-13.  On the first 7 starts of the d = 3 cosine's fan across its flat stretch, a
    retirement radius of 2e-1 or more (0.5 and 3 checked too) retires start 6 into the
    root although alone it ends in a chart escape.
    """
    m = make_potential(dim, kind, params)
    y, x = np.array(y), np.array(x)
    starts, tau0 = _fan_starts(m, y, x, count)
    outcomes, ends = _newton(m, y, x, starts, tau0)
    assert CONVERGED in outcomes
    polished = {}   # id of a fan _End -> the _End of its polish
    for n, outcome, end in zip(starts, outcomes, ends):
        [alone], [single] = _newton(m, y, x, [n], tau0)
        assert (outcome == CONVERGED) == (alone == CONVERGED)
        if end is not None:
            assert np.max(np.abs(end.p0 - single.p0)) < 1e-6
            if id(end) not in polished:
                direction = end.p0 / np.linalg.norm(end.p0)
                [_], [polished[id(end)]] = _newton(m, y, x, [direction], end.tau, polish=True)
            np.testing.assert_allclose(polished[id(end)].p0, single.p0, rtol=0.0, atol=1e-13)


D1_PAIRS = [row for row in FAN_PAIRS if row[0] == 1]


@pytest.mark.parametrize("dim,kind,params,y,x", D1_PAIRS, ids=[p[1] for p in D1_PAIRS])
def test_d1_fan_is_the_one_start_toward_x_star(dim, kind, params, y, x, monkeypatch):
    """p keeps its sign on H = 0, so the d = 1 fan is one start, shot without lanes."""
    m = make_potential(dim, kind, params)
    y, x = np.array(y), np.array(x)
    toward = np.sign(x - y)
    for count in (None, 2):
        starts, tau0 = _fan_starts(m, y, x, count)
        assert len(starts) == 1 and np.array_equal(starts[0], toward)
    single = shoot_geodesic(m, y, x, multistart=1)
    lane_calls = []
    dop853_lanes = geoflow.solve_lanes

    def spy(*args):
        lane_calls.append(args)
        return dop853_lanes(*args)

    monkeypatch.setattr(geoflow, "solve_lanes", spy)
    geo = shoot_geodesic(m, y, x)
    assert lane_calls == []
    assert geo.uniqueness["n_starts"] == 1
    assert (geo.agmon, geo.tau, geo.bordered_det) == (single.agmon, single.tau,
                                                      single.bordered_det)
    assert np.array_equal(geo.p0, single.p0)
    # the dropped start, shot alone, never connects
    [outcome], [end] = _newton(m, y, x, [-toward], tau0)
    assert outcome != CONVERGED and end is None


class _Fenced(PotentialModel):
    """A model whose V and derivatives are NaN past |x|_inf = 6: no step may end there."""

    def terms(self, x):
        if max(map(abs, x)) <= 6.0:
            return super().terms(x)
        return math.nan, [math.nan] * self.dim, math.nan, math.nan, math.nan

    def terms_many(self, xs):
        out = ~(np.abs(xs).max(axis=1) <= 6.0)
        rows = super().terms_many(xs)
        for a in rows:
            a[out] = math.nan
        return rows


def test_lane_running_into_nan_underflows_alone(monkeypatch):
    """Behind a NaN fence at |x|_inf = 6 two d=2 starts underflow; the rest converge as
    without the fence."""
    y, x = np.array([-1.0, -0.3]), np.array([1.0, 0.4])
    starts, tau0 = _fan_starts(bump_model(2), y, x, None)
    _, free_ends = _newton(bump_model(2), y, x, starts, tau0)
    runs, ended = [], []   # the lane runs, and (lane, reason) of each end in order
    dop853_lanes = geoflow.solve_lanes

    def recording(fun, y0, rtol, atol, restart):
        def hook(k, y_end, reason):
            ended.append((k, reason))
            return restart(k, y_end, reason)
        runs.append(len(y0))
        return dop853_lanes(fun, y0, rtol, atol, hook)

    monkeypatch.setattr(geoflow, "solve_lanes", recording)
    outcomes, ends = _newton(_Fenced(2, "bump_well", BUMP), y, x, starts, tau0)
    assert outcomes.count(UNDERFLOW) == 2 and runs == [len(starts)]
    # the two fenced lanes stop once each, on UNDERFLOW; every other iterate reaches s = 1
    assert sorted(k for k, reason in ended if reason) == [
        k for k, outcome in enumerate(outcomes) if outcome == UNDERFLOW]
    assert {reason for _, reason in ended} == {"", UNDERFLOW}
    # a lane's numbers never depend on the other lanes
    for end, free in zip(ends, free_ends):
        assert (end is None) == (free is None)
        if end is not None:
            assert np.array_equal(end.p0, free.p0)


def test_single_start_running_into_nan_matches_the_lanes():
    """Behind a NaN fence at |x|_inf = 6 each d=2 start, shot alone, ends as it does in the fan."""
    y, x = np.array([-1.0, -0.3]), np.array([1.0, 0.4])
    fenced = _Fenced(2, "bump_well", BUMP)
    starts, tau0 = _fan_starts(fenced, y, x, None)
    fan, _ = _newton(fenced, y, x, starts, tau0)
    assert fan == [CONVERGED] * 5 + [UNDERFLOW, CHART_ESCAPE, UNDERFLOW]
    assert [_newton(fenced, y, x, [n], tau0)[0][0] for n in starts] == fan


@pytest.mark.parametrize("value", [0.6, 0.0, -1.2])
def test_a_well_outside_the_gap_is_a_domain_error(value):
    """V outside (-1, 0) at y* names the point and the value, not a failed start."""
    m = constant_model(2, value)
    with pytest.raises(DomainError, match=rf"^V = {value!r} at the start \[-0\.5, 0\.0\] lies "
                                          r"outside the gap \(-1, 0\)$"):
        shoot_geodesic(m, [-0.5, 0.0], [0.5, 0.0])


def test_a_midpoint_outside_the_gap_is_a_domain_error():
    """V at the midpoint, which the flight-time guess reads, must lie in the gap too."""
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.7, "radius": 2.0})
    with pytest.raises(DomainError, match=r"^V = .+ at the midpoint \[0\.0, 0\.0\] lies outside"):
        shoot_geodesic(m, [-3.0, 0.0], [3.0, 0.0])


# every FAN_PAIRS family in the dimensions it is shot in, and a d = 4 bump
RHS_MODELS = sorted({(dim, kind) for dim, kind, *_ in FAN_PAIRS}) + [(4, "bump_well")]
_PARAMS = {"bump_well": BUMP, "cosine_well": COSINE, "tanh_step": {"base": -0.5, "amp": 0.2},
           "constant": {"value": -0.6}}


def _flow_states(d, n, seed):
    """n seeded flow states: x near the well, |p| < 0.95, random Jacobi blocks."""
    rng = np.random.default_rng(seed)
    ys = rng.normal(size=(n, _var_index(d) + 2 * d * d))
    ys[:, :d] = rng.uniform(-2.2, 2.2, size=(n, d))
    p = rng.normal(size=(n, d))
    ys[:, d:2 * d] = p * (rng.uniform(0.0, 0.95, n) / np.linalg.norm(p, axis=1))[:, None]
    return ys


def _reference_flow_rhs(model):
    """The flow's right-hand side as index comprehensions over slices of the state: the
    reference that the generated _flow_rhs equals bit for bit."""
    d = model.dim
    i_var = _var_index(d)
    dd = d * d
    terms = model.terms

    def rhs(t, y):
        ys = y.tolist()
        x, p = ys[:d], ys[d:2 * d]
        p2 = math.fsum(map(mul, p, p))
        w = math.sqrt(1.0 - p2) if p2 < BALL else math.nan
        _, r, gamma, alpha, beta = terms(x)
        dpx, dpp = ys[i_var:i_var + dd], ys[i_var + dd:]
        w3 = w ** 3
        # row i of p (p^T dpP) / w^3 is p_i q and row i of beta r (r^T dpX) is b_i s
        q = [math.fsum(map(mul, p, dpp[j::d])) / w3 for j in range(d)]
        s = [math.fsum(map(mul, r, dpx[j::d])) for j in range(d)]
        b = [beta * c for c in r]
        return np.array([c / w for c in p] + [gamma * c for c in r] + [p2 / w]
                        + [dpp[i * d + j] / w + p[i] * q[j] for i in range(d) for j in range(d)]
                        + [alpha * dpx[i * d + j] + b[i] * s[j]
                           for i in range(d) for j in range(d)])

    return rhs


def _past_ball(d):
    """The momenta of test_flow_rhs_is_nan_past_the_ball padded with zeros: on the sphere,
    past BALL and outside it (in d = 1: 1, 1 - 1e-13 and 1.2)."""
    ps = [[0.6, 0.8], [1.0 - 1e-13, 0.0], [0.8, 0.8]] if d > 1 else [[1.0], [1.0 - 1e-13], [1.2]]
    return [p + [0.0] * (d - len(p)) for p in ps]


REFERENCE_MODELS = [(d, k) for d in (1, 2, 3, 4, 9, 12)
                    for k in ("bump_well", "cosine_well", "constant")] + [(1, "tanh_step")]


@pytest.mark.parametrize("dim,kind", REFERENCE_MODELS,
                         ids=[f"d{d}-{k}" for d, k in REFERENCE_MODELS])
def test_flow_rhs_is_the_reference_bit_for_bit(dim, kind):
    """The generated right-hand side equals the comprehensions bit for bit, sign bits and NaN
    included: on seeded states, past the ball and at a NaN coordinate."""
    m = make_potential(dim, kind, _PARAMS[kind])
    lone, ref = geoflow._flow_rhs(m), _reference_flow_rhs(m)
    ys = list(_flow_states(dim, 50, 7))
    for p in _past_ball(dim):
        ys.append(ys[0].copy())
        ys[-1][dim:2 * dim] = p
    ys.append(ys[1].copy())
    ys[-1][0] = math.nan
    for y in ys:
        got, want = lone(0.0, y), ref(0.0, y)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("column", [(math.inf, -math.inf), (1.7e308, 1.7e308)],
                         ids=["inf-minus-inf", "overflow"])
def test_flow_rhs_is_not_finite_where_its_sums_raise(column):
    """A dpP column whose sum p^T dpP meets inf - inf, or overflows, gives a non-finite
    right-hand side, as a lane row does, and raises nothing.

    math.fsum raises ValueError and OverflowError on these two; a trial stage that
    reaches either must get its step rejected, not end the solve in a traceback.
    """
    m = bump_model(2)
    y = geoflow._initial_state(np.array([-1.0, -0.3]), np.array([0.6, 0.792]))
    i_dpp = geoflow._var_index(2) + 4
    y[[i_dpp, i_dpp + 2]] = column
    assert not np.all(np.isfinite(geoflow._flow_rhs(m)(0.0, y)))
    with np.errstate(invalid="ignore", over="ignore"):
        row = geoflow._lane_rhs(m, np.ones(1))(y[None, :], np.zeros(1, dtype=int))
    assert not np.all(np.isfinite(row))


def test_flow_rhs_compiles_once_per_dimension():
    """Models of one d share the one compiled body; another d has its own."""
    bump, cosine = (geoflow._flow_rhs(make_potential(3, k, _PARAMS[k]))
                    for k in ("bump_well", "cosine_well"))
    assert bump.__code__ is cosine.__code__
    assert geoflow._flow_rhs(bump_model(2)).__code__ is not bump.__code__


@pytest.mark.parametrize("dim,kind", RHS_MODELS, ids=[f"d{d}-{k}-jacobi" for d, k in RHS_MODELS])
def test_lone_flow_rhs_matches_a_lane_row(dim, kind):
    """The float right-hand side equals the batched one on a row at tau = 1, Jacobi blocks
    included, within 16 ulp of the row's largest entry."""
    m = make_potential(dim, kind, _PARAMS[kind])
    lone, lane = geoflow._flow_rhs(m), geoflow._lane_rhs(m, np.ones(1))
    for y in _flow_states(dim, 50, 3):
        want = lane(y[None, :], np.zeros(1, dtype=int))[0]
        got = lone(0.0, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 16.0 * np.finfo(float).eps * np.max(np.abs(want))


def test_flow_rhs_is_nan_past_the_ball():
    """Past the ball both right-hand sides give NaN where they read w, with no warning (the
    suite makes warnings errors); far out they stay finite, and a NaN coordinate gives a NaN
    grad V."""
    m = make_potential(2, "bump_well", BUMP)
    lone, lane = geoflow._flow_rhs(m), geoflow._lane_rhs(m, np.ones(3))
    ys = _flow_states(2, 3, 4)
    ys[0, 2:4] = [0.6, 0.8]                       # on the sphere |p| = 1
    ys[1, 2:4] = [1.0 - 1e-13, 0.0]               # |p|^2 = 1 - 2e-13, past BALL
    ys[2, 2:4] = [0.8, 0.8]                       # outside it
    assert ys[1, 2] ** 2 >= BALL
    reads_w = np.r_[0:2, 4:9]                     # x', the action rate and dpX'
    for y, row in zip(ys, lane(ys, np.arange(3))):
        got = lone(0.0, y)
        assert np.isnan(got[reads_w]).all() and np.isnan(row[reads_w]).all()
        assert np.isfinite(got[2:4]).all() and np.isfinite(row[2:4]).all()
    y = ys[0].copy()
    y[2:4] = [0.3, 0.0]
    y[:2] = [0.5, -1e100]
    assert np.isfinite(lone(0.0, y)).all()
    y[:2] = [math.nan, 0.5]
    assert np.isnan(lone(0.0, y)[2:4]).all()   # grad V at a NaN point


READ_PAIRS = [FAN_PAIRS[1], FAN_PAIRS[4], FAN_PAIRS[6]]


@pytest.mark.parametrize("dim,kind,params,y,x", READ_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}" for p in READ_PAIRS])
def test_phase_at_is_phase_bit_for_bit(dim, kind, params, y, x):
    """The float read of the orbit equals phase(t) at 0, tau, every step end and between."""
    m = make_potential(dim, kind, params)
    traj = shoot_geodesic(m, y, x, multistart=1).trajectory
    ts = traj.sol.ts
    times = np.concatenate([[0.0, traj.tau], ts, 0.5 * (ts[1:] + ts[:-1]),
                            np.linspace(0.0, traj.tau, 101)])
    for t in times.tolist():
        x_t, p_t = traj.phase(t)
        x_f, p_f = traj.phase_at(t)
        assert all(type(c) is float for c in x_f + p_f)
        assert np.array_equal(x_f, x_t) and np.array_equal(p_f, p_t)
        assert traj.position_at(t) == x_f


@pytest.mark.parametrize("opts", [OdeOpts(), TIGHT], ids=["fan", "tight"])
@pytest.mark.parametrize("dim,kind,params,y,x", FAN_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}-{i % 3}" for i, p in enumerate(FAN_PAIRS)])
def test_end_state_matches_the_dense_trajectory(dim, kind, params, y, x, opts):
    """A lone Newton iterate without dense output ends where the dense Trajectory does."""
    m = make_potential(dim, kind, params)
    y, x = np.array(y), np.array(x)
    [n], tau0 = _fan_starts(m, y, x, 1)
    p0 = math.sqrt(1.0 - m.value(y) ** 2) * n
    end = _flow_one(m, y, p0, tau0, opts, False)
    assert end.traj is None
    traj = integrate_flow(m, y, p0, tau0, opts)
    for got, want in ((end.x, traj.x_end), (end.v, traj.v_end),
                      (end.dpx, traj.dp_x(traj.tau)), (end.p0, traj.p_start)):
        assert np.all(got == want)
    assert (end.tau, end.action) == (traj.tau, traj.action_end)


def _retire(k, y_end, reason):
    """solve_lanes' restart hook that retires every lane at its first end."""
    return None


def _fenced_decay(rates, calls=None, fence=math.nan):
    """dy/ds = -rate y per lane, fence on lane 1 once y < 0.5: that lane's steps shrink there."""
    def fenced(y, rows):
        if calls is not None:
            calls.append(rows.copy())
        dy = -rates[rows, None] * y
        dy[(rows == 1) & (y[:, 0] < 0.5)] = fence
        return dy
    return fenced


def test_dop853_lanes_follow_scipy_lane_by_lane():
    """Each lane takes scipy's DOP853 steps; a lane running into NaN underflows alone."""
    rates = np.array([0.5, 1.0, 3.0, 10.0])

    def decay(y, rows):
        return -rates[rows, None] * y

    y_end, why = solve_lanes(decay, np.ones((4, 2)), 1e-10, 1e-12, _retire)
    assert list(why) == [""] * 4
    for k, rate in enumerate(rates):
        ref = solve_ivp(lambda t, y: -rate * y, (0.0, 1.0), np.ones(2), method="DOP853",
                        rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(y_end[k], ref.y[:, -1], rtol=1e-14)
        np.testing.assert_allclose(y_end[k], np.exp(-rate), rtol=1e-9, atol=1e-11)

    fenced_end, why = solve_lanes(_fenced_decay(rates), np.ones((4, 2)), 1e-10, 1e-12, _retire)
    assert list(why) == ["", UNDERFLOW, "", ""]
    assert 0.5 <= fenced_end[1, 0] < 0.5 + 1e-9
    np.testing.assert_allclose(fenced_end[[0, 2, 3]], y_end[[0, 2, 3]], rtol=1e-13)


def test_dop853_lanes_reject_an_infinite_stage_quietly():
    """A lane whose RHS is +inf past a point underflows there without a numpy warning.

    Its stages' sums meet inf * 0 and inf - inf; the other lanes end where
    an unfenced run ends, bit for bit.
    """
    rates = np.array([0.5, 1.0, 3.0, 10.0])

    def decay(y, rows):
        return -rates[rows, None] * y

    free_end, _ = solve_lanes(decay, np.ones((4, 2)), 1e-10, 1e-12, _retire)
    fenced_end, why = solve_lanes(_fenced_decay(rates, fence=math.inf), np.ones((4, 2)),
                                  1e-10, 1e-12, _retire)
    assert list(why) == ["", UNDERFLOW, "", ""]
    assert np.array_equal(fenced_end[[0, 2, 3]], free_end[[0, 2, 3]])


def _walled(t, y):
    """y' = -y, but +inf for t in [1, 1.5]: no step passes the wall, and they underflow at it."""
    return [math.inf] if 1.0 <= t <= 1.5 else [-y[0]]


def test_lean_solve_ivp_rejects_an_infinite_stage_quietly():
    """solve_ivp stops at the wall without a numpy warning, with scipy's status and nfev."""
    got = dop853.solve_ivp(_walled, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    assert (got.status, got.nfev) == (-1, 998)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_ivp(_walled, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10, atol=1e-12)
    assert (got.status, got.nfev) == (ref.status, ref.nfev)
    assert np.array_equal(got.y, ref.y)


def _pendulum(t, y):
    return [y[1], -math.sin(y[0]) * (1.0 + 0.3 * t)]


_bump_flow = geoflow._flow_rhs(bump_model(2))


def _blowup(t, y):
    return [y[0] * y[0]]


def _decay(t, y):
    return -np.asarray(y)


def _precession(t, y):
    return 1j * np.array([[0.2, 1.0 + t], [1.0 + t, -0.5]]) @ y


def _reads_of_a_backward_solve():
    """Times that read the pendulum's dense solve over (3, -2) at scipy's own steps.

    Every step end as a float, times past both ends of the span, the ends
    and midpoints with those two as an unsorted array, and a descending
    array across the span and past it.
    """
    ends = solve_ivp(_pendulum, (3.0, -2.0), [0.3, 1.2], method="DOP853", rtol=1e-10,
                     atol=1e-12, dense_output=True).sol.ts
    times = np.r_[ends, 0.5 * (ends[1:] + ends[:-1]), 3.5, -2.5]
    return [*ends.tolist(), 3.5, -2.5, np.random.default_rng(0).permutation(times),
            np.linspace(3.5, -2.5, 61)]


# (fun, t_span, y0, keywords, times at which sol is compared)
LEAN_CASES = {
    # backward, with two points 1e-9 apart (so in one step) and a point at the end
    "backward_t_eval": (_pendulum, (3.0, -2.0), [0.3, 1.2],
                        dict(t_eval=[2.0, 2.0 - 1e-9, 0.5, -2.0]), None),
    # the lone Newton iterate: a forward flow read at its end alone
    "flow_t_end": (_bump_flow, (0.0, 2.1),
                   geoflow._initial_state(np.array([-1.0, -0.3]), np.array([0.7, 0.2])),
                   dict(t_eval=[2.1]), None),
    "complex_dense": (_precession, (0.0, 2.0), np.array([1.0, 0.5j]),
                      dict(dense_output=True), [0.0, 0.3, 1.7, 2.0, np.linspace(0.0, 2.0, 41)]),
    # y(t) = 1 / (1 - t) blows up at t = 1, where the step underflows (status -1)
    "step_underflow": (_blowup, (0.0, 2.0), [1.0], {}, None),
    # the segment rule backward: at every step end, past both ends, unsorted, descending
    "backward_dense": (_pendulum, (3.0, -2.0), [0.3, 1.2], dict(dense_output=True),
                       _reads_of_a_backward_solve()),
    # a zero-length span takes no step: y0 at both ends, and y0 at every time of the dense read
    "zero_span": (_decay, (1.0, 1.0), [1.0], {}, None),
    "zero_span_dense": (_decay, (1.0, 1.0), [1.0, -0.5], dict(dense_output=True),
                        [1.0, 0.5, np.array([1.0, 2.0, 0.0])]),
}


@pytest.mark.parametrize("name", list(LEAN_CASES))
def test_lean_solve_ivp_is_scipys_dop853_bit_for_bit(name):
    """y, sol(t) and nfev equal scipy's solve_ivp(method="DOP853") exactly."""
    fun, t_span, y0, extra, times = LEAN_CASES[name]
    tols = dict(rtol=1e-10, atol=1e-12)
    got = dop853.solve_ivp(fun, t_span, y0, **tols, **extra)
    ref = solve_ivp(fun, t_span, y0, method="DOP853", **tols, **extra)
    assert (got.status, got.success, got.message) == (ref.status, ref.success, ref.message)
    assert got.nfev == ref.nfev
    assert got.y.dtype == ref.y.dtype and np.array_equal(got.y, ref.y)
    for t in times or ():
        assert np.array_equal(got.sol(t), ref.sol(t))


def test_lean_solve_ivp_returns_after_its_last_t_eval_point():
    """A span past the last t_eval point only bounds the steps: the same columns, fewer calls.

    The solve stops after the step that reads the last point, so its columns
    equal scipy's bit for bit while scipy goes on to the end of the span.
    """
    tols = dict(rtol=1e-10, atol=1e-12, t_eval=[0.5, 1.0, 1.0 + 1e-9, 2.5])
    got = dop853.solve_ivp(_pendulum, (0.0, 9.0), [0.3, 1.2], **tols)
    ref = solve_ivp(_pendulum, (0.0, 9.0), [0.3, 1.2], method="DOP853", **tols)
    assert (got.status, got.success) == (0, True)
    assert np.array_equal(got.y, ref.y)
    assert got.nfev < ref.nfev


def test_lean_solve_ivp_interpolants_end_at_their_steps():
    """Each step is read against the step's own end t, which t_old + h can miss.

    Backward to 0.01 the last step is clipped at the end of the span, where
    t_old + (t - t_old) rounds away from t: the dense output's step ends are
    scipy's, and sol(t) there is scipy's bit for bit.
    """
    tols = dict(rtol=1e-10, atol=1e-12, dense_output=True)
    got = dop853.solve_ivp(_pendulum, (3.0, 0.01), [0.3, 1.2], **tols)
    ref = solve_ivp(_pendulum, (3.0, 0.01), [0.3, 1.2], method="DOP853", **tols)
    t_old, t_end = ref.sol.ts[-2:]
    assert t_old + (t_end - t_old) != t_end
    assert got.sol.ts.tolist() == ref.sol.ts.tolist()
    times = np.linspace(t_old, t_end, 11)
    assert np.array_equal(got.sol(times), ref.sol(times))


# (t_span, t_eval), each ending at the end of its span: forward, and backward with two
# points 1e-9 apart (so in one step)
FLOAT_CASES = {
    "forward": ((0.0, 10.0), [0.5, 1.0, 1.0 + 1e-9, 2.5, 10.0]),
    "backward": ((3.0, -2.0), [2.0, 2.0 - 1e-9, 0.5, -2.0]),
}


def _scaled(a, ref):
    """|a - ref| over each row's largest |ref|: a relative difference that passes through zeros."""
    return np.max(np.abs(a - ref) / np.max(np.abs(ref), axis=1, keepdims=True))


@pytest.mark.parametrize("name", list(FLOAT_CASES))
def test_float_march_is_dop853_side_by_side(name):
    """solve_floats against dop853.solve_ivp: the same nfev and steps, reads within 1e-12.

    Both read their last point at the end of the span, so they take the
    same number of steps, whose ends solve_ivp's dense output lists and the
    march's check sees.  Only their rounding differs, written-out float
    sums against numpy's.  The error estimate cancels from stages of order
    one down to the tolerance, so that rounding moves each step's end by
    up to about 3e-6 of the span; each state the march accepts lies on
    solve_ivp's solution at its own end within 1e-12.
    """
    t_span, t_eval = FLOAT_CASES[name]
    tols = dict(rtol=1e-10, atol=1e-12)
    ends = []
    got = dop853.solve_floats(_pendulum, t_span, [0.3, 1.2], t_eval=t_eval,
                              check=lambda t, y: ends.append((t, *y)), **tols)
    ref = dop853.solve_ivp(_pendulum, t_span, [0.3, 1.2], t_eval=t_eval, **tols)
    steps = dop853.solve_ivp(_pendulum, t_span, [0.3, 1.2], dense_output=True, **tols)
    assert (got.status, got.success, got.nfev) == (0, True, ref.nfev)
    assert got.y.dtype == float and got.y.shape == ref.y.shape
    assert _scaled(got.y, ref.y) <= 1e-12
    ts, ys = np.array(ends)[:, 0], np.array(ends)[:, 1:].T
    assert ts.shape == steps.sol.ts.shape
    assert np.max(np.abs(ts - steps.sol.ts)) <= 1e-5 * abs(t_span[1] - t_span[0])
    assert _scaled(ys, steps.sol(ts)) <= 1e-12


def test_float_march_stops_where_its_step_underflows():
    """y' = y^2 from y(0) = 1 blows up at t = 1: the march stops there as solve_ivp does.

    The same status -1, message and nfev, and the read before the blow-up within 1e-12.
    """
    tols = dict(rtol=1e-10, atol=1e-12, t_eval=[0.5, 1.5])
    got = dop853.solve_floats(_blowup, (0.0, 2.0), [1.0], **tols)
    ref = dop853.solve_ivp(_blowup, (0.0, 2.0), [1.0], **tols)
    assert (got.status, got.success, got.message) == (-1, False, ref.message)
    assert got.nfev == ref.nfev
    assert got.y.shape == ref.y.shape == (1, 1)
    assert _scaled(got.y, ref.y) <= 1e-12


class _Crossed(Exception):
    pass


def test_float_march_checks_each_accepted_step():
    """check sees the start and each accepted step end; a raise ends the march there.

    A check that raises at the first state with y0 >= 0.35 ends the march
    at that step: no RHS call follows it.
    """
    tols = dict(rtol=1e-10, atol=1e-12, t_eval=[10.0])
    seen = []
    dop853.solve_floats(_pendulum, (0.0, 10.0), [0.3, 1.2],
                        check=lambda t, y: seen.append((t, *y)), **tols)
    assert seen[0] == (0.0, 0.3, 1.2) and seen[-1][0] == 10.0

    calls, checked = [], []

    def counting(t, y):
        calls.append(t)
        return _pendulum(t, y)

    def stop(t, y):
        checked.append(t)
        if y[0] >= 0.35:
            raise _Crossed

    with pytest.raises(_Crossed):
        dop853.solve_floats(counting, (0.0, 10.0), [0.3, 1.2], check=stop, **tols)
    first = next(i for i, (_, y0, _) in enumerate(seen) if y0 >= 0.35)
    assert 0 < first < len(seen) - 1
    assert checked == [t for t, _, _ in seen[:first + 1]]
    # the last RHS call is the last stage of the step that ends at the crossing
    assert calls[-1] == seen[first][0]


def test_float_march_rejects_a_trial_stage_that_overflows():
    """A stage that overflows gives inf, and its step is rejected: no OverflowError, no warning.

    r' = 10 (r r - 1 - v) rests at r = -1 while v = 0, so the step grows
    tenfold per step, until a step across t = 5, where v turns 0.5, sends its
    stages past the float range.  The march then relaxes to -sqrt(1.5), and
    every accepted state is finite.
    """
    finite, accepted = [], []

    def riccati(t, y):
        r = y[0]
        out = (10.0 * (r * r - 1.0 - (0.5 if t > 5.0 else 0.0)),)
        finite.append(math.isfinite(out[0]))
        return out

    res = dop853.solve_floats(riccati, (0.0, 10.0), (-1.0,), t_eval=[10.0], rtol=1e-10,
                              atol=1e-12, check=lambda t, y: accepted.append(y[0]))
    assert res.success and not all(finite)
    assert all(map(math.isfinite, accepted))
    assert res.y[0, 0] == pytest.approx(-math.sqrt(1.5), rel=1e-9)


def test_dop853_lanes_restart_a_lane_from_the_hook():
    """A restarted lane ends where a fresh run from its new state ends in its slot, bit for
    bit, at the tolerances the hook set; a retired lane is never evaluated again."""
    rates = np.array([0.5, 1.0, 3.0, 10.0])
    calls = []   # the rows of every fun call
    fenced = _fenced_decay(rates, calls)

    rtol, atol = np.full((4, 1), 1e-10), np.full((4, 1), 1e-12)
    fresh_state = np.array([[10.0, 10.0], [10.0, 10.0], [2.0, 3.0], [1.0, 1.0]])
    seen, retired = [], {}

    def restart(k, y_end, reason):
        seen.append((k, reason))
        if k in (0, 1, 2) and sum(j == k for j, _ in seen) == 1:
            if k == 2:   # the second run of lane 2 is at other tolerances
                rtol[k], atol[k] = 1e-6, 1e-8
            return fresh_state[k]
        retired[k] = len(calls)
        return None

    y_end, why = solve_lanes(fenced, np.ones((4, 2)), rtol, atol, restart)
    in_run = len(calls)
    # lane 1 first underflows at its NaN fence; its restart from 10 clears the reason
    assert (1, UNDERFLOW) in seen and list(why) == [""] * 4
    assert sorted(seen) == [(0, ""), (0, ""), (1, ""), (1, UNDERFLOW), (2, ""), (2, ""), (3, "")]
    fresh, _ = solve_lanes(fenced, fresh_state, 1e-10, 1e-12, _retire)
    assert np.array_equal(y_end[[0, 1]], fresh[[0, 1]])
    loose, _ = solve_lanes(fenced, fresh_state, 1e-6, 1e-8, _retire)
    assert np.array_equal(y_end[2], loose[2])
    once, _ = solve_lanes(fenced, np.ones((4, 2)), 1e-10, 1e-12, _retire)
    assert np.array_equal(y_end[3], once[3])
    for k, n_calls in retired.items():
        assert all(k not in rows for rows in calls[n_calls:in_run])


def test_dop853_lanes_retire_other_lanes_from_the_hook():
    """A hook's (state, lanes) pair retires the listed lanes at once: four equal lanes reach
    s = 1 in one pass, lane 2 retired by lane 1's hook never reaches its own, and lane 0,
    restarted earlier in the pass and retired by lane 3's, is never evaluated again."""
    calls = []   # the rows of every fun call

    def decay(y, rows):
        calls.append(rows.copy())
        return -y

    seen, at_last = [], []

    def restart(k, y_end, reason):
        seen.append(k)
        if k == 0:
            return np.full(2, 5.0)
        if k == 1:
            return None, [2]
        at_last.append(len(calls))
        return None, [0]

    y_end, why = solve_lanes(decay, np.ones((4, 2)), 1e-10, 1e-12, restart)
    assert seen == [0, 1, 3] and list(why) == [""] * 4
    assert at_last == [len(calls)]   # no call after lane 3's hook, not even a first step
    free, _ = solve_lanes(decay, np.ones((4, 2)), 1e-10, 1e-12, _retire)
    assert np.array_equal(y_end[[1, 3]], free[[1, 3]]) and np.all(y_end[0] == 5.0)


def test_dop853_lanes_take_per_lane_tolerances():
    """Each lane of a mixed-tolerance batch is its run at its own scalar pair, bit for bit."""
    rates = np.array([0.5, 1.0, 3.0, 10.0])

    def decay(y, rows):
        return -rates[rows, None] * y

    pairs = [(1e-6, 1e-8), (1e-10, 1e-12), (1e-12, 1e-14), (1e-6, 1e-8)]
    rtol, atol = (np.array(col)[:, None] for col in zip(*pairs))
    mixed, why = solve_lanes(decay, np.ones((4, 2)), rtol, atol, _retire)
    assert list(why) == [""] * 4
    for k, (r, a) in enumerate(pairs):
        alone, _ = solve_lanes(decay, np.ones((4, 2)), r, a, _retire)
        assert np.array_equal(mixed[k], alone[k])
        broadcast, _ = solve_lanes(decay, np.ones((4, 2)), np.full((4, 1), r), np.full((4, 1), a),
                                   _retire)
        assert np.array_equal(broadcast, alone)


SCHEDULE_PAIRS = [FAN_PAIRS[i] for i in (0, 3, 6)]   # the bump in d = 1, 2, 3


@pytest.mark.parametrize("dim,kind,params,y,x", SCHEDULE_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}" for p in SCHEDULE_PAIRS])
def test_a_start_converges_only_at_the_fans_pair(dim, kind, params, y, x, monkeypatch):
    """Loose iterates come first and never converge; the polish is TIGHT throughout.

    A converged _End is the last iterate, at the fan's pair, of a start that certified it
    with a residual of at most NEWTON_TOL;
    a start that carries another start's _End retired into it: its next iterate, or the one
    it was on when it retired mid-iterate, lay within RETIRE_RADIUS of that connection in
    (p0, tau), at either tier.  A lone start (d = 1)
    goes from LOOSE straight to TIGHT, never at the fan's pair, and converges at POLISH_TOL.
    """
    m = make_potential(dim, kind, params)
    y, x = np.array(y), np.array(x)
    unit = max(1.0, np.max(np.abs(x)))
    r_y = math.sqrt(1.0 - m.value(y) ** 2)
    used = set()   # the OdeOpts of every iterate
    last = {}      # start -> (x(tau), OdeOpts) of its latest iterate
    now = {}       # start -> (p0, tau) of the iterate its lane is on
    nxt = {}       # start -> (p0, tau) of the iterate it retired before
    mid = {}       # start -> now[start] when it retired mid-iterate
    chart, taus = [], []
    flow_one, dop853_lanes = geoflow._flow_one, geoflow.solve_lanes
    sphere_chart, lane_rhs = geoflow._sphere_chart, geoflow._lane_rhs

    def one(model, y_star, p0, tau, opts, dense):
        out = flow_one(model, y_star, p0, tau, opts, dense)
        used.add(opts)
        last[0] = (None if isinstance(out, str) else out.x, opts)
        return out

    def charted(frame, u):
        chart[:] = [sphere_chart(frame, u)]
        return chart[0]

    def rhs(model, lane_taus):
        taus[:] = [lane_taus]
        return lane_rhs(model, lane_taus)

    def lanes(fun, y0, rtol, atol, restart):
        def on(k, p0):
            now[k] = (p0, float(taus[0][k]))

        def hook(k, y_end, reason):
            opts = OdeOpts(float(rtol[k, 0]), float(atol[k, 0]))
            used.add(opts)
            now.pop(k)
            last[k] = (None if reason else y_end[:dim].copy(), opts)
            chart.clear()
            out = restart(k, y_end, reason)
            y_next, retired = out if isinstance(out, tuple) else (out, [])
            for j in retired:
                mid[j] = now.pop(j)
            if y_next is not None:
                on(k, y_next[dim:2 * dim].copy())
            elif chart:
                nxt[k] = (r_y * chart[0][0], float(taus[0][k]))
            return out

        for k, y_k in enumerate(y0):
            on(k, y_k[dim:2 * dim].copy())
        return dop853_lanes(fun, y0, rtol, atol, hook)

    monkeypatch.setattr(geoflow, "_flow_one", one)
    monkeypatch.setattr(geoflow, "solve_lanes", lanes)
    monkeypatch.setattr(geoflow, "_sphere_chart", charted)
    monkeypatch.setattr(geoflow, "_lane_rhs", rhs)
    starts, tau0 = _fan_starts(m, y, x, None)
    outcomes, ends = _newton(m, y, x, starts, tau0)
    exact = TIGHT if len(starts) == 1 else OdeOpts()
    assert used == {LOOSE, exact}
    assert outcomes.count(CONVERGED) >= 1
    if len(starts) == 1:
        assert np.max(np.abs(ends[0].x - x)) <= POLISH_TOL * unit

    def certified(k, end):
        """Whether end is start k's own last iterate, integrated at exact."""
        x_end, opts = last[k]
        return x_end is not None and np.array_equal(end.x, x_end) and opts == exact

    for k, (outcome, end) in enumerate(zip(outcomes, ends)):
        assert (outcome == CONVERGED) == (end is not None)
        if end is not None and len(starts) > 1:
            assert np.max(np.abs(end.x - x)) <= NEWTON_TOL * unit
        if end is None or certified(k, end):
            continue
        assert any(e is end and certified(j, e) for j, e in enumerate(ends) if j != k)
        p0, tau = nxt[k] if k in nxt else mid[k]
        assert max(np.max(np.abs(p0 - end.p0)), abs(tau - end.tau)) < RETIRE_RADIUS
    if dim == 3:
        # the 17 starts that converge on the d=3 bump certify fewer _End objects than 17
        assert outcomes.count(CONVERGED) == 17
        assert len({id(end) for end in ends if end is not None}) < 17
    used.clear()
    [outcome], [end] = _newton(m, y, x, [starts[0]], tau0, polish=True)
    assert outcome == CONVERGED and used == {TIGHT}
    assert np.max(np.abs(end.x - x)) <= POLISH_TOL * max(1.0, np.max(np.abs(x)))


# shots across a flat stretch, each with its pinned (n_converged, n_distinct): the d = 3
# cosine both ways; the d = 2 bump, where a limit of 10 loses a root; and the d = 3 bump
# reversed, where a converging start goes 13 iterates without halving, 2 under STALL
STALL_SHOTS = [(3, "cosine_well", COSINE, [-3.1, 0.3, -0.2], [2.9, -0.3, 0.3], (12, 1)),
               (3, "cosine_well", COSINE, [2.9, -0.3, 0.3], [-3.1, 0.3, -0.2], (8, 1)),
               (2, "bump_well", BUMP, [-3.0, -0.3], [3.0, 0.4], (4, 1)),
               (3, "bump_well", BUMP, [3.0, 0.4, -0.2], [-3.0, -0.3, 0.2], (14, 1))]


def _stalls(residuals):
    """After each residual, the iterates in a row that failed to halve the last halved one."""
    best, run, out = math.inf, 0, []
    for err in residuals:
        best, run = (err, 0) if err <= 0.5 * best else (best, run + 1)
        out.append(run)
    return out


@pytest.mark.parametrize("dim,kind,params,y,x,counts", STALL_SHOTS,
                         ids=["d3-cosine-fwd", "d3-cosine-rev", "d2-bump-fwd", "d3-bump-rev"])
def test_a_stalled_start_retires(dim, kind, params, y, x, counts, monkeypatch):
    """A start whose residual stops contracting ends max_iter after STALL iterates in a row
    that fail to halve its best residual, before MAX_ITER; no converging start stalls that
    long, so the uniqueness counts keep their pinned values."""
    residuals = {}   # start -> max |x(tau) - x*| of each of its fan iterates
    runs = []
    newton, dop853_lanes = geoflow._newton, geoflow.solve_lanes

    def lanes(fun, y0, rtol, atol, restart):
        def hook(k, y_end, reason):
            if not reason:
                residuals.setdefault(k, []).append(float(np.max(np.abs(y_end[:dim] - x))))
            return restart(k, y_end, reason)
        return dop853_lanes(fun, y0, rtol, atol, hook)

    def counted(*args, **kwargs):
        runs.append(newton(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(geoflow, "solve_lanes", lanes)
    monkeypatch.setattr(geoflow, "_newton", counted)
    geo = shoot_geodesic(make_potential(dim, kind, params), y, x)
    assert (geo.uniqueness["n_converged"], geo.uniqueness["n_distinct"]) == counts
    outcomes, _ = runs[0]
    assert ITER_LIMIT in outcomes
    for k, outcome in enumerate(outcomes):
        stalls = _stalls(residuals.get(k, []))
        if outcome == ITER_LIMIT:
            assert len(stalls) < MAX_ITER and stalls[-1] == STALL
            stalls.pop()
        assert max(stalls, default=0) < STALL


LONE_PAIRS = [FAN_PAIRS[i] for i in (0, 6)]   # the bump in d = 1 and d = 3


@pytest.mark.parametrize("dim,kind,params,y,x", LONE_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}" for p in LONE_PAIRS])
def test_a_lone_shoot_runs_one_newton(dim, kind, params, y, x, monkeypatch):
    """A lone start is its own polish: one Newton sequence, whose last _End is the orbit."""
    calls = []
    newton = geoflow._newton

    def counted(*args, **kwargs):
        calls.append(newton(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(geoflow, "_newton", counted)
    geo = shoot_geodesic(make_potential(dim, kind, params), y, x, multistart=1)
    [(outcomes, ends)] = calls
    assert outcomes == [CONVERGED]
    assert ends[0].traj is not None and geo.trajectory is ends[0].traj


ONE_CONNECTION_SHOTS = [
    (1, "bump_well", BUMP, [-1.0], [1.0]),
    (1, "constant", {"value": -0.6}, [-0.5], [0.5]),
    (2, "constant", {"value": -0.6}, [-0.5, 0.0], [0.5, 0.0]),
    FAN_PAIRS[6],   # the d = 3 bump
    FAN_PAIRS[7],   # the d = 3 cosine
]


@pytest.mark.parametrize("dim,kind,params,y,x", ONE_CONNECTION_SHOTS,
                         ids=[f"d{p[0]}-{p[1]}" for p in ONE_CONNECTION_SHOTS])
def test_a_lone_shoot_reports_one_connection(dim, kind, params, y, x):
    """A lone shoot's one distinct connection is the returned orbit, bit for bit."""
    geo = shoot_geodesic(make_potential(dim, kind, params), y, x, multistart=1)
    [distinct] = geo.uniqueness["distinct"]
    assert distinct == {"p0": geo.p0.tolist(), "tau": geo.tau, "action": geo.agmon}


def _full_walk(dim, n_base):
    """Every nonzero lattice direction, in a stable sort from np.ndindex order by
    -(frame g/|g|) . n_base: the fan's reference order."""
    frame = geoflow._frame_from_direction(n_base)
    dirs = []
    for v in np.ndindex(*(3,) * dim):
        g = np.array(v, dtype=float) - 1.0
        if g.any():
            dirs.append(frame @ (g / np.linalg.norm(g)))
    dirs.sort(key=lambda v: -float(v @ n_base))
    return dirs


def test_start_directions_are_the_full_walk_for_every_count():
    """Any count takes the first count directions of the full walk bit for bit, in its order,
    though only the lattice groups it reaches are built; the bases include e_1 itself, a base
    within 1e-8 of it (the identity frame) and -e_1."""
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        e1 = np.eye(dim)[0]
        for n_base in [*rng.normal(size=(3, dim)), e1, e1 + 1e-8 * rng.normal(size=dim), -e1]:
            n_base = n_base / np.linalg.norm(n_base)
            walk = _full_walk(dim, n_base)
            for count in range(1, len(walk) + 2):
                dirs = geoflow._start_directions(dim, n_base, count)
                assert len(dirs) == min(count, len(walk))
                assert all(np.array_equal(a, b) for a, b in zip(dirs, walk))


def test_a_lone_shoot_in_high_d_lists_no_lattice(monkeypatch):
    """multistart 1 takes the fan's first direction bit for bit, without its 3^d - 1 entries."""
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        for _ in range(20):
            n_base = rng.normal(size=dim)
            n_base /= np.linalg.norm(n_base)
            [lone] = geoflow._start_directions(dim, n_base, 1)
            assert np.array_equal(lone, geoflow._start_directions(dim, n_base, 3 ** dim - 1)[0])

    def refuse(*shape):
        raise AssertionError(f"np.ndindex{shape} called")

    monkeypatch.setattr(np, "ndindex", refuse)
    dim = 16
    geo = shoot_geodesic(constant_model(dim), [-0.5] + [0.0] * (dim - 1),
                         [0.5] + [0.0] * (dim - 1), multistart=1)
    assert geo.agmon == pytest.approx(0.8, rel=1e-12)
    assert geo.uniqueness["n_distinct"] == 1


def test_d3_bump_fan_lane_calls(monkeypatch):
    """The d=3 bump fan shares at most 1,000 lane RHS calls (934 with a start retiring
    mid-iterate, and at LOOSE within RETIRE_RADIUS; 1,208 with its roots certified at 1e-8; at
    1e-10, 1,514 with a start retiring into a connection another start certified, 1,746 with
    each start restarting its lane at once, 2,748 in lock step, 3,922 in lock step with every
    iterate at 1e-10)."""
    calls = []
    lane_rhs = geoflow._lane_rhs

    def counted(model, taus):
        rhs = lane_rhs(model, taus)

        def call(y, rows):
            calls.append(len(rows))
            return rhs(y, rows)
        return call

    monkeypatch.setattr(geoflow, "_lane_rhs", counted)
    geo = shoot_geodesic(bump_model(3), [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2])
    assert (geo.uniqueness["n_converged"], geo.uniqueness["n_distinct"]) == (17, 1)
    assert len(calls) <= 1000


def test_d3_bump_fan_retires_a_start_mid_iterate(monkeypatch):
    """On the d=3 bump fan a certification retires at least one other start mid-iterate:
    its lane's hook never sees the end of the iterate it was on, and it converged."""
    on = {}   # lane -> whether the lane is on an iterate whose end its hook has not seen
    dop853_lanes = geoflow.solve_lanes

    def lanes(fun, y0, rtol, atol, restart):
        def hook(k, y_end, reason):
            out = restart(k, y_end, reason)
            on[k] = (out[0] if isinstance(out, tuple) else out) is not None
            return out
        on.update(dict.fromkeys(range(len(y0)), True))
        return dop853_lanes(fun, y0, rtol, atol, hook)

    monkeypatch.setattr(geoflow, "solve_lanes", lanes)
    y, x = np.array([-1.0, -0.3, 0.2]), np.array([1.0, 0.4, -0.2])
    starts, tau0 = _fan_starts(bump_model(3), y, x, None)
    outcomes, _ = _newton(bump_model(3), y, x, starts, tau0)
    cut_short = [k for k, running in on.items() if running]
    assert cut_short and all(outcomes[k] == CONVERGED for k in cut_short)


# the d=2 and d=3 bump and cosine, and the d=2 bump's second pair
PATH_PAIRS = [FAN_PAIRS[i] for i in (3, 4, 6, 7, 5)]


@pytest.mark.parametrize("dim,kind,params,y,x", PATH_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}" for p in PATH_PAIRS[:4]] + ["d2-bump_well-b"])
def test_polished_agmon_does_not_depend_on_the_path(request, dim, kind, params, y, x):
    """The fan, one start and the reverse fan polish to one d_A within 1e-13 relative."""
    m = make_potential(dim, kind, params)
    d2_bump = (dim, kind, y) == (2, "bump_well", [-1.0, -0.3])
    d3_bump = (dim, kind, y) == (3, "bump_well", [-1.0, -0.3, 0.2])
    shared = d2_bump or d3_bump
    fan = request.getfixturevalue(f"d{dim}_bump_fan") if shared else shoot_geodesic(m, y, x)
    one = shoot_geodesic(m, y, x, multistart=1)
    rev = request.getfixturevalue("d2_bump_fan_rev") if d2_bump else shoot_geodesic(m, x, y)
    for other in (one, rev):
        assert other.agmon == pytest.approx(fan.agmon, rel=1e-13, abs=0.0)


# ---------------------------------------------------- conjugacy and Jacobians

def test_conjugacy_threshold_raises(monkeypatch):
    monkeypatch.setattr(geoflow, "CONJUGACY_TOL", 1e6)
    with pytest.raises(ConjugatePointError):
        shoot_geodesic(constant_model(2), [-0.5, 0.0], [0.5, 0.0])


def test_det_exp_prime_positive_branch():
    m = constant_model(2)
    with pytest.raises(ConjugatePointError):
        det_exp_prime(m, [-0.5, 0.0], [0.5, 0.0], 0.8, -1.0)
    with pytest.raises(DomainError):
        det_exp_prime(constant_model(1), [-0.5], [0.5], 0.8, 1.0)


def test_bordered_determinant_free_value():
    w = 0.6
    p = np.array([0.8, 0.0, 0.0])
    v = p / w
    dpx = 0.75 * (np.eye(3) / w + np.outer(p, p) / w**3)
    assert bordered_determinant(v, v, dpx) == pytest.approx(25.0 / 9.0, rel=1e-14)


@pytest.mark.parametrize("dim,endpoints,frozen", [
    (2, ([-1.0, -0.3], [1.0, 0.4]), 2.2341915424),
    (3, ([-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]), 5.2187507320),
])
def test_exp_prime_two_routes_agree(request, dim, endpoints, frozen):
    """Bordered-determinant conversion vs direct differentiation of exp_y."""
    m = bump_model(dim)
    y, x = endpoints
    geo = request.getfixturevalue(f"d{dim}_bump_fan")
    assert geo.det_exp_prime == pytest.approx(frozen, rel=1e-8)
    v = exp_inverse_from_geodesic(m, geo)
    fd = exp_prime_fd(m, y, v)
    assert fd == pytest.approx(geo.det_exp_prime, rel=1e-7)


def test_exp_map_oracle_hits_endpoint(d2_bump_fan):
    m = bump_model(2)
    y, x = [-1.0, -0.3], [1.0, 0.4]
    geo = d2_bump_fan
    v = exp_inverse_from_geodesic(m, geo)
    assert np.linalg.norm(v) == pytest.approx(
        geo.agmon / math.sqrt(1.0 - m.value(y) ** 2), abs=1e-12)
    np.testing.assert_allclose(exp_map_oracle(m, y, v), x, atol=1e-8)


def test_exp_prime_constant_is_unity():
    m = constant_model(2)
    fd = exp_prime_fd(m, [-0.5, 0.0], [1.0, 0.0])
    assert fd == pytest.approx(1.0, abs=1e-8)


# -------------------------------------------------------------------- options

_OPTION_BASE = {"dimension": 2, "potential": {"kind": "constant", "params": {"value": -0.6}}}


def test_option_parsing_round_trip():
    """shooting.multistart, the one solver key, reaches RunConfig."""
    for shooting, count in ((None, None), ({}, None), ({"multistart": None}, None),
                            ({"multistart": 4}, 4), ({"multistart": 4.0}, 4)):
        assert RunConfig.from_dict(dict(_OPTION_BASE, shooting=shooting)).multistart == count
    assert RunConfig.from_dict(_OPTION_BASE).multistart is None


def test_option_parsing_rejects_unknown_keys():
    """Unknown solver keys, booleans and non-counts are refused; nothing else passes."""
    base = _OPTION_BASE
    for shooting in ({"multistart": 0}, {"multistart": True}, {"multistart": 2.5},
                     {"multistart": "4"}, {"max_iter": 40}, [4]):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(dict(base, shooting=shooting))
    with pytest.raises(ConfigError, match="unknown config field"):
        RunConfig.from_dict(dict(base, ode={"rel_tol": 1e-10}))


# ------------------------------------------------ library entry points on bad input

# (call, the error it must raise or the (status, nfev, y) it must return)
_BAD_INPUT = {
    "flow-nan-start": (lambda: integrate_flow(bump_model(2), [math.nan, 0.0], [0.5, 0.0], 1.0),
                       DomainError),
    "flow-nan-tau": (lambda: integrate_flow(bump_model(2), [0.0, 0.0], [0.5, 0.0], math.nan),
                     DomainError),
    "oracle-nan-h": (lambda: oracle1d.exact_green_kernel_1d(bump_model(1), 1.0, -1.0, math.nan),
                     DomainError),
    "oracle-no-points": (lambda: oracle1d.decaying_solution(bump_model(1), "right", [], 0.1),
                         DomainError),
    "solve_ivp-nan-y0": (lambda: dop853.solve_ivp(_decay, (0.0, 1.0), [math.nan], rtol=1e-10,
                                                  atol=1e-12), ValueError),
    "solve_floats-inf-y0": (lambda: dop853.solve_floats(_decay, (0.0, 1.0), [math.inf],
                                                        rtol=1e-10, atol=1e-12, t_eval=[1.0]),
                            ValueError),
    # a NaN derivative at the start makes the first step size NaN: the solve ends as underflow
    "solve_ivp-nan-rhs": (lambda: dop853.solve_ivp(lambda t, y: np.full(1, math.nan), (0.0, 1.0),
                                                   [1.0], rtol=1e-10, atol=1e-12),
                          (-1, 2, [[1.0]])),
    "solve_ivp-zero-span": (lambda: dop853.solve_ivp(_decay, (1.0, 1.0), [1.0], rtol=1e-10,
                                                     atol=1e-12), (0, 1, [[1.0, 1.0]])),
    "solve_floats-zero-span": (lambda: dop853.solve_floats(
        lambda t, y: (-y[0],), (1.0, 1.0), [1.0], rtol=1e-10, atol=1e-12, t_eval=[1.0, 1.0]),
        (0, 1, [[1.0, 1.0]])),
    "constant-nan-h": (lambda: constant_V_exact(build_dirac_rep(2), -0.6, [1.0, 0.0],
                                                [0.0, 0.0], math.nan), DomainError),
    "leading1d-nan-h": (lambda: leading_kernel_1d(bump_model(1), build_dirac_rep(1), 1.0, -1.0,
                                                  math.nan), DomainError),
    "leading-nan-h": (lambda: leading_kernel_multid(
        constant_model(1), build_dirac_rep(1), shoot_geodesic(constant_model(1), [-1.0], [1.0]),
        math.nan), DomainError),
    "bessel-nan-rho": (lambda: bessel_K(0.5, math.nan), DomainError),
    "bessel-oracle-nan-rho": (lambda: bessel_K_oracle(0.5, math.nan), DomainError),
    "sweep-nan-h": (lambda: ratio_sweep(build_dirac_rep(2), -0.6, [1.0, 0.0], [0.0, 0.0],
                                        [0.2, math.nan]), DomainError),
    **{f"multistart-{count}": (
        lambda count=count: shoot_geodesic(bump_model(2), [-1.0, -0.3], [1.0, 0.4],
                                           multistart=count), DomainError)
       for count in (0, -1, 2.5, True)},
}


@pytest.mark.parametrize("name", list(_BAD_INPUT))
def test_library_entry_points_refuse_bad_input(monkeypatch, name):
    """Each library call on bad input ends at once, with its stated error or scipy's answer.

    Under a 5 s alarm, so that a call that never returns fails.  A multistart
    that is not None or a whole number >= 1 is refused before any lane runs.
    """
    call, expected = _BAD_INPUT[name]

    def no_lanes(*args):
        raise AssertionError("solve_lanes ran")

    def hung(signum, frame):
        raise TimeoutError(f"{name} still running after 5 s")

    monkeypatch.setattr(geoflow, "solve_lanes", no_lanes)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        if isinstance(expected, tuple):
            res = call()
            assert (res.status, res.nfev, res.y.tolist()) == expected
        else:
            with pytest.raises(expected):
                call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
