"""Zero-energy Hamiltonian flow, two-point shooting, and Jacobi data.

The constant-potential checks are exact: orbits are straight lines with
|p| = sqrt(1 - E^2), so flight time, distance, and the bordered
determinant all have closed forms.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from diracgreen import geoflow
from diracgreen.clifford import DomainError
from diracgreen.cli import ConfigError, RunConfig
from diracgreen.geoflow import (CONVERGED, LEFT_BOX, ConjugatePointError, OdeOpts,
                                ShootingError, _dop853_lanes, _fan_starts,
                                _newton, _var_index, agmon_distance_quadrature_1d,
                                bordered_determinant, det_exp_prime,
                                exp_inverse_from_geodesic, exp_map_oracle,
                                exp_prime_fd, integrate_flow, shoot_geodesic)
from diracgreen.potential import make_potential

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
    # |p| inside the guard band: the first derivative evaluation must refuse
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


def test_constant_flow_variational_blocks():
    # dpX(t) = t (I/w + p p^T / w^3), dpP(t) = I for a constant potential
    m = constant_model(3)
    traj = integrate_flow(m, [-0.5, 0.0, 0.0], [0.8, 0.0, 0.0], 0.75)
    dpx = traj.dp_x(0.75)
    np.testing.assert_allclose(np.diag(dpx), [125.0 / 36.0, 1.25, 1.25], rtol=1e-12)
    assert np.max(np.abs(dpx - np.diag(np.diag(dpx)))) <= 1e-12
    dpp = traj.sol(0.75)[_var_index(3) + 9:].reshape(3, 3)
    np.testing.assert_allclose(dpp, np.eye(3), atol=1e-12)


def test_trajectory_accessor_guards():
    m = constant_model(2)
    traj = integrate_flow(m, [0.0, 0.0], [0.5, 0.0], 0.3, variational=False)
    with pytest.raises(DomainError):
        traj.dp_x(0.1)


def test_energy_diagnostic_keeps_the_domain_checks():
    """hamiltonian_sup raises where hamiltonian does: |p| >= 1 or x outside the box."""
    m = constant_model(2)
    traj = integrate_flow(m, [0.0, 0.0], [0.5, 0.0], 0.3, variational=False)
    for x, p in (([0.0, 0.0], [0.6, 0.8]), ([20.0, 0.0], [0.5, 0.0])):
        state = np.array(x + p + [0.0])
        traj.sol = lambda t, y=state: np.multiply.outer(y, np.ones_like(t))
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


def test_shot_residual_and_momentum_shell():
    m = bump_model(2)
    y, x = np.array([-1.0, -0.3]), np.array([1.0, 0.4])
    geo = shoot_geodesic(m, y, x)
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


def test_reversal_symmetry_bump_2d():
    m = bump_model(2)
    fwd = shoot_geodesic(m, [-1.0, -0.3], [1.0, 0.4])
    rev = shoot_geodesic(m, [1.0, 0.4], [-1.0, -0.3])
    assert rev.agmon == pytest.approx(fwd.agmon, rel=1e-9)
    assert rev.tau == pytest.approx(fwd.tau, rel=1e-9)
    np.testing.assert_allclose(rev.trajectory.p_end, -fwd.p0, atol=1e-8)
    # the exponential-map determinant is endpoint symmetric by construction
    assert rev.det_exp_prime == pytest.approx(fwd.det_exp_prime, rel=1e-9)


def test_jacobi_block_matches_finite_differences():
    """dpX(tau) against central differences of the endpoint over p0."""
    m = bump_model(2)
    geo = shoot_geodesic(m, [-1.0, -0.3], [1.0, 0.4])
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


# ------------------------------------------------------------ lock-step fan

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


@pytest.mark.parametrize("dim,kind,params,y,x", FAN_PAIRS,
                         ids=[f"d{p[0]}-{p[1]}-{i % 3}" for i, p in enumerate(FAN_PAIRS)])
def test_lane_fan_matches_single_start_shots(dim, kind, params, y, x):
    """The lock-step fan converges on the starts one shot per start does, to the same p0."""
    m = make_potential(dim, kind, params)
    y, x = np.array(y), np.array(x)
    starts, tau0 = _fan_starts(m, y, x, None)
    outcomes, ends = _newton(m, y, x, starts, tau0, OdeOpts())
    assert CONVERGED in outcomes
    for n, outcome, end in zip(starts, outcomes, ends):
        [alone], [single] = _newton(m, y, x, [n], tau0, OdeOpts())
        assert (outcome == CONVERGED) == (alone == CONVERGED)
        if end is not None:
            np.testing.assert_allclose(end.p0, single.p0, rtol=0.0, atol=1e-13)


def test_lane_leaving_the_box_fails_alone(monkeypatch):
    """In a box of half-width 6 two d=2 starts leave it; the rest converge as in the wide box."""
    y, x = np.array([-1.0, -0.3]), np.array([1.0, 0.4])
    starts, tau0 = _fan_starts(bump_model(2), y, x, None)
    _, free_ends = _newton(bump_model(2), y, x, starts, tau0, OdeOpts())
    batches = []
    flow_lanes = geoflow._flow_lanes

    def recording(*args):
        batches.append(flow_lanes(*args))
        return batches[-1]

    monkeypatch.setattr(geoflow, "_flow_lanes", recording)
    boxed = make_potential(2, "bump_well", BUMP, box_half=6.0)
    outcomes, ends = _newton(boxed, y, x, starts, tau0, OdeOpts())
    assert outcomes.count(LEFT_BOX) == 2
    # the lanes left the box inside a batch whose other lanes ran to the end
    assert any(LEFT_BOX in b and any(not isinstance(e, str) for e in b) for b in batches)
    for end, free in zip(ends, free_ends):
        assert (end is None) == (free is None)
        if end is not None:
            np.testing.assert_allclose(end.p0, free.p0, rtol=0.0, atol=1e-13)


def test_dop853_lanes_follow_scipy_lane_by_lane():
    """Each lane takes scipy's DOP853 steps; a lane leaving the domain stops alone."""
    rates = np.array([0.5, 1.0, 3.0, 10.0])

    def decay(y, rows):
        return -rates[rows, None] * y, None

    y_end, why = _dop853_lanes(decay, np.ones((4, 2)), 1e-10, 1e-12)
    assert list(why) == [""] * 4
    for k, rate in enumerate(rates):
        ref = solve_ivp(lambda t, y: -rate * y, (0.0, 1.0), np.ones(2), method="DOP853",
                        rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(y_end[k], ref.y[:, -1], rtol=1e-14)
        np.testing.assert_allclose(y_end[k], np.exp(-rate), rtol=1e-9, atol=1e-11)

    def fenced(y, rows):   # lane 1 leaves its domain once y < 0.5
        return -rates[rows, None] * y, np.where((rows == 1) & (y[:, 0] < 0.5), LEFT_BOX, "")

    fenced_end, why = _dop853_lanes(fenced, np.ones((4, 2)), 1e-10, 1e-12)
    assert list(why) == ["", LEFT_BOX, "", ""]
    np.testing.assert_allclose(fenced_end[[0, 2, 3]], y_end[[0, 2, 3]], rtol=1e-13)


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
def test_exp_prime_two_routes_agree(dim, endpoints, frozen):
    """Bordered-determinant conversion vs direct differentiation of exp_y."""
    m = bump_model(dim)
    y, x = endpoints
    geo = shoot_geodesic(m, y, x)
    assert geo.det_exp_prime == pytest.approx(frozen, rel=1e-8)
    v = exp_inverse_from_geodesic(m, geo)
    fd = exp_prime_fd(m, y, v)
    assert fd == pytest.approx(geo.det_exp_prime, rel=1e-7)


def test_exp_map_oracle_hits_endpoint():
    m = bump_model(2)
    y, x = [-1.0, -0.3], [1.0, 0.4]
    geo = shoot_geodesic(m, y, x)
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

