"""Independent 1D kernel solver: tails, glue, decay rate, and symmetry."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracgreen import oracle1d
from diracgreen.clifford import SIGMA_1, DomainError, build_dirac_rep
from diracgreen.geoflow import shoot_geodesic
from diracgreen.kernel import constant_V_exact
from diracgreen.oracle1d import decaying_solution, exact_green_kernel_1d
from diracgreen.potential import make_potential

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}


def bump_model():
    return make_potential(1, "bump_well", BUMP)


@pytest.mark.parametrize("e_value", [-0.3, -0.6, -0.9])
@pytest.mark.parametrize("r,h", [(0.5, 0.1), (1.0, 0.1), (1.0, 0.05), (2.0, 0.2)])
def test_constant_potential_reproduced(e_value, r, h):
    """The ODE route must land on the closed form with no tuning."""
    m = make_potential(1, "constant", {"value": e_value})
    rep = build_dirac_rep(1)
    x, y = 0.3, 0.3 - r
    got = exact_green_kernel_1d(m, x, y, h)
    ref = constant_V_exact(rep, e_value, [x], [y], h)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9


def test_jump_condition_extrapolated():
    """-i h sigma_1 (G(y+) - G(y-)) -> 1 as the probes tighten.

    The one-sided probes carry an O(eps/h) error; the Richardson combination
    2 D(eps/2) - D(eps) removes it.
    """
    m = bump_model()
    h, y = 0.1, -0.2
    eps = 1e-5
    deltas = []
    for e in (eps, eps / 2.0):
        gp = exact_green_kernel_1d(m, y + e, y, h)
        gm = exact_green_kernel_1d(m, y - e, y, h)
        deltas.append(gp - gm)
    extrap = 2.0 * deltas[1] - deltas[0]
    residual = np.linalg.norm(-1j * h * SIGMA_1 @ extrap - np.eye(2))
    assert residual <= 1e-6


def test_decay_rate_matches_distance():
    """log ||G|| falls linearly in 1/h with slope -d_A within 1%.

    The kernel carries an explicit 1/h amplitude factor whose -log h
    contribution would bias the fit by several percent over any usable h
    range, so it is divided out before fitting the exponent.
    """
    m = bump_model()
    x, y = 1.0, -1.0
    d_a = shoot_geodesic(m, [y], [x]).agmon
    h_list = [0.1, 0.05, 0.025]
    logs = [math.log(h * np.linalg.norm(exact_green_kernel_1d(m, x, y, h)))
            for h in h_list]
    slope = np.polyfit([1.0 / h for h in h_list], logs, 1)[0]
    assert abs(-slope - d_a) <= 0.01 * d_a


def test_halving_h_doubles_interior_decay_rate():
    """Inward growth rate scales as 1/h through the well interior."""
    m = bump_model()
    rates = []
    for h in (0.1, 0.05):
        tot = [math.log(np.linalg.norm(vec)) + log
               for vec, log in decaying_solution(m, "right", (0.5, -0.5), h)]
        rates.append(tot[1] - tot[0])   # log-growth over one unit leftward
    assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.02)


def test_adjoint_symmetry_random_pairs():
    m = bump_model()
    rng = np.random.default_rng(11)
    h = 0.1
    for _ in range(20):
        x, y = rng.uniform(-2.2, 2.2, 2)
        if abs(x - y) < 0.2:
            continue
        g_fwd = exact_green_kernel_1d(m, x, y, h)
        g_rev = exact_green_kernel_1d(m, y, x, h)
        assert (np.linalg.norm(g_fwd.conj().T - g_rev)
                / np.linalg.norm(g_fwd)) <= 1e-8


def test_adjoint_symmetry_tanh_step():
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    g_fwd = exact_green_kernel_1d(m, 1.0, -1.0, 0.2)
    g_rev = exact_green_kernel_1d(m, -1.0, 1.0, 0.2)
    assert np.linalg.norm(g_fwd.conj().T - g_rev) / np.linalg.norm(g_fwd) <= 1e-8


def test_renormalised_vectors_stay_order_one():
    """Bookkeeping invariant: returned vectors never leave [1e-2, 1e2]."""
    m = bump_model()
    for vec, _ in decaying_solution(m, "right", np.linspace(-2.5, 3.0, 111), 0.05,
                                    anchor=3.0):
        assert 1e-2 <= np.linalg.norm(vec) <= 1e2


def test_analytic_tail_beyond_anchor(monkeypatch):
    # outside the anchor the solution is the exact exponential, no ODE calls
    monkeypatch.setattr(oracle1d, "solve_ivp", None)
    m = bump_model()
    h = 0.1
    (v_anchor, log_anchor), (vec, log) = decaying_solution(m, "right", (3.0, 5.0), h,
                                                           anchor=3.0)
    kappa = 0.8
    assert log_anchor == 0.0
    assert log == pytest.approx(-kappa * 2.0 / h, rel=1e-12)
    np.testing.assert_allclose(vec, v_anchor, rtol=1e-15)
    np.testing.assert_allclose(v_anchor, np.array([1j * kappa, -0.4]) / math.hypot(kappa, 0.4),
                               rtol=1e-15)


def test_segment_count_is_one_per_step(monkeypatch):
    """Each march takes ceil((edge + 1) / 0.2) segments, edge = 2.5 for the bump."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", counting)
    exact_green_kernel_1d(bump_model(), 1.0, -1.0, 0.05)
    per_march = math.ceil((2.5 + 1.0) / 0.2)
    assert len(calls) == 2 * per_march
    assert calls[0][0] == 2.5 and calls[per_march - 1][1] == -1.0
    assert calls[per_march][0] == -2.5 and calls[-1][1] == 1.0


def test_input_validation():
    m = bump_model()
    with pytest.raises(DomainError):
        decaying_solution(m, "up", [0.0], 0.1)
    with pytest.raises(DomainError):
        decaying_solution(m, "right", [0.0], -0.1)
    with pytest.raises(DomainError):
        decaying_solution(make_potential(2, "bump_well", BUMP), "right", [0.0], 0.1)
    with pytest.raises(DomainError):
        decaying_solution(m, "right", [0.0], 0.1, anchor=50.0)  # outside the box
    with pytest.raises(DomainError):
        exact_green_kernel_1d(m, 0.3, 0.3, 0.1)
