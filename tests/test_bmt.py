"""Two-spinor reduction in 3D: frames, precession, and route equivalence."""

import math

import numpy as np
import pytest

from diracgreen import bmt
from diracgreen.clifford import (SIGMA_1, SIGMA_2, SIGMA_3, DomainError, build_dirac_rep,
                                 negate_rep, projector)
from diracgreen.bmt import (build_W, equivalence_check, left_factor,
                            solve_bmt_spin, spin_generator)
from diracgreen.dop853 import solve_ivp
from diracgreen.geoflow import shoot_geodesic
from diracgreen.potential import make_potential
from diracgreen.transport import solve_spinor_transport

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}
Y_OFF = [-1.0, -0.3, 0.2]
X_OFF = [1.0, 0.4, -0.2]


def bump3():
    return make_potential(3, "bump_well", BUMP)


def test_frame_frozen_example():
    """V = -0.6, p = 0.8 e_3: W = (1.92)^(-1/2) [1.6 I ; 0.8i sigma_3]."""
    w = build_W(-0.6, [0.0, 0.0, 0.8])
    c = 1.0 / math.sqrt(1.92)
    expected = np.zeros((4, 2), dtype=complex)
    expected[0, 0] = expected[1, 1] = 1.6 * c
    expected[2, 0] = 0.8j * c
    expected[3, 1] = -0.8j * c
    np.testing.assert_allclose(w, expected, atol=1e-15)


def test_frame_identities_random_shell_momenta():
    rep = build_dirac_rep(3)
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = float(rng.uniform(-0.9, -0.1))
        n = rng.normal(size=3)
        p = math.sqrt(1.0 - v * v) * n / np.linalg.norm(n)
        w = build_W(v, p)
        np.testing.assert_allclose(w.conj().T @ w, (-1.0 / v) * np.eye(2), atol=1e-13)
        lam = projector(rep, 1j * p).lambda_plus
        assert np.linalg.norm(lam @ w - w) <= 1e-12
        w_l = left_factor(lam, w)
        assert np.linalg.norm(w_l @ w - np.eye(2)) <= 1e-12
        assert np.linalg.norm(w @ w_l - lam) <= 1e-10


def test_frame_input_validation():
    with pytest.raises(DomainError):
        build_W(0.5, [0.0, 0.0, math.sqrt(0.75)])
    with pytest.raises(DomainError):
        build_W(-0.6, [0.0, 0.0, 0.5])           # off shell
    with pytest.raises(DomainError):
        build_W(-0.6, [0.8, 0.0])


def test_generator_is_hermitian_and_traceless():
    m = bump3()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 3)
        p = rng.uniform(-0.5, 0.5, 3)
        gen = spin_generator(m, x, p)
        assert np.linalg.norm(gen - gen.conj().T) <= 1e-14
        assert abs(np.trace(gen)) <= 1e-14


def test_constant_potential_spin_is_identity():
    m = make_potential(3, "constant", {"value": -0.6})
    geo = shoot_geodesic(m, [-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    spin = solve_bmt_spin(m, geo.trajectory)
    np.testing.assert_allclose(spin.s_matrix, np.eye(2), atol=1e-10)
    assert spin.bmt2_residual <= 1e-10
    assert spin.norm_drift <= 1e-12


def test_spin_transport_quality_off_axis_bump(d3_bump_fan):
    m = bump3()
    geo = d3_bump_fan
    spin = solve_bmt_spin(m, geo.trajectory)
    assert spin.unitarity_defect <= 1e-9
    assert spin.norm_drift <= 1e-9
    # finite-differenced Bloch path against its precession equation
    assert spin.bmt2_residual <= 1e-6
    assert spin.times.shape == (201,)
    assert spin.bloch.shape == (201, 3)
    np.testing.assert_allclose(np.linalg.norm(spin.bloch, axis=1), 1.0, atol=1e-9)


def test_spin_samples_match_pointwise_formulas(monkeypatch):
    """The grid pass gives, bit for bit, the Bloch vector and BMT residual of one sample.

    Checked at both clamped ends of the finite-difference stencil, their
    neighbours and the middle.
    """
    solves = []

    def recording_solve_ivp(*args, **kwargs):
        solves.append(solve_ivp(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(bmt, "solve_ivp", recording_solve_ivp)
    m = bump3()
    traj = shoot_geodesic(m, Y_OFF, X_OFF).trajectory
    u0 = np.array([1.0, 0.0])   # the carried spinor of every solve
    spin = solve_bmt_spin(m, traj)
    (sol,) = solves

    def bloch_at(t):
        u = sol.sol(t).reshape(2, 2) @ u0
        return np.array([float((u.conj() @ (s @ u)).real) for s in (SIGMA_1, SIGMA_2, SIGMA_3)])

    delta = 1e-5 * max(traj.tau, 1.0)
    for i in (0, 1, 100, 199, 200):
        t = spin.times[i]
        assert np.array_equal(spin.bloch[i], bloch_at(t))
        t_c = min(max(t, delta), traj.tau - delta)
        lhs = (bloch_at(t_c + delta) - bloch_at(t_c - delta)) / (2.0 * delta)
        x, p = traj.phase(t_c)
        v, grad, _ = m.evaluate(x)
        rhs = (np.cross(bloch_at(t_c), np.cross(-grad, p))
               / (-v * (1.0 - v)))
        assert spin.residual_path[i] == np.linalg.norm(lhs - rhs)


@pytest.mark.parametrize("kind,params,y,x", [
    ("bump_well", BUMP, Y_OFF, X_OFF),
    ("cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5},
     [-1.1, 0.3, -0.2], [0.9, -0.3, 0.3]),
], ids=["bump", "cosine"])
def test_spin_rhs_is_the_generator_product(monkeypatch, kind, params, y, x):
    """The spin solve's right-hand side, in Python complex, is i M s with M from
    spin_generator within 4 ulp of the product's largest entry, at 200 times along
    the orbit and a random s."""
    rhs = []

    def recording_solve_ivp(fun, *args, **kwargs):
        rhs.append(fun)
        return solve_ivp(fun, *args, **kwargs)

    monkeypatch.setattr(bmt, "solve_ivp", recording_solve_ivp)
    m = make_potential(3, kind, params)
    traj = shoot_geodesic(m, y, x, multistart=1).trajectory
    solve_bmt_spin(m, traj)
    rng = np.random.default_rng(7)
    for t in np.linspace(0.0, traj.tau, 200).tolist():
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = (1j * spin_generator(m, *traj.phase_at(t)) @ s).ravel()
        got = np.asarray(rhs[0](t, s.ravel()))
        assert got.shape == (4,)
        big = np.abs(want).max()
        assert np.abs(got - want).max() <= 4.0 * np.spacing(big), (t, got, want)


def test_spin_transport_is_3d_only(d2_bump_fan):
    m = make_potential(2, "bump_well", BUMP)
    geo = d2_bump_fan
    with pytest.raises(DomainError):
        solve_bmt_spin(m, geo.trajectory)


def test_equivalence_left_inverse_pairing(d3_bump_fan):
    """The hermitian pairing reproduces the four-spinor transport."""
    m = bump3()
    rep = build_dirac_rep(3)
    geo = d3_bump_fan
    report = equivalence_check(m, rep, geo, solve_bmt_spin(m, geo.trajectory))
    assert report.passed
    assert report.best == "left_inverse"
    assert report.residual_left_inverse <= 1e-6
    assert abs(report.scalar_left_inverse - 1.0) <= 1e-6
    # the plain transpose fails once the momentum has a second component
    assert report.residual_transpose > 1e-3


def test_equivalence_transpose_pairing_in_a_plane():
    """With p_2 = 0 along the whole orbit both pairings coincide."""
    m = bump3()
    rep = build_dirac_rep(3)
    geo = shoot_geodesic(m, [-1.0, 0.0, 0.3], [1.0, 0.0, -0.2])
    assert abs(geo.p0[1]) <= 1e-9   # the orbit stays in the x1-x3 plane
    report = equivalence_check(m, rep, geo, solve_bmt_spin(m, geo.trajectory))
    assert report.passed
    assert report.residual_left_inverse <= 1e-6
    assert report.residual_transpose <= 1e-6


def test_equivalence_requires_standard_rep(d3_bump_fan):
    m = bump3()
    geo = d3_bump_fan
    spin = solve_bmt_spin(m, geo.trajectory)
    with pytest.raises(DomainError):
        equivalence_check(m, negate_rep(build_dirac_rep(3)), geo, spin)
    with pytest.raises(DomainError):
        equivalence_check(m, build_dirac_rep(2), geo, spin)


def test_equivalence_reuses_precomputed_pieces(d3_bump_fan):
    m = bump3()
    rep = build_dirac_rep(3)
    geo = d3_bump_fan
    transport = solve_spinor_transport(m, rep, geo.trajectory)
    spin = solve_bmt_spin(m, geo.trajectory)
    report = equivalence_check(m, rep, geo, spin=spin, transport=transport)
    assert report.passed
