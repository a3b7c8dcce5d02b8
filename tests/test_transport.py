"""Spinor transport along orbits and the projected amplitude matrix."""

import math

import numpy as np
import pytest

from diracgreen import transport
from diracgreen.clifford import (SIGMA_1, SIGMA_3, DomainError,
                                 build_dirac_rep, negate_rep, projector)
from diracgreen.geoflow import NumericalError, shoot_geodesic
from diracgreen.potential import make_potential
from diracgreen.transport import (rotation_1d, solve_spinor_transport,
                                  theta_1d, transport_matrix)

TANH = {"base": -0.5, "amp": 0.2}
BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}

# frozen: 0.5 * (asin(-0.7) - asin(-0.3)) across the full tanh step
THETA_TANH_FULL = -0.23535242129767772


def shoot(model, y, x):
    return shoot_geodesic(model, y, x)


def test_transport_is_identity_for_constant_potential():
    m = make_potential(2, "constant", {"value": -0.6})
    geo = shoot(m, [-0.5, 0.0], [0.5, 0.0])
    rep = build_dirac_rep(2)
    res = solve_spinor_transport(m, rep, geo.trajectory)
    np.testing.assert_allclose(res.u_matrix, np.eye(2), atol=1e-12)
    assert res.unitarity_defect <= 1e-12


@pytest.mark.parametrize("dim,y,x", [
    (1, [-1.0], [1.0]),
    (2, [-1.0, -0.3], [1.0, 0.4]),
    (3, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
])
def test_transport_unitarity_before_projection(dim, y, x):
    m = make_potential(dim, "bump_well", BUMP)
    rep = build_dirac_rep(dim)
    geo = shoot(m, y, x)
    res = solve_spinor_transport(m, rep, geo.trajectory)
    assert res.unitarity_defect <= 1e-9
    eye = np.eye(rep.dstar)
    assert np.linalg.norm(res.u_matrix.conj().T @ res.u_matrix - eye) <= 1e-9


def test_transport_unitarity_defect_raises(monkeypatch):
    """A defect above the tolerance is a solver failure, not something to repair."""
    m = make_potential(1, "bump_well", BUMP)
    rep = build_dirac_rep(1)
    geo = shoot(m, [-1.0], [1.0])
    defect = solve_spinor_transport(m, rep, geo.trajectory).unitarity_defect
    assert 0.0 < defect <= 1e-9
    monkeypatch.setattr(transport, "_UNITARITY_TOL", defect / 2.0)
    with pytest.raises(NumericalError, match="spinor transport lost unitarity"):
        solve_spinor_transport(m, rep, geo.trajectory)


def test_theta_closed_form_frozen_value():
    m = make_potential(1, "tanh_step", TANH)
    assert theta_1d(m, -19.5, 19.5) == pytest.approx(THETA_TANH_FULL, abs=1e-15)
    # traversal direction does not enter
    assert theta_1d(m, 19.5, -19.5) == theta_1d(m, -19.5, 19.5)
    with pytest.raises(DomainError):
        theta_1d(make_potential(2, "bump_well", BUMP), -1.0, 1.0)


def test_transported_theta_matches_closed_form():
    m = make_potential(1, "tanh_step", TANH)
    geo = shoot(m, [-1.0], [1.0])
    rep = build_dirac_rep(1)
    res = solve_spinor_transport(m, rep, geo.trajectory)
    u_closed = rotation_1d(rep, theta_1d(m, -1.0, 1.0))
    assert np.linalg.norm(res.u_matrix - u_closed) <= 1e-11


def test_theta_reversal_invariance_through_flow():
    """The transport, like theta_1d, does not depend on the traversal direction."""
    m = make_potential(1, "tanh_step", TANH)
    rep = build_dirac_rep(1)
    u_fwd, u_rev = (solve_spinor_transport(m, rep, shoot(m, y, x).trajectory).u_matrix
                    for y, x in (([-1.0], [1.0]), ([1.0], [-1.0])))
    assert np.linalg.norm(u_fwd - u_rev) <= 1e-11


def test_rotation_closed_form_shape_guard():
    rep3 = build_dirac_rep(3)
    with pytest.raises(DomainError):
        rotation_1d(rep3, 0.1)
    rep1 = build_dirac_rep(1)
    u = rotation_1d(rep1, 0.3)
    expected = math.cos(0.3) * np.eye(2) - 1j * math.sin(0.3) * SIGMA_1
    assert np.array_equal(u, expected)


def test_amplitude_matrix_constant_1d_frozen():
    """Free case: U = 1 and M = 0.3 I + 0.4i sigma_1 + 0.5 sigma_3 exactly."""
    m = make_potential(1, "constant", {"value": -0.6})
    geo = shoot(m, [-0.5], [0.5])
    rep = build_dirac_rep(1)
    res = solve_spinor_transport(m, rep, geo.trajectory)
    mat, residual = transport_matrix(m, rep, geo, res.u_matrix)
    expected = 0.3 * np.eye(2) + 0.4j * SIGMA_1 + 0.5 * SIGMA_3
    np.testing.assert_allclose(mat, expected, atol=1e-10)
    assert residual <= 1e-10


@pytest.mark.parametrize("dim,y,x", [
    (1, [-1.0], [1.0]),
    (2, [-1.0, -0.3], [1.0, 0.4]),
    (3, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
])
def test_amplitude_left_identity_and_rank(dim, y, x):
    m = make_potential(dim, "bump_well", BUMP)
    rep = build_dirac_rep(dim)
    geo = shoot(m, y, x)
    res = solve_spinor_transport(m, rep, geo.trajectory)
    mat, residual = transport_matrix(m, rep, geo, res.u_matrix)
    assert residual <= 1e-8
    # half rank: the projection kills the lower branch
    s = np.linalg.svd(mat, compute_uv=False)
    k = rep.dstar // 2
    assert s[k - 1] > 1e-3
    assert s[k] <= 1e-9 * s[0]
    # annihilation from the right by the complementary projection
    lam_minus = projector(rep, 1j * geo.p0).lambda_minus
    assert np.linalg.norm(mat @ lam_minus) <= 1e-9


def test_amplitude_adjoint_symmetry():
    """M(x, y)* equals M(y, x) up to transport accuracy."""
    m = make_potential(2, "bump_well", BUMP)
    rep = build_dirac_rep(2)
    fwd = shoot(m, [-1.0, -0.3], [1.0, 0.4])
    rev = shoot(m, [1.0, 0.4], [-1.0, -0.3])
    mf, _ = transport_matrix(m, rep, fwd,
                             solve_spinor_transport(m, rep, fwd.trajectory).u_matrix)
    mr, _ = transport_matrix(m, rep, rev,
                             solve_spinor_transport(m, rep, rev.trajectory).u_matrix)
    assert np.linalg.norm(mf.conj().T - mr) / np.linalg.norm(mf) <= 1e-8


def test_reversed_transport_dyson_identity():
    """alpha_0 U_rev(tau) = U(tau)* alpha_0 for the reversed orbit."""
    m = make_potential(2, "bump_well", BUMP)
    rep = build_dirac_rep(2)
    fwd = shoot(m, [-1.0, -0.3], [1.0, 0.4])
    rev = shoot(m, [1.0, 0.4], [-1.0, -0.3])
    uf = solve_spinor_transport(m, rep, fwd.trajectory).u_matrix
    ur = solve_spinor_transport(m, rep, rev.trajectory).u_matrix
    assert np.linalg.norm(rep.alpha0 @ ur - uf.conj().T @ rep.alpha0) <= 1e-9


def test_transport_accepts_negated_representation():
    # the sign-reduction path feeds negated matrices through the same solver
    m = make_potential(1, "bump_well", BUMP)
    rep = negate_rep(build_dirac_rep(1))
    geo = shoot(m, [-1.0], [1.0])
    res = solve_spinor_transport(m, rep, geo.trajectory)
    assert res.unitarity_defect <= 1e-9
    u_closed = rotation_1d(rep, theta_1d(m, -1.0, 1.0))
    assert np.linalg.norm(res.u_matrix - u_closed) <= 1e-9
