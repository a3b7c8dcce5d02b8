"""Dirac matrix construction and non-hermitian projector algebra."""

import numpy as np
import pytest

from diracgreen.clifford import (SIGMA_1, SIGMA_2, SIGMA_3, DomainError,
                                 build_dirac_rep, clifford_residual,
                                 dirac_symbol, lambda_branches, negate_rep,
                                 principal_sqrt, projector)


def random_zeta(rng, d, im_scale=0.9):
    zim = rng.uniform(-1.0, 1.0, d)
    zim *= im_scale * rng.uniform(0.1, 1.0) / max(np.linalg.norm(zim), 1e-12)
    return rng.uniform(-2.0, 2.0, d) + 1j * zim


@pytest.mark.parametrize("d,dstar", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (6, 8)])
def test_representation_size_and_relations(d, dstar):
    rep = build_dirac_rep(d)
    assert rep.dstar == dstar
    assert len(rep.alphas) == d
    assert clifford_residual(rep) <= 1e-14


def test_low_dimension_seeds_are_pauli():
    rep1 = build_dirac_rep(1)
    assert np.array_equal(rep1.alphas[0], SIGMA_1)
    assert np.array_equal(rep1.alpha0, SIGMA_3)
    rep2 = build_dirac_rep(2)
    assert np.array_equal(rep2.alphas[1], SIGMA_2)


def test_standard_3d_blocks():
    rep = build_dirac_rep(3)
    assert np.array_equal(rep.alpha0, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    for a, s in zip(rep.alphas, (SIGMA_1, SIGMA_2, SIGMA_3)):
        assert np.array_equal(a[:2, 2:], s)
        assert np.array_equal(a[2:, :2], s)
        assert np.all(a[:2, :2] == 0) and np.all(a[2:, 2:] == 0)


def test_bad_dimension_rejected():
    with pytest.raises(DomainError):
        build_dirac_rep(0)
    with pytest.raises(DomainError):
        build_dirac_rep(2.5)


def test_negate_rep_is_valid_and_flips_everything():
    rep = build_dirac_rep(3)
    neg = negate_rep(rep)
    assert clifford_residual(neg) <= 1e-14
    assert np.array_equal(neg.alpha0, -rep.alpha0)
    for a, na in zip(rep.alphas, neg.alphas):
        assert np.array_equal(na, -a)


def test_alpha_dot_shape_check():
    rep = build_dirac_rep(2)
    with pytest.raises(DomainError):
        rep.alpha_dot([1.0, 2.0, 3.0])


def test_principal_sqrt_values():
    assert principal_sqrt(4.0) == 2.0
    val = principal_sqrt(2.0j)
    assert abs(val - (1.0 + 1.0j)) <= 1e-15
    assert principal_sqrt(-1.0 + 1e-12j).real > 0.0


def test_principal_sqrt_slit_rejected():
    with pytest.raises(DomainError):
        principal_sqrt(-1.0)
    with pytest.raises(DomainError):
        principal_sqrt(-2.5 + 0.0j)
    with pytest.raises(DomainError):
        principal_sqrt(0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_projector_algebra_random_momenta(d):
    """Idempotency, splitting, and involution of S over seeded draws."""
    rep = build_dirac_rep(d)
    rng = np.random.default_rng(42 + d)
    eye = np.eye(rep.dstar)
    for _ in range(100):
        pr = projector(rep, random_zeta(rng, d))
        lp, lm = pr.lambda_plus, pr.lambda_minus
        assert np.linalg.norm(lp + lm - eye) <= 1e-12
        assert np.linalg.norm(lp @ lp - lp) <= 1e-12
        assert np.linalg.norm(lm @ lm - lm) <= 1e-12
        assert np.linalg.norm(lp @ lm) <= 1e-12
        assert np.linalg.norm(pr.s_matrix @ pr.s_matrix - eye) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_projector_eigen_relation(d):
    rep = build_dirac_rep(d)
    rng = np.random.default_rng(7 * d + 1)
    for _ in range(25):
        zeta = random_zeta(rng, d)
        v = float(rng.uniform(-0.9, -0.1))
        lam_p, lam_m = lambda_branches(zeta, v)
        symbol = dirac_symbol(rep, zeta, v)
        pr = projector(rep, zeta)
        assert np.linalg.norm(symbol @ pr.lambda_plus - lam_p * pr.lambda_plus) <= 1e-12
        assert np.linalg.norm(symbol @ pr.lambda_minus - lam_m * pr.lambda_minus) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_projector_trace_is_half_rank(d):
    rep = build_dirac_rep(d)
    rng = np.random.default_rng(d)
    for _ in range(20):
        pr = projector(rep, random_zeta(rng, d))
        assert abs(np.trace(pr.lambda_plus) - rep.dstar / 2.0) <= 1e-12
        assert abs(np.trace(pr.lambda_minus) - rep.dstar / 2.0) <= 1e-12


def test_projector_purely_imaginary_momentum():
    # the arrival-momentum case zeta = i p with |p| < 1
    rep = build_dirac_rep(3)
    p = np.array([0.3, -0.5, 0.4])
    pr = projector(rep, 1j * p)
    root = np.sqrt(1.0 - float(p @ p))
    s_expected = (1j * rep.alpha_dot(p) + rep.alpha0) / root
    assert np.linalg.norm(pr.s_matrix - s_expected) <= 1e-14


def test_projector_domain_limits():
    rep = build_dirac_rep(2)
    with pytest.raises(DomainError):
        projector(rep, np.array([1.0j, 0.0]))      # |Im zeta| = 1
    with pytest.raises(DomainError):
        projector(rep, np.array([0.5, 0.5, 0.5]))  # wrong length
    # on-slit square root through lambda_branches
    with pytest.raises(DomainError):
        lambda_branches(np.array([2.0j, 0.0]), -0.5)
