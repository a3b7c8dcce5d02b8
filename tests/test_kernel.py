"""Bessel backend, exact constant-potential kernel, and leading assembly.

The deviation table has a closed form from the Hankel expansion of K_nu,
nu = d/2, kappa = sqrt(1 - E^2).  In d = 3 the series ends at second order:

    |R(h) - 1| = (3 - E^2)/(2 kappa r) h + h^2 / r^2,

which the sweep must reproduce digit for digit on a constant potential.
In d = 2 it does not end:

    R(h) - 1 = (5 - 2E^2)/(8 kappa r) h
               + (42 - 72E^2)/(256 kappa^2 r^2) h^2 + O(h^3),

0.66875 h + 0.098145 h^2 at E = -0.6, r = 1, which the frozen d = 2 table
follows.  Acceptance criterion 3 asserts the same expansion.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from diracgreen.clifford import (SIGMA_1, SIGMA_3, DomainError,
                                 build_dirac_rep, projector)
from diracgreen.dop853 import NumericalError
from diracgreen.geoflow import shoot_geodesic
from diracgreen.kernel import (KernelEstimate, bessel_K,
                               bessel_K_prime, constant_V_exact,
                               leading_kernel_1d, leading_kernel_multid,
                               loglog_slope, positive_potential_kernel,
                               ratio_sweep, scalar_ratio)
from diracgreen.potential import make_potential
from diracgreen.selfcheck import bessel_K_oracle
from diracgreen.transport import rotation_1d, theta_1d, transport_matrix

RHO_GRID = (0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0, 10.0, 25.0, 50.0)
K_HALF_AT_2 = 0.11993777196806145   # sqrt(pi/4) e^(-2)


# ------------------------------------------------------------------ bessel

@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
def test_bessel_matches_quadrature_oracle(nu):
    for rho in RHO_GRID:
        ref = bessel_K_oracle(nu, rho)
        assert bessel_K(nu, rho) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_bessel_half_order_closed_form():
    assert bessel_K(0.5, 2.0) == pytest.approx(K_HALF_AT_2, rel=1e-15, abs=0.0)
    assert K_HALF_AT_2 == pytest.approx(math.sqrt(math.pi / 4.0) * math.exp(-2.0),
                                        rel=1e-15, abs=0.0)
    for rho in (0.7, 3.0):
        assert bessel_K(1.5, rho) == pytest.approx(
            bessel_K(0.5, rho) * (1.0 + 1.0 / rho), rel=1e-15, abs=0.0)


# (K_0, K_1) on RHO_GRID from 40-digit mpmath.besselk, rounded to 17 digits
K01_FROZEN = (
    (0.92441907122766587, 1.6564411200033009),
    (0.42102443824070834, 0.60190723019723458),
    (0.12884597927604749, 0.15966015303266762),
    (0.11389387274953344, 0.13986588181652243),
    (0.10078374088996693, 0.12274641153350789),
    (0.034739504386279249, 0.040156431128194184),
    (0.0036910983340425942, 0.0040446134454521646),
    (1.778006231616765e-05, 1.8648773453825585e-05),
    (3.4641615622131143e-12, 3.5327780731999337e-12),
    (3.4101677497894956e-23, 3.4441022267175555e-23),
)


@pytest.mark.parametrize("rho, k01", zip(RHO_GRID, K01_FROZEN))
def test_bessel_integer_orders_to_roundoff(rho, k01):
    assert bessel_K(0.0, rho) == pytest.approx(k01[0], rel=1e-15, abs=0.0)
    assert bessel_K(1.0, rho) == pytest.approx(k01[1], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("rho", [1.5, 4.0])
def test_bessel_derivative_against_finite_differences(nu, rho):
    step = 1e-6
    fd = (bessel_K(nu, rho + step) - bessel_K(nu, rho - step)) / (2.0 * step)
    assert bessel_K_prime(nu, rho) == pytest.approx(fd, rel=1e-8)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_K(0.0, 0.0)
    with pytest.raises(DomainError):
        bessel_K(0.25, 1.0)
    with pytest.raises(DomainError):
        bessel_K_prime(2.0, 1.0)
    with pytest.raises(DomainError):
        bessel_K_oracle(0.5, -1.0)


# ------------------------------------------------- exact constant potential

def test_exact_kernel_1d_collapse():
    """d = 1 reduces to (2 kappa h)^(-1) (i kappa sigma_1 u + sigma_3 - E) e^(-kr/h)."""
    rep = build_dirac_rep(1)
    e, h, r = -0.6, 0.1, 1.0
    kappa = 0.8
    got = constant_V_exact(rep, e, [0.5], [-0.5], h)
    expected = (math.exp(-kappa * r / h) / (2.0 * kappa * h)
                * (1j * kappa * SIGMA_1 + SIGMA_3 - e * np.eye(2)))
    np.testing.assert_allclose(got, expected, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_kernel_adjoint_symmetry(dim):
    rep = build_dirac_rep(dim)
    x = np.array([0.7, -0.2, 0.4])[:dim]
    y = np.array([-0.5, 0.3, -0.1])[:dim]
    fwd = constant_V_exact(rep, -0.55, x, y, 0.08)
    rev = constant_V_exact(rep, -0.55, y, x, 0.08)
    assert np.linalg.norm(fwd.conj().T - rev) / np.linalg.norm(fwd) <= 1e-13


def test_exact_kernel_domain_errors():
    rep = build_dirac_rep(2)
    with pytest.raises(DomainError):
        constant_V_exact(rep, -1.0, [1.0, 0.0], [0.0, 0.0], 0.1)
    with pytest.raises(DomainError):
        constant_V_exact(rep, -0.5, [1.0, 0.0], [0.0, 0.0], 0.0)
    with pytest.raises(DomainError):
        constant_V_exact(rep, -0.5, [1.0, 0.0], [1.0, 0.0], 0.1)
    with pytest.raises(DomainError):
        constant_V_exact(build_dirac_rep(4), -0.5, np.ones(4), np.zeros(4), 0.1)


# ------------------------------------------------------------ leading term

def test_leading_kernel_prefactor_structure():
    """log(prefactor) + d_A/h + d log h + (d-1)/2 log(2 pi d_A/h) is h-free."""
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    rep = build_dirac_rep(2)
    geo = shoot_geodesic(m, [-1.0, -0.3], [1.0, 0.4])
    values = []
    for h in (0.2, 0.1, 0.05, 0.025):
        est = leading_kernel_multid(m, rep, geo, h)
        values.append(math.log(est.prefactor) + est.agmon / h + 2.0 * math.log(h)
                      + 0.5 * math.log(2.0 * math.pi * est.agmon / h))
    assert max(values) - min(values) <= 1e-12
    est = leading_kernel_multid(m, rep, geo, 0.1)
    np.testing.assert_allclose(est.matrix, est.prefactor * est.amplitude, rtol=1e-15)
    assert est.left_identity_residual <= 1e-8


def test_leading_kernel_constant_amplitude():
    # constant potential: U = 1, amplitude = (-E) P_plus(i p0)
    m = make_potential(3, "constant", {"value": -0.6})
    rep = build_dirac_rep(3)
    geo = shoot_geodesic(m, [-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    est = leading_kernel_multid(m, rep, geo, 0.1)
    expected = 0.6 * projector(rep, 1j * geo.p0).lambda_plus
    assert np.linalg.norm(est.amplitude - expected) <= 1e-9
    pref = (0.8 * math.exp(-8.0) * 1e3 / (2.0 * math.pi * 8.0))
    assert est.prefactor == pytest.approx(pref, rel=1e-8)


def test_leading_kernel_1d_rotation_route():
    """The 1D kernel, built from the transported U, matches the closed-form rotation route."""
    m = make_potential(1, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    rep = build_dirac_rep(1)
    est = leading_kernel_1d(m, rep, 1.0, -1.0, 0.1)
    assert isinstance(est, KernelEstimate)
    assert est.left_identity_residual <= 1e-9
    geo = shoot_geodesic(m, [-1.0], [1.0])
    closed, _ = transport_matrix(m, rep, geo, rotation_1d(rep, theta_1d(m, -1.0, 1.0)))
    assert np.linalg.norm(est.amplitude - closed) <= 1e-12 * np.linalg.norm(closed)
    assert leading_kernel_multid(m, rep, geo, 0.1).prefactor == est.prefactor
    with pytest.raises(DomainError):
        leading_kernel_1d(make_potential(2, "bump_well",
                                         {"base": -0.6, "depth": 0.3, "radius": 2.0}),
                          build_dirac_rep(2), 1.0, -1.0, 0.1)


# ------------------------------------------------------------- ratio sweeps

def test_ratio_sweep_1d_is_exact():
    """In 1D 'leading' and exact coincide; the ratio must sit at 1."""
    rep = build_dirac_rep(1)
    sweep = ratio_sweep(rep, -0.6, [0.5], [-0.5], [0.2, 0.1, 0.05])
    assert max(sweep.deviations) <= 1e-9
    assert sweep.det_exp_prime == 1.0


def test_ratio_sweep_3d_first_order_remainder():
    rep = build_dirac_rep(3)
    h_list = [0.2, 0.1, 0.05, 0.025]
    sweep = ratio_sweep(rep, -0.6, [0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], h_list)
    for h, dev in zip(h_list, sweep.deviations):
        expected = (3.0 - 0.36) / (2.0 * 0.8) * h + h * h
        assert dev == pytest.approx(expected, rel=1e-6)
    assert sweep.slope == pytest.approx(1.0472, abs=2e-3)
    assert 0.8 <= sweep.slope <= 1.2


def test_ratio_sweep_2d_frozen_deviations():
    rep = build_dirac_rep(2)
    sweep = ratio_sweep(rep, -0.6, [0.5, 0.0], [-0.5, 0.0], [0.2, 0.1, 0.05, 0.025])
    np.testing.assert_allclose(sweep.deviations,
                               [0.137740, 0.067868, 0.033685, 0.016780],
                               rtol=1e-4)
    assert 0.8 <= sweep.slope <= 1.2
    assert sweep.agmon == pytest.approx(0.8, rel=1e-10)


def test_ratio_sweep_input_validation():
    rep = build_dirac_rep(1)
    with pytest.raises(DomainError):
        ratio_sweep(rep, 0.5, [0.5], [-0.5], [0.2, 0.1])
    with pytest.raises(DomainError):
        ratio_sweep(rep, -1.5, [0.5], [-0.5], [0.2, 0.1])
    with pytest.raises(DomainError):
        ratio_sweep(rep, -0.6, [0.5], [-0.5], [0.2])
    with pytest.raises(DomainError):
        ratio_sweep(rep, -0.6, [0.5], [-0.5], [0.2, -0.1])


def test_scalar_ratio_rejects_degenerate_leading_matrix():
    ref = np.eye(2, dtype=complex)
    assert scalar_ratio(2.0 * ref, ref) == 0.5
    with pytest.raises(NumericalError):
        scalar_ratio(np.zeros((2, 2), dtype=complex), ref)
    with pytest.raises(NumericalError):   # both kernels underflowed
        scalar_ratio(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NumericalError):
        scalar_ratio(1e-15 * ref, ref)


def test_loglog_slope_fit_and_undefined_cases():
    h_list = [0.2, 0.1, 0.05]
    assert loglog_slope(h_list, [3.0 * h * h for h in h_list]) == pytest.approx(2.0, abs=1e-12)
    assert loglog_slope(h_list, [0.1, 0.0, 0.01]) == 0.0   # zero deviation
    assert loglog_slope([0.1], [0.3]) == 0.0


def test_loglog_slope_of_roundoff_is_zero():
    """A sweep whose deviations are all round-off fits no slope; the bump's sweep keeps its own.

    Round-off deviations, as validate1d's constant well gives, once fitted
    a slope of -1.142 to 17 digits.  The bump's golden validate1d sweep
    (deviations of order h) keeps the least-squares slope it publishes.
    """
    h_list = [0.2, 0.1, 0.05, 0.025]
    assert loglog_slope(h_list, [1.2e-15, 2.2e-16, 1.4e-14, 3.3e-16]) == 0.0
    assert loglog_slope(h_list, [1e-12, 1e-12, 1e-12, 1e-15]) == 0.0
    lines = (Path(__file__).parent / "data" / "validate1d_bump.csv").read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:3]]
    h_bump, devs = [row[0] for row in rows], [row[4] for row in rows]
    slope = loglog_slope(h_bump, devs)
    assert slope == float(np.polyfit(np.log(h_bump), np.log(devs), 1)[0]) > 0.8
    assert lines[3].startswith("# slope = ") and float(lines[3][10:]) == slope


# ------------------------------------------------------ upper-gap reduction

def test_positive_potential_kernel_matches_continued_closed_form():
    """V = +0.6: the sign-reduced assembly equals the closed form at E = +0.6."""
    rep = build_dirac_rep(1)
    m = make_potential(1, "constant", {"value": 0.6})
    est = positive_potential_kernel(m, rep, [0.5], [-0.5], 0.1)
    expected = constant_V_exact(rep, 0.6, [0.5], [-0.5], 0.1)
    assert np.linalg.norm(est.matrix - expected) / np.linalg.norm(expected) <= 1e-12


def test_positive_potential_prefactor_mirror():
    # the decay data of the reduced run equal those of the mirrored lower-gap run
    rep = build_dirac_rep(1)
    pos = positive_potential_kernel(make_potential(1, "constant", {"value": 0.6}),
                                    rep, [0.5], [-0.5], 0.1)
    neg = leading_kernel_1d(make_potential(1, "constant", {"value": -0.6}),
                            rep, 0.5, -0.5, 0.1)
    assert pos.prefactor == neg.prefactor
    assert pos.agmon == pytest.approx(neg.agmon, rel=1e-12)


def test_positive_potential_multid_path():
    rep = build_dirac_rep(2)
    m = make_potential(2, "bump_well", {"base": 0.6, "depth": -0.3, "radius": 2.0})
    est = positive_potential_kernel(m, rep, [1.0, 0.4], [-1.0, -0.3], 0.1)
    assert est.left_identity_residual <= 1e-8
    s = np.linalg.svd(est.amplitude, compute_uv=False)
    assert s[1] <= 1e-9 * s[0]


def test_positive_potential_rejects_lower_gap_input():
    rep = build_dirac_rep(1)
    m = make_potential(1, "constant", {"value": -0.6})
    with pytest.raises(DomainError):
        positive_potential_kernel(m, rep, [0.5], [-0.5], 0.1)
