"""Acceptance gate: ten end-to-end criteria, one test and one verdict each.

Each test prints `criterion N: PASS|FAIL (detail)` before asserting, so the
captured output carries the measured numbers either way.  Tolerances and
runtime budgets are pinned; nothing here is tuned to the implementation.
"""

import math
import time

import numpy as np
import pytest

from diracgreen.bmt import equivalence_check, solve_bmt_spin
from diracgreen.clifford import (build_dirac_rep, clifford_residual,
                                 dirac_symbol, lambda_branches, projector)
from diracgreen.geoflow import (exp_inverse_from_geodesic, exp_prime_fd,
                                integrate_flow, shoot_geodesic)
from diracgreen.kernel import (constant_V_exact, leading_kernel_1d,
                               leading_kernel_multid,
                               positive_potential_kernel, ratio_sweep)
from diracgreen.oracle1d import exact_green_kernel_1d
from diracgreen.potential import make_potential
from diracgreen.transport import rotation_1d, solve_spinor_transport, theta_1d

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}
COSINE = {"base": -0.55, "depth": 0.35, "radius": 2.5}
TANH_MILD = {"base": -0.5, "amp": 0.2}
TANH_STEEP = {"base": -0.6, "amp": 0.3}

# three potential/endpoint configurations per dimension, shared by 6-8
CONFIGS = {
    1: [("bump", "bump_well", BUMP, [-1.0], [1.0]),
        ("tanh", "tanh_step", TANH_MILD, [-1.2], [0.8]),
        ("cosine", "cosine_well", COSINE, [-1.0], [1.3])],
    2: [("bump", "bump_well", BUMP, [-1.0, -0.3], [1.0, 0.4]),
        ("cosine", "cosine_well", COSINE, [-1.2, 0.2], [0.9, -0.4]),
        ("bump_b", "bump_well", BUMP, [-0.8, 0.7], [1.1, 0.3])],
    3: [("bump", "bump_well", BUMP, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
        ("cosine", "cosine_well", COSINE, [-1.1, 0.3, -0.2], [0.9, -0.3, 0.3]),
        ("bump_b", "bump_well", BUMP, [-0.9, 0.5, 0.1], [1.0, 0.2, -0.4])],
}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def solved():
    """Forward and reversed connections for every shared configuration."""
    cache = {}
    for d, rows in CONFIGS.items():
        for name, kind, params, y, x in rows:
            model = make_potential(d, kind, params)
            fwd = shoot_geodesic(model, y, x)
            rev = shoot_geodesic(model, x, y)
            cache[(d, name)] = (model, fwd, rev)
    return cache


def test_criterion_01_algebraic_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        rep = build_dirac_rep(d)
        worst = max(worst, clifford_residual(rep))
        rng = np.random.default_rng(100 + d)
        eye = np.eye(rep.dstar)
        for _ in range(20):
            zim = rng.uniform(-1.0, 1.0, d)
            zim *= 0.9 * rng.uniform(0.1, 1.0) / max(np.linalg.norm(zim), 1e-12)
            zeta = rng.uniform(-2.0, 2.0, d) + 1j * zim
            pr = projector(rep, zeta)
            lp, lm = pr.lambda_plus, pr.lambda_minus
            worst = max(worst,
                        np.linalg.norm(lp + lm - eye),
                        np.linalg.norm(lp @ lp - lp),
                        np.linalg.norm(lm @ lm - lm),
                        np.linalg.norm(lp @ lm),
                        np.linalg.norm(pr.s_matrix @ pr.s_matrix - eye))
            v = float(rng.uniform(-0.9, -0.1))
            lam_p, lam_m = lambda_branches(zeta, v)
            symbol = dirac_symbol(rep, zeta, v)
            worst = max(worst,
                        np.linalg.norm(symbol @ lp - lam_p * lp),
                        np.linalg.norm(symbol @ lm - lam_m * lm))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"max residual {worst:.3e}, {elapsed:.2f} s")


def test_criterion_02_1d_constant_exactness():
    t0 = time.perf_counter()
    rep = build_dirac_rep(1)
    worst_oracle = worst_closed = 0.0
    for e_value in (-0.3, -0.6, -0.9):
        model = make_potential(1, "constant", {"value": e_value})
        for r in (0.5, 1.0, 2.0):
            y, x = -0.5 * r, 0.5 * r
            geo = shoot_geodesic(model, [y], [x])
            for h in (0.2, 0.1, 0.05):
                lead = leading_kernel_1d(model, rep, x, y, h, geo=geo).matrix
                oracle = exact_green_kernel_1d(model, x, y, h)
                closed = constant_V_exact(rep, e_value, [x], [y], h)
                worst_oracle = max(worst_oracle,
                                   float(np.max(np.abs(lead - oracle) / np.abs(oracle))))
                worst_closed = max(worst_closed,
                                   float(np.max(np.abs(lead - closed) / np.abs(closed))))
    elapsed = time.perf_counter() - t0
    ok = worst_oracle <= 1e-9 and worst_closed <= 1e-9 and elapsed < 5.0
    assert report(2, ok, f"vs ode oracle {worst_oracle:.3e}, "
                         f"vs closed form {worst_closed:.3e}, {elapsed:.2f} s")


def _hankel_mu(nu, k):
    """Hankel coefficient of K_nu(z) ~ sqrt(pi/2z) e^-z sum_k mu_k z^-k (DLMF 10.40.2)."""
    num = 1.0
    for j in range(1, k + 1):
        num *= 4.0 * nu * nu - (2 * j - 1) ** 2
    return num / (math.factorial(k) * 8.0 ** k)


def _remainder_coefficients(d, e_value, r):
    """c1, c2 of R(h) = 1 + c1 h + c2 h^2 + O(h^3) for the constant kernel.

    With nu = d/2, kappa = sqrt(1-E^2) and the large-argument expansion of
    K_nu and K'_nu, the projection of the exact kernel on the leading term is

        R(h) - 1 = sum_k (a_k kappa^2 + b_k (1+E^2)) / (2 (kappa r)^k) h^k,
        b_k = mu_k(nu),
        a_1 = (mu_1(nu-1) + mu_1(nu+1))/2 + (nu-1),
        a_2 = (mu_2(nu-1) + mu_2(nu+1))/2 + (nu-1) mu_1(nu).
    """
    nu = d / 2.0
    kappa2 = 1.0 - e_value * e_value
    kr = math.sqrt(kappa2) * r
    a1 = (_hankel_mu(nu - 1, 1) + _hankel_mu(nu + 1, 1)) / 2.0 + (nu - 1.0)
    a2 = ((_hankel_mu(nu - 1, 2) + _hankel_mu(nu + 1, 2)) / 2.0
          + (nu - 1.0) * _hankel_mu(nu, 1))
    c1 = (a1 * kappa2 + _hankel_mu(nu, 1) * (1.0 + e_value ** 2)) / (2.0 * kr)
    c2 = (a2 * kappa2 + _hankel_mu(nu, 2) * (1.0 + e_value ** 2)) / (2.0 * kr * kr)
    return c1, c2


def test_criterion_03_constant_remainder_bound():
    """First-order remainder |R(h) - 1 - c1 h| <= 2 |c2| h^2, slope in [0.8, 1.2].

    R(h) is the exact constant-potential kernel projected on the leading
    term of the full pipeline, and R(h) = 1 + c1 h + c2 h^2 + O(h^3) with
    c1, c2 derived from the Hankel expansion of K_nu (see
    _remainder_coefficients).  At E = -0.6, r = 1 (kappa = 0.8):

        d = 2: c1 = (5 - 2E^2)/(8 kappa r) = 0.66875,
               c2 = (42 - 72E^2)/(256 kappa^2 r^2) = 0.098145;
        d = 3: c1 = (3 - E^2)/(2 kappa r) = 1.65,  c2 = 1/r^2 (series ends).

    The check is two-sided: a wrong first-order coefficient leaves a
    residual of order h that the h^2 allowance rejects at small h.
    """
    t0 = time.perf_counter()
    e_value = -0.6
    h_list = (0.2, 0.1, 0.05, 0.025)
    lines = []
    bound_ok = True
    slope_ok = True
    for d in (2, 3):
        rep = build_dirac_rep(d)
        x = np.zeros(d)
        y = np.zeros(d)
        x[0], y[0] = 0.5, -0.5
        c1, c2 = _remainder_coefficients(d, e_value, float(np.linalg.norm(x - y)))
        sweep = ratio_sweep(rep, e_value, x, y, h_list)
        resid = [abs(ratio - 1.0 - c1 * h) / (h * h)
                 for ratio, h in zip(sweep.ratios, h_list)]
        bound_ok = bound_ok and all(res <= 2.0 * abs(c2) for res in resid)
        slope_ok = slope_ok and 0.8 <= sweep.slope <= 1.2
        lines.append(f"d={d}: c1 = {c1:.5f}, max|R-1-c1 h|/h^2 = {max(resid):.4f} "
                     f"<= {2.0 * abs(c2):.4f}, slope = {sweep.slope:.4f}")
    elapsed = time.perf_counter() - t0
    ok = bound_ok and slope_ok and elapsed < 10.0
    assert report(3, ok, "; ".join(lines) + f", {elapsed:.2f} s"), (
        "R(h) = 1 + c1 h + O(h^2) with the Hankel-derived c1 does not hold "
        "within 2 |c2| h^2 (or the slope or time budget fails): "
        + "; ".join(lines))


def test_criterion_04_1d_leading_convergence():
    t0 = time.perf_counter()
    rep = build_dirac_rep(1)
    h_list = (0.2, 0.1, 0.05, 0.025)
    details = []
    ok = True
    for kind, params in (("bump_well", BUMP), ("tanh_step", TANH_STEEP)):
        model = make_potential(1, kind, params)
        geo = shoot_geodesic(model, [-1.0], [1.0])
        devs = []
        for h in h_list:
            lead = leading_kernel_1d(model, rep, 1.0, -1.0, h, geo=geo).matrix
            oracle = exact_green_kernel_1d(model, 1.0, -1.0, h)
            norm2 = float(np.vdot(lead, lead).real)
            devs.append(abs(complex(np.vdot(lead, oracle)) / norm2 - 1.0))
        slope = float(np.polyfit(np.log(h_list), np.log(devs), 1)[0])
        decreasing = all(b < a for a, b in zip(devs, devs[1:]))
        ok = ok and decreasing and slope >= 0.8 and devs[-1] <= 0.1
        details.append(f"{kind}: slope {slope:.3f}, |R(0.025)-1| = {devs[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report(4, ok, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_05_exponential_map_jacobian_routes():
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in (2, 3):
        const = make_potential(d, "constant", {"value": -0.6})
        y = np.zeros(d)
        x = np.zeros(d)
        y[0], x[0] = -0.5, 0.5
        geo_c = shoot_geodesic(const, y, x)
        fd_c = exp_prime_fd(const, y, exp_inverse_from_geodesic(const, geo_c))
        const_ok = (abs(geo_c.det_exp_prime - 1.0) <= 1e-8
                    and abs(fd_c - 1.0) <= 1e-8)

        bump = make_potential(d, "bump_well", BUMP)
        _, _, _, yb, xb = CONFIGS[d][0]
        geo_b = shoot_geodesic(bump, yb, xb)
        fd_b = exp_prime_fd(bump, np.asarray(yb, float),
                            exp_inverse_from_geodesic(bump, geo_b))
        rel = abs(fd_b - geo_b.det_exp_prime) / abs(geo_b.det_exp_prime)
        ok = ok and const_ok and rel <= 1e-5
        details.append(f"d={d}: const |det-1| = {abs(geo_c.det_exp_prime - 1.0):.1e}, "
                       f"bump route gap {rel:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert report(5, ok, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_06_adjoint_symmetry(solved):
    h = 0.05
    worst_m = worst_k = 0.0
    for d, rows in CONFIGS.items():
        rep = build_dirac_rep(d)
        for name, _, _, _, _ in rows:
            model, fwd, rev = solved[(d, name)]
            if d == 1:
                est_f = leading_kernel_1d(model, rep, fwd.x_star[0], fwd.y_star[0],
                                          h, geo=fwd)
                est_r = leading_kernel_1d(model, rep, rev.x_star[0], rev.y_star[0],
                                          h, geo=rev)
            else:
                est_f = leading_kernel_multid(model, rep, fwd, h)
                est_r = leading_kernel_multid(model, rep, rev, h)
            m_f, m_r = est_f.amplitude, est_r.amplitude
            worst_m = max(worst_m, float(np.linalg.norm(m_f.conj().T - m_r)
                                         / np.linalg.norm(m_f)))
            worst_k = max(worst_k, float(np.linalg.norm(est_f.matrix.conj().T
                                                        - est_r.matrix)
                                         / np.linalg.norm(est_f.matrix)))
    ok = worst_m <= 1e-8 and worst_k <= 1e-8
    assert report(6, ok, f"amplitude {worst_m:.2e}, full kernel {worst_k:.2e} "
                         "over 9 configurations")


def test_criterion_07_transport_unitarity_and_phase(solved):
    worst_defect = 0.0
    worst_theta = 0.0
    for d, rows in CONFIGS.items():
        rep = build_dirac_rep(d)
        for name, _, _, _, _ in rows:
            model, fwd, _ = solved[(d, name)]
            res = solve_spinor_transport(model, rep, fwd.trajectory)
            worst_defect = max(worst_defect, res.unitarity_defect)
            if d == 1:
                closed = rotation_1d(rep, theta_1d(model, fwd.y_star[0], fwd.x_star[0]))
                worst_theta = max(worst_theta,
                                  float(np.linalg.norm(res.u_matrix - closed)))
    ok = worst_defect <= 1e-9 and worst_theta <= 1e-8
    assert report(7, ok, f"max unitarity defect {worst_defect:.2e}, "
                         f"max phase gap {worst_theta:.2e}")


def test_criterion_08_flow_quality(solved):
    worst_h = worst_rev = worst_jac = 0.0
    for d, rows in CONFIGS.items():
        for name, _, _, _, _ in rows:
            model, fwd, _ = solved[(d, name)]
            traj = fwd.trajectory
            worst_h = max(worst_h, traj.hamiltonian_sup())
            back = integrate_flow(model, traj.x_end, -traj.p_end, fwd.tau)
            worst_rev = max(worst_rev,
                            float(np.max(np.abs(back.x_end - fwd.y_star))),
                            float(np.max(np.abs(back.p_end + fwd.p0))))
            dpx = traj.dp_x(fwd.tau)
            eps = 1e-5
            fd = np.empty((d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = eps
                plus = integrate_flow(model, fwd.y_star, fwd.p0 + e, fwd.tau,
                                      variational=False)
                minus = integrate_flow(model, fwd.y_star, fwd.p0 - e, fwd.tau,
                                       variational=False)
                fd[:, j] = (plus.x_end - minus.x_end) / (2.0 * eps)
            worst_jac = max(worst_jac,
                            float(np.linalg.norm(fd - dpx) / np.linalg.norm(dpx)))
    ok = worst_h <= 1e-10 and worst_rev <= 1e-8 and worst_jac <= 1e-6
    assert report(8, ok, f"sup|H| {worst_h:.2e}, reversal {worst_rev:.2e}, "
                         f"Jacobi vs FD {worst_jac:.2e}")


def test_criterion_09_spin_reduction(solved):
    rep = build_dirac_rep(3)
    model, fwd, _ = solved[(3, "bump")]
    spin = solve_bmt_spin(model, fwd.trajectory)
    eq = equivalence_check(model, rep, fwd, spin=spin)
    best_resid = min(eq.residual_left_inverse, eq.residual_transpose)

    const = make_potential(3, "constant", {"value": -0.6})
    geo_c = shoot_geodesic(const, [-0.5, 0.0, 0.0], [0.5, 0.0, 0.0])
    spin_c = solve_bmt_spin(const, geo_c.trajectory)
    const_gap = float(np.linalg.norm(spin_c.s_matrix - np.eye(2)))

    ok = (spin.unitarity_defect <= 1e-9 and spin.norm_drift <= 1e-9
          and spin.bmt2_residual <= 1e-6 and eq.passed and best_resid <= 1e-6
          and const_gap <= 1e-10)
    assert report(9, ok, f"unitarity {spin.unitarity_defect:.2e}, "
                         f"drift {spin.norm_drift:.2e}, "
                         f"equation residual {spin.bmt2_residual:.2e}, "
                         f"equivalence ({eq.best}) {best_resid:.2e}, "
                         f"constant gap {const_gap:.2e}")


def test_criterion_10_positive_potential_reduction():
    rep = build_dirac_rep(1)
    pos_model = make_potential(1, "constant", {"value": 0.6})
    est = positive_potential_kernel(pos_model, rep, [0.5], [-0.5], 0.1)
    closed = constant_V_exact(rep, 0.6, [0.5], [-0.5], 0.1)
    rel = float(np.linalg.norm(est.matrix - closed) / np.linalg.norm(closed))

    neg = leading_kernel_1d(make_potential(1, "constant", {"value": -0.6}),
                            rep, 0.5, -0.5, 0.1)
    pref_gap = abs(est.prefactor - neg.prefactor) / neg.prefactor
    ok = rel <= 1e-9 and pref_gap <= 1e-12
    assert report(10, ok, f"closed-form gap {rel:.2e}, prefactor gap {pref_gap:.2e}")
