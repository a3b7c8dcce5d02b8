"""The self-check: named invariant lines, each a residual against a tolerance.

run_selfcheck runs the lines of each dimension asked for, then the Bessel
line, and reports them all; the report passes iff every line does.  The
lines compare the pipeline's pieces with closed forms, with each other
and with the oracles below, which only the checks use.  Each oracle is an
independent route to a quantity the pipeline computes another way:

* exp_map_oracle integrates the conformal geodesic equation, not the
  Hamiltonian flow, and exp_prime_fd differentiates it;
* agmon_distance_quadrature_1d and bessel_K_oracle are adaptive
  quadratures, the only use of scipy's quad in the package.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .bmt import equivalence_check, solve_bmt_spin
from .clifford import (DomainError, build_dirac_rep, clifford_residual, dirac_symbol,
                       lambda_branches, projector)
from .dop853 import TIGHT, NumericalError, solve_ivp
from .geoflow import integrate_flow, shoot_geodesic
from .kernel import (bessel_K, constant_V_exact, leading_kernel_1d, leading_kernel_multid,
                     positive_potential_kernel, ratio_sweep)
from .oracle1d import exact_green_kernel_1d
from .potential import FAMILIES, fd_consistency, make_potential, validate_hypothesis
from .transport import rotation_1d, solve_spinor_transport, theta_1d, transport_matrix

# ---------------------------------------------------------------------------
# oracles


def _central_jacobian(f, v, step):
    """d x d Jacobian of f at v, column j (f(v + step e_j) - f(v - step e_j)) / (2 step)."""
    d = len(v)
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        jac[:, j] = (f(v + e) - f(v - e)) / (2.0 * step)
    return jac


def agmon_distance_quadrature_1d(model, a, b):
    """1D distance |int_a^b sqrt(1 - V^2)| by adaptive quadrature."""
    if model.dim != 1:
        raise DomainError("the quadrature cross-check is 1D only")

    v_at = model.line_value()

    def integrand(s):
        v = v_at(s)
        return math.sqrt(1.0 - v * v)

    lo, hi = min(a, b), max(a, b)
    val, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return float(val)


def _exp_rhs(model):
    d = model.dim

    def rhs(t, y):
        q = y[:d]
        qd = y[d:]
        v, grad, _ = model.evaluate(q)
        # grad of sigma = log sqrt(1 - V^2)
        gs = -v * grad / (1.0 - v * v)
        out = np.empty_like(y)
        out[:d] = qd
        out[d:] = float(qd @ qd) * gs - 2.0 * float(gs @ qd) * qd
        return out

    return rhs


def exp_map_oracle(model, y, v):
    """Metric exponential map via the conformal geodesic equation.

    Integrates qddot = |qdot|^2 grad(sigma) - 2 <grad(sigma), qdot> qdot,
    sigma = log sqrt(1 - V^2), from q(0) = y, qdot(0) = v over unit time.
    Independent of the Hamiltonian flow route.  Integrated at TIGHT tolerances.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    y0 = np.concatenate([y, v])
    sol = solve_ivp(_exp_rhs(model), (0.0, 1.0), y0, **TIGHT.solver_kwargs())
    if not sol.success:
        raise NumericalError(f"exponential-map integration failed: {sol.message}")
    return sol.y[: model.dim, -1]


def exp_prime_fd(model, y, v):
    """Central-difference Jacobian determinant of the exponential map at v.

    The determinant is taken between orthonormal frames of the conformal
    metric at the two endpoints, so the raw coordinate Jacobian picks up
    the factor ((1-V^2(x))/(1-V^2(y)))^(d/2).  That convention makes the
    value symmetric under swapping the endpoints and is the one the
    bordered-determinant conversion produces.  The step is 1e-5 max(1, |v|).
    """
    d = model.dim
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    step = 1e-5 * max(1.0, float(np.linalg.norm(v)))
    jac = _central_jacobian(lambda w: exp_map_oracle(model, y, w), v, step)
    x_end = exp_map_oracle(model, y, v)
    c_y = 1.0 - model.value(y) ** 2
    c_x = 1.0 - model.value(x_end) ** 2
    return float(np.linalg.det(jac)) * (c_x / c_y) ** (d / 2.0)


def exp_inverse_from_geodesic(model, geo):
    """Initial velocity exp_y^{-1}(x) implied by a shot connection."""
    vy = model.value(geo.y_star)
    scale = geo.agmon / math.sqrt(1.0 - vy * vy)
    return scale * geo.p0 / np.linalg.norm(geo.p0)


def bessel_K_oracle(nu, rho):
    """Independent quadrature int_0^inf exp(-rho cosh t) cosh(nu t) dt.

    The integrand is scaled by exp(rho) so it is O(1) and the absolute
    quadrature tolerance stays meaningful for large rho.
    """
    rho = float(rho)
    if not rho > 0.0:
        raise DomainError(f"bessel_K_oracle requires rho > 0, got {rho}")
    # past t_max the scaled integrand underflows to zero
    t_max = math.acosh(1.0 + 760.0 / rho)

    def integrand(t):
        return math.exp(rho * (1.0 - math.cosh(t))) * math.cosh(nu * t)

    val, _ = quad(integrand, 0.0, t_max, epsabs=1e-15, epsrel=1e-13, limit=400)
    return float(val) * math.exp(-rho)


# ---------------------------------------------------------------------------
# the lines


def _families(d):
    models = [
        make_potential(d, "constant", {"value": -0.6}),
        make_potential(d, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
        make_potential(d, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    ]
    if d == 1:
        models.append(make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2}))
    return models


# in d = 1 the pair sits off the bump's centre: across a symmetric pair U(tau) is 1, and
# stays 1 with the transport generator's sign flipped
_ENDPOINTS = {
    1: ([-1.6], [0.4]),
    2: ([-1.0, -0.3], [1.0, 0.4]),
    3: ([-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
}


def _scale_invariant(est, dim):
    return (math.log(est.prefactor) + est.agmon / est.h + dim * math.log(est.h)
            + 0.5 * (dim - 1) * math.log(2.0 * math.pi * est.agmon / est.h))


def _dim_checks(d):
    checks = []

    def add(name, residual, tol):
        checks.append({"name": f"{name}_d{d}", "residual": float(residual),
                       "tol": float(tol), "pass": bool(residual <= tol)})

    rep = build_dirac_rep(d)
    add("clifford_relations", clifford_residual(rep), 1e-14)

    rng = np.random.default_rng(1000 + d)
    eye = np.eye(rep.dstar)
    alg = eig = tr_res = 0.0
    for _ in range(20):
        zim = rng.uniform(-1.0, 1.0, d)
        zim *= 0.9 * rng.uniform(0.1, 1.0) / max(np.linalg.norm(zim), 1e-12)
        zeta = rng.uniform(-2.0, 2.0, d) + 1j * zim
        pr = projector(rep, zeta)
        lp, lm = pr.lambda_plus, pr.lambda_minus
        alg = max(alg,
                  np.linalg.norm(lp + lm - eye),
                  np.linalg.norm(lp @ lp - lp),
                  np.linalg.norm(lm @ lm - lm),
                  np.linalg.norm(lp @ lm),
                  np.linalg.norm(pr.s_matrix @ pr.s_matrix - eye))
        v = float(rng.uniform(-0.9, -0.1))
        lam_p, lam_m = lambda_branches(zeta, v)
        symbol = dirac_symbol(rep, zeta, v)
        eig = max(eig,
                  np.linalg.norm(symbol @ lp - lam_p * lp),
                  np.linalg.norm(symbol @ lm - lam_m * lm))
        tr_res = max(tr_res, abs(np.trace(lp) - rep.dstar / 2.0),
                     abs(np.trace(lm) - rep.dstar / 2.0))
    add("projector_algebra", alg, 1e-12)
    add("projector_eigenrelation", eig, 1e-12)
    add("projector_trace", tr_res, 1e-12)

    fam = _families(d)
    add("potential_derivatives", max(max(fd_consistency(m)) for m in fam), 1e-6)
    # one line per well: the constant's sampled margin is its exact one by construction
    for m in fam:
        if FAMILIES[m.kind].profile:
            add(f"hypothesis_gap_{m.kind}", m.margin - validate_hypothesis(m), 0.0)

    model = fam[1]  # the bump well; fam[0] is the constant V = -0.6
    y_pt, x_pt = (np.array(p) for p in _ENDPOINTS[d])
    geo = shoot_geodesic(model, y_pt, x_pt)
    traj = geo.trajectory
    add("flow_energy", traj.hamiltonian_sup(), 1e-10)

    back = integrate_flow(model, geo.x_star, -traj.p_end, geo.tau)
    add("flow_reversal",
        max(np.max(np.abs(back.x_end - geo.y_star)),
            np.max(np.abs(back.p_end + geo.p0))), 1e-8)

    dpx = traj.dp_x(geo.tau)
    fd = _central_jacobian(
        lambda p0: integrate_flow(model, geo.y_star, p0, geo.tau).x_end,
        geo.p0, 1e-5)
    add("jacobi_fd", np.linalg.norm(fd - dpx) / np.linalg.norm(dpx), 1e-6)

    geo_rev = shoot_geodesic(model, x_pt, y_pt)
    add("agmon_reciprocity", abs(geo.agmon - geo_rev.agmon), 1e-9)

    transport = solve_spinor_transport(model, rep, traj)
    # well under the solve's own 1e-9 guard, so that the line reports a defect before it raises
    add("transport_unitarity", transport.unitarity_defect, 1e-12)

    m_fwd, left_res = transport_matrix(model, rep, geo, transport.u_matrix)
    add("amplitude_left_identity", left_res, 1e-8)

    transport_rev = solve_spinor_transport(model, rep, geo_rev.trajectory)
    m_rev, _ = transport_matrix(model, rep, geo_rev, transport_rev.u_matrix)
    add("amplitude_adjoint",
        np.linalg.norm(m_fwd.conj().T - m_rev) / np.linalg.norm(m_fwd), 1e-8)

    lam_minus = projector(rep, 1j * geo.p0).lambda_minus
    add("kernel_annihilation",
        np.linalg.norm(m_fwd @ lam_minus) / np.linalg.norm(m_fwd), 1e-10)

    est_a = leading_kernel_multid(model, rep, geo, 0.2, transport=transport)
    est_b = leading_kernel_multid(model, rep, geo, 0.05, transport=transport)
    add("kernel_scale_structure",
        abs(_scale_invariant(est_a, d) - _scale_invariant(est_b, d)), 1e-12)

    if d >= 2:
        ends = np.zeros(d)
        ends_x = np.zeros(d)
        ends_x[0] = 1.0
        geo_c = shoot_geodesic(fam[0], ends, ends_x)
        add("det_exp_constant", abs(geo_c.det_exp_prime - 1.0), 1e-8)
        fd_det = exp_prime_fd(model, geo.y_star, exp_inverse_from_geodesic(model, geo))
        add("exp_map_identity",
            abs(fd_det - geo.det_exp_prime) / abs(geo.det_exp_prime), 1e-5)

    if d == 1:
        add("agmon_quadrature",
            abs(geo.agmon - agmon_distance_quadrature_1d(model, y_pt[0], x_pt[0])),
            1e-8)
        closed = rotation_1d(rep, theta_1d(model, y_pt[0], x_pt[0]))
        add("theta_closed_form", np.linalg.norm(transport.u_matrix - closed), 1e-8)

        oracle = exact_green_kernel_1d(fam[0], 0.5, -0.5, 0.1)
        exact = constant_V_exact(rep, -0.6, [0.5], [-0.5], 0.1)
        add("oracle_constant",
            np.max(np.abs(oracle - exact)) / np.max(np.abs(exact)), 1e-9)

        sweep = ratio_sweep(rep, -0.6, [0.5], [-0.5], [0.2, 0.1])
        add("constant_ratio", max(sweep.deviations), 1e-9)

        # the bump mirrored into the upper gap: its negation must flip base and depth
        pos_model = make_potential(1, "bump_well", {"base": 0.6, "depth": -0.3, "radius": 2.0})
        pos = positive_potential_kernel(pos_model, rep, [0.5], [-0.5], 0.1)
        neg = leading_kernel_1d(fam[1], rep, 0.5, -0.5, 0.1)
        add("positive_prefactor",
            abs(pos.prefactor - neg.prefactor) / neg.prefactor, 1e-12)

    if d == 3:
        spin = solve_bmt_spin(model, traj)
        add("bmt_unitarity", spin.unitarity_defect, 1e-9)
        add("bmt_bloch_norm", spin.norm_drift, 1e-9)
        add("bmt_equation", spin.bmt2_residual, 1e-6)
        report = equivalence_check(model, rep, geo, spin=spin, transport=transport)
        add("bmt_equivalence",
            min(report.residual_left_inverse, report.residual_transpose), 1e-6)

    return checks


def run_selfcheck(dims):
    checks = []
    for d in dims:
        checks.extend(_dim_checks(d))
    bessel_res = 0.0
    for nu in (0.0, 0.5, 1.0, 1.5):   # every order the kernel reads, K_0 for d = 2 included
        for rho in (0.5, 1.0, 2.0, 2.5, 5.0, 10.0, 50.0):
            oracle = bessel_K_oracle(nu, rho)
            bessel_res = max(bessel_res, abs(bessel_K(nu, rho) - oracle) / oracle)
    checks.append({"name": "bessel_oracle", "residual": float(bessel_res),
                   "tol": 1e-10, "pass": bool(bessel_res <= 1e-10)})
    return {"checks": checks, "n_checks": len(checks),
            "passed": all(c["pass"] for c in checks)}
