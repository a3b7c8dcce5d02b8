"""End-to-end command line behaviour: artifacts, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diracgreen import bmt, cli, geoflow, kernel, oracle1d, potential, selfcheck, transport
from diracgreen.clifford import build_dirac_rep, clifford_residual
from diracgreen.kernel import constant_V_exact

CONST_1D = {
    "dimension": 1,
    "potential": {"kind": "constant", "params": {"value": -0.6}},
    "x_star": [0.5],
    "y_star": [-0.5],
    "h_list": [0.2, 0.1, 0.05],
}
CONST_2D = {
    "dimension": 2,
    "potential": {"kind": "constant", "params": {"value": -0.6}},
    "x_star": [0.5, 0.0],
    "y_star": [-0.5, 0.0],
    "h_list": [0.2, 0.1],
}
BUMP_1D = {
    "dimension": 1,
    "potential": {"kind": "bump_well",
                  "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}},
    "x_star": [1.0],
    "y_star": [-1.0],
    "h_list": [0.2, 0.1],
}
BUMP_3D = {
    "dimension": 3,
    "potential": {"kind": "bump_well",
                  "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}},
    "x_star": [1.0, 0.4, -0.2],
    "y_star": [-1.0, -0.3, 0.2],
    "h_list": [0.1],
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_to_file(tmp_path, command, config, name="out.txt"):
    out = tmp_path / name
    code = cli.main([command, "--config", write_config(tmp_path, config), "--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


# ------------------------------------------------------------------ selfcheck

def test_selfcheck_single_dimension(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["selfcheck", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["n_checks"] == len(report["checks"]) == 63
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tol", "pass"}
        assert check["pass"]


def test_selfcheck_fault_injection(tmp_path, capsys, monkeypatch):
    """One d = 1 Clifford matrix entry off by 1e-6 fails its line, and no other."""
    def perturbed(rep):
        if rep.dim != 1:
            return clifford_residual(rep)
        alphas = [a.copy() for a in rep.alphas]
        alphas[0][0, -1] += 1e-6
        return clifford_residual(replace(rep, alphas=tuple(alphas)))

    monkeypatch.setattr(selfcheck, "clifford_residual", perturbed)
    out = tmp_path / "report.json"
    code = cli.main(["selfcheck", "--out", str(out)])
    assert code == 1
    assert "clifford_relations_d1" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert not report["passed"]
    bad = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in bad] == ["clifford_relations_d1"]


def test_selfcheck_d3_potential_lines_can_fail(monkeypatch):
    """A bump row with f'' off by 1e-3 and its minimum declared 0.05 too high, in d = 3.

    Box draws alone miss the radius-2 well there; the draws near the
    center trip both potential lines of selfcheck.
    """
    row = potential.FAMILIES["bump_well"]

    def profile(*args):
        fp, fpp, v = row.profile(*args)
        return fp, fpp * (1.0 + 1e-3), v

    def bounds(p):
        lo, hi = row.bounds(p)
        return lo + 0.05, hi

    monkeypatch.setitem(potential.FAMILIES, "bump_well",
                        replace(row, profile=profile, bounds=bounds))
    failed = {c["name"] for c in selfcheck.run_selfcheck((3,))["checks"] if not c["pass"]}
    assert {"potential_derivatives_d3", "hypothesis_gap_bump_well_d3"} <= failed


def _force_off(monkeypatch):
    """The lone flow's force grad V scaled by 1 + 1e-6: H drifts along the polished orbit."""
    flow_rhs = geoflow._flow_rhs

    def faulty(model, *args):
        rhs, d = flow_rhs(model, *args), model.dim

        def wrong(t, y):
            out = list(rhs(t, y))   # an array on numpy stages, a tuple on float stages
            out[d:2 * d] = [f * (1.0 + 1e-6) for f in out[d:2 * d]]
            return out
        return wrong

    monkeypatch.setattr(geoflow, "_flow_rhs", faulty)


def _end_momentum_early(monkeypatch):
    """p_end read at tau (1 - 1e-6): the reversed flow misses y*."""
    init = geoflow.Trajectory.__init__

    def early(self, *args):
        init(self, *args)
        self.p_end = self.phase(self.tau * (1.0 - 1e-6))[1]

    monkeypatch.setattr(geoflow.Trajectory, "__init__", early)


def _jacobi_off(monkeypatch):
    """dp_x scaled by 1 + 1e-5, ten times jacobi_fd's tolerance."""
    dp_x = geoflow.Trajectory.dp_x
    monkeypatch.setattr(geoflow.Trajectory, "dp_x", lambda self, t: dp_x(self, t) * (1.0 + 1e-5))


def _hessian_off(monkeypatch):
    """beta of the float terms scaled by 1 + 1e-3: the lone flow's Jacobi blocks, which alone
    read the Hessian, drift from the finite differences of its orbits."""
    terms = potential.PotentialModel.terms

    def off(self, x):
        v, r, gamma, alpha, beta = terms(self, x)
        return v, r, gamma, alpha, beta * (1.0 + 1e-3)

    monkeypatch.setattr(potential.PotentialModel, "terms", off)


def _reverse_action_off(monkeypatch):
    """The reverse shot's action d_A off by 1e-8, ten times agmon_reciprocity's tolerance."""
    shoot = selfcheck.shoot_geodesic

    def reverse_off(model, y_star, x_star, **kwargs):
        geo = shoot(model, y_star, x_star, **kwargs)
        return replace(geo, agmon=geo.agmon + 1e-8) if y_star[0] > x_star[0] else geo

    monkeypatch.setattr(selfcheck, "shoot_geodesic", reverse_off)


def _transport_damped(monkeypatch):
    """A hermitian part 1e-11 * 1 in the transport generator, so U(tau) is not unitary.

    The defect (about 1e-10) lies between the line's 1e-12 and the solve's
    own 1e-9 guard, so the line reports it and the solve does not raise.
    """
    solve = transport.solve_ivp
    monkeypatch.setattr(transport, "solve_ivp", lambda fun, *args, **kwargs: solve(
        lambda t, y: fun(t, y) + 1e-11 * y, *args, **kwargs))


def _transport_reversed(monkeypatch):
    """The transport generator's sign flipped: U(tau) stays unitary but turns the wrong way."""
    solve = transport.solve_ivp
    monkeypatch.setattr(transport, "solve_ivp", lambda fun, *args, **kwargs: solve(
        lambda t, y: -fun(t, y), *args, **kwargs))


def _reverse_amplitude_off(monkeypatch):
    """The reverse shot's amplitude matrix scaled by 1 + 1e-7, ten times the adjoint tolerance."""
    make = selfcheck.transport_matrix

    def reverse_off(model, rep, geo, u_matrix):
        m, residual = make(model, rep, geo, u_matrix)
        return (m * (1.0 + 1e-7) if geo.y_star[0] > geo.x_star[0] else m), residual

    monkeypatch.setattr(selfcheck, "transport_matrix", reverse_off)


def _tail_power_off(monkeypatch):
    """The prefactor's power of 2 pi d_A / h written -d/2 instead of -(d-1)/2: the kernel's
    h-structure changes, which kernel_scale_structure compares at h = 0.2 and 0.05."""
    leading = selfcheck.leading_kernel_multid

    def off(*args, **kwargs):
        est = leading(*args, **kwargs)
        return replace(est, prefactor=est.prefactor
                       * (2.0 * math.pi * est.agmon / est.h) ** -0.5)

    monkeypatch.setattr(selfcheck, "leading_kernel_multid", off)


def _det_exp_power_off(monkeypatch):
    """det exp' divided by d_A^d instead of d_A^(d-1): the constant well's 1 reads 1/d_A."""
    convert = geoflow.det_exp_prime
    monkeypatch.setattr(geoflow, "det_exp_prime", lambda model, y, x, agmon, bdet: convert(
        model, y, x, agmon, bdet) / agmon)


def _exp_prime_fd_off(monkeypatch):
    """exp_prime_fd scaled by 1 + 1e-4, ten times exp_map_identity's tolerance."""
    fd = selfcheck.exp_prime_fd
    monkeypatch.setattr(selfcheck, "exp_prime_fd", lambda *args: fd(*args) * (1.0 + 1e-4))


def _transported_projector_off(monkeypatch):
    """The amplitude's lambda_plus off by 1e-9 in every entry, ten times the annihilation
    tolerance: M picks up a component in the range of lambda_minus."""
    make = transport.projector

    def off(rep, zeta):
        pr = make(rep, zeta)
        return replace(pr, lambda_plus=pr.lambda_plus + 1e-9)

    monkeypatch.setattr(transport, "projector", off)


@pytest.fixture(scope="module")
def selfcheck_d2():
    return {c["name"]: c for c in selfcheck._dim_checks(2)}


@pytest.mark.parametrize("line,fault", [
    ("flow_energy", _force_off), ("flow_reversal", _end_momentum_early),
    ("jacobi_fd", _jacobi_off), ("jacobi_fd", _hessian_off),
    ("agmon_reciprocity", _reverse_action_off), ("transport_unitarity", _transport_damped),
    ("amplitude_left_identity", _transport_reversed), ("amplitude_adjoint", _reverse_amplitude_off),
    ("kernel_annihilation", _transported_projector_off),
    ("kernel_scale_structure", _tail_power_off), ("det_exp_constant", _det_exp_power_off),
    ("exp_map_identity", _exp_prime_fd_off),
], ids=["flow_energy", "flow_reversal", "jacobi_fd", "jacobi_fd_hessian", "agmon_reciprocity",
        "transport_unitarity", "amplitude_left_identity", "amplitude_adjoint",
        "kernel_annihilation", "kernel_scale_structure", "det_exp_constant", "exp_map_identity"])
def test_a_flow_fault_trips_its_selfcheck_line(monkeypatch, selfcheck_d2, line, fault):
    """Each flow, transport, amplitude and kernel line of selfcheck fails under one plausible
    fault of what it reads (d = 2)."""
    assert selfcheck_d2[f"{line}_d2"]["pass"]
    fault(monkeypatch)
    checks = {c["name"]: c for c in selfcheck._dim_checks(2)}
    assert not checks[f"{line}_d2"]["pass"], checks[f"{line}_d2"]


def _closed_phase_off(monkeypatch):
    """The closed-form phase theta_1d off by 1e-7, ten times the U gap's tolerance."""
    theta = selfcheck.theta_1d
    monkeypatch.setattr(selfcheck, "theta_1d", lambda model, a, b: theta(model, a, b) + 1e-7)


def _oracle_off(monkeypatch):
    """exact_green_kernel_1d scaled by 1 + 1e-8, ten times oracle_constant's tolerance."""
    exact = selfcheck.exact_green_kernel_1d
    monkeypatch.setattr(selfcheck, "exact_green_kernel_1d", lambda *args: exact(*args) * (1.0 + 1e-8))


def _quadrature_off(monkeypatch):
    """agmon_distance_quadrature_1d plus 1e-7, ten times agmon_quadrature's tolerance."""
    quadrature = selfcheck.agmon_distance_quadrature_1d
    monkeypatch.setattr(selfcheck, "agmon_distance_quadrature_1d",
                        lambda *args: quadrature(*args) + 1e-7)


def _closed_form_off(monkeypatch):
    """The constant-V closed form scaled by 1 + 1e-8 inside the sweep, ten times
    constant_ratio's tolerance."""
    exact = kernel.constant_V_exact
    monkeypatch.setattr(kernel, "constant_V_exact", lambda *args: exact(*args) * (1.0 + 1e-8))


def _depth_not_linear(monkeypatch):
    """The bump's negation flips base alone: the mirrored well is not the bump's mirror."""
    family = potential.FAMILIES["bump_well"]
    monkeypatch.setitem(potential.FAMILIES, "bump_well", replace(family, linear=("base",)))


@pytest.fixture(scope="module")
def selfcheck_d1():
    return {c["name"]: c for c in selfcheck._dim_checks(1)}


@pytest.mark.parametrize("line,fault", [
    ("theta_closed_form", _closed_phase_off), ("oracle_constant", _oracle_off),
    ("agmon_quadrature", _quadrature_off), ("constant_ratio", _closed_form_off),
    ("amplitude_left_identity", _transport_reversed), ("amplitude_adjoint", _transport_reversed),
    ("theta_closed_form", _transport_reversed), ("positive_prefactor", _depth_not_linear),
], ids=["theta_closed_form", "oracle_constant", "agmon_quadrature", "constant_ratio",
        "transport_reversed-amplitude_left_identity", "transport_reversed-amplitude_adjoint",
        "transport_reversed-theta_closed_form", "positive_prefactor"])
def test_a_d1_reference_fault_trips_its_selfcheck_line(monkeypatch, selfcheck_d1, line, fault):
    """Each d = 1 reference line fails under one plausible fault of what it reads, the
    transport lines see the generator's sign flipped (the d = 1 pair is asymmetric), and the
    upper-gap prefactor sees a negation that misses a linear parameter."""
    assert selfcheck_d1[f"{line}_d1"]["pass"]
    fault(monkeypatch)
    checks = {c["name"]: c for c in selfcheck._dim_checks(1)}
    assert not checks[f"{line}_d1"]["pass"], checks[f"{line}_d1"]


def _lambda_plus_off(monkeypatch):
    """lambda_plus off by 1e-10 in every entry, a hundred times the projector lines' tolerance."""
    make = selfcheck.projector

    def off(rep, zeta):
        pr = make(rep, zeta)
        return replace(pr, lambda_plus=pr.lambda_plus + 1e-10)

    monkeypatch.setattr(selfcheck, "projector", off)


@pytest.fixture(scope="module")
def projector_fault_d2():
    with pytest.MonkeyPatch.context() as mp:
        _lambda_plus_off(mp)
        return {c["name"]: c for c in selfcheck._dim_checks(2)}


@pytest.mark.parametrize("line", ["projector_algebra", "projector_eigenrelation",
                                  "projector_trace"])
def test_a_projector_fault_trips_its_selfcheck_line(selfcheck_d2, projector_fault_d2, line):
    """Each projector line of selfcheck fails when lambda_plus is off by 1e-10 (d = 2)."""
    assert selfcheck_d2[f"{line}_d2"]["pass"]
    assert not projector_fault_d2[f"{line}_d2"]["pass"], projector_fault_d2[f"{line}_d2"]


def _checks_d3(fault):
    with pytest.MonkeyPatch.context() as mp:
        fault(mp)
        return {c["name"]: c for c in selfcheck._dim_checks(3)}


def _spin_damped(monkeypatch):
    """M plus 1e-9 i * 1, so that i M, the precession generator, has a hermitian part
    -1e-9 * 1: s(t) shrinks."""
    precession = bmt._precession

    def damped(*args):
        m00, m01, m10, m11 = precession(*args)
        return m00 + 1e-9j, m01, m10, m11 + 1e-9j

    monkeypatch.setattr(bmt, "_precession", damped)


def _field_flipped(monkeypatch):
    """The precession generator built from E = +grad V: the spin precesses the wrong way."""
    precession = bmt._precession
    monkeypatch.setattr(bmt, "_precession", lambda *args: tuple(-m for m in precession(*args)))


@pytest.fixture(scope="module")
def selfcheck_d3():
    return _checks_d3(lambda mp: None)


@pytest.fixture(scope="module")
def spin_damped_d3():
    return _checks_d3(_spin_damped)


@pytest.fixture(scope="module")
def field_flipped_d3():
    return _checks_d3(_field_flipped)


@pytest.mark.parametrize("line,faulted", [
    ("bmt_unitarity", "spin_damped_d3"), ("bmt_bloch_norm", "spin_damped_d3"),
    ("bmt_equation", "field_flipped_d3"), ("bmt_equivalence", "field_flipped_d3"),
])
def test_a_bmt_fault_trips_its_selfcheck_line(request, selfcheck_d3, line, faulted):
    """Each bmt line of selfcheck fails under one plausible fault of the spin solve (d = 3)."""
    assert selfcheck_d3[f"{line}_d3"]["pass"]
    checks = request.getfixturevalue(faulted)
    assert not checks[f"{line}_d3"]["pass"], checks[f"{line}_d3"]


def test_a_bessel_fault_trips_its_selfcheck_line(monkeypatch):
    """bessel_K scaled by 1 + 1e-9, ten times bessel_oracle's tolerance, fails the line."""
    [line] = selfcheck.run_selfcheck(())["checks"]
    assert line["name"] == "bessel_oracle" and line["pass"]
    bessel_K = selfcheck.bessel_K
    monkeypatch.setattr(selfcheck, "bessel_K", lambda nu, rho: bessel_K(nu, rho) * (1.0 + 1e-9))
    [line] = selfcheck.run_selfcheck(())["checks"]
    assert not line["pass"], line


@pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.5])
def test_a_bessel_fault_at_one_order_trips_its_selfcheck_line(order, monkeypatch):
    """bessel_K scaled by 1 + 1e-9 at one order alone fails the line: it checks every order the
    kernel reads, K_0 of every d = 2 constant kernel included."""
    bessel_K = selfcheck.bessel_K
    monkeypatch.setattr(selfcheck, "bessel_K",
                        lambda nu, rho: bessel_K(nu, rho) * (1.0 + 1e-9 * (nu == order)))
    [line] = selfcheck.run_selfcheck(())["checks"]
    assert not line["pass"], line


def test_hypothesis_gap_reads_the_wells(selfcheck_d2):
    """Each well has its own line, its margin gap (-0.00035 bump, -0.00064 cosine in d = 2);
    the constant, 0.0 by construction, has none."""
    for kind in ("bump_well", "cosine_well"):
        gap = selfcheck_d2[f"hypothesis_gap_{kind}_d2"]
        assert -1e-3 < gap["residual"] < -1e-4 and gap["pass"]
    assert not any(name.startswith("hypothesis_gap_constant") for name in selfcheck_d2)


# ------------------------------------------------------------------- geodesic

def test_geodesic_json_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "geodesic", CONST_2D)
    assert code == 0
    payload = json.loads(text)
    assert payload["tau"] == pytest.approx(0.75, abs=1e-9)
    assert payload["dA"] == pytest.approx(0.8, abs=1e-9)
    assert payload["bordered_det"] == pytest.approx(20.0 / 9.0, rel=1e-8)
    assert payload["det_exp_prime"] == pytest.approx(1.0, abs=1e-7)
    assert payload["conjugate"] is False
    assert payload["uniqueness"]["n_starts"] == 8
    assert payload["uniqueness"]["n_distinct"] == 1


def test_geodesic_conjugacy_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geoflow, "CONJUGACY_TOL", 1e6)
    code, _ = run_to_file(tmp_path, "geodesic", CONST_2D)
    assert code == 3
    assert "near-conjugate" in capsys.readouterr().err


def test_geodesic_far_from_the_origin(tmp_path):
    """At |x*| = 9e5 the float spacing (1.16e-10) exceeds POLISH_TOL: Newton's stops scale."""
    cfg = dict(CONST_2D, x_star=[9e5, 0.0], y_star=[-9e5, 0.0])
    code, text = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 0
    assert json.loads(text)["dA"] == pytest.approx(1.44e6, rel=1e-12)


WELLS = {"bump": {"kind": "bump_well", "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}},
         "cosine": {"kind": "cosine_well",
                    "params": {"base": -0.55, "depth": 0.35, "radius": 2.5}},
         "tanh_steep": {"kind": "tanh_step", "params": {"base": -0.6, "amp": 0.3}}}
# an endpoint a unit or more outside the well: the orbit crosses a stretch where V is flat,
# its steps grow tenfold each, and trial stages land far off the energy shell
FLAT_SHOTS = [(1, "bump", [-4.0], [0.0]), (1, "cosine", [-4.0], [4.0]),
              (1, "tanh_steep", [-8.0], [8.0]), (2, "bump", [-3.0, -0.3], [3.0, 0.4]),
              (3, "bump", [-3.0, -0.3, 0.2], [3.0, 0.4, -0.2]),
              (3, "cosine", [-3.1, 0.3, -0.2], [2.9, -0.3, 0.3])]


@pytest.mark.parametrize("dim,well,y,x", FLAT_SHOTS,
                         ids=[f"d{dim}-{well}" for dim, well, *_ in FLAT_SHOTS])
def test_geodesic_across_a_flat_stretch(tmp_path, dim, well, y, x):
    """Fan and single start, both ways, exit 0: forward and reverse d_A agree within
    agmon_reciprocity's 1e-9, and so do fan and single start; in d = 1 d_A is the
    quadrature's within 1e-8."""
    d_a = {}
    for starts, count in (("fan", None), ("one", 1)):
        for way, (a, b) in (("fwd", (y, x)), ("rev", (x, y))):
            cfg = {"dimension": dim, "potential": WELLS[well], "y_star": a, "x_star": b,
                   "shooting": {"multistart": count}}
            code, text = run_to_file(tmp_path, "geodesic", cfg)
            assert code == 0
            d_a[starts, way] = json.loads(text)["dA"]
    assert max(d_a.values()) - min(d_a.values()) <= 1e-9
    if dim == 1:
        model = potential.from_config(1, WELLS[well])
        quadrature = selfcheck.agmon_distance_quadrature_1d(model, y[0], x[0])
        assert abs(d_a["fan", "fwd"] - quadrature) <= 1e-8


def test_validate1d_across_a_flat_stretch(tmp_path):
    """The d = 1 bump from -4 to 0: the kernel converges to the oracle's at order h."""
    cfg = dict(BUMP_1D, y_star=[-4.0], x_star=[0.0], h_list=[0.2, 0.1, 0.05, 0.025])
    code, text = run_to_file(tmp_path, "validate1d", cfg)
    assert code == 0
    assert float(re.search(r"# slope = (.+)", text).group(1)) >= 0.8


def test_a_start_on_the_momentum_ball_exits_2(tmp_path, capsys):
    """V(y*) = -1e-7 puts |p0|^2 = 1 - 1e-14 past the ball: refused before any flow runs."""
    cfg = dict(CONST_2D, potential={"kind": "constant", "params": {"value": -1e-7}})
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: V = -1e-07 at the start") and "momentum ball" in err


def test_a_fan_too_large_for_memory_exits_2_before_the_shoot(tmp_path, capsys, monkeypatch):
    """A d = 10 default fan plans 59,048 starts of 221 numbers, an explicit multistart of
    6,000 in d = 9 plans 6,000 of 181: both exit 2 within a second, naming the bound, before
    any direction is built or any lane is allocated.  The d = 4 and d = 5 default fans stay
    under it."""
    def refuse(*args, **kwargs):
        raise AssertionError("_newton called")

    monkeypatch.setattr(geoflow, "_newton", refuse)
    for d, count, planned in ((10, None, 59048 * 221), (9, 6000, 6000 * 181)):
        ends = [[-1.0, -0.3] + [0.0] * (d - 2), [1.0, 0.4] + [0.0] * (d - 2)]
        cfg = dict(BUMP_3D, dimension=d, y_star=ends[0], x_star=ends[1],
                   shooting={"multistart": count})
        start = time.perf_counter()
        code, text = run_to_file(tmp_path, "geodesic", cfg)
        assert time.perf_counter() - start < 1.0
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and f" {planned} state numbers" in err
        assert f"the bound of {geoflow.STATE_NUMBERS}" in err
    for d, lattice in ((4, 80), (5, 242)):
        model = potential.make_potential(d, "bump_well", BUMP_3D["potential"]["params"])
        ends = np.array([[-1.0, -0.3] + [0.0] * (d - 2), [1.0, 0.4] + [0.0] * (d - 2)])
        assert len(geoflow._fan_starts(model, *ends, None)[0]) == lattice


@pytest.mark.parametrize("x_star", [[1e-13, 0.0], [1e-300, 0.0]], ids=["1e-13", "1e-300"])
def test_close_endpoints_exit_2(tmp_path, capsys, x_star):
    """Under LOOSE_UNTIL = 1e-3 apart (times max(1, |x*|_inf)) a start could leave its loose
    iterates on an orbit that misses x* by more than the separation: refused, not shot wrong."""
    cfg = dict(CONST_2D, potential=WELLS["bump"], y_star=[0.0, 0.0], x_star=x_star)
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error: endpoints ") and err.endswith(
        "apart; the shoot needs a separation of at least 0.001\n")
    # the separation is named as it is, not as an underflowed 0.0
    assert float(err.split()[3]) == x_star[0]


def test_endpoints_past_the_least_separation_connect_once(tmp_path):
    cfg = dict(CONST_2D, potential=WELLS["bump"], y_star=[0.0, 0.0], x_star=[2e-3, 0.0])
    code, text = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 0
    assert json.loads(text)["uniqueness"]["n_distinct"] == 1


# --------------------------------------------------------------------- kernel

KERNEL_HEADER = ("h,g00_re,g00_im,g01_re,g01_im,g10_re,g10_im,g11_re,g11_im,"
                 "dA,det_exp_prime,ratio_re,ratio_im,abs_ratio_minus_1")


def test_kernel_csv_contract(tmp_path):
    code, text = run_to_file(tmp_path, "kernel", CONST_1D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == KERNEL_HEADER
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 3
    for row, h in zip(rows, (0.2, 0.1, 0.05)):
        cells = row.split(",")
        assert len(cells) == 14
        assert float(cells[0]) == h
        assert float(cells[9]) == pytest.approx(0.8, abs=1e-12)   # dA
        assert float(cells[13]) <= 1e-9                           # 1D is exact
    assert lines[-1].startswith("# slope = ")


@pytest.mark.parametrize("command,config", [
    ("geodesic", BUMP_1D),
    ("kernel", CONST_1D),
    ("validate1d", BUMP_1D),
    ("constant", CONST_2D),
    ("bmt", dict(BUMP_3D, shooting={"multistart": 1})),
], ids=["geodesic", "kernel", "validate1d", "constant", "bmt"])
def test_kernel_output_is_deterministic(tmp_path, command, config):
    code, first = run_to_file(tmp_path, command, config, name="a.out")
    _, second = run_to_file(tmp_path, command, config, name="b.out")
    assert code == 0
    assert first == second


# at d_A = 8, exp(-d_A/h) underflows to 0.0 at h = 0.01: no ratio exists
UNDERFLOW_2D = dict(CONST_2D, x_star=[5.0, 0.0], y_star=[-5.0, 0.0],
                    h_list=[0.2, 0.01], shooting={"multistart": 1})
UNDERFLOW_1D = dict(UNDERFLOW_2D, dimension=1, x_star=[5.0], y_star=[-5.0])


@pytest.mark.parametrize("command,config", [
    ("kernel", UNDERFLOW_2D),
    ("validate1d", UNDERFLOW_1D),
])
def test_underflowed_leading_kernel_is_a_numerical_failure(tmp_path, command, config,
                                                           capsys):
    code, _ = run_to_file(tmp_path, command, config)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_kernel_rejects_nonconstant_potential(tmp_path):
    code, _ = run_to_file(tmp_path, "kernel", BUMP_1D)
    assert code == 2


def test_kernel_beyond_the_closed_form_exits_2_before_the_shoot(tmp_path, capsys, monkeypatch):
    """d > 3 has no constant-V closed form: kernel and constant exit 2 without shooting.

    Neither builds the Dirac representation first: in d = 24 that alone is
    25 complex 4096 x 4096 matrices.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("shoot_geodesic called")

    def small_rep(d):
        if d > 3:
            raise AssertionError(f"build_dirac_rep({d}) called")
        return build_dirac_rep(d)

    monkeypatch.setattr(kernel, "shoot_geodesic", refuse)
    monkeypatch.setattr(cli, "build_dirac_rep", small_rep)
    for command in ("kernel", "constant"):
        for d in (4, 30):
            ends = [[-0.5] + [0.0] * (d - 1), [0.5] + [0.0] * (d - 1)]
            cfg = dict(CONST_2D, dimension=d, y_star=ends[0], x_star=ends[1])
            code, text = run_to_file(tmp_path, command, cfg)
            assert (command, d, code, text) == (command, d, 2, "")
            assert "closed form covers d in {1, 2, 3}" in capsys.readouterr().err


# ----------------------------------------------------------------- validate1d

def test_validate1d_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "validate1d", BUMP_1D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "h,dA,ratio_re,ratio_im,abs_ratio_minus_1"
    devs = [float(ln.split(",")[4]) for ln in lines[1:3]]
    assert devs[1] < devs[0]          # deviation shrinks with h
    assert lines[-2].startswith("# slope = ")
    assert lines[-1].startswith("# adjoint_residual = ")
    assert float(lines[-1].split("=")[1]) <= 1e-8


def test_validate1d_single_h_has_zero_slope(tmp_path):
    # one h gives no log-log fit; the sweep reports slope 0 rather than failing
    code, text = run_to_file(tmp_path, "validate1d", dict(BUMP_1D, h_list=[0.1]))
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.1
    assert lines[2] == "# slope = 0"
    assert float(lines[3].split("=")[1]) <= 1e-8


def test_validate1d_constant_control(tmp_path):
    code, text = run_to_file(tmp_path, "validate1d", CONST_1D)
    assert code == 0
    for line in text.strip().split("\n")[1:4]:
        assert float(line.split(",")[4]) <= 1e-9


def test_validate1d_requires_dimension_one(tmp_path):
    code, _ = run_to_file(tmp_path, "validate1d", CONST_2D)
    assert code == 2


TANH_1D = dict(BUMP_1D, potential={"kind": "tanh_step", "params": {"base": -0.6, "amp": 0.3}})
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,config", [("tanh", TANH_1D), ("bump", BUMP_1D)])
def test_validate1d_matches_its_golden_artifact(tmp_path, name, config):
    """The steep tanh and the bump at h = 0.2, 0.025, byte for byte."""
    code, text = run_to_file(tmp_path, "validate1d", dict(config, h_list=[0.2, 0.025]))
    assert code == 0
    assert text == (DATA / f"validate1d_{name}.csv").read_text()


@pytest.mark.parametrize("command,config,artifact", [
    ("bmt", dict(BUMP_3D, shooting={"multistart": 1}), "bmt_d3_bump.csv"),
    ("geodesic", BUMP_3D, "geodesic_d3_bump.json"),
])
def test_d3_shot_matches_its_golden_artifact(tmp_path, command, config, artifact):
    """bmt after a single start and geodesic after the fan on the d=3 bump, byte for byte."""
    code, text = run_to_file(tmp_path, command, config)
    assert code == 0
    assert text == (DATA / artifact).read_text()


def test_validate1d_marches_once_per_side_per_h(tmp_path, monkeypatch):
    """G(y, x) for the adjoint check is glued from the last h's marches, not marched again."""
    calls, march = [], oracle1d.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return march(*args, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", counting)
    code, _ = run_to_file(tmp_path, "validate1d", BUMP_1D)
    assert code == 0
    assert len(calls) == 2 * len(BUMP_1D["h_list"])


def test_validate1d_reads_the_pair_at_its_last_h_alone(tmp_path, monkeypatch):
    """Only the last h's adjoint check reads G(y, x): earlier h march the away side to y alone.

    G(x, y) reads the solution recessive away from x at y only, so each h
    but the last reads three points over its two marches, and the last h,
    whose marches also glue G(y, x), reads four.
    """
    reads, decaying_solution = [], oracle1d.decaying_solution

    def counting(model, side, points, h, span=()):
        reads.append((h, len(points)))
        return decaying_solution(model, side, points, h, span)

    monkeypatch.setattr(oracle1d, "decaying_solution", counting)
    code, _ = run_to_file(tmp_path, "validate1d", BUMP_1D)
    assert code == 0
    *first, last = BUMP_1D["h_list"]
    assert sorted(reads) == sorted([(h, 1) for h in first] + [(h, 2) for h in first]
                                   + [(last, 2), (last, 2)])


# ------------------------------------------------------------------- constant

def test_constant_rows_match_library(tmp_path):
    code, text = run_to_file(tmp_path, "constant", CONST_2D)
    assert code == 0
    lines = text.strip().split("\n")
    rep = build_dirac_rep(2)
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        h = cells[0]
        got = np.array(cells[1::2][:4]) + 1j * np.array(cells[2::2][:4])
        ref = constant_V_exact(rep, -0.6, [0.5, 0.0], [-0.5, 0.0], h).ravel()
        np.testing.assert_allclose(got, ref, rtol=1e-14)


def test_constant_emits_to_stdout_without_out(tmp_path, capsys):
    code = cli.main(["constant", "--config", write_config(tmp_path, CONST_1D)])
    assert code == 0
    assert capsys.readouterr().out.startswith("h,g00_re")


# ------------------------------------------------------------------------ bmt

def test_bmt_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "bmt", BUMP_3D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "t,s1,s2,s3,abs_s,bmt2_residual"
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 201
    for row in rows[:: 50]:
        cells = [float(c) for c in row.split(",")]
        assert cells[4] == pytest.approx(1.0, abs=1e-9)   # Bloch norm
    footers = {ln.split(" = ")[0]: ln.split(" = ")[1]
               for ln in lines[1:] if ln.startswith("#")}
    assert float(footers["# unitarity_defect"]) <= 1e-9
    assert float(footers["# residual_left_inverse"]) <= 1e-6
    assert footers["# best"] == "left_inverse"
    assert footers["# passed"] == "true"


def test_bmt_requires_dimension_three(tmp_path):
    code, _ = run_to_file(tmp_path, "bmt", CONST_2D)
    assert code == 2


# ------------------------------------------------------------- config handling

def bump_2d(**params):
    return {"kind": "bump_well",
            "params": dict({"base": -0.6, "depth": 0.3, "radius": 2.0}, **params)}


@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("potential"),
    lambda c: c.update(extra_field=1),
    lambda c: c.update(dimension=0),
    lambda c: c.update(x_star=[0.5]),                    # wrong length for d=2
    lambda c: c.update(y_star=c["x_star"]),              # coincident endpoints
    lambda c: c.update(h_list=[0.1, 0.2]),               # not decreasing
    lambda c: c.update(h_list=[2.0, 0.1]),               # h outside (0, 1]
    lambda c: c.update(potential={"kind": "nope"}),
    lambda c: c.update(ode={"bogus": 1.0}),
    lambda c: c.update(shooting={"allow_conjugate": True}),
    lambda c: c.update(dimension=True),                  # bool is not a dimension
    lambda c: c.update(x_star=[float("nan"), 0.0]),      # non-finite point
    lambda c: c.update(potential={"kind": "constant",    # outside the gap (-1, 0)
                                  "params": {"value": -1.5}}),
    lambda c: c.update(x_star=["a"]),                    # non-numeric point
    lambda c: c.update(x_star={"a": 1}),
    lambda c: c.update(h_list=["a"]),                    # non-numeric h
    lambda c: c.update(h_list=5),                        # not a list
    lambda c: c.update(ode={"rel_tol": "x"}),
    lambda c: c.update(ode="abc"),                       # not an object
    lambda c: c.update(ode={"abs_tol": -1}),             # non-positive tolerance
    lambda c: c.update(ode={"max_step": 0}),
    lambda c: c.update(shooting={"multistart": "x"}),
    lambda c: c.update(shooting={"max_iter": None}),
    lambda c: c.update(shooting=[1]),
    lambda c: c.update(shooting={"multistart": 0}),      # an empty fan
    lambda c: c.update(shooting={"newton_tol": 0}),      # non-positive shooting tolerance
    lambda c: c.update(shooting={"newton_tol": float("nan")}),
    lambda c: c.update(shooting={"merge_tol": -1}),
    lambda c: c.update(shooting={"conjugacy_tol": -1}),
    lambda c: c.update(h_list="1"),                      # h_list must be an array
    lambda c: c.update(h_list={"0.5": 1}),
    lambda c: c.update(potential=bump_2d(radius=0.0)),   # radius finite and positive
    lambda c: c.update(potential=bump_2d(radius=float("nan"))),
    lambda c: c.update(potential=bump_2d(radius=-2.0)),
    lambda c: c.update(potential=dict(bump_2d(radius=0.0), kind="cosine_well")),
    lambda c: c.update(potential=bump_2d(center=[0.0, 0.0, 0.0])),  # center of length d
    lambda c: c.update(dimension=1, x_star=[0.5], y_star=[-0.5],   # tanh: scalar center
                       potential={"kind": "tanh_step",
                                  "params": {"base": -0.5, "amp": 0.2, "center": [0.0]}}),
    lambda c: c.update(potential=dict(bump_2d(), window=float("nan"))),  # the family sets
    lambda c: c.update(potential=dict(bump_2d(), window=-5.0)),          # window and margin
    lambda c: c.update(potential=dict(bump_2d(), box_half=float("nan"))),  # V lives on R^d:
    lambda c: c.update(potential=dict(bump_2d(), box_half=-1.0)),          # no box to set
    lambda c: c.update(potential=dict(bump_2d(), delta=float("nan"))),
    lambda c: c.update(potential=dict(bump_2d(), delta=-0.5)),
    lambda c: c.update(potential={"kind": "bump_well",                     # misspelt center
                                  "params": dict(bump_2d()["params"], centre=[3.0, 0.0])}),
    lambda c: c.update(potential=dict(bump_2d(), box_halff=5.0)),          # unknown field
    lambda c: c.update(shooting={"max_iter": True}),                       # a bool is no count
    lambda c: c.update(shooting={"multistart": True}),
    lambda c: c.update(shooting={"newton_tol": True}),                     # read as 1.0
    lambda c: c.update(x_star=[True, False]),                              # read as [1, 0]
    lambda c: c.update(h_list=[True, 0.5]),                                # read as [1, 0.5]
    lambda c: c.update(shooting={"multistart": 2.7}),                      # a count is whole
    lambda c: c.update(shooting={"max_iter": 2.5}),
    lambda c: c.update(shooting={"max_iter": float("inf")}),               # no int for inf
    lambda c: c.update(potential=bump_2d(radius=True)),                    # read as 1.0
    lambda c: c.update(potential=dict(c["potential"], window=True)),
    lambda c: c.update(potential=dict(c["potential"], box_half=True)),
    lambda c: c.update(potential=bump_2d(center=True)),
    lambda c: c.update(dimension=1, x_star=[0.5], y_star=[-0.5],
                       potential={"kind": "tanh_step",
                                  "params": {"base": -0.5, "amp": 0.2, "center": False}}),
    lambda c: c.update(ode={"max_step": 0.5}),                             # not an option
    lambda c: c.update(x_star=[1e308, 0.1], y_star=[-1e308, 0.0]),      # past +-1e100
    lambda c: c.update(h_list=[10**400]),                     # no float holds these
    lambda c: c.update(x_star=[10**400, 0.0]),
    lambda c: c.update(potential={"kind": "constant", "params": {"value": -10**400}}),
    lambda c: c.update(potential=bump_2d(radius=5e-324)),  # radius^2 underflows to 0
    lambda c: c.update(potential=bump_2d(radius=1e200)),   # radius^2 overflows
    lambda c: c.update(x_star=[1.0000000000000002e100, 0.0]),  # just past +-1e100
    lambda c: c.update(potential=bump_2d(center=[0.0, -1e101])),
])
def test_config_rejection_paths(tmp_path, mutate, capsys):
    cfg = json.loads(json.dumps(CONST_2D))
    mutate(cfg)
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_each_module_loads_only_what_it_uses(tmp_path):
    """In a fresh interpreter the 1D oracle and the transport load no flow module, and a
    geodesic run loads no self-check."""
    probe = "\n".join([
        "import sys",
        "import diracgreen.oracle1d, diracgreen.transport",
        "print('diracgreen.geoflow' in sys.modules)",
        "from diracgreen import cli",
        f"code = cli.main(['geodesic', '--config', {write_config(tmp_path, CONST_2D)!r},",
        f"                 '--out', {str(tmp_path / 'geo.json')!r}])",
        "print(code, 'diracgreen.selfcheck' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


def _hs(text):
    """The h values of a comma-separated list, as a config's h_list."""
    return [float(h) for h in text.split(",")]


@pytest.mark.parametrize("h_list", ["0.2,1e-6", "0.2,1e-100"])
def test_validate1d_underflowing_kernel_exits_3(tmp_path, h_list):
    """Where e^(-d_A/h) underflows, validate1d names d_A/h and exits 3 before the oracle runs."""
    proc = subprocess.run(
        [sys.executable, "-m", "diracgreen.cli", "validate1d", "--config",
         write_config(tmp_path, dict(BUMP_1D, h_list=_hs(h_list)))],
        capture_output=True, text=True, timeout=15, env=_src_env())
    assert proc.returncode == 3
    assert "d_A/h" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("h_list", ["0.2,0.002", "0.2,0.0015"])
def test_validate1d_tiny_kernel_keeps_its_ratio(tmp_path, h_list):
    """A kernel near 1e-211 or 1e-281 is not zero: the norms are taken after an exact rescale."""
    proc = subprocess.run(
        [sys.executable, "-m", "diracgreen.cli", "validate1d", "--config",
         write_config(tmp_path, dict(BUMP_1D, h_list=_hs(h_list)))],
        capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.strip().split("\n")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:3]]
    footer = [float(line.split("=")[1]) for line in lines[3:]]
    assert len(footer) == 2 and np.all(np.isfinite(rows)) and np.all(np.isfinite(footer))
    assert abs(rows[1][2] - 1.0) < 1e-2     # ratio_re at the small h


OFFCENTER_1D = dict(BUMP_1D, x_star=[1.2], potential={
    "kind": "bump_well", "params": {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": 0.3}})


@pytest.mark.parametrize("name,config,h_list", [
    ("offcenter", OFFCENTER_1D, "0.2,0.1,0.05,0.025"),
    ("h0005", BUMP_1D, "0.2,0.005"),
])
def test_validate1d_trial_stage_overflow_is_silent(tmp_path, name, config, h_list):
    """Runs whose oracle march overflowed on a rejected trial stage: exit 0, no warning.

    They overflowed while their marches started at the window's edge, and
    printed numpy's warnings to stderr before the march silenced them; from
    the contraction anchor they no longer overflow (tests/test_oracle1d.py),
    and the float march would raise no warning where a stage did.  The
    golden files hold their stdout from the float march.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "diracgreen.cli", "validate1d", "--config",
         write_config(tmp_path, dict(config, h_list=_hs(h_list)))],
        capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == (DATA / f"validate1d_bump_{name}.csv").read_text()


def test_shooting_failure_tallies_start_outcomes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geoflow, "MAX_ITER", 1)
    cfg = dict(CONST_2D, potential=bump_2d(), x_star=[1.0, 0.4], y_star=[-1.0, -0.3])
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert "no connecting orbit found from 8 start directions: " in err
    tally = err.strip().split("start directions: ")[1].split(", ")
    assert "8 max_iter" in tally
    assert sum(int(item.split(" ")[0]) for item in tally) == 8


def test_missing_and_unreadable_configs(tmp_path, capsys):
    assert cli.main(["geodesic"]) == 2
    assert cli.main(["geodesic", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["geodesic", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert cli.main(["geodesic", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-dir", "a-dir"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    """An --out that cannot be opened, for a command and for selfcheck, is a config error."""
    out = str(tmp_path / target)
    assert cli.main(["constant", "--config", write_config(tmp_path, CONST_1D),
                     "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write artifact:")
    assert cli.main(["selfcheck", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write artifact:")


def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch):
    """The artifact path is checked before selfcheck or a shot runs."""
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its artifact path was checked")

    monkeypatch.setattr(selfcheck, "_dim_checks", no_work)
    monkeypatch.setattr(cli, "shoot_geodesic", no_work)
    out = str(tmp_path / "missing" / "x.json")
    assert cli.main(["selfcheck", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write artifact:")
    assert cli.main(["geodesic", "--config", write_config(tmp_path, CONST_2D),
                     "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write artifact:")
    assert not (tmp_path / "missing").exists()


def test_unwritable_out_still_exits_2_when_open_fails(tmp_path, capsys, monkeypatch):
    """Past the early check, an artifact that open() refuses is still a config error."""
    monkeypatch.setattr(cli, "_check_writable", lambda path: None)
    assert cli.main(["constant", "--config", write_config(tmp_path, CONST_1D),
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write artifact:")


def test_failed_run_keeps_the_existing_artifact(tmp_path, capsys, monkeypatch):
    """A run that exits 3 neither truncates nor rewrites the artifact it would have written."""
    out = tmp_path / "out.json"
    out.write_text("the previous artifact\n")
    monkeypatch.setattr(geoflow, "CONJUGACY_TOL", 1e6)
    assert cli.main(["geodesic", "--config", write_config(tmp_path, CONST_2D),
                     "--out", str(out)]) == 3
    assert out.read_text() == "the previous artifact\n"
    capsys.readouterr()


@pytest.mark.parametrize("key", ["delta", "window", "box_half", "out"])
def test_derived_and_removed_keys_exit_2_and_name_the_key(tmp_path, capsys, key):
    """The family gives the margin and the window, V has no domain box, and --out alone
    gives the artifact path."""
    target = tmp_path / "from_config.csv"
    cfg = json.loads(json.dumps(CONST_1D))
    if key == "out":
        cfg["out"] = str(target)
    else:
        cfg["potential"][key] = 0.3
    assert cli.main(["constant", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"['{key}']" in err
    assert not target.exists()


@pytest.mark.parametrize("flags,refused", [
    (["--config", "/nonexistent.json"], "--config"),
], ids=["config"])
def test_selfcheck_refuses_config_and_h_list(capsys, monkeypatch, flags, refused):
    """selfcheck reads no config: it exits 2 before any line runs."""
    def no_work(*args, **kwargs):
        raise AssertionError("selfcheck ran with a flag it does not read")

    monkeypatch.setattr(selfcheck, "_dim_checks", no_work)
    assert cli.main(["selfcheck", *flags]) == 2
    assert capsys.readouterr().err == f"config error: selfcheck does not take {refused}\n"


def test_removed_flags_exit_2(capsys):
    """The config is every command's one input: argparse refuses --h-list and --dim."""
    for command in cli._COMMANDS:
        for flag in (["--h-list", "0.1"], ["--dim", "1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    proc = subprocess.run([sys.executable, "-m", "diracgreen.cli", "selfcheck", "--dim", "1"],
                          capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: diracgreen")
    assert "unrecognized arguments: --dim 1" in proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------------------------ config fuzz

FUZZ_CONFIG = {
    "dimension": 2,
    "potential": {"kind": "constant", "params": {"value": -0.6}},
    "x_star": [0.5, 0.1],
    "y_star": [-0.5, 0.0],
    "h_list": [0.2, 0.1],
    "shooting": {"multistart": 4},
}
# the constant command rejects these wells after parsing them, so they exit 2 when unmutated
FUZZ_WELL = dict(FUZZ_CONFIG, potential={
    "kind": "bump_well", "params": {"base": -0.6, "depth": 0.3, "radius": 2.0,
                                    "center": [0.25, -0.5]}})
FUZZ_COSINE = dict(FUZZ_CONFIG, potential={
    "kind": "cosine_well", "params": {"base": -0.55, "depth": 0.35, "radius": 2.5,
                                      "center": [-0.3, 0.2]}})
FUZZ_TANH = dict(FUZZ_CONFIG, dimension=1, x_star=[0.5], y_star=[-0.5], potential={
    "kind": "tanh_step", "params": {"base": -0.5, "amp": 0.2, "center": 0.1}})
FUZZ_MENU = [float("nan"), float("inf"), -float("inf"), -1, 0, 2, 0.5, -0.5, 1e308,
             -1e308, 5e-324, True, False, "x", "0.5", [], {}, None, [True, 0.5],
             [0.5], [[0.5, 0.5]], {"value": -0.6}]


def _key_paths(node, path=()):
    """Every key or index path into a JSON tree, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _mutated(config, path, edit):
    cfg = json.loads(json.dumps(config))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return cfg


def _fuzz_exit(tmp_path, cfg, command="constant"):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "fuzz.csv")])


def test_fuzz_renamed_keys_exit_2(tmp_path, capsys):
    """Every config object rejects a key it does not know: a typo never exits 0."""
    assert _fuzz_exit(tmp_path, FUZZ_CONFIG) == 0
    findings = []
    for path in _key_paths(FUZZ_CONFIG):
        if isinstance(path[-1], str):
            cfg = _mutated(FUZZ_CONFIG, path,
                           lambda obj, key: obj.__setitem__(key + "_x", obj.pop(key)))
            code = _fuzz_exit(tmp_path, cfg)
            if code != 2:
                findings.append((path, code))
    capsys.readouterr()
    assert findings == []


@pytest.mark.parametrize("config", [FUZZ_CONFIG, FUZZ_WELL, FUZZ_COSINE, FUZZ_TANH],
                         ids=["constant", "well", "cosine_d2", "tanh_d1"])
def test_fuzz_every_field_exits_0_2_or_3(tmp_path, capsys, config):
    """Each value of a fixed menu in each field: a documented exit code, never an exception.

    Unmutated, the constant config exits 0 and a well reaches the constant
    command's refusal, so that a mutation is parsed as far as it can be.
    """
    code = _fuzz_exit(tmp_path, config)
    err = capsys.readouterr().err
    if config is FUZZ_CONFIG:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, "config error: the constant command requires "
                                  "potential.kind = 'constant'\n")
    findings = []
    for path in _key_paths(config):
        for value in FUZZ_MENU:
            cfg = _mutated(config, path, lambda obj, key: obj.__setitem__(key, value))
            try:
                code = _fuzz_exit(tmp_path, cfg)
            except Exception as exc:   # any escape is a finding, reported all at once
                findings.append((path, value, repr(exc)))
                continue
            if code not in (0, 2, 3):
                findings.append((path, value, code))
    capsys.readouterr()
    assert findings == []


# cheap shots: the d=2 well, a 1D well for validate1d and a d=3 well for bmt, one start,
# two coarse h
FUZZ_SHOT = dict(FUZZ_WELL, shooting={"multistart": 1})
FUZZ_1D = dict(FUZZ_SHOT, dimension=1, x_star=[0.5], y_star=[-0.5], potential={
    "kind": "bump_well", "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}})
FUZZ_3D = dict(FUZZ_SHOT, dimension=3, x_star=[0.5, 0.1, 0.0], y_star=[-0.5, 0.0, 0.1],
               potential={"kind": "bump_well",
                          "params": {"base": -0.6, "depth": 0.3, "radius": 2.0,
                                     "center": [0.25, -0.5, 0.0]}})
FUZZ_BUDGET_S = 10.0


def _numbers(text):
    """Every token of an artifact that reads as a float, nan and inf included."""
    for token in re.split(r"[\s,=:\[\]{}\"]+", text):
        try:
            yield float(token)
        except ValueError:
            pass


def _fuzz_finding(capsys, artifact, run):
    """None if run() exits 0, 2 or 3 within the budget, with on exit 0 an empty stderr and
    only finite numbers in the artifact; else what went wrong.
    """
    artifact.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = run()
    except Exception as exc:   # any escape is a finding
        return repr(exc)
    wall = time.perf_counter() - start
    err = capsys.readouterr().err
    if code not in (0, 2, 3) or wall > FUZZ_BUDGET_S:
        return code, wall
    if code == 0 and (err or not all(map(math.isfinite, _numbers(artifact.read_text())))):
        return err, artifact.read_text()
    return None


@pytest.mark.parametrize("command,config,fields", [
    ("geodesic", FUZZ_SHOT, None), ("kernel", FUZZ_CONFIG, None), ("validate1d", FUZZ_1D, None),
    ("bmt", FUZZ_3D, ("potential", "x_star", "y_star")),
], ids=["geodesic", "kernel", "validate1d", "bmt"])
def test_fuzz_computing_commands(tmp_path, capsys, command, config, fields):
    """Each menu value in each field (under the top-level keys fields, when given): exit 0,
    2 or 3 within the time budget.

    On exit 0 every number of the artifact is finite and stderr is empty.
    Unmutated, the config exits 0 through the command.
    """
    assert _fuzz_exit(tmp_path, config, command) == 0
    assert capsys.readouterr().err == ""
    findings = []
    for path in _key_paths(config):
        if fields and path[0] not in fields:
            continue
        for value in FUZZ_MENU:
            cfg = _mutated(config, path, lambda obj, key: obj.__setitem__(key, value))
            finding = _fuzz_finding(capsys, tmp_path / "fuzz.csv",
                                    lambda: _fuzz_exit(tmp_path, cfg, command))
            if finding is not None:
                findings.append((path, value, finding))
    assert findings == []
