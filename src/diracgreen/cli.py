"""Command line harness: JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 self-check invariant failure, 2 configuration
error, 3 numerical failure (shooting, conjugacy, conditioning).  All float
output uses 17 significant digits and complex values are emitted as paired
re/im columns, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import potential as potential_mod
from .bmt import equivalence_check, solve_bmt_spin
from .clifford import (DiracRep, DomainError, build_dirac_rep, clifford_residual,
                       dirac_symbol, lambda_branches, projector, refuse_booleans)
from .geoflow import (NumericalError, agmon_distance_quadrature_1d,
                      exp_inverse_from_geodesic, exp_prime_fd, integrate_flow,
                      shoot_geodesic)
from .kernel import (bessel_K, bessel_K_oracle, constant_V_exact, exact_sweep,
                     leading_kernel_1d, leading_kernel_multid,
                     positive_potential_kernel, ratio_sweep, unit_scale)
from .oracle1d import exact_green_kernel_1d, exact_green_kernel_pair_1d
from .potential import fd_consistency, make_potential, validate_hypothesis
from .transport import rotation_1d, solve_spinor_transport, theta_1d, transport_matrix

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _fmt(value):
    return format(float(value), ".17g")


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    model: object
    x_star: np.ndarray | None
    y_star: np.ndarray | None
    h_list: tuple
    multistart: int | None
    out: str | None

    _KEYS = ("dimension", "potential", "x_star", "y_star", "h_list", "shooting", "out")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(cls._KEYS)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if "dimension" not in data:
            raise ConfigError("missing config field: dimension")
        dim = data["dimension"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ConfigError(f"dimension must be a positive integer, got {dim!r}")
        if "potential" not in data:
            raise ConfigError("missing config field: potential")
        model = potential_mod.from_config(dim, data["potential"])

        def point(key):
            if key not in data or data[key] is None:
                return None
            refuse_booleans(key, data[key])
            arr = np.asarray(data[key], dtype=float).reshape(-1)
            if arr.shape != (dim,):
                raise ConfigError(f"{key} must have length {dim}")
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{key} must be finite, got {arr.tolist()}")
            if np.abs(arr).max() > model.box_half:
                raise ConfigError(f"{key} {arr.tolist()} lies outside the domain box "
                                  f"[+-{model.box_half}]^{dim}")
            return arr

        x_star = point("x_star")
        y_star = point("y_star")
        if x_star is not None and y_star is not None:
            if np.array_equal(x_star, y_star):
                raise ConfigError("x_star and y_star must differ")
            with np.errstate(over="ignore"):
                sep = float(np.linalg.norm(x_star - y_star))
            if not math.isfinite(sep):
                raise ConfigError("the separation |x_star - y_star| overflows a float; "
                                  "move the points closer together")
        out = data.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out must be a string path")
        h_list = data.get("h_list", [])
        if not isinstance(h_list, list):
            raise ConfigError(f"h_list must be an array, got {h_list!r}")
        return cls(dimension=dim, model=model, x_star=x_star, y_star=y_star,
                   h_list=_h_list(h_list),
                   multistart=_multistart(data.get("shooting")), out=out)


def _multistart(shooting):
    """shooting.multistart, the one solver key: null, or a whole number >= 1."""
    shooting = {} if shooting is None else shooting
    if not isinstance(shooting, dict):
        raise ConfigError(f"shooting must be an object, got {shooting!r}")
    unknown = set(shooting) - {"multistart"}
    if unknown:
        raise ConfigError(f"unknown shooting option(s): {sorted(unknown)}; "
                          f"multistart is the only one")
    count = shooting.get("multistart")
    if count is None:
        return None
    if isinstance(count, float) and count.is_integer():
        count = int(count)
    # a boolean is an int to Python
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(f"shooting.multistart must be null or a whole number >= 1, "
                          f"got {count!r}")
    return count


def _h_list(values):
    """Parse h values, each in [1e-100, 1] (h^-d stays a float) and decreasing, into a tuple."""
    refuse_booleans("h_list", values)
    h_list = tuple(float(h) for h in values)
    for h in h_list:
        if not 1e-100 <= h <= 1.0:
            raise ConfigError(f"every h must lie in [1e-100, 1], got {h}")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ConfigError("h_list must be strictly decreasing")
    return h_list


def _require(cfg, *fields):
    for name in fields:
        if getattr(cfg, name) is None or (name == "h_list" and not cfg.h_list):
            raise ConfigError(f"missing config field: {name}")


def _complex_columns(prefix, n):
    names = []
    for i in range(n):
        for j in range(n):
            names.append(f"{prefix}{i}{j}_re")
            names.append(f"{prefix}{i}{j}_im")
    return names


def _matrix_cells(mat):
    cells = []
    for entry in np.asarray(mat).ravel():
        cells.append(_fmt(entry.real))
        cells.append(_fmt(entry.imag))
    return cells


# ---------------------------------------------------------------------------
# commands


def cmd_geodesic(cfg):
    _require(cfg, "x_star", "y_star")
    geo = shoot_geodesic(cfg.model, cfg.y_star, cfg.x_star, multistart=cfg.multistart)
    payload = {
        "tau": geo.tau,
        "p0": [float(v) for v in geo.p0],
        "dA": geo.agmon,
        "bordered_det": geo.bordered_det,
        "det_exp_prime": geo.det_exp_prime,
        "conjugate": False,   # a near-conjugate pair exits 3 instead
        "uniqueness": geo.uniqueness,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_kernel(cfg):
    _require(cfg, "x_star", "y_star", "h_list")
    if cfg.model.kind != "constant":
        raise ConfigError("the kernel command compares against the constant-potential "
                          "closed form; potential.kind must be 'constant'")
    rep = build_dirac_rep(cfg.dimension)
    sweep = ratio_sweep(rep, cfg.model.params["value"], cfg.x_star, cfg.y_star,
                        cfg.h_list, multistart=cfg.multistart)
    header = (["h"] + _complex_columns("g", rep.dstar)
              + ["dA", "det_exp_prime", "ratio_re", "ratio_im", "abs_ratio_minus_1"])
    lines = [",".join(header)]
    for h, ratio, dev, est in zip(sweep.h_list, sweep.ratios, sweep.deviations,
                                  sweep.estimates):
        row = ([_fmt(h)] + _matrix_cells(est.matrix)
               + [_fmt(sweep.agmon), _fmt(sweep.det_exp_prime),
                  _fmt(ratio.real), _fmt(ratio.imag), _fmt(dev)])
        lines.append(",".join(row))
    lines.append(f"# slope = {_fmt(sweep.slope)}")
    return "\n".join(lines) + "\n"


def cmd_validate1d(cfg):
    _require(cfg, "x_star", "y_star", "h_list")
    if cfg.dimension != 1:
        raise ConfigError("validate1d requires dimension = 1")
    x, y = float(cfg.x_star[0]), float(cfg.y_star[0])
    reverse = []    # G(y, x) at each h, glued from the forward kernel's marches

    def exact(h):
        fwd, rev = exact_green_kernel_pair_1d(cfg.model, x, y, h)
        reverse.append(rev)
        return fwd

    sweep = exact_sweep(cfg.model, build_dirac_rep(1), cfg.x_star, cfg.y_star, cfg.h_list,
                        exact, multistart=cfg.multistart)
    lines = ["h,dA,ratio_re,ratio_im,abs_ratio_minus_1"]
    for h, ratio, dev in zip(sweep.h_list, sweep.ratios, sweep.deviations):
        lines.append(",".join([_fmt(h), _fmt(sweep.agmon), _fmt(ratio.real),
                               _fmt(ratio.imag), _fmt(dev)]))
    # the adjoint check pairs the forward kernel at the smallest h with its reverse
    oracle, rev = sweep.references[-1], reverse[-1]
    s = unit_scale(oracle)
    adjoint = float(np.linalg.norm(s * oracle.conj().T - s * rev) / np.linalg.norm(s * oracle))
    lines.append(f"# slope = {_fmt(sweep.slope)}")
    lines.append(f"# adjoint_residual = {_fmt(adjoint)}")
    return "\n".join(lines) + "\n"


def cmd_constant(cfg):
    _require(cfg, "x_star", "y_star", "h_list")
    if cfg.model.kind != "constant":
        raise ConfigError("the constant command requires potential.kind = 'constant'")
    rep = build_dirac_rep(cfg.dimension)
    header = ["h"] + _complex_columns("g", rep.dstar)
    lines = [",".join(header)]
    for h in cfg.h_list:
        exact = constant_V_exact(rep, cfg.model.params["value"],
                                 cfg.x_star, cfg.y_star, h)
        lines.append(",".join([_fmt(h)] + _matrix_cells(exact)))
    return "\n".join(lines) + "\n"


def cmd_bmt(cfg):
    _require(cfg, "x_star", "y_star")
    if cfg.dimension != 3:
        raise ConfigError("the bmt command requires dimension = 3")
    rep = build_dirac_rep(3)
    geo = shoot_geodesic(cfg.model, cfg.y_star, cfg.x_star, multistart=cfg.multistart)
    spin = solve_bmt_spin(cfg.model, geo.trajectory)
    report = equivalence_check(cfg.model, rep, geo, spin=spin)
    lines = ["t,s1,s2,s3,abs_s,bmt2_residual"]
    for i, t in enumerate(spin.times):
        s_vec = spin.bloch[i]
        lines.append(",".join([_fmt(t), _fmt(s_vec[0]), _fmt(s_vec[1]),
                               _fmt(s_vec[2]), _fmt(np.linalg.norm(s_vec)),
                               _fmt(spin.residual_path[i])]))
    lines.append(f"# unitarity_defect = {_fmt(spin.unitarity_defect)}")
    lines.append(f"# residual_left_inverse = {_fmt(report.residual_left_inverse)}")
    lines.append(f"# residual_transpose = {_fmt(report.residual_transpose)}")
    lines.append(f"# best = {report.best}")
    lines.append(f"# passed = {'true' if report.passed else 'false'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# self checks


def _perturbed_rep(rep):
    alphas = [a.copy() for a in rep.alphas]
    alphas[0] = alphas[0].copy()
    alphas[0][0, -1] += 1e-6
    return DiracRep(dim=rep.dim, dstar=rep.dstar, alpha0=rep.alpha0, alphas=tuple(alphas))


def _families(d):
    models = [
        make_potential(d, "constant", {"value": -0.6}),
        make_potential(d, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
        make_potential(d, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    ]
    if d == 1:
        models.append(make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2}))
    return models


_ENDPOINTS = {
    1: ([-1.0], [1.0]),
    2: ([-1.0, -0.3], [1.0, 0.4]),
    3: ([-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
}


def _scale_invariant(est, dim):
    return (math.log(est.prefactor) + est.agmon / est.h + dim * math.log(est.h)
            + 0.5 * (dim - 1) * math.log(2.0 * math.pi * est.agmon / est.h))


def _dim_checks(d, fault=None):
    checks = []

    def add(name, residual, tol):
        checks.append({"name": f"{name}_d{d}", "residual": float(residual),
                       "tol": float(tol), "pass": bool(residual <= tol)})

    rep = build_dirac_rep(d)
    rep_checked = _perturbed_rep(rep) if fault == "clifford" else rep
    add("clifford_relations", clifford_residual(rep_checked), 1e-14)

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
    add("hypothesis_gap",
        max(m.delta - validate_hypothesis(m).delta_hat for m in fam), 0.0)

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
    fd = np.empty((d, d))
    eps = 1e-5
    for j in range(d):
        e_j = np.zeros(d)
        e_j[j] = eps
        plus = integrate_flow(model, geo.y_star, geo.p0 + e_j, geo.tau,
                              variational=False)
        minus = integrate_flow(model, geo.y_star, geo.p0 - e_j, geo.tau,
                               variational=False)
        fd[:, j] = (plus.x_end - minus.x_end) / (2.0 * eps)
    add("jacobi_fd", np.linalg.norm(fd - dpx) / np.linalg.norm(dpx), 1e-6)

    geo_rev = shoot_geodesic(model, x_pt, y_pt)
    add("agmon_reciprocity", abs(geo.agmon - geo_rev.agmon), 1e-9)

    transport = solve_spinor_transport(model, rep, traj)
    add("transport_unitarity", transport.unitarity_defect, 1e-9)

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

        pos_model = make_potential(1, "constant", {"value": 0.6})
        pos = positive_potential_kernel(pos_model, rep, [0.5], [-0.5], 0.1)
        neg = leading_kernel_1d(fam[0], rep, 0.5, -0.5, 0.1)
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


def run_selfcheck(dims=(1, 2, 3), fault=None):
    checks = []
    for d in dims:
        checks.extend(_dim_checks(d, fault))
    bessel_res = 0.0
    for nu in (0.5, 1.0, 1.5):
        for rho in (0.5, 1.0, 2.0, 2.5, 5.0, 10.0, 50.0):
            oracle = bessel_K_oracle(nu, rho)
            bessel_res = max(bessel_res, abs(bessel_K(nu, rho) - oracle) / oracle)
    checks.append({"name": "bessel_oracle", "residual": float(bessel_res),
                   "tol": 1e-10, "pass": bool(bessel_res <= 1e-10)})
    return {"checks": checks, "n_checks": len(checks),
            "passed": all(c["pass"] for c in checks)}


def cmd_selfcheck(dims, fault):
    report = run_selfcheck(dims, fault)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return report, text


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = ("selfcheck", "geodesic", "kernel", "validate1d", "constant", "bmt")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diracgreen",
        description="Semiclassical Dirac Green-kernel harness")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output path (overrides config)")
    parser.add_argument("--h-list", help="comma-separated h values (overrides config)")
    parser.add_argument("--dim", type=int, choices=(1, 2, 3),
                        help="restrict selfcheck to one dimension")
    parser.add_argument("--inject-fault", choices=("clifford",),
                        help="self-test hook: corrupt one invariant on purpose")
    return parser


def _load_config(args):
    if args.config is None:
        raise ConfigError("this command requires --config")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        cfg = RunConfig.from_dict(data)
        if args.h_list:
            cfg = replace(cfg, h_list=_h_list(
                tok for tok in args.h_list.split(",") if tok.strip()))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # DomainError (a bad potential) is a ValueError too
        raise ConfigError(f"bad config value ({type(exc).__name__}): {exc}") from exc
    return cfg


def _emit(text, args, cfg=None):
    path = args.out or (cfg.out if cfg is not None else None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selfcheck":
            dims = (args.dim,) if args.dim else (1, 2, 3)
            report, text = cmd_selfcheck(dims, args.inject_fault)
            _emit(text, args)
            if not report["passed"]:
                first = next(c for c in report["checks"] if not c["pass"])
                print(f"selfcheck failed: {first['name']} "
                      f"(residual {first['residual']:.3e} > tol {first['tol']:.1e})",
                      file=sys.stderr)
                return EXIT_INVARIANT
            return EXIT_OK

        cfg = _load_config(args)
        handler = {"geodesic": cmd_geodesic, "kernel": cmd_kernel,
                   "validate1d": cmd_validate1d, "constant": cmd_constant,
                   "bmt": cmd_bmt}[args.command]
        _emit(handler(cfg), args, cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
