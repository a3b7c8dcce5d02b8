"""Command line harness: JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 self-check invariant failure, 2 configuration
error, 3 numerical failure (shooting, conjugacy, conditioning).  All float
output uses 17 significant digits and complex values are emitted as paired
re/im columns, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import potential as potential_mod
from .bmt import equivalence_check, solve_bmt_spin
from .clifford import DomainError, build_dirac_rep, refuse_booleans
from .dop853 import NumericalError
from .geoflow import shoot_geodesic
from .kernel import closed_form_dim, constant_V_exact, exact_sweep, ratio_sweep, unit_scale
from .oracle1d import exact_green_kernel_1d, exact_green_kernel_pair_1d

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
    model: object    # its dim is the config's dimension
    x_star: np.ndarray | None
    y_star: np.ndarray | None
    h_list: tuple
    multistart: int | None

    _KEYS = ("dimension", "potential", "x_star", "y_star", "h_list", "shooting")

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
            if not np.all(np.abs(arr) <= potential_mod.COORD_LIMIT):
                raise ConfigError(f"{key} must be finite, each coordinate within "
                                  f"+-{potential_mod.COORD_LIMIT:g}, got {arr.tolist()}")
            return arr

        x_star = point("x_star")
        y_star = point("y_star")
        if x_star is not None and y_star is not None:
            if np.array_equal(x_star, y_star):
                raise ConfigError("x_star and y_star must differ")
        h_list = data.get("h_list", [])
        if not isinstance(h_list, list):
            raise ConfigError(f"h_list must be an array, got {h_list!r}")
        return cls(model=model, x_star=x_star, y_star=y_star, h_list=_h_list(h_list),
                   multistart=_multistart(data.get("shooting")))


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
    return [f"{prefix}{i}{j}_{part}" for i in range(n) for j in range(n) for part in ("re", "im")]


def _re_im(mat):
    """A complex matrix's entries, row by row, each as its real then its imaginary part."""
    return [part for entry in np.asarray(mat).ravel() for part in (entry.real, entry.imag)]


def _csv(header, rows, **notes):
    """A CSV artifact: the header, one line of numbers per row, then a `# name = value` line
    per note, a number as 17 significant digits and a string as it is."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    lines += [f"# {name} = {value if isinstance(value, str) else _fmt(value)}"
              for name, value in notes.items()]
    return "\n".join(lines) + "\n"


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
    rep = build_dirac_rep(closed_form_dim(cfg.model.dim))
    sweep = ratio_sweep(rep, cfg.model.params["value"], cfg.x_star, cfg.y_star,
                        cfg.h_list, multistart=cfg.multistart)
    header = (["h"] + _complex_columns("g", rep.dstar)
              + ["dA", "det_exp_prime", "ratio_re", "ratio_im", "abs_ratio_minus_1"])
    rows = [[h, *_re_im(est.matrix), sweep.agmon, sweep.det_exp_prime, ratio.real, ratio.imag, dev]
            for h, ratio, dev, est in zip(sweep.h_list, sweep.ratios, sweep.deviations,
                                          sweep.estimates)]
    return _csv(header, rows, slope=sweep.slope)


def cmd_validate1d(cfg):
    _require(cfg, "x_star", "y_star", "h_list")
    if cfg.model.dim != 1:
        raise ConfigError("validate1d requires dimension = 1")
    x, y = float(cfg.x_star[0]), float(cfg.y_star[0])
    reverse = []    # G(y, x) at the last h, glued from the forward kernel's marches

    def exact(h):
        if h != cfg.h_list[-1]:
            return exact_green_kernel_1d(cfg.model, x, y, h)
        fwd, rev = exact_green_kernel_pair_1d(cfg.model, x, y, h)
        reverse.append(rev)
        return fwd

    sweep = exact_sweep(cfg.model, build_dirac_rep(1), cfg.x_star, cfg.y_star, cfg.h_list,
                        exact, multistart=cfg.multistart)
    rows = [[h, sweep.agmon, ratio.real, ratio.imag, dev]
            for h, ratio, dev in zip(sweep.h_list, sweep.ratios, sweep.deviations)]
    # the adjoint check pairs the forward kernel at the smallest h with its reverse
    oracle, (rev,) = sweep.references[-1], reverse
    s = unit_scale(oracle)
    adjoint = float(np.linalg.norm(s * oracle.conj().T - s * rev) / np.linalg.norm(s * oracle))
    return _csv(["h", "dA", "ratio_re", "ratio_im", "abs_ratio_minus_1"], rows,
                slope=sweep.slope, adjoint_residual=adjoint)


def cmd_constant(cfg):
    _require(cfg, "x_star", "y_star", "h_list")
    if cfg.model.kind != "constant":
        raise ConfigError("the constant command requires potential.kind = 'constant'")
    rep = build_dirac_rep(closed_form_dim(cfg.model.dim))
    rows = [[h, *_re_im(constant_V_exact(rep, cfg.model.params["value"],
                                         cfg.x_star, cfg.y_star, h))]
            for h in cfg.h_list]
    return _csv(["h"] + _complex_columns("g", rep.dstar), rows)


def cmd_bmt(cfg):
    _require(cfg, "x_star", "y_star")
    if cfg.model.dim != 3:
        raise ConfigError("the bmt command requires dimension = 3")
    rep = build_dirac_rep(3)
    geo = shoot_geodesic(cfg.model, cfg.y_star, cfg.x_star, multistart=cfg.multistart)
    spin = solve_bmt_spin(cfg.model, geo.trajectory)
    report = equivalence_check(cfg.model, rep, geo, spin=spin)
    rows = [[t, *s_vec, np.linalg.norm(s_vec), residual]
            for t, s_vec, residual in zip(spin.times, spin.bloch, spin.residual_path)]
    return _csv(["t", "s1", "s2", "s3", "abs_s", "bmt2_residual"], rows,
                unitarity_defect=spin.unitarity_defect,
                residual_left_inverse=report.residual_left_inverse,
                residual_transpose=report.residual_transpose,
                best=report.best, passed="true" if report.passed else "false")


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = ("selfcheck", "geodesic", "kernel", "validate1d", "constant", "bmt")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diracgreen",
        description="Semiclassical Dirac Green-kernel harness")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output path (default: stdout)")
    return parser


def _load_config(args):
    if args.config is None:
        raise ConfigError("this command requires --config")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        return RunConfig.from_dict(data)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # DomainError (a bad potential) is a ValueError too; an integer too
        # large for a float raises OverflowError
        raise ConfigError(f"bad config value ({type(exc).__name__}): {exc}") from exc


def _check_writable(path):
    """Refuse, before any work, an artifact path whose directory is missing or which is one.

    The file is neither created nor truncated; _emit's own OSError check
    stays behind this one.  No path means stdout.
    """
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"cannot write artifact: {path} is a directory")
    where = os.path.dirname(path) or "."
    if not os.path.isdir(where):
        raise ConfigError(f"cannot write artifact: no directory {where}")


def _emit(text, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact: {exc}") from exc


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # selfcheck runs fixed wells: a config given to it is refused, not ignored
        if args.command == "selfcheck" and args.config is not None:
            raise ConfigError("selfcheck does not take --config")
        _check_writable(args.out)
        if args.command == "selfcheck":
            from .selfcheck import run_selfcheck   # only this command loads the checks
            report = run_selfcheck((1, 2, 3))
            _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
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
        _emit(handler(cfg), args.out)
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
