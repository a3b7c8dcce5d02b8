"""Per-op artifact checks, with the pinned tolerances of the acceptance gate.

Each check reads the artifact text a CLI command wrote and returns None when
it passes or a one-line reason when it fails.
"""

from __future__ import annotations

import json
import math

DA_RECIPROCITY_TOL = 1e-9      # selfcheck agmon_reciprocity
CONSTANT_RATIO_TOL = 1e-9      # criterion 2
ADJOINT_TOL = 1e-8             # criterion 6 (adjoint symmetry)
SLOPE_MIN_1D = 0.8             # criterion 4
LAST_DEVIATION_MAX_1D = 0.1    # criterion 4
UNITARITY_TOL = 1e-9           # criterion 9
BMT_RESIDUAL_TOL = 1e-6        # criterion 9
KERNEL_SLOPE = (0.8, 1.2)      # criterion 3, slope window


def _comments(text):
    """'# key = value' trailer lines of a CSV artifact."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") and "=" in line:
            key, value = line[1:].split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def check_geodesic(text, op, pairs):
    """Distance reciprocity across the two directions of one connection."""
    data = json.loads(text)
    if data["conjugate"]:
        return "conjugate flag set"
    if data["uniqueness"]["n_distinct"] < 1:
        return "no distinct orbit reported"
    d_a = float(data["dA"])
    if not (math.isfinite(d_a) and d_a > 0.0):
        return f"bad distance {d_a}"
    if op.label.endswith("-fwd"):
        pairs[op.pair] = d_a
        return None
    if op.pair not in pairs:
        return "forward shot of this pair is missing"
    gap = abs(d_a - pairs.pop(op.pair))
    if gap > DA_RECIPROCITY_TOL:
        return f"|dA_fwd - dA_rev| = {gap:.3e} > {DA_RECIPROCITY_TOL}"
    return None


def check_validate1d(text, constant):
    rows = _rows(text)
    trailer = _comments(text)
    adjoint = float(trailer["adjoint_residual"])
    if not adjoint <= ADJOINT_TOL:
        return f"adjoint_residual {adjoint:.3e} > {ADJOINT_TOL}"
    devs = [row["abs_ratio_minus_1"] for row in rows]
    if constant:
        worst = max(devs)
        if not worst <= CONSTANT_RATIO_TOL:
            return f"constant-potential |R-1| = {worst:.3e} > {CONSTANT_RATIO_TOL}"
        return None
    if not all(b < a for a, b in zip(devs, devs[1:])):
        return f"deviations not decreasing: {devs}"
    slope = float(trailer["slope"])
    if not slope >= SLOPE_MIN_1D:
        return f"slope {slope:.4f} < {SLOPE_MIN_1D}"
    if not devs[-1] <= LAST_DEVIATION_MAX_1D:
        return f"|R(h_min)-1| = {devs[-1]:.3e} > {LAST_DEVIATION_MAX_1D}"
    return None


def check_bmt(text):
    trailer = _comments(text)
    if trailer.get("passed") != "true":
        return "equivalence check did not pass"
    defect = float(trailer["unitarity_defect"])
    if not defect <= UNITARITY_TOL:
        return f"unitarity_defect {defect:.3e} > {UNITARITY_TOL}"
    worst = max(row["bmt2_residual"] for row in _rows(text))
    if not worst <= BMT_RESIDUAL_TOL:
        return f"max bmt2_residual {worst:.3e} > {BMT_RESIDUAL_TOL}"
    return None


def check_kernel(text):
    slope = float(_comments(text)["slope"])
    lo, hi = KERNEL_SLOPE
    if not lo <= slope <= hi:
        return f"slope {slope:.4f} outside [{lo}, {hi}]"
    return None


def check_artifact(text, op, pairs):
    """Dispatch on op.check; a malformed artifact is a failure, not a crash."""
    try:
        if op.check == "geodesic":
            return check_geodesic(text, op, pairs)
        if op.check in ("validate1d", "validate1d-constant"):
            return check_validate1d(text, constant=op.check == "validate1d-constant")
        if op.check == "bmt":
            return check_bmt(text)
        if op.check == "kernel":
            return check_kernel(text)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed artifact: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown check {op.check!r}")
