"""Exact 1D Green kernel by solving the ODE system directly.

Everything here is an independent route: no distance, transport, or
projection machinery enters.  The kernel of sigma_1 (-i h d/ds) + sigma_3
+ V on the line is built from the two decaying solutions of

    u'(s) = -(i/h) sigma_1 (sigma_3 + V(s)) u(s),

one recessive at +inf, one at -inf, glued at the source point by the jump
condition G(y+, y) - G(y-, y) = (i/h) sigma_1.

Solutions grow like exp(kappa |s| / h), far beyond float range, so each is
marched in the Riccati variables w = u2/u1 and L = log u1,

    w' = (i/h) ((V - 1) w^2 - (V + 1)),    L' = -(i/h) (V - 1) w,

where all growth sits in Re L: one solve_ivp call per side spans the whole
march with no rescaling.  The u1 chart holds: w starts on the imaginary
axis, which the flow keeps, and there r = |w| obeys dr/dsigma =
((1 + V) - (1 - V) r^2)/h in the march direction sigma, a rate of
2V/h < 0 at r = 1 for V in the gap (-1, 0), so |w| < 1 throughout.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .clifford import SIGMA_1, DomainError
from .geoflow import NumericalError, OdeOpts

_COND_LIMIT = 1e12


def _edge(model, points):
    """Anchor distance: half a unit past the constant window and every point."""
    return max([model.window] + [abs(s) for s in points]) + 0.5


def decaying_solution(model, side, points, h, anchor=None, opts=None):
    """The recessive solution on one side at each of points, as (vector, log_scale).

    The solution is vector * exp(log_scale), vector of order one.  side =
    "right" decays as s -> +inf and is marched leftward from its anchor (its
    growing, numerically stable direction); side = "left" mirrors this.  One
    Riccati march runs from the anchor to the farthest point and reads each
    point from its dense output as tail[0] e^{i Im L} (1, w) with log_scale
    Re L; points at or beyond the anchor take the exact exponential tail.
    """
    if model.dim != 1:
        raise DomainError("the exact solver is 1D only")
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    points = [float(s) for s in points]
    sign = -1.0 if side == "right" else 1.0     # the direction of the march
    anchor = -sign * _edge(model, points) if anchor is None else float(anchor)
    if abs(anchor) > model.box_half:
        raise DomainError("anchor falls outside the domain box; widen box_half")
    e_tail = model.value(np.array([anchor]))
    kappa = math.sqrt(1.0 - e_tail * e_tail)
    tail = np.array([1j * kappa, sign * (1.0 + e_tail)]) / math.hypot(kappa, 1.0 + e_tail)
    out = [(tail, -kappa * abs(s - anchor) / h)
           if sign * (s - anchor) <= 0.0 else None for s in points]
    pending = [i for i, val in enumerate(out) if val is None]
    if not pending:
        return out
    target = sign * max(sign * points[i] for i in pending)

    def rhs(t, y):
        w, log_u1 = y[:2] + 1j * y[2:]
        v = model.value(np.array([t]))
        dz = np.array([(1j / h) * ((v - 1.0) * w * w - (v + 1.0)),
                       (-1j / h) * (v - 1.0) * w])
        return np.concatenate([dz.real, dz.imag])

    w0 = tail[1] / tail[0]
    res = solve_ivp(rhs, (anchor, target), [w0.real, 0.0, w0.imag, 0.0],
                    dense_output=True, **(opts or OdeOpts()).solver_kwargs())
    if not res.success:
        raise NumericalError(f"decaying-solution integration failed: {res.message}")
    w_max = float(np.max(np.hypot(res.y[0], res.y[2])))
    if w_max >= 1.0:
        raise NumericalError(f"Riccati march left the u1 chart: max |u2/u1| = {w_max:.3e}")
    for i in pending:
        z = res.sol(points[i])
        w, log_u1 = z[:2] + 1j * z[2:]
        out[i] = (tail[0] * np.exp(1j * log_u1.imag) * np.array([1.0, w]), log_u1.real)
    return out


def exact_green_kernel_1d(model, x, y, h, opts=None):
    """Exact kernel G(x, y; h) of the 1D operator, x != y.

    Matches the two recessive solutions at the source point y and applies
    the jump (i/h) sigma_1.  Raises when the matching system is
    ill-conditioned (the solutions nearly parallel at y).
    """
    x = float(np.atleast_1d(x)[0]) if np.ndim(x) else float(x)
    y = float(np.atleast_1d(y)[0]) if np.ndim(y) else float(y)
    if x == y:
        raise DomainError("the kernel diverges on the diagonal; x and y must differ")
    # both marches are asked for both points, so each runs to the farther one
    # even where only y is read: the span depends on min(x, y) and max(x, y)
    # alone, so a kernel and its reverse integrate the same march
    sols = [decaying_solution(model, side, (y, x), h, opts=opts)
            for side in ("right", "left")]
    # the returned vectors have norms between 0.7 and 1.5, so they match as they are
    basis = np.column_stack([sols[0][0][0], -sols[1][0][0]])
    cond = float(np.linalg.cond(basis))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"matching system ill-conditioned at the source point: cond = {cond:.3e}")
    rows = np.linalg.solve(basis, (1j / h) * SIGMA_1)

    k = 0 if x > y else 1   # the solution recessive on x's side of y
    (_, log_y), (vec_x, log_x) = sols[k]
    return np.outer(vec_x, rows[k]) * math.exp(log_x - log_y)
