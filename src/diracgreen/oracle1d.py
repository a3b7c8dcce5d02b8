"""Exact 1D Green kernel by solving the ODE system directly.

Everything here is an independent route: no distance, transport, or
projection machinery enters.  The kernel of sigma_1 (-i h d/ds) + sigma_3
+ V on the line is built from the two decaying solutions of

    u'(s) = -(i/h) sigma_1 (sigma_3 + V(s)) u(s),

one recessive at +inf, one at -inf, glued at the source point by the jump
condition G(y+, y) - G(y-, y) = (i/h) sigma_1.

Solutions grow like exp(kappa |s| / h), far beyond float range over a long
window, so each one is integrated inward from its anchor in short segments
with the amplitude renormalised at every boundary and the accumulated
magnitude kept as a log.  decaying_solution() returns (vector, log_scale)
pairs with the true solution equal to vector * exp(log_scale).
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


def _tail_data(model, side, anchor):
    e_tail = model.value(np.array([anchor]))
    kappa = math.sqrt(1.0 - e_tail * e_tail)
    if side == "right":
        w = np.array([1j * kappa, -(1.0 + e_tail)], dtype=complex)
    else:
        w = np.array([1j * kappa, 1.0 + e_tail], dtype=complex)
    return w / np.linalg.norm(w), kappa


def decaying_solution(model, side, points, h, anchor=None, opts=None):
    """The recessive solution on one side at each of points, as (vector, log_scale).

    side = "right" decays as s -> +inf and is marched leftward from its
    anchor (its growing, numerically stable direction); side = "left"
    mirrors this.  The march stops at the farthest point and each point is
    read from the first segment that contains it; points at or beyond the
    anchor take the exact exponential tail.
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
    tail, kappa = _tail_data(model, side, anchor)
    out = [(tail.astype(complex), -kappa * abs(s - anchor) / h)
           if sign * (s - anchor) <= 0.0 else None for s in points]
    pending = [i for i, val in enumerate(out) if val is None]
    if not pending:
        return out
    target = sign * max(sign * points[i] for i in pending)

    def rhs(t, y):
        u = y[:2] + 1j * y[2:]
        v = model.value(np.array([t]))
        mat = np.array([[0.0, v - 1.0], [v + 1.0, 0.0]], dtype=complex)
        du = (-1j / h) * mat @ u
        return np.concatenate([du.real, du.imag])

    opts = opts or OdeOpts()
    # growth per segment stays under e^4 < 1e2, so the returned vectors keep
    # O(1) norms and all magnitude lives in the log bookkeeping
    seg = min(0.5, 4.0 * h)
    u, log, pos = tail.astype(complex), 0.0, anchor
    while pending:
        nxt = pos + sign * seg
        if sign * (nxt - target) > 0.0:
            nxt = target
        nrm = float(np.linalg.norm(u))
        u = u / nrm
        log += math.log(nrm)
        y0 = np.concatenate([u.real, u.imag])
        res = solve_ivp(rhs, (pos, nxt), y0, **opts.solver_kwargs())
        if not res.success:
            raise NumericalError(f"decaying-solution integration failed: {res.message}")
        lo, hi = min(pos, nxt), max(pos, nxt)
        for i in pending:
            if lo <= points[i] <= hi:
                y = res.sol(points[i])
                out[i] = (y[:2] + 1j * y[2:], log)
        pending = [i for i in pending if out[i] is None]
        u = res.y[:2, -1] + 1j * res.y[2:, -1]
        pos = nxt
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
    # even where only y is read: segment boundaries depend on min(x, y) and
    # max(x, y) alone, and a kernel and its reverse integrate the same segments
    sols = [decaying_solution(model, side, (y, x), h, opts=opts)
            for side in ("right", "left")]
    at_y = []
    for (vec, log), _ in sols:
        nrm = float(np.linalg.norm(vec))
        at_y.append((vec / nrm, log + math.log(nrm)))

    basis = np.column_stack([at_y[0][0], -at_y[1][0]])
    cond = float(np.linalg.cond(basis))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"matching system ill-conditioned at the source point: cond = {cond:.3e}")
    rows = np.linalg.solve(basis, (1j / h) * SIGMA_1)

    k = 0 if x > y else 1   # the solution recessive on x's side of y
    vec, log_x = sols[k][1]
    return np.outer(vec, rows[k]) * math.exp(log_x - at_y[k][1])
