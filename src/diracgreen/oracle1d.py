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
march with no rescaling, and one such pair serves both G(x, y) and
G(y, x).  Each march starts from the exact exponential tail, at an
anchor half a unit past the window where V turns constant and past every
point; V is defined on the whole line, so no domain bounds that span.
The u1 chart holds: w starts on the imaginary axis, which the flow keeps,
and there r = |w| obeys dr/dsigma = ((1 + V) - (1 - V) r^2)/h in the
march direction sigma, a rate of 2V/h < 0 at r = 1 for V in the gap
(-1, 0), so |w| < 1 throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import SIGMA_1, DomainError
from .dop853 import NumericalError, OdeOpts, solve_ivp

_COND_LIMIT = 1e12


def _edge(model, points):
    """Anchor distance: half a unit past the constant window and every point."""
    return max([model.window] + [abs(s) for s in points]) + 0.5


def decaying_solution(model, side, points, h):
    """The recessive solution on one side at each of points, as (vector, log_scale).

    The solution is vector * exp(log_scale), vector of order one.  side =
    "right" decays as s -> +inf and is marched leftward from its anchor (its
    growing, numerically stable direction); side = "left" mirrors this.  The
    anchor lies half a unit past the constant window and every point, where
    the solution is the exact exponential tail.  One Riccati march runs from
    the anchor to the farthest point and reads each point, through t_eval,
    as tail[0] e^{i Im L} (1, w) with log_scale Re L.  A march whose |w|
    reaches 1 at an accepted step has left the u1 chart and raises.
    """
    if model.dim != 1:
        raise DomainError("the exact solver is 1D only")
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    points = [float(s) for s in points]
    if not all(map(math.isfinite, points)):
        raise DomainError(f"points must be finite, got {points}")
    sign = -1.0 if side == "right" else 1.0     # the direction of the march
    anchor = -sign * _edge(model, points)
    e_tail = model.value(anchor)
    kappa = math.sqrt(1.0 - e_tail * e_tail)
    tail = np.array([1j * kappa, sign * (1.0 + e_tail)]) / math.hypot(kappa, 1.0 + e_tail)

    v_at, ih = model.line_value(), 1j / h

    def rhs(t, y):
        wr, _, wi, _ = y.tolist()
        w, v = wr + 1j * wi, v_at(t)
        dw = ih * ((v - 1.0) * w * w - (v + 1.0))
        dl = -ih * (v - 1.0) * w
        return [dw.real, dl.real, dw.imag, dl.imag]

    peak = 0.0    # max |w| over the march's accepted steps, up to the one that reaches 1

    def chart(t, y):
        # read at the start and at each accepted step; the march stops at the first that crosses
        nonlocal peak
        r = math.hypot(y[0], y[2])
        peak = max(peak, r)
        return 1.0 - r

    w0 = tail[1] / tail[0]
    t_eval = sorted(set(points), key=lambda s: sign * s)    # in the march's direction
    # a rejected trial stage may overflow; DOP853 then rejects the step,
    # and the chart event sees only accepted states
    with np.errstate(invalid="ignore", over="ignore"):
        res = solve_ivp(rhs, (anchor, t_eval[-1]), [w0.real, 0.0, w0.imag, 0.0],
                        t_eval=t_eval, events=chart, **OdeOpts().solver_kwargs())
    if not res.success:
        raise NumericalError(f"decaying-solution integration failed: {res.message}")
    if peak >= 1.0:
        raise NumericalError(f"Riccati march left the u1 chart: max |u2/u1| = {peak:.3e}")
    column = {s: j for j, s in enumerate(t_eval)}
    out = []
    for s in points:
        z = res.y[:, column[s]]
        w, log_u1 = z[:2] + 1j * z[2:]
        out.append((tail[0] * np.exp(1j * log_u1.imag) * np.array([1.0, w]), log_u1.real))
    return out


def _glue(sols, points, src, h):
    """G(points[1 - src], points[src]) from the two marches' solutions at both points.

    Matches the two recessive solutions at the source point and applies the
    jump (i/h) sigma_1.  Raises when the matching system is ill-conditioned
    (the solutions nearly parallel at the source point).
    """
    dst = 1 - src
    # the returned vectors have norms between 0.7 and 1.5, so they match as they are
    basis = np.column_stack([sols[0][src][0], -sols[1][src][0]])
    cond = float(np.linalg.cond(basis))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"matching system ill-conditioned at the source point: cond = {cond:.3e}")
    rows = np.linalg.solve(basis, (1j / h) * SIGMA_1)

    k = 0 if points[dst] > points[src] else 1   # the solution recessive on dst's side
    (_, log_src), (vec_dst, log_dst) = sols[k][src], sols[k][dst]
    return np.outer(vec_dst, rows[k]) * math.exp(log_dst - log_src)


def _marches(model, x, y, h):
    """Both recessive solutions at (y, x), for x != y."""
    x = float(np.atleast_1d(x)[0])
    y = float(np.atleast_1d(y)[0])
    if x == y:
        raise DomainError("the kernel diverges on the diagonal; x and y must differ")
    # each march runs to the farther of the two points, so the pair depends
    # on min(x, y) and max(x, y) alone: it serves G(x, y) and G(y, x)
    points = (y, x)
    return [decaying_solution(model, side, points, h)
            for side in ("right", "left")], points


def exact_green_kernel_1d(model, x, y, h):
    """Exact kernel G(x, y; h) of the 1D operator, x != y, glued at the source point y."""
    sols, points = _marches(model, x, y, h)
    return _glue(sols, points, 0, h)


def exact_green_kernel_pair_1d(model, x, y, h):
    """(G(x, y; h), G(y, x; h)) from one pair of marches, glued at y and at x.

    Each kernel equals exact_green_kernel_1d's bit for bit.
    """
    sols, points = _marches(model, x, y, h)
    return _glue(sols, points, 0, h), _glue(sols, points, 1, h)
