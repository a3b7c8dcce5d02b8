"""Exact 1D Green kernel by solving the ODE system directly.

Everything here is an independent route: no distance, transport, or
projection machinery enters.  The kernel of sigma_1 (-i h d/ds) + sigma_3
+ V on the line is built from the two decaying solutions of

    u'(s) = -(i/h) sigma_1 (sigma_3 + V(s)) u(s),

one recessive at +inf, one at -inf, glued at the source point by the jump
condition G(y+, y) - G(y-, y) = (i/h) sigma_1.

Solutions grow like exp(kappa |s| / h), far beyond float range, so each is
marched in the Riccati variables w = u2/u1 and L = log u1,

    w' = (i/h) ((V - 1) w^2 - (V + 1)),    L' = -(i/h) (V - 1) w.

The tail starts w on the imaginary axis, which this flow keeps, and
there L' is real.  So the march carries two real numbers, r = Im w and
L = Re log u1,

    r' = ((1 - V) r^2 - (1 + V))/h,    L' = (V - 1) r/h,

where all growth sits in L: one march per side spans the whole line
segment with no rescaling, and one such pair serves both G(x, y) and
G(y, x).  G(x, y) alone reads the solution recessive away from x at y
only, so that march stops at y.  The march is dop853.solve_floats, scipy's
DOP853 on the two Python floats with each stage's sum written out, bound
here as solve_ivp.  A trial stage that overflows gives inf or NaN in float
arithmetic, with no warning, and DOP853 rejects its step.

The u1 chart holds: |r| = |w| obeys d|r|/dsigma = ((1 + V) - (1 - V)
r^2)/h in the march direction sigma, a rate of 2V/h < 0 at |r| = 1 for
V in the gap (-1, 0), so |w| < 1 throughout.  The same law keeps |r| in
[r*(lo), r*(hi)], r*(V) = sqrt((1 + V)/(1 - V)), over the family's
bounds [lo, hi], where two solutions approach each other at the rate
(1 - V) (|r1| + |r2|)/h, at least rho/h with rho = 2 (1 - hi) r*(lo):
the recessive solution is stable when marched in its growing direction,
the basis of the Riccati decoupling method (Ascher, Mattheij & Russell,
Numerical Solution of Boundary Value Problems for ODEs, SIAM 1995).  So
each march starts from the exponential tail frozen at V(anchor), with
its anchor CONTRACTION h / rho past the farthest point on its side
(CONTRACTION = 40): the start's error reaches every point damped by
e^-40.  Where that lies farther out, the anchor is the outer limit, half
a unit past the window where V turns constant and past every point,
where the tail is exact.  V is defined on the whole line, so no domain
bounds that span.  Where V is constant on the whole line (window 0) the
tail is the solution everywhere, r = r0 and L(s) = (V - 1) r0 (s -
anchor)/h, and nothing marches: a march would only add round-off, which
grows on a flat stretch once the step passes DOP853's stability bound
for the relaxation rate 2 kappa/h.  Over one validate1d-oracle round (six
ops, four h each) the marches make 67,907 right-hand-side calls
(tools/fancount.py), and the bump, steep tanh and cosine kernels there
stay within 1.40e-11 of an rtol 1e-13 solve from the outer limit.
"""

from __future__ import annotations

import math

import numpy as np

from .clifford import SIGMA_1, DomainError
from .dop853 import NumericalError, OdeOpts
from .dop853 import solve_floats as solve_ivp   # the name bench/spans.py traces

_COND_LIMIT = 1e12
# the e-folds by which a march forgets its start before it reads a point
CONTRACTION = 40.0


def _edge(model, points):
    """The outer anchor distance: half a unit past the constant window and every point."""
    return max([model.window] + [abs(s) for s in points]) + 0.5


def _anchor(model, sign, span, h):
    """Where the march in direction sign starts: CONTRACTION h / rho before span, or at _edge.

    |w| stays in [r*(lo), r*(hi)], r*(V) = sqrt((1 + V)/(1 - V)), over the
    family's bounds [lo, hi], where two Riccati solutions approach each
    other at a rate (1 - V) (|w1| + |w2|) / h of at least rho / h,
    rho = 2 (1 - hi) r*(lo).  So a start that far past span's farthest point
    on the start side reaches every point with its error damped by
    e^-CONTRACTION.  The anchor never lies past _edge, and stays there
    where no such rate exists (|V| reaches 1).
    """
    edge = _edge(model, span)
    lo, hi = model.bounds
    if lo <= -1.0 or hi >= 1.0:
        return -sign * edge
    rho = 2.0 * (1.0 - hi) * math.sqrt((1.0 + lo) / (1.0 - lo))
    far = max(-sign * s for s in span)
    return -sign * min(edge, far + CONTRACTION * h / rho)


def decaying_solution(model, side, points, h, span=()):
    """The recessive solution on one side at each of points, as (vector, log_scale).

    The solution is vector * exp(log_scale), vector of order one.  side =
    "right" decays as s -> +inf and is marched leftward from its anchor (its
    growing, numerically stable direction); side = "left" mirrors this.
    The march is placed by points and span, further points that it spans
    without reading them.  It starts from the exponential tail at its
    anchor (_anchor), runs towards the farthest of those points, and reads
    each of points, through t_eval, as tail[0] (1, i r) with log_scale L;
    it stops at the step that reads the last of them.  A march whose |r|
    reaches 1 at an accepted step has left the u1 chart and raises there.
    On a constant well the tail is read at each point in place of a march.
    """
    if model.dim != 1:
        raise DomainError("the exact solver is 1D only")
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    h = float(h)
    points = [float(s) for s in points]
    placed = points + [float(s) for s in span]
    if not all(map(math.isfinite, placed)):
        raise DomainError(f"points must be finite, got {placed}")
    sign = -1.0 if side == "right" else 1.0     # the direction of the march
    anchor = _anchor(model, sign, placed, h)
    end = sign * max(sign * s for s in placed)
    e_tail = model.value(anchor)
    kappa = math.sqrt(1.0 - e_tail * e_tail)
    tail = np.array([1j * kappa, sign * (1.0 + e_tail)]) / math.hypot(kappa, 1.0 + e_tail)

    r0 = float((tail[1] / tail[0]).imag)

    def chart(t, y):
        r = abs(y[0])
        if r >= 1.0:
            raise NumericalError(f"Riccati march left the u1 chart: |u2/u1| = {r:.3e} "
                                 f"at s = {t:.6g}")

    if model.window == 0.0:
        # V is constant on the whole line, so the tail is the solution everywhere
        chart(anchor, (r0,))
        reads = {s: (r0, (e_tail - 1.0) * r0 * (s - anchor) / h) for s in points}
    else:
        v_at = model.line_value()

        def rhs(t, y):
            r = y[0]
            v = v_at(t)
            return ((1.0 - v) * r * r - (1.0 + v)) / h, (v - 1.0) * r / h

        t_eval = sorted(set(points), key=lambda s: sign * s)    # in the march's direction
        res = solve_ivp(rhs, (anchor, end), (r0, 0.0), t_eval=t_eval, check=chart,
                        **OdeOpts().solver_kwargs())
        if not res.success:
            raise NumericalError(f"decaying-solution integration failed: {res.message}")
        reads = dict(zip(t_eval, res.y.T.tolist()))
    return [(tail[0] * np.array([1.0, 1j * r]), log_u1) for r, log_u1 in map(reads.get, points)]


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


def _marches(model, x, y, h, pair):
    """Both recessive solutions at (y, x), for x != y.

    Each march is placed by both points, so it depends on min(x, y) and
    max(x, y) alone: one pair serves G(x, y) and G(y, x).  Unless pair, the
    solution recessive on the side away from x, which G(x, y) reads at y
    alone, is read there alone, and its march stops at y.
    """
    x = float(np.atleast_1d(x)[0])
    y = float(np.atleast_1d(y)[0])
    if x == y:
        raise DomainError("the kernel diverges on the diagonal; x and y must differ")
    points = (y, x)
    away = "left" if x > y else "right"
    return [decaying_solution(model, side, points if pair or side != away else points[:1], h,
                              span=points)
            for side in ("right", "left")], points


def exact_green_kernel_1d(model, x, y, h):
    """Exact kernel G(x, y; h) of the 1D operator, x != y, glued at the source point y."""
    sols, points = _marches(model, x, y, h, pair=False)
    return _glue(sols, points, 0, h)


def exact_green_kernel_pair_1d(model, x, y, h):
    """(G(x, y; h), G(y, x; h)) from one pair of marches, glued at y and at x.

    Each kernel equals exact_green_kernel_1d's bit for bit.
    """
    sols, points = _marches(model, x, y, h, pair=True)
    return _glue(sols, points, 0, h), _glue(sols, points, 1, h)
