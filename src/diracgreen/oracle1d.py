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
magnitude kept as a log.  evaluate() returns (vector, log_scale) with the
true solution equal to vector * exp(log_scale).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .clifford import SIGMA_1, DomainError
from .geoflow import NumericalError, OdeOpts

_COND_LIMIT = 1e12


class JostSolution:
    """A decaying solution integrated inward from one anchor.

    side = "right" decays as s -> +inf and is integrated leftward (its
    growing, numerically stable direction); side = "left" mirrors this.
    """

    def __init__(self, model, h, side, anchor, tail_value, kappa_tail):
        self.model = model
        self.h = float(h)
        self.side = side
        self.anchor = float(anchor)
        self.tail_value = tail_value
        self.kappa_tail = float(kappa_tail)
        self._segments = []          # (near_end, far_end, dense sol, entry_log)
        self._reach = float(anchor)  # innermost coordinate integrated so far

    def _rhs(self):
        h = self.h

        def rhs(t, y):
            u = y[:2] + 1j * y[2:]
            v = self.model.value(np.array([t]))
            mat = np.array([[0.0, v - 1.0], [v + 1.0, 0.0]], dtype=complex)
            du = (-1j / h) * mat @ u
            return np.concatenate([du.real, du.imag])

        return rhs

    def extend(self, target, opts=None):
        """Integrate (further) inward so that evaluate() covers target."""
        going_left = self.side == "right"
        if (self._reach <= target) if going_left else (self._reach >= target):
            return
        opts = opts or OdeOpts()
        # growth per segment stays under e^4 < 1e2, so evaluate() vectors
        # keep O(1) norms and all magnitude lives in the log bookkeeping
        seg = min(0.5, 4.0 * self.h)
        rhs = self._rhs()
        if self._segments:
            _, far, sol, entry_log = self._segments[-1]
            u = sol(far)
            u = u[:2] + 1j * u[2:]
            log = entry_log
        else:
            u = self.tail_value.astype(complex)
            log = 0.0
        pos = self._reach
        while (pos > target) if going_left else (pos < target):
            nxt = max(pos - seg, target) if going_left else min(pos + seg, target)
            nrm = float(np.linalg.norm(u))
            u = u / nrm
            log += math.log(nrm)
            y0 = np.concatenate([u.real, u.imag])
            res = solve_ivp(rhs, (pos, nxt), y0, **opts.solver_kwargs())
            if not res.success:
                raise NumericalError(f"decaying-solution integration failed: {res.message}")
            self._segments.append((pos, nxt, res.sol, log))
            u = res.y[:2, -1] + 1j * res.y[2:, -1]
            pos = nxt
        self._reach = pos

    def evaluate(self, s):
        """(vector, log_scale) at s; the solution is vector * exp(log_scale)."""
        s = float(s)
        going_left = self.side == "right"
        if (s >= self.anchor) if going_left else (s <= self.anchor):
            # constant-tail region: exact exponential decay off the anchor
            log = -self.kappa_tail * abs(s - self.anchor) / self.h
            return self.tail_value.astype(complex), log
        if (s < self._reach) if going_left else (s > self._reach):
            raise DomainError(f"solution not integrated to {s}; call extend() first")
        if going_left:
            idx = next(i for i, (a, b, _, _) in enumerate(self._segments) if b <= s <= a)
        else:
            idx = next(i for i, (a, b, _, _) in enumerate(self._segments) if a <= s <= b)
        _, _, sol, entry_log = self._segments[idx]
        y = sol(s)
        return y[:2] + 1j * y[2:], entry_log


def _tail_data(model, side, anchor):
    e_tail = model.value(np.array([anchor]))
    kappa = math.sqrt(1.0 - e_tail * e_tail)
    if side == "right":
        w = np.array([1j * kappa, -(1.0 + e_tail)], dtype=complex)
    else:
        w = np.array([1j * kappa, 1.0 + e_tail], dtype=complex)
    return w / np.linalg.norm(w), kappa


def decaying_solution(model, side, reach_to, h, anchor=None, opts=None):
    """Build the recessive solution on one side, integrated in to reach_to."""
    if model.dim != 1:
        raise DomainError("the exact solver is 1D only")
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    if h <= 0.0:
        raise DomainError(f"h must be positive, got {h}")
    if anchor is None:
        pad = 0.5
        edge = max(model.window, abs(float(reach_to))) + pad
        anchor = edge if side == "right" else -edge
    if abs(anchor) > model.box_half:
        raise DomainError("anchor falls outside the domain box; widen box_half")
    w, kappa = _tail_data(model, side, anchor)
    jost = JostSolution(model, h, side, anchor, w, kappa)
    jost.extend(float(reach_to), opts)
    return jost


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
    lo, hi = min(x, y), max(x, y)
    pad = 0.5
    edge = max(model.window, abs(x), abs(y)) + pad
    u_right = decaying_solution(model, "right", lo, h, anchor=edge, opts=opts)
    u_left = decaying_solution(model, "left", hi, h, anchor=-edge, opts=opts)

    v_r, log_r = u_right.evaluate(y)
    v_l, log_l = u_left.evaluate(y)
    n_r = float(np.linalg.norm(v_r))
    n_l = float(np.linalg.norm(v_l))
    v_r, log_r = v_r / n_r, log_r + math.log(n_r)
    v_l, log_l = v_l / n_l, log_l + math.log(n_l)

    basis = np.column_stack([v_r, -v_l])
    cond = float(np.linalg.cond(basis))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"matching system ill-conditioned at the source point: cond = {cond:.3e}")
    rows = np.linalg.solve(basis, (1j / h) * SIGMA_1)

    if x > y:
        vec, log_x = u_right.evaluate(x)
        return np.outer(vec, rows[0]) * math.exp(log_x - log_r)
    vec, log_x = u_left.evaluate(x)
    return np.outer(vec, rows[1]) * math.exp(log_x - log_l)
