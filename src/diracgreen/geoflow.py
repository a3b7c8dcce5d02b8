"""Hamiltonian flow of H(x, p) = -sqrt(1 - |p|^2) - V(x) and geodesic solves.

Orbits on the zero level set of H are, up to reparametrisation, geodesics of
the conformal metric (1 - V^2(x)) I, and the action integral of <p, dx>
along them is the corresponding distance.  The flow is integrated together
with its variational (Jacobi) blocks

    d/dt dpX = H_pp dpX',   d/dt dpP = Hess V . dpX,

seeded by (dpX, dpP)(0) = (0, I), which feed the bordered determinant

    det [[0, -v_y^T], [v_x, dpX(tau)]]

and its conversion to the Jacobian determinant of the metric exponential
map.  Two-point connections are found by a Newton shoot over the initial
direction (chart on the sphere) and the flight time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853, DenseOutput, OdeSolution, quad

from .clifford import DomainError


class NumericalError(RuntimeError):
    """A solver failed to reach its target accuracy or left its domain."""


class ShootingError(NumericalError):
    """No two-point connection found from any start direction."""


class ConjugatePointError(NumericalError):
    """Endpoints are (near-)conjugate: the leading kernel degenerates."""


# outcome of each start of the Newton loop, in the order a failure tally lists them
CONVERGED, LEFT_BALL, LEFT_BOX, SINGULAR, CHART_ESCAPE, ITER_LIMIT, UNDERFLOW = OUTCOMES = (
    "converged", "left |p|<1", "left box", "singular Jacobian", "chart escape",
    "max_iter", "step underflow")
_BALL_EXIT = "flow reached the momentum ball boundary |p| -> 1"
# scipy's RungeKutta step-size control, which _dop853_lanes repeats per lane
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0

# the shoot, with every residual max |x(tau) - x*| measured against tol * max(1, |x*|_inf):
# a fan start integrates at LOOSE until its last residual is at most LOOSE_UNTIL, and at
# the fan's OdeOpts() from then on; it converges only on an iterate integrated at the
# fan's pair whose residual is at most NEWTON_TOL, within MAX_ITER Newton steps.  The
# polish integrates every iterate at TIGHT and stops at POLISH_TOL, near the float floor.
# Connections closer than MERGE_TOL in (p0, tau) are one; a bordered determinant under
# CONJUGACY_TOL d_A^(d-1) is near-conjugate
NEWTON_TOL, MAX_ITER, MERGE_TOL, CONJUGACY_TOL = 1e-10, 40, 1e-6, 1e-8
LOOSE_UNTIL, POLISH_TOL = 1e-3, 1e-13


@dataclass(frozen=True)
class OdeOpts:
    """DOP853 tolerances; the defaults are the multistart fan's."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def solver_kwargs(self):
        return dict(rtol=self.rel_tol, atol=self.abs_tol)


# the polish, the spinor transport, the BMT spin solve and exp_map_oracle
TIGHT = OdeOpts(1e-12, 1e-14)
# a fan start far from its root (inexact Newton: Dembo, Eisenstat & Steihaug 1982)
LOOSE = OdeOpts(1e-6, 1e-8)


def _var_index(d):
    """Where dpX starts in the flow state: after x, p and the action."""
    return 2 * d + 1


def _initial_state(x0, p0, variational):
    d = len(x0)
    return np.concatenate([
        x0, p0, [0.0],
        (np.concatenate([np.zeros(d * d), np.eye(d).ravel()]) if variational else np.empty(0)),
    ])


class Trajectory:
    """One flow solve with dense output and optional variational blocks.

    State layout: x (d), p (d), action integral of <p, xdot>, then dpX and
    dpP row-major.
    """

    def __init__(self, model, tau, result, variational):
        self.model = model
        self.dim = model.dim
        self.tau = float(tau)
        self.sol = result.sol
        self.variational = variational
        d = self.dim
        self._i_var = _var_index(d)
        y_end = self.sol(self.tau)
        self.p_start = self.sol(0.0)[d:2 * d]
        self.x_end, self.p_end = y_end[:d], y_end[d:2 * d]
        self.action_end = float(y_end[2 * d])
        self.v_start = self.velocity(0.0)
        self.v_end = self.velocity(self.tau)

    def velocity(self, t):
        _, p = self.phase(t)
        return p / math.sqrt(1.0 - float(p @ p))

    def dp_x(self, t):
        if not self.variational:
            raise DomainError("trajectory was integrated without variational blocks")
        d = self.dim
        return self.sol(t)[self._i_var: self._i_var + d * d].reshape(d, d)

    def phase(self, t):
        """(x, p) at time t, or as rows at an array of times, from one dense-output call."""
        y = self.sol(t)
        return y[: self.dim].T, y[self.dim: 2 * self.dim].T

    def potential_along(self, times):
        """(p, V, grad V) at an array of times: one dense-output call, one evaluate_many.

        Raises DomainError where the orbit leaves the domain box.
        """
        x, p = self.phase(times)
        v, grad, _, outside = self.model.evaluate_many(x)
        if outside.any():
            raise DomainError(
                f"orbit leaves the domain box [+-{self.model.box_half}]^{self.dim}")
        return p, v, grad

    def hamiltonian_sup(self):
        """sup |H| on a uniform 201-point grid, an energy-conservation diagnostic."""
        p, v, _ = self.potential_along(np.linspace(0.0, self.tau, 201))
        p2 = np.vecdot(p, p)
        if p2.max() >= 1.0:
            raise DomainError(f"hamiltonian requires |p| < 1, got |p|^2 = {p2.max()}")
        return float(np.abs(-np.sqrt(1.0 - p2) - v).max())


def _flow_rhs(model, variational):
    d = model.dim
    i_var = _var_index(d)
    box_half = model.box_half
    evaluate = model.evaluate_unchecked
    eye = np.eye(d)

    def rhs(t, y):
        x = y[:d]
        p = y[d:2 * d]
        p2 = float(p @ p)
        if p2 >= 1.0 - 1e-12:
            raise DomainError(f"{_BALL_EXIT} at t = {t}")
        # fmax skips a NaN as evaluate's np.any(|x| > box_half) does
        if np.fmax.reduce(np.abs(x)) > box_half:
            raise model.box_error(x)
        _, grad, hess = evaluate(x)
        w = math.sqrt(1.0 - p2)
        out = np.empty_like(y)
        out[:d] = p / w
        out[d:2 * d] = grad
        out[2 * d] = p2 / w
        if variational:
            dpx = y[i_var:i_var + d * d].reshape(d, d)
            dpp = y[i_var + d * d:].reshape(d, d)
            hpp = eye / w + (p[:, None] * p) / w**3
            out[i_var:i_var + d * d] = (hpp @ dpp).ravel()
            out[i_var + d * d:] = (hess @ dpx).ravel()
        return out

    return rhs


def _solve_flow(model, x0, p0, tau, opts, variational, **output):
    """solve_ivp of the flow from (x0, p0) over [0, tau], after the start checks."""
    if tau <= 0.0:
        raise DomainError(f"flight time must be positive, got {tau}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if x0.shape != p0.shape:
        raise DomainError("position and momentum must have equal length")
    if p0 @ p0 >= 1.0:
        raise DomainError(f"phase point requires |p| < 1, got |p| = {np.linalg.norm(p0)}")
    sol = solve_ivp(_flow_rhs(model, variational), (0.0, float(tau)),
                    _initial_state(x0, p0, variational), **output, **opts.solver_kwargs())
    if not sol.success:
        raise NumericalError(f"flow integration failed: {sol.message}")
    return sol


def integrate_flow(model, x0, p0, tau, opts=None, variational=True):
    """Integrate the flow from (x0, p0) for time tau with dense output."""
    sol = _solve_flow(model, x0, p0, tau, opts or OdeOpts(), variational, dense_output=True)
    return Trajectory(model, tau, sol, variational)


@dataclass(frozen=True)
class GeodesicSolution:
    """A two-point connection together with its Jacobi data."""

    y_star: np.ndarray
    x_star: np.ndarray
    trajectory: Trajectory = field(repr=False)
    tau: float
    p0: np.ndarray
    agmon: float
    bordered_det: float
    det_exp_prime: float | None   # None in d = 1
    uniqueness: dict


def _sphere_chart(frame, u):
    """Direction n(u) and its Jacobian columns for a chart centred on frame[:, 0]."""
    dm1 = len(u)
    s = float(u @ u) / 4.0
    m = np.concatenate([[1.0 - s], u])
    n_local = m / (1.0 + s)
    n = frame @ n_local
    cols = []
    for j in range(dm1):
        dm = np.zeros(dm1 + 1)
        dm[0] = -0.5 * u[j]
        dm[j + 1] = 1.0
        cols.append(frame @ ((dm - n_local * (0.5 * u[j])) / (1.0 + s)))
    return n, cols


def _frame_from_direction(n0):
    """Orthogonal matrix whose first column is n0 (Householder reflection)."""
    d = len(n0)
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = e1 - n0
    nv = float(v @ v)
    if nv < 1e-14:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / nv


def _start_directions(dim, n_base, count):
    """Deterministic multistart fan: lattice directions of {-1,0,1}^d, base first.

    In d = 1 the fan is the base direction alone, toward x* - y*, whatever count.
    """
    if dim == 1:
        # on H = 0, |p|^2 = 1 - V^2 > 0 in the gap: p keeps its sign, so -n_base never connects
        return [n_base]
    frame = _frame_from_direction(n_base)
    dirs = []
    # distinct vectors of {-1,0,1}^d never point the same way, so no duplicates
    for v in np.ndindex(*(3,) * dim):
        g = np.array(v, dtype=float) - 1.0
        if g.any():
            dirs.append(frame @ (g / np.linalg.norm(g)))
    # ndindex order does not put the base direction (lattice vector (1,0,..)) first
    dirs.sort(key=lambda v: -float(v @ n_base))
    return dirs[:count] if count is not None else dirs


class _End(NamedTuple):
    """Where one Newton iterate's orbit ends; traj only for a dense single start."""

    x: np.ndarray
    v: np.ndarray
    dpx: np.ndarray
    p0: np.ndarray
    tau: float
    action: float
    traj: Trajectory | None


def _end_of(d, y, p0, tau, traj=None):
    """The _End of a flow state y at time tau, started with momentum p0."""
    i_var = _var_index(d)
    p = y[d:2 * d]
    return _End(y[:d], p / math.sqrt(1.0 - float(p @ p)), y[i_var:i_var + d * d].reshape(d, d),
                p0, float(tau), float(y[2 * d]), traj)


def _flow_one(model, y_star, p0, tau, opts, dense):
    """_End or outcome of one flow through solve_ivp.

    Only a dense flow builds DOP853's interpolant on every step, for the
    Trajectory its _End carries; otherwise the interpolant is built on the
    last step alone, for the state at tau.
    """
    try:
        if dense:
            traj = integrate_flow(model, y_star, p0, tau, opts, variational=True)
            return _end_of(model.dim, traj.sol(traj.tau), traj.p_start, tau, traj)
        sol = _solve_flow(model, y_star, p0, tau, opts, variational=True, t_eval=[tau])
    except NumericalError:
        return UNDERFLOW
    except DomainError as exc:
        return LEFT_BALL if str(exc).startswith(_BALL_EXIT) else LEFT_BOX
    return _end_of(model.dim, sol.y[:, -1], p0, tau)


def _lane_rhs(model, taus):
    """Batched _flow_rhs on s in [0, 1]: row k is scaled by its flight time taus[k].

    Returns the derivatives and None, or per row "" or the reason the point
    is outside the flow's domain; the derivatives of such rows stay finite.
    """
    d = model.dim
    i_var = _var_index(d)
    dd = d * d
    eye = np.eye(d)

    def rhs(y, rows):
        p = y[:, d:2 * d]
        p2 = np.vecdot(p, p)
        ball = p2 >= 1.0 - 1e-12
        _, grad, hess, outside = model.evaluate_many(y[:, :d])
        why = None
        if ball.any() or outside.any():
            why = np.where(ball, LEFT_BALL, np.where(outside, LEFT_BOX, ""))
            p2 = np.where(ball, 0.0, p2)
        w = np.sqrt(1.0 - p2)
        out = np.empty_like(y)
        out[:, :d] = p / w[:, None]
        out[:, d:2 * d] = grad
        out[:, 2 * d] = p2 / w
        hpp = eye / w[:, None, None] + p[:, :, None] * p[:, None, :] / (w**3)[:, None, None]
        out[:, i_var:i_var + dd] = (hpp @ y[:, i_var + dd:].reshape(-1, d, d)).reshape(-1, dd)
        out[:, i_var + dd:] = (hess @ y[:, i_var:i_var + dd].reshape(-1, d, d)).reshape(-1, dd)
        out *= taus[rows, None]
        return out, why

    return rhs


class _Dop853Step(DenseOutput):
    """DOP853's 7th-order interpolant over one step, evaluated as scipy's Dop853DenseOutput."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h, self.F, self.y_old = t - t_old, F, y_old

    def _call_impl(self, t):
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)), dtype=self.y_old.dtype)
        for i, f in enumerate(reversed(self.F)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old
        return y.T


class IvpResult(NamedTuple):
    """solve_ivp's result: y at t_eval or at every step end, sol when dense_output."""

    y: np.ndarray
    sol: OdeSolution | None
    nfev: int
    success: bool
    status: int
    message: str


# the DOP853 tableau as scipy's rk_step and _dense_output_impl slice it, times as floats
_STAGES = [(s, DOP853.A[s, :s], float(c)) for s, c in enumerate(DOP853.C[1:], start=1)]
_EXTRA = [(s, a[:s], float(c)) for s, (a, c) in
          enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)]
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False, events=None):
    """scipy.integrate.solve_ivp(method="DOP853") for one solve, bit for bit, without its wrappers.

    Repeats the installed scipy's numerics with the same numpy calls in the
    same order: select_initial_step, the rk_step stages, the error norm and
    step-size control, t_eval read through each step's 7th-order
    interpolant, and dense output as an OdeSolution of those interpolants.
    So y, sol and nfev equal scipy's.  y0 may be real or complex.  events
    is one event function g(t, y), always terminal: it is read at the start
    and at each accepted step, and the solve stops (status 1) at the first
    accepted step where g changes sign, without scipy's root refinement;
    y then holds the t_eval points of the steps before it, or every step
    end up to it.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    n = y.size
    direction = 1.0 if t_bound >= t else -1.0
    n_st = DOP853.n_stages
    exponent = -1 / (DOP853.error_estimator_order + 1)
    k = np.empty((DOP853.A_EXTRA.shape[1], n), dtype=dtype)
    k_t, k_err_t = k.T, k[:n_st + 1].T

    def norm(x):
        # np.linalg.norm's own operations on a vector, without its checks
        if dtype is complex:
            return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
        return math.sqrt(x.dot(x))

    # scipy's select_initial_step, with its RMS norm |x| / sqrt(size)
    f = np.asarray(fun(t, y), dtype=dtype)
    interval = abs(t_bound - t)
    scale = atol + np.abs(y) * rtol
    d0 = norm(y / scale) / n ** 0.5
    d1 = norm(f / scale) / n ** 0.5
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = np.asarray(fun(t + h0 * direction, y + h0 * direction * f), dtype=dtype)
    d2 = norm((f1 - f) / scale) / n ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h1, interval)
    nfev = 2
    k[n_st] = f

    points = [] if t_eval is None else list(map(float, t_eval))
    i_pt = 0
    g = None if events is None else events(t, y)
    ys = [y] if t_eval is None else []
    ts, steps = [t], []
    status = None
    while status is None:
        # RungeKutta._step_impl
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        k[0] = k[n_st]
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s, a, c in _STAGES:
                k[s] = fun(t + c * h, y + k_t[:, :s].dot(a) * h)
            y_new = y + h * k_t[:, :n_st].dot(DOP853.B)
            k[n_st] = fun(t + h, y_new)
            nfev += n_st
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_2 = norm(k_err_t.dot(DOP853.E5) / scale) ** 2
            err3_2 = norm(k_err_t.dot(DOP853.E3) / scale) ** 2
            if err5_2 == 0 and err3_2 == 0:
                err = 0.0
            else:
                err = abs(h) * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** exponent)
            rejected = True
        if status is not None:
            break
        t_old, y_old, t, y = t, y, t_new, y_new
        if direction * (t - t_bound) >= 0:
            status = 0

        j = i_pt    # points[i_pt:j] lie in this step
        while j < len(points) and direction * (points[j] - t) <= 0:
            j += 1
        if dense_output or j > i_pt:
            # DOP853._dense_output_impl
            for s, a, c in _EXTRA:
                k[s] = fun(t_old + c * h, y_old + k_t[:, :s].dot(a) * h)
            nfev += len(_EXTRA)
            F = np.empty((DOP853.D.shape[0] + 3, n), dtype=dtype)
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * k[0] - delta_y
            F[2] = 2 * delta_y - h * (k[n_st] + k[0])
            F[3:] = h * DOP853.D.dot(k)
            step = _Dop853Step(t_old, t, y_old, F)
        if dense_output:
            ts.append(t)
            steps.append(step)
        if events is not None:
            g_old, g = g, events(t, y)
            if g_old <= 0 <= g or g_old >= 0 >= g:
                status = 1
        if t_eval is None:
            ys.append(y)
        elif j > i_pt and status != 1:
            ys.append(step(np.array(points[i_pt:j])))
            i_pt = j

    if t_eval is None:
        y_out = np.vstack(ys).T
    else:
        y_out = np.hstack(ys) if ys else np.empty((n, 0), dtype=dtype)
    return IvpResult(y_out, OdeSolution(ts, steps) if dense_output else None, nfev,
                     status >= 0, status, _MESSAGES[status])


def _rms(a):
    return np.sqrt(np.sum(a * a, axis=1) / a.shape[1])


def _dop853_lanes(fun, y0, rtol, atol, restart=None):
    """Integrate dy/ds = fun(y) over s in [0, 1] for every row (lane) of y0.

    The lanes share the calls to fun(y, rows), which returns the derivatives
    at the rows of y (lanes `rows`) and None or, per row, "" or the reason
    the point lies outside the flow's domain.  All else is per lane: scipy's
    DOP853 tableau and step-size control (SAFETY 0.9, factors 0.2 and 10,
    exponent -1/8, its initial-step rule, a 10-ulp minimum step), with no
    dense output.  One shared step size would make every lane redo the
    steps any one lane rejects.  rtol and atol are scalars or (n, 1) arrays,
    one row per lane.  A lane that leaves the domain or whose step
    underflows stops with that reason; the others go on.

    When lane k reaches s = 1 or stops, the loop calls restart(k, y_end,
    reason), reason "" at s = 1.  The hook returns None to retire the lane,
    or the lane's next initial state after setting its rows of rtol and atol
    in place; the lane then starts again at s = 0 with the initial-step rule
    of its own, while the other lanes keep stepping.  Without a hook every
    lane retires at its first end.  Returns each lane's last end state and
    reason.
    """
    a_tab, b_tab, e3, e5 = DOP853.A, DOP853.B, DOP853.E3, DOP853.E5
    n_st = DOP853.n_stages
    exponent = -1.0 / (DOP853.error_estimator_order + 1)
    y = np.array(y0, dtype=float)
    n, m = y.shape
    # views, not copies: a restart hook sets its lane's rows in the caller's arrays
    rtol, atol = (np.broadcast_to(np.asarray(tol, dtype=float), (n, 1)) for tol in (rtol, atol))
    why = np.full(n, "", dtype=object)
    f = np.empty_like(y)
    h_abs = np.empty(n)

    def note(rows, reasons):
        if reasons is not None:
            first = (why[rows] == "") & (reasons != "")
            why[rows[first]] = reasons[first]

    def initial_step(rows):
        """scipy's select_initial_step for lanes rows, with RMS norms over each lane's state."""
        y_r = y[rows]
        f_r, reasons = fun(y_r, rows)
        note(rows, reasons)
        scale = atol[rows] + np.abs(y_r) * rtol[rows]
        d0, d1 = _rms(y_r / scale), _rms(f_r / scale)
        flat = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.minimum(np.where(flat, 1e-6, 0.01 * d0 / np.where(flat, 1.0, d1)), 1.0)
        f1, reasons = fun(y_r + h0[:, None] * f_r, rows)
        note(rows, reasons)
        d2 = _rms((f1 - f_r) / scale) / h0
        both = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(both, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(both, 1.0, np.maximum(d1, d2))) ** -exponent)
        h_abs[rows] = np.minimum(np.minimum(100.0 * h0, h1), 1.0)
        f[rows] = f_r

    s = np.zeros(n)
    rejected = np.zeros(n, dtype=bool)  # a retry of a rejected step, not a fresh one
    live = np.ones(n, dtype=bool)
    # the stages keep a row for every lane, live or not: a BLAS product rounds an entry by
    # where it falls in its blocks, so each lane keeps its place and its numbers never
    # depend on which other lanes are live
    k = np.zeros((n_st + 1, n, m))
    fresh = np.arange(n)
    while True:
        if fresh.size:
            initial_step(fresh)
        restarted = []
        for lane in np.flatnonzero(live & ((why != "") | (s >= 1.0))):
            state = None if restart is None else restart(lane, y[lane].copy(), why[lane])
            if state is None:
                live[lane] = False
            else:
                y[lane], s[lane], why[lane], rejected[lane] = state, 0.0, "", False
                restarted.append(lane)
        fresh = np.array(restarted, dtype=int)
        if fresh.size:
            continue
        idx = np.flatnonzero(live)
        if not idx.size:
            return y, why
        s_i = s[idx]
        min_step = 10.0 * np.abs(np.nextafter(s_i, np.inf) - s_i)
        h = h_abs[idx]
        h = np.where(~rejected[idx] & (h < min_step), min_step, h)
        keep = h >= min_step
        if not keep.all():
            note(idx, np.where(keep, "", UNDERFLOW))
            idx, s_i, h = idx[keep], s_i[keep], h[keep]
            if not idx.size:
                continue
        s_new = np.minimum(s_i + h, 1.0)
        h = s_new - s_i

        k[0] = f
        y_i = y[idx]
        for st in range(1, n_st):
            dy = (a_tab[st, :st] @ k[:st].reshape(st, -1)).reshape(n, m)[idx]
            k[st, idx], reasons = fun(y_i + dy * h[:, None], idx)
            note(idx, reasons)
        y_new = y_i + h[:, None] * (b_tab @ k[:n_st].reshape(n_st, -1)).reshape(n, m)[idx]
        k[n_st, idx], reasons = fun(y_new, idx)
        note(idx, reasons)

        scale = atol[idx] + np.maximum(np.abs(y_i), np.abs(y_new)) * rtol[idx]
        err5 = (e5 @ k.reshape(n_st + 1, -1)).reshape(n, m)[idx] / scale
        err3 = (e3 @ k.reshape(n_st + 1, -1)).reshape(n, m)[idx] / scale
        n5, n3 = np.sum(err5 * err5, axis=1), np.sum(err3 * err3, axis=1)
        zero = (n5 == 0.0) & (n3 == 0.0)
        err = np.where(zero, 0.0, h * n5 / np.sqrt(np.where(zero, 1.0, n5 + 0.01 * n3) * m))
        grow = SAFETY * np.where(err == 0.0, 1.0, err) ** exponent
        ok = err < 1.0
        factor = np.where(err == 0.0, MAX_FACTOR, np.minimum(MAX_FACTOR, grow))
        factor = np.where(ok, np.where(rejected[idx], np.minimum(1.0, factor), factor),
                          np.fmax(MIN_FACTOR, grow))
        h_abs[idx] = h * factor
        acc = ok & (why[idx] == "")
        s[idx[acc]] = s_new[acc]
        y[idx[acc]] = y_new[acc]
        f[idx[acc]] = k[n_st, idx[acc]]
        rejected[idx] = ~ok


def _newton(model, y_star, x_star, directions, tau0, polish=False):
    """Damped Newton over (direction chart, flight time), one sequence per start.

    A lone start (d = 1, multistart 1, the polish) integrates each iterate
    through _flow_one, which beats a lane run of one.  Several starts share
    one _dop853_lanes run, each in the lane of its own index: when a lane
    reaches s = 1 or stops, the restart hook makes that start's Newton
    update at once and restarts the lane from the next iterate, or retires
    it, while the other lanes keep stepping.  Residuals are max
    |x(tau) - x*| in units of max(1, |x*|_inf).
    A fan start is an inexact Newton iteration: it integrates at LOOSE until
    its last residual is at most LOOSE_UNTIL, then at the fan's OdeOpts(),
    and converges only on an iterate at the fan's pair with a residual of
    at most NEWTON_TOL, within MAX_ITER iterates of its own.  The polish
    integrates every iterate at TIGHT and converges at POLISH_TOL; its first
    iterate starts from the fan's root, about 1e-12 away, and so converges
    only when the fan's was exact (the constant well).  So every later
    iterate keeps its dense output, the Trajectory that transport and BMT
    read, and the first does not.
    Returns each start's outcome and, for a converged start, its _End.
    """
    d = model.dim
    n = len(directions)
    r_y = math.sqrt(1.0 - model.value(y_star) ** 2)
    frames = [_frame_from_direction(v) for v in directions]
    us = [np.zeros(d - 1) for _ in directions]
    taus = np.full(n, float(tau0))   # the lanes' RHS reads each restarted lane's new tau
    # an absolute 1e-10 lies below the float spacing from |x*| = 2^19 (about 5.2e5) on
    unit = max(1.0, float(np.max(np.abs(x_star))))
    exact, tol = (TIGHT, POLISH_TOL * unit) if polish else (OdeOpts(), NEWTON_TOL * unit)
    opts = [exact if polish else LOOSE] * n
    outcomes = [ITER_LIMIT] * n
    ends = [None] * n
    iters = [0] * n
    charts = [None] * n

    def start(k):
        """Start k's next initial momentum, from its chart."""
        charts[k] = _sphere_chart(frames[k], us[k])
        return r_y * charts[k][0]

    def advance(k, end):
        """Start k's Newton update from its iterate's _End or outcome; False once it is done."""
        iters[k] += 1
        if isinstance(end, str):
            outcomes[k] = end
            return False
        res = end.x - x_star
        err = np.max(np.abs(res))
        if opts[k] is exact:
            if err <= tol:
                outcomes[k], ends[k] = CONVERGED, end
                return False
        elif err <= LOOSE_UNTIL * unit:
            opts[k] = exact
        jac = np.empty((d, d))
        for j, col in enumerate(charts[k][1]):
            jac[:, j] = end.dpx @ (r_y * col)
        jac[:, d - 1] = end.v
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            outcomes[k] = SINGULAR
            return False
        du, dtau = step[: d - 1], step[d - 1]
        nrm = np.linalg.norm(du)
        if nrm > 1.0:
            du = du / nrm
            dtau *= 1.0 / nrm
        us[k] = us[k] + du
        taus[k] = np.clip(taus[k] + dtau, 0.02 * tau0, 50.0 * tau0)
        if np.linalg.norm(us[k]) > 2.5 or not np.isfinite(taus[k]):
            outcomes[k] = CHART_ESCAPE
            return False
        return iters[k] < MAX_ITER   # else ITER_LIMIT

    if n == 1:
        while advance(0, _flow_one(model, y_star, start(0), float(taus[0]), opts[0],
                                   polish and iters[0] > 0)):
            pass
        return outcomes, ends

    p0s = [start(k) for k in range(n)]
    rtol = np.array([[o.rel_tol] for o in opts])
    atol = np.array([[o.abs_tol] for o in opts])

    def restart(k, y_end, reason):
        if not advance(k, reason or _end_of(d, y_end, p0s[k], taus[k])):
            return None
        p0s[k] = start(k)
        rtol[k], atol[k] = opts[k].rel_tol, opts[k].abs_tol
        return _initial_state(y_star, p0s[k], True)

    y0 = np.array([_initial_state(y_star, p0, True) for p0 in p0s])
    _dop853_lanes(_lane_rhs(model, taus), y0, rtol, atol, restart)
    return outcomes, ends


def _fan_starts(model, y_star, x_star, count):
    """The fan's start directions and its flight-time guess, straight-line at V(midpoint)."""
    sep = x_star - y_star
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise DomainError("endpoints must be distinct")
    v_mid = model.value(0.5 * (x_star + y_star))
    tau0 = r * (-v_mid) / math.sqrt(1.0 - v_mid * v_mid)
    return _start_directions(model.dim, sep / r, count), tau0


def _tally(outcomes):
    counts = Counter(outcomes)
    return ", ".join(f"{counts[o]} {o}" for o in OUTCOMES if counts[o])


def shoot_geodesic(model, y_star, x_star, *, multistart=None):
    """Connect y_star to x_star by a zero-energy orbit.

    Newton iterates on the start direction (sphere chart) and the flight
    time; a deterministic multistart fan of the first multistart lattice
    directions (all 3^d - 1 when None) probes for competing connections
    and fills the uniqueness report.  In d = 1 the fan is the one start
    toward x_star for any multistart: p keeps its sign on the zero-energy
    level, so the other direction cannot connect.  Each start runs a Newton
    sequence of its own: the fan's starts share one _dop853_lanes run, in
    which a start restarts its lane from its next iterate the moment its
    last one ends, without waiting for the other starts.  Each start
    integrates at LOOSE until its residual max |x(tau) - x*| falls to
    LOOSE_UNTIL max(1, |x*|_inf), then at the fan's OdeOpts(); it converges
    only on an iterate at the fan's pair, at NEWTON_TOL.  The least-action
    connection is then polished: every iterate at TIGHT, down to POLISH_TOL,
    so the returned d_A does not depend on the path the fan took.

    Raises ShootingError if no start converges and ConjugatePointError if
    the bordered determinant falls under CONJUGACY_TOL * d_A^(d-1).
    """
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    d = model.dim
    count = multistart if multistart is not None else 3 ** d - 1
    starts, tau0 = _fan_starts(model, y_star, x_star, count)
    outcomes, ends = _newton(model, y_star, x_star, starts, tau0)
    found = [(end.p0, end.tau, end.action) for end in ends if end is not None]

    distinct = []
    for p0, tau, act in found:
        for q0, qtau, _ in distinct:
            if max(np.max(np.abs(p0 - q0)), abs(tau - qtau)) < MERGE_TOL:
                break
        else:
            distinct.append((p0, tau, act))
    uniqueness = {
        "n_starts": len(starts),
        "n_converged": len(found),
        "n_distinct": len(distinct),
        "distinct": [{"p0": list(map(float, p0)), "tau": float(tau), "action": float(act)}
                     for p0, tau, act in distinct],
        "multiple": len(distinct) > 1,
    }
    if not distinct:
        raise ShootingError(
            f"no connecting orbit found from {len(starts)} start directions: "
            f"{_tally(outcomes)}")

    # keep the least-action connection, then polish it at TIGHT down to POLISH_TOL
    p0, tau, _ = min(distinct, key=lambda rec: rec[2])
    direction = p0 / np.linalg.norm(p0)
    [outcome], [end] = _newton(model, y_star, x_star, [direction], tau, polish=True)
    if end is None:
        raise ShootingError(f"polish stage failed to re-converge: {outcome}")
    polished = end.traj or integrate_flow(model, y_star, end.p0, end.tau, TIGHT)

    v_y = polished.v_start
    v_x = polished.v_end
    dpx_tau = polished.dp_x(polished.tau)
    bdet = bordered_determinant(v_y, v_x, dpx_tau)
    d_a = polished.action_end
    if abs(bdet) < CONJUGACY_TOL * d_a ** (d - 1):
        raise ConjugatePointError(
            f"near-conjugate endpoints: |bordered determinant| = {abs(bdet):.3e} "
            f"below threshold {CONJUGACY_TOL:.1e} * d_A^(d-1)")
    dep = det_exp_prime(model, y_star, x_star, d_a, bdet) if d >= 2 else None
    return GeodesicSolution(
        y_star=y_star, x_star=x_star, trajectory=polished,
        tau=polished.tau, p0=polished.p_start, agmon=d_a,
        bordered_det=bdet, det_exp_prime=dep, uniqueness=uniqueness,
    )


def bordered_determinant(v_y, v_x, dpx_tau):
    """det [[0, -v_y^T], [v_x, dpX(tau)]], the shooting Jacobian determinant."""
    d = len(v_y)
    mat = np.zeros((d + 1, d + 1))
    mat[0, 1:] = -v_y
    mat[1:, 0] = v_x
    mat[1:, 1:] = dpx_tau
    return float(np.linalg.det(mat))


def det_exp_prime(model, y_star, x_star, agmon, bordered_det_value):
    """Jacobian determinant of the metric exponential map at the connection.

    Converts the bordered determinant through

        bordered = d_A^(d-1) det[exp'] / (|V(x)||V(y)| (1-V^2(x))^((d-2)/2)
                                                       (1-V^2(y))^((d-2)/2)).

    Defined for d >= 2; the positive branch is required, a non-positive
    value means the connection passed a focal point.
    """
    d = model.dim
    if d < 2:
        raise DomainError("det_exp_prime is defined for dimension >= 2")
    vx = model.value(x_star)
    vy = model.value(y_star)
    value = (bordered_det_value * abs(vx) * abs(vy)
             * (1.0 - vx * vx) ** ((d - 2) / 2.0)
             * (1.0 - vy * vy) ** ((d - 2) / 2.0)
             / agmon ** (d - 1))
    if value <= 0.0:
        raise ConjugatePointError(
            f"non-positive exponential-map Jacobian determinant {value:.3e}")
    return float(value)


def agmon_distance_quadrature_1d(model, a, b):
    """1D distance |int_a^b sqrt(1 - V^2)| by adaptive quadrature."""
    if model.dim != 1:
        raise DomainError("the quadrature cross-check is 1D only")

    def integrand(s):
        v = model.value(np.array([s]))
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
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        plus = exp_map_oracle(model, y, v + e)
        minus = exp_map_oracle(model, y, v - e)
        jac[:, j] = (plus - minus) / (2.0 * step)
    x_end = exp_map_oracle(model, y, v)
    c_y = 1.0 - model.value(y) ** 2
    c_x = 1.0 - model.value(x_end) ** 2
    return float(np.linalg.det(jac)) * (c_x / c_y) ** (d / 2.0)


def exp_inverse_from_geodesic(model, geo):
    """Initial velocity exp_y^{-1}(x) implied by a shot connection."""
    vy = model.value(geo.y_star)
    scale = geo.agmon / math.sqrt(1.0 - vy * vy)
    return scale * geo.p0 / np.linalg.norm(geo.p0)
