"""Hamiltonian flow of H(x, p) = -sqrt(1 - |p|^2) - V(x) and geodesic solves.

Orbits on the zero level set of H are, up to reparametrisation, geodesics of
the conformal metric (1 - V^2(x)) I, and the action integral of <p, dx>
along them is the corresponding distance.  The flow is integrated together
with its Jacobi blocks

    d/dt dpX = H_pp dpX',   d/dt dpP = Hess V . dpX,

seeded by (dpX, dpP)(0) = (0, I), which feed the bordered determinant

    det [[0, -v_y^T], [v_x, dpX(tau)]]

and its conversion to the Jacobian determinant of the metric exponential
map.  Two-point connections are found by a Newton shoot over the initial
direction (chart on the sphere) and the flight time.

V is defined on all of R^d, so the flow's one domain is the momentum ball
|p|^2 < BALL.  A start outside it is refused before any flow runs; the
right-hand sides never raise: a trial stage past the ball, or one whose
sums overflow, gets non-finite derivatives, so that DOP853 rejects its
step and retries a shorter one.
An orbit that truly runs into the ball shrinks its steps until they
underflow.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from .clifford import DomainError
from .dop853 import (TIGHT, UNDERFLOW, NumericalError, OdeOpts, _tup, solve_floats, solve_ivp,
                     solve_lanes)


class ShootingError(NumericalError):
    """No two-point connection found from any start direction."""


class ConjugatePointError(NumericalError):
    """Endpoints are (near-)conjugate: the leading kernel degenerates."""


# outcome of each start of the Newton loop, in the order a failure tally lists them
CONVERGED, SINGULAR, CHART_ESCAPE, ITER_LIMIT = (
    "converged", "singular Jacobian", "chart escape", "max_iter")
OUTCOMES = (CONVERGED, SINGULAR, CHART_ESCAPE, ITER_LIMIT, UNDERFLOW)
# the momentum ball: the flow is defined where |p|^2 < BALL, with w = sqrt(1 - |p|^2) > 1e-6
BALL = 1.0 - 1e-12

# the shoot, with every residual max |x(tau) - x*| measured against tol * max(1, |x*|_inf):
# a start integrates at LOOSE until its last residual is at most LOOSE_UNTIL.  A fan start
# then integrates at the fan's OdeOpts() and converges only on an iterate at the fan's
# pair whose residual is at most NEWTON_TOL, enough for the merge and the polish's start;
# a lone start goes straight to TIGHT and converges at POLISH_TOL, near the float floor,
# as the polish does from its first iterate on; each within MAX_ITER Newton steps, and
# a start ends as max_iter once STALL iterates in a row fail to halve its best residual.
# A fan start retires into a certified connection once its iterate, at its start or
# mid-iterate, lies within RETIRE_RADIUS of it in (p0, tau), at either tier, so any two
# certified connections lie at least RETIRE_RADIUS apart.  A bordered determinant under
# CONJUGACY_TOL d_A^(d-1) is near-conjugate
NEWTON_TOL, MAX_ITER, RETIRE_RADIUS, CONJUGACY_TOL = 1e-8, 40, 1e-2, 1e-8
LOOSE_UNTIL, POLISH_TOL, STALL = 1e-3, 1e-13, 15
# a fan start far from its root (inexact Newton: Dembo, Eisenstat & Steihaug 1982)
LOOSE = OdeOpts(1e-6, 1e-8)
# the most numbers a shoot's starts may hold, starts x state size: solve_lanes keeps 13
# stage copies of them, so its stage array stays under 104 MB
STATE_NUMBERS = 10 ** 6
# the largest lone flow state that runs on float stages, d <= 2: there the written-out
# stage sums beat numpy's calls per stage, and at d = 3's 25 numbers they no longer do
FLOAT_STATE = 13


def _var_index(d):
    """Where dpX starts in the flow state: after x, p and the action."""
    return 2 * d + 1


def _initial_state(x0, p0):
    d = len(x0)
    return np.concatenate([x0, p0, [0.0], np.zeros(d * d), np.eye(d).ravel()])


def _velocity(p):
    """x' = p / sqrt(1 - |p|^2) at the momentum p."""
    return p / math.sqrt(1.0 - float(p @ p))


class Trajectory:
    """One flow solve with dense output, its Jacobi blocks included.

    State layout: x (d), p (d), action integral of <p, xdot>, then dpX and
    dpP row-major.
    """

    def __init__(self, model, tau, result):
        self.model = model
        self.dim = model.dim
        self.tau = float(tau)
        self.sol = result.sol
        d = self.dim
        self._i_var = _var_index(d)
        y_end = self.sol(self.tau)
        self.p_start = self.sol(0.0)[d:2 * d]
        self.x_end, self.p_end = y_end[:d], y_end[d:2 * d]
        self.action_end = float(y_end[2 * d])
        self.v_start = _velocity(self.p_start)
        self.v_end = _velocity(self.p_end)

    def velocity(self, t):
        return _velocity(self.phase(t)[1])

    def dp_x(self, t):
        d = self.dim
        return self.sol(t)[self._i_var: self._i_var + d * d].reshape(d, d)

    def phase(self, t):
        """(x, p) at time t, or as rows at an array of times, from one dense-output call."""
        y = self.sol(t)
        return y[: self.dim].T, y[self.dim: 2 * self.dim].T

    def phase_at(self, t):
        """(x, p) at a float t as two lists of floats, read by sol.head: phase(t) bit for bit."""
        d = self.dim
        y = self.sol.head(t, 2 * d)
        return y[:d], y[d:]

    def position_at(self, t):
        """x at a float t as a list of floats, phase_at(t)[0] without the momenta."""
        return self.sol.head(t, self.dim)

    def potential_along(self, times):
        """(p, V, grad V = gamma r) at an array of times: one dense-output call, one terms_many."""
        x, p = self.phase(times)
        v, r, gamma, _, _ = self.model.terms_many(x)
        return p, v, gamma[:, None] * r

    def hamiltonian_sup(self):
        """sup |H| on a uniform 201-point grid, an energy-conservation diagnostic."""
        p, v, _ = self.potential_along(np.linspace(0.0, self.tau, 201))
        p2 = np.vecdot(p, p)
        if p2.max() >= 1.0:
            raise DomainError(f"hamiltonian requires |p| < 1, got |p|^2 = {p2.max()}")
        return float(np.abs(-np.sqrt(1.0 - p2) - v).max())


def _flow_rhs(model, floats=False):
    """The flow's right-hand side on one state, in Python floats.

    With grad V = gamma r and Hess V = alpha I + beta r r^T from model.terms
    and w = sqrt(1 - |p|^2): x' = p / w, p' = gamma r, the action rate
    |p|^2 / w, dpX' = dpP / w + p (p^T dpP) / w^3 and dpP' = alpha dpX +
    beta r (r^T dpX).  Past the ball, |p|^2 >= BALL, w is NaN and so are
    the derivatives that read it.  The body is _flow_source(d, floats),
    compiled once per d and bound here to model.terms: on a numpy state
    returning an array, for solve_ivp, or with floats on a tuple of floats
    returning a tuple, for solve_floats.
    """
    return _flow_binder(model.dim, floats)(model.terms)


def _flow_source(d, floats):
    """Source of bind(terms), which returns the flow's right-hand side in d dimensions.

    One straight-line body: the state unpacked into named floats, math.fsum
    over the products of |p|^2 = sum p_k p_k, q_j = sum p_k dpP_kj / w^3 and
    s_j = sum r_k dpX_kj, then dpX'_ij = dpP_ij / w + p_i q_j and dpP'_ij =
    alpha dpX_ij + (beta r_i) s_j, one expression per entry.  No loop and no
    slice: on a 25-number state numpy's fixed cost per call, and a
    comprehension's per-entry overhead, are most of the work.  math.fsum
    raises on inf - inf and where a finite sum overflows; the body then
    returns NaN in every entry, as _lane_rhs gives inf or NaN there, so a
    trial stage that reaches such a state gets its step rejected.  With
    floats the state is a tuple and the derivatives one, in place of
    y.tolist() and an array.
    """
    ks = range(d)

    def fsum(pairs):
        return f"fsum({_tup(f'{a} * {b}' for a, b in pairs)})"

    xs, ps, rs = ([f"{c}_{k}" for k in ks] for c in "xpr")
    dpx, dpp = ([[f"{c}_{i}_{j}" for j in ks] for i in ks] for c in "XP")
    state = [*xs, *ps, "_", *(n for row in dpx for n in row), *(n for row in dpp for n in row)]
    out = ([f"{p} / w" for p in ps] + [f"gamma * {r}" for r in rs] + ["pp / w"]
           + [f"{dpp[i][j]} / w + p_{i} * q_{j}" for i in ks for j in ks]
           + [f"alpha * {dpx[i][j]} + b_{i} * s_{j}" for i in ks for j in ks])
    body = [
        f"pp = {fsum(zip(ps, ps))}",
        "w = sqrt(1.0 - pp) if pp < BALL else nan",
        f"_, {_tup(rs)}, gamma, alpha, beta = terms([{', '.join(xs)}])",
        "w3 = w ** 3",
        *(f"q_{j} = {fsum((p, row[j]) for p, row in zip(ps, dpp))} / w3" for j in ks),
        *(f"s_{j} = {fsum((r, row[j]) for r, row in zip(rs, dpx))}" for j in ks),
        *(f"b_{i} = beta * r_{i}" for i in ks),
        f"return {_tup(out)}" if floats else f"return array([{', '.join(out)}])",
    ]
    unpack, nans = ("y", f"(nan, ) * {len(state)}") if floats else (
        "y.tolist()", f"full({len(state)}, nan)")
    return "\n".join(["def bind(terms):", "    def rhs(t, y):",
                      f"        {_tup(state)} = {unpack}", "        try:",
                      *(f"            {line}" for line in body),
                      "        except (ValueError, OverflowError):",
                      f"            return {nans}", "    return rhs"])


@cache
def _flow_binder(d, floats):
    """bind(terms) of _flow_source(d, floats), compiled once per d and floats.

    The source grows as d^2: compiling it takes about 6 ms at d = 12 and
    34 ms at d = 30 (15 KB and 96 KB of source).
    """
    scope = {"fsum": math.fsum, "sqrt": math.sqrt, "nan": math.nan, "BALL": BALL,
             "array": np.array, "full": np.full}
    exec(_flow_source(d, floats), scope)
    return scope["bind"]


def _solve_flow(model, x0, p0, tau, opts, **output):
    """The flow from (x0, p0) over [0, tau], after the start checks.

    A state of at most FLOAT_STATE numbers (d <= 2) solves on float stages
    (solve_floats), a larger one on numpy's (solve_ivp): both give the
    same IvpResult, dense output included.
    """
    if not tau > 0.0:
        raise DomainError(f"flight time must be positive, got {tau}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if x0.shape != p0.shape:
        raise DomainError("position and momentum must have equal length")
    if not np.isfinite(x0).all():
        raise DomainError(f"start position must be finite, got {x0.tolist()}")
    p2 = float(p0 @ p0)
    if not p2 < BALL:
        raise DomainError(f"phase point requires |p| < 1, with |p|^2 under {BALL!r}; "
                          f"got |p|^2 = {p2!r}")
    y0 = _initial_state(x0, p0)
    floats = y0.size <= FLOAT_STATE
    solve = solve_floats if floats else solve_ivp
    sol = solve(_flow_rhs(model, floats), (0.0, float(tau)), y0, **output,
                **opts.solver_kwargs())
    if not sol.success:
        raise NumericalError(f"flow integration failed: {sol.message}")
    return sol


def integrate_flow(model, x0, p0, tau, opts=None):
    """Integrate the flow and its Jacobi blocks from (x0, p0) for time tau with dense output."""
    sol = _solve_flow(model, x0, p0, tau, opts or OdeOpts(), dense_output=True)
    return Trajectory(model, tau, sol)


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


def _with_nonzeros(n, m):
    """The vectors of {-1,0,1}^n with m nonzero entries, in np.ndindex (lexicographic) order."""
    vs = []
    for where in combinations(range(n), m):
        for signs in product((-1, 1), repeat=m):
            v = [0] * n
            for i, s in zip(where, signs):
                v[i] = s
            vs.append(tuple(v))
    return sorted(vs)


def _lattice_groups(dim):
    """The nonzero vectors g of {-1,0,1}^dim by their exact key -g_1/|g|, one group per key.

    In key order: g_1 = 1 with 1, ..., dim nonzeros, then every g_1 = 0, then
    g_1 = -1 with dim, ..., 1 nonzeros; each group in np.ndindex order.
    """
    rest = dim - 1
    for m in range(dim):
        yield [(1, *g) for g in _with_nonzeros(rest, m)]
    yield [(0, *g) for g in product((-1, 0, 1), repeat=rest) if any(g)]
    for m in reversed(range(dim)):
        yield [(-1, *g) for g in _with_nonzeros(rest, m)]


def _start_directions(dim, n_base, count):
    """The first count lattice directions, base first: count in [1, lattice], from _fan_starts.

    The fan is the nonzero lattice vectors g, each as frame g/|g| with the
    frame that takes (1, 0, ..., 0) to n_base, in a stable sort from
    np.ndindex order by -(frame g/|g|) . n_base.  That key is -g_1/|g| up to
    rounding, and distinct exact keys lie at least 1/(2 d^1.5) apart, far
    above it, so the sort takes the _lattice_groups in turn and sorts within
    each: only the groups that the count reaches are built.  In d = 1 the
    frame is [[1.0]] or [[-1.0]], so the one direction is n_base exactly.
    """
    frame = _frame_from_direction(n_base)
    dirs = []
    # distinct vectors of {-1,0,1}^d never point the same way, so no duplicates
    for group in _lattice_groups(dim):
        if len(dirs) >= count:
            break
        group_dirs = [frame @ (g / np.linalg.norm(g)) for g in np.array(group, dtype=float)]
        group_dirs.sort(key=lambda v: -float(v @ n_base))
        dirs += group_dirs
    return dirs[:count]


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
    return _End(y[:d], _velocity(y[d:2 * d]), y[i_var:i_var + d * d].reshape(d, d), p0,
                float(tau), float(y[2 * d]), traj)


def _flow_one(model, y_star, p0, tau, opts, dense):
    """_End or outcome of one flow through _solve_flow.

    Only a dense flow builds DOP853's interpolant on every step, for the
    Trajectory its _End carries; otherwise the interpolant is built on the
    last step alone, for the state at tau.
    """
    try:
        if dense:
            traj = integrate_flow(model, y_star, p0, tau, opts)
            return _end_of(model.dim, traj.sol(traj.tau), traj.p_start, tau, traj)
        sol = _solve_flow(model, y_star, p0, tau, opts, t_eval=[tau])
    except NumericalError:
        return UNDERFLOW
    return _end_of(model.dim, sol.y[:, -1], p0, tau)


def _lane_rhs(model, taus):
    """Batched _flow_rhs on s in [0, 1]: row k is scaled by its flight time taus[k].

    The rows take _flow_rhs's formulas on terms_many's rank-one derivatives,
    with numpy's sums (np.vecdot, batched matmul) for math.fsum, so a row
    may part from _flow_rhs in its last bits.  A row past the ball, |p|^2 >=
    BALL, has NaN in the derivatives that read w, as in _flow_rhs.
    """
    d = model.dim
    i_var = _var_index(d)
    dd = d * d

    def rhs(y, rows):
        p = y[:, d:2 * d]
        p2 = np.vecdot(p, p)
        _, r, gamma, alpha, beta = model.terms_many(y[:, :d])
        # NaN past the ball, where 1 - p2 may be negative: np.sqrt would warn there
        w = np.sqrt(np.where(p2 < BALL, 1.0 - p2, np.nan))
        dpx = y[:, i_var:i_var + dd].reshape(-1, d, d)
        dpp = y[:, i_var + dd:].reshape(-1, d, d)
        q = (p[:, None, :] @ dpp) / (w**3)[:, None, None]
        s = r[:, None, :] @ dpx
        out = np.empty_like(y)
        out[:, :d] = p / w[:, None]
        out[:, d:2 * d] = gamma[:, None] * r
        out[:, 2 * d] = p2 / w
        out[:, i_var:i_var + dd] = (dpp / w[:, None, None] + p[:, :, None] * q).reshape(-1, dd)
        out[:, i_var + dd:] = (alpha[:, None, None] * dpx
                               + (beta[:, None] * r)[:, :, None] * s).reshape(-1, dd)
        out *= taus[rows, None]
        return out

    return rhs


def _newton(model, y_star, x_star, directions, tau0, polish=False):
    """Damped Newton over (direction chart, flight time), one sequence per start.

    A lone start (d = 1, multistart 1, the polish) integrates each iterate
    through _flow_one, which beats a lane run of one.  Several starts share
    one solve_lanes run, each in the lane of its own index: when a lane
    reaches s = 1 or stops, the restart hook makes that start's Newton
    update at once and restarts the lane from the next iterate, or retires
    it, while the other lanes keep stepping.  Residuals are max
    |x(tau) - x*| in units of max(1, |x*|_inf).
    A start is an inexact Newton iteration: it integrates at LOOSE until
    its last residual is at most LOOSE_UNTIL.  A fan start then integrates
    at the fan's OdeOpts() and converges only on an iterate at the fan's
    pair with a residual of at most NEWTON_TOL = 1e-8, within MAX_ITER
    iterates of its own: its root only feeds the uniqueness report and the
    polish's start, so more digits would certify nothing.  A lone start has
    nothing to merge with, so it goes from LOOSE straight to TIGHT and
    converges at POLISH_TOL: it is its own polish.
    A start whose residual stops contracting (Deuflhard, Newton Methods
    for Nonlinear Problems, 2004, ch. 3) ends as max_iter once STALL
    iterates in a row fail to halve its best residual, the one at its last
    halving: on a flat stretch a start far from x* can cycle for all
    MAX_ITER iterates, and the fan runs until its longest start ends.
    A start that shares the lanes also converges, without finishing its
    iterate, once that iterate lies within RETIRE_RADIUS of a connection
    that another start has certified, in max(|p0 - q0|_inf, |tau - qtau|),
    at either tier.  It is checked when the iterate begins and, for every
    live lane at once, when a start certifies a connection: the hook then
    retires those lanes mid-iterate.  Such a start retires with
    the first matching certified _End, the same object, since an iterate
    this close has joined the root's Newton basin (Deuflhard, ibid.,
    ch. 2) and would only certify it again.  So a start certifies a root
    only from an iterate at least RETIRE_RADIUS from every root certified
    before, and this is the fan's one merge.
    The polish of a fan's root integrates every iterate at TIGHT.  Its
    first iterate, like a lone start's first at TIGHT, only measures the
    residual: it starts off the root (within NEWTON_TOL for the polish, one
    LOOSE step away for a lone start) and so converges only on the constant
    well, where a step is exact.  So every later iterate at TIGHT keeps its
    dense output, the Trajectory that transport and BMT read, and the first
    does not.
    Returns each start's outcome and, for a converged start, its _End or
    the _End it retired into.
    """
    d = model.dim
    n = len(directions)
    r_y = math.sqrt(1.0 - model.value(y_star) ** 2)
    frames = [_frame_from_direction(v) for v in directions]
    us = [np.zeros(d - 1) for _ in directions]
    taus = np.full(n, float(tau0))   # the lanes' RHS reads each restarted lane's new tau
    unit = _unit(x_star)
    exact, tol = (TIGHT, POLISH_TOL * unit) if n == 1 else (OdeOpts(), NEWTON_TOL * unit)
    opts = [exact if polish else LOOSE] * n
    outcomes = [ITER_LIMIT] * n
    ends = [None] * n
    iters = [0] * n
    best = [math.inf] * n   # each start's residual when it last halved
    stalls = [0] * n        # its iterates since then
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
        if err <= 0.5 * best[k]:
            best[k], stalls[k] = err, 0
        else:
            stalls[k] += 1
            if stalls[k] == STALL:
                return False   # ITER_LIMIT: the residual stopped contracting
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
        dense = False   # from the second iterate at TIGHT on; the first measures the residual
        while True:
            tight = opts[0] is exact
            if not advance(0, _flow_one(model, y_star, start(0), float(taus[0]), opts[0],
                                        dense)):
                return outcomes, ends
            dense = tight

    p0s = [start(k) for k in range(n)]
    rtol = np.array([[o.rel_tol] for o in opts])
    atol = np.array([[o.abs_tol] for o in opts])
    live = [True] * n   # the starts whose lanes are on an iterate

    def joined(k):
        """Retire start k into the first certified _End within RETIRE_RADIUS; whether it did."""
        for end in ends:
            if end is not None and max(np.max(np.abs(p0s[k] - end.p0)),
                                       abs(taus[k] - end.tau)) < RETIRE_RADIUS:
                outcomes[k], ends[k], live[k] = CONVERGED, end, False
                return True
        return False

    def restart(k, y_end, reason):
        live[k] = False
        if not advance(k, reason or _end_of(d, y_end, p0s[k], taus[k])):
            if ends[k] is None:
                return None
            # k certified a root: the starts whose iterates have joined its basin retire now
            return None, [j for j in range(n) if live[j] and joined(j)]
        p0s[k] = start(k)
        if joined(k):
            return None
        live[k] = True
        rtol[k], atol[k] = opts[k].rel_tol, opts[k].abs_tol
        return _initial_state(y_star, p0s[k])

    y0 = np.array([_initial_state(y_star, p0) for p0 in p0s])
    solve_lanes(_lane_rhs(model, taus), y0, rtol, atol, restart)
    return outcomes, ends


def _unit(x_star):
    """max(1, |x*|_inf), the unit of the shoot's residuals.

    An absolute POLISH_TOL = 1e-13 lies below the float spacing from |x*| = 2^9 = 512 on.
    """
    return max(1.0, float(np.max(np.abs(x_star))))


def _fan_starts(model, y_star, x_star, multistart):
    """The fan's start directions and its flight-time guess, straight-line at V(midpoint).

    The one place that sizes the fan: multistart None takes all 3^d - 1
    lattice directions, a whole number >= 1 is clipped to them, anything
    else raises DomainError, and so does a fan whose starts would hold more
    than STATE_NUMBERS numbers, before any is built.  In d = 1 the lattice
    is the start toward x_star alone: p keeps its sign on H = 0 in the gap.
    The guess reads V at the midpoint and every start's momentum V at
    y_star; either value outside the gap (-1, 0) raises DomainError, and so
    does a start momentum on the ball.  So do endpoints closer than
    LOOSE_UNTIL max(1, |x*|_inf), the residual at which a start leaves its
    LOOSE iterates (every stop of the shoot is in that unit): closer ones
    could end them on an orbit that misses x* by more than their separation.
    """
    if multistart is not None and (multistart is True or not isinstance(
            multistart, (int, np.integer)) or multistart < 1):
        raise DomainError(f"multistart must be None or a whole number >= 1, got {multistart!r}")
    sep = x_star - y_star
    r = float(np.linalg.norm(sep))
    least = LOOSE_UNTIL * _unit(x_star)
    if not r >= least:
        # hypot scales, where the norm's squares underflow (1e-300 apart reads 0.0)
        raise DomainError(f"endpoints {math.hypot(*sep.tolist())!r} apart; the shoot needs "
                          f"a separation of at least {least!r}")
    mid = 0.5 * (x_star + y_star)
    v_y, v_mid = model.value(y_star), model.value(mid)
    for name, point, v in (("start", y_star, v_y), ("midpoint", mid, v_mid)):
        if not -1.0 < v < 0.0:
            raise DomainError(f"V = {v!r} at the {name} {point.tolist()} lies outside "
                              "the gap (-1, 0)")
    if not 1.0 - v_y * v_y < BALL:
        raise DomainError(f"V = {v_y!r} at the start puts its momentum on the momentum "
                          f"ball: |p|^2 = 1 - V^2 must stay under {BALL!r}")
    tau0 = r * (-v_mid) / math.sqrt(1.0 - v_mid * v_mid)
    d = model.dim
    lattice = 3 ** d - 1 if d > 1 else 1
    count = lattice if multistart is None else min(multistart, lattice)
    size = _var_index(d) + 2 * d * d
    if count * size > STATE_NUMBERS:
        raise DomainError(f"{count} starts of {size} numbers each plan {count * size} "
                          f"state numbers, above the bound of {STATE_NUMBERS}; "
                          "lower multistart")
    return _start_directions(d, sep / r, count), tau0


def _tally(outcomes):
    counts = Counter(outcomes)
    return ", ".join(f"{counts[o]} {o}" for o in OUTCOMES if counts[o])


def shoot_geodesic(model, y_star, x_star, *, multistart=None):
    """Connect y_star to x_star by a zero-energy orbit.

    Newton iterates on the start direction (sphere chart) and the flight
    time; a deterministic multistart fan, sized by _fan_starts from
    multistart, probes for competing connections and fills the uniqueness
    report.  Each start runs a Newton sequence of its own: the fan's starts
    share one solve_lanes run, in which a start restarts its lane from its
    next iterate the moment its last one ends, without waiting for the other
    starts.  Each start integrates at LOOSE until its residual max |x(tau) -
    x*| falls to LOOSE_UNTIL max(1, |x*|_inf).  A fan start then integrates
    at the fan's OdeOpts(); it converges only on an iterate at the fan's
    pair, at NEWTON_TOL = 1e-8, or retires into a connection another start
    has certified as soon as its iterate, at its start or mid-iterate, lies
    within RETIRE_RADIUS of it in (p0, tau), at either tier.  A start ends
    as max_iter after MAX_ITER iterates, or once STALL iterates in a row
    fail to halve its best residual.  n_converged counts the certified
    starts plus those retired into a certified connection; distinct holds
    the certified connections in start order, at NEWTON_TOL, and n_distinct
    counts them: any two lie at least RETIRE_RADIUS apart in (p0, tau).
    The fan's least-action connection is then polished: every iterate at
    TIGHT, down to POLISH_TOL, so the returned d_A does not depend on the
    path the fan took.  A lone start (d = 1, or multistart 1) integrates at
    TIGHT after LOOSE and converges at POLISH_TOL, so its root is the
    polished connection, and its one distinct entry is the returned orbit
    bit for bit.

    Raises ShootingError if no start converges and ConjugatePointError if
    the bordered determinant falls under CONJUGACY_TOL * d_A^(d-1).
    """
    y_star = np.atleast_1d(np.asarray(y_star, dtype=float))
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    d = model.dim
    starts, tau0 = _fan_starts(model, y_star, x_star, multistart)
    outcomes, ends = _newton(model, y_star, x_star, starts, tau0)
    # a retired start carries the certified _End itself: one entry per object, in start order
    distinct = list({id(end): end for end in ends if end is not None}.values())
    uniqueness = {
        "n_starts": len(starts),
        "n_converged": sum(end is not None for end in ends),
        "n_distinct": len(distinct),
        "distinct": [{"p0": list(map(float, end.p0)), "tau": end.tau, "action": end.action}
                     for end in distinct],
        "multiple": len(distinct) > 1,
    }
    if not distinct:
        raise ShootingError(
            f"no connecting orbit found from {len(starts)} start directions: "
            f"{_tally(outcomes)}")

    if len(starts) == 1:
        [end] = ends   # a lone start converged at TIGHT, down to POLISH_TOL
    else:
        # keep the least-action connection, then polish it at TIGHT down to POLISH_TOL
        best = min(distinct, key=lambda end: end.action)
        direction = best.p0 / np.linalg.norm(best.p0)
        [outcome], [end] = _newton(model, y_star, x_star, [direction], best.tau, polish=True)
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

