"""DOP853, the explicit Runge-Kutta pair of order 8(5,3) with a 7th-order interpolant.

The method of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I* (Springer, 2nd ed. 1993), section II.5, on the tableau of
Prince & Dormand (1981), as the installed scipy implements it: one step
loop, two stage kernels, plus the lanes.  The loop (_march) is scipy's
step-size control, t_eval reads and step underflow, once, for two solves
of dy/dt = fun(t, y) that differ only in the kernels that make a step's
stages and interpolant, which every read evaluates with _horner:

* solve_ivp, on numpy stages (_array_kernels), bit for bit scipy's
  solve_ivp(method="DOP853") without its wrappers, up to its last
  t_eval point, its dense output a DenseSolution;
* solve_floats, on a state of Python floats, with each stage's sum
  written out as one float expression (_float_kernels), its dense output
  a DenseSolution of the float interpolants.

solve_lanes is many solves of dy/ds = fun(y) over s in [0, 1] that share
each RHS call, one row (lane) per solve, each with scipy's step-size
control of its own.

solve_ivp and solve_floats refuse a start that is not finite, as scipy
does, and a zero-length span returns scipy's answer: y0, after one call of
fun.  Past the start none checks a domain: a trial stage that is NaN or
inf makes its step's error estimate so, and the step is rejected and
retried shorter; a step size that is itself NaN ends the solve as an
underflow.  solve_ivp and solve_lanes silence numpy's warnings there, once
per call.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853


class NumericalError(RuntimeError):
    """A solver failed to reach its target accuracy or left its domain."""


# scipy's RungeKutta step-size control, which solve_lanes repeats per lane
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# the reason solve_lanes gives a lane whose step fell under its 10-ulp minimum
UNDERFLOW = "step underflow"


@dataclass(frozen=True)
class OdeOpts:
    """DOP853 tolerances; the defaults are the multistart fan's."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def solver_kwargs(self):
        return dict(rtol=self.rel_tol, atol=self.abs_tol)


# a lone start near its root, the polish, the spinor transport, the BMT spin solve and
# exp_map_oracle
TIGHT = OdeOpts(1e-12, 1e-14)


def _horner(t_old, t_end, cols, t):
    """DOP853's interpolant over the step (t_old, t_end) at t, per column (F6, ..., F0, y_old).

    One expression per component, in scipy's Dop853DenseOutput's order, at
    the step fraction x = (t - t_old) / (t_end - t_old):
    (((0.0 + F6) x + F5) (1 - x) + ... + F0) x + y_old, on floats or on
    numpy rows that broadcast against an array t.
    """
    x = (t - t_old) / (t_end - t_old)
    u = 1 - x
    return [((((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0)
             * x + y0) for f6, f5, f4, f3, f2, f1, f0, y0 in cols]


class DenseSolution:
    """A solve's dense output over _march's pieces, read as scipy's OdeSolution, bit for bit.

    A time reads the first step whose end is at or past it in the direction
    of the solve, clamped to the steps.  A step's interpolant comes as the
    (8, n) rows of numpy stages or the n float columns of float stages.
    Its columns are listed as floats on its first float read; every step's
    rows are stacked on the first array read.  Both reads make the same
    float operations, so they agree bit for bit.
    """

    def __init__(self, t0, pieces):
        self._ts = [t0, *(piece[1] for piece in pieces)]
        self.ts = np.array(self._ts)
        self._steps = [piece[2] for piece in pieces]
        self._sign = 1.0 if self._ts[-1] >= t0 else -1.0
        self._keys = [self._sign * t for t in self._ts]
        self._cols = [None if isinstance(step, np.ndarray) else step for step in self._steps]
        self._stack = None

    def head(self, t, m=None):
        """The first m components of self(t), or all, at a float t as a list, bit for bit."""
        i = min(max(bisect_left(self._keys, self._sign * t) - 1, 0), len(self._steps) - 1)
        cols = self._cols[i]
        if cols is None:
            cols = self._cols[i] = self._steps[i].T.tolist()
        return _horner(self._ts[i], self._ts[i + 1], cols[:m], t)

    def __call__(self, t):
        """y at a float t, shape (n,), or at an array of times, shape (n, len(t))."""
        t = np.asarray(t)
        if t.ndim == 0:
            return np.array(self.head(float(t)))
        if self._stack is None:
            # (8, n, steps), so that a gather by step reads (n, len(t)) rows
            self._stack = np.stack([step if isinstance(step, np.ndarray) else np.array(step).T
                                    for step in self._steps], axis=-1)
        step = np.searchsorted(self._sign * self.ts, self._sign * t) - 1
        step = np.clip(step, 0, len(self._steps) - 1)
        return _horner(self.ts[step], self.ts[step + 1], [self._stack[:, :, step]], t)[0]


class ConstantSolution:
    """The dense output of a zero-length span, as scipy's ConstantDenseOutput: y0 at every time."""

    def __init__(self, t0, y0):
        self.ts = np.array([t0, t0])
        self._y = y0

    def __call__(self, t):
        t = np.asarray(t)
        return self._y.copy() if t.ndim == 0 else np.repeat(self._y[:, None], t.size, axis=1)


class IvpResult(NamedTuple):
    """A solve's result: y at t_eval or at every step end, sol when dense_output."""

    y: np.ndarray
    sol: DenseSolution | None
    nfev: int
    success: bool
    status: int
    message: str


# the DOP853 tableau as scipy's rk_step and _dense_output_impl slice it, times as floats
_STAGES = [(s, DOP853.A[s, :s], float(c)) for s, c in enumerate(DOP853.C[1:], start=1)]
_EXTRA = [(s, a[:s], float(c)) for s, (a, c) in
          enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=DOP853.n_stages + 1)]
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             -1: "Required step size is less than spacing between numbers."}
_NOT_FINITE = "All components of the initial state `y0` must be finite."


def _control(h_abs, err5_2, err3_2, n, rejected):
    """scipy's error norm and step-size control for a step of size h_abs: (accepted, next h_abs).

    err5_2 and err3_2 are the squared norms of the two error estimates over
    their scale, n the state's size, and rejected whether the step retries
    a rejected one.  A NaN error rejects the step.
    """
    if err5_2 == 0 and err3_2 == 0:
        err = 0.0
    else:
        err = h_abs * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)
    if err < 1:
        factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** _EXPONENT)
        return True, h_abs * (min(1, factor) if rejected else factor)
    return False, h_abs * max(MIN_FACTOR, SAFETY * err ** _EXPONENT)


def _initial_step(d0, d1, probe, interval, max_step):
    """scipy's select_initial_step from the RMS norms d0 of y and d1 of f = fun(t, y) over scale.

    probe(h0) is that norm of fun(t + h0, y + h0 f) - f, with h0 in the direction of t_span.
    """
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = probe(h0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, interval, max_step)


def _march(fun, t, t_bound, y, f, h_abs, kernels, rtol, atol, points, every=False,
           check=None, max_step=math.inf):
    """scipy's DOP853 step loop from (t, y), with f = fun(t, y) and first step h_abs.

    kernels = (step, dense) make a trial step and a step's interpolant
    columns on the caller's state, as _float_kernels' do.  dense runs on
    every step when every, else on the steps that hold points (t_eval, as
    floats), and the march then returns after the step that holds the last
    one.  check(t, y), when given, sees the start and each accepted state.
    No step is longer than max_step.
    Returns (status, nfev, ends, pieces): ends the start and each accepted
    state, pieces (t_old, t, columns, the step's points) per interpolant,
    with the step's own end t and the columns in _horner's order.
    """
    step, dense = kernels
    n = len(y)
    direction = 1.0 if t_bound >= t else -1.0
    nfev, i_pt = 2, 0
    ends, pieces = [y], []
    if check is not None:
        check(t, y)
    while True:
        # RungeKutta._step_impl
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:   # a NaN step size too
                return -1, nfev, ends, pieces
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err5_2, err3_2, k = step(fun, t, h, y, f, rtol, atol)
            nfev += DOP853.n_stages
            accepted, h_abs = _control(h_abs, err5_2, err3_2, n, rejected)
            if accepted:
                break
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if check is not None:
            check(t, y)
        ends.append(y)

        j = i_pt    # points[i_pt:j] lie in this step
        while j < len(points) and direction * (points[j] - t) <= 0:
            j += 1
        if every or j > i_pt:
            pieces.append((t_old, t, dense(fun, t_old, h, y_old, y, k), points[i_pt:j]))
            nfev += len(_EXTRA)
        if direction * (t - t_bound) >= 0 or (not every and i_pt < j == len(points)):
            return 0, nfev, ends, pieces
        i_pt = j


def _norm(x):
    """np.linalg.norm's own operations on a real or complex vector, without its checks."""
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def _array_kernels(n, dtype):
    """DOP853's step and interpolant on a numpy state of n entries, in scipy's numpy calls.

    Every trial reuses one stage buffer k, so step returns a copy of its
    last stage as f_new: a rejected retry overwrites k[n_stages].
    """
    n_st = DOP853.n_stages
    k = np.empty((DOP853.A_EXTRA.shape[1], n), dtype=dtype)
    k_t, k_err_t = k.T, k[:n_st + 1].T

    def step(fun, t, h, y, f, rtol, atol):
        # rk_step, then the error norm over scale
        k[0] = f
        for s, a, c in _STAGES:
            k[s] = fun(t + c * h, y + k_t[:, :s].dot(a) * h)
        y_new = y + h * k_t[:, :n_st].dot(DOP853.B)
        k[n_st] = fun(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        return (y_new, k[n_st].copy(), _norm(k_err_t.dot(DOP853.E5) / scale) ** 2,
                _norm(k_err_t.dot(DOP853.E3) / scale) ** 2, k)

    def dense(fun, t, h, y, y_new, k):
        # DOP853._dense_output_impl, its rows F0, ..., F6 and y stored as (F6, ..., F0, y)
        for s, a, c in _EXTRA:
            k[s] = fun(t + c * h, y + k_t[:, :s].dot(a) * h)
        F = np.empty((8, n), dtype=dtype)
        F[6] = delta_y = y_new - y
        F[5] = h * k[0] - delta_y
        F[4] = 2 * delta_y - h * (k[n_st] + k[0])
        F[3::-1] = h * DOP853.D.dot(k)
        F[7] = y
        return F

    return step, dense


@np.errstate(over="ignore", invalid="ignore")
def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False,
              max_step=math.inf):
    """scipy.integrate.solve_ivp(method="DOP853") for one solve, bit for bit, without its wrappers.

    The step loop (_march) with numpy stage kernels (_array_kernels) that
    make the installed scipy's numpy calls in its order: select_initial_step,
    the rk_step stages, the error norm and step-size control, t_eval read
    through each step's 7th-order interpolant (_horner), and dense output
    as a DenseSolution of those interpolants, with scipy's max_step cap.
    So y, sol(t) and nfev equal scipy's.  y0 may be real or complex.  With
    t_eval and no dense output the solve returns (status 0) after the step
    that reads the last point, so the end of t_span then only bounds the
    steps: y and nfev are scipy's when that point is the end.  A y0 that
    is not finite raises scipy's ValueError.  A zero-length span takes no
    step, as scipy's: y0 at both ends (at each t_eval point, where scipy
    reads none) and a ConstantSolution, after one call of fun.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    if not np.isfinite(y).all():
        raise ValueError(_NOT_FINITE)
    n = y.size
    direction = 1.0 if t_bound >= t else -1.0
    f = np.asarray(fun(t, y), dtype=dtype)
    if t == t_bound:
        y_out = np.repeat(y[:, None], 2 if t_eval is None else len(t_eval), axis=1)
        sol = ConstantSolution(t, y) if dense_output else None
        return IvpResult(y_out, sol, 1, True, 0, _MESSAGES[0])
    scale = atol + np.abs(y) * rtol

    def probe(h0):
        f1 = np.asarray(fun(t + h0 * direction, y + h0 * direction * f), dtype=dtype)
        return _norm((f1 - f) / scale) / n ** 0.5

    h_abs = _initial_step(_norm(y / scale) / n ** 0.5, _norm(f / scale) / n ** 0.5, probe,
                          abs(t_bound - t), max_step)
    points = [] if t_eval is None else list(map(float, t_eval))
    status, nfev, ends, pieces = _march(fun, t, t_bound, y, f, h_abs, _array_kernels(n, dtype),
                                        rtol, atol, points, every=dense_output,
                                        max_step=max_step)

    if t_eval is None:
        y_out = np.vstack(ends).T
    else:
        reads = [_horner(t_old, t_end, [F[:, :, None]], np.array(pts))[0]
                 for t_old, t_end, F, pts in pieces if pts]
        y_out = np.hstack(reads) if reads else np.empty((n, 0), dtype=dtype)
    sol = DenseSolution(t, pieces) if dense_output else None
    return IvpResult(y_out, sol, nfev, status >= 0, status, _MESSAGES[status])


def _tup(items):
    """A tuple display of source items, as generated code writes one: (a, b, )."""
    return f"({''.join(f'{x}, ' for x in items)})"


def _dot(coefs, terms):
    """coefs . terms as one left-to-right float expression, without its zero coefficients."""
    return " + ".join(f"{float(a)!r} * {x}" for a, x in zip(coefs, terms) if a != 0.0)


@functools.cache
def _float_kernels(n, reads):
    """DOP853's step and its interpolant on n Python floats, generated once per (n, reads).

    step(fun, t, h, y, f, rtol, atol) takes f = fun(t, y), makes rk_step's
    stages and returns (y_new, fun(t + h, y_new), |err5|^2, |err3|^2, k):
    the squared norms of scipy's two error estimates over scale, and k the
    13 stages, flat.  dense(fun, t, h, y, y_new, k) makes
    _dense_output_impl's three extra stages and returns the interpolant's
    columns (F6, ..., F0, y) per component, as _horner reads them.  Each
    stage's sum is one expression over its nonzero coefficients: no loop,
    no numpy, and operators alone, which give inf or NaN where they
    overflow and never raise.  A stage calls fun on the leading reads
    components of its argument alone, the only ones fun reads, and so
    sums no other.
    """
    n_st = DOP853.n_stages
    comps = range(n)

    def names(s):
        return [f"k{s}_{i}" for i in comps]

    def stages(s):
        return [[f"k{m}_{i}" for m in range(s)] for i in comps]

    def call(s, a, c):
        args = _tup(f"y{i} + ({_dot(a, ks)}) * h" for i, ks in zip(range(reads), stages(s)))
        return f"    {_tup(names(s))} = fun(t + {c!r} * h, {args})"

    unpack = [f"    {_tup(f'y{i}' for i in comps)} = y", f"    {_tup(names(0))} = f"]
    k_all = [x for s in range(n_st + 1) for x in names(s)]
    step = ["def step(fun, t, h, y, f, rtol, atol):", *unpack]
    step += [call(s, a, c) for s, a, c in _STAGES]
    step += [f"    n{i} = y{i} + h * ({_dot(DOP853.B, ks)})"
             for i, ks in zip(comps, stages(n_st))]
    step.append(f"    {_tup(names(n_st))} = fun(t + h, {_tup(f'n{i}' for i in range(reads))})")
    step += [f"    s{i} = atol + max(abs(y{i}), abs(n{i})) * rtol" for i in comps]
    for e, tab in (("e5", DOP853.E5), ("e3", DOP853.E3)):
        step += [f"    {e}_{i} = ({_dot(tab, ks)}) / s{i}"
                 for i, ks in zip(comps, stages(n_st + 1))]
    err5, err3 = (" + ".join(f"{e}_{i} * {e}_{i}" for i in comps) for e in ("e5", "e3"))
    step.append(f"    return {_tup(f'n{i}' for i in comps)}, {_tup(names(n_st))}, {err5}, "
                f"{err3}, {_tup(k_all)}")

    dense = ["def dense(fun, t, h, y, y_new, k):", unpack[0],
             f"    {_tup(f'n{i}' for i in comps)} = y_new", f"    {_tup(k_all)} = k"]
    dense += [call(s, a, c) for s, a, c in _EXTRA]
    dense += [f"    d{i} = n{i} - y{i}" for i in comps]
    columns = []
    for i, ks in zip(comps, stages(len(DOP853.D[0]))):
        f3_6 = [f"h * ({_dot(row, ks)})" for row in DOP853.D]
        f0_2 = [f"d{i}", f"h * k0_{i} - d{i}", f"2 * d{i} - h * (k{n_st}_{i} + k0_{i})"]
        columns.append(_tup([*f3_6[::-1], *f0_2[::-1], f"y{i}"]))
    dense.append(f"    return {_tup(columns)}")

    scope = {}
    exec("\n".join(step + dense), scope)
    return scope["step"], scope["dense"]


def solve_floats(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False, check=None,
                 max_step=math.inf):
    """solve_ivp on a state of Python floats, with DOP853's stage sums written out.

    The same step loop as solve_ivp (_march), with the generated float
    kernels (_float_kernels): scipy's select_initial_step, stages, error
    norm and step-size control, each point read through its step's
    7th-order interpolant, and dense output as a DenseSolution of the float
    interpolants, with solve_ivp's nfev; only the rounding differs, since
    each stage's sum is one float expression over its nonzero
    coefficients.  fun(t, y) takes a tuple of floats and returns a
    sequence of floats; it must not raise where they overflow (x * x, not
    x ** 2), so that a trial stage that overflows makes its step's error inf
    or NaN and the step is rejected, as any whose error is too large.  A
    fun that reads only its leading k components may declare so with the
    attribute fun.reads = k, as scipy's events declare terminal: its stages
    then get those k alone, with the same y and nfev.
    check(t, y), when given, is called at the start and after each accepted
    step; it stops the march by raising.  max_step caps each step, as in
    solve_ivp.  y holds the reads at t_eval, or every accepted state
    without it; with t_eval and no dense output the march returns (status
    0) after the step that reads the last point.  A y0 that is not finite
    raises scipy's ValueError, and a zero-length span takes no step, as in
    solve_ivp.
    """
    t, t_bound = map(float, t_span)
    y = tuple(map(float, y0))
    if not all(map(math.isfinite, y)):
        raise ValueError(_NOT_FINITE)
    n = len(y)
    direction = 1.0 if t_bound >= t else -1.0
    f = fun(t, y)
    if t == t_bound:
        y_out = np.repeat(np.array([y]).T, 2 if t_eval is None else len(t_eval), axis=1)
        sol = ConstantSolution(t, np.array(y)) if dense_output else None
        return IvpResult(y_out, sol, 1, True, 0, _MESSAGES[0])
    scale = [atol + abs(v) * rtol for v in y]

    def rms(x):
        return math.sqrt(sum((v / s) * (v / s) for v, s in zip(x, scale)) / n)

    def probe(h0):
        f1 = fun(t + h0 * direction, tuple(v + h0 * direction * g for v, g in zip(y, f)))
        return rms([b - a for a, b in zip(f, f1)])

    h_abs = _initial_step(rms(y), rms(f), probe, abs(t_bound - t), max_step)
    kernels = _float_kernels(n, getattr(fun, "reads", n))
    points = [] if t_eval is None else list(map(float, t_eval))
    status, nfev, ends, pieces = _march(fun, t, t_bound, y, f, h_abs, kernels, rtol, atol,
                                        points, every=dense_output, check=check,
                                        max_step=max_step)

    if t_eval is None:
        y_out = np.array(ends).T
    else:
        reads = [_horner(t_old, t_end, cols, s) for t_old, t_end, cols, pts in pieces
                 for s in pts]
        y_out = np.array(reads, dtype=float).reshape(-1, n).T
    sol = DenseSolution(t, pieces) if dense_output else None
    return IvpResult(y_out, sol, nfev, status >= 0, status, _MESSAGES[status])


@np.errstate(over="ignore", invalid="ignore")
def solve_lanes(fun, y0, rtol, atol, restart):
    """Integrate dy/ds = fun(y) over s in [0, 1] for every row (lane) of y0.

    The lanes share the calls to fun(y, rows), which returns the derivatives
    at the rows of y (lanes `rows`).  All else is per lane: scipy's DOP853
    tableau and step-size control (SAFETY 0.9, factors 0.2 and 10, exponent
    -1/8, its initial-step rule, a 10-ulp minimum step), with no dense
    output.  One shared step size would make every lane redo the steps any
    one lane rejects.  rtol and atol are scalars or (n, 1) arrays, one row
    per lane.  A lane whose step underflows stops with UNDERFLOW, and the
    others go on.

    When lane k reaches s = 1 or stops, the loop calls restart(k, y_end,
    reason), reason "" at s = 1 and UNDERFLOW on a stop.  The hook returns
    None to retire the lane, or the lane's next initial state after setting
    its rows of rtol and atol in place; the lane then starts again at s = 0
    with the initial-step rule of its own, while the other lanes keep
    stepping.  It may also return a pair (None or that state, lanes): the
    live lanes listed in lanes then retire at once, wherever they are, and
    no hook sees the end of the runs they were on.  Returns each lane's
    last end state and reason.
    """
    b_tab, e3, e5 = DOP853.B, DOP853.E3, DOP853.E5
    n_st = DOP853.n_stages
    y = np.array(y0, dtype=float)
    n, m = y.shape
    # views, not copies: a restart hook sets its lane's rows in the caller's arrays
    rtol, atol = (np.broadcast_to(np.asarray(tol, dtype=float), (n, 1)) for tol in (rtol, atol))
    why = np.full(n, "", dtype=object)
    f = np.empty_like(y)
    h_abs = np.empty(n)

    def rms(a):
        return np.sqrt(np.sum(a * a, axis=1) / m)

    def initial_step(rows):
        """_initial_step for lanes rows, vectorised, with RMS norms over each lane's state."""
        y_r = y[rows]
        f_r = fun(y_r, rows)
        scale = atol[rows] + np.abs(y_r) * rtol[rows]
        d0, d1 = rms(y_r / scale), rms(f_r / scale)
        flat = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.minimum(np.where(flat, 1e-6, 0.01 * d0 / np.where(flat, 1.0, d1)), 1.0)
        d2 = rms((fun(y_r + h0[:, None] * f_r, rows) - f_r) / scale) / h0
        both = (d1 <= 1e-15) & (d2 <= 1e-15)
        # fmax, like scipy's max(d1, d2), passes over a NaN d2 from a trial past the domain
        h1 = np.where(both, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(both, 1.0, np.fmax(d1, d2))) ** -_EXPONENT)
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
            if not live[lane]:
                continue   # retired by an earlier hook of this pass
            state = restart(lane, y[lane].copy(), why[lane])
            if isinstance(state, tuple):
                state, retired = state
                live[list(retired)] = False
            if state is None:
                live[lane] = False
            else:
                y[lane], s[lane], why[lane], rejected[lane] = state, 0.0, "", False
                restarted.append(lane)
        fresh = np.array([lane for lane in restarted if live[lane]], dtype=int)
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
            why[idx[~keep]] = UNDERFLOW
            idx, s_i, h = idx[keep], s_i[keep], h[keep]
            if not idx.size:
                continue
        s_new = np.minimum(s_i + h, 1.0)
        h = s_new - s_i

        k[0] = f
        y_i = y[idx]
        for st, a, _ in _STAGES:
            dy = (a @ k[:st].reshape(st, -1)).reshape(n, m)[idx]
            k[st, idx] = fun(y_i + dy * h[:, None], idx)
        y_new = y_i + h[:, None] * (b_tab @ k[:n_st].reshape(n_st, -1)).reshape(n, m)[idx]
        k[n_st, idx] = fun(y_new, idx)

        scale = atol[idx] + np.maximum(np.abs(y_i), np.abs(y_new)) * rtol[idx]
        err5 = (e5 @ k.reshape(n_st + 1, -1)).reshape(n, m)[idx] / scale
        err3 = (e3 @ k.reshape(n_st + 1, -1)).reshape(n, m)[idx] / scale
        n5, n3 = np.sum(err5 * err5, axis=1), np.sum(err3 * err3, axis=1)
        zero = (n5 == 0.0) & (n3 == 0.0)
        err = np.where(zero, 0.0, h * n5 / np.sqrt(np.where(zero, 1.0, n5 + 0.01 * n3) * m))
        grow = SAFETY * np.where(err == 0.0, 1.0, err) ** _EXPONENT
        ok = err < 1.0
        factor = np.where(err == 0.0, MAX_FACTOR, np.minimum(MAX_FACTOR, grow))
        factor = np.where(ok, np.where(rejected[idx], np.minimum(1.0, factor), factor),
                          np.fmax(MIN_FACTOR, grow))
        h_abs[idx] = h * factor
        acc = idx[ok]
        s[acc] = s_new[ok]
        y[acc] = y_new[ok]
        f[acc] = k[n_st, acc]
        rejected[idx] = ~ok

