"""DOP853, the explicit Runge-Kutta pair of order 8(5,3) with a 7th-order interpolant.

The method of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I* (Springer, 2nd ed. 1993), section II.5, on the tableau of
Prince & Dormand (1981), as the installed scipy implements it.  Three
integrators share its tableau slices:

* solve_ivp, one solve of dy/dt = fun(t, y), bit for bit scipy's
  solve_ivp(method="DOP853") without its wrappers, up to its last
  t_eval point;
* solve_floats, one such solve read at t_eval, on a state of Python
  floats, with each stage's sum written out as one float expression;
* solve_lanes, many solves of dy/ds = fun(y) over s in [0, 1] that share
  each RHS call, one row (lane) per solve, each with scipy's step-size
  control of its own.

None checks a domain: a right-hand side that is NaN at a trial stage
makes the step's error estimate NaN, and the step is rejected and retried
shorter, as any step whose error is too large.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import DOP853, DenseOutput, OdeSolution


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


def _horner(cols, x):
    """DOP853's interpolant at the step fraction x, per column (F6, ..., F0, y_old) of floats.

    One expression per component, in _Dop853Step._call_impl's order:
    (((0.0 + F6) x + F5) (1 - x) + ... + F0) x + y_old.
    """
    u = 1 - x
    return [((((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0)
             * x + y0) for f6, f5, f4, f3, f2, f1, f0, y0 in cols]


class _Dop853Step(DenseOutput):
    """DOP853's 7th-order interpolant over one step, evaluated as scipy's Dop853DenseOutput."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h, self.F, self.y_old = t - t_old, F, y_old
        self._heads = {}

    def head(self, t, m):
        """The first m components of self(t) at a float t, as a list of floats.

        _call_impl's operations in Python floats, in its order (_horner),
        over the cached columns (F6, ..., F0, y_old).  So the read equals
        self(t)[:m] bit for bit without numpy's per-call cost.
        """
        cols = self._heads.get(m)
        if cols is None:
            cols = self._heads[m] = list(zip(*self.F[::-1, :m].tolist(),
                                             self.y_old[:m].tolist()))
        return _horner(cols, (t - self.t_old) / self.h)

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
    """A solve's result: y at t_eval or at every step end, sol when dense_output."""

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
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             -1: "Required step size is less than spacing between numbers."}


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


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False):
    """scipy.integrate.solve_ivp(method="DOP853") for one solve, bit for bit, without its wrappers.

    Repeats the installed scipy's numerics with the same numpy calls in the
    same order: select_initial_step, the rk_step stages, the error norm and
    step-size control, t_eval read through each step's 7th-order
    interpolant, and dense output as an OdeSolution of those interpolants.
    So y, sol and nfev equal scipy's.  y0 may be real or complex.  With
    t_eval and no dense output the solve returns (status 0) after the step
    that reads the last point, so the end of t_span then only bounds the
    steps: y and nfev are scipy's when that point is the end.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    n = y.size
    direction = 1.0 if t_bound >= t else -1.0
    n_st = DOP853.n_stages
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
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100 * h0, h1, interval)
    nfev = 2
    k[n_st] = f

    points = [] if t_eval is None else list(map(float, t_eval))
    i_pt = 0
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
            accepted, h_abs = _control(h_abs, err5_2, err3_2, n, rejected)
            if accepted:
                break
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
        if t_eval is None:
            ys.append(y)
        elif j > i_pt:
            ys.append(step(np.array(points[i_pt:j])))
            i_pt = j
            if i_pt == len(points) and not dense_output:
                status = 0      # the rest of t_span reads nothing

    if t_eval is None:
        y_out = np.vstack(ys).T
    else:
        y_out = np.hstack(ys) if ys else np.empty((n, 0), dtype=dtype)
    return IvpResult(y_out, OdeSolution(ts, steps) if dense_output else None, nfev,
                     status >= 0, status, _MESSAGES[status])


def _dot(coefs, terms):
    """coefs . terms as one left-to-right float expression, without its zero coefficients."""
    return " + ".join(f"{float(a)!r} * {x}" for a, x in zip(coefs, terms) if a != 0.0)


@functools.cache
def _float_kernels(n):
    """DOP853's step and its interpolant on n Python floats, generated once per n.

    step(fun, t, h, y, f, rtol, atol) takes f = fun(t, y), makes rk_step's
    stages and returns (y_new, fun(t + h, y_new), |err5|^2, |err3|^2, k):
    the squared norms of scipy's two error estimates over scale, and k the
    13 stages, flat.  dense(fun, t, h, y, y_new, k) makes
    _dense_output_impl's three extra stages and returns the interpolant's
    columns (F6, ..., F0, y) per component, as _horner reads them.  Each
    stage's sum is one expression over its nonzero coefficients: no loop,
    no numpy, and operators alone, which give inf or NaN where they
    overflow and never raise.
    """
    n_st = DOP853.n_stages
    comps = range(n)

    def names(s):
        return [f"k{s}_{i}" for i in comps]

    def stages(s):
        return [[f"k{m}_{i}" for m in range(s)] for i in comps]

    def tup(items):
        return f"({''.join(f'{x}, ' for x in items)})"

    def call(s, a, c):
        args = tup(f"y{i} + ({_dot(a, ks)}) * h" for i, ks in zip(comps, stages(s)))
        return f"    {tup(names(s))} = fun(t + {c!r} * h, {args})"

    unpack = [f"    {tup(f'y{i}' for i in comps)} = y", f"    {tup(names(0))} = f"]
    k_all = [x for s in range(n_st + 1) for x in names(s)]
    step = ["def step(fun, t, h, y, f, rtol, atol):", *unpack]
    step += [call(s, a, c) for s, a, c in _STAGES]
    step += [f"    n{i} = y{i} + h * ({_dot(DOP853.B, ks)})"
             for i, ks in zip(comps, stages(n_st))]
    step.append(f"    {tup(names(n_st))} = fun(t + h, {tup(f'n{i}' for i in comps)})")
    step += [f"    s{i} = atol + max(abs(y{i}), abs(n{i})) * rtol" for i in comps]
    for e, tab in (("e5", DOP853.E5), ("e3", DOP853.E3)):
        step += [f"    {e}_{i} = ({_dot(tab, ks)}) / s{i}"
                 for i, ks in zip(comps, stages(n_st + 1))]
    err5, err3 = (" + ".join(f"{e}_{i} * {e}_{i}" for i in comps) for e in ("e5", "e3"))
    step.append(f"    return {tup(f'n{i}' for i in comps)}, {tup(names(n_st))}, {err5}, "
                f"{err3}, {tup(k_all)}")

    dense = ["def dense(fun, t, h, y, y_new, k):", unpack[0],
             f"    {tup(f'n{i}' for i in comps)} = y_new", f"    {tup(k_all)} = k"]
    dense += [call(s, a, c) for s, a, c in _EXTRA]
    dense += [f"    d{i} = n{i} - y{i}" for i in comps]
    columns = []
    for i, ks in zip(comps, stages(len(DOP853.D[0]))):
        f3_6 = [f"h * ({_dot(row, ks)})" for row in DOP853.D]
        f0_2 = [f"d{i}", f"h * k0_{i} - d{i}", f"2 * d{i} - h * (k{n_st}_{i} + k0_{i})"]
        columns.append(tup([*f3_6[::-1], *f0_2[::-1], f"y{i}"]))
    dense.append(f"    return {tup(columns)}")

    scope = {}
    exec("\n".join(step + dense), scope)
    return scope["step"], scope["dense"]


def solve_floats(fun, t_span, y0, *, rtol, atol, t_eval, check=None):
    """solve_ivp read at t_eval, on a state of Python floats with DOP853's stage sums written out.

    The numerics are solve_ivp's: scipy's select_initial_step, stages,
    error norm and step-size control, and each point read through its
    step's 7th-order interpolant, with solve_ivp's nfev; only the rounding
    differs, since each stage's sum is one float expression over its
    nonzero coefficients (_float_kernels).  fun(t, y) takes a tuple of
    floats and returns a sequence of floats; it must not raise where they
    overflow (x * x, not x ** 2), so that a trial stage that overflows
    makes its step's error inf or NaN and the step is rejected, as any
    whose error is too large.  check(t, y), when given, is called at the
    start and after each accepted step; it stops the march by raising.  The
    march returns (status 0) after the step that reads the last point, with
    y the (n, len(t_eval)) array of the reads.
    """
    t, t_bound = map(float, t_span)
    y = tuple(map(float, y0))
    n = len(y)
    step, dense = _float_kernels(n)
    direction = 1.0 if t_bound >= t else -1.0

    def rms(x, scale):
        return math.sqrt(sum((v / s) * (v / s) for v, s in zip(x, scale)) / n)

    # scipy's select_initial_step
    f = fun(t, y)
    interval = abs(t_bound - t)
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = rms(y, scale), rms(f, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t + h0 * direction, tuple(v + h0 * direction * g for v, g in zip(y, f)))
    d2 = rms([b - a for a, b in zip(f, f1)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100 * h0, h1, interval)
    nfev = 2

    points = list(map(float, t_eval))
    i_pt = 0
    if check is not None:
        check(t, y)
    reads = []
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
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
            y_new, f_new, err5_2, err3_2, k = step(fun, t, h, y, f, rtol, atol)
            nfev += DOP853.n_stages
            accepted, h_abs = _control(h_abs, err5_2, err3_2, n, rejected)
            if accepted:
                break
            rejected = True
        if status is not None:
            break
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if check is not None:
            check(t, y)
        if direction * (t - t_bound) >= 0:
            status = 0

        j = i_pt    # points[i_pt:j] lie in this step
        while j < len(points) and direction * (points[j] - t) <= 0:
            j += 1
        if j > i_pt:
            cols = dense(fun, t_old, h, y_old, y, k)
            nfev += len(_EXTRA)
            reads += [_horner(cols, (s - t_old) / h) for s in points[i_pt:j]]
            i_pt = j
            if i_pt == len(points):
                status = 0      # the rest of t_span reads nothing

    y_out = np.array(reads, dtype=float).reshape(-1, n).T
    return IvpResult(y_out, None, nfev, status >= 0, status, _MESSAGES[status])


def _rms(a):
    return np.sqrt(np.sum(a * a, axis=1) / a.shape[1])


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
    stepping.  Returns each lane's last end state and reason.
    """
    b_tab, e3, e5 = DOP853.B, DOP853.E3, DOP853.E5
    n_st = DOP853.n_stages
    exponent = -1.0 / (DOP853.error_estimator_order + 1)
    y = np.array(y0, dtype=float)
    n, m = y.shape
    # views, not copies: a restart hook sets its lane's rows in the caller's arrays
    rtol, atol = (np.broadcast_to(np.asarray(tol, dtype=float), (n, 1)) for tol in (rtol, atol))
    why = np.full(n, "", dtype=object)
    f = np.empty_like(y)
    h_abs = np.empty(n)

    def initial_step(rows):
        """scipy's select_initial_step for lanes rows, with RMS norms over each lane's state."""
        y_r = y[rows]
        f_r = fun(y_r, rows)
        scale = atol[rows] + np.abs(y_r) * rtol[rows]
        d0, d1 = _rms(y_r / scale), _rms(f_r / scale)
        flat = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.minimum(np.where(flat, 1e-6, 0.01 * d0 / np.where(flat, 1.0, d1)), 1.0)
        d2 = _rms((fun(y_r + h0[:, None] * f_r, rows) - f_r) / scale) / h0
        both = (d1 <= 1e-15) & (d2 <= 1e-15)
        # fmax, like scipy's max(d1, d2), passes over a NaN d2 from a trial past the domain
        h1 = np.where(both, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(both, 1.0, np.fmax(d1, d2))) ** -exponent)
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
            state = restart(lane, y[lane].copy(), why[lane])
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
        grow = SAFETY * np.where(err == 0.0, 1.0, err) ** exponent
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

