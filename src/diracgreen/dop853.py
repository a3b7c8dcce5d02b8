"""DOP853, the explicit Runge-Kutta pair of order 8(5,3) with a 7th-order interpolant.

The method of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I* (Springer, 2nd ed. 1993), section II.5, on the tableau of
Prince & Dormand (1981), as the installed scipy implements it.  Two
integrators share its tableau slices:

* solve_ivp, one solve of dy/dt = fun(t, y), bit for bit scipy's
  solve_ivp(method="DOP853") without its wrappers, up to its last
  t_eval point;
* solve_lanes, many solves of dy/ds = fun(y) over s in [0, 1] that share
  each RHS call, one row (lane) per solve, each with scipy's step-size
  control of its own.

Neither checks a domain: a right-hand side that is NaN at a trial stage
makes the step's error estimate NaN, and the step is rejected and retried
shorter, as any step whose error is too large.
"""

from __future__ import annotations

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


class _Dop853Step(DenseOutput):
    """DOP853's 7th-order interpolant over one step, evaluated as scipy's Dop853DenseOutput."""

    def __init__(self, t_old, t, y_old, F):
        super().__init__(t_old, t)
        self.h, self.F, self.y_old = t - t_old, F, y_old
        self._heads = {}

    def head(self, t, m):
        """The first m components of self(t) at a float t, as a list of floats.

        _call_impl's operations in Python floats, in its order, one expression
        per component over the cached columns (F6, ..., F0, y_old):
        (((0.0 + F6) x + F5) (1 - x) + ... + F0) x + y_old.  So the read
        equals self(t)[:m] bit for bit without numpy's per-call cost.
        """
        cols = self._heads.get(m)
        if cols is None:
            cols = self._heads[m] = list(zip(*self.F[::-1, :m].tolist(),
                                             self.y_old[:m].tolist()))
        x = (t - self.t_old) / self.h
        u = 1 - x
        return [((((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0)
                 * x + y0) for f6, f5, f4, f3, f2, f1, f0, y0 in cols]

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
             -1: "Required step size is less than spacing between numbers."}


def solve_ivp(fun, t_span, y0, *, rtol, atol, t_eval=None, dense_output=False, check=None):
    """scipy.integrate.solve_ivp(method="DOP853") for one solve, bit for bit, without its wrappers.

    Repeats the installed scipy's numerics with the same numpy calls in the
    same order: select_initial_step, the rk_step stages, the error norm and
    step-size control, t_eval read through each step's 7th-order
    interpolant, and dense output as an OdeSolution of those interpolants.
    So y, sol and nfev equal scipy's.  y0 may be real or complex.  check(t,
    y), when given, is called at the start and after each accepted step;
    it stops the solve by raising.  With t_eval and no dense output the
    solve returns (status 0) after the step that reads the last point, so
    the end of t_span then only bounds the steps: y and nfev are scipy's
    when that point is the end.
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
    if check is not None:
        check(t, y)
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
        if check is not None:
            check(t, y)
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

