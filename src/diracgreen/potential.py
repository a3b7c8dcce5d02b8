"""Scalar potential families confined to the spectral gap.

Every shipped family is smooth, has analytic gradient and Hessian, and is
meant to satisfy the gap condition -1 + delta <= V <= -delta on its domain
box.  Radial wells are evaluated through s = |x - c|^2 so that no formula
degenerates at the center.  A model may declare a window half-width L:
outside |x_1| >= L the potential is exactly constant (the 1D Jost oracle
anchors its integrations there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import DomainError, refuse_booleans

# each family and the parameters V is linear in: negating them negates V
KINDS = {"constant": ("value",), "bump_well": ("base", "depth"),
         "cosine_well": ("base", "depth"), "tanh_step": ("base", "amp")}
# every parameter each family accepts
PARAMS = {"constant": ("value",), "bump_well": ("base", "depth", "radius", "center"),
          "cosine_well": ("base", "depth", "radius", "center"),
          "tanh_step": ("base", "amp", "center")}


def _range_bounds(kind, params):
    """Exact (min V, max V) over all of space for each family."""
    if kind == "constant":
        v = params["value"]
        return v, v
    if kind in ("bump_well", "cosine_well"):
        b, a = params["base"], params["depth"]
        return b - max(a, 0.0), b - min(a, 0.0)
    if kind == "tanh_step":
        b, a = params["base"], params["amp"]
        return b - abs(a), b + abs(a)
    raise DomainError(f"unknown potential kind {kind!r}")


def _default_window(kind, params, dim):
    if kind == "constant":
        return 0.0
    center = params.get("center", 0.0)
    coff = float(np.max(np.abs(np.atleast_1d(center))))
    if kind in ("bump_well", "cosine_well"):
        return coff + params["radius"]
    # tanh(19) == 1.0 in float64, so the step is constant there bit for bit
    return coff + 19.0


@dataclass(frozen=True)
class PotentialModel:
    """A potential family instance with analytic derivatives.

    kind is one of constant | bump_well | cosine_well | tanh_step; params
    holds the family parameters, delta the declared gap margin, window the
    half-width beyond which V is exactly constant, box_half the domain
    half-width (evaluations outside raise DomainError).
    """

    dim: int
    kind: str
    params: dict
    delta: float
    window: float
    box_half: float

    def value(self, x):
        return self._eval(x)[0]

    def evaluate(self, x):
        """Return (V, grad V, Hess V) at x."""
        return self._eval(x)

    def evaluate_many(self, xs):
        """Batched evaluate: (n, d) points to V (n,), grad (n, d), Hess (n, d, d).

        A fourth array flags the rows outside the domain box (or not finite)
        instead of raising; their values are those of the formulas there.
        Rows go through the same float operations as evaluate, so both give
        the same numbers.  The radial profile is evaluate's, called per row:
        on a few dozen rows that beats a numpy pass per operation.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DomainError(f"points must have shape (n, {self.dim}), got {xs.shape}")
        n, d = xs.shape
        outside = ~(np.abs(xs).max(axis=1) <= self.box_half)
        if self.kind == "constant":
            return (np.full(n, self.params["value"], dtype=float), np.zeros((n, d)),
                    np.zeros((n, d, d)), outside)

        if self.kind == "tanh_step":
            b, a = self.params["base"], self.params["amp"]
            shifted = xs[:, 0] - self.params.get("center", 0.0)
            t = np.array([math.tanh(u) for u in shifted.tolist()], dtype=float)
            sech2 = 1.0 - t * t
            hess = (-2.0 * a * sech2 * t).reshape(n, 1, 1)
            return b + a * t, (a * sech2).reshape(n, 1), hess, outside

        b, a = self.params["base"], self.params["depth"]
        c = np.atleast_1d(np.asarray(self.params.get("center", np.zeros(d)), dtype=float))
        big_l = self.params["radius"]
        rel = xs - c
        radial = self._bump_radial if self.kind == "bump_well" else self._cosine_radial
        rows = [radial(s, b, a, big_l) for s in np.vecdot(rel, rel).tolist()]
        fp, fpp, v = np.array(rows, dtype=float).reshape(n, 3).T
        grad = (2.0 * fp)[:, None] * rel
        # evaluate's 2 fp I + 4 fpp rel rel^T, summed in the other order
        hess = (4.0 * fpp)[:, None, None] * (rel[:, :, None] * rel[:, None, :])
        hess.reshape(n, d * d)[:, :: d + 1] += (2.0 * fp)[:, None]   # the diagonal
        return v, grad, hess, outside

    def _check_point(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise DomainError(f"point must have length {self.dim}, got shape {x.shape}")
        if np.any(np.abs(x) > self.box_half):
            raise DomainError(f"point {x} outside the domain box [+-{self.box_half}]^{self.dim}")
        return x

    def _eval(self, x):
        x = self._check_point(x)
        if self.kind == "constant":
            v = self.params["value"]
            grad = np.zeros(self.dim)
            hess = np.zeros((self.dim, self.dim))
            return v, grad, hess

        if self.kind == "tanh_step":
            b, a = self.params["base"], self.params["amp"]
            c = self.params.get("center", 0.0)
            t = math.tanh(x[0] - c)
            sech2 = 1.0 - t * t
            v = b + a * t
            grad = np.array([a * sech2])
            hess = np.array([[-2.0 * a * sech2 * t]])
            return v, grad, hess

        b, a = self.params["base"], self.params["depth"]
        c = np.atleast_1d(np.asarray(self.params.get("center", np.zeros(self.dim)), dtype=float))
        if c.shape == (1,) and self.dim > 1:
            c = np.full(self.dim, c[0])
        big_l = self.params["radius"]
        rel = x - c
        s = float(rel @ rel)
        if self.kind == "bump_well":
            fp, fpp, v = self._bump_radial(s, b, a, big_l)
        else:
            fp, fpp, v = self._cosine_radial(s, b, a, big_l)
        grad = 2.0 * fp * rel
        hess = 2.0 * fp * np.eye(self.dim) + 4.0 * fpp * np.outer(rel, rel)
        return v, grad, hess

    @staticmethod
    def _bump_radial(s, b, a, big_l):
        """V = b - a exp(1 - 1/(1 - s/L^2)) inside the ball, b outside."""
        u2 = s / big_l**2
        if u2 >= 1.0:
            return 0.0, 0.0, b
        w = 1.0 - u2
        g = math.exp(1.0 - 1.0 / w)
        ep = -1.0 / (big_l**2 * w**2)
        epp = -2.0 / (big_l**4 * w**3)
        gp = g * ep
        gpp = g * (ep * ep + epp)
        return -a * gp, -a * gpp, b - a * g

    @staticmethod
    def _cosine_radial(s, b, a, big_l):
        """V = b - (a/2)(1 + cos(pi r/L)) inside the ball, b outside."""
        q = (math.pi / big_l) ** 2
        if s * q >= math.pi**2:
            return 0.0, 0.0, b
        w2 = q * s
        if w2 > 1e-8:
            w = math.sqrt(w2)
            cw = math.cos(w)
            cp = -0.5 * q * math.sin(w) / w
            cpp = -0.25 * q * q * (cw - math.sin(w) / w) / w2
        else:
            cw = 1.0 - w2 / 2.0 + w2 * w2 / 24.0
            cp = -0.5 * q * (1.0 - w2 / 6.0 + w2 * w2 / 120.0)
            cpp = -0.25 * q * q * (-1.0 / 3.0 + w2 / 30.0 - w2 * w2 / 840.0)
        v = b - 0.5 * a * (1.0 + cw)
        return -0.5 * a * cp, -0.5 * a * cpp, v


def make_potential(dim, kind, params, delta=None, window=None, box_half=None):
    """Build a model, filling delta/window/box defaults from the family."""
    if kind not in KINDS:
        raise DomainError(f"unknown potential kind {kind!r}")
    if kind == "tanh_step" and dim != 1:
        raise DomainError("tanh_step is a 1D family")
    params = dict(params)
    lo, hi = _range_bounds(kind, params)
    if delta is None:
        delta = min(-hi, 1.0 + lo)
    if window is None:
        window = _default_window(kind, params, dim)
    if box_half is None:
        box_half = max(10.0, window + 1.0)
    return PotentialModel(dim=dim, kind=kind, params=params, delta=float(delta),
                          window=float(window), box_half=float(box_half))


def constant_model(dim, value):
    """The constant family V = value."""
    return make_potential(dim, "constant", {"value": value})


def negated(model):
    """The same family with V replaced by -V; window and box are kept."""
    params = dict(model.params)
    for name in KINDS[model.kind]:
        params[name] = -params[name]
    return make_potential(model.dim, model.kind, params,
                          window=model.window, box_half=model.box_half)


def from_config(dim, cfg):
    """Parse the JSON sub-object; unlike make_potential, check every value.

    Only the family's own parameters are accepted.  V must stay in (-1, 0)
    and delta be a positive margin the family meets, a radius must be
    finite and positive, a center finite and of the model's shape, the
    window finite and wide enough to hold the whole well, and the box
    finite and at least as wide as the window.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise DomainError("potential config must be an object with a 'kind' field")
    unknown = set(cfg) - {"kind", "params", "delta", "window", "box_half"}
    if unknown:
        raise DomainError(f"unknown potential field(s): {sorted(unknown)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise DomainError(f"potential params must be an object, got {params!r}")
    for key in ("params", "delta", "window", "box_half"):
        refuse_booleans(f"potential.{key}", cfg.get(key))
    model = make_potential(dim, cfg["kind"], params, delta=cfg.get("delta"),
                           window=cfg.get("window"), box_half=cfg.get("box_half"))
    unknown = set(params) - set(PARAMS[model.kind])
    if unknown:
        raise DomainError(f"unknown {model.kind} parameter(s): {sorted(unknown)}; "
                          f"allowed: {list(PARAMS[model.kind])}")
    lo, hi = _range_bounds(model.kind, model.params)
    if not -1.0 < lo <= hi < 0.0:
        raise DomainError(f"V must stay in (-1, 0), but the family spans [{lo}, {hi}]")
    margin = min(-hi, 1.0 + lo)
    if not 0.0 < model.delta <= margin:
        raise DomainError(f"delta must lie in (0, {margin}], the family's gap margin, "
                          f"got {model.delta}")
    params = model.params
    if "radius" in params and not 0.0 < params["radius"] < math.inf:
        raise DomainError(f"radius must be finite and positive, got {params['radius']}")
    # only a radial family (one with a radius) takes a vector center
    center = np.asarray(params.get("center", 0.0), dtype=float)
    shapes = ((), (dim,)) if "radius" in params else ((),)
    if center.shape not in shapes or not np.all(np.isfinite(center)):
        raise DomainError(f"center must be a finite scalar or, in a radial family, a "
                          f"length-{dim} vector, got {params['center']!r}")
    # the Jost oracle anchors past the window, which must cover the whole well
    least = _default_window(model.kind, params, dim)
    if not least <= model.window < math.inf:
        raise DomainError(f"window must be finite and at least {least}, got {model.window}")
    # |x| > NaN is never true: a NaN box would switch the domain check off
    if not model.window <= model.box_half < math.inf:
        raise DomainError(f"box_half must be finite and at least the window "
                          f"{model.window}, got {model.box_half}")
    return model


@dataclass(frozen=True)
class HypothesisReport:
    delta_hat: float
    declared_delta: float
    passed: bool
    n_samples: int


def validate_hypothesis(model, n_samples=1000, seed=0):
    """Sample min(min(-V), min(1+V)) over the domain box and compare to the margin.

    Passes iff the sampled gap margin delta_hat is at least the declared
    delta (and the declaration itself is positive).
    """
    if n_samples < 1000:
        raise DomainError("hypothesis validation needs at least 1000 samples")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-model.box_half, model.box_half, size=(n_samples, model.dim))
    v = model.evaluate_many(pts)[0]
    delta_hat = float(np.minimum(-v, 1.0 + v).min())
    passed = bool(model.delta > 0.0 and delta_hat >= model.delta)
    return HypothesisReport(delta_hat, model.delta, passed, n_samples)


def fd_consistency(model):
    """Worst-case mismatch of analytic derivatives against central differences.

    Steps 1e-6 (gradient) and 1e-4 (Hessian) at 200 seeded points; residuals
    are normalised by max(1, true magnitude).  Returns the pair (gradient
    residual, Hessian residual).
    """
    grad_step, hstep = 1e-6, 1e-4
    rng = np.random.default_rng(7)
    # stay a step away from the box edge so stencils remain inside
    half = model.box_half - 10.0 * hstep
    pts = rng.uniform(-half, half, size=(200, model.dim))
    worst_g = worst_h = 0.0
    for x in pts:
        v, grad, hess = model.evaluate(x)
        fd_grad = np.zeros_like(grad)
        for i in range(model.dim):
            e = np.zeros(model.dim)
            e[i] = grad_step
            fd_grad[i] = (model.value(x + e) - model.value(x - e)) / (2.0 * grad_step)
        worst_g = max(worst_g, np.max(np.abs(grad - fd_grad)) / max(1.0, np.max(np.abs(fd_grad))))
        fd_hess = np.zeros_like(hess)
        for i in range(model.dim):
            ei = np.zeros(model.dim)
            ei[i] = hstep
            fd_hess[i, i] = (model.value(x + ei) - 2.0 * v + model.value(x - ei)) / hstep**2
            for j in range(i + 1, model.dim):
                ej = np.zeros(model.dim)
                ej[j] = hstep
                mixed = (model.value(x + ei + ej) - model.value(x + ei - ej)
                         - model.value(x - ei + ej) + model.value(x - ei - ej)) / (4.0 * hstep**2)
                fd_hess[i, j] = fd_hess[j, i] = mixed
        worst_h = max(worst_h, np.max(np.abs(hess - fd_hess)) / max(1.0, np.max(np.abs(fd_hess))))
    return worst_g, worst_h
