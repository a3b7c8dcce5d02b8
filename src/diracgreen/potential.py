"""Scalar potential families confined to the spectral gap.

Every shipped family is smooth, has analytic gradient and Hessian, and is
meant to satisfy the gap condition -1 + delta <= V <= -delta on all of
R^d.  FAMILIES holds all the module knows about each family; a new family
is one row there plus its profile function.  A model derives two facts
from its row: the gap margin delta = min(-max V, 1 + min V) from the
bounds (which it keeps, for the 1D Jost oracle's contraction anchor), and
from the reach the window half-width L past which, at |x_1| >= L, V is
exactly constant (the 1D Jost oracle anchors its integrations there at
the farthest, and the sampled checks cover the cube of half-width
max(10, L + 1)).  Radial wells are evaluated through s = |x - c|^2 so
that no formula degenerates at the center; every evaluator sums s left to
right, one square at a time, so all of them agree bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clifford import DomainError, refuse_booleans

# the bound on every coordinate that comes from outside (x_star, y_star, a well's center):
# squares and DOP853 error norms of states of size |x| / atol must stay finite
COORD_LIMIT = 1e100


def _bump(b, a, big_l, s):
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


def _cosine(b, a, big_l, s):
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


def _tanh(b, a, u):
    """V = b + a tanh(u)."""
    t = math.tanh(u)
    sech2 = 1.0 - t * t
    return a * sech2, -2.0 * a * sech2 * t, b + a * t


def _well_bounds(p):
    return p["base"] - max(p["depth"], 0.0), p["base"] - min(p["depth"], 0.0)


@dataclass(frozen=True)
class Family:
    """One row of FAMILIES.

    profile gives (f', f'', V) as a function of s = |x - c|^2 if radial, else
    of u = x_1 - c (a 1D-only family); without a profile V is the constant value.
    """

    params: tuple      # accepted, in error-text order; the profile takes all but center
    linear: tuple      # V is linear in these: negating them negates V
    bounds: Callable   # params -> the exact (min V, max V) over all of space
    reach: Callable | None = None    # params -> how far past the center V varies
    profile: Callable | None = None
    radial: bool = False


FAMILIES = {
    "constant": Family(("value",), ("value",), lambda p: (p["value"], p["value"])),
    "bump_well": Family(("base", "depth", "radius", "center"), ("base", "depth"),
                        _well_bounds, lambda p: p["radius"], _bump, radial=True),
    "cosine_well": Family(("base", "depth", "radius", "center"), ("base", "depth"),
                          _well_bounds, lambda p: p["radius"], _cosine, radial=True),
    # tanh(19) == 1.0 in float64, so the step is constant there bit for bit
    "tanh_step": Family(("base", "amp", "center"), ("base", "amp"),
                        lambda p: (p["base"] - abs(p["amp"]), p["base"] + abs(p["amp"])),
                        lambda p: 19.0, _tanh),
}


@dataclass(frozen=True)
class PotentialModel:
    """A potential family instance with analytic derivatives.

    kind is a FAMILIES key and params holds the family parameters.  The
    family's row gives bounds, the exact (min V, max V) over all of space,
    margin, the gap margin min(-max V, 1 + min V), and window, the
    half-width beyond which V is exactly constant.  The
    evaluators branch on the shape of the family's profile (none, along
    x_1, radial), never on its name.
    """

    dim: int
    kind: str
    params: dict

    def __post_init__(self):
        family = FAMILIES[self.kind]
        lo, hi = family.bounds(self.params)
        center = self.params.get("center", 0.0)
        # past the center's offset plus the family's reach V is constant
        window = 0.0 if family.profile is None else float(
            float(np.max(np.abs(np.atleast_1d(center)))) + family.reach(self.params))
        object.__setattr__(self, "bounds", (lo, hi))
        object.__setattr__(self, "margin", float(min(-hi, 1.0 + lo)))
        object.__setattr__(self, "window", window)
        # bind the profile's parameters and the center once: the evaluators are hot paths
        args = (self.params[k] for k in family.params if k != "center")
        if family.radial:
            center = np.asarray(center, dtype=float)
            # terms' center, one float per coordinate
            floats = center.ravel().tolist()
            object.__setattr__(self, "_center_floats", floats * self.dim if center.ndim == 0
                               else floats)
        object.__setattr__(self, "_radial", family.radial)
        object.__setattr__(self, "_center", center)
        object.__setattr__(self, "_profile", family.profile and partial(family.profile, *args))
        # terms' r of the constant family and of a family along x_1
        object.__setattr__(self, "_r", [0.0] * self.dim if family.profile is None else [1.0])

    def value(self, x):
        """V at x, a scalar or a sequence of dim numbers."""
        return self.terms(self._point(x))[0]

    def line_value(self):
        """V of a 1D model as a float function of s, for a hot loop.

        It does value's float operations on s, without the shape check.
        """
        if self.dim != 1:
            raise DomainError("line_value is for 1D models")
        if self._profile is None:
            v = self.params["value"]
            return lambda s: v
        profile, c = self._profile, float(np.ravel(self._center)[0])
        if self._radial:
            return lambda s: profile((s - c) * (s - c))[2]
        return lambda s: profile(s - c)[2]

    def evaluate(self, x):
        """Return (V, grad V, Hess V) at x: terms' V, gamma r and alpha I + beta r r^T."""
        v, r, gamma, alpha, beta = self.terms(self._point(x))
        r = np.array(r)
        return v, gamma * r, alpha * np.eye(self.dim) + beta * np.outer(r, r)

    def terms_many(self, xs):
        """terms on each row of an (n, d) array: V (n,), r (n, d), gamma, alpha, beta (n,).

        Row k is terms(xs[k]) bit for bit: s is the running sum
        np.add.accumulate along the row, which adds the squares left to right
        as terms does (numpy's row sum goes pairwise from d = 8 on).  The
        profile is called per row: on a few dozen rows that beats a numpy
        pass per operation.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise DomainError(f"points must have shape (n, {self.dim}), got {xs.shape}")
        n = len(xs)
        if self._profile is None:
            gamma, alpha, beta = np.zeros((3, n))
            return (np.full(n, self.params["value"], dtype=float), np.zeros_like(xs),
                    gamma, alpha, beta)
        rel = xs - self._center
        args = np.add.accumulate(rel * rel, axis=1)[:, -1] if self._radial else rel[:, 0]
        profile = self._profile
        fp, fpp, v = np.array([profile(a) for a in args.tolist()], dtype=float).reshape(n, 3).T
        if not self._radial:
            return v, np.ones((n, 1)), fp, np.zeros(n), fpp
        return v, rel, 2.0 * fp, 2.0 * fp, 4.0 * fpp

    def terms(self, x):
        """V and the rank-one form of its derivatives at a list of dim floats, in floats.

        Returns (V, r, gamma, alpha, beta) with r a list of floats, grad V =
        gamma r and Hess V = alpha I + beta r r^T: for a radial well r = x - c,
        gamma = alpha = 2 f' and beta = 4 f''; along x_1, r = (1), gamma = f',
        alpha = 0 and beta = f''; the constant family is all zero.  For a hot
        loop: without evaluate's numpy calls and shape check.

        s = |r|^2 is summed left to right, one square at a time, in a float
        loop: math.fsum rounds correctly and sum() is compensated from Python
        3.12 on, and either would part from terms_many's running sum.
        """
        if self._profile is None:
            return self.params["value"], self._r, 0.0, 0.0, 0.0
        if not self._radial:
            fp, fpp, v = self._profile(x[0] - self._center)
            return v, self._r, fp, 0.0, fpp
        r = [a - c for a, c in zip(x, self._center_floats)]
        s = 0.0
        for a in r:
            s += a * a
        fp, fpp, v = self._profile(s)
        return v, r, 2.0 * fp, 2.0 * fp, 4.0 * fpp

    def _point(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise DomainError(f"point must have length {self.dim}, got shape {x.shape}")
        return x.tolist()


def make_potential(dim, kind, params):
    """Build a model of a known family that the dimension allows."""
    family = FAMILIES.get(kind)
    if family is None:
        raise DomainError(f"unknown potential kind {kind!r}")
    if family.profile and not family.radial and dim != 1:
        raise DomainError(f"{kind} is a 1D family")
    return PotentialModel(dim=dim, kind=kind, params=dict(params))


def constant_model(dim, value):
    """The constant family V = value."""
    return make_potential(dim, "constant", {"value": value})


def negated(model):
    """The same family with V replaced by -V."""
    params = dict(model.params)
    for name in FAMILIES[model.kind].linear:
        params[name] = -params[name]
    return make_potential(model.dim, model.kind, params)


def from_config(dim, cfg):
    """Parse the JSON sub-object; unlike make_potential, check every value.

    Only the family's own parameters are accepted.  V must stay in (-1, 0),
    a radius must lie in [1e-50, 1e50], and a center be of the model's
    shape with every coordinate within +-COORD_LIMIT.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise DomainError("potential config must be an object with a 'kind' field")
    unknown = set(cfg) - {"kind", "params"}
    if unknown:
        raise DomainError(f"unknown potential field(s): {sorted(unknown)}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise DomainError(f"potential params must be an object, got {params!r}")
    refuse_booleans("potential.params", params)
    model = make_potential(dim, cfg["kind"], params)
    family = FAMILIES[model.kind]
    unknown = set(params) - set(family.params)
    if unknown:
        raise DomainError(f"unknown {model.kind} parameter(s): {sorted(unknown)}; "
                          f"allowed: {list(family.params)}")
    lo, hi = model.bounds
    if not -1.0 < lo <= hi < 0.0:
        raise DomainError(f"V must stay in (-1, 0), but the family spans [{lo}, {hi}]")
    params = model.params
    # the profiles take radius^4 and (pi/radius)^4, which must stay normal floats
    if "radius" in params and not 1e-50 <= params["radius"] <= 1e50:
        raise DomainError(f"radius must lie in [1e-50, 1e50], got {params['radius']}")
    # only a radial family takes a vector center
    center = np.asarray(params.get("center", 0.0), dtype=float)
    shapes = ((), (dim,)) if family.radial else ((),)
    if center.shape not in shapes or not np.all(np.abs(center) <= COORD_LIMIT):
        raise DomainError(f"center must be a scalar or, in a radial family, a length-{dim} "
                          f"vector, each coordinate within +-{COORD_LIMIT:g}, "
                          f"got {params['center']!r}")
    return model


def sample_half(model):
    """The half-width of the cube the sampled checks cover: 10, or a unit past the window."""
    return max(10.0, model.window + 1.0)


def _samples(model, n, seed, half):
    """n seeded points of the cube [-half, half]^d, then n // 2 within the family's reach.

    The second share is drawn from the part of the cube within reach of the
    center, per coordinate, where V varies: cube draws alone miss a radius-2
    well in d = 3.  The constant family has no reach and no second share.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-half, half, size=(n, model.dim))
    family = FAMILIES[model.kind]
    if family.reach is None:
        return pts
    center = np.broadcast_to(np.asarray(model.params.get("center", 0.0), dtype=float),
                             (model.dim,))
    reach = family.reach(model.params)
    near = rng.uniform(np.maximum(center - reach, -half), np.minimum(center + reach, half),
                       size=(n // 2, model.dim))
    return np.concatenate([pts, near])


def validate_hypothesis(model):
    """The sampled gap margin min(min(-V), min(1 + V)) over the sample_half cube.

    V is terms_many's first output at the seeded points of _samples (1000
    cube points and 500 near the center); model.margin, the family's exact
    one, should not exceed it.
    """
    v = model.terms_many(_samples(model, 1000, 0, sample_half(model)))[0]
    return float(np.minimum(-v, 1.0 + v).min())


def fd_consistency(model):
    """Worst-case mismatch of analytic derivatives against central differences.

    evaluate's gradient and Hessian, assembled from terms, against steps
    1e-6 (gradient) and 1e-4 (Hessian) at the seeded points of _samples (200
    points of the sample_half cube, shrunk by ten Hessian steps, and 100
    near the center); each point's stencil is one terms_many call, of which
    only V is read.  Residuals are normalised by max(1, true magnitude).
    Returns the pair (gradient residual, Hessian residual).
    """
    grad_step, hstep = 1e-6, 1e-4
    d = model.dim
    pts = _samples(model, 200, 7, sample_half(model) - 10.0 * hstep)
    # rows of step I are the step e_i
    eg, eh = grad_step * np.eye(d), hstep * np.eye(d)
    ii, jj = np.triu_indices(d, 1)
    cuts = np.cumsum([d] * 4 + [len(ii)] * 3)
    worst_g = worst_h = 0.0
    for x in pts:
        v, grad, hess = model.evaluate(x)
        stencil = np.concatenate([
            x + eg, x - eg, x + eh, x - eh,
            x + eh[ii] + eh[jj], x + eh[ii] - eh[jj], x - eh[ii] + eh[jj], x - eh[ii] - eh[jj]])
        gp, gm, hp, hm, a, b, c, e = np.split(model.terms_many(stencil)[0], cuts)
        fd_grad = (gp - gm) / (2.0 * grad_step)
        worst_g = max(worst_g, np.max(np.abs(grad - fd_grad)) / max(1.0, np.max(np.abs(fd_grad))))
        fd_hess = np.zeros_like(hess)
        fd_hess[np.diag_indices(d)] = (hp - 2.0 * v + hm) / hstep**2
        fd_hess[ii, jj] = fd_hess[jj, ii] = (a - b - c + e) / (4.0 * hstep**2)
        worst_h = max(worst_h, np.max(np.abs(hess - fd_hess)) / max(1.0, np.max(np.abs(fd_hess))))
    return worst_g, worst_h
