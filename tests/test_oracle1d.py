"""Independent 1D kernel solver: tails, glue, decay rate, and symmetry."""

import math

import numpy as np
import pytest

from diracgreen import dop853, oracle1d
from diracgreen.clifford import SIGMA_1, DomainError, build_dirac_rep
from diracgreen.dop853 import NumericalError
from diracgreen.geoflow import shoot_geodesic
from diracgreen.kernel import constant_V_exact
from diracgreen.oracle1d import (decaying_solution, exact_green_kernel_1d,
                                 exact_green_kernel_pair_1d)
from diracgreen.potential import make_potential

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}


def bump_model():
    return make_potential(1, "bump_well", BUMP)


@pytest.mark.parametrize("e_value", [-0.3, -0.6, -0.9])
@pytest.mark.parametrize("r,h", [(0.5, 0.1), (1.0, 0.1), (1.0, 0.05), (2.0, 0.2)])
def test_constant_potential_reproduced(e_value, r, h):
    """The ODE route must land on the closed form with no tuning."""
    m = make_potential(1, "constant", {"value": e_value})
    rep = build_dirac_rep(1)
    x, y = 0.3, 0.3 - r
    got = exact_green_kernel_1d(m, x, y, h)
    ref = constant_V_exact(rep, e_value, [x], [y], h)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-9


def test_jump_condition_extrapolated():
    """-i h sigma_1 (G(y+) - G(y-)) -> 1 as the probes tighten.

    The one-sided probes carry an O(eps/h) error; the Richardson combination
    2 D(eps/2) - D(eps) removes it.
    """
    m = bump_model()
    h, y = 0.1, -0.2
    eps = 1e-5
    deltas = []
    for e in (eps, eps / 2.0):
        gp = exact_green_kernel_1d(m, y + e, y, h)
        gm = exact_green_kernel_1d(m, y - e, y, h)
        deltas.append(gp - gm)
    extrap = 2.0 * deltas[1] - deltas[0]
    residual = np.linalg.norm(-1j * h * SIGMA_1 @ extrap - np.eye(2))
    assert residual <= 1e-6


def test_decay_rate_matches_distance():
    """log ||G|| falls linearly in 1/h with slope -d_A within 1%.

    The kernel carries an explicit 1/h amplitude factor whose -log h
    contribution would bias the fit by several percent over any usable h
    range, so it is divided out before fitting the exponent.
    """
    m = bump_model()
    x, y = 1.0, -1.0
    d_a = shoot_geodesic(m, [y], [x]).agmon
    h_list = [0.1, 0.05, 0.025]
    logs = [math.log(h * np.linalg.norm(exact_green_kernel_1d(m, x, y, h)))
            for h in h_list]
    slope = np.polyfit([1.0 / h for h in h_list], logs, 1)[0]
    assert abs(-slope - d_a) <= 0.01 * d_a


def test_halving_h_doubles_interior_decay_rate():
    """Inward growth rate scales as 1/h through the well interior."""
    m = bump_model()
    rates = []
    for h in (0.1, 0.05):
        tot = [math.log(np.linalg.norm(vec)) + log
               for vec, log in decaying_solution(m, "right", (0.5, -0.5), h)]
        rates.append(tot[1] - tot[0])   # log-growth over one unit leftward
    assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.02)


def test_adjoint_symmetry_random_pairs():
    m = bump_model()
    rng = np.random.default_rng(11)
    h = 0.1
    for _ in range(20):
        x, y = rng.uniform(-2.2, 2.2, 2)
        if abs(x - y) < 0.2:
            continue
        g_fwd = exact_green_kernel_1d(m, x, y, h)
        g_rev = exact_green_kernel_1d(m, y, x, h)
        assert (np.linalg.norm(g_fwd.conj().T - g_rev)
                / np.linalg.norm(g_fwd)) <= 1e-8


def test_adjoint_symmetry_tanh_step():
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    g_fwd = exact_green_kernel_1d(m, 1.0, -1.0, 0.2)
    g_rev = exact_green_kernel_1d(m, -1.0, 1.0, 0.2)
    assert np.linalg.norm(g_fwd.conj().T - g_rev) / np.linalg.norm(g_fwd) <= 1e-8


def test_renormalised_vectors_stay_order_one():
    """Bookkeeping invariant: returned vectors never leave [1e-2, 1e2]."""
    m = bump_model()
    for vec, _ in decaying_solution(m, "right", np.linspace(-2.5, 3.0, 111), 0.05):
        assert 1e-2 <= np.linalg.norm(vec) <= 1e2


PAIR_MODELS = {
    "bump": ("bump_well", BUMP, 1.0, -1.0),
    "tanh": ("tanh_step", {"base": -0.6, "amp": 0.3}, 1.0, -1.0),
    "cosine": ("cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}, 1.3, -1.0),
    "constant": ("constant", {"value": -0.6}, 0.5, -0.5),
}


@pytest.mark.parametrize("h", [0.2, 0.025])
@pytest.mark.parametrize("name", list(PAIR_MODELS))
def test_kernel_pair_equals_two_separate_kernels(name, h):
    """G(x, y) and G(y, x) glued from one pair of marches, bit for bit."""
    kind, params, x, y = PAIR_MODELS[name]
    m = make_potential(1, kind, params)
    fwd, rev = exact_green_kernel_pair_1d(m, x, y, h)
    assert np.array_equal(fwd, exact_green_kernel_1d(m, x, y, h))
    assert np.array_equal(rev, exact_green_kernel_1d(m, y, x, h))


def test_one_march_per_side(monkeypatch):
    """Each side is one march from its anchor (edge 2.5) to the farther point."""
    calls, march = [], oracle1d.solve_ivp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return march(*args, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", counting)
    exact_green_kernel_1d(bump_model(), 1.0, -1.0, 0.05)
    assert calls == [(2.5, -1.0), (-2.5, 1.0)]


@pytest.mark.parametrize("e_value", [-0.3, -0.6, -0.9])
@pytest.mark.parametrize("h", [0.05, 0.025, 0.0125])
def test_constant_potential_to_roundoff_at_small_h(e_value, h):
    """The Riccati march keeps the closed form to 1e-12 as h shrinks."""
    m = make_potential(1, "constant", {"value": e_value})
    got = exact_green_kernel_1d(m, 0.3, -0.7, h)
    ref = constant_V_exact(build_dirac_rep(1), e_value, [0.3], [-0.7], h)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-12


@pytest.mark.parametrize("kind,params", [("bump_well", BUMP),
                                         ("tanh_step", {"base": -0.6, "amp": 0.3})])
@pytest.mark.parametrize("side", ["right", "left"])
def test_riccati_ratio_stays_below_its_bound(kind, params, side):
    """|u2/u1| never exceeds the largest WKB branch sqrt((1+V)/(1-V)) < 1 on the path.

    On the bump the ratio returns to the constant branch 0.5 from below and
    lands within the march's integration error of it (about 1e-9), hence
    the 1e-8 relative slack.
    """
    m = make_potential(1, kind, params)
    points = np.linspace(-3.0, 3.0, 121)
    edge = oracle1d._edge(m, points)    # the march spans the anchor at +-edge
    v = m.terms_many(np.linspace(-edge, edge, 4001)[:, None])[0]
    bound = float(np.max(np.sqrt((1.0 + v) / (1.0 - v))))
    assert bound < 1.0
    for vec, _ in decaying_solution(m, side, points, 0.025):
        assert abs(vec[1] / vec[0]) <= bound * (1.0 + 1e-8)


def test_march_leaving_the_chart_is_a_numerical_failure(monkeypatch):
    """A march whose |u2/u1| reaches 1 at an accepted step is stopped there and refused.

    Past V = 0 the Riccati flow draws |w| to sqrt((1 + V)/(1 - V)) > 1; this
    well (not a config the CLI accepts) reaches V = 0.6 at its center.  The
    chart check sees the start and every accepted state, and raises at the
    first with |r| >= 1, naming |r| and the position.
    """
    seen, march = [], oracle1d.solve_ivp

    def recording(fun, t_span, y0, check, **kwargs):
        def chart(t, y):
            seen.append((t, abs(y[0])))
            check(t, y)

        return march(fun, t_span, y0, check=chart, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", recording)
    m = make_potential(1, "bump_well", {"base": -0.3, "depth": -0.9, "radius": 2.0})
    with pytest.raises(NumericalError, match="u1 chart") as failure:
        decaying_solution(m, "right", (0.0,), 0.1)
    (t_stop, r_stop), radii = seen[-1], [r for _, r in seen]
    # at the first accepted step with |r| >= 1, short of the target point 0.0
    assert r_stop >= 1.0 and max(radii[:-1]) < 1.0
    assert t_stop > 0.0
    assert str(failure.value) == (
        f"Riccati march left the u1 chart: |u2/u1| = {r_stop:.3e} at s = {t_stop:.6g}")


def _floats(values):
    return len(values) == 2 and all(type(v) is float for v in values)


def test_the_march_carries_two_real_components(monkeypatch):
    """The march's state is (Im w, Re log u1), two Python floats, from Im(tail[1] / tail[0]) and 0.

    Every right-hand-side call takes and returns Python floats, never numpy
    scalars, whose arithmetic would make each stage of the float march a
    numpy operation.
    """
    starts, calls, march = [], [], oracle1d.solve_ivp

    def recording(fun, t_span, y0, **kwargs):
        def rhs(t, y):
            out = fun(t, y)
            calls.append(type(t) is float and _floats(y) and _floats(out))
            return out

        res = march(rhs, t_span, y0, **kwargs)
        starts.append((y0, res.y))
        return res

    monkeypatch.setattr(oracle1d, "solve_ivp", recording)
    exact_green_kernel_pair_1d(bump_model(), 1.0, -1.0, 0.1)
    assert len(starts) == 2 and calls and all(calls)
    for y0, ys in starts:
        assert _floats(y0)
        assert ys.dtype == float and ys.shape[0] == 2
        # the tail's ratio sqrt((1 + V)/(1 - V)) at V = -0.6, signed by the side
        assert abs(y0[0]) == pytest.approx(0.5, rel=1e-15) and y0[1] == 0.0


# (params, x, y, h_list, overflows): the bump between points past its window, whose
# marches overflow on a rejected trial stage at each of these h; and the bump centred at 0.3
# between -1 and 1.2, and the README bump down to h = 0.005, whose marches did so while
# they started at the window's edge and no longer do from the contraction anchor
TRIAL_OVERFLOW = {
    "past-window": (BUMP, 4.0, -3.0, (0.025, 0.005, 0.002), True),
    "off-center": (dict(BUMP, center=0.3), 1.2, -1.0, (0.2, 0.1, 0.05, 0.025), False),
    "h0005": (BUMP, 1.0, -1.0, (0.2, 0.005), False),
}


@pytest.mark.parametrize("name", list(TRIAL_OVERFLOW))
def test_overflow_stays_in_rejected_trial_stages(monkeypatch, name):
    """A trial stage that overflows in the float march is a rejected step; no accepted state is.

    The chart check sees the state of every accepted step.  Each of those,
    and each returned point, is finite.  Past the window some RHS call on a
    trial stage is not, at every h: float arithmetic gives inf or NaN there
    with no warning and no OverflowError (the suite turns warnings into
    errors), and the step is rejected.  The other two runs return no
    non-finite RHS value.
    """
    params, x, y, h_list, overflows = TRIAL_OVERFLOW[name]
    accepted, trial_overflow, march = [], {h: [] for h in h_list}, oracle1d.solve_ivp

    def spying(fun, t_span, y0, check, **kwargs):
        def rhs(t, y):
            out = fun(t, y)
            trial_overflow[h].append(not np.all(np.isfinite(out)))
            return out

        def chart(t, y):
            accepted.append(np.array(y))
            check(t, y)

        res = march(rhs, t_span, y0, check=chart, **kwargs)
        accepted.extend(res.y.T)
        return res

    monkeypatch.setattr(oracle1d, "solve_ivp", spying)
    m = make_potential(1, "bump_well", params)
    for h in h_list:
        exact_green_kernel_pair_1d(m, x, y, h)
    assert [any(calls) for calls in trial_overflow.values()] == [overflows] * len(h_list)
    assert np.all(np.isfinite(accepted))


# validate1d-oracle's three varying wells between their pinned points, at its four h
GATE_PAIRS = {name: PAIR_MODELS[name] for name in ("bump", "tanh", "cosine")}


def _spans(monkeypatch):
    """Record the t_span of every oracle march."""
    spans, march = [], oracle1d.solve_ivp

    def recording(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return march(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", recording)
    return spans


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.025])
@pytest.mark.parametrize("name", list(GATE_PAIRS))
def test_contraction_anchor_keeps_the_kernel(monkeypatch, name, h):
    """G(x, y) from the contraction anchor within 2.4e-11 of an rtol 1e-13 solve from the edge.

    The reference is another integrator, numpy's dop853.solve_ivp: it starts
    every march at _edge (CONTRACTION infinite) and integrates at rtol
    1e-13, atol 1e-15.  The float march at the oracle's own tolerances
    misses it by at most 1.40e-11, on the bump at h = 0.2.
    """
    kind, params, x, y = GATE_PAIRS[name]
    m = make_potential(1, kind, params)
    got = exact_green_kernel_1d(m, x, y, h)

    def tight(fun, t_span, y0, *, check, **kwargs):
        # numpy's stages warn where a trial stage overflows, and the step is rejected
        with np.errstate(invalid="ignore", over="ignore"):
            return dop853.solve_ivp(fun, t_span, np.array(y0),
                                    **dict(kwargs, rtol=1e-13, atol=1e-15))

    monkeypatch.setattr(oracle1d, "CONTRACTION", math.inf)
    monkeypatch.setattr(oracle1d, "solve_ivp", tight)
    ref = exact_green_kernel_1d(m, x, y, h)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 2.4e-11


@pytest.mark.parametrize("h", [0.2, 0.025])
def test_the_steep_tanh_march_starts_short_of_its_window(monkeypatch, h):
    """Each march starts CONTRACTION h / rho past the farther point on its side, inside 19.5.

    rho = 2 (1 - hi) sqrt((1 + lo)/(1 - lo)) over the step's bounds
    [-0.9, -0.3].
    """
    kind, params, x, y = PAIR_MODELS["tanh"]
    m = make_potential(1, kind, params)
    assert oracle1d._edge(m, (y, x)) == 19.5
    spans = _spans(monkeypatch)
    exact_green_kernel_1d(m, x, y, h)
    reach = oracle1d.CONTRACTION * h / (2.0 * 1.3 * math.sqrt(0.1 / 1.9))
    np.testing.assert_allclose(spans, [(x + reach, y), (y - reach, x)], rtol=1e-15)
    assert all(abs(start) < 19.5 for start, _ in spans)


@pytest.mark.parametrize("h", [0.2, 0.1, 0.05, 0.025])
def test_the_constant_well_reads_its_tail(monkeypatch, h):
    """validate1d-oracle's constant pair calls no march: both kernels within 1e-12 of the closed form.

    V is constant on the whole line, so the exponential tail is the
    solution everywhere.
    """
    kind, params, x, y = PAIR_MODELS["constant"]
    m = make_potential(1, kind, params)
    spans = _spans(monkeypatch)
    got = exact_green_kernel_pair_1d(m, x, y, h)
    assert spans == []
    rep = build_dirac_rep(1)
    for kernel, (a, b) in zip(got, [(x, y), (y, x)]):
        ref = constant_V_exact(rep, params["value"], [a], [b], h)
        assert np.linalg.norm(kernel - ref) / np.linalg.norm(ref) <= 1e-12


def test_march_starting_off_the_chart_is_refused():
    """|w| >= 1 already at the anchor (V = 0.6 there) is refused as well."""
    m = make_potential(1, "tanh_step", {"base": 0.0, "amp": 0.6})
    with pytest.raises(NumericalError, match="u1 chart"):
        decaying_solution(m, "right", (0.0,), 0.1)


def test_input_validation():
    m = bump_model()
    with pytest.raises(DomainError):
        decaying_solution(m, "up", [0.0], 0.1)
    with pytest.raises(DomainError):
        decaying_solution(m, "right", [0.0], -0.1)
    with pytest.raises(DomainError):
        decaying_solution(make_potential(2, "bump_well", BUMP), "right", [0.0], 0.1)
    with pytest.raises(DomainError, match="finite"):
        decaying_solution(m, "right", [0.0, float("nan")], 0.1)
    with pytest.raises(DomainError):
        exact_green_kernel_1d(m, 0.3, 0.3, 0.1)
