"""Potential families: values, derivatives, gap margin, config round trip."""

from dataclasses import replace

import numpy as np
import pytest

from diracgreen import potential
from diracgreen.clifford import DomainError
from diracgreen.potential import (FAMILIES, Family, PotentialModel, from_config,
                                  fd_consistency, make_potential, negated, sample_half,
                                  validate_hypothesis)

# one list per family-parametrised test; each must name every FAMILIES key
FD_CASES = [
    (1, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (3, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2}),
    (2, "constant", {"value": -0.6}),
]
NEGATED_CASES = [
    (2, "constant", {"value": -0.6}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
]
MANY_CASES = [
    (2, "constant", {"value": -0.6}),
    (3, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": 0.2}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
]
MARGIN_CASES = [
    (2, "constant", {"value": -0.6}),
    (3, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5, "center": [0.5, 0.0, -0.5]}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
]

LINE_CASES = [
    (1, "constant", {"value": -0.6}),
    (1, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (1, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5, "center": 0.7}),
    (1, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": [-0.4]}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
]

# every family in every dimension it allows, off-center wells included; d = 9 is past
# the d = 8 from which numpy's row sum goes pairwise
TERMS_CASES = [
    *((dim, "constant", {"value": -0.6}) for dim in (1, 2, 3, 4)),
    *((dim, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}) for dim in (1, 2, 3, 4)),
    (3, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5, "center": [0.5, 0.0, -0.5]}),
    *((dim, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": 0.2})
      for dim in (1, 2, 3, 4)),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
    (9, "constant", {"value": -0.6}),
    (9, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (9, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": 0.2}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]}),
]

# one row per family: the margin min(-max V, 1 + min V) of its bounds and the window
# center offset + reach, in the float operations of their former defaults
DERIVED_CASES = [
    (2, "constant", {"value": -0.6}, min(0.6, 1.0 + -0.6), 0.0),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]},
     min(-(-0.6 - 0.0), 1.0 + (-0.6 - 0.3)), 0.5 + 2.0),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": 0.2},
     min(-(-0.55 - 0.0), 1.0 + (-0.55 - 0.35)), 0.2 + 2.5),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3},
     min(-(-0.5 + 0.2), 1.0 + (-0.5 - 0.2)), 0.3 + 19.0),
]


@pytest.mark.parametrize("dim,kind,params,margin,window", DERIVED_CASES)
def test_margin_and_window_come_from_the_family_row(dim, kind, params, margin, window):
    m = make_potential(dim, kind, params)
    assert (m.margin, m.window, sample_half(m)) == (margin, window, max(10.0, window + 1.0))
    assert from_config(dim, {"kind": kind, "params": params}) == m


def test_constant_family():
    m = make_potential(2, "constant", {"value": -0.6})
    v, g, h = m.evaluate([0.3, -0.4])
    assert v == -0.6
    assert np.all(g == 0.0) and np.all(h == 0.0)
    assert m.margin == pytest.approx(0.4)
    assert m.window == 0.0


def test_bump_well_center_and_tail():
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    assert m.value([0.0, 0.0]) == pytest.approx(-0.9, abs=1e-15)
    np.testing.assert_allclose(m.evaluate([0.0, 0.0])[1], 0.0, atol=1e-15)
    # constant outside the support radius, bit for bit
    for pt in ([2.0, 0.0], [1.5, 1.5], [-3.0, 0.2]):
        v, grad, hess = m.evaluate(pt)
        assert v == -0.6
        assert np.all(grad == 0.0)
        assert np.all(hess == 0.0)
    assert m.window == 2.0
    assert m.margin == pytest.approx(0.1)


def test_cosine_well_center_and_tail():
    m = make_potential(2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5})
    assert m.value([0.0, 0.0]) == pytest.approx(-0.9, abs=1e-15)
    assert m.value([2.5, 0.0]) == -0.55
    assert np.all(m.evaluate([0.0, 2.6])[1] == 0.0)
    # C^1 at the support edge: tiny gradient just inside, base value matched
    inner = [2.5 * (1.0 - 1e-8), 0.0]
    assert abs(m.value(inner) - (-0.55)) <= 1e-14
    assert np.linalg.norm(m.evaluate(inner)[1]) <= 1e-6


def test_cosine_small_radius_series_branch():
    # near the center the radial formula switches to its Taylor branch
    m = make_potential(3, "cosine_well", {"base": -0.5, "depth": 0.3, "radius": 2.0})
    x = np.array([1e-6, -2e-6, 1e-6])
    v, g, h = m.evaluate(x)
    assert v == pytest.approx(-0.8, abs=1e-10)
    assert np.linalg.norm(g) <= 1e-5
    assert np.linalg.norm(h - h.T) == 0.0


def test_tanh_step_profile():
    m = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.2})
    assert m.value([0.0]) == pytest.approx(-0.5, abs=1e-15)
    np.testing.assert_allclose(m.evaluate([0.0])[1], [0.2], atol=1e-15)
    # tanh saturates to +-1.0 exactly in double precision past the window
    assert m.window == 19.0
    assert m.value([19.5]) == -0.3
    assert m.value([-19.5]) == -0.7
    assert np.all(m.evaluate([19.5])[1] == 0.0)
    assert m.margin == pytest.approx(0.3)


def test_tanh_step_is_one_dimensional_only():
    with pytest.raises(DomainError):
        make_potential(2, "tanh_step", {"base": -0.5, "amp": 0.2})


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        make_potential(1, "mexican_hat", {"base": -0.5})


def test_point_validation():
    """A point must have the model's length; anywhere in R^d it has the family's value."""
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    with pytest.raises(DomainError):
        m.value([0.1, 0.2, 0.3])
    assert m.value([11.0, 0.0]) == m.value([-1e100, 1e100]) == -0.6


def test_scalar_point_in_1d():
    m = make_potential(1, "constant", {"value": -0.4})
    assert m.value(0.7) == -0.4


def test_offcenter_bump():
    m = make_potential(2, "bump_well",
                       {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]})
    assert m.value([0.5, -0.25]) == pytest.approx(-0.9, abs=1e-15)
    assert m.window == pytest.approx(2.5)


@pytest.mark.parametrize("dim,kind,params", FD_CASES)
def test_analytic_derivatives_match_finite_differences(dim, kind, params):
    m = make_potential(dim, kind, params)
    g_res, h_res = fd_consistency(m)
    assert g_res <= 1e-6
    assert h_res <= 1e-5


@pytest.mark.parametrize("dim,kind,params", NEGATED_CASES)
def test_negated_flips_every_family(dim, kind, params):
    m = make_potential(dim, kind, params)
    neg = negated(m)
    assert neg.window == m.window
    for x in np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, dim)):
        v, g, h = m.evaluate(x)
        nv, ng, nh = neg.evaluate(x)
        assert nv == -v
        assert np.array_equal(ng, -g) and np.array_equal(nh, -h)
    assert negated(neg) == m


@pytest.mark.parametrize("dim,kind,params", MANY_CASES)
def test_evaluate_many_matches_evaluate(dim, kind, params):
    """Row by row bit for bit: terms_many's V, gamma r and alpha I + beta r r^T are
    evaluate's at the center, inside, on the edge, outside the ball, far out.
    """
    m = make_potential(dim, kind, params)
    rng = np.random.default_rng(11)
    radius = params.get("radius", 2.0)
    dirs = rng.normal(size=(200, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = np.concatenate([np.zeros(10), rng.uniform(0.0, 1e-4, 40),     # the center
                        rng.uniform(0.0, radius, 80), np.full(30, radius),
                        rng.uniform(radius, 2.0 * sample_half(m), 35), np.full(5, 1e100)])
    xs = np.atleast_1d(params.get("center", 0.0)) + dirs * r[:, None]
    v, rel, gamma, alpha, beta = m.terms_many(xs)
    assert v.shape == gamma.shape == alpha.shape == beta.shape == (200,)
    assert rel.shape == (200, dim)
    for k, x in enumerate(xs):
        v1, g1, h1 = m.evaluate(x)
        assert v[k] == v1
        np.testing.assert_array_equal(gamma[k] * rel[k], g1)
        np.testing.assert_array_equal(
            alpha[k] * np.eye(dim) + beta[k] * np.outer(rel[k], rel[k]), h1)
    with pytest.raises(DomainError):
        m.terms_many(np.zeros((3, dim + 1)))


@pytest.mark.parametrize("dim,kind,params", TERMS_CASES)
def test_terms_match_evaluate(dim, kind, params):
    """Each terms_many row is terms, value and evaluate's assembled V, gamma r and
    alpha I + beta r r^T bit for bit: the lone flow and the fan's lanes read the same V
    at the center, inside, on the rim, outside it, far out and at 1e100.
    """
    m = make_potential(dim, kind, params)
    rng = np.random.default_rng(13)
    radius = params.get("radius", 2.0)
    dirs = rng.normal(size=(300, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = np.concatenate([np.zeros(5), rng.uniform(0.0, 1e-4, 20),           # the center
                        rng.uniform(0.0, radius, 200), np.full(20, radius),  # to the rim
                        rng.uniform(radius, 2.0 * sample_half(m), 50), np.full(5, 1e100)])
    xs = np.atleast_1d(params.get("center", 0.0)) + dirs * r[:, None]
    if kind == "tanh_step":
        xs = rng.uniform(-20.0, 20.0, size=(300, 1))   # past tanh(19) == 1 on both sides
    rows = m.terms_many(xs)
    assert [a.shape for a in rows] == [(300,), (300, dim), (300,), (300,), (300,)]
    for k, x in enumerate(xs.tolist()):
        tv, tr, gamma, alpha, beta = m.terms(x)
        assert all(type(c) is float for c in (tv, gamma, alpha, beta)) and len(tr) == dim
        assert [tv, tr, gamma, alpha, beta] == [rows[0][k], rows[1][k].tolist(),
                                                rows[2][k], rows[3][k], rows[4][k]]
        tr = np.array(tr)
        v, grad, hess = m.evaluate(x)
        assert v == m.value(x) == tv
        np.testing.assert_array_equal(grad, gamma * tr)
        np.testing.assert_array_equal(hess, alpha * np.eye(dim) + beta * np.outer(tr, tr))
    with pytest.raises(DomainError):
        m.terms_many(np.zeros((3, dim + 1)))


@pytest.mark.parametrize("dim,kind,params", LINE_CASES)
def test_line_value_is_value_bit_for_bit(dim, kind, params):
    """The unchecked read of the 1D oracle march gives value's V on both window edges."""
    m = make_potential(dim, kind, params)
    line = m.line_value()
    edge = m.window + 1.0
    center = float(np.ravel(params.get("center", 0.0))[0])
    grid = np.concatenate([np.linspace(-edge, edge, 2001), [-m.window, m.window, center]])
    for s in grid.tolist():
        assert line(s) == m.value([s])


def test_line_value_is_1d_only():
    with pytest.raises(DomainError):
        make_potential(2, "constant", {"value": -0.6}).line_value()


# every family with a profile, off its center, at points on every branch of its profile:
# the center, inside, the rim and past it (u2 >= 1) for the wells, the cosine's series
# within 1e-4 of its center (w2 <= 1e-8), and the tanh step saturated at +-1.0
VALUE_ONLY_CASES = {
    "bump_well": ({"base": -0.5, "depth": 0.25, "radius": 1.5, "center": 0.7},
                  [0.7, 0.7 + 1e-9, 0.1, 2.19, 0.7 + 1.5, 0.7 - 1.5, 5.0, -1e10]),
    "cosine_well": ({"base": -0.55, "depth": 0.35, "radius": 2.5, "center": -0.4},
                    [-0.4, -0.4 + 1e-5, -0.4 - 3e-5, 0.3, -0.4 + 2.5, -2.9, 4.0, 1e10]),
    "tanh_step": ({"base": -0.5, "amp": 0.2, "center": 0.3},
                  [0.3, 1.0, -2.0, 19.3, -18.7, 25.0, -1e6]),
}


@pytest.mark.parametrize("kind", list(VALUE_ONLY_CASES))
def test_value_only_profile_is_value_bit_for_bit(kind):
    """line_value, the profile asked for V alone, is value's V, a float, on every branch."""
    params, points = VALUE_ONLY_CASES[kind]
    m = make_potential(1, kind, params)
    line = m.line_value()
    for s in points:
        assert type(line(s)) is float
        assert line(s) == m.value([s])


def test_value_only_cases_cover_every_profile():
    assert set(VALUE_ONLY_CASES) == {kind for kind, row in FAMILIES.items() if row.profile}


def test_hypothesis_validation_passes_for_gap_families():
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    assert validate_hypothesis(m) >= m.margin > 0.0


@pytest.mark.parametrize("dim,kind,params", MARGIN_CASES)
def test_hypothesis_margin_matches_a_pointwise_loop(dim, kind, params):
    """The batched margin is the min over the same seeded samples of model.value, bit for bit."""
    m = make_potential(dim, kind, params)
    pts = potential._samples(m, 1000, 0, sample_half(m))
    margin = min(min(-v, 1.0 + v) for v in map(m.value, pts))
    assert validate_hypothesis(m) == margin


def test_hypothesis_validation_flags_gap_violations():
    # amp large enough that V crosses zero on the right tail
    bad = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.6})
    assert bad.margin <= 0.0
    assert validate_hypothesis(bad) <= 0.0


def test_config_round_trip():
    cosine = {"base": -0.55, "depth": 0.35, "radius": 2.5}
    assert (from_config(2, {"kind": "cosine_well", "params": cosine})
            == make_potential(2, "cosine_well", cosine))
    step = {"base": -0.5, "amp": 0.2}
    assert from_config(1, {"kind": "tanh_step", "params": step}) == make_potential(
        1, "tanh_step", step)
    with pytest.raises(DomainError, match=r"unknown potential field\(s\): \['box_half'\]"):
        from_config(1, {"kind": "tanh_step", "params": step, "box_half": 25.0})


def test_config_requires_kind():
    with pytest.raises(DomainError):
        from_config(1, {"params": {"value": -0.5}})


@pytest.mark.parametrize("cases", [FD_CASES, NEGATED_CASES, MANY_CASES, MARGIN_CASES,
                                   LINE_CASES, TERMS_CASES, DERIVED_CASES])
def test_family_tests_cover_every_family(cases):
    assert {case[1] for case in cases} == set(FAMILIES)


def _cubic(b, a, big_l, s):
    """V = b - a (1 - s/L^2)^3 inside the ball, b outside: C^2 at the rim."""
    if s >= big_l**2:
        return 0.0, 0.0, b
    w = 1.0 - s / big_l**2
    return 3.0 * a * w * w / big_l**2, -6.0 * a * w / big_l**4, b - a * w**3


def test_a_new_family_needs_only_its_row(monkeypatch):
    monkeypatch.setitem(FAMILIES, "cubic_well", Family(
        ("base", "depth", "radius", "center"), ("base", "depth"),
        lambda p: (p["base"] - max(p["depth"], 0.0), p["base"] - min(p["depth"], 0.0)),
        lambda p: p["radius"], _cubic, radial=True))
    params = {"base": -0.6, "depth": 0.3, "radius": 1.5, "center": [0.5, -0.75]}
    m = from_config(2, {"kind": "cubic_well", "params": params})
    assert m.window == 0.75 + 1.5
    assert m.margin == pytest.approx(0.1)
    assert m.value([0.5, -0.75]) == pytest.approx(-0.9, abs=1e-15)
    assert m.value([0.5, 0.75]) == -0.6
    with pytest.raises(DomainError, match="allowed: \\['base', 'depth', 'radius', 'center'\\]"):
        from_config(2, {"kind": "cubic_well", "params": dict(params, amp=0.1)})

    g_res, h_res = fd_consistency(m)
    assert g_res <= 1e-6
    assert h_res <= 1e-5

    xs = np.random.default_rng(3).uniform(-2.5, 2.5, size=(60, 2))
    v, r, gamma, alpha, beta = m.terms_many(xs)
    for k, x in enumerate(xs):
        v1, g1, h1 = m.evaluate(x)
        assert v[k] == v1
        np.testing.assert_array_equal(gamma[k] * r[k], g1)
        np.testing.assert_array_equal(alpha[k] * np.eye(2) + beta[k] * np.outer(r[k], r[k]), h1)

    neg = negated(m)
    assert all(neg.value(x) == -m.value(x) for x in xs)


# every family with a profile in every d it allows, with selfcheck's parameters;
# each faulty row must trip the selfcheck line that guards it
FAULT_CASES = [(d, kind, params) for d in (1, 2, 3) for kind, params in (
    ("bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    ("cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}))
] + [(1, "tanh_step", {"base": -0.5, "amp": 0.2})]


@pytest.mark.parametrize("slot", [0, 1], ids=["fp", "fpp"])
@pytest.mark.parametrize("dim,kind,params", FAULT_CASES)
def test_a_wrong_derivative_trips_potential_derivatives(monkeypatch, dim, kind, params, slot):
    """f' or f'' scaled by 1 + 1e-3 pushes fd_consistency past selfcheck's 1e-6."""
    row = FAMILIES[kind]

    def faulty(*args):
        out = list(row.profile(*args))
        out[slot] *= 1.0 + 1e-3
        return tuple(out)

    monkeypatch.setitem(FAMILIES, kind, replace(row, profile=faulty))
    assert max(fd_consistency(make_potential(dim, kind, params))) > 1e-6


@pytest.mark.parametrize("slot", [2, 4], ids=["gamma", "beta"])
@pytest.mark.parametrize("dim,kind,params", FAULT_CASES)
def test_a_wrong_term_trips_potential_derivatives(monkeypatch, dim, kind, params, slot):
    """gamma or beta of terms, which the flows read, scaled by 1 + 1e-3 pushes
    fd_consistency past selfcheck's 1e-6: the check reads the flows' derivatives."""
    terms = PotentialModel.terms

    def faulty(self, x):
        out = list(terms(self, x))
        out[slot] *= 1.0 + 1e-3
        return tuple(out)

    monkeypatch.setattr(PotentialModel, "terms", faulty)
    assert max(fd_consistency(make_potential(dim, kind, params))) > 1e-6


@pytest.mark.parametrize("dim,kind,params", FAULT_CASES)
def test_a_misstated_range_trips_hypothesis_gap(monkeypatch, dim, kind, params):
    """bounds 0.05 inside the true range at each end (a well's minimum too high).

    The margin derived from them then exceeds the sampled one: selfcheck's
    residual margin - validate_hypothesis is above its tolerance 0.0.
    """
    row = FAMILIES[kind]

    def narrowed(p):
        lo, hi = row.bounds(p)
        return lo + 0.05, hi - 0.05

    monkeypatch.setitem(FAMILIES, kind, replace(row, bounds=narrowed))
    m = make_potential(dim, kind, params)
    assert m.margin - validate_hypothesis(m) > 0.0
