"""Potential families: values, derivatives, gap margin, config round trip."""

import numpy as np
import pytest

from diracgreen.clifford import DomainError
from diracgreen.potential import (from_config, fd_consistency, make_potential,
                                  negated, validate_hypothesis)


def test_constant_family():
    m = make_potential(2, "constant", {"value": -0.6})
    v, g, h = m.evaluate([0.3, -0.4])
    assert v == -0.6
    assert np.all(g == 0.0) and np.all(h == 0.0)
    assert m.delta == pytest.approx(0.4)
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
    assert m.delta == pytest.approx(0.1)


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
    assert m.delta == pytest.approx(0.3)


def test_tanh_step_is_one_dimensional_only():
    with pytest.raises(DomainError):
        make_potential(2, "tanh_step", {"base": -0.5, "amp": 0.2})


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        make_potential(1, "mexican_hat", {"base": -0.5})


def test_point_validation():
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    with pytest.raises(DomainError):
        m.value([0.1, 0.2, 0.3])
    with pytest.raises(DomainError):
        m.value([11.0, 0.0])   # outside box_half = 10


def test_scalar_point_in_1d():
    m = make_potential(1, "constant", {"value": -0.4})
    assert m.value(0.7) == -0.4


def test_offcenter_bump():
    m = make_potential(2, "bump_well",
                       {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]})
    assert m.value([0.5, -0.25]) == pytest.approx(-0.9, abs=1e-15)
    assert m.window == pytest.approx(2.5)


@pytest.mark.parametrize("dim,kind,params", [
    (1, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (3, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2}),
])
def test_analytic_derivatives_match_finite_differences(dim, kind, params):
    m = make_potential(dim, kind, params)
    g_res, h_res = fd_consistency(m)
    assert g_res <= 1e-6
    assert h_res <= 1e-5


@pytest.mark.parametrize("dim,kind,params", [
    (2, "constant", {"value": -0.6}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
])
def test_negated_flips_every_family(dim, kind, params):
    m = make_potential(dim, kind, params)
    neg = negated(m)
    assert (neg.window, neg.box_half) == (m.window, m.box_half)
    for x in np.random.default_rng(5).uniform(-3.0, 3.0, size=(40, dim)):
        v, g, h = m.evaluate(x)
        nv, ng, nh = neg.evaluate(x)
        assert nv == -v
        assert np.array_equal(ng, -g) and np.array_equal(nh, -h)
    assert negated(neg) == m


@pytest.mark.parametrize("dim,kind,params", [
    (2, "constant", {"value": -0.6}),
    (3, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0}),
    (2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0, "center": [0.5, -0.25]}),
    (3, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5, "center": 0.2}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
])
def test_evaluate_many_matches_evaluate(dim, kind, params):
    """Row by row within 4 ulp: at the center, inside, on the edge, outside the ball and box."""
    m = make_potential(dim, kind, params)
    rng = np.random.default_rng(11)
    radius = params.get("radius", 2.0)
    dirs = rng.normal(size=(200, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = np.concatenate([np.zeros(10), rng.uniform(0.0, 1e-4, 40),     # the center
                        rng.uniform(0.0, radius, 80), np.full(30, radius),
                        rng.uniform(radius, 2.0 * m.box_half, 40)])
    xs = np.atleast_1d(params.get("center", 0.0)) + dirs * r[:, None]
    v, grad, hess, outside = m.evaluate_many(xs)
    assert v.shape == (200,) and grad.shape == (200, dim) and hess.shape == (200, dim, dim)
    ulp4 = 4.0 * np.finfo(float).eps
    n_out = 0
    for k, x in enumerate(xs):
        if np.any(np.abs(x) > m.box_half):
            n_out += 1
            assert outside[k]
            with pytest.raises(DomainError):
                m.evaluate(x)
            continue
        assert not outside[k]
        v1, g1, h1 = m.evaluate(x)
        np.testing.assert_allclose(v[k], v1, rtol=ulp4, atol=0.0)
        np.testing.assert_allclose(grad[k], g1, rtol=ulp4, atol=0.0)
        np.testing.assert_allclose(hess[k], h1, rtol=ulp4, atol=0.0)
    assert n_out >= 5
    with pytest.raises(DomainError):
        m.evaluate_many(np.zeros((3, dim + 1)))


def test_hypothesis_validation_passes_for_gap_families():
    m = make_potential(2, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    rep = validate_hypothesis(m, n_samples=2000, seed=3)
    assert rep.passed
    assert rep.delta_hat >= rep.declared_delta
    assert rep.n_samples == 2000


@pytest.mark.parametrize("dim,kind,params", [
    (2, "constant", {"value": -0.6}),
    (3, "bump_well", {"base": -0.5, "depth": 0.25, "radius": 1.5, "center": [0.5, 0.0, -0.5]}),
    (2, "cosine_well", {"base": -0.55, "depth": 0.35, "radius": 2.5}),
    (1, "tanh_step", {"base": -0.5, "amp": 0.2, "center": 0.3}),
])
def test_hypothesis_margin_matches_a_pointwise_loop(dim, kind, params):
    """The batched margin is the min over the same seeded samples of model.value, bit for bit."""
    m = make_potential(dim, kind, params, box_half=3.0)
    pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(1500, dim))
    margin = min(min(-v, 1.0 + v) for v in map(m.value, pts))
    assert validate_hypothesis(m, n_samples=1500, seed=5).delta_hat == margin


def test_hypothesis_validation_flags_gap_violations():
    # amp large enough that V crosses zero on the right tail
    bad = make_potential(1, "tanh_step", {"base": -0.5, "amp": 0.6})
    assert bad.delta <= 0.0
    assert not validate_hypothesis(bad).passed
    # declared margin stronger than the family actually achieves
    tight = make_potential(1, "constant", {"value": -0.3}, delta=0.5)
    rep = validate_hypothesis(tight)
    assert not rep.passed
    assert rep.delta_hat == pytest.approx(0.3)


def test_hypothesis_validation_sample_floor():
    m = make_potential(1, "constant", {"value": -0.5})
    with pytest.raises(DomainError):
        validate_hypothesis(m, n_samples=100)


def test_config_round_trip():
    cosine = {"base": -0.55, "depth": 0.35, "radius": 2.5}
    assert (from_config(2, {"kind": "cosine_well", "params": cosine, "delta": 0.05})
            == make_potential(2, "cosine_well", cosine, delta=0.05))
    step = {"base": -0.5, "amp": 0.2}
    custom = from_config(1, {"kind": "tanh_step", "params": step, "box_half": 25.0})
    assert custom == make_potential(1, "tanh_step", step, box_half=25.0)
    assert custom.box_half == 25.0


def test_config_requires_kind():
    with pytest.raises(DomainError):
        from_config(1, {"params": {"value": -0.5}})
