"""Solutions shared read-only across test modules, for tests that only read them.

A test that patches internals, injects a fault or checks determinism shoots
its own.
"""

import numpy as np
import pytest

from diracgreen.geoflow import shoot_geodesic
from diracgreen.potential import make_potential


def _freeze(obj):
    """Make every numpy array that obj holds read-only, through fields, lists and dicts."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _freeze(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item)
    elif type(obj).__module__.startswith("diracgreen."):
        for item in vars(obj).values():
            _freeze(item)


def _bump_fan(y, x):
    """The bump well's connection y -> x in d = len(y), shot with the default fan, frozen."""
    model = make_potential(len(y), "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    geo = shoot_geodesic(model, y, x)
    _freeze(geo)
    return geo


@pytest.fixture(scope="session")
def d3_bump_fan():
    """The d = 3 bump pair (-1, -0.3, 0.2) -> (1, 0.4, -0.2), shot with the default fan."""
    return _bump_fan([-1.0, -0.3, 0.2], [1.0, 0.4, -0.2])


@pytest.fixture(scope="session")
def d2_bump_fan():
    """The d = 2 bump pair (-1, -0.3) -> (1, 0.4), shot with the default fan."""
    return _bump_fan([-1.0, -0.3], [1.0, 0.4])


@pytest.fixture(scope="session")
def d2_bump_fan_rev():
    """The d = 2 bump pair reversed, (1, 0.4) -> (-1, -0.3), shot with the default fan."""
    return _bump_fan([1.0, 0.4], [-1.0, -0.3])
