"""The traced benchmark patches package functions by name; each name must resolve.

bench/spans.py wraps the functions in SPAN_FUNCTIONS and LEAF_FUNCTIONS, the
methods in LEAF_METHODS, and solve_ivp as each module of SOLVER_MODULES
binds it.  A rename or removal in the package would break `--trace 1`
without failing anything else, so this test reads those tables and looks
every name up.  The per-layer metrics also tell the polish from the fan by
the rel_tol that integrate_flow receives; a second test traces one shoot
and reads them.  Both execute bench/spans.py in memory and write nothing.
"""

import importlib
import runpy
from pathlib import Path

import diracgreen.geoflow
from diracgreen.geoflow import OdeOpts
from diracgreen.potential import make_potential

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    tables = runpy.run_path(str(SPANS))
    missing = []
    for name, (mod, attr) in {**tables["SPAN_FUNCTIONS"], **tables["LEAF_FUNCTIONS"]}.items():
        if not callable(getattr(importlib.import_module(mod), attr, None)):
            missing.append(name)
    for name, (mod, cls, attr) in tables["LEAF_METHODS"].items():
        if not callable(getattr(getattr(importlib.import_module(mod), cls, None), attr, None)):
            missing.append(name)
    for layer in tables["SOLVER_MODULES"]:
        if not callable(getattr(importlib.import_module(f"diracgreen.{layer}"),
                                "solve_ivp", None)):
            missing.append(f"{layer}.solve_ivp")
    assert missing == []


def test_traced_shoot_reports_the_polish():
    """One d=3 single-start shoot, traced: the polish and the flow calls are counted."""
    tables = runpy.run_path(str(SPANS))
    tracer = tables["Tracer"]()
    model = make_potential(3, "bump_well", {"base": -0.6, "depth": 0.3, "radius": 2.0})
    tracer.install()
    try:
        tracer.begin(0)
        # looked up after install, which rebinds the module attribute, not older names
        diracgreen.geoflow.shoot_geodesic(model, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2],
                                          multistart=1)
        tracer.end()
    finally:
        tracer.uninstall()
    metrics = tables["layer_metrics"](tracer.spans, {0: 1.0}, OdeOpts().rel_tol)
    assert metrics["geoflow.polish.s"][0] > 0.0
    assert metrics["geoflow.integrate_flow.calls"][0] > 0
