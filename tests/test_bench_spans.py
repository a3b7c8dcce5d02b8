"""The traced benchmark patches package functions by name; each name must resolve.

bench/spans.py wraps the functions in SPAN_FUNCTIONS and LEAF_FUNCTIONS, the
methods in LEAF_METHODS, and solve_ivp as each module of SOLVER_MODULES
binds it.  A rename or removal in the package would break `--trace 1`
without failing anything else, so this test reads those tables and looks
every name up.  It executes bench/spans.py in memory and writes nothing.
"""

import importlib
import runpy
from pathlib import Path

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
