"""tools/fancount.py: its counts exist before any table runs, so each table runs alone."""

import importlib.util
import sys
from pathlib import Path

from diracgreen import bmt, cli, geoflow, oracle1d, transport

FANCOUNT = Path(__file__).resolve().parents[1] / "tools" / "fancount.py"
# what counted() patches; each test restores them
PATCHED = [(geoflow, "_lane_rhs"), (geoflow, "_flow_rhs"), (transport, "solve_ivp"),
           (bmt, "solve_ivp"), (oracle1d, "solve_ivp"), (oracle1d, "decaying_solution")]


def _counted(monkeypatch):
    """Load the tool, let counted() patch the package, and return its counts and the tool."""
    monkeypatch.setattr(sys, "path", list(sys.path))    # the tool prepends its own paths
    for owner, name in PATCHED:
        monkeypatch.setattr(owner, name, getattr(owner, name))
    spec = importlib.util.spec_from_file_location("fancount", FANCOUNT)
    fancount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fancount)
    counts = {}
    fancount.counted(counts)
    return counts, fancount


def _validate1d(pair, h_list):
    _, kind, params, y, x = pair
    return cli.cmd_validate1d(cli.RunConfig.from_dict(
        {"dimension": 1, "potential": {"kind": kind, "params": params},
         "y_star": y, "x_star": x, "h_list": h_list}))


def test_validate1d_counts_right_after_counted(monkeypatch):
    """counted({}) then validate1d: the shoot's lone calls and the oracle's calls per h add up.

    The constant pair of validate1d-oracle reads its tail and marches
    nothing; the bump marches at its one h.
    """
    counts, fancount = _counted(monkeypatch)
    bump, _, _, constant = fancount.VALIDATE1D_PAIRS
    _validate1d(constant, fancount.H_LIST)
    assert counts["lone_calls"] > 0 and counts["oracle"] == 0
    _validate1d(bump, [0.2])
    per_h = counts["oracle_per_h"]
    assert counts["oracle"] > 0 and per_h[0.2] == per_h.total() == counts["oracle"]
