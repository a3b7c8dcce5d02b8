"""Count the flow RHS calls of the multistart fan and of lone starts over fixed shots.

    python tools/fancount.py

The first table holds the twelve geodesic-fan shots (bump, cosine and
bump_b in d = 2 and d = 3), the second the three flat-stretch shots in
d >= 2 of tests/test_cli.py (the d = 2 and d = 3 bump and the d = 3 cosine
from an endpoint a unit or more outside the well), each forward and
reversed, with the default fan.  The third, the lone table, holds the
sixteen lone shots of the benchmark: the three amplitude3d-single pairs
and its constant kernel pair in d = 3 (PAIRS[3] and KERNEL3D_PAIR of
bench/workloads.py), and the bump, tanh, cosine and constant pairs of
validate1d-oracle in d = 1, each forward and reversed, with multistart 1
and their lone calls alone.  The fourth, the amplitude table, holds the
four single-start bmt shots of tools/runset.py in d = 3 (PAIRS[3]: bump,
cosine, bump_b and the bump across its flat stretch), each forward and
reversed; the first three pairs are those of amplitude3d-single.  Each shot
runs what the bmt command runs after the shoot, the spin solve and the
equivalence check with its spinor transport.  The fifth, the oracle table,
runs the validate1d command on the four pairs of validate1d-oracle
(VALIDATE1D_PAIRS and H_LIST of bench/workloads.py, unjittered) and gives
the 1D Jost oracle's RHS calls per pair and h, and their total over one
round of the workload, which runs the bump and the cosine twice.  The tool
wraps geoflow._lane_rhs and geoflow._flow_rhs, the solve_ivp that
transport, bmt and oracle1d bind, and oracle1d.decaying_solution (for the
h of each march), so it counts

* lane calls: calls of the batched RHS that the fan's lanes share,
* lane rows: the rows (one per live lane) over those calls,
* longest: the most rows any one start used, tallied per lane from the
  rows of each call; a start keeps its lane, so this is the floor the
  lane calls could reach if no start ever waited for another,
* lone calls: calls of the one-trajectory RHS (a lone start and the polish),
* transport and bmt: calls of the spinor-transport and BMT spin
  right-hand sides,
* oracle: calls of the Riccati right-hand side of the oracle's marches,

and prints them per shot and in total per table, next to the uniqueness
counts and d_A.  These counts do not drift with the host, so they tell a
change in the work done from a change in its speed.  The package is
imported from this checkout's src/; copy the file into another checkout to
compare.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT / "bench")]

from runset import BUMP, COSINE, PAIRS  # noqa: E402
from workloads import H_LIST, KERNEL3D_PAIR, PAIRS as BENCH_PAIRS, VALIDATE1D_PAIRS  # noqa: E402

from diracgreen import bmt, cli, geoflow, oracle1d, transport  # noqa: E402
from diracgreen.clifford import build_dirac_rep  # noqa: E402
from diracgreen.potential import make_potential  # noqa: E402

FAN_PAIRS = ("bump", "cosine", "bump_b")
# (dim, name, kind, params, y_star, x_star): the orbit crosses a stretch where V is flat
FLAT_PAIRS = [(2, "bump", "bump_well", BUMP, [-3.0, -0.3], [3.0, 0.4]),
              (3, "bump", "bump_well", BUMP, [-3.0, -0.3, 0.2], [3.0, 0.4, -0.2]),
              (3, "cosine", "cosine_well", COSINE, [-3.1, 0.3, -0.2], [2.9, -0.3, 0.3])]


def counted(counts):
    """Zero every count in counts, then patch the RHS builders and the solves so every call
    adds to it."""
    counts.update(dict.fromkeys(KEYS, 0), per_lane=Counter(), oracle=0, oracle_per_h=Counter())
    lane_rhs, flow_rhs = geoflow._lane_rhs, geoflow._flow_rhs

    def lanes(model, taus):
        rhs = lane_rhs(model, taus)

        def wrapped(y, rows):
            counts["lane_calls"] += 1
            counts["lane_rows"] += len(rows)
            counts["per_lane"].update(rows.tolist())
            return rhs(y, rows)
        return wrapped

    def lone(model):
        rhs = flow_rhs(model)

        def wrapped(t, y):
            counts["lone_calls"] += 1
            return rhs(t, y)
        return wrapped

    geoflow._lane_rhs, geoflow._flow_rhs = lanes, lone

    def solves(solve_ivp, key):
        def wrapped(fun, *args, **kwargs):
            def rhs(t, y):
                counts[key] += 1
                return fun(t, y)
            return solve_ivp(rhs, *args, **kwargs)
        return wrapped

    transport.solve_ivp = solves(transport.solve_ivp, "transport")
    bmt.solve_ivp = solves(bmt.solve_ivp, "bmt")
    oracle1d.solve_ivp = solves(oracle1d.solve_ivp, "oracle")
    decaying = oracle1d.decaying_solution

    def marched(model, side, points, h, *args, **kwargs):
        before = counts["oracle"]
        out = decaying(model, side, points, h, *args, **kwargs)
        counts["oracle_per_h"][h] += counts["oracle"] - before
        return out

    oracle1d.decaying_solution = marched


def both_ways(label, model, y, x):
    yield f"{label}_fwd", model, y, x
    yield f"{label}_rev", model, x, y


def fan_shots():
    """(label, model, y_star, x_star) of the twelve fan shots."""
    for dim in (2, 3):
        for name, kind, params, y, x in PAIRS[dim]:
            if name in FAN_PAIRS:
                yield from both_ways(f"d{dim}_{name}", make_potential(dim, kind, params), y, x)


def flat_shots():
    """(label, model, y_star, x_star) of the six flat-stretch shots."""
    for dim, name, kind, params, y, x in FLAT_PAIRS:
        yield from both_ways(f"d{dim}_{name}_flat", make_potential(dim, kind, params), y, x)


def lone_shots():
    """(label, model, y_star, x_star) of the sixteen lone shots."""
    for name, kind, params, y, x in [*BENCH_PAIRS[3], KERNEL3D_PAIR]:
        yield from both_ways(f"d3_{name}_one", make_potential(3, kind, params), y, x)
    for name, kind, params, y, x in VALIDATE1D_PAIRS:
        yield from both_ways(f"d1_{name}", make_potential(1, kind, params), y, x)


def amplitude_shots():
    """(label, model, y_star, x_star) of the eight single-start bmt shots."""
    for name, kind, params, y, x in PAIRS[3]:
        yield from both_ways(f"d3_{name}_bmt", make_potential(3, kind, params), y, x)


def amplitude(model, geo):
    """The bmt command's work after its shoot: the spin solve and the equivalence check."""
    spin = bmt.solve_bmt_spin(model, geo.trajectory)
    bmt.equivalence_check(model, build_dirac_rep(3), geo, spin)


KEYS = ("lane_calls", "lane_rows", "longest", "lone_calls", "transport", "bmt")


def table(shots, counts, keys=KEYS[:4], multistart=None, then=None):
    """Shoot each shot, run then(model, geo) if given, and print its counts of keys, then
    their total."""
    total = dict.fromkeys(keys, 0)
    print(" ".join([f"{'shot':18s}", *(f"{key:>10s}" for key in keys),
                    f"{'starts':>6s} {'conv':>4s} {'dist':>4s}  d_A"]))
    for label, model, y, x in shots:
        counts.update(dict.fromkeys(KEYS, 0), per_lane=Counter())
        geo = geoflow.shoot_geodesic(model, y, x, multistart=multistart)
        if then is not None:
            then(model, geo)
        counts["longest"] = max(counts["per_lane"].values(), default=0)
        u = geo.uniqueness
        print(" ".join([f"{label:18s}", *(f"{counts[key]:10d}" for key in keys),
                        f"{u['n_starts']:6d} {u['n_converged']:4d} {u['n_distinct']:4d}"
                        f"  {geo.agmon!r}"]), flush=True)
        for key in keys:
            total[key] += counts[key]
    print(" ".join([f"{'total':18s}", *(f"{total[key]:10d}" for key in keys)]))


def oracle_table(counts):
    """Run validate1d on each validate1d-oracle pair; print its oracle calls per h, then per round."""
    print(" ".join([f"{'pair':18s}", *(f"{f'h={h}':>10s}" for h in H_LIST), f"{'total':>10s}"]))
    per_pair = {}
    for name, kind, params, y, x in VALIDATE1D_PAIRS:
        counts.update(oracle=0, oracle_per_h=Counter())
        cli.cmd_validate1d(cli.RunConfig.from_dict(
            {"dimension": 1, "potential": {"kind": kind, "params": params},
             "y_star": y, "x_star": x, "h_list": H_LIST}))
        per_pair[name] = counts["oracle"]
        print(" ".join([f"{'d1_' + name:18s}",
                        *(f"{counts['oracle_per_h'][h]:10d}" for h in H_LIST),
                        f"{counts['oracle']:10d}"]), flush=True)
    # a round of validate1d-oracle runs the bump and the cosine twice
    round_calls = sum(per_pair.values()) + per_pair["bump"] + per_pair["cosine"]
    print(f"{'round':18s} {round_calls:10d}")


def main():
    counts = {}
    counted(counts)
    table(fan_shots(), counts)
    print()
    table(flat_shots(), counts)
    print()
    table(lone_shots(), counts, keys=("lone_calls",), multistart=1)
    print()
    table(amplitude_shots(), counts, keys=KEYS[3:], multistart=1, then=amplitude)
    print()
    oracle_table(counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
