"""Run the command line over a fixed set of configs and record every run.

    python tools/runset.py OUTDIR

For each run, OUTDIR/<name>.out holds its stdout, <name>.err its stderr
and <name>.code its exit code.  The package is imported from this
checkout's src/.  To compare two versions, copy this file into the other
checkout, run it there into a second directory, and `diff -r` the two:
an empty diff means every artifact, message and exit code is
byte-identical.  `tools/artdiff.py OLD NEW` compares them field by field
where trailing digits moved.  The runs go on min(cpu_count, 4) worker processes at a
time, and each line is printed in run order.  The set (92 runs, about
a minute on 2 cores):

* validate1d and geodesic on ten 1D pairs (bump, steep and mild tanh,
  cosine, constant -0.6, each both ways); geodesic with the fan, one
  start and two starts; validate1d also on the bump at h = 0.1 alone, at
  (-1.6, 0.4), with one start, centred at 0.3, down to h = 0.005, and
  down to h = 1e-6 (exit 3); validate1d, and geodesic with the fan and
  one start, on the bump from -4 to 0, across its flat stretch;
* kernel in d = 1, 2, 3 with the fan and one start, constant in d = 1, 2, 3;
* geodesic on four d = 2 and four d = 3 pairs and bmt on the four d = 3
  pairs (the fourth across the bump's flat stretch), each with the fan
  and one start; geodesic with the fan on the d = 3 cosine across its
  flat stretch, both ways, the one measured shot whose counts a wider
  retirement radius moves; geodesic on a constant well at +-9e5, and
  with one start on a constant well in d = 12;
* five configs that exit 2, and the full selfcheck.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BUMP = {"base": -0.6, "depth": 0.3, "radius": 2.0}
COSINE = {"base": -0.55, "depth": 0.35, "radius": 2.5}
H_LIST = [0.2, 0.1, 0.05, 0.025]

# (name, kind, params, y_star, x_star)
PAIRS_1D = [
    ("bump", "bump_well", BUMP, [-1.0], [1.0]),
    ("tanh_steep", "tanh_step", {"base": -0.6, "amp": 0.3}, [-1.0], [1.0]),
    ("tanh_mild", "tanh_step", {"base": -0.5, "amp": 0.2}, [-1.0], [1.0]),
    ("cosine", "cosine_well", COSINE, [-1.0], [1.3]),
    ("constant", "constant", {"value": -0.6}, [-0.5], [0.5]),
]
PAIRS = {
    2: [("bump", "bump_well", BUMP, [-1.0, -0.3], [1.0, 0.4]),
        ("cosine", "cosine_well", COSINE, [-1.2, 0.2], [0.9, -0.4]),
        ("bump_b", "bump_well", BUMP, [-0.8, 0.7], [1.1, 0.3]),
        ("bump_offcentre", "bump_well", dict(BUMP, center=[0.3, -0.2]),
         [-1.0, -0.3], [1.0, 0.4])],
    3: [("bump", "bump_well", BUMP, [-1.0, -0.3, 0.2], [1.0, 0.4, -0.2]),
        ("cosine", "cosine_well", COSINE, [-1.1, 0.3, -0.2], [0.9, -0.3, 0.3]),
        ("bump_b", "bump_well", BUMP, [-0.9, 0.5, 0.1], [1.0, 0.2, -0.4]),
        ("bump_flat", "bump_well", BUMP, [-3.0, -0.3, 0.2], [3.0, 0.4, -0.2])],
}
# the d = 3 cosine across its flat stretch: a retirement radius of 2e-1 or more moves its counts
COSINE_FLAT = ("cosine", "cosine_well", COSINE, [-3.1, 0.3, -0.2], [2.9, -0.3, 0.3])
STARTS = {"fan": None, "one": 1}


def config(dim, kind, params, y_star, x_star, h_list=H_LIST, multistart=None):
    return {"dimension": dim, "potential": dict(kind=kind, params=params),
            "y_star": y_star, "x_star": x_star, "h_list": h_list,
            "shooting": {"multistart": multistart}}


def runs():
    """(name, command, config or None) of every run."""
    out = []
    for name, kind, params, y, x in PAIRS_1D:
        for way, (a, b) in (("fwd", (y, x)), ("rev", (x, y))):
            out.append((f"validate1d_{name}_{way}", "validate1d",
                        config(1, kind, params, a, b)))
            for starts, count in dict(STARTS, two=2).items():
                out.append((f"geodesic_d1_{name}_{way}_{starts}", "geodesic",
                            config(1, kind, params, a, b, multistart=count)))
    bump = config(1, "bump_well", BUMP, [-1.0], [1.0])
    out += [
        ("validate1d_bump_h01", "validate1d", dict(bump, h_list=[0.1])),
        ("validate1d_bump_shifted", "validate1d",
         config(1, "bump_well", BUMP, [-1.6], [0.4])),
        ("validate1d_bump_one", "validate1d", dict(bump, shooting={"multistart": 1})),
        ("validate1d_bump_centre03", "validate1d",
         config(1, "bump_well", dict(BUMP, center=0.3), [-1.0], [1.2])),
        ("validate1d_bump_h0005", "validate1d", dict(bump, h_list=[0.2, 0.005])),
        ("validate1d_bump_underflow", "validate1d", dict(bump, h_list=[0.2, 1e-6])),
    ]
    # across the flat stretch, where a shot's steps grow tenfold each
    flat = config(1, "bump_well", BUMP, [-4.0], [0.0])
    out.append(("validate1d_bump_flat", "validate1d", flat))
    for starts, count in STARTS.items():
        out.append((f"geodesic_d1_bump_flat_{starts}", "geodesic",
                    dict(flat, shooting={"multistart": count})))
    for dim in (1, 2, 3):
        ends = [[-0.5] + [0.0] * (dim - 1), [0.5] + [0.0] * (dim - 1)]
        for starts, count in STARTS.items():
            out.append((f"kernel_d{dim}_{starts}", "kernel",
                        config(dim, "constant", {"value": -0.6}, *ends, h_list=[0.2, 0.1, 0.05],
                               multistart=count)))
        out.append((f"constant_d{dim}", "constant",
                    config(dim, "constant", {"value": -0.6}, *ends)))
    for dim, pairs in PAIRS.items():
        for name, kind, params, y, x in pairs:
            for starts, count in STARTS.items():
                cfg = config(dim, kind, params, y, x, multistart=count)
                out.append((f"geodesic_d{dim}_{name}_{starts}", "geodesic", cfg))
                if dim == 3:
                    out.append((f"bmt_d3_{name}_{starts}", "bmt", cfg))
    name, kind, params, y, x = COSINE_FLAT
    for way, (a, b) in (("fwd", (y, x)), ("rev", (x, y))):
        out.append((f"geodesic_d3_{name}_flat_{way}_fan", "geodesic",
                    config(3, kind, params, a, b)))
    far = config(2, "constant", {"value": -0.6}, [-9e5, 0.0], [9e5, 0.0])
    out.append(("geodesic_d2_constant_far", "geodesic", far))
    # one start in d = 12, where the fan would hold 3^12 - 1 lattice directions
    out.append(("geodesic_d12_constant_one", "geodesic",
                config(12, "constant", {"value": -0.6}, [-0.5] + [0.0] * 11,
                       [0.5] + [0.0] * 11, multistart=1)))
    for name, kind, params in [("unknown_param", "bump_well", dict(BUMP, amp=0.1)),
                               ("bad_radius", "bump_well", dict(BUMP, radius=0.0)),
                               ("range", "bump_well", dict(BUMP, depth=0.5)),
                               ("unknown_kind", "nope", {}),
                               ("tanh_d2", "tanh_step", {"base": -0.5, "amp": 0.2})]:
        out.append((f"exit2_{name}", "geodesic",
                    config(2, kind, params, [-1.0, -0.3], [1.0, 0.4])))
    out.append(("selfcheck", "selfcheck", None))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as work:
        def run(spec):
            name, command, cfg = spec
            args = [sys.executable, "-m", "diracgreen.cli", command]
            if cfg is not None:
                path = Path(work) / f"{name}.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                args += ["--config", str(path)]
            proc = subprocess.run(args, capture_output=True, text=True, cwd=work, env=env)
            (outdir / f"{name}.out").write_text(proc.stdout, encoding="utf-8")
            (outdir / f"{name}.err").write_text(proc.stderr, encoding="utf-8")
            (outdir / f"{name}.code").write_text(f"{proc.returncode}\n", encoding="utf-8")
            return f"{name}: exit {proc.returncode}"

        # the runs are independent, so a few run at once; map yields their lines in run order
        with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, 4)) as pool:
            for line in pool.map(run, runs()):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
