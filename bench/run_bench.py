"""diracgreen benchmark: CLI ops on seeded configs, closed loop, one process.

Usage (from the repository root)::

    python3 bench/run_bench.py --workload geodesic-fan --seed 0 --seconds 25 --trace 0

Each op is one ``diracgreen.cli.main(argv)`` call on a generated config,
run in this process with its artifact written to a temporary file and then
checked.  The loop is closed: one caller, the next op starts when the last
one returned.  A run draws whole rounds of ops (``workloads.py``), as many
as fit the requested seconds best but at least one.

Times are reported at a reference machine speed.  The host is shared: one
identical 0.3 s op measured 0.21-0.44 s, in slow phases that last from
seconds to whole minutes, so raw wall times of two runs of the same code
differ by up to 1.7x.  Before and after every op the run times a fixed
reference kernel (``reference_s``: DOP853 on a small Python right-hand
side, the same kind of work as the package's flows, and independent of the
package), and scales the op's wall time by REFERENCE_NOMINAL_S over the
mean of the two.  On a 180 s probe the 20 s-window medians of raw op time
spread by 12.5% (interquartile over median) and those of the scaled time
by 3.1%.  Raw figures are printed next to the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same ops, prints the per-layer metrics
from the traced pass (``spans.py``) and the tracing overhead, and writes
the spans as JSONL.  End-to-end numbers never come from traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(machine, git SHA, seed, sample counts, failures, raw times) goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
TAIL_SAMPLES = 10   # samples that must lie beyond the reported tail percentile
# reference_s() on an idle Intel Xeon 2-vCPU host (Python 3.11, scipy 1.17)
REFERENCE_NOMINAL_S = 0.010
REFERENCE_SAMPLES = 5

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, RoundSource  # noqa: E402
from checks import check_artifact  # noqa: E402


def _die(message):
    print(f"run_bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import the package from this checkout's sources (the 'build' step)."""
    if not (SRC / "diracgreen" / "cli.py").is_file():
        _die(f"package sources not found under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import diracgreen.cli as cli
    return cli


def _reference_rhs(t, y):
    x, p = y[:3], y[3:]
    out = np.empty_like(y)
    out[:3] = p / math.sqrt(1.0 + float(p @ p))
    out[3:] = -x * math.exp(-float(x @ x))
    return out


def reference_s():
    """Median wall time of a fixed DOP853 solve: the machine's current speed."""
    y0 = np.array([1.0, 0.2, -0.3, 0.0, 0.5, 0.1])
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        solve_ivp(_reference_rhs, (0.0, 20.0), y0, method="DOP853",
                  rtol=1e-10, atol=1e-12)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def setup_probe(workload_name):
    """Child mode: import the package, parse a round of configs, say ready."""
    cli = _import_package()
    for op in RoundSource(WORKLOADS[workload_name], seed=0).next_round():
        cli.RunConfig.from_dict(op.config)
    print("ready", flush=True)


def measure_setup(workload_name):
    """Spawn-to-ready wall times of fresh interpreters: (raw, scaled) lists."""
    raw, scaled = [], []
    ref = reference_s()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            _die(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
        ref_after = reference_s()
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_NOMINAL_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    return raw, scaled


class OpRunner:
    """Runs ops through the CLI entry point and checks their artifacts.

    ``results`` holds, per op id, (raw wall, scaled wall, failure or None).
    """

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = Path(workdir)
        self.pairs = {}
        self.results = []
        self.failures = []
        self._ref = None

    @property
    def attempted(self):
        return len(self.results)

    def run(self, op, tracer=None):
        op_id = len(self.results)
        cfg_path = self.workdir / f"op{op_id}.json"
        out_path = self.workdir / f"op{op_id}.out"
        cfg_path.write_text(json.dumps(op.config), encoding="utf-8")
        argv = [op.command, "--config", str(cfg_path), "--out", str(out_path)]
        ref_before = self._ref if self._ref is not None else reference_s()
        reason = None
        if tracer is not None:
            tracer.begin(op_id)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            reason = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        self._ref = reference_s()
        if reason is None and code != 0:
            reason = f"exit code {code}"
        if reason is None:
            reason = check_artifact(out_path.read_text(encoding="utf-8"), op, self.pairs)
        for path in (cfg_path, out_path):
            path.unlink(missing_ok=True)
        if reason is not None:
            self.failures.append({"op": op_id, "label": op.label, "reason": reason})
        scaled = wall * REFERENCE_NOMINAL_S / (0.5 * (ref_before + self._ref))
        self.results.append((wall, scaled, reason))
        return op_id


def run_passes(runner, source, seconds, tracers):
    """Run len(tracers) passes over one set of ops.

    ``tracers[p]`` is installed for pass p (None runs it untraced).  The
    first round's first pass fixes how many rounds the set holds, so that
    all passes together last about ``seconds``, but at least one round.
    Returns the ops and, per pass, the op ids the runner gave them.
    """
    ops, first = [], []
    target = None
    t_start = time.perf_counter()
    while target is None or len(ops) < target:
        batch = source.next_round()
        first += _run_pass(runner, batch, tracers[0])
        ops += batch
        if target is None:
            per_round = time.perf_counter() - t_start
            target = len(batch) * max(1, round(seconds / (len(tracers) * per_round)))
    return ops, [first] + [_run_pass(runner, ops, tracer) for tracer in tracers[1:]]


def _run_pass(runner, ops, tracer):
    if tracer is None:
        return [runner.run(op) for op in ops]
    tracer.install()
    try:
        return [runner.run(op, tracer) for op in ops]
    finally:
        tracer.uninstall()


def _percentile(sorted_values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_latency(walls):
    """Highest percentile with TAIL_SAMPLES samples beyond it, never below p50.

    With fewer than 2 * TAIL_SAMPLES ops that percentile would fall under
    the median, so the median is reported and labelled as such.
    """
    ordered = sorted(walls)
    q = max(0.5, 1.0 - TAIL_SAMPLES / len(ordered))
    return _percentile(ordered, q), q


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info():
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(runner, source, seconds, setup):
    t0 = time.perf_counter()
    ops, (op_ids,) = run_passes(runner, source, seconds, [None])
    window = time.perf_counter() - t0
    passed = [runner.results[i] for i in op_ids if runner.results[i][2] is None]
    extra = {"window_s": window, "op_samples": len(passed),
             "op_s": [[op.label, *runner.results[i]] for op, i in zip(ops, op_ids)]}
    if not passed:
        return {}, extra
    raw = [r[0] for r in passed]
    scaled = [r[1] for r in passed]
    tail, q = tail_latency(scaled)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra.update({
        "op_tail_percentile": 100.0 * q,
        "raw_ops_per_s": len(passed) / window,
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": tail_latency(raw)[0],
        "raw_setup_s": statistics.median(setup[0]),
        "speed_vs_reference": statistics.median(s / w for w, s in zip(raw, scaled)),
    })
    return metrics, extra


def per_layer(runner, source, seconds, trace_path):
    from diracgreen.geoflow import OdeOpts
    from spans import LAYERS, Tracer, layer_metrics

    tracer = Tracer()
    _, (plain, traced) = run_passes(runner, source, seconds, [None, tracer])
    tracer.write_jsonl(trace_path)
    speed = {i: runner.results[i][1] / runner.results[i][0] for i in traced}
    metrics = layer_metrics(tracer.spans, speed, OdeOpts().rel_tol)
    traced_s = sum(runner.results[i][1] for i in traced)
    accounted = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) * len(traced)
    metrics["trace.overhead_ratio"] = (
        traced_s / sum(runner.results[i][1] for i in plain), "ratio")
    metrics["trace.accounted_ratio"] = (accounted / traced_s, "ratio")
    metrics["trace.ops"] = (float(len(traced)), "count")
    extra = {"traced_ops": len(traced), "spans": len(tracer.spans),
             "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.seconds < 1:
        _die("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    cli = _import_package()
    setup = measure_setup(workload.name) if not args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    source = RoundSource(workload, args.seed)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as workdir:
        runner = OpRunner(cli, workdir)
        if args.trace:
            metrics, extra = per_layer(runner, source, args.seconds,
                                       OUT_DIR / f"trace-{stem}.jsonl")
        else:
            metrics, extra = end_to_end(runner, source, args.seconds, setup)

    failed = len(runner.failures)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": workload.name, "why": workload.why, "loads": workload.loads,
        "bypasses": workload.bypasses, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "machine": machine_info(),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "attempted": runner.attempted, "failed": failed,
        "fail_ratio": failed / runner.attempted, "failures": runner.failures[:20],
        "metrics": metrics_json, **extra,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")

    print(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {workload.why}")
    print(f"  loads: {workload.loads}; bypasses: {workload.bypasses}")
    print(f"  machine: {json.dumps(record['machine'])}; git {record['git_sha']}")
    for key, value in extra.items():
        if key != "op_s":  # per-op times go to the record only
            print(f"  {key}: {value}")
    print(f"  ops attempted {runner.attempted}, failed {failed} "
          f"(fail_ratio {record['fail_ratio']:.4g})")
    for fail in runner.failures[:5]:
        print(f"  FAILED op {fail['op']} {fail['label']}: {fail['reason']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
