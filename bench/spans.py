"""In-memory span tracer for the traced benchmark run.

While installed, the tracer replaces public functions of the package, and
``solve_ivp`` as each solver module imports it, by wrappers that record a
span: name, start, end, parent span, op id.  The program itself is not
edited; uninstalling restores every original binding.

Functions called tens of thousands of times per op (the potential
evaluations, Bessel K) are *leaves*: instead of one span per call they add
a call count and a duration to the innermost open span, which keeps the
span list small and the overhead low while still carving their time out of
the caller's self time.

A span's self time is its duration minus its child spans and leaves.  The
layer of a span or leaf is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# name -> (module, attribute); wrapped wherever the package binds the object
SPAN_FUNCTIONS = {
    "geoflow.shoot_geodesic": ("diracgreen.geoflow", "shoot_geodesic"),
    "geoflow.integrate_flow": ("diracgreen.geoflow", "integrate_flow"),
    "oracle1d.exact_green_kernel_1d": ("diracgreen.oracle1d", "exact_green_kernel_1d"),
    "transport.solve_spinor_transport": ("diracgreen.transport", "solve_spinor_transport"),
    "bmt.solve_bmt_spin": ("diracgreen.bmt", "solve_bmt_spin"),
    "bmt.equivalence_check": ("diracgreen.bmt", "equivalence_check"),
    "kernel.leading_kernel_1d": ("diracgreen.kernel", "leading_kernel_1d"),
    "kernel.leading_kernel_multid": ("diracgreen.kernel", "leading_kernel_multid"),
    "kernel.ratio_sweep": ("diracgreen.kernel", "ratio_sweep"),
    "clifford.projector": ("diracgreen.clifford", "projector"),
    "clifford.build_dirac_rep": ("diracgreen.clifford", "build_dirac_rep"),
}
LEAF_FUNCTIONS = {
    "kernel.bessel_K": ("diracgreen.kernel", "bessel_K"),
}
LEAF_METHODS = {
    "potential.evaluate": ("diracgreen.potential", "PotentialModel", "evaluate"),
    "potential.value": ("diracgreen.potential", "PotentialModel", "value"),
}
# solve_ivp is one object bound in four namespaces; each gets its own span
# name so integrator work is attributed to the layer that asked for it
SOLVER_MODULES = ("geoflow", "oracle1d", "transport", "bmt")

OP_SPAN = "cli.main"
LAYERS = ("cli", "geoflow", "potential", "oracle1d", "transport", "bmt",
          "kernel", "clifford")

NAME, START, END, PARENT, OP, ATTRS, LEAVES = range(7)


def _shoot_attrs(args, kwargs, out):
    uniq = out.uniqueness
    return {"starts": uniq["n_starts"], "converged": uniq["n_converged"]}


def _flow_attrs(args, kwargs, out):
    opts = kwargs.get("opts", args[4] if len(args) > 4 else None)
    return {"rtol": None if opts is None else opts.rel_tol}


def _solver_attrs(args, kwargs, out):
    return {"nfev": int(out.nfev)}


ATTRS_OF = {
    "geoflow.shoot_geodesic": _shoot_attrs,
    "geoflow.integrate_flow": _flow_attrs,
}


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None

    # -- recording ------------------------------------------------------

    def begin(self, op):
        """Open the root span of one op."""
        self.op = op
        rec = [OP_SPAN, perf_counter(), None, self._stack[-1] if self._stack else None,
               op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

    def end(self):
        self.spans[self._stack.pop()][END] = perf_counter()

    def _span_wrapper(self, name, fn, attrs_of=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, None, stack[-1] if stack else None, self.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                rec[ATTRS] = attrs_of(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    rec = spans[stack[-1]]
                    leaves = rec[LEAVES]
                    if leaves is None:
                        leaves = rec[LEAVES] = {}
                    entry = leaves.get(name)
                    if entry is None:
                        leaves[name] = [1, dt]
                    else:
                        entry[0] += 1
                        entry[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "diracgreen" and not mod_name.startswith("diracgreen."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            self._rebind_everywhere(
                original, self._span_wrapper(name, original, ATTRS_OF.get(name)))
        for name, (mod, attr) in LEAF_FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            self._rebind_everywhere(original, self._leaf_wrapper(name, original))
        for name, (mod, cls_name, attr) in LEAF_METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            self._set(cls, attr, self._leaf_wrapper(name, getattr(cls, attr)))
        for layer in SOLVER_MODULES:
            module = sys.modules[f"diracgreen.{layer}"]
            self._set(module, "solve_ivp",
                      self._span_wrapper(f"{layer}.solve_ivp", module.solve_ivp,
                                         _solver_attrs))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                row = {"id": i, "name": rec[NAME], "start": rec[START],
                       "end": rec[END], "parent": rec[PARENT], "op": rec[OP]}
                if rec[ATTRS]:
                    row["attrs"] = rec[ATTRS]
                if rec[LEAVES]:
                    row["leaves"] = {k: {"calls": c, "s": s}
                                     for k, (c, s) in rec[LEAVES].items()}
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans, speed, default_rtol):
    """Per-layer metrics, per op, from the recorded spans.

    ``speed`` maps each traced op id to the factor that scales its times to
    the reference machine speed.  ``default_rtol`` is the fan tolerance of
    the workload configs: geoflow flows integrated below it are the
    tightened polish stage.
    """
    n_ops = len(speed)
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += (rec[END] - rec[START]) * speed[rec[OP]]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = defaultdict(int)
    incl = defaultdict(float)
    nfev = defaultdict(int)
    leaf_calls = defaultdict(int)
    leaf_s = defaultdict(float)
    polish_s = 0.0
    starts = converged = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        scale = speed[rec[OP]]
        dur = (rec[END] - rec[START]) * scale
        own = dur - child[i]
        for leaf, (count, secs) in (rec[LEAVES] or {}).items():
            secs *= scale
            leaf_calls[leaf] += count
            leaf_s[leaf] += secs
            self_s[leaf.split(".", 1)[0]] += secs
            own -= secs
        self_s[name.split(".", 1)[0]] += own
        calls[name] += 1
        incl[name] += dur
        attrs = rec[ATTRS] or {}
        if name.endswith(".solve_ivp"):
            nfev[name.split(".", 1)[0]] += attrs["nfev"]
        elif name == "geoflow.integrate_flow":
            rtol = attrs.get("rtol")
            if rtol is not None and rtol < default_rtol:
                polish_s += dur
        elif name == "geoflow.shoot_geodesic":
            starts += attrs["starts"]
            converged += attrs["converged"]

    def per_op(value):
        return value / n_ops

    flow_s = incl["geoflow.integrate_flow"]
    n_shoots = calls["geoflow.shoot_geodesic"]
    out = {f"{layer}.self_s": (per_op(self_s[layer]), "s/op") for layer in LAYERS}
    out.update({
        "geoflow.shoot_geodesic.calls": (per_op(n_shoots), "1/op"),
        "geoflow.shoot_geodesic.s": (per_op(incl["geoflow.shoot_geodesic"]), "s/op"),
        "geoflow.integrate_flow.calls": (per_op(calls["geoflow.integrate_flow"]), "1/op"),
        "geoflow.integrate_flow.s": (per_op(flow_s), "s/op"),
        "geoflow.nfev": (per_op(nfev["geoflow"]), "1/op"),
        "geoflow.s_per_rhs": (flow_s / nfev["geoflow"] if nfev["geoflow"] else 0.0, "s"),
        "geoflow.polish.s": (per_op(polish_s), "s/op"),
        "geoflow.fan.starts": (starts / n_shoots if n_shoots else 0.0, "1/shoot"),
        "geoflow.fan.converged_ratio": (converged / starts if starts else 0.0, "ratio"),
        "potential.evaluate.calls": (per_op(leaf_calls["potential.evaluate"]), "1/op"),
        "potential.evaluate.s": (per_op(leaf_s["potential.evaluate"]), "s/op"),
        "potential.value.calls": (per_op(leaf_calls["potential.value"]), "1/op"),
        "potential.value.s": (per_op(leaf_s["potential.value"]), "s/op"),
        "oracle1d.exact_green_kernel_1d.calls":
            (per_op(calls["oracle1d.exact_green_kernel_1d"]), "1/op"),
        "oracle1d.exact_green_kernel_1d.s":
            (per_op(incl["oracle1d.exact_green_kernel_1d"]), "s/op"),
        "oracle1d.segments": (per_op(calls["oracle1d.solve_ivp"]), "1/op"),
        "oracle1d.nfev": (per_op(nfev["oracle1d"]), "1/op"),
        "transport.solve_spinor_transport.calls":
            (per_op(calls["transport.solve_spinor_transport"]), "1/op"),
        "transport.solve_spinor_transport.s":
            (per_op(incl["transport.solve_spinor_transport"]), "s/op"),
        "transport.nfev": (per_op(nfev["transport"]), "1/op"),
        "bmt.solve_bmt_spin.calls": (per_op(calls["bmt.solve_bmt_spin"]), "1/op"),
        "bmt.solve_bmt_spin.s": (per_op(incl["bmt.solve_bmt_spin"]), "s/op"),
        "bmt.nfev": (per_op(nfev["bmt"]), "1/op"),
        "bmt.equivalence_check.s": (per_op(incl["bmt.equivalence_check"]), "s/op"),
        "kernel.leading_kernel.s": (per_op(incl["kernel.leading_kernel_1d"]
                                           + incl["kernel.leading_kernel_multid"]), "s/op"),
        "kernel.ratio_sweep.s": (per_op(incl["kernel.ratio_sweep"]), "s/op"),
        "kernel.bessel_K.calls": (per_op(leaf_calls["kernel.bessel_K"]), "1/op"),
        "clifford.projector.calls": (per_op(calls["clifford.projector"]), "1/op"),
        "clifford.projector.s": (per_op(incl["clifford.projector"]), "s/op"),
        "clifford.build_dirac_rep.s": (per_op(incl["clifford.build_dirac_rep"]), "s/op"),
    })
    return out
