"""End-to-end command line behaviour: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracgreen import cli, geoflow, oracle1d
from diracgreen.clifford import build_dirac_rep
from diracgreen.kernel import constant_V_exact

CONST_1D = {
    "dimension": 1,
    "potential": {"kind": "constant", "params": {"value": -0.6}},
    "x_star": [0.5],
    "y_star": [-0.5],
    "h_list": [0.2, 0.1, 0.05],
}
CONST_2D = {
    "dimension": 2,
    "potential": {"kind": "constant", "params": {"value": -0.6}},
    "x_star": [0.5, 0.0],
    "y_star": [-0.5, 0.0],
    "h_list": [0.2, 0.1],
}
BUMP_1D = {
    "dimension": 1,
    "potential": {"kind": "bump_well",
                  "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}},
    "x_star": [1.0],
    "y_star": [-1.0],
    "h_list": [0.2, 0.1],
}
BUMP_3D = {
    "dimension": 3,
    "potential": {"kind": "bump_well",
                  "params": {"base": -0.6, "depth": 0.3, "radius": 2.0}},
    "x_star": [1.0, 0.4, -0.2],
    "y_star": [-1.0, -0.3, 0.2],
    "h_list": [0.1],
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_to_file(tmp_path, command, config, extra=(), name="out.txt"):
    out = tmp_path / name
    code = cli.main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out), *extra])
    return code, (out.read_text() if out.exists() else "")


# ------------------------------------------------------------------ selfcheck

def test_selfcheck_single_dimension(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["selfcheck", "--dim", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["n_checks"] >= 20
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tol", "pass"}
        assert check["pass"]


def test_selfcheck_fault_injection(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["selfcheck", "--dim", "1", "--inject-fault", "clifford",
                     "--out", str(out)])
    assert code == 1
    assert "clifford_relations_d1" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert not report["passed"]
    bad = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in bad] == ["clifford_relations_d1"]


# ------------------------------------------------------------------- geodesic

def test_geodesic_json_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "geodesic", CONST_2D)
    assert code == 0
    payload = json.loads(text)
    assert payload["tau"] == pytest.approx(0.75, abs=1e-9)
    assert payload["dA"] == pytest.approx(0.8, abs=1e-9)
    assert payload["bordered_det"] == pytest.approx(20.0 / 9.0, rel=1e-8)
    assert payload["det_exp_prime"] == pytest.approx(1.0, abs=1e-7)
    assert payload["conjugate"] is False
    assert payload["uniqueness"]["n_starts"] == 8
    assert payload["uniqueness"]["n_distinct"] == 1


def test_geodesic_conjugacy_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geoflow, "CONJUGACY_TOL", 1e6)
    code, _ = run_to_file(tmp_path, "geodesic", CONST_2D)
    assert code == 3
    assert "near-conjugate" in capsys.readouterr().err


def test_geodesic_far_from_the_origin(tmp_path):
    """At |x*| = 9e5 the float spacing (1.16e-10) exceeds 1e-10: Newton's stop test scales."""
    cfg = dict(CONST_2D, potential=dict(CONST_2D["potential"], box_half=1e6),
               x_star=[9e5, 0.0], y_star=[-9e5, 0.0])
    code, text = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 0
    assert json.loads(text)["dA"] == pytest.approx(1.44e6, rel=1e-12)


# --------------------------------------------------------------------- kernel

KERNEL_HEADER = ("h,g00_re,g00_im,g01_re,g01_im,g10_re,g10_im,g11_re,g11_im,"
                 "dA,det_exp_prime,ratio_re,ratio_im,abs_ratio_minus_1")


def test_kernel_csv_contract(tmp_path):
    code, text = run_to_file(tmp_path, "kernel", CONST_1D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == KERNEL_HEADER
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 3
    for row, h in zip(rows, (0.2, 0.1, 0.05)):
        cells = row.split(",")
        assert len(cells) == 14
        assert float(cells[0]) == h
        assert float(cells[9]) == pytest.approx(0.8, abs=1e-12)   # dA
        assert float(cells[13]) <= 1e-9                           # 1D is exact
    assert lines[-1].startswith("# slope = ")


@pytest.mark.parametrize("command,config", [
    ("geodesic", BUMP_1D),
    ("kernel", CONST_1D),
    ("validate1d", BUMP_1D),
    ("constant", CONST_2D),
    ("bmt", dict(BUMP_3D, shooting={"multistart": 1})),
], ids=["geodesic", "kernel", "validate1d", "constant", "bmt"])
def test_kernel_output_is_deterministic(tmp_path, command, config):
    code, first = run_to_file(tmp_path, command, config, name="a.out")
    _, second = run_to_file(tmp_path, command, config, name="b.out")
    assert code == 0
    assert first == second


# at d_A = 8, exp(-d_A/h) underflows to 0.0 at h = 0.01: no ratio exists
UNDERFLOW_2D = dict(CONST_2D, x_star=[5.0, 0.0], y_star=[-5.0, 0.0],
                    h_list=[0.2, 0.01], shooting={"multistart": 1})
UNDERFLOW_1D = dict(UNDERFLOW_2D, dimension=1, x_star=[5.0], y_star=[-5.0])


@pytest.mark.parametrize("command,config", [
    ("kernel", UNDERFLOW_2D),
    ("validate1d", UNDERFLOW_1D),
])
def test_underflowed_leading_kernel_is_a_numerical_failure(tmp_path, command, config,
                                                           capsys):
    code, _ = run_to_file(tmp_path, command, config)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_kernel_h_list_override(tmp_path):
    code, text = run_to_file(tmp_path, "kernel", CONST_1D,
                             extra=("--h-list", "0.1,0.05"))
    assert code == 0
    rows = [ln for ln in text.strip().split("\n")[1:] if not ln.startswith("#")]
    assert [float(r.split(",")[0]) for r in rows] == [0.1, 0.05]


def test_kernel_rejects_nonconstant_potential(tmp_path):
    code, _ = run_to_file(tmp_path, "kernel", BUMP_1D)
    assert code == 2


# ----------------------------------------------------------------- validate1d

def test_validate1d_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "validate1d", BUMP_1D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "h,dA,ratio_re,ratio_im,abs_ratio_minus_1"
    devs = [float(ln.split(",")[4]) for ln in lines[1:3]]
    assert devs[1] < devs[0]          # deviation shrinks with h
    assert lines[-2].startswith("# slope = ")
    assert lines[-1].startswith("# adjoint_residual = ")
    assert float(lines[-1].split("=")[1]) <= 1e-8


def test_validate1d_single_h_has_zero_slope(tmp_path):
    # one h gives no log-log fit; the sweep reports slope 0 rather than failing
    code, text = run_to_file(tmp_path, "validate1d", BUMP_1D, extra=("--h-list", "0.1"))
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.1
    assert lines[2] == "# slope = 0"
    assert float(lines[3].split("=")[1]) <= 1e-8


def test_validate1d_constant_control(tmp_path):
    code, text = run_to_file(tmp_path, "validate1d", CONST_1D)
    assert code == 0
    for line in text.strip().split("\n")[1:4]:
        assert float(line.split(",")[4]) <= 1e-9


def test_validate1d_requires_dimension_one(tmp_path):
    code, _ = run_to_file(tmp_path, "validate1d", CONST_2D)
    assert code == 2


TANH_1D = dict(BUMP_1D, potential={"kind": "tanh_step", "params": {"base": -0.6, "amp": 0.3}})
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,config", [("tanh", TANH_1D), ("bump", BUMP_1D)])
def test_validate1d_matches_its_golden_artifact(tmp_path, name, config):
    """The steep tanh and the bump at h = 0.2, 0.025, byte for byte."""
    code, text = run_to_file(tmp_path, "validate1d", config, extra=("--h-list", "0.2,0.025"))
    assert code == 0
    assert text == (DATA / f"validate1d_{name}.csv").read_text()


def test_validate1d_marches_once_per_side_per_h(tmp_path, monkeypatch):
    """G(y, x) for the adjoint check is glued from the last h's marches, not marched again."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(oracle1d, "solve_ivp", counting)
    code, _ = run_to_file(tmp_path, "validate1d", BUMP_1D)
    assert code == 0
    assert len(calls) == 2 * len(BUMP_1D["h_list"])


# ------------------------------------------------------------------- constant

def test_constant_rows_match_library(tmp_path):
    code, text = run_to_file(tmp_path, "constant", CONST_2D)
    assert code == 0
    lines = text.strip().split("\n")
    rep = build_dirac_rep(2)
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        h = cells[0]
        got = np.array(cells[1::2][:4]) + 1j * np.array(cells[2::2][:4])
        ref = constant_V_exact(rep, -0.6, [0.5, 0.0], [-0.5, 0.0], h).ravel()
        np.testing.assert_allclose(got, ref, rtol=1e-14)


def test_constant_emits_to_stdout_without_out(tmp_path, capsys):
    code = cli.main(["constant", "--config", write_config(tmp_path, CONST_1D)])
    assert code == 0
    assert capsys.readouterr().out.startswith("h,g00_re")


# ------------------------------------------------------------------------ bmt

def test_bmt_artifact(tmp_path):
    code, text = run_to_file(tmp_path, "bmt", BUMP_3D)
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "t,s1,s2,s3,abs_s,bmt2_residual"
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(rows) == 201
    for row in rows[:: 50]:
        cells = [float(c) for c in row.split(",")]
        assert cells[4] == pytest.approx(1.0, abs=1e-9)   # Bloch norm
    footers = {ln.split(" = ")[0]: ln.split(" = ")[1]
               for ln in lines[1:] if ln.startswith("#")}
    assert float(footers["# unitarity_defect"]) <= 1e-9
    assert float(footers["# residual_left_inverse"]) <= 1e-6
    assert footers["# best"] == "left_inverse"
    assert footers["# passed"] == "true"


def test_bmt_requires_dimension_three(tmp_path):
    code, _ = run_to_file(tmp_path, "bmt", CONST_2D)
    assert code == 2


# ------------------------------------------------------------- config handling

def bump_2d(**params):
    return {"kind": "bump_well",
            "params": dict({"base": -0.6, "depth": 0.3, "radius": 2.0}, **params)}


@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("potential"),
    lambda c: c.update(extra_field=1),
    lambda c: c.update(dimension=0),
    lambda c: c.update(x_star=[0.5]),                    # wrong length for d=2
    lambda c: c.update(y_star=c["x_star"]),              # coincident endpoints
    lambda c: c.update(h_list=[0.1, 0.2]),               # not decreasing
    lambda c: c.update(h_list=[2.0, 0.1]),               # h outside (0, 1]
    lambda c: c.update(potential={"kind": "nope"}),
    lambda c: c.update(ode={"bogus": 1.0}),
    lambda c: c.update(shooting={"allow_conjugate": True}),
    lambda c: c.update(dimension=True),                  # bool is not a dimension
    lambda c: c.update(x_star=[float("nan"), 0.0]),      # non-finite point
    lambda c: c.update(potential={"kind": "constant",    # outside the gap (-1, 0)
                                  "params": {"value": -1.5}}),
    lambda c: c.update(x_star=["a"]),                    # non-numeric point
    lambda c: c.update(x_star={"a": 1}),
    lambda c: c.update(h_list=["a"]),                    # non-numeric h
    lambda c: c.update(h_list=5),                        # not a list
    lambda c: c.update(ode={"rel_tol": "x"}),
    lambda c: c.update(ode="abc"),                       # not an object
    lambda c: c.update(ode={"abs_tol": -1}),             # non-positive tolerance
    lambda c: c.update(ode={"max_step": 0}),
    lambda c: c.update(shooting={"multistart": "x"}),
    lambda c: c.update(shooting={"max_iter": None}),
    lambda c: c.update(shooting=[1]),
    lambda c: c.update(shooting={"multistart": 0}),      # an empty fan
    lambda c: c.update(shooting={"newton_tol": 0}),      # non-positive shooting tolerance
    lambda c: c.update(shooting={"newton_tol": float("nan")}),
    lambda c: c.update(shooting={"merge_tol": -1}),
    lambda c: c.update(shooting={"conjugacy_tol": -1}),
    lambda c: c.update(h_list="1"),                      # h_list must be an array
    lambda c: c.update(h_list={"0.5": 1}),
    lambda c: c.update(potential=bump_2d(radius=0.0)),   # radius finite and positive
    lambda c: c.update(potential=bump_2d(radius=float("nan"))),
    lambda c: c.update(potential=bump_2d(radius=-2.0)),
    lambda c: c.update(potential=dict(bump_2d(radius=0.0), kind="cosine_well")),
    lambda c: c.update(potential=bump_2d(center=[0.0, 0.0, 0.0])),  # center of length d
    lambda c: c.update(dimension=1, x_star=[0.5], y_star=[-0.5],   # tanh: scalar center
                       potential={"kind": "tanh_step",
                                  "params": {"base": -0.5, "amp": 0.2, "center": [0.0]}}),
    lambda c: c.update(potential=dict(bump_2d(), window=float("nan"))),  # window covers
    lambda c: c.update(potential=dict(bump_2d(), window=-5.0)),          # the whole well
    lambda c: c.update(potential=dict(bump_2d(), box_half=float("nan"))),  # box finite and
    lambda c: c.update(potential=dict(bump_2d(), box_half=-1.0)),          # covers the window
    lambda c: c.update(potential=dict(bump_2d(), delta=float("nan"))),     # margin positive
    lambda c: c.update(potential=dict(bump_2d(), delta=-0.5)),
    lambda c: c.update(potential={"kind": "bump_well",                     # misspelt center
                                  "params": dict(bump_2d()["params"], centre=[3.0, 0.0])}),
    lambda c: c.update(potential=dict(bump_2d(), box_halff=5.0)),          # unknown field
    lambda c: c.update(shooting={"max_iter": True}),                       # a bool is no count
    lambda c: c.update(shooting={"multistart": True}),
    lambda c: c.update(shooting={"newton_tol": True}),                     # read as 1.0
    lambda c: c.update(x_star=[True, False]),                              # read as [1, 0]
    lambda c: c.update(h_list=[True, 0.5]),                                # read as [1, 0.5]
    lambda c: c.update(shooting={"multistart": 2.7}),                      # a count is whole
    lambda c: c.update(shooting={"max_iter": 2.5}),
    lambda c: c.update(shooting={"max_iter": float("inf")}),               # no int for inf
    lambda c: c.update(potential=bump_2d(radius=True)),                    # read as 1.0
    lambda c: c.update(potential=dict(c["potential"], window=True)),
    lambda c: c.update(potential=dict(c["potential"], box_half=True)),
    lambda c: c.update(potential=bump_2d(center=True)),
    lambda c: c.update(dimension=1, x_star=[0.5], y_star=[-0.5],
                       potential={"kind": "tanh_step",
                                  "params": {"base": -0.5, "amp": 0.2, "center": False}}),
    lambda c: c.update(ode={"max_step": 0.5}),                             # not an option
    lambda c: c.update(potential=dict(c["potential"], box_half=1e308),     # |x - y| overflows
                       x_star=[1e308, 0.1], y_star=[-1e308, 0.0]),
])
def test_config_rejection_paths(tmp_path, mutate, capsys):
    cfg = json.loads(json.dumps(CONST_2D))
    mutate(cfg)
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("h_list", ["0.2,1e-6", "0.2,1e-100"])
def test_validate1d_underflowing_kernel_exits_3(tmp_path, h_list):
    """Where e^(-d_A/h) underflows, validate1d names d_A/h and exits 3 before the oracle runs."""
    proc = subprocess.run(
        [sys.executable, "-m", "diracgreen.cli", "validate1d", "--config",
         write_config(tmp_path, BUMP_1D), "--h-list", h_list],
        capture_output=True, text=True, timeout=15, env=_src_env())
    assert proc.returncode == 3
    assert "d_A/h" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("h_list", ["0.2,0.002", "0.2,0.0015"])
def test_validate1d_tiny_kernel_keeps_its_ratio(tmp_path, h_list):
    """A kernel near 1e-211 or 1e-281 is not zero: the norms are taken after an exact rescale."""
    proc = subprocess.run(
        [sys.executable, "-m", "diracgreen.cli", "validate1d", "--config",
         write_config(tmp_path, BUMP_1D), "--h-list", h_list],
        capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.strip().split("\n")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:3]]
    footer = [float(line.split("=")[1]) for line in lines[3:]]
    assert len(footer) == 2 and np.all(np.isfinite(rows)) and np.all(np.isfinite(footer))
    assert abs(rows[1][2] - 1.0) < 1e-2     # ratio_re at the small h


def test_shooting_failure_tallies_start_outcomes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geoflow, "MAX_ITER", 1)
    cfg = dict(CONST_2D, potential=bump_2d(), x_star=[1.0, 0.4], y_star=[-1.0, -0.3])
    code, _ = run_to_file(tmp_path, "geodesic", cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert "no connecting orbit found from 8 start directions: " in err
    tally = err.strip().split("start directions: ")[1].split(", ")
    assert "8 max_iter" in tally
    assert sum(int(item.split(" ")[0]) for item in tally) == 8


def test_missing_and_unreadable_configs(tmp_path, capsys):
    assert cli.main(["geodesic"]) == 2
    assert cli.main(["geodesic", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["geodesic", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_bad_h_list_override(tmp_path):
    code, _ = run_to_file(tmp_path, "kernel", CONST_1D, extra=("--h-list", "0.05,0.1"))
    assert code == 2


def test_out_path_from_config(tmp_path):
    target = tmp_path / "from_config.csv"
    cfg = dict(CONST_1D, out=str(target))
    code = cli.main(["constant", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    assert target.read_text().startswith("h,g00_re")


# ------------------------------------------------------------ config fuzz

FUZZ_CONFIG = {
    "dimension": 2,
    "potential": {"kind": "constant", "params": {"value": -0.6},
                  "delta": 0.3, "window": 1.0, "box_half": 12.0},
    "x_star": [0.5, 0.1],
    "y_star": [-0.5, 0.0],
    "h_list": [0.2, 0.1],
    "shooting": {"multistart": 4},
    "out": "unused.csv",
}
# the constant command rejects this well after parsing it, so it exits 2 when unmutated
FUZZ_WELL = dict(FUZZ_CONFIG, potential={
    "kind": "bump_well", "params": {"base": -0.6, "depth": 0.3, "radius": 2.0,
                                    "center": [0.25, -0.5]},
    "delta": 0.05, "window": 3.0, "box_half": 12.0})
FUZZ_MENU = [float("nan"), float("inf"), -float("inf"), -1, 0, 2, 0.5, -0.5, 1e308,
             -1e308, 5e-324, True, False, "x", "0.5", [], {}, None, [True, 0.5],
             [0.5], [[0.5, 0.5]], {"value": -0.6}]


def _key_paths(node, path=()):
    """Every key or index path into a JSON tree, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _mutated(config, path, edit):
    cfg = json.loads(json.dumps(config))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return cfg


def _fuzz_exit(tmp_path, cfg):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["constant", "--config", str(path), "--out", str(tmp_path / "fuzz.csv")])


def test_fuzz_renamed_keys_exit_2(tmp_path, capsys):
    """Every config object rejects a key it does not know: a typo never exits 0."""
    assert _fuzz_exit(tmp_path, FUZZ_CONFIG) == 0
    findings = []
    for path in _key_paths(FUZZ_CONFIG):
        if isinstance(path[-1], str):
            cfg = _mutated(FUZZ_CONFIG, path,
                           lambda obj, key: obj.__setitem__(key + "_x", obj.pop(key)))
            code = _fuzz_exit(tmp_path, cfg)
            if code != 2:
                findings.append((path, code))
    capsys.readouterr()
    assert findings == []


@pytest.mark.parametrize("config", [FUZZ_CONFIG, FUZZ_WELL], ids=["constant", "well"])
def test_fuzz_every_field_exits_0_2_or_3(tmp_path, capsys, config):
    """Each value of a fixed menu in each field: a documented exit code, never an exception."""
    findings = []
    for path in _key_paths(config):
        for value in FUZZ_MENU:
            cfg = _mutated(config, path, lambda obj, key: obj.__setitem__(key, value))
            try:
                code = _fuzz_exit(tmp_path, cfg)
            except Exception as exc:   # any escape is a finding, reported all at once
                findings.append((path, value, repr(exc)))
                continue
            if code not in (0, 2, 3):
                findings.append((path, value, code))
    capsys.readouterr()
    assert findings == []
