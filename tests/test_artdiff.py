"""tools/artdiff.py: numeric fields may move in their digits; counts, flags and words may not."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "artdiff", Path(__file__).resolve().parents[1] / "tools" / "artdiff.py")
artdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artdiff)

GEODESIC = {"dA": 1.0631960255541948, "p0": [0.5, 0.2],
            "uniqueness": {"n_converged": 17, "n_distinct": 1, "multiple": False}}
CSV = "h,dA\n0.10000000000000001,0.97023732589110523\n# slope = 0.98\n# passed = true\n"


def _write(root, geodesic=GEODESIC, csv=CSV, code="0\n"):
    root.mkdir()
    (root / "geodesic.out").write_text(json.dumps(geodesic, indent=2))
    (root / "validate1d.out").write_text(csv)
    (root / "validate1d.code").write_text(code)
    return str(root)


def test_identical_directories_pass(tmp_path, capsys):
    assert artdiff.main([_write(tmp_path / "a"), _write(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "0 of 3 files differ\n"


def test_trailing_digits_are_reported_per_field(tmp_path, capsys):
    moved = dict(GEODESIC, dA=1.0631960255541932)
    csv = CSV.replace("0.97023732589110523", "0.97023732589110501")
    assert artdiff.main([_write(tmp_path / "a"), _write(tmp_path / "b", moved, csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 of 3 files differ\n  geodesic.out\n  validate1d.out\n")
    rows = {line.split()[0]: line.split() for line in out.splitlines()[5:]}
    assert set(rows) == {"dA"}
    assert float(rows["dA"][1]) == pytest.approx(1.5e-15, rel=0.01)
    assert rows["dA"][2:] == ["2", "geodesic.out"]


@pytest.mark.parametrize("change", [
    {"geodesic": dict(GEODESIC, uniqueness=dict(GEODESIC["uniqueness"], n_converged=16))},
    {"geodesic": dict(GEODESIC, p0=[0.5, 0.2, 0.1])},
    {"csv": CSV.replace("passed = true", "passed = false")},
    {"code": "3\n"},
], ids=["count", "length", "flag", "exit-code"])
def test_a_count_flag_or_word_fails(tmp_path, capsys, change):
    assert artdiff.main([_write(tmp_path / "a"), _write(tmp_path / "b", **change)]) == 1
    assert "non-numeric differences:" in capsys.readouterr().out


def test_a_missing_file_fails(tmp_path):
    old, new = _write(tmp_path / "a"), _write(tmp_path / "b")
    (tmp_path / "b" / "validate1d.code").unlink()
    assert artdiff.main([old, new]) == 1
