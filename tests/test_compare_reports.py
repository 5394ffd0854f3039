"""``tools/compare_reports.py`` on small fixed report trees."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)

REPORT = {
    "name": "state_sum",
    "blocks": [[2, 1], [1, 1]],
    "silov_killed": {"dk": [2], "lattice": [2], "agreement": True},
    "isometry": {"residual": 4.0e-16, "min_eig": -2.0e-16},
    "propagation": None,
}


def write_tree(root: Path, files: dict) -> Path:
    for name, doc in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
    return root


def run(capsys, a, b):
    code = compare_reports.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_identical_trees(tmp_path, capsys):
    a = write_tree(tmp_path / "a", {"x.analysis.json": REPORT, "sub/summary.json": [1, "ok"]})
    b = write_tree(tmp_path / "b", {"x.analysis.json": REPORT, "sub/summary.json": [1, "ok"]})
    code, lines, summary = run(capsys, a, b)
    assert code == 0
    assert summary == {
        "files": 2,
        "only_a": [],
        "only_b": [],
        "differences": 0,
        "max_rel_float": 0.0,
    }
    assert lines == [
        "sub/summary.json: largest relative float difference 0.000e+00",
        "x.analysis.json: largest relative float difference 0.000e+00",
    ]


def test_float_differences_are_measured_but_pass(tmp_path, capsys):
    moved = json.loads(json.dumps(REPORT))
    moved["isometry"]["residual"] = 5.0e-16
    a = write_tree(tmp_path / "a", {"r.json": REPORT})
    b = write_tree(tmp_path / "b", {"r.json": moved})
    code, lines, summary = run(capsys, a, b)
    assert code == 0
    assert summary["differences"] == 0
    assert summary["max_rel_float"] == pytest.approx(0.2, rel=1e-12)
    assert lines == ["r.json: largest relative float difference 2.000e-01"]


def test_missing_files_and_non_float_differences_fail(tmp_path, capsys):
    changed = json.loads(json.dumps(REPORT))
    changed["silov_killed"]["agreement"] = False
    changed["blocks"] = [[2, 1]]
    changed["propagation"] = {"value": 2}
    del changed["name"]
    changed["extra"] = 1
    a = write_tree(tmp_path / "a", {"r.json": REPORT, "left.json": {}})
    b = write_tree(tmp_path / "b", {"r.json": changed, "right.json": {}})
    code, lines, summary = run(capsys, a, b)
    assert code == 1
    assert summary["only_a"] == ["left.json"] and summary["only_b"] == ["right.json"]
    assert summary["files"] == 1 and summary["differences"] == 5
    assert lines == [
        "only in A: left.json",
        "only in B: right.json",
        "r.json: $.name: only in A",
        "r.json: $.blocks: length 2 vs 1",
        "r.json: $.silov_killed.agreement: true vs false",
        'r.json: $.propagation: null vs {"value": 2}',
        "r.json: $.extra: only in B",
        "r.json: largest relative float difference 0.000e+00",
    ]


def test_an_integer_is_not_a_float(tmp_path, capsys):
    # 1 and 1.0 print differently, so the report bytes differ
    a = write_tree(tmp_path / "a", {"r.json": {"v": 1}})
    b = write_tree(tmp_path / "b", {"r.json": {"v": 1.0}})
    code, lines, summary = run(capsys, a, b)
    assert code == 1 and summary["differences"] == 1
    assert lines[0] == "r.json: $.v: 1 vs 1.0"
