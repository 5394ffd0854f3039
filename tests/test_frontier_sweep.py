"""``tools/frontier_sweep.py`` on the pairs of the seed-1 corpus up to product ambient 6."""
import importlib.util
import json
from pathlib import Path

from cstarenv.corpus import write_corpus

_PATH = Path(__file__).resolve().parents[1] / "tools" / "frontier_sweep.py"
_SPEC = importlib.util.spec_from_file_location("frontier_sweep", _PATH)
frontier_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(frontier_sweep)


def test_sweep_up_to_product_ambient_6(tmp_path, capsys):
    manifest = write_corpus(tmp_path, seed=1, count=20)
    code = frontier_sweep.main([str(tmp_path), "--max-product", "6"])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    # every ordered pair of members of ambient at least 2 whose product is
    # at most 6, each member with itself too, in manifest order
    docs = [json.loads((tmp_path / e["file"]).read_text()) for e in manifest["systems"]]
    ambient = {doc["name"]: doc["ambient_dim"] for doc in docs if doc["ambient_dim"] >= 2}
    expected = [f"{a} (x) {b}" for a in ambient for b in ambient if ambient[a] * ambient[b] <= 6]
    rows = [line.split("  ") for line in lines[:-1]]
    assert [row[0] for row in rows] == expected
    assert all(row[1] == "verified" for row in rows)
    assert code == 0
    assert summary["pairs"] == summary["verified"] == len(expected) == 88
    assert (summary["inconclusive"], summary["other"]) == (0, 0)
    assert set(summary) == {"pairs", "verified", "inconclusive", "other", "total_s"}
    # the state sums have two blocks, so their pairs with ambient-2 members
    # kill pair blocks, certified from the factors' certificates
    killed = {row[0]: row[2] for row in rows}
    state_sums = [n for n in ambient if n.startswith("state_sum") and ambient[n] == 3]
    small = [name for name in ambient if ambient[name] == 2]
    assert len(state_sums) >= 2 and len(small) >= 2
    for a in state_sums:
        for b in small:
            assert killed[f"{a} (x) {b}"] == "killed [(2, 1)]", (a, b)
            assert killed[f"{b} (x) {a}"] == "killed [(1, 2)]", (a, b)
