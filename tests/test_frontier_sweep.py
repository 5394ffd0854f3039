"""``tools/frontier_sweep.py`` on the smallest pairs of the seed-1 corpus."""
import importlib.util
import json
from pathlib import Path

from cstarenv.corpus import write_corpus

_PATH = Path(__file__).resolve().parents[1] / "tools" / "frontier_sweep.py"
_SPEC = importlib.util.spec_from_file_location("frontier_sweep", _PATH)
frontier_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(frontier_sweep)


def test_sweep_of_the_ambient_2_pairs(tmp_path, capsys):
    manifest = write_corpus(tmp_path, seed=1, count=20)
    code = frontier_sweep.main([str(tmp_path), "--max-product", "4"])
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    # every ordered pair of the ambient-2 members, each with itself too
    docs = [json.loads((tmp_path / e["file"]).read_text()) for e in manifest["systems"]]
    small = [doc["name"] for doc in docs if doc["ambient_dim"] == 2]
    assert len(small) >= 2
    assert [line.split("  ")[0] for line in lines[:-1]] == [
        f"{a} (x) {b}" for a in small for b in small
    ]
    assert all(line.split("  ")[1] == "verified" for line in lines[:-1])
    assert code == 0
    assert summary["pairs"] == summary["verified"] == len(small) ** 2
    assert (summary["inconclusive"], summary["other"]) == (0, 0)
    assert set(summary) == {"pairs", "verified", "inconclusive", "other", "total_s"}
