"""The verdicts of ``tools/alternate_bench.py`` on fixed numbers."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "alternate_bench.py"
_SPEC = importlib.util.spec_from_file_location("alternate_bench", _PATH)
alternate_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(alternate_bench)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "better": "higher", "bound": 0.25}
# ten parent runs: quartiles 0.09775 / 0.1 / 0.10225 (exclusive method), IQR 4.5 %
PARENT = [0.096, 0.097, 0.098, 0.099, 0.1, 0.1, 0.101, 0.102, 0.103, 0.104]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize(
    "change, expected",
    [
        # 20 % faster in every pair: a gain, and no regression
        (scaled(PARENT, 0.8), ("ok", "gain")),
        # 20 % slower: inside the 25 % bound, so no regression, and no gain
        (scaled(PARENT, 1.2), ("ok", "no gain")),
        # 30 % slower: past the bound
        (scaled(PARENT, 1.3), ("regression", "no gain")),
        # faster in 8 of 10 pairs by more than the IQR: too few wins to claim
        (scaled(PARENT[:8], 0.8) + scaled(PARENT[8:], 1.1), ("ok", "no gain")),
        # faster in every pair, but by less than the parent's IQR
        (scaled(PARENT, 0.99), ("ok", "no gain")),
    ],
)
def test_verdicts_on_a_tight_parent(change, expected):
    assert alternate_bench.verdicts(WALL, PARENT, change) == expected


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # quartiles 0.09 / 0.12 / 0.15: an IQR of 50 % of the median
    parent = [0.08, 0.09, 0.09, 0.1, 0.11, 0.13, 0.14, 0.15, 0.15, 0.16]
    assert alternate_bench.verdicts(WALL, parent, scaled(parent, 1.1)) == (
        "unresolved",
        "no gain",
    )
    # even a median far past the bound is unresolved at that spread
    assert alternate_bench.verdicts(WALL, parent, scaled(parent, 1.4))[0] == "unresolved"
    # unless every change run beats every parent run
    assert alternate_bench.verdicts(WALL, parent, [0.05] * 10) == ("ok", "gain")


def test_higher_is_better_metrics_turn_the_verdicts_around():
    assert alternate_bench.verdicts(RATE, PARENT, scaled(PARENT, 1.2)) == ("ok", "gain")
    assert alternate_bench.verdicts(RATE, PARENT, scaled(PARENT, 0.7)) == (
        "regression",
        "no gain",
    )


def test_ties_count_for_neither_side():
    # nine wins and one tie of ten pairs still meet the nine-tenths rule
    change = scaled(PARENT[:9], 0.8) + PARENT[9:]
    assert alternate_bench.verdicts(WALL, PARENT, change) == ("ok", "gain")
    change = scaled(PARENT[:8], 0.8) + PARENT[8:]
    assert alternate_bench.verdicts(WALL, PARENT, change) == ("ok", "no gain")


def test_each_run_logs_its_sweep_count(tmp_path, monkeypatch, capsys):
    # the sweep count is read back from the record each run leaves in its
    # checkout and emitted beside the metrics, in run order
    metrics = [WALL]
    checkouts = {}
    for side in ("parent", "change"):
        checkouts[side] = tmp_path / side
        (checkouts[side] / "perfbench" / "results").mkdir(parents=True)
        (checkouts[side] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    counts = iter([810, 950, 960, 820])

    def fake_run(checkout, workload, seed, seconds):
        record = {"sweeps": next(counts)}
        path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
        path.write_text(json.dumps(record))
        wall = 0.1 if checkout == checkouts["parent"] else 0.08
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(alternate_bench, "run_once", fake_run)
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"])]
    assert alternate_bench.main(argv + ["--workload", "pairs", "--seed", "3", "--pairs", "2"]) == 0
    block = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # odd pairs run the parent first, even pairs the change first
    assert block["parent"] == {"wall_s": [0.1, 0.1], "sweeps": [810, 820]}
    assert block["change"] == {"wall_s": [0.08, 0.08], "sweeps": [950, 960]}
    assert block["claim_wall_s"] == "gain"
    assert alternate_bench.sweep_count(checkouts["change"], "pairs", 3) == 960
