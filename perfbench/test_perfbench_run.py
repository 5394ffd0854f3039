"""Benchmark self-tests at tiny size: metric names, generators, answer checks."""

import json
import tempfile
from pathlib import Path

import pytest

import run

workloads = run._import_package()

import tracing  # noqa: E402
from cstarenv import opsys, wedderburn  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def make_tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "SYSTEMS_MAX_AMBIENT", 1)
    monkeypatch.setattr(workloads, "STATE_SUM_MAX_AMBIENT", 1)
    monkeypatch.setattr(workloads, "STANDARD_PAIRS", (("full_M1", "jordan_M2"),))
    monkeypatch.setattr(workloads, "PAIR_SLOTS", ())
    monkeypatch.setattr(workloads, "BLOCK_SYSTEMS", 1)
    monkeypatch.setattr(workloads, "K_IN", 1)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.BUILDERS) == set(run.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == set(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, tmp_path, workload, trace):
    make_tiny(monkeypatch)
    record = run.bench(workload, 3, 0.0, trace, results_dir=tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["fractions"] == {"failed_frac": 0, "inconclusive_frac": 0, "wrong_frac": 0}
    assert record["machine"]["nproc"] >= 1 and record["item_count"] >= 1


@pytest.mark.parametrize("seed", (1, 2, 5, 11))
def test_blocks_generator_gives_at_least_seven_blocks(seed):
    for index in range(workloads.BLOCK_SYSTEMS):
        spec = workloads.blocks_spec(seed, index, workloads.K_IN)
        E = opsys.opsys_from_generators(spec.ambient_dim, spec.generators)
        W = wedderburn.wedderburn_decompose(opsys.generated_cstar(E))
        assert W.num_blocks == workloads.K_IN + 2 >= 7


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_blocks_answer_holds_by_construction(seed):
    with tempfile.TemporaryDirectory() as tmp:
        spec, system = workloads._read_back(
            workloads.blocks_spec(seed, 0, workloads.K_IN), Path(tmp)
        )
    item = workloads._system_item(spec, system, workloads._block_checker(workloads.K_IN))
    assert item.run()  # raises WrongAnswer on any mismatch


def _tree(path: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")} if path.exists() else {}


def test_a_wrong_expected_answer_exits_nonzero(monkeypatch, tmp_path, capsys):
    real_dir = run.RESULTS
    real_results = _tree(real_dir)
    make_tiny(monkeypatch)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setitem(workloads.EXPECTED_KILLED, "full_M1", frozenset({1}))
    code = run.main(["--workload", "systems", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert (tmp_path / "systems-seed1-trace0.json").is_file()
    assert _tree(real_dir) == real_results


def test_a_changed_report_fails_the_stored_digest_check(monkeypatch, tmp_path):
    make_tiny(monkeypatch)
    first = run.bench("pairs", 1, 0.0, False, results_dir=tmp_path)
    assert first["result"]["correct"]
    monkeypatch.setattr(workloads.specio, "dump_report", lambda report: "changed\n")
    second = run.bench("pairs", 1, 0.0, False, results_dir=tmp_path)
    assert second["stored_digest_mismatches"] == ["full_M1*jordan_M2"]
    assert not second["result"]["correct"]
