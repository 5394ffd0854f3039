"""Command-line interface: subcommands, exit codes, env overrides, reports."""
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cstarenv
from cstarenv import analysis, boundary, cli, corpus, ucp
from cstarenv.cli import main
from cstarenv.corpus import write_corpus
from cstarenv.specio import SystemSpec, spec_to_dict

from _oracles import compression


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    write_corpus(d, seed=1, count=4)
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_full_matrix_algebra(corpus_dir, capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", str(corpus_dir / "full_M2.json"), "--json-out", str(out_file)
    )
    assert code == 0
    assert "full_M2: ambient 2, system dim 4, algebra dim 4" in out
    assert "silov killed: dk [] lattice [] (agree)" in out
    assert "propagation 1" in out
    report = json.loads(out_file.read_text())
    assert report["kind"] == "analysis"
    assert report["silov_killed"] == {"dk": [], "lattice": [], "agreement": True}
    assert report["propagation"]["value"] == 1


def test_analyze_state_sum(corpus_dir, capsys):
    code, out, _ = run(capsys, "analyze", str(corpus_dir / "state_sum.json"))
    assert code == 0
    assert "silov killed: dk [2] lattice [2] (agree)" in out
    assert "envelope blocks: (2,1)" in out
    assert "propagation 2 chain (3, 4)" in out


def test_analyze_jordan(corpus_dir, capsys):
    code, out, _ = run(capsys, "analyze", str(corpus_dir / "jordan_M2.json"))
    assert code == 0
    assert "silov killed: dk [] lattice [] (agree)" in out
    assert "propagation 2" in out


def test_quiet_suppresses_stdout(corpus_dir, capsys):
    code, out, err = run(capsys, "analyze", str(corpus_dir / "full_M1.json"), "--quiet")
    assert code == 0
    assert out == ""


def test_flags_are_echoed_into_the_report(corpus_dir, capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "analyze",
        str(corpus_dir / "full_M1.json"),
        "--seed",
        "3",
        "--tol-norm",
        "2e-06",
        "--tol-psd",
        "1e-08",
        "--json-out",
        str(out_file),
        "--quiet",
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["seed"] == 3
    assert report["tolerances"]["tol_norm"] == 2e-06
    assert report["tolerances"]["tol_psd"] == 1e-08
    assert "tol_sep" not in report["tolerances"]
    assert "uniqueness_trials" not in report["flags"]
    # the point-separation threshold went with the dual certificates
    code, _, err = run(capsys, "analyze", str(corpus_dir / "full_M1.json"), "--tol-sep", "2e-06")
    assert code == 1 and "--tol-sep" in err


def test_uniqueness_trials_flag_is_gone(corpus_dir, capsys):
    # uniqueness is decided by a certificate or a witness, not by probe count
    code, _, err = run(
        capsys, "analyze", str(corpus_dir / "full_M1.json"), "--uniqueness-trials", "16"
    )
    assert code == 1
    assert "--uniqueness-trials" in err


def test_subcommands_refuse_flags_they_do_not_read(corpus_dir, capsys, tmp_path):
    # --jobs belongs to verify-all alone, and corpus reads no tolerance
    code, _, err = run(capsys, "corpus", str(tmp_path / "c"), "--jobs", "2")
    assert code == 1 and "--jobs" in err
    assert not (tmp_path / "c").exists()
    code, _, err = run(capsys, "analyze", str(corpus_dir / "full_M1.json"), "--jobs", "2")
    assert code == 1 and "--jobs" in err



def test_corpus_refuses_a_negative_seed(capsys, tmp_path):
    # the corpus subcommand checks its seed as the analysing ones do
    code, _, err = run(capsys, "corpus", str(tmp_path / "c"), "--seed", "-1")
    assert code == 1 and "--seed must be non-negative, got -1" in err
    assert not (tmp_path / "c").exists()

def test_input_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "v1",\n broken\n}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "invalid JSON at line 2" in err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "v1", "name": "x", "generators": []}))
    code, _, err = run(capsys, "analyze", str(wrong))
    assert code == 1
    assert "missing field 'ambient_dim'" in err
    assert "wrong.json" in err


def test_non_finite_entries_exit_one(capsys, tmp_path):
    for bad_value in (float("nan"), float("inf")):
        doc = {
            "schema": "v1",
            "name": "x",
            "ambient_dim": 2,
            "generators": [{"re": [[0.0, 1.0], [0.0, bad_value]], "im": [[0.0] * 2] * 2}],
        }
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "generators[0].re" in err and "non-finite" in err


def test_overflowing_generator_norm_exits_one(capsys, tmp_path):
    # every entry is finite, but the Hilbert-Schmidt norm overflows
    doc = {
        "schema": "v1",
        "name": "x",
        "ambient_dim": 2,
        "generators": [{"re": [[0.0, 1e300], [0.0, 0.0]], "im": [[0.0] * 2] * 2}],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "generators[0]" in err and "overflows" in err


def _refuse_to_build_past(cap, monkeypatch):
    """Let ``cli.opsys_of`` build only systems of ambient at most ``cap``, so
    a missing refusal fails the test before anything of the huge ambient is
    allocated."""
    real = cli.opsys_of

    def guarded(spec, tol):
        assert spec.ambient_dim <= cap, f"built a system of ambient {spec.ambient_dim}"
        return real(spec, tol)

    monkeypatch.setattr(cli, "opsys_of", guarded)


def _huge_document(path):
    path.write_text(
        json.dumps({"schema": "v1", "name": "huge", "ambient_dim": 10**6, "generators": []})
    )
    return path


def _past_the_cap(path):
    return f"{path}: ambient_dim 1000000 exceeds the cap 36 (--max-ambient-product)"


def test_an_ambient_past_the_cap_exits_one_before_its_system_is_built(
    corpus_dir, capsys, tmp_path, monkeypatch
):
    _refuse_to_build_past(36, monkeypatch)
    huge = _huge_document(tmp_path / "huge.json")
    for argv in (["analyze", str(huge)], ["tensor", str(corpus_dir / "full_M1.json"), str(huge)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {_past_the_cap(huge)}\n"
    # the cap is the flag's, and a system at the cap is analyzed
    state_sum = str(corpus_dir / "state_sum.json")
    code, _, err = run(capsys, "analyze", state_sum, "--max-ambient-product", "2")
    assert code == 1 and "ambient_dim 3 exceeds the cap 2" in err
    assert run(capsys, "analyze", state_sum, "--max-ambient-product", "3", "--quiet")[0] == 0


def test_verify_all_row_shows_an_ambient_past_the_cap(capsys, tmp_path, monkeypatch):
    _refuse_to_build_past(36, monkeypatch)
    manifest = write_corpus(tmp_path, seed=1, count=4)
    huge = _huge_document(tmp_path / "huge.json")
    manifest["systems"].append({"name": "huge", "file": "huge.json"})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "verify-all", str(tmp_path), "--json-out", str(tmp_path / "out"))
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    row = summary["systems"][-1]
    assert (row["name"], row["status"]) == ("huge", "input")
    assert row["detail"] == _past_the_cap(huge)
    # the other members and every pair still verify
    assert all(r["status"] == "ok" for r in summary["systems"][:-1] + summary["pairs"])


def test_bad_arguments_exit_one(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "analyze", "x.json", "--seed", "-1")
    assert code == 1 and "--seed must be non-negative" in err


def test_tensor_pair_passes_all_checks(corpus_dir, capsys, tmp_path):
    out_file = tmp_path / "pair.json"
    code, out, _ = run(
        capsys,
        "tensor",
        str(corpus_dir / "state_sum.json"),
        str(corpus_dir / "jordan_M2.json"),
        "--json-out",
        str(out_file),
    )
    assert code == 0
    assert "state_sum (x) jordan_M2:" in out
    assert "killed pairs [[2, 1]]" in out
    assert out.count("PASS") == 4 and "FAIL" not in out
    report = json.loads(out_file.read_text())
    assert report["kind"] == "tensor" and report["passed"] is True


def test_failed_factorization_exits_two_with_its_report(
    corpus_dir, capsys, tmp_path, monkeypatch
):
    # a factorization that does not verify is a theorem failure, not an
    # input error: the pair still gets its report, with the failed check and
    # the propagation identity failed with it, and verify-all rows read failed
    real = analysis.verify_envelope_tensor_factorization

    def unverified(*args, **kwargs):
        return replace(real(*args, **kwargs), verified=False)

    monkeypatch.setattr(analysis, "verify_envelope_tensor_factorization", unverified)
    out_file = tmp_path / "pair.json"
    code, out, err = run(
        capsys,
        "tensor",
        str(corpus_dir / "full_M2.json"),
        str(corpus_dir / "full_M1.json"),
        "--json-out",
        str(out_file),
    )
    assert code == 2 and "error" not in err
    report = json.loads(out_file.read_text())
    assert report["passed"] is False
    checks = report["checks"]
    assert checks["envelope_tensor_factorization"]["verified"] is False
    assert checks["propagation_max"]["verified"] is False
    assert checks["propagation_max"]["product"] == 1
    assert "envelope_tensor_factorization: FAIL" in out

    out_dir = tmp_path / "all"
    code, _, _ = run(capsys, "verify-all", str(corpus_dir), "--quiet", "--json-out", str(out_dir))
    assert code == 2
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["status"] for r in summary["pairs"]] == ["failed"] * 8
    assert summary["failures"]["input"] == 0 and summary["failures"]["failed"] == 8


def test_corpus_subcommand(capsys, tmp_path):
    target = tmp_path / "written"
    code, out, _ = run(capsys, "corpus", str(target), "--count", "4")
    assert code == 0
    assert "wrote 4 systems" in out
    names = sorted(p.name for p in target.iterdir())
    assert "manifest.json" in names and len(names) == 5


def test_corpus_subcommand_refuses_a_huge_count(capsys, tmp_path, monkeypatch):
    # the count is checked before any entry is built or any file written
    def no_entries(*args):
        raise AssertionError("an entry was built")

    monkeypatch.setattr(corpus, "random_spec", no_entries)
    target = tmp_path / "huge"
    code, _, err = run(capsys, "corpus", str(target), "--count", "100000000000000000000")
    assert code == 1 and f"between 0 and {corpus.MAX_COUNT}" in err
    assert not target.exists()


def test_verify_all_small_corpus(corpus_dir, capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, err = run(
        capsys, "verify-all", str(corpus_dir), "--json-out", str(out_dir)
    )
    assert code == 0
    for name in ("full_M1", "full_M2", "jordan_M2", "state_sum"):
        assert name in out
    assert out.count("ok") == 4 + 8  # four systems, eight pairs
    assert "skipped" not in out and "FAIL" not in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["kind"] == "summary"
    assert len(summary["systems"]) == 4 and len(summary["pairs"]) == 8
    assert summary["failures"] == {
        "input": 0,
        "failed": 0,
        "skipped": 0,
        "inconclusive": 0,
    }
    written = sorted(p.name for p in out_dir.iterdir())
    assert written.count("summary.json") == 1
    assert sum(n.endswith(".analysis.json") for n in written) == 4
    assert sum(n.endswith(".tensor.json") for n in written) == 8


def _blas_threads_now(_task) -> int | None:
    return cli._set_blas_threads(1)


def test_verify_all_tasks_run_on_one_blas_thread():
    before = cli._set_blas_threads(2)
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    try:
        assert cli._run_tasks(_blas_threads_now, [(0,), (1,)], 2) == [1, 1]
        # the workers leave the caller's count alone
        assert cli._set_blas_threads(2) == 2
    finally:
        cli._set_blas_threads(before)


def test_every_subcommand_runs_on_one_blas_thread(corpus_dir, capsys, tmp_path, monkeypatch):
    real = cli._set_blas_threads
    before = real(2)
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    calls = []

    def record(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "_set_blas_threads", record)
    small = tmp_path / "small"
    commands = [
        ["analyze", str(corpus_dir / "full_M1.json")],
        ["tensor", str(corpus_dir / "full_M1.json"), str(corpus_dir / "full_M1.json")],
        ["corpus", str(small), "--count", "2"],
        ["verify-all", str(small)],
    ]
    try:
        for argv in commands:
            calls.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0, argv
            # one thread for the run, then the caller's count back
            assert calls == [1, 2], argv
    finally:
        real(before)


def test_tensor_report_bytes_match_verify_all(corpus_dir, capsys, tmp_path):
    before = cli._set_blas_threads(2)
    try:
        out_dir = tmp_path / "all"
        code, _, _ = run(capsys, "verify-all", str(corpus_dir), "--json-out", str(out_dir))
        assert code == 0
        pair = tmp_path / "pair.json"
        code, _, _ = run(
            capsys,
            "tensor",
            str(corpus_dir / "full_M2.json"),
            str(corpus_dir / "state_sum.json"),
            "--json-out",
            str(pair),
        )
        assert code == 0
        assert pair.read_bytes() == (out_dir / "full_M2__state_sum.tensor.json").read_bytes()
    finally:
        if before is not None:
            cli._set_blas_threads(before)


def test_verify_all_reports_do_not_depend_on_jobs(corpus_dir, capsys, tmp_path):
    outputs = {}
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        code, _, _ = run(
            capsys, "verify-all", str(corpus_dir), "--json-out", str(out_dir), "--jobs", jobs
        )
        assert code == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(outputs["1"]) == 4 + 8 + 1
    assert outputs["1"] == outputs["2"]


def test_verify_all_row_shows_a_failed_uniqueness_recheck(corpus_dir, capsys, monkeypatch):
    # with every probe matrix replaced by the unit, which drops in no
    # quotient, the lattice verdicts stand but the re-check of the kept
    # matrix block of state_sum fails: a failed certificate, whose row
    # names the block and the drop it measured
    real_probe = boundary.falsify_complete_isometry

    def unit_witness(table, killed, tol):
        report = real_probe(table, killed, tol)
        if report.witness is None:
            return report
        return replace(report, witness=np.eye(report.witness.shape[0], dtype=complex))

    monkeypatch.setattr(boundary, "falsify_complete_isometry", unit_witness)
    code, out, _ = run(capsys, "verify-all", str(corpus_dir))
    assert code == 2
    row = next(line for line in out.splitlines() if line.startswith("state_sum "))
    assert "failed" in row
    detail = out.splitlines()[out.splitlines().index(row) + 1]
    assert "block 1 (kept by the lattice route)" in detail
    assert "the witness shows no norm drop (0.000e+00 against tol_norm 1.0e-06)" in detail


def test_verify_all_row_shows_undecided_feasibility_evidence(capsys, tmp_path, monkeypatch):
    # with no search iterations allowed, a left-inverse search is decided
    # only when its start is feasible.  No member or pair of the corpus
    # needs a search step (a pair's certificate is built from its factors'),
    # so the corpus gets one compression member, whose killed block's left
    # inverse has low Choi rank: its search starts outside the cone, and its
    # row shows the ideal, the killed block, the start's least Choi
    # eigenvalue and its affine residual
    manifest = write_corpus(tmp_path, seed=1, count=4)
    E = compression(1, 3, 1, 2)
    spec = SystemSpec("compression", E.ambient, tuple(E.space.basis))
    (tmp_path / "compression.json").write_text(json.dumps(spec_to_dict(spec)))
    manifest["systems"].append({"name": "compression", "file": "compression.json"})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(ucp, "_FEASIBILITY_CAP", 0)
    code, out, _ = run(capsys, "verify-all", str(tmp_path))
    assert code == 3
    lines = out.splitlines()
    row = next(line for line in lines if line.startswith("compression "))
    # the status is followed by whitespace, not run into the SILOV column
    assert row.split()[1:] == ["inconclusive", "-", "-"]
    detail = lines[lines.index(row) + 1]
    assert "ideal [" in detail and "killed block" in detail
    assert re.search(r"after 0 iterations: start least Choi eigenvalue -\d\.\d{3}e-\d\d,", detail)
    assert "affine residuals" in detail and "against tolerance" in detail
    # every pair of the corpus verifies, with no search
    assert all(line.split()[-2:] == ["ok", "4/4"] for line in lines if " (x) " in line)


def test_verify_all_without_manifest(capsys, tmp_path):
    code, _, err = run(capsys, "verify-all", str(tmp_path))
    assert code == 1
    assert "missing manifest.json" in err


def test_verify_all_with_a_corrupted_member(capsys, tmp_path):
    write_corpus(tmp_path, seed=1, count=4)
    (tmp_path / "full_M2.json").write_text("{broken")
    code, out, _ = run(capsys, "verify-all", str(tmp_path))
    assert code == 1
    assert "full_M2" in out and "input" in out
    assert "invalid JSON" in out
    # pairs over the broken member are skipped, the rest still verify
    assert "skipped" in out


@pytest.mark.parametrize(
    "malform",
    [
        lambda m: m["pairs"].append(["full_M1"]),
        lambda m: m["pairs"].append([["x"], "full_M1"]),
        lambda m: m["systems"][0].update(file=5),
        lambda m: m["pairs"].append("ab"),
        lambda m: m["systems"][0].update(name="../escaped"),
        lambda m: m["systems"][1].update(name=m["systems"][0]["name"]),
    ],
    ids=[
        "one-name-pair",
        "list-in-pair",
        "numeric-file",
        "string-pair",
        "escaping-name",
        "repeated-name",
    ],
)
def test_verify_all_rejects_a_malformed_manifest(capsys, tmp_path, malform):
    # every entry is checked before anything runs: the run ends as an input
    # error, and no report is written, inside --json-out or next to it
    corpus = tmp_path / "corpus"
    manifest = write_corpus(corpus, seed=1, count=4)
    malform(manifest)
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code, _, err = run(capsys, "verify-all", str(corpus), "--json-out", str(out / "reports"))
    assert code == 1
    assert err.startswith(f"error: {corpus / 'manifest.json'}: ")
    assert not out.exists()


def test_verify_all_rejects_pairs_that_share_a_report_name(capsys, tmp_path):
    # "a__b" x "c" and "a" x "b__c" would both write a__b__c.tensor.json, so
    # one report would overwrite the other while both rows read ok
    corpus = tmp_path / "corpus"
    manifest = write_corpus(corpus, seed=1, count=4)
    for entry, name in zip(manifest["systems"], ("a__b", "c", "a", "b__c")):
        entry["name"] = name
    manifest["pairs"] = [["a__b", "c"], ["a", "b__c"]]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code, _, err = run(capsys, "verify-all", str(corpus), "--json-out", str(out))
    assert code == 1
    assert "['a__b', 'c']" in err and "['a', 'b__c']" in err
    assert "a__b__c.tensor.json" in err
    assert not out.exists()


def test_console_script_entry_point(corpus_dir):
    src = Path(cstarenv.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cstarenv.cli", "analyze", str(corpus_dir / "full_M1.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "full_M1" in proc.stdout


def test_package_runs_as_a_module(corpus_dir):
    src = Path(cstarenv.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cstarenv", "analyze", str(corpus_dir / "state_sum.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "silov killed: dk [2] lattice [2] (agree)" in proc.stdout
