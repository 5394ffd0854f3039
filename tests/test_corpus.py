"""Corpus generation: fixed order, determinism, manifest contract."""
import json

import pytest

from cstarenv import corpus
from cstarenv.corpus import (
    MAX_COUNT,
    corpus_entries,
    load_manifest,
    standard_pairs,
    write_corpus,
)
from cstarenv.errors import InputError
from cstarenv.specio import load_system, spec_digest

STRUCTURED_ORDER = [
    "full_M1",
    "full_M2",
    "jordan_M2",
    "state_sum",
    "full_M3",
    "jordan_M3_k1",
    "jordan_M3_k2",
    "jordan_M4_k1",
    "jordan_M4_k2",
    "jordan_M4_k3",
    "state_sum_s1",
    "state_sum_s2",
    "state_sum_s3",
]


def test_fixed_order_and_names():
    names = [e.spec.name for e in corpus_entries(seed=1, count=20)]
    assert names[:13] == STRUCTURED_ORDER
    assert names[13:] == [f"random_{i:02d}" for i in range(1, 8)]


def test_count_semantics():
    assert corpus_entries(seed=1, count=0) == []
    first = corpus_entries(seed=1, count=4)
    assert [e.spec.name for e in first] == STRUCTURED_ORDER[:4]
    long = corpus_entries(seed=1, count=20)
    assert [spec_digest(e.spec) for e in long[:4]] == [spec_digest(e.spec) for e in first]
    with pytest.raises(InputError):
        corpus_entries(seed=1, count=-1)


def test_count_is_capped_before_any_entry_is_built(tmp_path, monkeypatch):
    def no_entries(*args):
        raise AssertionError("an entry was built")

    monkeypatch.setattr(corpus, "random_spec", no_entries)
    for count in (MAX_COUNT + 1, 10**20):
        with pytest.raises(InputError, match=f"between 0 and {MAX_COUNT}"):
            corpus_entries(seed=1, count=count)
        with pytest.raises(InputError, match=f"between 0 and {MAX_COUNT}"):
            write_corpus(tmp_path / "out", seed=1, count=count)
    assert not (tmp_path / "out").exists()


def test_seed_moves_only_the_seeded_tail():
    one = {e.spec.name: spec_digest(e.spec) for e in corpus_entries(seed=1, count=20)}
    two = {e.spec.name: spec_digest(e.spec) for e in corpus_entries(seed=2, count=20)}
    for name in STRUCTURED_ORDER[:10]:
        assert one[name] == two[name], name
    assert one["state_sum_s1"] != two["state_sum_s1"]
    assert one["random_01"] != two["random_01"]


def test_entropy_provenance():
    for e in corpus_entries(seed=1, count=20):
        if e.spec.name in STRUCTURED_ORDER[:10]:
            assert e.entropy == ()
        else:
            assert len(e.entropy) > 0


def test_write_corpus_and_manifest(tmp_path):
    manifest = write_corpus(tmp_path, seed=1, count=4)
    assert manifest["schema"] == "v1" and manifest["kind"] == "manifest"
    assert manifest["seed"] == 1 and manifest["count"] == 4
    names = [s["name"] for s in manifest["systems"]]
    assert names == STRUCTURED_ORDER[:4]
    # every written file parses back to the digest recorded in the manifest
    for s in manifest["systems"]:
        spec = load_system(tmp_path / s["file"])
        assert spec_digest(spec) == s["digest"]
        assert spec.ambient_dim == s["ambient_dim"]
    # pairs keep only those with both members present: 8 of the 9 standard
    assert len(manifest["pairs"]) == 8
    assert ["jordan_M3_k1", "full_M2"] not in manifest["pairs"]
    assert load_manifest(tmp_path) == manifest


def test_count_zero_writes_manifest_only(tmp_path):
    manifest = write_corpus(tmp_path, seed=1, count=0)
    assert manifest["systems"] == [] and manifest["pairs"] == []
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_regeneration_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_corpus(a, seed=1, count=6)
    write_corpus(b, seed=1, count=6)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_standard_pairs_filtering():
    assert standard_pairs([]) == []
    assert standard_pairs(["full_M2"]) == [("full_M2", "full_M2")]
    full = standard_pairs(n for n in STRUCTURED_ORDER)
    assert len(full) == 9


def test_load_manifest_rejections(tmp_path):
    with pytest.raises(InputError, match="missing manifest.json"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{broken")
    with pytest.raises(InputError, match="invalid JSON"):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"schema": "v1", "systems": []}))
    with pytest.raises(InputError, match="missing field 'pairs'"):
        load_manifest(tmp_path)
