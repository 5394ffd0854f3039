"""Input documents, digests, report serialization, atomic output."""
import json
import os

import numpy as np
import pytest

from cstarenv.errors import InputError
from cstarenv.linalg import DEFAULT_TOL
from cstarenv.specio import (
    analysis_report,
    atomic_write_text,
    canonical_json,
    dump_report,
    load_system,
    pair_report,
    parse_system,
    spec_digest,
    spec_to_dict,
)

# change detector for the document renormalization: these move only if the
# serialization or the corpus definition changes, both of which are breaking
FROZEN_DIGESTS = {
    "full_M2": "78fba25b3725d59cac425672aec8842b5da376705ff966e7e31aa48c2415fd24",
    "state_sum": "8250d0e83e6d7f3aa08ffa51a80020cdb4b27e5be4866fb112b66ad853307cfe",
    "jordan_M3_k1": "960e8aa1298eccd8fa96b0764e59332b68a76054b921274ec1fae659faecf26e",
}


def test_spec_round_trip(entries):
    for name in ("full_M2", "state_sum", "jordan_M4_k2"):
        spec = entries[name].spec
        back = parse_system(spec_to_dict(spec))
        assert back.name == spec.name
        assert back.ambient_dim == spec.ambient_dim
        assert len(back.generators) == len(spec.generators)
        for a, b in zip(back.generators, spec.generators):
            assert np.array_equal(a, b)
        assert spec_digest(back) == spec_digest(spec)


def test_frozen_digests(entries):
    for name, digest in FROZEN_DIGESTS.items():
        assert spec_digest(entries[name].spec) == digest


def test_parse_rejections_name_the_field():
    good = {
        "schema": "v1",
        "name": "x",
        "ambient_dim": 2,
        "generators": [{"re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]}],
    }
    parse_system(good)

    with pytest.raises(InputError, match="top level must be an object"):
        parse_system([1, 2])
    with pytest.raises(InputError, match="missing field 'schema'"):
        parse_system({k: v for k, v in good.items() if k != "schema"})
    with pytest.raises(InputError, match="unsupported schema"):
        parse_system({**good, "schema": "v0"})
    with pytest.raises(InputError, match="name must be a non-empty string"):
        parse_system({**good, "name": ""})
    with pytest.raises(InputError, match="ambient_dim must be a positive integer"):
        parse_system({**good, "ambient_dim": 0})
    # bool is an int subclass and must still be rejected
    with pytest.raises(InputError, match="ambient_dim must be a positive integer"):
        parse_system({**good, "ambient_dim": True})
    with pytest.raises(InputError, match="generators must be a list"):
        parse_system({**good, "generators": {}})
    with pytest.raises(InputError, match=r"generators\[0\] must be an object"):
        parse_system({**good, "generators": [{"re": [[0]]}]})
    with pytest.raises(InputError, match=r"generators\[0\].re must be a 2x2 array"):
        bad = {**good, "generators": [{"re": [[0]], "im": [[0, 0], [0, 0]]}]}
        parse_system(bad)
    with pytest.raises(InputError, match=r"generators\[0\].im is not a numeric array"):
        bad = {**good, "generators": [{"re": [[0, 0], [0, 0]], "im": [["a", 0], [0, 0]]}]}
        parse_system(bad)
    with pytest.raises(InputError, match="mysrc: missing field 'name'"):
        parse_system({k: v for k, v in good.items() if k != "name"}, src="mysrc")


def test_load_system_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "schema": "v1",\n  oops\n}\n')
    with pytest.raises(InputError, match=r"invalid JSON at line 3 column 3"):
        load_system(p)
    with pytest.raises(InputError, match="cannot read"):
        load_system(tmp_path / "absent.json")


def test_canonical_json_is_sorted_and_strict():
    assert canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == '{"a":[2,{"c":4,"d":3}],"b":1}'
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_dump_report_round_trips():
    doc = {"schema": "v1", "values": [1.5, -0.25], "nested": {"k": True}}
    text = dump_report(doc)
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_atomic_write_creates_parents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(target, "first")
    assert target.read_text() == "first"
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert os.listdir(target.parent) == ["out.txt"]


def test_analysis_report_document(analyses):
    rep = analysis_report(analyses("state_sum"))
    assert rep["schema"] == "v1" and rep["kind"] == "analysis"
    assert rep["name"] == "state_sum"
    assert rep["input_digest"] == FROZEN_DIGESTS["state_sum"]
    assert rep["blocks"] == [[2, 1], [1, 1]]
    assert rep["silov_killed"] == {"dk": [2], "lattice": [2], "agreement": True}
    assert rep["envelope_blocks"] == [[2, 1]]
    assert rep["propagation"]["value"] == 2
    assert rep["propagation"]["chain"] == [3, 4]
    assert rep["propagation"]["ambient_chain"] == [3, 5]
    assert "falsifier" not in rep and "falsifier_iterations" not in rep["timing"]
    assert set(rep["isometry"]) == {"residual", "min_eig"}
    assert 0.0 <= rep["isometry"]["residual"] <= 10 * DEFAULT_TOL.tol_rank * 3
    assert rep["isometry"]["min_eig"] >= -DEFAULT_TOL.tol_psd
    # the whole document must be strict JSON
    json.loads(dump_report(rep))


def test_pair_report_document(pair_analyses):
    rep = pair_report(pair_analyses("state_sum", "jordan_M2"))
    assert rep["schema"] == "v1" and rep["kind"] == "tensor"
    assert rep["left"]["name"] == "state_sum"
    assert rep["right"]["name"] == "jordan_M2"
    assert rep["passed"] is True
    checks = rep["checks"]
    assert set(checks) == {
        "envelope_tensor_factorization",
        "boundary_pair_closure",
        "power_compatibility",
        "propagation_max",
    }
    for check in checks.values():
        assert check["verified"] is True
    assert checks["envelope_tensor_factorization"]["product_killed_pairs"] == [[2, 1]]
    assert set(rep["isometry"]) == {"residual", "min_eig"}
    assert set(rep["timing"]) == {"factorization_iterations"}
    json.loads(dump_report(rep))
