"""Input documents, report serialization, and atomic file output.

Systems travel as JSON documents with explicit re/im arrays so that any
tooling can round-trip them without complex-number literals.  Reports are
serialized with a fixed construction order and plain float repr, which makes
repeated runs with the same inputs, seed, and flags byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import PairAnalysis, SystemAnalysis
from .boundary import DkCertificate, IsometryCheck, LatticeCertificate
from .errors import InputError
from .linalg import Tolerances
from .opsys import OperatorSystem, opsys_from_generators

SCHEMA = "v1"
VERSION = "0.1.0"

__all__ = [
    "SCHEMA",
    "VERSION",
    "SystemSpec",
    "load_system",
    "parse_system",
    "spec_to_dict",
    "spec_digest",
    "opsys_of",
    "analysis_report",
    "pair_report",
    "dump_report",
    "canonical_json",
    "atomic_write_text",
]


@dataclass(frozen=True)
class SystemSpec:
    """One operator system as an input document."""

    name: str
    ambient_dim: int
    generators: tuple[np.ndarray, ...]


def spec_to_dict(spec: SystemSpec) -> dict:
    gens = []
    for g in spec.generators:
        gens.append({"re": np.real(g).tolist(), "im": np.imag(g).tolist()})
    return {
        "schema": SCHEMA,
        "name": spec.name,
        "ambient_dim": spec.ambient_dim,
        "generators": gens,
    }


def _field(doc: dict, key: str, src: str):
    if key not in doc:
        raise InputError(f"{src}: missing field {key!r}")
    return doc[key]


def _real_array(entry, n: int, where: str, src: str) -> np.ndarray:
    try:
        arr = np.asarray(entry, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{src}: {where} is not a numeric array: {exc}") from None
    if arr.shape != (n, n):
        raise InputError(f"{src}: {where} must be a {n}x{n} array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{src}: {where} has a non-finite entry (NaN or infinity)")
    return arr


def parse_system(doc, src: str = "<document>") -> SystemSpec:
    """Validate a decoded document and build a :class:`SystemSpec`.

    Raises :class:`InputError` naming the offending field.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{src}: top level must be an object, got {type(doc).__name__}")
    schema = _field(doc, "schema", src)
    if schema != SCHEMA:
        raise InputError(f"{src}: unsupported schema {schema!r} (expected {SCHEMA!r})")
    name = _field(doc, "name", src)
    if not isinstance(name, str) or not name:
        raise InputError(f"{src}: name must be a non-empty string")
    n = _field(doc, "ambient_dim", src)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"{src}: ambient_dim must be a positive integer, got {n!r}")
    raw_gens = _field(doc, "generators", src)
    if not isinstance(raw_gens, list):
        raise InputError(f"{src}: generators must be a list")
    gens = []
    for k, entry in enumerate(raw_gens):
        where = f"generators[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"re", "im"}:
            raise InputError(f"{src}: {where} must be an object with fields 're' and 'im'")
        re = _real_array(entry["re"], n, f"{where}.re", src)
        im = _real_array(entry["im"], n, f"{where}.im", src)
        g = re + 1j * im
        # finite entries can still overflow the Hilbert-Schmidt norm that
        # every rank decision divides by
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(g)):
                raise InputError(f"{src}: {where} has a norm that overflows to infinity")
        gens.append(g)
    return SystemSpec(name=name, ambient_dim=n, generators=tuple(gens))


def load_system(path) -> SystemSpec:
    """Read and validate one system document from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return parse_system(doc, src=str(path))


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free encoding used for digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def spec_digest(spec: SystemSpec) -> str:
    """Digest of the renormalized document, independent of file formatting."""
    return hashlib.sha256(canonical_json(spec_to_dict(spec)).encode()).hexdigest()


def opsys_of(spec: SystemSpec, tol: Tolerances) -> OperatorSystem:
    return opsys_from_generators(spec.ambient_dim, spec.generators, tol, label=spec.name)


# ---------------------------------------------------------------------------
# report documents


def _complex_payload(arr: np.ndarray) -> dict:
    a = np.asarray(arr, dtype=np.complex128)
    return {
        "shape": list(a.shape),
        "re": np.real(a).ravel().tolist(),
        "im": np.imag(a).ravel().tolist(),
    }


def _tol_dict(tol: Tolerances) -> dict:
    return {
        "tol_rank": tol.tol_rank,
        "tol_psd": tol.tol_psd,
        "tol_herm": tol.tol_herm,
        "tol_norm": tol.tol_norm,
    }


def _flags_dict(config) -> dict:
    return {
        "max_ambient_product": config.max_ambient_product,
    }


def _dk_payload(cert: DkCertificate) -> list:
    out = []
    for b in cert.per_block:
        entry = {
            "label": int(b.label),
            "unique": bool(b.unique),
            "method": b.method,
            "separation": float(b.separation),
            "iterations": int(b.iterations),
            "witness": None,
        }
        if b.witness is not None:
            entry["witness"] = [_complex_payload(w) for w in b.witness]
        out.append(entry)
    return out


def _lattice_payload(cert: LatticeCertificate) -> dict:
    return {
        "passing": [sorted(s) for s in cert.passing],
        "failing": [sorted(s) for s in cert.failing],
        "maximal": sorted(cert.maximal),
        "witness": [[_complex_payload(c) for c in cert.witness[i]] for i in sorted(cert.witness)],
    }


def _isometry_dict(check: IsometryCheck) -> dict:
    return {"residual": float(check.residual), "min_eig": float(check.min_eig)}


def analysis_report(sa: SystemAnalysis) -> dict:
    """Single-system report document.

    ``silov_killed`` records the ideal as both certificates read it: ``dk``
    the blocks the representation route proves are not boundary,
    ``lattice`` the ideal whose left inverse ψ the lattice route found.  The
    representation route reads its verdicts off the lattice route, so the
    two lists are equal and ``agreement`` is true.  ``certificates/dk``
    holds one entry per block: a killed block's ``"left-inverse"`` witness
    read off ψ, and a kept block's refutation of its singleton ideal, a
    ``"norm-drop"`` with the drop as ``separation`` and the one matrix
    whose norm drops as ``witness`` (a simple algebra's one block has the
    unit, of drop 1).  ``certificates/lattice/witness`` lists ψ's Choi
    parts per killed label, in the ascending order of ``maximal``: for
    killed block i, one ``(d_j·d_i)²`` matrix per kept label j in label
    order.  ``"timing"`` holds
    iteration counts per stage, not seconds, so that the report stays
    byte-deterministic; ``lattice_iterations`` sums the feasibility
    searches over the tested ideals, and an ideal's count sums its
    per-killed-block searches.  ``"isometry"`` holds the numbers of the
    left-inverse check that certifies the quotient completely isometric:
    the largest block interpolation residual and the least eigenvalue of a
    Choi part, both 0.0 when nothing is killed.
    """
    report = {
        "schema": SCHEMA,
        "kind": "analysis",
        "version": VERSION,
        "name": sa.name,
        "input_digest": sa.digest,
        "seed": sa.config.seed,
        "tolerances": _tol_dict(sa.config.tol),
        "flags": _flags_dict(sa.config),
        "ambient_dim": sa.system.ambient,
        "system_dim": sa.system.dim,
        "algebra_dim": sa.algebra.space.dim,
        "blocks": [[d, m] for d, m in sa.wedderburn.blocks],
        "boundary_reps": sorted(sa.dk_certificate.boundary_labels),
        "silov_killed": {
            "dk": sorted(sa.silov_dk),
            "lattice": sorted(sa.silov_lattice),
            "agreement": sa.agreement,
        },
        "envelope_blocks": [[d, 1] for d in sa.envelope_block_dims],
        "propagation": {
            "value": sa.prop.value,
            "chain": list(sa.prop.chain),
            "ambient_chain": list(sa.prop.ambient_chain),
        },
        "isometry": _isometry_dict(sa.envelope.isometry),
        "timing": {
            "dk_iterations": sa.dk_certificate.iterations,
            "lattice_iterations": sa.lattice_certificate.iterations,
        },
        "certificates": {
            "dk": _dk_payload(sa.dk_certificate),
            "lattice": _lattice_payload(sa.lattice_certificate),
        },
    }
    return report


def _pairs_list(pairs) -> list:
    return [list(p) for p in sorted(pairs)]


def pair_report(pa: PairAnalysis) -> dict:
    """Tensor-pair report document aggregating the four checks.

    ``"isometry"`` holds the left-inverse check of the product's quotient,
    whose left inverse is the tensor of the factors', read as in
    :func:`analysis_report` (both 0.0 when nothing is killed).  The
    product's certificate is built from the factors' and checked, so a pair that
    reports at all has ``subspace_contained``, ``killed_match``,
    ``dims_match`` and ``boundary_pair_closure`` true by construction; a
    failed certificate check raises instead (exit 2).  Those keys stay
    until the report's schema changes.  ``timing.factorization_iterations``
    sums the three envelopes' search iterations, and the product's is 0.
    """
    fac = pa.factorization
    bp = pa.boundary_pairs
    pw = pa.power
    pm = pa.prop_max
    report = {
        "schema": SCHEMA,
        "kind": "tensor",
        "version": VERSION,
        "left": {"name": pa.left.name, "input_digest": pa.left.digest},
        "right": {"name": pa.right.name, "input_digest": pa.right.digest},
        "seed": pa.config.seed,
        "tolerances": _tol_dict(pa.config.tol),
        "flags": _flags_dict(pa.config),
        "ambient_product": fac.tensor.product.ambient,
        "product_blocks": [[d, m] for d, m in fac.blocks.wedderburn.blocks],
        "product_block_pairs": [list(p) for p in fac.blocks.pairs],
        "checks": {
            "envelope_tensor_factorization": {
                "verified": fac.verified,
                "algebra_factors": fac.algebra_factors,
                "subspace_contained": fac.subspace_contained,
                "killed_match": fac.killed_match,
                "dims_match": fac.dims_match,
                "left_killed": sorted(fac.left_killed),
                "right_killed": sorted(fac.right_killed),
                "product_killed_pairs": _pairs_list(fac.product_killed_pairs),
                "expected_killed_pairs": _pairs_list(fac.expected_killed_pairs),
                "envelope_dims": list(fac.envelope_dims),
                "expected_envelope_dims": list(fac.expected_envelope_dims),
            },
            "boundary_pair_closure": {
                "verified": bp.verified,
                "left_boundary": sorted(bp.left_boundary),
                "right_boundary": sorted(bp.right_boundary),
                "product_boundary": _pairs_list(bp.product_boundary),
                "expected_pairs": _pairs_list(bp.expected_pairs),
            },
            "power_compatibility": {
                "verified": pw.verified,
                "n_max": pw.n_max,
                "per_power": [
                    [int(n), int(dl), int(dr), int(dp), bool(eq)]
                    for n, dl, dr, dp, eq in pw.per_power
                ],
            },
            "propagation_max": {
                "verified": pm.verified,
                "left": pm.left.value,
                "right": pm.right.value,
                "expected": pm.expected,
                "product": pm.product.value,
                "product_chain": list(pm.product.chain),
            },
        },
        "passed": pa.verified,
        "isometry": _isometry_dict(fac.product_envelope.isometry),
        "timing": {"factorization_iterations": fac.iterations},
    }
    return report


def dump_report(report: dict) -> str:
    """Stable human-diffable encoding; construction order is the layout."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
