"""Deterministic corpus of example systems and the standard pair list.

Four families at desk scale (ambient at most 4): full matrix algebras,
nilpotent-power systems, direct-sum-with-state systems, and seeded random
generator systems.  Every seeded member derives its randomness from the
corpus seed plus its index, so regenerating with the same seed and count
reproduces the files byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .linalg import matrix_units, op_norm
from .specio import (
    SCHEMA,
    VERSION,
    SystemSpec,
    atomic_write_text,
    spec_digest,
    spec_to_dict,
)

_CORPUS_TAG = 0xC0
# the largest corpus: every entry is built in memory before any is written
MAX_COUNT = 10_000

__all__ = [
    "MAX_COUNT",
    "CorpusEntry",
    "corpus_entries",
    "standard_pairs",
    "write_corpus",
    "load_manifest",
    "pair_report_name",
    "full_matrix_spec",
    "jordan_spec",
    "state_sum_spec",
    "random_spec",
]


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus member plus the provenance recorded in the manifest."""

    spec: SystemSpec
    family: str
    entropy: tuple[int, ...]


def _shift(n: int) -> np.ndarray:
    """The nilpotent forward shift on C^n."""
    return np.diag(np.ones(n - 1), 1).astype(np.complex128)


def full_matrix_spec(d: int) -> SystemSpec:
    """The full algebra ``M_d`` as a system: all matrix units as generators."""
    return SystemSpec(name=f"full_M{d}", ambient_dim=d, generators=tuple(matrix_units(d)))


def jordan_spec(n: int, k: int) -> SystemSpec:
    """``span{1, J, J*, ..., J^k}`` for the size-``n`` nilpotent shift ``J``."""
    if not 1 <= k < n:
        raise InputError(f"power cap must satisfy 1 <= k < n, got k={k}, n={n}")
    J = _shift(n)
    gens = tuple(np.linalg.matrix_power(J, p) for p in range(1, k + 1))
    name = "jordan_M2" if (n, k) == (2, 1) else f"jordan_M{n}_k{k}"
    return SystemSpec(name=name, ambient_dim=n, generators=gens)


def state_sum_spec(
    name: str, base: tuple[np.ndarray, ...], state_vector: np.ndarray
) -> SystemSpec:
    """System in ``M_d (+) C``: each generator paired with its state value."""
    d = base[0].shape[0]
    v = np.asarray(state_vector, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    gens = []
    for b in base:
        g = np.zeros((d + 1, d + 1), dtype=np.complex128)
        g[:d, :d] = b
        g[d, d] = np.conj(v) @ b @ v
        gens.append(g)
    return SystemSpec(name=name, ambient_dim=d + 1, generators=tuple(gens))


def _canonical_state_sum() -> SystemSpec:
    x = np.zeros((2, 2), dtype=np.complex128)
    x[0, 1] = 1.0
    return state_sum_spec("state_sum", (x,), np.array([1.0, 1.0]))


def _seeded_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / op_norm(g)


def _state_sum_seeded(idx: int, seed: int) -> CorpusEntry:
    entropy = (seed, _CORPUS_TAG, 100 + idx)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=list(entropy)))
    d = 2 if idx < 3 else 3
    base = (_seeded_matrix(rng, d),)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    spec = state_sum_spec(f"state_sum_s{idx}", base, v)
    return CorpusEntry(spec, "state_sum", entropy)


def random_spec(idx: int, seed: int) -> CorpusEntry:
    """Seeded 2- or 3-generator system in ``M_n`` for ``n`` in 2..4."""
    entropy = (seed, _CORPUS_TAG, 200 + idx)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=list(entropy)))
    n = (2, 3, 4)[idx % 3]
    count = 2 + (idx % 2)
    gens = tuple(_seeded_matrix(rng, n) for _ in range(count))
    spec = SystemSpec(name=f"random_{idx:02d}", ambient_dim=n, generators=gens)
    return CorpusEntry(spec, "random", entropy)


def _structured_entries(seed: int) -> list[CorpusEntry]:
    fixed = [
        (full_matrix_spec(1), "full"),
        (full_matrix_spec(2), "full"),
        (jordan_spec(2, 1), "jordan"),
        (_canonical_state_sum(), "state_sum"),
        (full_matrix_spec(3), "full"),
        (jordan_spec(3, 1), "jordan"),
        (jordan_spec(3, 2), "jordan"),
        (jordan_spec(4, 1), "jordan"),
        (jordan_spec(4, 2), "jordan"),
        (jordan_spec(4, 3), "jordan"),
    ]
    entries = [CorpusEntry(spec, family, ()) for spec, family in fixed]
    entries.extend(_state_sum_seeded(i, seed) for i in (1, 2, 3))
    return entries


def corpus_entries(seed: int = 1, count: int = 20) -> list[CorpusEntry]:
    """The first ``count`` corpus members for this seed.

    Structured members come first in a fixed order; seeded random systems
    fill the tail, so growing ``count`` only appends.  A count outside
    ``0..MAX_COUNT`` raises :class:`InputError` before any entry is built.
    """
    if not 0 <= count <= MAX_COUNT:
        raise InputError(f"count must be between 0 and {MAX_COUNT}, got {count}")
    entries = _structured_entries(seed)
    idx = 1
    while len(entries) < count:
        entries.append(random_spec(idx, seed))
        idx += 1
    return entries[:count]


# The standard pair list: the three-way suite over {full_M2, jordan_M2,
# state_sum} plus scalar pairs and one deeper-chain pair.  A pair enters a
# manifest only when both members made it into the written set.
_STANDARD_PAIRS = (
    ("full_M2", "full_M2"),
    ("full_M2", "jordan_M2"),
    ("full_M2", "state_sum"),
    ("jordan_M2", "jordan_M2"),
    ("state_sum", "jordan_M2"),
    ("state_sum", "state_sum"),
    ("full_M1", "jordan_M2"),
    ("full_M1", "state_sum"),
    ("jordan_M3_k1", "full_M2"),
)


def standard_pairs(names) -> list[tuple[str, str]]:
    present = set(names)
    return [(a, b) for a, b in _STANDARD_PAIRS if a in present and b in present]


def write_corpus(out_dir, seed: int = 1, count: int = 20) -> dict:
    """Write ``count`` system files plus the manifest; returns the manifest."""
    out = Path(out_dir)
    entries = corpus_entries(seed, count)
    systems = []
    for entry in entries:
        doc = spec_to_dict(entry.spec)
        fname = f"{entry.spec.name}.json"
        atomic_write_text(out / fname, json.dumps(doc, indent=2, allow_nan=False) + "\n")
        systems.append(
            {
                "name": entry.spec.name,
                "file": fname,
                "family": entry.family,
                "ambient_dim": entry.spec.ambient_dim,
                "digest": spec_digest(entry.spec),
                "entropy": list(entry.entropy),
            }
        )
    manifest = {
        "schema": SCHEMA,
        "kind": "manifest",
        "version": VERSION,
        "seed": seed,
        "count": count,
        "systems": systems,
        "pairs": [list(p) for p in standard_pairs(s["name"] for s in systems)],
    }
    atomic_write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest


def load_manifest(corpus_dir) -> dict:
    """Read and validate the manifest of a corpus directory.

    Every system entry has non-empty string fields ``name`` and ``file``, and
    its name is a plain file name (no path separator, not ``.`` or ``..``)
    that no other entry has, because its report is written under it and
    pairs find it by it; every pair is a list of two strings, and no two
    distinct pairs share a :func:`pair_report_name`, so no report overwrites
    another.  Anything else raises :class:`InputError`.
    """
    path = Path(corpus_dir) / "manifest.json"
    if not path.exists():
        raise InputError(f"{corpus_dir}: missing manifest.json")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise InputError(f"{path}: unsupported or missing schema (expected {SCHEMA!r})")
    for key in ("systems", "pairs"):
        if not isinstance(doc.get(key), list):
            raise InputError(f"{path}: missing field {key!r}")
    for entry in doc["systems"]:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) and entry[key] for key in ("name", "file")
        ):
            raise InputError(f"{path}: malformed system entry {entry!r}")
        if entry["name"] in (".", "..") or any(c in entry["name"] for c in "/\\\0"):
            raise InputError(f"{path}: system name {entry['name']!r} is not a plain file name")
    names = [entry["name"] for entry in doc["systems"]]
    if len(set(names)) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise InputError(f"{path}: system names {repeated} occur more than once")
    reports: dict[str, list] = {}
    for pair in doc["pairs"]:
        pair_of_two = isinstance(pair, list) and len(pair) == 2
        if not (pair_of_two and all(isinstance(x, str) for x in pair)):
            raise InputError(f"{path}: malformed pair entry {pair!r}")
        name = pair_report_name(*pair)
        if reports.setdefault(name, pair) != pair:
            raise InputError(f"{path}: pairs {reports[name]!r} and {pair!r} both write {name}")
    return doc


def pair_report_name(left: str, right: str) -> str:
    """The file name ``verify-all`` writes the report of the pair under."""
    return f"{left}__{right}.tensor.json"
