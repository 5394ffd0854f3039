"""Benchmark workloads: seeded inputs, the items a sweep runs, and their expected answers.

Each workload turns a seed into a list of items.  An item is one analysis
plus its report, exactly as ``cstarenv verify-all`` produces it: a system
(``analyze_system`` + ``analysis_report`` + ``dump_report``) or a pair
(``analyze_pair`` + ``pair_report`` + ``dump_report``).  Inputs are written
as documents and read back through ``load_system``/``opsys_of``, so the
package sees what the command line sees.  Every item carries a check of its
answer that is known independently of the package.

Why these workloads:

* ``systems``: the seeded corpus members of ambient dimension at most 2 and
  the state sums of ambient 3.  Most generate a simple algebra, so the
  uniqueness probe and the falsifier dominate and the lattice route does
  almost nothing; the state sums carry the one non-trivial Silov ideal.
* ``pairs``: tensor pairs, the only items that run the ``tensor`` layer,
  product-size spectrahedra and product falsifiers.  Their factor analyses
  belong to set-up, as ``verify-all`` reuses them.  Seeded slots draw from
  seeded corpus members, so a fresh seed gives fresh inputs.
* ``blocks``: ``span{1, g, g*}`` with ``g = J_2 (+) diag(lambda)`` and six
  distinct scalars: 7 blocks, so the lattice route evaluates 2^7 block
  ideals.  Scalars with ``|lambda| <= 0.4`` lie inside the numerical range
  of ``J_2`` (the disk of radius 1/2) and are killed; the unit-circle scalar
  and ``J_2`` survive, so the answer is known by construction.

A run must fit set-up and three sweeps into its time budget, so each sweep
is kept to a few seconds on two cores.  That leaves out the other corpus
members (ambient-3 Jordan and random members, 0.8 to 1.6 s each; ambient-4
members, 2 to 9 s each), the standard pairs other than the three cheapest
(2 to 23 s each; ``jordan_M3_k1 (x) full_M2`` alone takes 23 s), seeded
``state_sum_s* (x) random_*`` pairs (3 s each), and blocks systems with two
unit-circle scalars (5 s each).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cstarenv import analysis, corpus, errors, specio
from cstarenv.analysis import AnalysisConfig

# the configuration `cstarenv verify-all` uses when given no flags
CONFIG = AnalysisConfig()

# copied from tests/test_boundary.py: the scalar summand of every state-sum
# member is the non-boundary block; every other structured member is already
# its own envelope
EXPECTED_KILLED = {
    "full_M1": frozenset(),
    "full_M2": frozenset(),
    "full_M3": frozenset(),
    "jordan_M2": frozenset(),
    "jordan_M3_k1": frozenset(),
    "jordan_M3_k2": frozenset(),
    "jordan_M4_k1": frozenset(),
    "jordan_M4_k2": frozenset(),
    "jordan_M4_k3": frozenset(),
    "state_sum": frozenset({2}),
    "state_sum_s1": frozenset({2}),
    "state_sum_s2": frozenset({2}),
    "state_sum_s3": frozenset({2}),
}

# systems: every member of ambient at most 2, and the state sums of ambient 3
SYSTEMS_MAX_AMBIENT = 2
STATE_SUM_MAX_AMBIENT = 3
CORPUS_COUNT = 20

STANDARD_PAIRS = (
    ("full_M2", "full_M2"),
    ("full_M1", "jordan_M2"),
    ("full_M1", "state_sum"),
)
# each seeded slot picks one member per side; every choice has product
# ambient at most 9 and a product algebra with at most two blocks
PAIR_SLOTS = ((("random_03", "random_06"), ("jordan_M2",)),)

# blocks: systems per seed, each with K_IN scalars inside the numerical range
# of J_2 and one on the unit circle
BLOCK_SYSTEMS = 2
K_IN = 5
INNER_RADIUS = 0.4
_BLOCKS_TAG = 0xB10C
_PAIRS_TAG = 0xA125


class WrongAnswer(Exception):
    """An item's verdict differs from the answer known for its input."""


@dataclass
class Item:
    """One timed unit of work.  ``run`` returns the report text or raises."""

    name: str
    run: Callable[[], str]


def _read_back(spec, where: Path):
    """Write ``spec`` as a document, load it, and build its operator system."""
    path = where / f"{spec.name}.json"
    specio.atomic_write_text(path, json.dumps(specio.spec_to_dict(spec)) + "\n")
    loaded = specio.load_system(path)
    return loaded, specio.opsys_of(loaded, CONFIG.tol)


def _corpus(seed: int, where: Path) -> dict:
    """The seeded corpus as ``cstarenv corpus`` writes it: name -> (spec, system)."""
    manifest = corpus.write_corpus(where, seed=seed, count=CORPUS_COUNT)
    out = {}
    for entry in manifest["systems"]:
        spec = specio.load_system(where / entry["file"])
        out[spec.name] = (spec, specio.opsys_of(spec, CONFIG.tol))
    return out


def _analyze(spec, system):
    return analysis.analyze_system(
        system, CONFIG, name=spec.name, digest=specio.spec_digest(spec)
    )


def _require(ok: bool, name: str, what: str) -> None:
    if not ok:
        raise WrongAnswer(f"{name}: {what}")


def _check_system(spec, sa, report: dict) -> None:
    """The corpus answers: the frozen table, or one simple block for a random member."""
    name = spec.name
    killed = report["silov_killed"]
    blocks = [tuple(b) for b in report["blocks"]]
    if name in EXPECTED_KILLED:
        expected = sorted(EXPECTED_KILLED[name])
    elif name.startswith("random_"):
        _require(blocks == [(spec.ambient_dim, 1)], name, f"expected one block, got {blocks}")
        expected = []
    else:
        raise WrongAnswer(f"{name}: no expected answer")
    _require(
        killed["dk"] == expected and killed["lattice"] == expected,
        name,
        f"killed dk {killed['dk']} lattice {killed['lattice']}, expected {expected}",
    )


def _system_item(spec, system, check) -> Item:
    def run() -> str:
        sa = _analyze(spec, system)
        report = specio.analysis_report(sa)
        text = specio.dump_report(report)
        if not sa.agreement:
            raise errors.RouteDisagreementError(f"{spec.name}: routes disagree")
        check(spec, sa, report)
        return text

    return Item(spec.name, run)


def pair_names(seed: int) -> list[tuple[str, str]]:
    """The standard pairs plus one seeded draw per slot."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _PAIRS_TAG]))
    seeded = [
        (str(rng.choice(lefts)), str(rng.choice(rights))) for lefts, rights in PAIR_SLOTS
    ]
    return list(STANDARD_PAIRS) + seeded


def _pair_item(left, right) -> Item:
    name = f"{left.name}*{right.name}"

    def run() -> str:
        pa = analysis.analyze_pair(left, right, CONFIG)
        report = specio.pair_report(pa)
        text = specio.dump_report(report)
        failed = [c for c, v in report["checks"].items() if not v["verified"]]
        _require(pa.verified and not failed, name, f"checks failed: {failed}")
        return text

    return Item(name, run)


def _systems(seed: int, where: Path) -> list[Item]:
    return [
        _system_item(spec, system, _check_system)
        for spec, system in _corpus(seed, where).values()
        if spec.ambient_dim <= SYSTEMS_MAX_AMBIENT
        or (spec.name.startswith("state_sum") and spec.ambient_dim <= STATE_SUM_MAX_AMBIENT)
    ]


def _pairs(seed: int, where: Path) -> list[Item]:
    systems = _corpus(seed, where)
    names = pair_names(seed)
    # factor analyses are set-up: every pair reuses them, as verify-all does
    factors = {n: _analyze(*systems[n]) for n in sorted({n for pair in names for n in pair})}
    return [_pair_item(factors[a], factors[b]) for a, b in names]


def blocks_spec(seed: int, index: int, k_in: int):
    """``span{1, g, g*}`` for ``g = J_2 (+) diag(lambda)``, scalars in seeded order.

    ``k_in`` distinct scalars lie in the disk of radius 0.4, inside the
    numerical range of ``J_2``, so their blocks are killed.  One lies on the
    unit circle, outside the disk of radius 1/2, so it and ``J_2`` survive.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _BLOCKS_TAG, index]))
    inner: list[complex] = []
    while len(inner) < k_in:
        z = complex(rng.uniform(0.05, INNER_RADIUS) * np.exp(2j * np.pi * rng.uniform()))
        if all(abs(z - w) > 0.05 for w in inner):
            inner.append(z)
    outer = complex(np.exp(2j * np.pi * rng.uniform()))
    lam = np.array(inner + [outer])[rng.permutation(k_in + 1)]
    n = 2 + lam.size
    g = np.zeros((n, n), dtype=np.complex128)
    g[0, 1] = 1.0
    g[2:, 2:] = np.diag(lam)
    return specio.SystemSpec(name=f"blocks_{index}_k{k_in}", ambient_dim=n, generators=(g,))


def _block_checker(k_in: int):
    def check(spec, sa, report: dict) -> None:
        name = spec.name
        killed = report["silov_killed"]
        _require(killed["dk"] == killed["lattice"], name, f"routes differ: {killed}")
        _require(len(report["blocks"]) == k_in + 2, name, f"blocks {report['blocks']}")
        _require(len(killed["lattice"]) == k_in, name, f"killed {killed['lattice']}")
        g = spec.generators[0]
        for label in killed["lattice"]:
            val = sa.wedderburn.irrep_apply(label, g)
            _require(
                val.shape == (1, 1) and abs(val[0, 0]) <= INNER_RADIUS + 1e-9,
                name,
                f"killed block {label} is not an inner scalar",
            )
        dims = sorted(d for d, _ in report["envelope_blocks"])
        _require(dims == [1, 2], name, f"envelope dims {dims}")

    return check


def _blocks(seed: int, where: Path) -> list[Item]:
    items = []
    for index in range(BLOCK_SYSTEMS):
        spec, system = _read_back(blocks_spec(seed, index, K_IN), where)
        items.append(_system_item(spec, system, _block_checker(K_IN)))
    return items


BUILDERS = {"systems": _systems, "pairs": _pairs, "blocks": _blocks}


def warm_up(where: Path) -> None:
    """One analysis and report of the fixed canonical state-sum system.

    The first analysis in a process pays the lazy numpy/LAPACK set-up; every
    command-line run pays it too, so it belongs to set-up.
    """
    spec = next(e.spec for e in corpus.corpus_entries(1, 4) if e.spec.name == "state_sum")
    spec, system = _read_back(spec, where)
    sa = _analyze(spec, system)
    specio.dump_report(specio.analysis_report(sa))


def build(name: str, seed: int, where: Path) -> list[Item]:
    """The items of workload ``name`` for ``seed``; its documents go under ``where``."""
    return BUILDERS[name](seed, Path(where))
