"""Boundary representations, boundary ideals, and the minimal quotient.

One route decides the minimal boundary ideal, and it holds the certificate
of every verdict:

* the *lattice route* tests block ideals directly for the boundary property
  (existence of a UCP left inverse to the quotient on the system).  Boundary
  ideals are exactly the ideals inside the Šilov ideal, a down-set with a
  maximum, so only the full ideal, the singletons and the union of the
  singletons that survive the exact norm-drop probe need a verdict.  The
  maximum's left inverse ψ is the route's one certificate: it certifies
  that the maximum is boundary, and by restriction every ideal inside it;
* the *representation route* reads the boundary representations off those
  verdicts.  The Šilov ideal is the intersection of the kernels of the
  boundary representations (Arveson 2008), and in finite dimensions every
  boundary representation is a block, so block j is boundary exactly when
  the singleton ideal {j} is not boundary.  A block ψ keeps is one whose
  singleton the lattice route refuted by a matrix whose norm drops (found
  by the probe, or built from a search's affine gap); a block ψ kills has
  its second UCP extension read off ψ.

The left inverse splits by target block.  Write ``u x u* = ⊕_i 1_{m_i} ⊗
π_i(x)``.  A UCP ψ on the kept blocks with ψ∘q = id on the system exists iff
every killed block i has a UCP map ψ_i: ⊕_{j kept} M_{d_j} → M_{d_i} with
ψ_i(q(h)) = π_i(h) for h in the system: compressing ψ to the first copy of
block i gives ψ_i, and conversely ψ(x) = u*(⊕_i 1_{m_i} ⊗ ψ_i(x))u is UCP
and inverts q once each kept block i takes the coordinate projection
x ↦ x_i.  The kept blocks are boundary representations, so their part of ψ
is fixed; only the killed blocks are searched, each in a spectrahedron of
Choi size d_j·d_i instead of d_j·n.  The certificate stays in that form,
the Choi parts of each ψ_i (one per kept block); ψ itself is never built,
its check is bounded from the parts (:func:`_checked_envelope`).

The norm-drop probe, the searches and the left-inverse check read one basis
and one image stack, built once per envelope by :func:`block_images`: the
system's Hermitian basis h and its images π_j(h) under every block j.  The
lattice route's spectrahedron for a killed block i holds the UCP maps ψ_i
on the kept blocks with ψ_i(q(h)) = π_i(h), the norm-drop probe takes
combinations of the h, and the check measures ψ_i(q(h)) − π_i(h).

:func:`cstar_envelope` runs the lattice route's search and hands its
certificate to one checker, which checks the parts of the left inverse ψ
once, as the single isometry certificate: ψ is UCP and ψ∘q = id on the
system, so ``‖x‖ = ‖ψ_m(q_m(x))‖ ≤ ‖q_m(x)‖ ≤ ‖x‖`` at every matrix level
m and the quotient is completely isometric there.  The representation
route then reads its witnesses off ψ: for a block i that ψ kills, ψ_i∘q
agrees with π_i on the system and vanishes on block i, so it is a second
UCP extension (Arveson 2008; Dritschel and McCullough 2005) within ψ's
checked tolerances, and block i is decided by ψ alone.  A block ψ keeps
is decided by its singleton's refutation, whose norm drop is re-checked
from its matrix alone (see :func:`boundary_representations`).  The
envelope then builds the quotient and the enveloping block algebra.  A
tensor product's certificate, built from its factors', goes through the
same checker with no search (:mod:`cstarenv.tensor`).
The norm falsifier :func:`falsify_complete_isometry` is the lattice route's
exact refutation: a deterministic level-1/2 probe whose norm drop, with the
matrix that shows it, rules a left inverse out.  The probe is drawn once
per system and its norms are taken once per block (:func:`norm_table`):
for x over A, ‖x‖ = max_j ‖π_j(x)‖ and ‖q(x)‖ is the same maximum over the
kept blocks, so one table decides the probe for every ideal, and a larger
ideal never shows a smaller drop.  An ideal it leaves standing is decided
by the feasibility search alone, and an undecided search is reported as
inconclusive.

Structure decides before any search does.  The full ideal is refuted by
the unit, whose norm 1 falls to 0 in the zero quotient, so a simple algebra
(one block) has Šilov ideal 0, and its only block's singleton is refuted
like any other kept block's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InconclusiveError,
    StructuralError,
    VerificationError,
)
from .linalg import (
    DEFAULT_TOL,
    MatSubspace,
    Tolerances,
    hermitian_basis,
    hermitian_units,
)
from .opsys import CStarAlgebra, OperatorSystem, generated_cstar
from .ucp import (
    FeasibilityResult,
    UcpSpectrahedron,
    is_unique_ucp_extension,
    maximally_entangled,
    ucp_feasibility,
)
from .wedderburn import (
    BlockIdeal,
    QuotientMap,
    WedderburnData,
    quotient_map,
    wedderburn_decompose,
)

__all__ = [
    "BlockUniqueness",
    "DkCertificate",
    "LatticeCertificate",
    "FalsifierReport",
    "IsometryCheck",
    "EnvelopeResult",
    "BlockImages",
    "NormTable",
    "block_images",
    "norm_table",
    "boundary_representations",
    "silov_ideal_dk",
    "is_boundary_ideal_ucp",
    "silov_ideal_lattice",
    "falsify_complete_isometry",
    "cstar_envelope",
]


@dataclass(frozen=True)
class BlockImages:
    """The data every UCP constraint and the norm-drop probe on a system
    are written from: its Hermitian basis, a ``(k, n, n)`` stack, and the
    image stack ``π_j(basis)``, ``(k, d_j, d_j)``, under every block j."""

    basis: np.ndarray
    images: tuple[np.ndarray, ...]

    def image(self, label: int) -> np.ndarray:
        """The stack ``π_label(basis)``."""
        return self.images[label - 1]

    @cached_property
    def norms(self) -> "NormTable":
        """The norm-drop probe's :func:`norm_table`, built on first use and
        read by every ideal the lattice route probes."""
        return norm_table(self)


def block_images(E: OperatorSystem, W: WedderburnData, tol: Tolerances) -> BlockImages:
    """The Hermitian basis of ``E`` and its images under every block of ``W``."""
    basis = hermitian_basis(E.space, tol=tol)
    return BlockImages(basis, tuple(W.irrep_apply(j, basis) for j in W.labels))


@dataclass(frozen=True)
class BlockUniqueness:
    """Uniqueness verdict for one irreducible block.

    A block the lattice route kills has method ``"left-inverse"``:
    ``witness`` holds the Choi tuple of a second UCP extension, the left
    inverse's parts for the block, and ``separation`` its distance from
    the representation.  A kept block has method ``"norm-drop"``:
    ``witness`` is the one-matrix list [x] that refutes its singleton ideal
    and ``separation`` the drop of x, re-checked from x alone.  A tensor
    product's pair blocks get theirs from the factors'
    (:mod:`cstarenv.tensor`).
    """

    label: int
    unique: bool
    method: str
    separation: float
    iterations: int
    witness: list | None = None


@dataclass(frozen=True)
class DkCertificate:
    """Representation-route certificate: one uniqueness verdict per block."""

    per_block: tuple[BlockUniqueness, ...]

    @property
    def boundary_labels(self) -> frozenset[int]:
        return frozenset(b.label for b in self.per_block if b.unique)

    @property
    def iterations(self) -> int:
        return sum(b.iterations for b in self.per_block)


@dataclass(frozen=True)
class LatticeCertificate:
    """Lattice-route certificate: feasibility verdict for every decided ideal.

    The decided ideals are the empty and the full ideal, every singleton, and
    the union of the singletons the norm-drop probe left standing (plus, if
    that union fails, the union of the singletons that pass on their own).

    ``witness`` is the left inverse certifying the maximal passing ideal,
    and by restriction every passing ideal (:func:`silov_ideal_lattice`):
    it maps each killed label i to the Choi parts of ψ_i, one
    ``(d_j·d_i)²`` matrix per kept label j in label order, and is ``{}``
    for the empty ideal.  ``refutations`` holds the failing verdict of the
    singleton of every block it keeps.
    """

    passing: tuple[frozenset[int], ...]
    failing: tuple[frozenset[int], ...]
    iterations: int
    witness: dict[int, tuple[np.ndarray, ...]]
    refutations: dict[int, FeasibilityResult]

    @property
    def maximal(self) -> frozenset[int]:
        return max(self.passing, key=lambda s: (len(s), sorted(s)))


def _block_choi(W: WedderburnData, lattice: LatticeCertificate, i: int) -> list[np.ndarray]:
    """Choi tuple of ψ_i∘q, one ``(d_j·d_i)²`` matrix per block j: for a
    block i that ψ kills, its parts at the kept sources (a missing part
    reads zero) and zero at the killed ones; for a block ψ keeps, the
    coordinate projection's ``maximally_entangled(d_i)`` at source i and
    zero elsewhere."""
    d = W.blocks[i - 1][0]
    if i in lattice.maximal:
        kept = [j for j in W.labels if j not in lattice.maximal]
        parts = dict(zip(kept, lattice.witness.get(i, ())))
    else:
        parts = {i: maximally_entangled(d)}
    return [
        parts[j] if j in parts else np.zeros((dj * d, dj * d), dtype=complex)
        for j, (dj, _) in enumerate(W.blocks, start=1)
    ]


def boundary_representations(
    W: WedderburnData,
    lattice: LatticeCertificate,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> DkCertificate:
    """Decide the unique-extension property for every block.

    A block i that the lattice route kills is decided by its part ψ_i of
    the left inverse alone, as checked in :func:`_checked_envelope`:
    ‖ψ_i(q(h)) − π_i(h)‖ ≤ r on the Hermitian basis, and every Choi part
    has least eigenvalue ≥ λ ≥ ``-tol_psd``.  The witness is φ = ψ_i∘q,
    whose Choi tuple over all blocks is ψ_i's parts at the kept sources and
    zero at the killed ones, so:

    * its least eigenvalue is at least min(0, λ);
    * φ(⊕_j π_j(h)) − π_i(h) = ψ_i(q(h)) − π_i(h), of norm at most r;
    * φ is zero at source i, where the representation's Choi matrix is
      ``maximally_entangled(d_i)`` of norm d_i, so φ lies at distance
      √(d_i² + Σ_j ‖φ_j‖²) ≥ d_i from it.

    So φ is a second UCP extension of π_i on the system and block i is not
    boundary (Arveson 2008).  The trade-off: the witness meets ψ's
    tolerances, not block i's affine constraints exactly.

    A block j that ψ keeps is boundary because the lattice route refuted
    its singleton {j} (``lattice.refutations``): the Šilov ideal is the
    largest boundary ideal and the intersection of the kernels of the
    boundary representations.  Every refutation carries a matrix x whose
    norm drops, from the probe or from a search's affine gap
    (:func:`_gap_refutation`), and is re-checked from x by
    :func:`is_unique_ucp_extension`, which reads the other blocks' rows of
    ``u``, not the probe's norm table; a failed re-check raises
    :class:`VerificationError` naming the block.  A simple algebra's one
    block is refuted by the unit (:func:`is_boundary_ideal_ucp`), with no
    other block to keep its norm.
    """
    offsets = W.block_offsets()
    rows = {j: W.u[s : s + d] for j, s, (d, _) in zip(W.labels, offsets, W.blocks)}
    results = []
    for label in W.labels:
        if label in lattice.maximal:
            d = W.blocks[label - 1][0]
            witness = _block_choi(W, lattice, label)
            separation = math.sqrt(d * d + sum(float(np.linalg.norm(c)) ** 2 for c in witness))
            results.append(BlockUniqueness(label, False, "left-inverse", separation, 0, witness))
            continue
        refuted = lattice.refutations[label]
        others = [rows[j] for j in W.labels if j != label]
        try:
            res = is_unique_ucp_extension(refuted.certificate[0], others, tol)
        except VerificationError as exc:
            raise VerificationError(f"block {label} (kept by the lattice route): {exc}") from None
        results.append(
            BlockUniqueness(
                label, True, res.method, res.separation, res.iterations, refuted.certificate
            )
        )
    return DkCertificate(tuple(results))


def silov_ideal_dk(
    W: WedderburnData,
    lattice: LatticeCertificate,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[BlockIdeal, DkCertificate]:
    """The lattice route's ideal with the representation route's certificate.

    The ideal is ``lattice.maximal``, the blocks ψ kills.  Each of them is
    not a boundary representation by its witness read off ψ, and each block
    ψ keeps is one by its singleton's refutation
    (:func:`boundary_representations`).  The full ideal never passes, so at
    least one block is kept and boundary.
    """
    return BlockIdeal(W, lattice.maximal), boundary_representations(W, lattice, tol=tol)


def _cells(parts: np.ndarray) -> np.ndarray:
    """``(B, m*m, d, d)`` cells to the ``(B, m*d, m*d)`` block matrices whose
    cell (r, s) is ``parts[:, r*m + s]``."""
    B, mm, d, _ = parts.shape
    m = math.isqrt(mm)
    return parts.reshape(B, m, m, d, d).transpose(0, 1, 3, 2, 4).reshape(B, m * d, m * d)


@dataclass(frozen=True)
class NormTable:
    """The norm-drop probe of one system and its norms under every block.

    Probe b of level m is the m×m block matrix whose cell (r, s) is
    ``Σ_k coeffs[m-1][b, r·m + s, k]·basis[k]``, and ``norms[m-1][j-1, b]``
    is the operator norm of its image under block j, taken cell by cell.
    """

    basis: np.ndarray
    coeffs: tuple[np.ndarray, ...]
    norms: tuple[np.ndarray, ...]

    def probe(self, level: int, b: int) -> np.ndarray:
        """Probe ``b`` of level ``level`` as an ambient ``(level·n)²`` matrix."""
        parts = np.einsum("uk,kij->uij", self.coeffs[level - 1][b], self.basis)
        return _cells(parts[np.newaxis])[0]


def norm_table(data: BlockImages) -> NormTable:
    """Draw the norm-drop probe once and take its norm under every block.

    The probe is deterministic, seeded by ``0xD209`` alone: at level 1 the
    Hermitian basis and 48 random combinations of it, at level 2 sixteen
    random 2×2 block matrices over it.  Each π_j is linear, so block j's
    probe images are the same combinations of ``data.image(j)``: one batched
    SVD per block and level, of ``d_j``- and ``2d_j``-sized matrices.
    """
    k = data.basis.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0xD209))
    # the same stream as drawing each combination's real, then imaginary parts
    re_im = rng.standard_normal((48, 2, k))
    c1 = re_im[:, 0] + 1j * re_im[:, 1]
    re_im = rng.standard_normal((16, 2, 4, k))
    coeffs = (np.concatenate([np.eye(k), c1])[:, np.newaxis, :], re_im[:, 0] + 1j * re_im[:, 1])
    norms = tuple(
        np.array(
            [
                np.linalg.svd(_cells(np.einsum("buk,kij->buij", c, img)), compute_uv=False)[:, 0]
                for img in data.images
            ]
        )
        for c in coeffs
    )
    return NormTable(data.basis, coeffs, norms)


@dataclass(frozen=True)
class FalsifierReport:
    """Outcome of the norm-drop probe :func:`falsify_complete_isometry`.

    ``gap`` is the largest relative drop ``1 - ‖q_m(x)‖/‖x‖`` found, at
    matrix level ``level``, and ``witness`` the matrix x that attains it,
    scaled to operator norm one.  The probe does not iterate, so
    ``iterations`` is 0.
    """

    violation: bool
    level: int | None
    gap: float
    witness: np.ndarray | None
    levels_searched: tuple[int, ...]
    iterations: int


def falsify_complete_isometry(
    table: NormTable, killed: frozenset[int], tol: Tolerances = DEFAULT_TOL
) -> FalsifierReport:
    """Search for a matrix over the system whose norm drops in the quotient
    that kills the blocks ``killed``.

    A left inverse forces the quotient to be completely isometric on the
    system, so a drop above ``tol_norm`` refutes the ideal exactly, with the
    witness to check.  Every ideal reads the system's one probe and its
    per-block norms, ``table`` (:func:`norm_table`): for x in M_m(A), ‖x‖ is
    the largest norm over all blocks and ‖q_m(x)‖ the largest over the kept
    blocks (0 when none is kept).  The witness is the ambient probe scaled
    by ‖x‖.  No drop decides nothing.
    """
    kept = [j for j in range(table.norms[0].shape[0]) if j + 1 not in killed]
    gap, best = -np.inf, None
    for m, norms in enumerate(table.norms, start=1):
        nx = norms.max(axis=0)
        nq = norms[kept].max(axis=0) if kept else np.zeros_like(nx)
        big = np.flatnonzero(nx >= tol.tol_rank)
        if big.size:
            drops = 1.0 - nq[big] / nx[big]
            b = int(np.argmax(drops))
            if drops[b] > gap:
                gap, best = float(drops[b]), (m, int(big[b]), float(nx[big[b]]))
    level, witness = None, None
    if best is not None:
        level, b, nx_b = best
        witness = table.probe(level, b) / nx_b
    return FalsifierReport(gap > tol.tol_norm, level, gap, witness, (1, 2), 0)


def is_boundary_ideal_ucp(
    W: WedderburnData,
    data: BlockImages,
    killed: frozenset[int],
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> FeasibilityResult:
    """Decide the boundary property for one block ideal.

    The empty ideal always has the canonical left inverse, the identity,
    with no parts (``{}``).  The full ideal is refuted by the unit, whose
    norm 1 falls to 0 in the zero quotient.  The exact norm-drop probe
    :func:`falsify_complete_isometry`, read off the system's one norm table
    ``data.norms``, then refutes most infeasible ideals (a drop refutes any
    left inverse); the rest go through the feasibility engine, one killed
    block at a time (:func:`_left_inverse_search`).  An undecided search
    raises :class:`InconclusiveError`.
    """
    killed = frozenset(killed)
    if not killed:
        return FeasibilityResult(True, {}, 0.0, 0, "identity")
    if killed == frozenset(W.labels):
        unit = np.eye(W.ambient, dtype=np.complex128)
        return FeasibilityResult(False, [unit], 1.0, 0, "norm-drop")
    report = falsify_complete_isometry(data.norms, killed, tol)
    if report.violation:
        return _refutation(report)
    return _left_inverse_search(W, data, killed, tol)


def _refutation(report: FalsifierReport) -> FeasibilityResult:
    """The infeasible verdict of a refuting probe, keeping its matrix."""
    return FeasibilityResult(False, [report.witness], report.gap, 0, "norm-drop")


def _left_inverse_search(
    W: WedderburnData, data: BlockImages, killed: frozenset[int], tol: Tolerances
) -> FeasibilityResult:
    """:func:`is_boundary_ideal_ucp` for an ideal the norm-drop probe left
    standing, searched one killed block at a time.

    A left inverse exists iff every killed block i has a UCP map
    ψ_i: ⊕_{j kept} M_{d_j} → M_{d_i} with ψ_i(q(h)) = π_i(h) on the
    Hermitian basis (see the module docstring), so only the killed blocks
    are searched, and the verdict's certificate maps each to the Choi parts
    of its ψ_i.  Each search starts from the
    tracial map, affinely projected; its iterations add up, and a failing
    block fails the ideal by its gap's matrix (:func:`_gap_refutation`).
    An undecided block raises :class:`InconclusiveError` naming the ideal
    and the block, and no later block is searched.
    """
    kept = [j for j in W.labels if j not in killed]
    dims = tuple(W.blocks[j - 1][0] for j in kept)
    sources = [data.image(j) for j in kept]
    parts = {}
    residual, iterations = 0.0, 0
    for i in sorted(killed):
        d = W.blocks[i - 1][0]
        spec = UcpSpectrahedron.from_constraints(dims, d, sources, data.image(i))
        tracial = [np.eye(dj * d, dtype=complex) / (dj * len(kept)) for dj in dims]
        start = spec.affine_project(spec.pack_tuple(tracial)[np.newaxis, :])[0]
        try:
            res = ucp_feasibility(spec, tol=tol, start=start)
        except InconclusiveError as exc:
            raise InconclusiveError(f"ideal {sorted(killed)}, killed block {i}: {exc}") from None
        iterations += res.iterations
        if not res.feasible:
            return _gap_refutation(W, data, kept, spec, iterations)
        residual = max(residual, res.residual)
        parts[i] = tuple(res.certificate)
    return FeasibilityResult(True, parts, residual, iterations, "douglas-rachford")


def _gap_refutation(
    W: WedderburnData,
    data: BlockImages,
    kept: list[int],
    spec: UcpSpectrahedron,
    iterations: int,
) -> FeasibilityResult:
    """The norm-drop refutation carried by a killed block's affine gap.

    The gap residual r = rhs − P_range(L)(rhs) of the block's spectrahedron
    satisfies Lᵀr = 0 and ⟨r, rhs⟩ = ‖r‖² > 0.  With G = ``hermitian_units(t)``
    and R_c = Σ_β r_{cβ} G_β, X = Σ_c conj(R_c) ⊗ h_c is a Hermitian level-t
    matrix over the system, and its part at block j is
    X_j = Σ_c conj(R_c) ⊗ π_j(h_c).  Lᵀr = 0 says X_j = 0 at every kept j,
    and ⟨r, rhs⟩ = Σ_c tr(R_c π_i(h_c)) is a sum of entries of the killed
    block's part, which is so not zero: q_t(X) = 0 and X's norm drops by 1.
    X is returned scaled to norm one.
    """
    t = spec.target_dim
    r = spec.rhs - spec.L @ spec.particular_solution()
    R = np.conj(np.einsum("cb,bpq->cpq", r.reshape(-1, t * t), hermitian_units(t)))

    def level_t(stack: np.ndarray) -> np.ndarray:
        return np.einsum("crs,cab->rasb", R, stack).reshape((t * stack.shape[-1],) * 2)

    norms = {j: float(np.linalg.norm(level_t(data.image(j)), 2)) for j in W.labels}
    nx = max(norms.values())
    drop = 1.0 - max(norms[j] for j in kept) / nx
    return FeasibilityResult(False, [level_t(data.basis) / nx], drop, iterations, "norm-drop")


def _interpolation_residual(
    W: WedderburnData,
    data: BlockImages,
    killed: frozenset[int],
    parts: dict[int, tuple[np.ndarray, ...]],
    tol: Tolerances,
) -> float:
    """Check that the Choi parts ``parts[i]``, one ``(d_j·d_i)²`` matrix per
    block j that ``killed`` keeps, give every killed block i a map ψ_i with
    Σ_j ψ_i,j(π_j(h)) = π_i(h) for every ``h`` in the Hermitian basis.

    Returns the largest Hilbert-Schmidt residual over the killed blocks
    (0.0 when none is killed).  Raises :class:`VerificationError` naming
    the ideal when a killed block has no parts or parts of the wrong shape,
    or when a residual exceeds ``10·tol_rank·max(1, n)``.
    """
    where = f"left inverse for the ideal {sorted(killed)}"
    if set(parts) != set(killed):
        raise VerificationError(f"{where} has parts for the blocks {sorted(parts)}")
    kept = [j for j in W.labels if j not in killed]
    dims = [W.blocks[j - 1][0] for j in kept]
    resid = 0.0
    for i in sorted(killed):
        di = W.blocks[i - 1][0]
        shapes = [np.shape(c) for c in parts[i]]
        if shapes != [(dj * di, dj * di) for dj in dims]:
            raise VerificationError(f"{where}: block {i} has parts of shapes {shapes}")
        out = -data.image(i).astype(np.complex128)
        for j, dj, c in zip(kept, dims, parts[i]):
            out += np.einsum("hkl,kalb->hab", data.image(j), c.reshape(dj, di, dj, di))
        resid = max(resid, float(np.max(np.linalg.norm(out, axis=(1, 2)))))
    if resid > 10 * tol.tol_rank * max(1.0, float(W.ambient)):
        raise VerificationError(
            f"{where} fails to interpolate the system (residual {resid:.3e})"
        )
    return resid


def silov_ideal_lattice(
    W: WedderburnData,
    data: BlockImages,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[BlockIdeal, LatticeCertificate]:
    """Minimal boundary ideal as the maximum of the boundary-ideal lattice.

    A block ideal is boundary exactly when it lies inside the Šilov ideal,
    so the maximum is the union of the boundary singletons.  The route tests
    the full ideal, refutes singletons with the exact norm-drop probe, and
    tests the union U of the singletons left standing with one feasibility
    call.  If U fails, each candidate singleton is tested on its own and the
    union of the passers must pass: boundary singletons whose union is not
    boundary mean broken numerics, not mathematics, and raise
    :class:`StructuralError`.  Either way the union that passed is the
    maximum, and its left inverse ψ, which :func:`cstar_envelope` checks, is
    the route's one certificate.  The empty ideal is tested (by its
    identity) only when it is the maximum.

    The empty ideal and the candidate singletons inside the maximum pass by
    restriction, with no certificate of their own and the maximum's
    residual.  For an ideal I inside the maximum, a block i that I kills
    keeps the maximum's ψ_i, with zero parts added at the blocks the
    maximum kills and I keeps: it is UCP with ψ_i's residual.  The
    verdicts are monotone by construction: every passing ideal is inside
    the maximum, and every failing one is the full ideal, a refuted or
    failing singleton outside it, or the first union in the fallback.
    Every probe and search reads ``data``, the system's :func:`block_images`,
    and every probe the one norm table it builds on first use.
    """
    verdicts: dict[frozenset[int], FeasibilityResult] = {}
    candidates = []  # singletons the norm-drop probe already left standing

    def verdict(killed: frozenset[int]) -> FeasibilityResult:
        if killed not in verdicts:
            if killed in candidates:
                verdicts[killed] = _left_inverse_search(W, data, killed, tol)
            else:
                verdicts[killed] = is_boundary_ideal_ucp(W, data, killed, tol=tol)
        return verdicts[killed]

    verdict(frozenset(W.labels))
    if W.num_blocks > 1:
        table = data.norms
        for j in W.labels:
            single = frozenset({j})
            report = falsify_complete_isometry(table, single, tol)
            if report.violation:
                verdicts[single] = _refutation(report)
            else:
                candidates.append(single)
    union = frozenset().union(*candidates)
    if not verdict(union).feasible:
        union = frozenset().union(*(s for s in candidates if verdict(s).feasible))
        if not verdict(union).feasible:
            raise StructuralError(
                f"boundary singletons {sorted(union)} pass one by one but their "
                "union fails the boundary test"
            )
    # in the fallback every candidate already has its own verdict
    restricted = FeasibilityResult(True, None, verdicts[union].residual, 0, "restriction")
    for killed in (frozenset(), *candidates):
        verdicts.setdefault(killed, restricted)
    passing = tuple(sorted((k for k, v in verdicts.items() if v.feasible), key=sorted))
    failing = tuple(sorted((k for k, v in verdicts.items() if not v.feasible), key=sorted))
    iterations = sum(v.iterations for v in verdicts.values())
    witness = verdicts[union].certificate
    refutations = {j: verdicts[frozenset({j})] for j in W.labels if j not in union}
    return BlockIdeal(W, union), LatticeCertificate(
        passing, failing, iterations, witness, refutations
    )


@dataclass(frozen=True)
class IsometryCheck:
    """Numbers of the check of the lattice witness ψ: the largest residual
    ‖ψ_i(q(h)) − π_i(h)‖ over the killed blocks i and the Hermitian basis,
    and the least eigenvalue of a Choi part; both are 0.0 when nothing is
    killed."""

    residual: float
    min_eig: float


@dataclass(frozen=True)
class EnvelopeResult:
    """The minimal quotient of a system with its certificates: the lattice
    route's checked left inverse and the per-block verdicts read off it."""

    system: OperatorSystem
    algebra: CStarAlgebra
    wedderburn: WedderburnData
    ideal: BlockIdeal
    quotient: QuotientMap
    envelope: CStarAlgebra
    dk_certificate: DkCertificate
    lattice_certificate: LatticeCertificate
    isometry: IsometryCheck

    @property
    def boundary_labels(self) -> frozenset[int]:
        return self.dk_certificate.boundary_labels

    @property
    def envelope_block_dims(self) -> tuple[int, ...]:
        kept = sorted(set(self.ideal.parent.labels) - self.ideal.killed)
        return tuple(self.ideal.parent.blocks[j - 1][0] for j in kept)

    @property
    def iterations(self) -> int:
        return self.dk_certificate.iterations + self.lattice_certificate.iterations


def _envelope_algebra(W: WedderburnData, killed: frozenset[int]) -> CStarAlgebra:
    """The quotient's target block algebra, concretely block diagonal."""
    kept = [j for j in W.labels if j not in killed]
    dims = [W.blocks[j - 1][0] for j in kept]
    t = sum(dims)
    if t == 0:
        raise StructuralError("empty envelope")
    # the units are 1 at the places (r, c) of the diagonal blocks, and
    # nonzero lists them row-major, block by block in matrix_units' order;
    # one index assignment places them all
    owner = np.repeat(np.arange(len(dims)), dims)
    rows, cols = np.nonzero(owner[:, None] == owner[None, :])
    mats = np.zeros((rows.size, t, t), dtype=complex)
    mats[np.arange(rows.size), rows, cols] = 1.0
    # matrix units in distinct places are already orthonormal: span_of would
    # return these rows unchanged
    return CStarAlgebra(space=MatSubspace(t, mats))


def cstar_envelope(
    E: OperatorSystem,
    *,
    tol: Tolerances = DEFAULT_TOL,
    algebra: CStarAlgebra | None = None,
    wedderburn: WedderburnData | None = None,
) -> EnvelopeResult:
    """Compute the minimal quotient and its certificates: the lattice
    route's search (:func:`silov_ideal_lattice`), which alone can end
    inconclusive, then :func:`_checked_envelope` on its certificate.  Both
    are deterministic; a missing ``wedderburn`` is computed with
    :func:`wedderburn_decompose`'s default seed.
    """
    A = algebra if algebra is not None else generated_cstar(E, tol=tol)
    W = wedderburn if wedderburn is not None else wedderburn_decompose(A, tol=tol)
    data = block_images(E, W, tol)
    _, lattice = silov_ideal_lattice(W, data, tol=tol)
    return _checked_envelope(E, A, W, data, lattice, tol)


def _checked_envelope(
    E: OperatorSystem,
    A: CStarAlgebra,
    W: WedderburnData,
    data: BlockImages,
    lattice: LatticeCertificate,
    tol: Tolerances,
) -> EnvelopeResult:
    """The envelope a lattice certificate proves, searched or built from
    other certificates, after checking it.

    The witness ψ, the isometry certificate of the quotient by
    ``lattice.maximal`` and of every ideal inside it, is checked once,
    before the representation route reads its witnesses off it, on its
    parts alone: for every killed block i, ψ_i(q(h)) = π_i(h) on the
    system's Hermitian basis within ``10·tol_rank·max(1, n)``
    (:func:`_interpolation_residual`), and every Choi part with least
    eigenvalue at least ``-tol_psd``; a failure raises
    :class:`VerificationError` naming the ideal.  Nothing of ambient size
    is built: with r the largest block residual, λ the least part
    eigenvalue and (δ, η) the decomposition's certified pattern residuals
    (:attr:`cstarenv.wedderburn.WedderburnData.pattern_residuals`), the
    ambient map ψ(x) = u*(⊕_i 1_{m_i} ⊗ ψ_i(x))u, a kept block i taking
    the coordinate projection, satisfies on every unit basis element h

        ‖ψ(q(h)) − h‖ ≤ (1 + δ)(√n·r + (1 + √m)·√D·η) + δ(2 + δ),

    with m the largest multiplicity and D = dim A: u*Ru carries the block
    residuals R = ⊕ 1_{m_i} ⊗ (ψ_i(q(h)) − π_i(h)), of norm at most √n·r,
    with ‖u‖² ≤ 1 + δ; ⊕ 1_{m_i} ⊗ π_i(h) is u h u* up to (1 + √m)·√D·η;
    and u*u h u*u − h is at most δ(2 + δ).  Its Choi blocks are a
    congruence by 1 ⊗ u of the parts, the coordinate projections'
    ``maximally_entangled`` blocks and zeros, so their least eigenvalue is
    at least (1 + δ)·min(0, λ).  :func:`silov_ideal_dk` then re-checks
    every kept block's norm drop from its matrix, and a failure raises
    :class:`VerificationError` naming the block.
    """
    witness = lattice.witness
    residual = _interpolation_residual(W, data, lattice.maximal, witness, tol)
    min_eig = min(
        (float(np.linalg.eigvalsh(c)[0]) for parts in witness.values() for c in parts),
        default=0.0,
    )
    if min_eig < -tol.tol_psd:
        raise VerificationError(
            f"left inverse for the ideal {sorted(lattice.maximal)} is not completely "
            f"positive (least Choi eigenvalue {min_eig:.3e})"
        )
    ideal, dk_cert = silov_ideal_dk(W, lattice, tol=tol)
    return EnvelopeResult(
        system=E,
        algebra=A,
        wedderburn=W,
        ideal=ideal,
        quotient=quotient_map(ideal),
        envelope=_envelope_algebra(W, ideal.killed),
        dk_certificate=dk_cert,
        lattice_certificate=lattice,
        isometry=IsometryCheck(residual, min_eig),
    )
