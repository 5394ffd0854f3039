"""Block decomposition of finite-dimensional C*-algebras.

A unital *-subalgebra of ``M_n`` is unitarily equivalent to a direct sum
of full matrix blocks with multiplicities: conjugating by the computed
unitary puts every algebra element into block-diagonal form in which
block ``i`` consists of ``m_i`` identical copies of a ``d_i x d_i``
matrix.  The decomposition is found numerically: a seeded random
Hermitian element of the center splits the algebra into isotypic
components, a random Hermitian element of each component's commutant
splits the component into equivalent irreducible copies, and Schur
intertwiners align the copies.  An algebra of dimension n² is M_n itself
and needs none of this: it is one block (n, 1) with u = 1, whose irrep is
the algebra's own basis, so its decomposition is exact.  Everything
downstream (ideals, quotient maps, boundary computations) consumes the
resulting block data.

One formula gives every block representation: with ``v`` the rows of the
unitary ``u`` for block ``i``'s first copy, π_i(x) = v x v*, the
compression of ``u x u*`` to that copy.  It holds for elements of the
algebra only, and applies to one matrix or to an ``(..., n, n)`` stack
alike; the quotient by a block ideal places the kept blocks' compressions
on the diagonal.

Block labels are 1-based throughout, matching the reports.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DecompositionError, InputError
from .linalg import (
    DEFAULT_TOL,
    MatSubspace,
    Tolerances,
    cluster_eigenvalues,
    dagger,
    herm_eig,
    hs_norm,
    matrix_units,
    random_element,
    subspace_intersection,
)
from .opsys import CStarAlgebra

__all__ = [
    "WedderburnData",
    "BlockIdeal",
    "QuotientMap",
    "commutant",
    "wedderburn_decompose",
    "quotient_map",
]

# residual ceiling for structural validation; the arithmetic lands around 1e-13
_VALIDATION_TOL = 1e-8
_CLUSTER_GAP = 1e-6
_MAX_ATTEMPTS = 3


def _sylvester_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Stacked ``I (x) r^T - l (x) I`` over the pairs ``(l, r)`` of two
    ``(c, d, d)`` stacks, shape ``(c*d*d, d*d)``: with row-major flattening
    its null space is ``{x : x r = l x for every pair}``.  One broadcast of
    the products ``np.kron`` forms gives its entries bit for bit, signed
    zeros included."""
    c, d, _ = left.shape
    eye = np.eye(d)
    right_t = np.ascontiguousarray(right.transpose(0, 2, 1))
    rows = eye[None, :, None, :, None] * right_t[:, None, :, None, :]
    rows -= left[:, :, None, :, None] * eye[None, None, :, None, :]
    return rows.reshape(c * d * d, d * d)


def commutant(s: MatSubspace, tol: Tolerances = DEFAULT_TOL) -> MatSubspace:
    """Commutant ``{x : xb = bx for every basis element b}`` inside ``M_n``.

    An operator system E has the same commutant as the C*-algebra it
    generates: x commutes with every product of elements it commutes with,
    and E = E* holds the adjoints already.  So E's basis is enough, and it
    is shorter than the algebra's.
    Solved as one stacked null-space problem; with row-major flattening
    ``vec(xb - bx) = (I (x) b^T - b (x) I) vec(x)``.  The thin SVD still has
    all ``n**2`` right singular vectors, as the stack has at least ``n**2``
    rows.  The basis is orthonormal, so the rank cutoff is relative to at
    least 1: when every basis element is scalar the stack is zero up to
    rounding, and a cutoff relative to its largest singular value would count
    that noise as rank.  The trailing right singular vectors are orthonormal,
    so they are the returned basis as they stand.
    """
    n = s.ambient
    if s.dim == 0:
        return MatSubspace(n, matrix_units(n).copy())
    _, sig, vh = np.linalg.svd(_sylvester_rows(s.basis, s.basis), full_matrices=False)
    cutoff = tol.tol_rank * max(float(sig[0]) if sig.size else 0.0, 1.0)
    rank = int(np.sum(sig > cutoff))
    return MatSubspace(n, np.conj(vh[rank:]).reshape(-1, n, n))


@dataclass(frozen=True)
class WedderburnData:
    """Result of a block decomposition.

    ``blocks[i-1] = (d_i, m_i)``; ``u @ a @ u*`` is block diagonal with
    ``m_i`` adjacent identical ``d_i x d_i`` copies per block, blocks ordered
    by descending ``d_i`` with a trace fingerprint as tie-break.
    ``irreps[i-1]`` stacks the irreducible representation's values on the
    algebra basis, shape ``(algebra.dim, d_i, d_i)``; validation ties them
    to ``u``.  :meth:`irrep_apply` evaluates π_i(x) = v x v* from ``u``
    directly, for ``x`` in the algebra.  :attr:`pattern_residuals` is the
    pattern's certificate (δ, η) (see :func:`_pattern_residuals`).
    """

    algebra: CStarAlgebra
    u: np.ndarray = field(repr=False)
    blocks: tuple[tuple[int, int], ...]
    irreps: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def ambient(self) -> int:
        return self.algebra.ambient

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.num_blocks + 1))

    def irrep_apply(self, label: int, x: np.ndarray) -> np.ndarray:
        """Apply the block-``label`` irreducible representation to ``x``.

        π_i(x) = v x v*, where ``v = u[s:s+d_i]`` are the rows of ``u`` for
        block i's first copy.  ``x`` is one matrix or an ``(..., n, n)``
        stack and must lie in the algebra: outside it the compression is not
        a representation.
        """
        s = self.block_offsets()[label - 1]
        v = self.u[s : s + self.blocks[label - 1][0]]
        return v @ x @ dagger(v)

    @cached_property
    def pattern_residuals(self) -> tuple[float, float]:
        """(δ, η) of the block pattern: unitarity and pattern residuals.

        :func:`wedderburn_decompose` and the pair decomposition
        (:func:`cstarenv.tensor.product_blocks`) attach the values they
        certified; any other instance, a ``dataclasses.replace`` copy
        included, computes them on first use from its own ``u`` and
        ``irreps``, so a tampered copy never carries the original's.
        """
        return _pattern_residuals(
            self.algebra, self.u, self.blocks, self.irreps, sum(m * m for _, m in self.blocks)
        )

    def block_offsets(self) -> list[int]:
        """Start offset of each block's isotypic component in the conjugated picture."""
        offs = [0]
        for d, m in self.blocks:
            offs.append(offs[-1] + d * m)
        return offs


def _local_span(compressed: np.ndarray, tol: Tolerances) -> MatSubspace:
    """Span of a ``(k, r, r)`` stack from one SVD: its rank counts the
    singular values above ``tol_rank`` times the largest, and the leading
    right singular vectors, orthonormal, are its basis."""
    k, r, _ = compressed.shape
    _, sig, vh = np.linalg.svd(compressed.reshape(k, r * r), full_matrices=False)
    rank = int(np.sum(sig > tol.tol_rank * sig[0]))
    return MatSubspace(r, vh[:rank].reshape(rank, r, r))


def _split_component(
    r_cols: np.ndarray,
    algebra_basis: np.ndarray,
    rng: np.random.Generator,
    tol: Tolerances,
) -> tuple[int, int, list[np.ndarray]] | None:
    """Split one isotypic component into aligned irreducible copies.

    ``r_cols`` holds an orthonormal basis of the component (n x r).  Returns
    ``(d, m, copies)`` with ``copies[j]`` an ``n x d`` isometry such that
    ``copies[j]* a copies[j]`` is the same matrix for every ``j``, or None if
    the random splitting element failed to separate.
    """
    n = r_cols.shape[0]
    r = r_cols.shape[1]
    compressed = np.einsum("pi,kpq,qj->kij", np.conj(r_cols), algebra_basis, r_cols)
    local = _local_span(compressed, tol)
    dsq = local.dim
    d = int(round(np.sqrt(dsq)))
    if d * d != dsq or r % d != 0:
        return None
    m = r // d
    if m == 1:
        return d, 1, [r_cols]
    local_comm = commutant(local, tol)
    if local_comm.dim != m * m:
        return None
    c = random_element(local_comm, rng, hermitian=True)
    w, v = herm_eig(c, tol)
    clusters = cluster_eigenvalues(w, _CLUSTER_GAP)
    if len(clusters) != m or any(sl.stop - sl.start != d for sl in clusters):
        return None
    copy_cols = [r_cols @ v[:, sl] for sl in clusters]
    # align copies via Schur intertwiners against the first copy
    base = copy_cols[0]
    base_rep = np.einsum("pi,kpq,qj->kij", np.conj(base), algebra_basis, base)
    copies = [base]
    eye_d = np.eye(d)
    for j in range(1, m):
        cur = copy_cols[j]
        cur_rep = np.einsum("pi,kpq,qj->kij", np.conj(cur), algebra_basis, cur)
        # solve T with cur_rep(a) T = T base_rep(a) for all basis a
        _, sig, vh = np.linalg.svd(_sylvester_rows(cur_rep, base_rep), full_matrices=False)
        cutoff = max(tol.tol_rank * sig[0], 1e-12)
        null_dim = int(np.sum(sig <= cutoff))
        if null_dim < 1:
            return None
        t_mat = np.conj(vh[-1]).reshape(d, d)
        # canonical phase for determinism
        idx = np.unravel_index(np.argmax(np.abs(t_mat)), t_mat.shape)
        lead = t_mat[idx]
        if np.abs(lead) > 0:
            t_mat = t_mat * (np.conj(lead) / np.abs(lead))
        gram = dagger(t_mat) @ t_mat
        scale = float(np.real(np.trace(gram))) / d
        if scale <= 0 or hs_norm(gram - scale * eye_d) > _VALIDATION_TOL * max(scale, 1.0) * d:
            return None
        t_mat = t_mat / np.sqrt(scale)
        copies.append(cur @ t_mat)
    return d, m, copies


def _pattern_residuals(
    algebra: CStarAlgebra,
    u: np.ndarray,
    blocks: Sequence[tuple[int, int]],
    irreps: Sequence[np.ndarray],
    comm_dim: int,
) -> tuple[float, float]:
    """(δ, η) of the block pattern, the decomposition's one structural
    certificate; η is ``inf`` when a dimension count fails.

    δ = ‖uu* − 1‖ + ‖u*u − 1‖; η is the largest ‖u a u* − P(a)‖ over the
    orthonormal basis a of A, P(a) = ⊕ 1_{m_k} ⊗ ρ_k(a) read from ``irreps``
    (Hilbert–Schmidt norms).  ``comm_dim`` is Σ m_k², and the pattern's
    copies fix m_k.  Acceptance asks δ + η ≤ 1e-8·n (``_VALIDATION_TOL``).

    For unitary u, x ↦ u x u* is an isometric *-automorphism mapping A into
    B = ⊕ 1_{m_k} ⊗ M_{d_k}, and dim A = Σ d_k² = dim B, so onto B: A is a
    *-algebra and each ρ_k a *-homomorphism onto M_{d_k}.  In general let
    T(a) = P(a) on the basis, D = dim A, Π the projection onto A and
    r = δ + √D·η ≤ 1/100 (acceptance gives r ≤ 1e-8·n²).  Then
    ‖x‖ ≤ ‖uxu*‖/(1 − 3δ) and ‖uxu* − Tx‖ ≤ √D·η‖x‖ make T map A onto B,
    and with uabu* − (uau*)(ubu*) = ua(1 − u*u)bu*, for basis elements a, b:
    dist(ab, A) ≤ 4r, ‖ρ_k(Π(ab)) − ρ_k(a)ρ_k(b)‖ ≤ 8r, and ρ_k has
    singular values ≥ 0.97/√m_k on A.
    """
    n = algebra.ambient
    delta = hs_norm(u @ dagger(u) - np.eye(n)) + hs_norm(dagger(u) @ u - np.eye(n))
    if (
        sum(d * d for d, _ in blocks) != algebra.dim
        or sum(m * m for _, m in blocks) != comm_dim
        or sum(d * m for d, m in blocks) != n
    ):
        return delta, np.inf
    basis = algebra.space.basis
    conjugated = np.einsum("ip,kpq,jq->kij", u, basis, np.conj(u))
    expected = np.zeros_like(conjugated)
    off = 0
    for (d, m), rep in zip(blocks, irreps):
        for _ in range(m):
            expected[:, off : off + d, off : off + d] = rep
            off += d
    return delta, float(np.max(np.linalg.norm((conjugated - expected).reshape(len(basis), -1), axis=1)))


def _certified(W: WedderburnData, residuals: tuple[float, float]) -> WedderburnData:
    """``W`` with the pattern residuals its builder certified attached, so
    :attr:`WedderburnData.pattern_residuals` does not recompute them."""
    W.__dict__["pattern_residuals"] = residuals
    return W


def wedderburn_decompose(
    algebra: CStarAlgebra, seed: int = 1, tol: Tolerances = DEFAULT_TOL
) -> WedderburnData:
    """Decompose a unital *-subalgebra of ``M_n`` into matrix blocks.

    Retries with fresh derived seeds (at most 3 attempts) when a random
    splitting element fails to separate eigenvalue clusters; raises
    ``DecompositionError`` if validation never passes.  The commutant is
    solved over the generating system ``algebra.powers[0]`` when the
    algebra records its powers (see :func:`commutant`), and over its basis
    otherwise.

    An algebra of dimension ``n**2`` is all of ``M_n``: it is decomposed as
    one block ``(n, 1)`` with ``u = 1`` and its own basis as the irrep,
    with no commutant, center, random element or split.  The block pattern
    still certifies it, with Σ m² = 1 the pattern's own count.  So the
    decomposition of a full matrix algebra, and every witness read off it,
    does not depend on rounding.
    """
    n = algebra.ambient
    if algebra.dim == n * n:
        blocks, irreps = [(n, 1)], [algebra.space.basis]
        u = np.eye(n, dtype=np.complex128)
        residuals = _pattern_residuals(algebra, u, blocks, irreps, 1)
        if sum(residuals) > _VALIDATION_TOL * max(1.0, float(n)):
            raise DecompositionError(
                f"full matrix algebra failed validation (residual {sum(residuals):.3e})"
            )
        W = WedderburnData(algebra=algebra, u=u, blocks=tuple(blocks), irreps=tuple(irreps))
        return _certified(W, residuals)
    comm = commutant(algebra.powers[0] if algebra.powers else algebra.space, tol)
    center = subspace_intersection(algebra.space, comm)
    num_blocks = center.dim
    if num_blocks == 0:
        raise DecompositionError("algebra has an empty center; not a unital algebra?")
    failures: list[str] = []
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0x57EDD, attempt]))
        z = random_element(center, rng, hermitian=True)
        w, v = herm_eig(z, tol)
        clusters = cluster_eigenvalues(w, _CLUSTER_GAP)
        if len(clusters) != num_blocks:
            failures.append(f"attempt {attempt}: central element gave {len(clusters)} clusters, wanted {num_blocks}")
            continue
        components = []
        bad = None
        for sl in clusters:
            split = _split_component(v[:, sl], algebra.space.basis, rng, tol)
            if split is None:
                bad = f"attempt {attempt}: component split failed"
                break
            components.append(split)
        if bad is not None:
            failures.append(bad)
            continue
        # block ordering: descending d, then lexicographic trace fingerprint
        decorated = []
        for d, m, copies in components:
            rep = np.einsum("pi,kpq,qj->kij", np.conj(copies[0]), algebra.space.basis, copies[0])
            traces = np.einsum("kii->k", rep)
            fingerprint = tuple(
                (round(float(np.real(t)), 6), round(float(np.imag(t)), 6)) for t in traces
            )
            decorated.append((-d, fingerprint, d, m, copies, rep))
        decorated.sort(key=lambda item: (item[0], item[1]))
        blocks = [(item[2], item[3]) for item in decorated]
        irreps = [item[5] for item in decorated]
        cols = [copy for item in decorated for copy in item[4]]
        u = dagger(np.concatenate(cols, axis=1))
        residuals = _pattern_residuals(algebra, u, blocks, irreps, comm.dim)
        if sum(residuals) <= _VALIDATION_TOL * max(1.0, float(n)):
            W = WedderburnData(algebra=algebra, u=u, blocks=tuple(blocks), irreps=tuple(irreps))
            return _certified(W, residuals)
        failures.append(f"attempt {attempt}: validation residual {sum(residuals):.3e}")
    raise DecompositionError(
        "block decomposition failed after "
        f"{_MAX_ATTEMPTS} attempts: {'; '.join(failures)}"
    )


@dataclass(frozen=True)
class BlockIdeal:
    """Two-sided ideal of a decomposed algebra, named by the blocks it lives on.

    The associated subspace consists of the elements vanishing on every block
    outside ``killed``; the quotient by this ideal kills exactly the blocks
    in ``killed``.
    """

    parent: WedderburnData
    killed: frozenset[int]

    def __post_init__(self):
        labels = set(self.parent.labels)
        if not set(self.killed) <= labels:
            raise InputError(f"killed blocks {sorted(self.killed)} outside {sorted(labels)}")


@dataclass(frozen=True)
class QuotientMap:
    """Quotient of a decomposed algebra by a block ideal.

    The target is the direct sum of the surviving blocks realized as block
    diagonal matrices of size ``target_dim = sum of surviving d_i``; the map
    is the unital *-homomorphism dropping the killed blocks, q(x) = ⊕ over
    kept i of π_i(x) = v_i x v_i*.  Inputs must lie in the algebra.  With
    every block killed the target is the zero algebra, and a stack of ``k``
    matrices maps to shape ``(k, 0, 0)``.
    """

    ideal: BlockIdeal
    kept: tuple[int, ...]
    target_dim: int

    @property
    def parent(self) -> WedderburnData:
        return self.ideal.parent

    def apply(self, x: np.ndarray) -> np.ndarray:
        """q(x) for one matrix or an ``(..., n, n)`` stack of algebra elements:
        the kept blocks' compressions placed on the diagonal."""
        W = self.parent
        out = np.zeros(x.shape[:-2] + (self.target_dim, self.target_dim), dtype=np.complex128)
        off = 0
        for label in self.kept:
            d = W.blocks[label - 1][0]
            out[..., off : off + d, off : off + d] = W.irrep_apply(label, x)
            off += d
        return out


def quotient_map(ideal: BlockIdeal) -> QuotientMap:
    W = ideal.parent
    kept = tuple(label for label in W.labels if label not in ideal.killed)
    target_dim = sum(W.blocks[label - 1][0] for label in kept)
    return QuotientMap(ideal=ideal, kept=kept, target_dim=target_dim)
