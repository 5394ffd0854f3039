"""Minimal tensor products of operator systems and their block structure.

For subspaces of matrix algebras the minimal tensor product is concrete:
``E (x) F`` is the span of elementary tensors inside ``M_(nm)``.  The tensor
of two Hermitian orthonormal bases is a Hermitian orthonormal basis of it,
Hermitian bit for bit when the factors' are, so the product system inherits
the stored basis the factors carry (:mod:`cstarenv.opsys`) and its
constraint data runs no Gram–Schmidt.  The block decomposition of the
generated algebra then factors: blocks are indexed by pairs of factor
blocks, with dimensions and multiplicities multiplying.
:func:`product_blocks` builds that pair-indexed decomposition directly from
the factor decompositions and certifies it by the block pattern alone: u is
unitary, ``u x u*`` is ⊕ 1_{m_k} ⊗ ρ_k(x) on the product basis, and
Σ d_k² is the algebra dimension.  The pattern puts the conjugated algebra
inside ⊕ M_{d_k} and the count makes it all of it, so multiplicativity and
spanning follow: x ↦ ⊕ ρ_k(x) is a *-isomorphism onto ⊕ M_{d_k}, the ρ_k
are pairwise inequivalent irreducibles, the pattern fixes their
multiplicities, and any other decomposition finds the same blocks in
another order.

The product's power chain is not rebuilt: (E ⊗ F)^k = E^k ⊗ F^k, so its
members are G_k = E^{min(k,a)} ⊗ F^{min(k,b)}, k = 1..K = max(a, b), read
off the chains E^1..E^a and F^1..F^b the factor algebras keep, and
:func:`_verified_power_chain` certifies them by induction on concrete
products in the tensor system S.  G_1 is S itself.  For each k the products
G_k·S lie in G_{min(k+1,K)} (a projection residual; at k = K that is
closure), and for k < K they span G_{k+1} together with G_k (the least
singular value of their coefficients, kept as a margin).  Then
span(G_k·S) = G_{k+1}, so G_k is the k-th power of S and G_K the algebra it
generates; no Gram–Schmidt runs on the product.

The product's envelope needs no search.  The paper identifies the Šilov
ideal of E ⊗min F as the kernel K of q_E ⊗ q_F, and the factors'
certificates give the product's: the tensor of the factor left inverses is
a UCP left inverse for K, so K is boundary, and the tensor of the factors'
refuting matrices drops in norm when any kept pair block is killed, so K is
the largest boundary ideal (Arveson 2008).  The certificate is checked on
the concrete tensor system like a searched one.  The factorization check
takes the two factor envelopes, and the boundary-pair check its report,
whose tensor system, pair blocks, power chain and three envelopes every
later pair check reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import EnvelopeResult, LatticeCertificate, _checked_envelope, block_images
from .errors import InputError, StructuralError, VerificationError
from .linalg import DEFAULT_TOL, MatSubspace, Tolerances, subspace_equal
from .opsys import CStarAlgebra, OperatorSystem
from .ucp import FeasibilityResult
from .wedderburn import BlockIdeal, WedderburnData
from .wedderburn import _VALIDATION_TOL, _validate_decomposition

__all__ = [
    "TensorSystem",
    "ProductBlocks",
    "TensorFactorizationReport",
    "BoundaryPairReport",
    "subspace_kron",
    "min_tensor",
    "product_blocks",
    "kernel_of_tensor_quotients",
    "verify_envelope_tensor_factorization",
    "verify_boundary_pair_closure",
]


def subspace_kron(s: MatSubspace, t: MatSubspace) -> MatSubspace:
    """Span of all elementary tensors, with the product basis kept exactly.

    The tensor of two HS-orthonormal bases is HS-orthonormal, so the basis is
    assembled directly instead of re-orthonormalizing; basis order is
    ``(a, b) -> a * t.dim + b``, which every pair-indexed computation in this
    module relies on.  Each entry is one product ``a_ij·b_kl``, and
    ``conj(a)·conj(b) = conj(a·b)`` holds in floating point, so the tensor of
    two bitwise-Hermitian bases is bitwise Hermitian.
    """
    n = s.ambient * t.ambient
    if s.dim == 0 or t.dim == 0:
        return MatSubspace(n, np.zeros((0, n, n)))
    prod = np.einsum("aij,bkl->abikjl", s.basis, t.basis)
    return MatSubspace(n, prod.reshape(s.dim * t.dim, n, n))


@dataclass(frozen=True)
class TensorSystem:
    """A minimal tensor product together with its factors."""

    left: OperatorSystem
    right: OperatorSystem
    product: OperatorSystem


def min_tensor(
    E: OperatorSystem, F: OperatorSystem, tol: Tolerances = DEFAULT_TOL
) -> TensorSystem:
    """Minimal tensor product ``E (x) F`` inside ``M_(nm)``."""
    space = subspace_kron(E.space, F.space)
    label = f"{E.label}(x){F.label}" if E.label or F.label else ""
    product = OperatorSystem(space=space, label=label)
    product.validate(tol)
    return TensorSystem(left=E, right=F, product=product)


@dataclass(frozen=True)
class ProductBlocks:
    """Pair-indexed block decomposition of a tensor product algebra.

    ``wedderburn`` is built over the exact tensor basis, with block ``label``
    corresponding to the factor-block pair ``pairs[label - 1]``.  Its block
    pattern, with Σ d_k² equal to the algebra dimension, is the certificate
    that these are all the blocks of the product algebra: multiplicativity
    and spanning follow from the pattern and the count (see the module
    docstring).
    """

    left: WedderburnData
    right: WedderburnData
    wedderburn: WedderburnData
    pairs: tuple[tuple[int, int], ...]

    def label_of(self, pair: tuple[int, int]) -> int:
        try:
            return self.pairs.index(pair) + 1
        except ValueError:
            raise InputError(f"no product block for pair {pair}") from None

    def pair_of(self, label: int) -> tuple[int, int]:
        if label < 1 or label > len(self.pairs):
            raise InputError(f"no block labeled {label}")
        return self.pairs[label - 1]


def _pair_permutation(W_A: WedderburnData, W_B: WedderburnData, order) -> np.ndarray:
    """Row permutation taking ``u_A (x) u_B`` coordinates to adjacent pair copies.

    In the tensored conjugated picture the copies of the pair ``(i, j)`` are
    scattered; this returns ``perm`` with ``perm[target] = source`` so that
    indexing rows by it groups each pair's ``m_i * m_j`` copies contiguously
    in the order the pairs appear in ``order``.
    """
    n_B = W_B.ambient
    offs_A = W_A.block_offsets()
    offs_B = W_B.block_offsets()
    perm = []
    for i, j in order:
        d_i, m_i = W_A.blocks[i - 1]
        d_j, m_j = W_B.blocks[j - 1]
        for p in range(m_i):
            for q in range(m_j):
                for k in range(d_i):
                    for l in range(d_j):
                        alpha = offs_A[i - 1] + p * d_i + k
                        beta = offs_B[j - 1] + q * d_j + l
                        perm.append(alpha * n_B + beta)
    return np.asarray(perm, dtype=int)


def product_blocks(
    W_A: WedderburnData,
    W_B: WedderburnData,
) -> ProductBlocks:
    """Block decomposition of ``A (x) B`` from the factor decompositions.

    Blocks are the pairs ``(i, j)`` with dimension ``d_i * d_j`` and
    multiplicity ``m_i * m_j``; the conjugating unitary is the tensor of the
    factor unitaries followed by the copy-gathering permutation, and the
    irreducible representations are the tensors of the factor ones.  The
    block pattern is the certificate: u unitary, u x u* = ⊕ 1_{m_k} ⊗ ρ_k(x)
    on the product basis, and Σ d_k² = dim A.  No product of basis elements
    is formed; the pattern and the count make x ↦ ⊕ ρ_k(x) a *-isomorphism
    onto ⊕ M_{d_k}, so the ρ_k are multiplicative and onto, and the pairs
    are exactly the product's irreducible blocks, with the multiplicities
    the pattern fixes.  A failed check raises :class:`StructuralError`.
    """
    space = subspace_kron(W_A.algebra.space, W_B.algebra.space)
    algebra = CStarAlgebra(space=space)

    order = sorted(
        ((i, j) for i in W_A.labels for j in W_B.labels),
        key=lambda ij: (
            -W_A.blocks[ij[0] - 1][0] * W_B.blocks[ij[1] - 1][0],
            ij,
        ),
    )
    blocks = []
    irreps = []
    for i, j in order:
        d_i, m_i = W_A.blocks[i - 1]
        d_j, m_j = W_B.blocks[j - 1]
        blocks.append((d_i * d_j, m_i * m_j))
        rep = np.einsum("aij,bkl->abikjl", W_A.irreps[i - 1], W_B.irreps[j - 1])
        irreps.append(rep.reshape(space.dim, d_i * d_j, d_i * d_j))
    perm = _pair_permutation(W_A, W_B, order)
    u = np.kron(W_A.u, W_B.u)[perm, :]

    resid = _validate_decomposition(
        algebra, u, blocks, irreps, sum(m * m for _, m in blocks)
    )
    if resid > _VALIDATION_TOL * max(1.0, float(algebra.ambient)):
        raise StructuralError(
            f"pair decomposition failed structural validation (residual {resid:.3e})"
        )
    return ProductBlocks(
        left=W_A,
        right=W_B,
        wedderburn=WedderburnData(
            algebra=algebra, u=u, blocks=tuple(blocks), irreps=tuple(irreps)
        ),
        pairs=tuple(order),
    )


def kernel_of_tensor_quotients(P: ProductBlocks, I: BlockIdeal, J: BlockIdeal) -> BlockIdeal:
    """Kernel of ``q_I (x) q_J`` as a block ideal of the product.

    The pair block (i, j) is ρ_(i,j)(x ⊗ y) = π_i(x) ⊗ π_j(y) (the rows of
    ``P.wedderburn.u`` for its first copy are the tensor of the factors'),
    so it dies exactly when either factor block dies.  The block pattern
    certifies ``P``'s labels, and a mislabeled kernel would fail the
    product's left-inverse check.
    """
    if I.parent is not P.left or J.parent is not P.right:
        raise InputError("ideals must live over the decompositions the product was built from")
    killed = frozenset(
        label
        for label, (i, j) in enumerate(P.pairs, start=1)
        if i in I.killed or j in J.killed
    )
    return BlockIdeal(parent=P.wedderburn, killed=killed)


def _kept_refutation(env: EnvelopeResult, label: int) -> tuple[np.ndarray, float]:
    """The matrix that refutes a kept factor block's singleton ideal, and
    its re-checked drop.  The one block of a simple algebra takes the
    identity, of drop 1: no other block carries its norm."""
    block = env.dk_certificate.per_block[label - 1]
    if block.method == "simple":
        return np.eye(env.system.ambient, dtype=np.complex128), 1.0
    return block.witness[0], block.separation


def _tensor_levels(x: np.ndarray, y: np.ndarray, n_x: int, n_y: int) -> np.ndarray:
    """``x ⊗ y`` for m×m and m'×m' matrices over two systems, as the
    (m·m')×(m·m') matrix whose cell ((r, u), (s, v)) is ``x_rs ⊗ y_uv``."""
    m, m2 = x.shape[0] // n_x, y.shape[0] // n_y
    cells = np.einsum(
        "rasb,ucvd->ruacsvbd", x.reshape(m, n_x, m, n_x), y.reshape(m2, n_y, m2, n_y)
    )
    size = m * m2 * n_x * n_y
    return cells.reshape(size, size)


def _tensored_certificate(
    P: ProductBlocks, env_E: EnvelopeResult, env_F: EnvelopeResult, K: BlockIdeal
) -> LatticeCertificate:
    """The product's lattice certificate, built from the factors'.

    The maximum is the kernel K.  Its left inverse ψ_T = ψ_E ⊗ ψ_F has one
    Choi block per kept pair (i, j), the reshuffled Kronecker product of the
    factors' blocks at i and j: ψ_T(q_T(x ⊗ y)) = ψ_E(q_E(x)) ⊗ ψ_F(q_F(y))
    = x ⊗ y, and a Kronecker product of PSD matrices is PSD.  A kept pair
    (i, j) is refuted by x_i ⊗ y_j, the tensor of the factors' refuting
    matrices of norm one: ‖π_i(x_i)‖ = 1 and ‖π_k(x_i)‖ ≤ 1 − δ_x for k ≠ i,
    so killing only (i, j) leaves ‖q(x_i ⊗ y_j)‖ = max over (k, l) ≠ (i, j)
    of ‖π_k(x_i)‖·‖π_l(y_j)‖ ≤ 1 − min(δ_x, δ_y), the refutation's residual.
    ∅, K and K's singletons pass by restriction of ψ_T; the kept singletons
    and the full ideal fail.  Nothing here is trusted: the checker checks
    ψ_T on the concrete product and re-checks every drop.
    """
    n_E, n_F = env_E.system.ambient, env_F.system.ambient
    psi_E = dict(zip(env_E.quotient.kept, env_E.lattice_certificate.witness))
    psi_F = dict(zip(env_F.quotient.kept, env_F.lattice_certificate.witness))
    witness, refutations = [], {}
    for label, (i, j) in enumerate(P.pairs, start=1):
        if label in K.killed:
            continue
        d = P.wedderburn.blocks[label - 1][0]
        a, b = P.left.blocks[i - 1][0], P.right.blocks[j - 1][0]
        choi = np.einsum(
            "kaKA,lbLB->klabKLAB",
            psi_E[i].reshape(a, n_E, a, n_E),
            psi_F[j].reshape(b, n_F, b, n_F),
        )
        witness.append(choi.reshape(d * n_E * n_F, d * n_E * n_F))
        (x, dx), (y, dy) = _kept_refutation(env_E, i), _kept_refutation(env_F, j)
        x_T = _tensor_levels(x, y, n_E, n_F)
        refutations[label] = FeasibilityResult(False, [x_T], min(dx, dy), 0, "norm-drop")
    singles = [frozenset({j}) for j in P.wedderburn.labels]
    passing = {frozenset(), K.killed, *(s for s in singles if s <= K.killed)}
    failing = {frozenset(P.wedderburn.labels), *(s for s in singles if not s <= K.killed)}
    passing, failing = (tuple(sorted(s, key=sorted)) for s in (passing, failing))
    return LatticeCertificate(passing, failing, 0, tuple(witness), refutations)


def _powers(env: EnvelopeResult) -> tuple[MatSubspace, ...]:
    """The power-span chain of ``env.system`` kept by its generated algebra."""
    powers = env.algebra.powers
    if not powers or powers[0].dim != env.system.dim:
        raise StructuralError(
            f"the envelope's algebra carries no power-span chain of the system "
            f"(chain {tuple(P.dim for P in powers)}, system dimension {env.system.dim})"
        )
    return powers


def _verified_power_chain(
    S: MatSubspace,
    left: tuple[MatSubspace, ...],
    right: tuple[MatSubspace, ...],
) -> tuple[tuple[MatSubspace, ...], tuple[float, ...], tuple[float, ...]]:
    """The power chain of the tensor system ``S`` with its certificate.

    ``left`` and ``right`` are the factor chains E^1..E^a and F^1..F^b.
    Returns the members G_1 = S, G_k = E^{min(k,a)} ⊗ F^{min(k,b)} for
    k = 2..K = max(a, b); ``residuals[k-1]``, the largest projection
    residual of a product G_k·S off G_{min(k+1,K)} relative to its norm;
    and ``margins[k-1]`` for k < K, σ_min/σ_max of the coefficients of G_k's
    basis and those products on G_{k+1}.  The products are formed in
    :func:`cstarenv.opsys.product_span`'s order.  Residuals at most
    ``tol_rank`` and margins above it certify G_k = S^k for every k and
    G_K·S ⊆ G_K (see the module docstring); the caller decides.
    """
    n = S.ambient
    K = max(len(left), len(right))
    chain = [S] + [
        subspace_kron(left[min(k, len(left)) - 1], right[min(k, len(right)) - 1])
        for k in range(2, K + 1)
    ]
    residuals = []
    margins = []
    for k, G in enumerate(chain, start=1):
        target = chain[min(k, K - 1)].vecs()
        prods = np.matmul(G.basis[:, None], S.basis[None]).reshape(-1, n * n)
        coeffs = prods @ np.conj(target).T
        resid = np.linalg.norm(prods - coeffs @ target, axis=1)
        norms = np.linalg.norm(prods, axis=1)
        # a zero product has a zero residual, which passes the rule
        # resid <= tol_rank * norm; 0/0 is read as 0
        ratios = np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0)
        residuals.append(float(ratios.max(initial=0.0)))
        if k < K:
            stacked = np.concatenate([G.vecs() @ np.conj(target).T, coeffs])
            sig = np.linalg.svd(stacked, compute_uv=False)
            # fewer rows than G_{k+1}'s dimension cannot span it
            d = target.shape[0]
            margins.append(float(sig[d - 1] / sig[0]) if sig.size >= d else 0.0)
    return tuple(chain), tuple(residuals), tuple(margins)


def _chain_certifies(
    residuals: tuple[float, ...], margins: tuple[float, ...], steps: int, tol: Tolerances
) -> bool:
    """Whether the first ``steps`` induction steps of a verified chain pass.

    Step k passes when its residual is at most ``tol_rank`` and, for k < K,
    its margin is above it; steps 1..k-1 certify G_k = S^k, and all K
    steps certify every power past K as well.
    """
    return all(r <= tol.tol_rank for r in residuals[:steps]) and all(
        m > tol.tol_rank for m in margins[:steps]
    )


@dataclass(frozen=True)
class TensorFactorizationReport:
    """Outcome of checking that the minimal quotient factors over a tensor.

    ``power_residuals`` and ``power_margins`` certify the product's power
    chain, ``product_envelope.algebra.powers`` (see
    :func:`_verified_power_chain`).
    """

    left_killed: frozenset[int]
    right_killed: frozenset[int]
    product_killed_pairs: frozenset[tuple[int, int]]
    expected_killed_pairs: frozenset[tuple[int, int]]
    algebra_factors: bool
    subspace_contained: bool
    killed_match: bool
    envelope_dims: tuple[int, ...]
    expected_envelope_dims: tuple[int, ...]
    dims_match: bool
    verified: bool
    power_residuals: tuple[float, ...]
    power_margins: tuple[float, ...]
    tensor: TensorSystem
    blocks: ProductBlocks
    left_envelope: EnvelopeResult
    right_envelope: EnvelopeResult
    product_envelope: EnvelopeResult

    @property
    def iterations(self) -> int:
        return (
            self.left_envelope.iterations
            + self.right_envelope.iterations
            + self.product_envelope.iterations
        )


def verify_envelope_tensor_factorization(
    env_E: EnvelopeResult,
    env_F: EnvelopeResult,
    *,
    tol: Tolerances = DEFAULT_TOL,
    max_ambient_product: int = 36,
) -> TensorFactorizationReport:
    """Certify that the minimal boundary ideal of ``E (x) F`` is the kernel ideal.

    ``E`` and ``F`` are the systems of the two factor envelopes, whose
    quotients predict the product quotient: a pair block survives exactly
    when both factor blocks survive (:func:`kernel_of_tensor_quotients`).
    The product runs no search: its lattice certificate, with K as the
    maximum, is built from the factors' (:func:`_tensored_certificate`) and
    goes through the checker a searched certificate goes through
    (:func:`cstarenv.boundary._checked_envelope`).  The checked left inverse
    makes K boundary, and the re-checked drops make it the largest boundary
    ideal (Arveson 2008).  A failed check raises :class:`VerificationError`
    naming the ideal or the pair block, so ``subspace_contained``,
    ``killed_match`` and ``dims_match`` read true by construction.

    The product's generated algebra comes with its power chain, verified
    against the tensors of the factor chains (see the module docstring).
    ``algebra_factors`` is that chain's verdict together with each factor
    chain ending at its factor algebra, so the product algebra is the tensor
    of the factor algebras; a failure raises :class:`VerificationError`, and
    a factor algebra that keeps no power chain :class:`StructuralError`.
    """
    n = env_E.system.ambient * env_F.system.ambient
    if n > max_ambient_product:
        raise InputError(
            f"product ambient {n} exceeds the cap {max_ambient_product}"
        )
    T = min_tensor(env_E.system, env_F.system, tol)

    left, right = _powers(env_E), _powers(env_F)
    chain, residuals, margins = _verified_power_chain(T.product.space, left, right)
    algebra_factors = _chain_certifies(residuals, margins, len(chain), tol) and all(
        powers[-1] is env.algebra.space or subspace_equal(powers[-1], env.algebra.space, tol)
        for powers, env in ((left, env_E), (right, env_F))
    )
    if not algebra_factors:
        raise VerificationError(
            "the algebra generated by the tensor system is not the tensor of "
            f"the generated algebras (power chain residuals {residuals}, "
            f"margins {margins})"
        )
    P = product_blocks(env_E.wedderburn, env_F.wedderburn)
    K = kernel_of_tensor_quotients(P, env_E.ideal, env_F.ideal)
    env_T = _checked_envelope(
        T.product,
        # the verified chain, not the synthetic algebra: the product's
        # propagation number and the power-compatibility check read its powers
        CStarAlgebra(space=chain[-1], powers=chain),
        P.wedderburn,
        block_images(T.product, P.wedderburn, tol),
        _tensored_certificate(P, env_E, env_F, K),
        tol,
    )
    # the checked certificate's ideal is K, so these read true by
    # construction; they stay in the report until its schema changes
    subspace_contained = env_T.ideal.killed <= K.killed
    killed_match = env_T.ideal.killed == K.killed

    kept_pairs = [
        P.pairs[label - 1] for label in P.wedderburn.labels if label not in K.killed
    ]
    expected_dims = sorted(
        env_E.wedderburn.blocks[i - 1][0] * env_F.wedderburn.blocks[j - 1][0]
        for i, j in kept_pairs
    )
    got_dims = sorted(env_T.envelope_block_dims)
    dims_match = got_dims == expected_dims

    verified = algebra_factors and subspace_contained and killed_match and dims_match
    return TensorFactorizationReport(
        left_killed=env_E.ideal.killed,
        right_killed=env_F.ideal.killed,
        product_killed_pairs=frozenset(
            P.pairs[label - 1] for label in env_T.ideal.killed
        ),
        expected_killed_pairs=frozenset(P.pairs[label - 1] for label in K.killed),
        algebra_factors=algebra_factors,
        subspace_contained=subspace_contained,
        killed_match=killed_match,
        envelope_dims=tuple(got_dims),
        expected_envelope_dims=tuple(expected_dims),
        dims_match=dims_match,
        verified=verified,
        power_residuals=residuals,
        power_margins=margins,
        tensor=T,
        blocks=P,
        left_envelope=env_E,
        right_envelope=env_F,
        product_envelope=env_T,
    )


@dataclass(frozen=True)
class BoundaryPairReport:
    """Outcome of checking that boundary blocks stay boundary in pairs."""

    left_boundary: frozenset[int]
    right_boundary: frozenset[int]
    product_boundary: frozenset[tuple[int, int]]
    expected_pairs: frozenset[tuple[int, int]]
    closed: bool
    verified: bool


def verify_boundary_pair_closure(fac: TensorFactorizationReport) -> BoundaryPairReport:
    """Check that pairs of boundary blocks are boundary blocks of the tensor.

    Every pair ``(i, j)`` with ``i`` boundary for ``E`` and ``j`` boundary
    for ``F`` must be a boundary block of ``E (x) F``; the converse is not
    asserted.  The boundary sets are read off the dk certificates of the
    factorization's envelopes, the product's over the pair-indexed
    ``fac.blocks``.
    """
    P = fac.blocks
    cert_E = fac.left_envelope.dk_certificate
    cert_F = fac.right_envelope.dk_certificate
    cert_T = fac.product_envelope.dk_certificate
    product_boundary = frozenset(
        P.pairs[label - 1] for label in cert_T.boundary_labels
    )
    expected = frozenset(
        (i, j) for i in cert_E.boundary_labels for j in cert_F.boundary_labels
    )
    closed = expected <= product_boundary
    return BoundaryPairReport(
        left_boundary=cert_E.boundary_labels,
        right_boundary=cert_F.boundary_labels,
        product_boundary=product_boundary,
        expected_pairs=expected,
        closed=closed,
        verified=closed,
    )
