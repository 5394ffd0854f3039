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
the factor decompositions, and its block pattern is the certificate: u is
unitary, ``u x u*`` is ⊕ 1_{m_k} ⊗ ρ_k(x) on the product basis, and
Σ d_k² is the algebra dimension.  The pattern puts the conjugated algebra
inside ⊕ M_{d_k} and the count makes it all of it, so multiplicativity and
spanning follow: x ↦ ⊕ ρ_k(x) is a *-isomorphism onto ⊕ M_{d_k}, the ρ_k
are pairwise inequivalent irreducibles, the pattern fixes their
multiplicities, and any other decomposition finds the same blocks in
another order.  The pattern's residuals are bounded from the factors':
u is ``u_A ⊗ u_B`` up to an exact row permutation and the irreps are
Kronecker products, so no product-size matrix is conjugated.

The product's power chain is not rebuilt: (E ⊗ F)^k = E^k ⊗ F^k, so its
members are G_k = E^{min(k,a)} ⊗ F^{min(k,b)}, k = 1..K = max(a, b), read
off the chains E^1..E^a and F^1..F^b the factor algebras keep, and
:func:`_verified_power_chain` certifies them by induction from the factors'
step certificates.  G_1 is the tensor system S itself.  Step j of a factor
chain is read off the coefficients C_E(j) of the products E^j·E on
E^{min(j+1,a)}: their largest relative projection residual r_E(j), σ_rank
and σ_1 (:attr:`cstarenv.opsys.CStarAlgebra.power_steps`, computed once per
factor algebra).  G_k's basis is the exact Kronecker basis, so the products
G_k·S are the tensors of the factor products and their coefficients on
G_{min(k+1,K)} are C_E ⊗ C_F: step k's residual is at most
r_E + r_F + r_E·r_F, and for k < K, as 1 ∈ S and singular values multiply,
its spanning margin is σ_rk(C_E)σ_rk(C_F) / (σ_1(C_E)σ_1(C_F)).  One
concrete probe per step checks the tensor system itself: g·s for a fixed
generic g ∈ G_k and s ∈ S, projected onto G_{min(k+1,K)}; the step keeps
the larger of the derived bound and the probe's residual.  Residuals at
most ``tol_rank`` and margins above it give span(G_k·S) = G_{k+1} (at
k = K, closure), so G_k is the k-th power of S and G_K the algebra it
generates; no Gram–Schmidt runs on the product and no product of its basis
elements is formed.

The product's envelope needs no search.  The paper identifies the Šilov
ideal of E ⊗min F as the kernel K of q_E ⊗ q_F, and the factors'
certificates give the product's: the tensor of the factor left inverses is
a UCP left inverse for K, so K is boundary, and the tensor of the factors'
refuting matrices drops in norm when any kept pair block is killed, so K is
the largest boundary ideal (Arveson 2008).  The left inverse stays in the
block form the factors' searches found: one Choi part per killed and kept
pair block, the Kronecker product of two factor parts, and none at all when
nothing is killed.  The certificate is checked on the concrete tensor
system like a searched one.  The factorization check
takes the two factor envelopes, and the boundary-pair check its report,
whose tensor system, pair blocks, power chain and three envelopes every
later pair check reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    EnvelopeResult,
    LatticeCertificate,
    _block_choi,
    _checked_envelope,
    block_images,
)
from .errors import InputError, StructuralError, VerificationError
from .linalg import DEFAULT_TOL, MatSubspace, Tolerances, subspace_equal
from .opsys import CStarAlgebra, OperatorSystem
from .ucp import FeasibilityResult
from .wedderburn import BlockIdeal, WedderburnData
from .wedderburn import _VALIDATION_TOL, _certified

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


def min_tensor(E: OperatorSystem, F: OperatorSystem) -> TensorSystem:
    """Minimal tensor product ``E (x) F`` inside ``M_(nm)``, not re-validated:
    on the exact Kronecker basis 1 ⊗ 1 = 1 and (a ⊗ b)* = a* ⊗ b*."""
    space = subspace_kron(E.space, F.space)
    label = f"{E.label}(x){F.label}" if E.label or F.label else ""
    return TensorSystem(left=E, right=F, product=OperatorSystem(space=space, label=label))


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
    in the order the pairs appear in ``order``.  Row k of A's copy p of
    block i is ``offs_A[i-1] + p*d_i + k``, so the pair's rows are the
    broadcast sum of ``alpha·n_B`` on the axes (p, ·, k, ·) and ``beta`` on
    the axes (·, q, ·, l).
    """
    n_B = W_B.ambient
    offs_A, offs_B = W_A.block_offsets(), W_B.block_offsets()
    alpha = [
        (np.arange(offs_A[i], offs_A[i + 1]) * n_B).reshape(m, 1, d, 1)
        for i, (d, m) in enumerate(W_A.blocks)
    ]
    beta = [
        np.arange(offs_B[j], offs_B[j + 1]).reshape(1, m, 1, d)
        for j, (d, m) in enumerate(W_B.blocks)
    ]
    return np.concatenate([(alpha[i - 1] + beta[j - 1]).ravel() for i, j in order])


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
    on the product basis, and Σ d_k² = dim A; the pattern and the count make
    x ↦ ⊕ ρ_k(x) a *-isomorphism onto ⊕ M_{d_k}, so the ρ_k are
    multiplicative and onto, and the pairs are exactly the product's
    irreducible blocks, with the multiplicities the pattern fixes.

    The pattern's residuals (δ, η) are bounded from the factors'
    (:attr:`WedderburnData.pattern_residuals`), with no product of basis
    elements and no product-size conjugation.  The permutation is exact and
    the counts multiply.  With uu* = 1 + D factor by factor,
    (1 + D_A) ⊗ (1 + D_B) − 1 gives δ ≤ δ_A(√n_B + δ_B) + √n_A·δ_B; on the
    product basis a ⊗ b, u_A a u_A* ⊗ u_B b u_B* − P_A(a) ⊗ P_B(b) splits
    into R_A ⊗ u_B b u_B* + P_A(a) ⊗ R_B, ‖R‖ ≤ η, ‖u b u*‖ ≤ 1 + δ and
    ‖P(a)‖ ≤ 1 + δ + η, so η ≤ η_A(1 + δ_B + η_B) + (1 + δ_A + η_A)·η_B
    (Hilbert–Schmidt norms, n the ambients).  A bound past the acceptance
    tolerance raises :class:`StructuralError`.
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
    u = np.kron(W_A.u, W_B.u)[_pair_permutation(W_A, W_B, order), :]

    (delta_A, eta_A), (delta_B, eta_B) = W_A.pattern_residuals, W_B.pattern_residuals
    delta = delta_A * (np.sqrt(W_B.ambient) + delta_B) + np.sqrt(W_A.ambient) * delta_B
    eta = eta_A * (1.0 + delta_B + eta_B) + (1.0 + delta_A + eta_A) * eta_B
    resid = delta + eta
    if not resid <= _VALIDATION_TOL * max(1.0, float(algebra.ambient)):
        raise StructuralError(
            f"pair decomposition failed structural validation (residual {resid:.3e})"
        )
    W = WedderburnData(algebra=algebra, u=u, blocks=tuple(blocks), irreps=tuple(irreps))
    return ProductBlocks(
        left=W_A,
        right=W_B,
        wedderburn=_certified(W, (float(delta), float(eta))),
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


def _tensor_levels(x: np.ndarray, y: np.ndarray, n_x: int, n_y: int) -> np.ndarray:
    """``x ⊗ y`` for m×m and m'×m' matrices of n_x×n_x and n_y×n_y cells,
    as the (m·m')×(m·m') matrix whose cell ((r, u), (s, v)) is
    ``x_rs ⊗ y_uv``: the tensor of two matrices over two systems, and the
    Choi matrix of φ ⊗ χ from those of φ and χ, of targets M_{n_x} and
    M_{n_y}."""
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

    The maximum is the kernel K.  Its left inverse is ψ_E ⊗ ψ_F, kept in
    block form: a killed pair (i, j) has one part per kept pair (k, l), the
    reshuffled Kronecker product of ψ_E,i's part at k and ψ_F,j's part at l,
    where a kept factor block acts as its coordinate projection
    (:func:`cstarenv.boundary._block_choi`).  The kept pairs are the pairs
    of kept blocks, so ψ_E,i ⊗ ψ_F,j sends q_T(x ⊗ y) to
    π_i(x) ⊗ π_j(y) = π_(i,j)(x ⊗ y), and a Kronecker product of PSD
    matrices is PSD.  A pair with nothing killed carries no part.  A kept pair (i, j) is refuted by x_i ⊗ y_j,
    the tensor of the factors' refuting matrices of norm one:
    ‖π_i(x_i)‖ = 1 and ‖π_k(x_i)‖ ≤ 1 − δ_x for k ≠ i, so killing only
    (i, j) leaves ‖q(x_i ⊗ y_j)‖ = max over (k, l) ≠ (i, j) of
    ‖π_k(x_i)‖·‖π_l(y_j)‖ ≤ 1 − min(δ_x, δ_y), the refutation's residual.
    ∅, K and K's singletons pass by restriction; the kept singletons and
    the full ideal fail.  Nothing here is trusted: the checker checks the
    parts on the concrete product and re-checks every drop.
    """
    n_E, n_F = env_E.system.ambient, env_F.system.ambient
    kept = [label for label in P.wedderburn.labels if label not in K.killed]
    witness, refutations = {}, {}
    for label in sorted(K.killed):
        i, j = P.pairs[label - 1]
        psi_E = _block_choi(P.left, env_E.lattice_certificate, i)
        psi_F = _block_choi(P.right, env_F.lattice_certificate, j)
        d_i, d_j = P.left.blocks[i - 1][0], P.right.blocks[j - 1][0]
        witness[label] = tuple(
            _tensor_levels(psi_E[k - 1], psi_F[l - 1], d_i, d_j)
            for k, l in (P.pairs[t - 1] for t in kept)
        )
    for label in kept:
        i, j = P.pairs[label - 1]
        x, y = env_E.dk_certificate.per_block[i - 1], env_F.dk_certificate.per_block[j - 1]
        x_T = _tensor_levels(x.witness[0], y.witness[0], n_E, n_F)
        drop = min(x.separation, y.separation)
        refutations[label] = FeasibilityResult(False, [x_T], drop, 0, "norm-drop")
    singles = [frozenset({j}) for j in P.wedderburn.labels]
    passing = {frozenset(), K.killed, *(s for s in singles if s <= K.killed)}
    failing = {frozenset(P.wedderburn.labels), *(s for s in singles if not s <= K.killed)}
    passing, failing = (tuple(sorted(s, key=sorted)) for s in (passing, failing))
    return LatticeCertificate(passing, failing, 0, witness, refutations)


def _powers(env: EnvelopeResult) -> tuple[MatSubspace, ...]:
    """The power-span chain of ``env.system`` kept by its generated algebra."""
    powers = env.algebra.powers
    if not powers or powers[0].dim != env.system.dim:
        raise StructuralError(
            f"the envelope's algebra carries no power-span chain of the system "
            f"(chain {tuple(P.dim for P in powers)}, system dimension {env.system.dim})"
        )
    return powers


def _generic(space: MatSubspace, step: float) -> np.ndarray:
    """A fixed generic element of ``space``: its coefficients are two Weyl
    sequences of irrational steps, centered, as the real and imaginary parts
    (no random number generator)."""
    t = np.arange(1, space.dim + 1)
    c = (t * step) % 1.0 - 0.5 + 1j * ((t * np.sqrt(2.0)) % 1.0 - 0.5)
    return (c @ space.vecs()).reshape(space.ambient, space.ambient)


def _probe_residual(x: np.ndarray, target: MatSubspace) -> float:
    """Projection residual of ``x`` off ``target``, relative to its norm."""
    x = x.ravel()
    vecs = target.vecs()
    norm = float(np.linalg.norm(x))
    resid = float(np.linalg.norm(x - np.conj(vecs @ np.conj(x)) @ vecs))
    return resid / norm if norm > 0 else 0.0


def _verified_power_chain(
    S: MatSubspace,
    left: CStarAlgebra,
    right: CStarAlgebra,
) -> tuple[tuple[MatSubspace, ...], tuple[float, ...], tuple[float, ...]]:
    """The power chain of the tensor system ``S`` with its certificate.

    ``left`` and ``right`` are the factor algebras, keeping the chains
    E^1..E^a and F^1..F^b.  Returns the members G_1 = S,
    G_k = E^{min(k,a)} ⊗ F^{min(k,b)} for k = 2..K = max(a, b);
    ``residuals[k-1]``, the larger of the bound r_E + r_F + r_E·r_F derived
    from the factors' step certificates and the relative residual of the
    concrete probe g·s off G_{min(k+1,K)}; and ``margins[k-1]`` for k < K,
    σ_rk(C_E)σ_rk(C_F) / (σ_1(C_E)σ_1(C_F)), the least relative singular
    value of the products' coefficients on G_{k+1} (see the module
    docstring).  Residuals at most ``tol_rank`` and margins above it certify
    G_k = S^k for every k and G_K·S ⊆ G_K; the caller decides.
    """
    a, b = len(left.powers), len(right.powers)
    K = max(a, b)
    chain = [S] + [
        subspace_kron(left.powers[min(k, a) - 1], right.powers[min(k, b) - 1])
        for k in range(2, K + 1)
    ]
    residuals = []
    margins = []
    s = _generic(S, 0.7548776662466927)
    for k, G in enumerate(chain, start=1):
        e, f = left.power_steps[min(k, a) - 1], right.power_steps[min(k, b) - 1]
        derived = e.residual + f.residual + e.residual * f.residual
        probe = _probe_residual(_generic(G, 0.6180339887498949) @ s, chain[min(k, K - 1)])
        residuals.append(max(derived, probe))
        if k < K:
            top = e.sigma_max * f.sigma_max
            margins.append(e.sigma_rank * f.sigma_rank / top if top > 0 else 0.0)
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
    chain, ``product_envelope.algebra.powers``: bounds derived from the
    factor algebras' step certificates, each residual no smaller than its
    step's concrete probe (see :func:`_verified_power_chain`).
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

    The product's generated algebra comes with its power chain, the tensors
    of the factor chains, certified from the factors' step certificates and
    one concrete probe per step (see the module docstring).
    ``algebra_factors`` is that chain's verdict together with each factor
    chain starting at its system and ending at its factor algebra, so the
    product algebra is the tensor of the factor algebras; a failure raises
    :class:`VerificationError`, and a factor algebra that keeps no power
    chain :class:`StructuralError`.
    """
    n = env_E.system.ambient * env_F.system.ambient
    if n > max_ambient_product:
        raise InputError(
            f"product ambient {n} exceeds the cap {max_ambient_product}"
        )
    T = min_tensor(env_E.system, env_F.system)

    left, right = _powers(env_E), _powers(env_F)
    chain, residuals, margins = _verified_power_chain(
        T.product.space, env_E.algebra, env_F.algebra
    )
    algebra_factors = _chain_certifies(residuals, margins, len(chain), tol) and all(
        a is b or subspace_equal(a, b, tol)
        for powers, env in ((left, env_E), (right, env_F))
        for a, b in ((powers[0], env.system.space), (powers[-1], env.algebra.space))
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
