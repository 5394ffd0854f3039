"""Independent reference computations used to cross-check package results.

Everything here sticks to plain numpy on raw arrays, so a defect in the
package's subspace machinery cannot hide inside the oracle that is supposed
to catch it.  Three kinds of exception call the package.
:func:`build_left_inverse_spectrahedron` writes the left-inverse
constraints in the whole ambient, a formulation the package's per-block
search does not use, and :func:`ambient_left_inverse` assembles the ambient
left inverse the package keeps in block form (:func:`indefinite_null_shift`
breaks its positivity and nothing else).  The dual-certificate uniqueness route
(:func:`dual_uniqueness`) writes each block's extension spectrahedron with
the package's ``UcpSpectrahedron``.  And the computations the package ran
before structure or the lattice gave their answers
(:func:`gram_schmidt_system_space`, :func:`gram_schmidt_chain`,
:func:`enumerate_ideals`, :func:`is_irreducible`, the null space of the
tensored quotient through :class:`LinearMap`, :func:`tensor_map`,
:func:`as_linear_map` and :func:`ideal_subspace`, the product's searched
envelope :func:`searched_product_envelope`, the product's concrete power
chain :func:`concrete_power_chain`, and the loops
:func:`pair_permutation_loop` and :func:`envelope_algebra_loop`) are kept as
the references for what replaced them.  :func:`compression` and :func:`seeded_unitary` build
inputs whose answer is known by construction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from cstarenv.boundary import cstar_envelope
from cstarenv.linalg import DEFAULT_TOL, MatSubspace, matrix_units, op_norm
from cstarenv.opsys import opsys_from_generators
from cstarenv.tensor import subspace_kron
from cstarenv.ucp import UcpSpectrahedron, maximally_entangled, unpack_herm


def vec_stack(mats) -> np.ndarray:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    return np.stack([m.reshape(-1) for m in mats])


def span_dim(mats, tol: float = 1e-9) -> int:
    """Dimension of the linear span, by singular values of the stacked vecs."""
    stack = vec_stack(mats)
    if stack.size == 0:
        return 0
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def mgs_span_reference(mats, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal rows ``(r, n*n)`` of the span, one input at a time.

    Modified Gram-Schmidt with one re-orthogonalization pass: an input joins
    when its residual exceeds ``tol`` times the largest input norm.  This is
    the loop ``span_of`` ran before its vectorized kernel, kept as the
    reference for its rank decisions, input order and rounding.
    """
    stack = vec_stack(mats)
    threshold = tol * max(float(np.linalg.norm(v)) for v in stack)
    basis: list[np.ndarray] = []
    if threshold > 0.0:
        for m in stack:
            v = m.copy()
            for _ in range(2):
                for b in basis:
                    v -= (np.conj(b) @ v) * b
            nrm = float(np.linalg.norm(v))
            if nrm > threshold:
                basis.append(v / nrm)
    return np.array(basis, dtype=complex).reshape(len(basis), stack.shape[1])


def mgs_real_reference(mats, tol: float = 1e-9) -> np.ndarray:
    """:func:`mgs_span_reference` with real coefficients ``Re<b, v>``: the
    real span of Hermitian inputs, as ``hermitian_basis`` ran it before its
    vectorized kernel."""
    stack = vec_stack(mats)
    threshold = tol * max(max(float(np.linalg.norm(v)) for v in stack), 1e-300)
    basis: list[np.ndarray] = []
    for m in stack:
        v = m.copy()
        for _ in range(2):
            for b in basis:
                v -= np.real(np.conj(b) @ v) * b
        nrm = float(np.linalg.norm(v))
        if nrm > threshold:
            basis.append(v / nrm)
    return np.array(basis, dtype=complex).reshape(len(basis), stack.shape[1])


def reduce_basis(mats, tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal matrix basis of the span, via one SVD."""
    stack = vec_stack(mats)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rows = vh[s > tol * max(1.0, float(s[0]))]
    n = int(round(np.sqrt(stack.shape[1])))
    return [row.reshape(n, n) for row in rows]


def algebra_dim(gens, n: int, tol: float = 1e-9, max_rounds: int = 12) -> int:
    """Dimension of the unital *-algebra generated by ``gens`` inside M_n."""
    mats = [np.eye(n, dtype=complex)]
    for g in gens:
        g = np.asarray(g, dtype=complex)
        mats.extend([g, g.conj().T])
    mats = reduce_basis(mats, tol)
    dim = len(mats)
    for _ in range(max_rounds):
        prods = [a @ b for a in mats for b in mats]
        mats = reduce_basis(mats + prods, tol)
        if len(mats) == dim:
            return dim
        dim = len(mats)
    raise AssertionError("algebra closure did not stabilize")


def power_span_dims(gens, n: int, k_max: int, tol: float = 1e-9) -> list[int]:
    """Dimensions of span(words of length <= k) for k = 1 .. k_max.

    The degree-one space is the unital *-span of the generators; each later
    degree multiplies by it on the right.
    """
    first = [np.eye(n, dtype=complex)]
    for g in gens:
        g = np.asarray(g, dtype=complex)
        first.extend([g, g.conj().T])
    first = reduce_basis(first, tol)
    current = list(first)
    dims = [len(current)]
    for _ in range(k_max - 1):
        prods = [a @ b for a in current for b in first]
        current = reduce_basis(current + prods, tol)
        dims.append(len(current))
    return dims


def op_norm_ref(a) -> float:
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def block_layout_residual(u, mats, blocks) -> float:
    """How far u m u* falls outside the copy-major block-diagonal pattern.

    ``blocks`` is ((d_1, m_1), ..): each block occupies m adjacent d x d
    copies on the diagonal, all copies equal, everything else zero.  Returns
    the largest violation over ``mats``: off-pattern mass plus copy spread.
    """
    u = np.asarray(u, dtype=complex)
    worst = 0.0
    for a in mats:
        b = u @ np.asarray(a, dtype=complex) @ u.conj().T
        pos = 0
        mask = np.zeros_like(b, dtype=bool)
        for d, m in blocks:
            seg = slice(pos, pos + m * d)
            mask[seg, seg] = True
            first = b[pos : pos + d, pos : pos + d]
            for c in range(m):
                lo = pos + c * d
                copy = b[lo : lo + d, lo : lo + d]
                worst = max(worst, float(np.abs(copy - first).max()))
                # off-diagonal d x d cells inside the segment must vanish
                for c2 in range(m):
                    if c2 == c:
                        continue
                    lo2 = pos + c2 * d
                    worst = max(worst, float(np.abs(b[lo : lo + d, lo2 : lo2 + d]).max()))
            pos += m * d
        worst = max(worst, float(np.abs(b[~mask]).max(initial=0.0)))
    return worst


def pattern_radius(W) -> float:
    """r = δ + √D·η of a decomposition, recomputed from its raw arrays.

    δ = ‖uu* − 1‖ + ‖u*u − 1‖, and η is the largest ‖u a u* − P(a)‖ over
    the orthonormal algebra basis, P(a) the copies of ``irreps`` on the
    diagonal; D = dim A (Hilbert–Schmidt norms).  For r ≤ 1/100 the block
    pattern bounds :func:`closure_residual` by 4r and
    :func:`multiplicativity_residual` by 8r, and makes ``√m_k`` times each
    block's least singular value at least 1 − 3r (:func:`spanning_margin`).

    Proof, with Φ(x) = u x u*, T(a) = P(a) extended linearly from the basis
    and unit-norm x, y in A (so ‖x‖_op ≤ 1):
    ‖u‖²_op ≤ 1 + δ, so ‖Φx‖ ≤ 1 + δ.  From
    x − u*Φ(x)u = (1 − u*u)x + u*u x (1 − u*u), ‖x‖ ≤ ‖Φx‖/(1 − 3δ).
    Cauchy–Schwarz on the coefficients gives ‖Φx − Tx‖ ≤ s = √D·η, so
    ‖Tx‖ ≥ 1 − 3r: T is injective, and as dim A = Σ d_k² = dim B it maps A
    onto B = ⊕ 1_{m_k} ⊗ M_{d_k}.  Then
    ‖Φ(xy) − Φx·Φy‖ = ‖ux(1 − u*u)yu*‖ ≤ 1.01δ and
    ‖Φx·Φy − Tx·Ty‖ ≤ s(1 + δ) + (1 + r)s ≤ 2.02s.  Tx·Ty ∈ B is Tz for a z in
    A with ‖z‖ ≤ (1 + r)²/(1 − 3r) ≤ 1.052, and ‖Φz − Tz‖ ≤ 1.052s, so
    ‖xy − z‖ ≤ (1.01δ + 3.072s)/(1 − 3δ) ≤ 3.2r.  For p = xy and its
    projection p_A, T(p_A) − Tx·Ty ∈ B is at most
    s + 1.01·3.2r + 1.01δ + 2.02s ≤ 6.3r, and ρ_k reads one block copy of
    it.  Finally 1_{m_k} ⊗ Y = Tx with ‖x‖ ≤ √m_k‖Y‖/(1 − 3r).
    """
    delta, eta = pattern_residuals(W)
    return delta + np.sqrt(len(W.algebra.space.basis)) * eta


def pattern_residuals(W) -> tuple[float, float]:
    """(δ, η) of a decomposition's block pattern, recomputed from its raw
    arrays (see :func:`pattern_radius`): the product-size check the pair
    decomposition once ran, kept as the reference for its derived bound."""
    u = np.asarray(W.u, dtype=complex)
    basis = np.asarray(W.algebra.space.basis, dtype=complex)
    n = u.shape[0]
    eye = np.eye(n)
    delta = np.linalg.norm(u @ u.conj().T - eye) + np.linalg.norm(u.conj().T @ u - eye)
    eta = 0.0
    for k, a in enumerate(basis):
        expected = np.zeros((n, n), dtype=complex)
        pos = 0
        for (d, m), rep in zip(W.blocks, W.irreps):
            for _ in range(m):
                expected[pos : pos + d, pos : pos + d] = rep[k]
                pos += d
        eta = max(eta, float(np.linalg.norm(u @ a @ u.conj().T - expected)))
    return float(delta), eta


def closure_residual(basis) -> float:
    """Largest distance from a product ``a @ b`` of two elements of the
    orthonormal ``basis`` to its span, over all pairs: the all-pairs closure
    check the generated algebra once ran, kept as the reference."""
    basis = np.asarray(basis, dtype=complex)
    k = basis.shape[0]
    vecs = basis.reshape(k, -1)
    prods = np.einsum("aij,bjk->abik", basis, basis).reshape(k * k, -1)
    resid = prods - (prods @ vecs.conj().T) @ vecs
    return float(np.linalg.norm(resid, axis=1).max())


def multiplicativity_residual(W) -> float:
    """Largest ‖ρ(Π(ab)) − ρ(a)ρ(b)‖ over every block and every pair of basis
    elements, each ρ evaluated through the stored ``irreps`` on the
    coefficients of the projection Π(ab) onto the algebra: the all-pairs
    multiplicativity check the decomposition once ran, kept as the
    reference."""
    basis = np.asarray(W.algebra.space.basis, dtype=complex)
    k = basis.shape[0]
    prods = np.einsum("aij,bjk->abik", basis, basis).reshape(k * k, -1)
    coeffs = prods @ basis.reshape(k, -1).conj().T
    worst = 0.0
    for rep in W.irreps:
        rep = np.asarray(rep, dtype=complex)
        of_prod = np.tensordot(coeffs, rep, axes=(1, 0))
        prod_of = np.einsum("aij,bjk->abik", rep, rep).reshape(k * k, *rep.shape[1:])
        worst = max(worst, float(np.linalg.norm(of_prod - prod_of, axis=(1, 2)).max()))
    return worst


def spanning_margin(W) -> float:
    """Smallest ``√m_k · σ_{d_k²}`` over the blocks, σ the singular values of
    the ``(dim A, d_k²)`` stack of ``irreps[k]``: 1 for an exact
    decomposition, 0 when some block is not onto ``M_{d_k}``."""
    margins = []
    for (d, m), rep in zip(W.blocks, W.irreps):
        sig = np.linalg.svd(np.asarray(rep).reshape(len(rep), -1), compute_uv=False)
        margins.append(np.sqrt(m) * float(sig[d * d - 1]) if len(sig) >= d * d else 0.0)
    return min(margins)


# what the oracles' own products and projections may round by
_ORACLE_ROUNDING = 1e-14


def check_pattern_bounds(W, label) -> None:
    """Assert the bounds the block pattern proves (:func:`pattern_radius`):
    closure within 4r, multiplicativity within 8r and spanning margin at
    least 1 − 3r, each up to the oracles' own rounding."""
    r = pattern_radius(W)
    assert r <= 0.01, (label, r)
    assert closure_residual(W.algebra.space.basis) <= 4 * r + _ORACLE_ROUNDING, label
    assert multiplicativity_residual(W) <= 8 * r + _ORACLE_ROUNDING, label
    assert spanning_margin(W) >= 1 - 3 * r - _ORACLE_ROUNDING, label


def commutant_dim(rep_mats, d: int, tol: float = 1e-9) -> int:
    """Dimension of {X : X A_i = A_i X for all i} inside M_d."""
    rows = []
    eye = np.eye(d, dtype=complex)
    for a in rep_mats:
        a = np.asarray(a, dtype=complex)
        rows.append(np.kron(eye, a) - np.kron(a.T, eye))
    K = np.vstack(rows)
    s = np.linalg.svd(K, compute_uv=False)
    rank = int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))
    return d * d - rank


def hermitian_part_dim(mats, n: int, tol: float = 1e-9) -> int:
    """Real dimension of the hermitian elements of span(mats)."""
    sym = []
    for a in mats:
        a = np.asarray(a, dtype=complex)
        sym.extend([a + a.conj().T, 1j * (a - a.conj().T)])
    # real span of hermitian matrices: split real/imag parts of the vecs
    stack = vec_stack(sym)
    real = np.concatenate([stack.real, stack.imag], axis=1)
    s = np.linalg.svd(real, compute_uv=False)
    return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))


def blockwise_quotient_norm(u, blocks, kept_labels, x) -> float:
    """Norm of x in the quotient killing all blocks outside ``kept_labels``.

    Conjugates by the (independently validated) unitary and takes the
    largest first-copy block norm among the kept labels; 0 when nothing is
    kept.
    """
    u = np.asarray(u, dtype=complex)
    b = u @ np.asarray(x, dtype=complex) @ u.conj().T
    best = 0.0
    pos = 0
    for label, (d, m) in enumerate(blocks, start=1):
        if label in kept_labels:
            best = max(best, op_norm_ref(b[pos : pos + d, pos : pos + d]))
        pos += m * d
    return best


def coefficient_irrep(W, label: int, x) -> np.ndarray:
    """π_label(x) through the stored irreps: Hilbert-Schmidt coefficients of
    ``x`` against the algebra basis, contracted with ``irreps[label-1]``.

    The reference for ``irrep_apply``'s compression ``v x v*``; both agree on
    the algebra, which validation ties to the same unitary.
    """
    basis = W.algebra.space.basis
    c = np.conj(basis.reshape(len(basis), -1)) @ np.asarray(x, dtype=complex).ravel()
    return np.tensordot(c, W.irreps[label - 1], axes=(0, 0))


def coefficient_quotient(W, kept, x) -> np.ndarray:
    """The quotient keeping the labels ``kept``, as the block-diagonal sum of
    :func:`coefficient_irrep` values."""
    dims = [W.blocks[j - 1][0] for j in kept]
    out = np.zeros((sum(dims), sum(dims)), dtype=complex)
    off = 0
    for j, d in zip(kept, dims):
        out[off : off + d, off : off + d] = coefficient_irrep(W, j, x)
        off += d
    return out


def random_herm(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def build_left_inverse_spectrahedron(E, W, killed, tol):
    """UCP maps from the blocks ``killed`` leaves standing back to the whole
    ambient that invert the quotient on the system, as one spectrahedron.

    Nonempty exactly when the ideal has the boundary property.  The package
    searches and checks one killed block at a time; this full-target form is
    the independent check of the left inverse its parts assemble into
    (:func:`ambient_left_inverse`).
    """
    from cstarenv.linalg import hermitian_basis
    from cstarenv.ucp import UcpSpectrahedron

    kept = [j for j in W.labels if j not in killed]
    basis = hermitian_basis(E.space, tol=tol)
    dims = tuple(W.blocks[j - 1][0] for j in kept)
    sources = [W.irrep_apply(j, basis) for j in kept]
    return UcpSpectrahedron.from_constraints(dims, E.space.ambient, sources, basis)


def ambient_left_inverse(W, kept, parts) -> list[np.ndarray]:
    """Choi blocks, one ``(d_j·n)²`` matrix per kept label j, of
    ψ(x) = u*(⊕_i 1_{m_i} ⊗ ψ_i(x))u, as the lattice route once assembled
    its certificate.

    ``parts[i]`` holds the Choi parts of ψ_i (one per kept label) for a
    killed block i; a kept block i takes the coordinate projection, whose
    Choi matrix is ``maximally_entangled(d_i)`` at source i and zero at the
    other sources.
    """
    n = W.ambient
    offsets = W.block_offsets()
    mats = []
    for pos, j in enumerate(kept):
        dj = W.blocks[j - 1][0]
        cells = np.zeros((dj, dj, n, n), dtype=complex)
        for i, (di, mi) in enumerate(W.blocks, start=1):
            if i in parts:
                c = parts[i][pos]
            elif i == j:
                c = maximally_entangled(dj)
            else:
                continue
            c = c.reshape(dj, di, dj, di).transpose(0, 2, 1, 3)
            for copy in range(mi):
                s = offsets[i - 1] + copy * di
                cells[:, :, s : s + di, s : s + di] = c
        cells = np.conj(W.u.T) @ cells @ W.u
        mats.append(cells.transpose(0, 2, 1, 3).reshape(dj * n, dj * n))
    return mats


def indefinite_null_shift(E, W, killed, parts):
    """Add ``t·(Yᵀ ⊗ 1)`` to the one part of a left inverse that kills one
    of two blocks, with Y a Hermitian matrix orthogonal to q(E), and return
    the new parts: the map changes by ``x ↦ t·tr(xY)·1``, which
    vanishes on q(E), but Y is traceless (the unit lies in q(E)), so the
    part gets a negative eigenvalue once t is large enough."""
    (i,) = killed
    (j,) = sorted(set(W.labels) - killed)
    dj, di = W.blocks[j - 1][0], W.blocks[i - 1][0]
    images = np.stack([W.irrep_apply(j, b).ravel() for b in E.space.basis])
    _, sv, vh = np.linalg.svd(np.conj(images))
    y = vh[int(np.count_nonzero(sv > 1e-9))].reshape(dj, dj)
    y = max(((y + y.conj().T) / 2, (y - y.conj().T) / 2j), key=np.linalg.norm)
    for b in E.space.basis:
        assert abs(np.trace(W.irrep_apply(j, b) @ y)) < 1e-12
    d = np.kron(y.T, np.eye(di))
    (c,) = parts[i]
    t = 2 * (np.linalg.eigvalsh(c)[-1] + 1) / -np.linalg.eigvalsh(d)[0]
    return {i: (c + t * d,)}


def constraint_rows(source_dims, t: int, constraints) -> tuple[np.ndarray, np.ndarray]:
    """``(L, rhs)`` of ``UcpSpectrahedron.from_constraints``, one constraint at
    a time: the reference for its stacked rows.

    ``constraints`` is a list of ``(xs, value)`` pairs, ``xs[j]`` the image
    of one constrained element in source block ``j`` and ``value`` its
    required value in ``M_t``.  Each pair contributes ``t**2`` rows
    ``<conj(x) (x) G, C>`` over the orthonormal Hermitian basis ``G`` of
    ``M_t``.
    """
    from cstarenv.linalg import hermitian_units
    from cstarenv.ucp import pack_herm

    gbasis = hermitian_units(t)
    row_blocks, rhs_parts = [], []
    for xs, value in constraints:
        cols = []
        for d, x in zip(source_dims, xs):
            xc = np.conj(np.asarray(x, dtype=np.complex128))
            kr = (
                xc[np.newaxis, :, np.newaxis, :, np.newaxis]
                * gbasis[:, np.newaxis, :, np.newaxis, :]
            ).reshape(t * t, d * t, d * t)
            cols.append(pack_herm(kr))
        row_blocks.append(np.concatenate(cols, axis=1))
        value = np.asarray(value, dtype=np.complex128)
        rhs_parts.append(np.real(np.einsum("bpq,pq->b", np.conj(gbasis), value)))
    return np.concatenate(row_blocks, axis=0), np.concatenate(rhs_parts)


def match_by_intertwiner(synthetic, direct, tol: float = 1e-9) -> tuple[int, ...]:
    """Match every block of the decomposition ``synthetic`` to the unique
    block of ``direct``, a decomposition of the same algebra, that it is
    unitarily equivalent to: ``matches[label - 1]`` is the direct label.

    Two blocks of one shape ``(d, m)`` are equivalent exactly when a nonzero
    T solves ρ_s(a) T = T ρ_t(a) on the synthetic algebra basis, i.e. the
    stacked ``I (x) ρ_t(a)^T - ρ_s(a) (x) I`` has a null vector.  Both block
    representations are read straight off the unitaries, as the compression
    ``v a v*`` to the block's first copy.  Anything but a bijection fails
    the assertion.
    """

    def values(W, label):
        d = W.blocks[label - 1][0]
        s = sum(dd * mm for dd, mm in W.blocks[: label - 1])
        v = np.asarray(W.u)[s : s + d]
        return v @ basis @ v.conj().T

    basis = np.asarray(synthetic.algebra.space.basis, dtype=complex)
    direct_labels = range(1, len(direct.blocks) + 1)
    direct_values = {t: values(direct, t) for t in direct_labels}
    taken: set[int] = set()
    matches = []
    for s, shape in enumerate(synthetic.blocks, start=1):
        rep_s = values(synthetic, s)
        eye = np.eye(shape[0])
        found = []
        for t in direct_labels:
            if t in taken or tuple(direct.blocks[t - 1]) != tuple(shape):
                continue
            rows = [np.kron(eye, b.T) - np.kron(a, eye) for a, b in zip(rep_s, direct_values[t])]
            sig = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
            if sig[-1] <= max(tol * sig[0], 1e-12):
                found.append(t)
        assert len(found) == 1, f"block {s} {shape} matches direct blocks {found}"
        taken.add(found[0])
        matches.append(found[0])
    assert len(taken) == len(direct.blocks), "direct decomposition has unmatched blocks"
    return tuple(matches)


def gram_schmidt_system_space(n: int, generators, tol=None):
    """The span ``opsys_from_generators`` stored before it kept a Hermitian
    basis: ``span_of`` of 1/√n and the unit generators and their adjoints,
    a basis that is generally not Hermitian."""
    from cstarenv.linalg import DEFAULT_TOL, span_of

    units = []
    for g in generators:
        g = np.asarray(g, dtype=np.complex128)
        peak = float(np.max(np.abs(g)))
        if peak > 0.0:
            g = g / peak
            units.append(g / np.linalg.norm(g))
    mats = [np.eye(n, dtype=np.complex128) / np.sqrt(n)]
    mats += units + [g.conj().T for g in units]
    return span_of(mats, n, tol or DEFAULT_TOL)


def gram_schmidt_chain(env, tol=None) -> tuple[int, ...]:
    """The propagation chain of an envelope with each ``dim q(P)`` read off
    a ``span_of`` basis of the images, as ``propagation_number`` took it
    before it took ranks: the same early stops, no error checks."""
    from cstarenv.linalg import DEFAULT_TOL, span_of

    q = env.quotient
    chain: list[int] = []
    for P in env.algebra.powers:
        dim = span_of(q.apply(P.basis), q.target_dim, tol or DEFAULT_TOL).dim
        if chain and dim == chain[-1]:
            break
        chain.append(dim)
        if dim >= env.envelope.dim:
            break
    return tuple(chain)


def enumerate_ideals(W) -> list:
    """All ``2**num_blocks`` block ideals, ordered by cardinality then
    lexicographically: the exhaustive lattice the package's route avoids."""
    from cstarenv.wedderburn import BlockIdeal

    labels = W.labels
    return [
        BlockIdeal(parent=W, killed=frozenset(combo))
        for size in range(len(labels) + 1)
        for combo in itertools.combinations(labels, size)
    ]


def is_irreducible(W, label: int, tol=None) -> bool:
    """Whether block ``label``'s representation has trivial commutant."""
    from cstarenv.linalg import DEFAULT_TOL, span_of
    from cstarenv.wedderburn import commutant

    tol = tol or DEFAULT_TOL
    rep = W.irreps[label - 1]
    local = span_of(list(rep), rep.shape[1], tol)
    return commutant(local, tol).dim == 1


def orthonormality_residual(basis) -> float:
    """Largest entry of ``B B* - 1`` for the flattened rows ``B`` of a
    ``(k, n, n)`` basis: 0 for exactly orthonormal rows."""
    b = np.asarray(basis, dtype=complex)
    b = b.reshape(len(b), int(np.prod(b.shape[1:])))
    return float(np.abs(b @ b.conj().T - np.eye(len(b))).max(initial=0.0))


# ---------------------------------------------------------------------------
# The dual-certificate uniqueness route.  A block is a boundary
# representation exactly when the UCP maps from the generated algebra to the
# block that restrict to its representation on the system form the singleton
# {J0}, J0 the representation's Choi tuple.  This route proves that with a
# pinned affine set or a dual certificate (strict complementarity) checked
# with an explicit rounding bound.  The package certifies a kept block by
# its singleton's refutation instead; this is the independent reference.

# the separation below which two feasible points count as one
SEP = 1e-6
_DUAL_CAP = 400
_CHECK_EVERY = 50
# singular values of Z -> Z_j ω below this span the face: rounding, not a constraint
_FACE_CUT = 1e-12


class DykstraState:
    """Resumable batched Dykstra iteration between an affine set and the
    cone: the dual search's engine, and the reference for the package's
    feasibility loop."""

    def __init__(self, affine_project, psd_project, starts: np.ndarray):
        self.affine_project, self.psd_project = affine_project, psd_project
        self.X = np.array(starts, dtype=np.float64)
        self.P = np.zeros_like(self.X)
        self.Q = np.zeros_like(self.X)
        self.iterations = 0

    def run(self, steps: int) -> None:
        X, P, Q = self.X, self.P, self.Q
        for _ in range(steps):
            Y = self.affine_project(X + P)
            P = X + P - Y
            Z = self.psd_project(Y + Q)
            Q = Y + Q - Z
            X = Z
        self.X, self.P, self.Q = X, P, Q
        self.iterations += steps


@dataclass
class ExtensionSpectrahedron(UcpSpectrahedron):
    """A spectrahedron with the distinguished feasible point ``J0``, packed:
    the map whose extensions are probed."""

    J0: np.ndarray | None = field(default=None, repr=False)

    @property
    def null_dim(self) -> int:
        return self.num_coords - self._factorization()[0].shape[1]

    def null_project(self, Z: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return Z
        return Z - self._gram_solve(Z @ self.L.T) @ self.L


def extension_spectrahedron(W, data, label: int) -> ExtensionSpectrahedron:
    """The UCP maps from the generated algebra to block ``label`` that
    restrict to the block's representation on the system, written from
    ``data`` (the system's ``block_images``): the sources are every block's
    images, the values block ``label``'s.  J0 is the representation; the
    set is ``{J0}`` exactly when the block is a boundary representation."""
    dims = tuple(d for d, _ in W.blocks)
    t = dims[label - 1]
    J0 = [
        maximally_entangled(d) if j == label else np.zeros((d * t, d * t), dtype=complex)
        for j, d in enumerate(dims, start=1)
    ]
    sources = [data.image(j) for j in W.labels]
    spec = ExtensionSpectrahedron.from_constraints(dims, t, sources, data.image(label))
    spec.J0 = spec.pack_tuple(J0)
    return spec


def extension_spectrahedra(W, data) -> dict:
    """:func:`extension_spectrahedron` of every block label."""
    return {label: extension_spectrahedron(W, data, label) for label in W.labels}


@dataclass(frozen=True)
class DualResult:
    """A proof that a spectrahedron is the singleton ``{J0}``: ``method`` is
    ``"pinned"`` or ``"dual"``, and ``certificate`` the packed dual
    certificate of a ``"dual"`` verdict."""

    method: str
    separation: float
    iterations: int
    certificate: np.ndarray | None = field(default=None, repr=False, compare=False)


def frame(spec) -> tuple[int, np.ndarray, float, float]:
    """``(j, ω, t, offset)``: the block ``j`` holding most of the trace ``t``
    of ``J0``, the unit top eigenvector ``ω`` of that block, and
    ``offset = ‖J0 - t·ωω*‖``, which is rounding for a rank-one ``J0``."""
    mats = spec.unpack_tuple(spec.J0)
    traces = [float(np.trace(m).real) for m in mats]
    j, t = int(np.argmax(traces)), sum(traces)
    omega = np.linalg.eigh(mats[j])[1][:, -1]
    mats[j] = mats[j] - t * np.outer(omega, np.conj(omega))
    return j, omega, t, float(np.linalg.norm(spec.pack_tuple(mats)))


def distance_bound(t: float, tau: float) -> float:
    """``√(2τ(τ + t))``, a bound on ``‖J - t·ωω*‖`` for every PSD ``J`` with
    ``tr J = t`` and ``tr(P⊥J) ≤ τ``, ``P⊥`` the projector onto the complement
    of the unit vector ``ω``.

    Split ``J = [[a, b*], [b, C]]`` along ``ω``.  Then ``a - t = -tr C``, so
    ``(a - t)² ≤ τ²``; ``C ⪰ 0`` gives ``‖C‖ ≤ tr C ≤ τ``; and the 2×2
    minors of ``J`` give ``‖b‖² ≤ a·tr C ≤ tτ``.  Summed,
    ``‖J - t·ωω*‖² = (a - t)² + 2‖b‖² + ‖C‖² ≤ 2τ² + 2tτ``.  A rank-one
    ``J`` comes within a factor ``√(1 + τ/t)`` of it.
    """
    return float(np.sqrt(2.0 * tau * (tau + t)))


def trace_bound(t: float, offset: float, rho: float, eta: float, delta: float, mu: float) -> float:
    """The largest ``x ≥ 0`` allowed by ``μx - 3ηt ≤ δ + ρ(√(2x(x + t)) + ε)``
    (``ε = offset``), or infinity: the bound ``τ`` on ``tr(P⊥J)`` of
    :func:`verify_uniqueness_certificate`.

    With ``√(2x(x + t)) ≤ √2(x + √(xt))`` the inequality gives
    ``a·x - b·√x - c ≤ 0`` for ``a = μ - √2ρ``, ``b = ρ√(2t)`` and
    ``c = δ + 3ηt + ρε``, so ``√x ≤ (b + √(b² + 4ac))/2a`` when ``a > 0``.
    Rounding in ``ρ`` thus enters only through ``c`` and ``b²``.
    """
    a = mu - np.sqrt(2.0) * rho
    if a <= 0.0:
        return np.inf
    b = rho * np.sqrt(2.0 * t)
    c = delta + 3.0 * eta * t + rho * offset
    return float(((b + np.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)) ** 2)


@dataclass(frozen=True)
class CertificateCheck:
    """What :func:`verify_uniqueness_certificate` measured, and ``bound`` on
    ``‖J - J0‖`` over the feasible set (infinite unless ``mu > 0``)."""

    rho: float
    eta: float
    delta: float
    mu: float
    bound: float
    threshold: float

    @property
    def accepted(self) -> bool:
        return self.mu > 0.0 and self.bound < self.threshold

    @property
    def ratio(self) -> float:
        return self.bound / self.threshold


def verify_uniqueness_certificate(spec, Z: np.ndarray, sep: float = SEP) -> CertificateCheck:
    """Check a packed dual certificate ``Z`` that the set is ``{J0}``.

    Only linear algebra on ``spec``.  Let ``t = tr J0``, ``ω`` the unit vector
    spanning the range of ``J0`` in its block ``j``, and ``P⊥`` the blockwise
    projector onto the complement of ``span(ω)``.  Measured: ``ρ``, the
    distance ``‖null_project(Z)‖`` of ``Z`` from the row space of ``L``;
    ``η = ‖Z_j ω‖``; ``δ = |<Z, J0>|``; and ``μ``, the least eigenvalue of
    ``Z`` compressed to the range of ``P⊥``, minus a rounding allowance.

    A feasible ``J`` is PSD with ``tr J = t`` (unitality); let
    ``x = tr(P⊥J)`` and ``ε = ‖J0 - t·ωω*‖``.  Split along ``ω``, the
    compression of ``Z`` gives at least ``μx`` and the corner and the two
    cross terms are at most ``ηt`` each, so ``<Z, J> ≥ μx - 3ηt``.
    ``J - J0`` lies in the nullspace of ``L``, which only the off-row-space
    part of ``Z`` sees, so ``<Z, J> ≤ δ + ρ‖J - J0‖``, and
    ``‖J - J0‖ ≤ √(2x(x + t)) + ε`` by :func:`distance_bound`.  The two
    sides bound ``x ≤ τ`` (:func:`trace_bound`), so
    ``‖J - J0‖ ≤ √(2τ(τ + t)) + ε``.  The certificate is accepted
    when ``μ > 0`` and this bound is below ``sep·max(1, ‖J0‖)``, the
    separation below which two feasible points count as one.  Exactly
    (``ρ = η = δ = 0``) this is strict complementarity: ``Z = Lᵀy ⪰ 0`` has
    kernel ``span(ω)``, so every feasible ``J`` lives on ``span(ω)`` and
    unitality forces ``J = J0``.
    """
    j, omega, t, offset = frame(spec)
    Z = np.asarray(Z, dtype=np.float64)
    mats = spec.unpack_tuple(Z)
    rho = float(np.linalg.norm(spec.null_project(Z[np.newaxis, :])))
    eta = float(np.linalg.norm(mats[j] @ omega))
    delta = abs(float(Z @ spec.J0))
    # eigenvectors of I - ωω* past its 0 eigenvalue span the complement of ω
    complement = np.linalg.eigh(np.eye(omega.size) - np.outer(omega, np.conj(omega)))[1][:, 1:]
    mats[j] = np.conj(complement.T) @ mats[j] @ complement
    least = min(float(np.linalg.eigvalsh(m)[0]) for m in mats if m.size)
    mu = least - 8.0 * np.finfo(float).eps * max(spec.choi_dims) * float(np.linalg.norm(Z))
    bound = distance_bound(t, trace_bound(t, offset, rho, eta, delta, mu)) + offset
    threshold = sep * max(1.0, float(np.linalg.norm(spec.J0)))
    return CertificateCheck(rho, eta, delta, float(mu), float(bound), threshold)


def face(spec) -> tuple[np.ndarray, np.ndarray]:
    """``(F, P⊥)``: orthonormal columns ``F`` spanning the face subspace
    ``S = rowspace(L) ∩ {Z : Z_j ω = 0}``, from one SVD of ``Z ↦ Z_j ω``
    on an orthonormal row-space basis, and the packed projector ``P⊥``."""
    j, omega, _, _ = frame(spec)
    w, lam = spec._factorization()
    rows = (spec.L.T @ w) / np.sqrt(lam)
    image = unpack_herm(rows.T[:, spec.offsets[j] : spec.offsets[j + 1]], spec.choi_dims[j])
    image = image @ omega
    _, sv, vh = np.linalg.svd(np.concatenate([image.real, image.imag], axis=1).T)
    perp = [np.eye(D, dtype=np.complex128) for D in spec.choi_dims]
    perp[j] -= np.outer(omega, np.conj(omega))
    return rows @ vh[np.count_nonzero(sv > _FACE_CUT) :].T, spec.pack_tuple(perp)


def dual_search(spec, F, p_perp, Z, mu, ratio, sep):
    """Dykstra between ``S - P⊥`` and the cone from the closed form ``Z``
    (margin ``mu``, ``ratio``), checked every ``_CHECK_EVERY`` iterations:
    ``(Z, μ, ratio, iterations)`` of an accepted ``Z`` in ``S`` near
    ``{Z ⪰ P⊥}``, or None with the best margin and ratio reached."""

    def to_face(X):
        return (X @ F) @ F.T

    def affine(X):
        return to_face(X + p_perp) - p_perp

    state = DykstraState(affine, spec.psd_project, (Z - p_perp)[np.newaxis, :])
    while state.iterations < _DUAL_CAP:
        state.run(_CHECK_EVERY)
        Z = to_face(state.X + p_perp)[0]
        check = verify_uniqueness_certificate(spec, Z, sep)
        if check.accepted:
            return Z, check.mu, check.ratio, state.iterations
        mu, ratio = max(mu, check.mu), min(ratio, check.ratio)
    return None, mu, ratio, state.iterations


def dual_uniqueness(spec, sep: float = SEP) -> DualResult:
    """Certify that the spectrahedron is the singleton ``{J0}``.

    Every verdict is proved, in this order: a pinned affine set
    (``"pinned"``); the closed-form dual certificate (``"dual"``, see
    :func:`verify_uniqueness_certificate`); a Dykstra search for a dual
    certificate (``"dual"``, with its iterations).  A ``"dual"`` verdict's
    separation is the certificate's margin μ.  No step is random.  A
    spectrahedron with a second point has no certificate, so there every
    step fails and the call raises ``InconclusiveError`` with the best
    margin and bound reached.
    """
    from cstarenv.errors import InconclusiveError, InputError

    if spec.J0 is None:
        raise InputError("uniqueness requires the base point J0")
    if spec.null_dim == 0:
        return DualResult("pinned", 0.0, 0)
    F, p_perp = face(spec)
    Z = (p_perp @ F) @ F.T  # the orthogonal projection of P⊥ onto S
    check = verify_uniqueness_certificate(spec, Z, sep)
    if check.accepted:
        return DualResult("dual", check.mu, 0, Z)
    Z, mu, ratio, iterations = dual_search(spec, F, p_perp, Z, check.mu, check.ratio, sep)
    if Z is not None:
        return DualResult("dual", mu, iterations, Z)
    raise InconclusiveError(
        f"uniqueness undecided: no dual certificate after {iterations} iterations "
        f"(best margin {mu:.3e}, best bound/threshold {ratio:.3e})"
    )


@dataclass(frozen=True)
class LinearMap:
    """Linear map defined by its values on the orthonormal basis of a subspace.

    ``values`` has shape ``(domain.dim, t, t)`` where ``t`` is the target
    ambient dimension.  Application decomposes the argument against the
    domain basis, so the argument must lie in the domain for the result to
    mean anything.
    """

    domain: MatSubspace
    values: np.ndarray = field(repr=False)
    target_dim: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        expected = (self.domain.dim, self.target_dim, self.target_dim)
        assert v.shape == expected, (v.shape, expected)
        object.__setattr__(self, "values", v)

    def apply(self, a: np.ndarray) -> np.ndarray:
        c = self.domain.coefficients(a)
        if self.target_dim == 0:
            return np.zeros((0, 0), dtype=np.complex128)
        return np.tensordot(c, self.values, axes=(0, 0))

    def null_space(self, tol=DEFAULT_TOL) -> MatSubspace:
        """Kernel of the map as a subspace of the domain's ambient: the
        SVD's trailing right singular vectors over the domain's basis."""
        n = self.domain.ambient
        if self.domain.dim == 0:
            return MatSubspace(n, np.zeros((0, n, n)))
        m = self.values.reshape(self.domain.dim, -1).T
        if m.shape[0] == 0:
            coeffs = np.eye(self.domain.dim, dtype=np.complex128)
        else:
            _, sig, vh = np.linalg.svd(m)
            rank = int(np.sum(sig > tol.tol_rank * (sig[0] if sig.size else 0.0)))
            coeffs = np.conj(vh[rank:])
        return MatSubspace(n, (coeffs @ self.domain.vecs()).reshape(-1, n, n))


def as_linear_map(q, domain: MatSubspace) -> LinearMap:
    """The quotient map ``q`` restricted to a subspace of its algebra."""
    return LinearMap(domain=domain, values=q.apply(domain.basis), target_dim=q.target_dim)


def tensor_map(phi: LinearMap, psi: LinearMap) -> LinearMap:
    """``x ⊗ y ↦ phi(x) ⊗ psi(y)`` on the tensored domain."""
    domain = subspace_kron(phi.domain, psi.domain)
    t = phi.target_dim * psi.target_dim
    if domain.dim == 0 or t == 0:
        return LinearMap(domain, np.zeros((domain.dim, t, t), dtype=np.complex128), t)
    values = np.einsum("aij,bkl->abikjl", phi.values, psi.values)
    return LinearMap(domain, values.reshape(domain.dim, t, t), t)


def ideal_subspace(ideal, tol=DEFAULT_TOL) -> MatSubspace:
    """A block ideal as a concrete subspace of the represented algebra: for
    each killed block, each matrix unit replicated across the block's
    copies, conjugated back by the decomposition unitary."""
    W = ideal.parent
    n = W.ambient
    offsets = W.block_offsets()
    mats = []
    for label in sorted(ideal.killed):
        d, m = W.blocks[label - 1]
        for unit in matrix_units(d):
            mat = np.zeros((n, n), dtype=np.complex128)
            for j in range(m):
                s = offsets[label - 1] + j * d
                mat[s : s + d, s : s + d] = unit
            mats.append(W.u.conj().T @ mat @ W.u / np.sqrt(m))
    if not mats:
        return MatSubspace(n, np.zeros((0, n, n)))
    return MatSubspace(n, np.stack(mats))


def searched_product_envelope(fac, tol=DEFAULT_TOL):
    """The product's envelope by the lattice route's search, as the
    factorization check once computed it: the tensor system, its verified
    power chain and the pair decomposition of the factorization report
    ``fac``."""
    return cstar_envelope(
        fac.tensor.product,
        tol=tol,
        algebra=fac.product_envelope.algebra,
        wedderburn=fac.blocks.wedderburn,
    )


def concrete_power_chain(S, left, right):
    """The tensor system's power chain certified on concrete products, as
    the factorization check once computed it: ``left`` and ``right`` are the
    factor chains E^1..E^a and F^1..F^b, and the result is the members
    G_1 = S, G_k = E^{min(k,a)} ⊗ F^{min(k,b)}, ``residuals[k-1]``, the
    largest projection residual of a product of G_k's and S's basis elements
    off G_{min(k+1,K)} relative to its norm, and ``margins[k-1]`` for k < K,
    σ_min/σ_max of the coefficients of G_k's basis and those products on
    G_{k+1}."""
    n = S.ambient
    K = max(len(left), len(right))
    chain = [S] + [
        subspace_kron(left[min(k, len(left)) - 1], right[min(k, len(right)) - 1])
        for k in range(2, K + 1)
    ]
    residuals, margins = [], []
    for k, G in enumerate(chain, start=1):
        target = chain[min(k, K - 1)].vecs()
        prods = np.matmul(G.basis[:, None], S.basis[None]).reshape(-1, n * n)
        coeffs = prods @ np.conj(target).T
        resid = np.linalg.norm(prods - coeffs @ target, axis=1)
        norms = np.linalg.norm(prods, axis=1)
        ratios = np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0)
        residuals.append(float(ratios.max(initial=0.0)))
        if k < K:
            stacked = np.concatenate([G.vecs() @ np.conj(target).T, coeffs])
            sig = np.linalg.svd(stacked, compute_uv=False)
            d = target.shape[0]
            margins.append(float(sig[d - 1] / sig[0]) if sig.size >= d else 0.0)
    return tuple(chain), tuple(residuals), tuple(margins)


def pair_permutation_loop(W_A, W_B, order) -> np.ndarray:
    """The pair decomposition's row permutation by its four nested loops
    over (pair, copy p, copy q, row k, row l), as it was first written."""
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


def envelope_algebra_loop(W, killed) -> np.ndarray:
    """The envelope's block-diagonal matrix units, one ``np.zeros`` per unit,
    as the envelope algebra's basis was first built."""
    dims = [W.blocks[j - 1][0] for j in W.labels if j not in killed]
    t = sum(dims)
    mats = []
    off = 0
    for d in dims:
        for unit in matrix_units(d):
            big = np.zeros((t, t), dtype=complex)
            big[off : off + d, off : off + d] = unit
            mats.append(big)
        off += d
    return np.stack(mats)


def compression(seed, d_a, k, d_b):
    """``span{1, g, g*}`` with ``g = A ⊕ B``: A a seeded complex Gaussian
    ``d_a × d_a`` matrix of operator norm one, V the Q factor of a seeded
    ``(d_a·k) × d_b`` Gaussian and ``B = V*(A ⊗ 1_k)V``.  The UCP map
    x ↦ V*(x ⊗ 1_k)V sends A to B, so the ideal killing B's block has a
    left inverse; with d_b ≠ d_a and B irreducible the algebra is
    M_{d_a} ⊕ M_{d_b} and the quotient onto M_{d_a} is simple, so that
    ideal is the whole Šilov ideal."""
    rng = np.random.default_rng(seed)
    a = random_complex(rng, d_a)
    a /= op_norm(a)
    shape = (d_a * k, d_b)
    v = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    g = np.zeros((d_a + d_b, d_a + d_b), dtype=complex)
    g[:d_a, :d_a] = a
    g[d_a:, d_a:] = v.conj().T @ np.kron(a, np.eye(k)) @ v
    return opsys_from_generators(d_a + d_b, [g])


def seeded_unitary(n: int, seed: int) -> np.ndarray:
    """A Haar-distributed unitary drawn from ``seed`` (Q of a seeded complex
    Gaussian, phases fixed by R's diagonal)."""
    q, r = np.linalg.qr(random_complex(np.random.default_rng(seed), n))
    return q * (np.diag(r) / np.abs(np.diag(r)))
