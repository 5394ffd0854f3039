"""Independent reference computations used to cross-check package results.

Everything here sticks to plain numpy on raw arrays, so a defect in the
package's subspace machinery cannot hide inside the oracle that is supposed
to catch it.  The one exception, :func:`build_left_inverse_spectrahedron`,
writes the left-inverse constraints in the whole ambient, a formulation the
package's per-block search does not use.
"""
from __future__ import annotations

import numpy as np


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
    searches one killed block at a time; this full-target form is the
    independent check of the left inverse it assembles.
    """
    from cstarenv.linalg import hermitian_basis
    from cstarenv.ucp import UcpSpectrahedron

    kept = [j for j in W.labels if j not in killed]
    basis = hermitian_basis(E.space, tol=tol)
    dims = tuple(W.blocks[j - 1][0] for j in kept)
    sources = [W.irrep_apply(j, basis) for j in kept]
    return UcpSpectrahedron.from_constraints(dims, E.space.ambient, sources, basis)


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
