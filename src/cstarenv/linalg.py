"""Matrix subspace arithmetic over the Hilbert-Schmidt inner product.

Everything above this module (operator systems, block decompositions,
boundary computations) reduces to a small set of primitives defined here:
the trace inner product, spans with tolerance-controlled rank decisions,
membership tests, and a deterministic Hermitian eigensolver.  Subspace
arithmetic is always Hilbert-Schmidt; the operator norm appears only where
an isometry statement is being made.

Matrices are plain complex ndarrays.  A subspace is stored as an
orthonormal basis (stacked, shape ``(dim, n, n)``), so membership and
projection are single contractions.  Where no orthonormal basis is given,
bases come from one ordered, right-looking Gram-Schmidt kernel that
re-orthogonalizes each accepted vector once; it keeps the input order and
the cutoff relative to the largest input norm.  Where structure gives one,
the kernel does not run: the right singular vectors of an SVD are
orthonormal rows already (:func:`subspace_intersection`), and a
bitwise-Hermitian orthonormal basis is its own :func:`hermitian_basis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError

__all__ = [
    "Tolerances",
    "MatSubspace",
    "hs_inner",
    "hs_norm",
    "op_norm",
    "kron",
    "dagger",
    "is_hermitian",
    "herm_eig",
    "span_of",
    "subspace_contains",
    "subspace_equal",
    "subspace_intersection",
    "hermitian_basis",
    "random_element",
    "cluster_eigenvalues",
]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance profile threaded through every numerical decision.

    ``tol_rank`` controls rank/membership decisions (relative), ``tol_psd``
    positivity floors, ``tol_herm`` Hermiticity checks, and ``tol_norm``
    the operator-norm drop threshold.  A drop above ``tol_norm`` refutes a
    block ideal in the norm-drop probe and, re-checked, certifies each
    block the Šilov ideal keeps as a boundary representation.  That
    decision threshold sits three orders of magnitude above the arithmetic
    tolerances so that rounding noise cannot flip a decision.
    """

    tol_rank: float = 1e-9
    tol_psd: float = 1e-9
    tol_herm: float = 1e-9
    tol_norm: float = 1e-6

    def __post_init__(self):
        for name in ("tol_rank", "tol_psd", "tol_herm", "tol_norm"):
            val = getattr(self, name)
            if not (0.0 < val < 1.0):
                raise InputError(f"{name} must lie in (0, 1), got {val!r}")
        if self.tol_norm < self.tol_rank:
            raise InputError("the norm-drop threshold must not be tighter than tol_rank")

    def replace(self, **kwargs) -> "Tolerances":
        data = {k: getattr(self, k) for k in self.__dataclass_fields__}
        data.update(kwargs)
        return Tolerances(**data)


DEFAULT_TOL = Tolerances()


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product ``trace(a* b)``, conjugate-linear in ``a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch in hs_inner: {a.shape} vs {b.shape}")
    return complex(np.sum(np.conj(a) * b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a).ravel()))


def op_norm(a: np.ndarray) -> float:
    """Operator norm (largest singular value).  Empty matrices have norm 0."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(a)).T


def is_hermitian(a: np.ndarray, tol: float = 1e-9) -> bool:
    a = np.asarray(a)
    scale = max(1.0, hs_norm(a))
    return bool(np.linalg.norm(a - dagger(a)) <= tol * scale)


def herm_eig(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with canonical eigenvector phases.

    Eigenvalues ascend; each eigenvector's largest-magnitude component is made
    real and positive so identical input bits give identical output bits.
    Raises on visibly non-Hermitian input.
    """
    a = _as_matrix(a)
    if not is_hermitian(a, tol.tol_herm):
        raise InputError("herm_eig requires a Hermitian matrix")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    # canonical phase: rotate each column so its dominant entry is real positive
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.abs(lead), 1.0)
    v = v / phases[np.newaxis, :]
    return w, v


@dataclass(frozen=True)
class MatSubspace:
    """Subspace of complex ``n x n`` matrices with a stored orthonormal basis.

    ``basis`` has shape ``(dim, n, n)``; rows are orthonormal under the
    Hilbert-Schmidt inner product.  The zero subspace has shape ``(0, n, n)``.
    """

    ambient: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 3 or b.shape[1:] != (self.ambient, self.ambient):
            raise InputError(
                f"basis shape {b.shape} inconsistent with ambient {self.ambient}"
            )
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def vecs(self) -> np.ndarray:
        """Basis flattened to shape ``(dim, ambient**2)``."""
        return self.basis.reshape(self.dim, self.ambient * self.ambient)

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """HS coefficients of ``a`` against the stored basis (no membership check)."""
        a = np.asarray(a, dtype=np.complex128)
        return np.conj(self.vecs()) @ a.ravel()

    def project(self, a: np.ndarray) -> np.ndarray:
        c = self.coefficients(a)
        return (c @ self.vecs()).reshape(self.ambient, self.ambient)

    def from_coefficients(self, c: np.ndarray) -> np.ndarray:
        return (np.asarray(c, dtype=np.complex128) @ self.vecs()).reshape(
            self.ambient, self.ambient
        )


def _ordered_gram_schmidt(vecs: np.ndarray, threshold: float) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``vecs`` (shape ``(k, m)``, real
    or complex), accepted in input order.

    A row joins the basis when its residual against the rows accepted before
    it exceeds ``threshold``.  Each round takes the first remaining row above
    the threshold and drops the rows before it, each of which was measured
    against the basis a row-by-row loop would have had there.  The accepted
    row is re-orthogonalized once against the basis, normalized, and removed
    from every later row in one rank-1 update (right-looking), so a round is
    a few calls on the remaining rows: O(k·rank·m) flops in O(rank) calls.
    At most ``m`` rows are accepted.
    """
    rest = np.array(vecs)
    basis = np.empty((min(rest.shape), rest.shape[1]), dtype=rest.dtype)
    rank = 0
    while rank < basis.shape[0] and rest.shape[0]:
        real = rest.view(np.float64)
        above = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", real, real)) > threshold)
        if not above.size:
            break
        i = above[0]
        q = basis[:rank]
        v = rest[i] - (np.conj(q) @ rest[i]) @ q
        basis[rank] = v / np.linalg.norm(v)
        rest = rest[i + 1 :]
        rest -= np.outer(rest @ np.conj(basis[rank]), basis[rank])
        rank += 1
    return basis[:rank]


def span_of(
    mats, ambient: int, tol: Tolerances = DEFAULT_TOL
) -> MatSubspace:
    """Orthonormal span by ordered, right-looking Gram-Schmidt with one
    re-orthogonalization of each accepted vector (:func:`_ordered_gram_schmidt`).

    An input joins the basis when its residual against the basis accepted
    before it exceeds ``tol_rank`` times the largest input norm, so
    near-duplicate inputs cannot inflate the dimension.  Input order is
    kept, which keeps the basis deterministic.  The stack is first scaled by
    a power of two to a largest entry in [0.5, 1): that scale is exact, so
    the basis is the one of the unscaled stack, and the row norms of inputs
    as small as 1e-200 no longer underflow to zero.
    """
    try:
        stack = np.asarray(list(mats), dtype=np.complex128)
    except ValueError as exc:
        raise InputError(f"inputs are not matrices of one shape: {exc}") from None
    if not len(stack):
        return MatSubspace(ambient, np.zeros((0, ambient, ambient)))
    if stack.ndim != 3 or stack.shape[1:] != (ambient, ambient):
        raise InputError(f"matrix shape {stack.shape[1:]} does not match ambient {ambient}")
    real = stack.reshape(len(stack), -1).view(np.float64)
    _, exponent = math.frexp(float(np.abs(real).max()))
    vecs = np.ldexp(real, -exponent).view(np.complex128)
    threshold = tol.tol_rank * float(np.max(np.linalg.norm(vecs, axis=1)))
    return MatSubspace(ambient, _ordered_gram_schmidt(vecs, threshold).reshape(-1, ambient, ambient))


def subspace_contains(
    s: MatSubspace, a: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Membership up to ``tol_rank`` relative to the HS norm of ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (s.ambient, s.ambient):
        raise InputError(f"ambient mismatch: {a.shape} vs {s.ambient}")
    nrm = hs_norm(a)
    if nrm == 0.0:
        return True
    resid = a - s.project(a)
    return hs_norm(resid) <= tol.tol_rank * nrm


def _rows_inside(s: MatSubspace, rows: np.ndarray, tol: Tolerances) -> bool:
    """:func:`subspace_contains` for every row of ``rows`` in one contraction."""
    resid = rows - (rows @ np.conj(s.vecs()).T) @ s.vecs()
    return bool(
        np.all(np.linalg.norm(resid, axis=1) <= tol.tol_rank * np.linalg.norm(rows, axis=1))
    )


def subspace_equal(
    s: MatSubspace, t: MatSubspace, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Equality by dimension plus mutual containment of the two bases."""
    if s.ambient != t.ambient:
        raise InputError("subspace_equal requires a common ambient dimension")
    if s.dim != t.dim:
        return False
    return _rows_inside(s, t.vecs(), tol) and _rows_inside(t, s.vecs(), tol)


def subspace_intersection(s: MatSubspace, t: MatSubspace) -> MatSubspace:
    """Intersection via principal angles between the two bases.

    Directions whose principal cosine is within ``1e-8`` of one are kept;
    genuine transversal angles sit far below that for the algebra/commutant
    pairs this is used on.  They are orthonormal right singular vectors
    taken over the orthonormal basis of ``s``, so they are the basis.
    """
    if s.ambient != t.ambient:
        raise InputError("subspace_intersection requires a common ambient dimension")
    if s.dim == 0 or t.dim == 0:
        return MatSubspace(s.ambient, np.zeros((0, s.ambient, s.ambient)))
    overlap = np.conj(t.vecs()) @ s.vecs().T  # (dim_t, dim_s)
    u, sig, vh = np.linalg.svd(overlap, full_matrices=False)
    keep = sig >= 1.0 - 1e-8
    if not np.any(keep):
        return MatSubspace(s.ambient, np.zeros((0, s.ambient, s.ambient)))
    # orthonormal coefficient rows against the orthonormal basis of s:
    # the directions are orthonormal already
    coeffs = np.conj(vh[keep])
    return MatSubspace(s.ambient, (coeffs @ s.vecs()).reshape(-1, s.ambient, s.ambient))


def hermitian_basis(s: MatSubspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Real-orthonormal basis of the Hermitian part of an adjoint-closed subspace.

    For adjoint-closed ``s`` the Hermitian elements form a real subspace whose
    real dimension equals the complex dimension of ``s``; this is the basis
    UCP constraint rows are written against.  A stored basis that is
    Hermitian bit for bit is such a basis already and is returned as it is;
    operator systems store one (:func:`cstarenv.opsys.opsys_from_generators`).
    Any other basis runs the same ordered Gram-Schmidt kernel as
    :func:`span_of`, with real coefficients ``Re<a, b>``, on the Hermitian
    and anti-Hermitian halves of each basis element.
    """
    if s.dim == 0:
        return np.zeros((0, s.ambient, s.ambient))
    adj = np.conj(s.basis).transpose(0, 2, 1)
    if np.array_equal(s.basis, adj):
        return s.basis
    candidates = np.stack([(s.basis + adj) / 2.0, (s.basis - adj) / 2.0j], axis=1)
    # the float view [Re, Im, ...] turns Re<a, b> into the real dot product
    real = candidates.reshape(2 * s.dim, -1).view(np.float64)
    threshold = tol.tol_rank * max(float(np.max(np.linalg.norm(real, axis=1))), 1e-300)
    basis = _ordered_gram_schmidt(real, threshold)
    out = basis.view(np.complex128).reshape(-1, s.ambient, s.ambient)
    if out.shape[0] != s.dim:
        raise InputError(
            "hermitian_basis requires an adjoint-closed subspace "
            f"(got real dimension {out.shape[0]} vs complex dimension {s.dim})"
        )
    return out


def random_element(
    s: MatSubspace, rng: np.random.Generator, hermitian: bool = False
) -> np.ndarray:
    """Seeded random element of ``s``; Gaussian coefficients.

    With ``hermitian=True`` the draw uses real coefficients over the Hermitian
    basis, so the result is exactly Hermitian up to the basis residuals.
    """
    if hermitian:
        hb = hermitian_basis(s)
        coeff = rng.standard_normal(hb.shape[0])
        return np.tensordot(coeff, hb, axes=(0, 0))
    coeff = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    return s.from_coefficients(coeff)


def cluster_eigenvalues(w: np.ndarray, rel_gap: float = 1e-6) -> list[slice]:
    """Split an ascending eigenvalue list into clusters.

    Neighbours closer than ``rel_gap`` times the spread (floored at 1) are
    merged.  Used to read off spectral projections of random elements of a
    center or commutant.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        return []
    spread = max(1.0, float(w[-1] - w[0]))
    threshold = rel_gap * spread
    edges = [0]
    for i in range(1, w.size):
        if w[i] - w[i - 1] >= threshold:
            edges.append(i)
    edges.append(w.size)
    return [slice(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


@lru_cache(maxsize=None)
def matrix_units(n: int) -> np.ndarray:
    """All matrix units of ``M_n``, shape ``(n*n, n, n)``, row-major order."""
    out = np.zeros((n * n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i * n + j, i, j] = 1.0
    return out


@lru_cache(maxsize=None)
def hermitian_units(n: int) -> np.ndarray:
    """Orthonormal Hermitian basis of ``M_n``: diagonal units, then symmetric
    and antisymmetric off-diagonal combinations, each HS-normalized."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, i] = 1.0
        mats.append(m)
    s = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = s
            m[j, i] = s
            mats.append(m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[i, j] = 1j * s
            m[j, i] = -1j * s
            mats.append(m)
    return np.stack(mats) if mats else np.zeros((0, n, n), dtype=np.complex128)
