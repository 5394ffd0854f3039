"""Spectrahedra of unital completely positive maps in Choi coordinates.

A linear map from a decomposed algebra into ``M_t`` is a tuple of maps out
of the blocks; the map is completely positive exactly when every block's
Choi matrix is positive semidefinite.  Interpolation conditions ("agree
with a given map on this subspace") are affine in the Choi entries, so the
set of UCP maps satisfying them is an intersection

    {Hermitian Choi tuples : L J = rhs}  with  {blockwise PSD}

and the decision problem this package needs is whether that intersection
is nonempty: the existence of a UCP left inverse.  Douglas–Rachford
splitting between the affine set and the cone decides it (Lions and Mercier
1979), stopping at the first cone projection of an affine point that meets
the affine tolerance (see :func:`ucp_feasibility`).  Left inverses of
compressions have low Choi rank, so the two sets often meet on a face with
no interior point, where alternating projections stall (Drusvyatskiy, Li
and Wolkowicz 2017) and Douglas–Rachford does not.

Uniqueness of a UCP extension needs no spectrahedron.  A block is a
boundary representation exactly when the singleton ideal that kills it is
not boundary, and the lattice route refutes that ideal with a matrix whose
norm drops in the quotient; :func:`is_unique_ucp_extension` re-checks that
drop from the matrix alone (see
:func:`cstarenv.boundary.boundary_representations`).

Coordinates: each Hermitian ``D x D`` Choi block is stored as ``D**2``
reals (diagonal, then sqrt(2)-scaled real and imaginary upper-triangular
parts); the embedding is an isometry onto Euclidean coordinates, so
projections in coordinates are Hilbert-Schmidt projections on matrices.
The cone is handled per Choi size, not per block: the spectrahedron groups
its blocks by ``D`` once, and the positive part and the least eigenvalue
run one kernel over all blocks of a size.  A 1x1 block is its own
eigenvalue.  A 2x2 block ``[a, d, √2 Re b, √2 Im b]`` has eigenvalues
``m ± r`` with ``m = (a + d)/2`` and ``r = sqrt(((a - d)/2)**2 + |b|**2)``,
so its positive part has a closed form (Higham 1988).  Larger sizes take
one batched ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InconclusiveError, InputError, VerificationError
from .linalg import DEFAULT_TOL, Tolerances, hermitian_units

__all__ = [
    "UcpSpectrahedron",
    "UniquenessResult",
    "FeasibilityResult",
    "pack_herm",
    "unpack_herm",
    "maximally_entangled",
    "is_unique_ucp_extension",
    "ucp_feasibility",
]

# Douglas–Rachford steps before a feasibility search is reported undecided;
# every search the corpus members and the known-answer compressions run is
# decided in a few hundred (see the module docstring), and pairs run none
_FEASIBILITY_CAP = 8_000
# an undecided feasibility search reports its residual every this many iterations
_HISTORY_EVERY = 200
_GRAM_CUT = 1e-13


@lru_cache(maxsize=None)
def _herm_indices(D: int):
    diag = np.arange(D) * D + np.arange(D)
    iu = np.triu_indices(D, 1)
    upper = iu[0] * D + iu[1]
    lower = iu[1] * D + iu[0]
    return diag, upper, lower


def pack_herm(A: np.ndarray) -> np.ndarray:
    """Hermitian matrices ``(..., D, D)`` to real coordinates ``(..., D*D)``."""
    A = np.asarray(A, dtype=np.complex128)
    D = A.shape[-1]
    diag, upper, _ = _herm_indices(D)
    flat = A.reshape(A.shape[:-2] + (D * D,))
    parts = [
        np.real(flat[..., diag]),
        np.sqrt(2.0) * np.real(flat[..., upper]),
        np.sqrt(2.0) * np.imag(flat[..., upper]),
    ]
    return np.concatenate(parts, axis=-1)


def unpack_herm(x: np.ndarray, D: int) -> np.ndarray:
    """Inverse of :func:`pack_herm`."""
    x = np.asarray(x, dtype=np.float64)
    diag, upper, lower = _herm_indices(D)
    noff = upper.size
    flat = np.zeros(x.shape[:-1] + (D * D,), dtype=np.complex128)
    flat[..., diag] = x[..., :D]
    if noff:
        vals = (x[..., D : D + noff] + 1j * x[..., D + noff :]) / np.sqrt(2.0)
        flat[..., upper] = vals
        flat[..., lower] = np.conj(vals)
    return flat.reshape(x.shape[:-1] + (D, D))


def maximally_entangled(d: int) -> np.ndarray:
    """Choi matrix of the identity map on ``M_d`` (rank one, trace ``d``)."""
    v = np.eye(d, dtype=np.complex128).ravel()
    return np.outer(v, np.conj(v))


def _size_groups(choi_dims, offsets) -> tuple[tuple[int, slice | np.ndarray], ...]:
    """``(D, cols)`` per distinct nonzero Choi size ``D``: ``cols`` selects
    the coordinates of every block of that size, a slice when they are
    adjacent and an index array otherwise."""
    groups = []
    for D in sorted(set(choi_dims) - {0}):
        js = [j for j, Dj in enumerate(choi_dims) if Dj == D]
        if js[-1] - js[0] == len(js) - 1:
            cols = slice(offsets[js[0]], offsets[js[-1] + 1])
        else:
            cols = np.concatenate([np.arange(offsets[j], offsets[j + 1]) for j in js])
        groups.append((D, cols))
    return tuple(groups)


def _mid_radius_2x2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m, r)`` of packed 2x2 blocks ``[a, d, √2 Re b, √2 Im b]``, whose
    eigenvalues are ``m ± r``: ``m = (a + d)/2``, ``r = sqrt(((a - d)/2)**2
    + |b|**2)``."""
    a, d, re, im = np.moveaxis(x, -1, 0)
    m = (a + d) / 2.0
    r = np.sqrt(((a - d) / 2.0) ** 2 + (re * re + im * im) / 2.0)
    return m, r


def _psd_part_2x2(x: np.ndarray) -> np.ndarray:
    """Positive part of packed 2x2 blocks in closed form.

    With eigenvalues ``lo = m - r`` and ``hi = m + r``, a PSD block
    (``lo >= 0``) is kept and a negative semidefinite one (``hi <= 0``) goes
    to 0.  An indefinite block keeps ``hi`` times its top eigenprojection,
    ``hi/(2r) * (A - lo*I)``; there ``r > 0``.
    """
    m, r = _mid_radius_2x2(x)
    lo, hi = m - r, m + r
    keep = lo >= 0.0
    mixed = ~keep & (hi > 0.0)
    scale = np.divide(hi, 2.0 * r, out=np.zeros_like(hi), where=mixed)
    shifted = x.copy()
    shifted[..., :2] -= np.where(mixed, lo, 0.0)[..., np.newaxis]
    return np.where(keep[..., np.newaxis], x, scale[..., np.newaxis] * shifted)


@dataclass
class UcpSpectrahedron:
    """Affine-in-Choi-coordinates slice of the blockwise PSD cone.

    ``source_dims`` are the block sizes of the domain algebra (one Choi
    variable per block), ``target_dim`` the size of the target matrix
    algebra.  ``L`` and ``rhs`` encode the interpolation and unitality
    constraints over the real coordinates.
    """

    source_dims: tuple[int, ...]
    target_dim: int
    L: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.choi_dims = tuple(d * self.target_dim for d in self.source_dims)
        offs = [0]
        for D in self.choi_dims:
            offs.append(offs[-1] + D * D)
        self.offsets = tuple(offs)
        self.size_groups = _size_groups(self.choi_dims, self.offsets)
        self.L = np.asarray(self.L, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        if self.L.shape != (self.rhs.size, self.offsets[-1]):
            raise InputError(
                f"constraint matrix shape {self.L.shape} inconsistent with "
                f"{self.rhs.size} rows and {self.offsets[-1]} coordinates"
            )
        self._fact = None

    # ---------- construction ----------

    @classmethod
    def from_constraints(
        cls,
        source_dims,
        target_dim: int,
        sources,
        values,
    ) -> "UcpSpectrahedron":
        """Build from ``k`` interpolation constraints given as image stacks.

        ``sources[j]`` is the ``(k, d_j, d_j)`` stack of the constrained
        elements' Hermitian images in source block ``j``, and ``values`` the
        ``(k, t, t)`` stack of their required Hermitian values in ``M_t``.
        Constraint ``c`` contributes ``t**2`` real rows, rows ``c·t**2`` to
        ``(c + 1)·t**2 - 1``, through the identity
        ``<G, Phi(x)> = <conj(x) (x) G, C>`` over an orthonormal Hermitian
        basis ``G`` of the target.
        """
        t = int(target_dim)
        source_dims = tuple(int(d) for d in source_dims)
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 3 or values.shape[1:] != (t, t):
            raise InputError(f"value stack shape {values.shape}, expected (k, {t}, {t})")
        k = values.shape[0]
        if len(sources) != len(source_dims):
            raise InputError(
                f"{len(sources)} source image stacks for {len(source_dims)} source blocks"
            )
        gbasis = hermitian_units(t)  # (t^2, t, t)
        cols = []
        for d, xs in zip(source_dims, sources):
            xc = np.conj(np.asarray(xs, dtype=np.complex128))
            if xc.shape != (k, d, d):
                raise InputError(f"block image stack shape {xc.shape}, expected {(k, d, d)}")
            # kron(xc[c], G_beta) for every constraint c and every beta at once
            kr = (
                xc[:, np.newaxis, :, np.newaxis, :, np.newaxis]
                * gbasis[np.newaxis, :, np.newaxis, :, np.newaxis, :]
            ).reshape(k * t * t, d * t, d * t)
            cols.append(pack_herm(kr))
        L = np.concatenate(cols, axis=1)
        # BLAS rounds L Lᵀ by memory layout, so L matches the one-constraint-
        # at-a-time reference build in layout as well as in bits: row-major
        # for a scalar target, column-major otherwise
        L = np.ascontiguousarray(L) if t == 1 else L
        rhs = np.real(np.einsum("bpq,kpq->kb", np.conj(gbasis), values)).reshape(k * t * t)
        return cls(source_dims, t, L, rhs)

    # ---------- coordinates ----------

    @property
    def num_coords(self) -> int:
        return self.offsets[-1]

    def pack_tuple(self, mats) -> np.ndarray:
        parts = []
        for D, m in zip(self.choi_dims, mats):
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (D, D):
                raise InputError(f"Choi block shape {m.shape}, expected {(D, D)}")
            parts.append(pack_herm(m))
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack_tuple(self, x: np.ndarray) -> list[np.ndarray]:
        out = []
        for j, D in enumerate(self.choi_dims):
            seg = x[..., self.offsets[j] : self.offsets[j + 1]]
            out.append(unpack_herm(seg, D))
        return out

    # ---------- affine geometry ----------

    def _factorization(self):
        if self._fact is None:
            gram = self.L @ self.L.T
            if gram.shape[0] == 0:
                self._fact = (np.zeros((0, 0)), np.zeros(0))
            else:
                lam, w = np.linalg.eigh(gram)
                lam_max = float(lam[-1]) if lam.size else 0.0
                keep = lam > max(lam_max * _GRAM_CUT, 0.0)
                self._fact = (w[:, keep], lam[keep])
        return self._fact

    def _gram_solve(self, y: np.ndarray) -> np.ndarray:
        w, lam = self._factorization()
        if w.shape[1] == 0:
            return np.zeros_like(y)
        return ((y @ w) / lam) @ w.T

    def affine_project(self, X: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return X
        return X - self._gram_solve(X @ self.L.T - self.rhs) @ self.L

    def affine_residual(self, X: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return np.zeros(X.shape[:-1])
        return np.linalg.norm(X @ self.L.T - self.rhs, axis=-1)

    def particular_solution(self) -> np.ndarray:
        """Minimum-norm solution of ``L x = rhs`` (exact when consistent)."""
        if self.L.shape[0] == 0:
            return np.zeros(self.num_coords)
        return self._gram_solve(self.rhs) @ self.L

    def affine_gap(self) -> float:
        """Distance of ``rhs`` from the range of ``L``; positive means the
        affine constraints alone are inconsistent."""
        if self.L.shape[0] == 0:
            return float(np.linalg.norm(self.rhs))
        w, _ = self._factorization()
        proj = w @ (w.T @ self.rhs)
        return float(np.linalg.norm(self.rhs - proj))

    # ---------- cone geometry ----------

    def _size_blocks(self, X: np.ndarray):
        """``(D, cols, blocks)`` per Choi size: ``blocks = X[..., cols]`` as
        ``(..., k, D*D)``, one row per block of size ``D``."""
        lead = X.shape[:-1]
        for D, cols in self.size_groups:
            yield D, cols, X[..., cols].reshape(lead + (-1, D * D))

    def psd_project(self, X: np.ndarray) -> np.ndarray:
        """Blockwise positive part (eigenvalue clip), one kernel per Choi size.

        1x1 blocks clip at zero and 2x2 blocks use the closed form of
        :func:`_psd_part_2x2`; every larger size takes one batched ``eigh``
        over all its blocks.
        """
        out = np.empty_like(X)
        lead = X.shape[:-1]
        for D, cols, blocks in self._size_blocks(X):
            if D == 1:
                part = np.maximum(blocks, 0.0)
            elif D == 2:
                part = _psd_part_2x2(blocks)
            else:
                w, v = np.linalg.eigh(unpack_herm(blocks, D))
                vh = np.conj(np.swapaxes(v, -1, -2))
                part = pack_herm((v * np.maximum(w, 0.0)[..., np.newaxis, :]) @ vh)
            out[..., cols] = part.reshape(lead + (-1,))
        return out

    def min_eig(self, X: np.ndarray) -> np.ndarray:
        """Least eigenvalue over all Choi blocks: the coordinate itself for
        1x1 blocks, ``m - r`` of :func:`_mid_radius_2x2` for 2x2 blocks, and
        one batched ``eigvalsh`` per larger size."""
        least = []
        for D, _, blocks in self._size_blocks(X):
            if D == 1:
                least.append(blocks[..., 0])
            elif D == 2:
                m, r = _mid_radius_2x2(blocks)
                least.append(m - r)
            else:
                least.append(np.linalg.eigvalsh(unpack_herm(blocks, D))[..., 0])
        if not least:
            return np.zeros(X.shape[:-1])
        return np.min(np.concatenate(least, axis=-1), axis=-1)


@dataclass(frozen=True)
class FeasibilityResult:
    """A feasibility verdict.  ``certificate`` is the Choi tuple of a
    feasible :func:`ucp_feasibility` verdict; a feasible block ideal's is the
    mapping from each killed label to its Choi tuple (None for a
    ``"restriction"`` verdict, which a larger ideal's certificate covers);
    and a ``"norm-drop"`` refutation's is the one-matrix list ``[x]``, x
    the matrix whose norm drops, with the drop as ``residual``.  An
    infeasible :func:`ucp_feasibility` verdict has no certificate and its
    affine gap as ``residual``; the lattice route turns it into a norm-drop
    refutation (:func:`cstarenv.boundary._gap_refutation`)."""

    feasible: bool
    certificate: list | dict | None
    residual: float
    iterations: int
    method: str


@dataclass(frozen=True)
class UniquenessResult:
    """A re-checked proof that a block is a boundary representation:
    ``separation`` is the norm drop of :func:`is_unique_ucp_extension`."""

    method: str
    separation: float
    iterations: int


def _compress(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(1_m ⊗ v) x (1_m ⊗ v)*`` for an ``(m·n)²`` matrix ``x`` and ``d × n``
    rows ``v``: the cellwise compression, of size ``(m·d)²``."""
    d, n = v.shape
    m = x.shape[0] // n
    cells = np.einsum("ai,kilj,bj->kalb", v, x.reshape(m, n, m, n), np.conj(v))
    return cells.reshape(m * d, m * d)


def is_unique_ucp_extension(
    x: np.ndarray, kept_rows: list[np.ndarray], tol: Tolerances = DEFAULT_TOL
) -> UniquenessResult:
    """Re-check the norm drop that proves a block a boundary representation.

    ``x`` is an m×m matrix over the system, an ``(m·n)²`` ambient matrix;
    ``kept_rows`` holds, for every block but the one being decided, the
    rows v_j of the decomposition unitary for its first copy, so that
    π_j(y) = v_j y v_j*.  The check takes the ambient operator norm ‖x‖ and
    ‖q_m(x)‖ = max_j ‖(1_m ⊗ v_j) x (1_m ⊗ v_j)*‖, the norm in the quotient
    that kills only the decided block, and returns the drop
    ``1 - ‖q_m(x)‖/‖x‖``.

    A drop above ``tol_norm`` means the quotient is not completely
    isometric, so the singleton ideal is not a boundary ideal, and the
    Šilov ideal, the largest boundary ideal, does not contain it.  The
    Šilov ideal is also the intersection of the kernels of the boundary
    representations (Arveson 2008), each a block in finite dimensions, and
    only the block's own representation is nonzero on it: so that
    representation is boundary, and the identity on the system has a
    unique UCP extension to it.  A drop at or below ``tol_norm`` proves
    nothing and raises :class:`VerificationError`.
    """
    x = np.asarray(x, dtype=np.complex128)
    nx = float(np.linalg.norm(x, 2))
    nq = max((float(np.linalg.norm(_compress(x, v), 2)) for v in kept_rows), default=0.0)
    drop = 1.0 - nq / nx if nx > 0.0 else 0.0
    if not drop > tol.tol_norm:
        raise VerificationError(
            f"the witness shows no norm drop ({drop:.3e} against tol_norm {tol.tol_norm:.1e})"
        )
    return UniquenessResult("norm-drop", drop, 0)


def ucp_feasibility(
    spec: UcpSpectrahedron,
    tol: Tolerances = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> FeasibilityResult:
    """Decide whether the spectrahedron is nonempty.

    The affine part is checked exactly first (least-squares gap).  The
    start ``X`` (by default the min-norm affine solution) is returned as
    iteration 0 when its affine residual ``‖X Lᵀ - rhs‖`` is at most
    ``tol_rank·max(1, ‖rhs‖)`` and its least Choi eigenvalue at least
    ``-tol_psd``.  Otherwise each Douglas–Rachford step takes the shadow
    ``Y = P_A(X)`` and returns its cone projection ``P_C(Y)`` if that meets
    the affine tolerance, else moves ``X ← X + P_C(2Y - X) - Y``.  The shadow
    converges to a point of the intersection, so its cone projection is the
    candidate.  The reflected point ``P_C(2Y - X)`` is not: it can stay a
    constant distance from ``Y`` while ``X`` drifts, and its residual then
    plateaus above the tolerance.  The returned point is an exact cone
    projection.

    Infeasibility is never declared from a plateau (slow tangential
    convergence looks the same).  A search that stays undecided for
    ``_FEASIBILITY_CAP`` iterations raises :class:`InconclusiveError` with
    the start's least Choi eigenvalue and the affine-residual history: the
    start's, every 200th iteration's and the last one's.
    """
    scale = max(1.0, float(np.linalg.norm(spec.rhs)))
    conv_tol = tol.tol_rank * scale
    gap = spec.affine_gap()
    if gap > 1e-8 * scale:
        return FeasibilityResult(False, None, gap, 0, "linear")
    if spec.num_coords == 0:
        return FeasibilityResult(True, [], 0.0, 0, "trivial")
    if start is None:
        start = spec.particular_solution()
    X = start[np.newaxis, :]
    history = [float(spec.affine_residual(X)[0])]
    least = float(spec.min_eig(X)[0])
    if history[0] <= conv_tol and least >= -tol.tol_psd:
        return FeasibilityResult(True, spec.unpack_tuple(start), history[0], 0, "douglas-rachford")
    for iterations in range(1, _FEASIBILITY_CAP + 1):
        Y = spec.affine_project(X)
        C = spec.psd_project(Y)
        residual = float(spec.affine_residual(C)[0])
        if residual <= conv_tol:
            return FeasibilityResult(
                True, spec.unpack_tuple(C[0]), residual, iterations, "douglas-rachford"
            )
        if iterations % _HISTORY_EVERY == 0 or iterations == _FEASIBILITY_CAP:
            history.append(residual)
        X = X + spec.psd_project(2.0 * Y - X) - Y
    raise InconclusiveError(
        f"feasibility undecided after {_FEASIBILITY_CAP} iterations: start least Choi "
        f"eigenvalue {least:.3e}, affine residuals "
        f"{', '.join(f'{r:.3e}' for r in history)} against tolerance {conv_tol:.3e}"
    )
