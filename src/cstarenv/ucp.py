"""Spectrahedra of unital completely positive maps in Choi coordinates.

A linear map from a decomposed algebra into ``M_t`` is a tuple of maps out
of the blocks; the map is completely positive exactly when every block's
Choi matrix is positive semidefinite.  Interpolation conditions ("agree
with a given map on this subspace") are affine in the Choi entries, so the
set of UCP maps satisfying them is an intersection

    {Hermitian Choi tuples : L J = rhs}  with  {blockwise PSD}

and the two decision problems this package needs are questions about that
intersection: is it a singleton around a distinguished point (uniqueness
of a UCP extension), and is it nonempty (existence of a UCP left inverse).

Uniqueness is decided by a certificate: a pinned affine set, or a dual
certificate (strict complementarity) checked with an explicit rounding
bound.  A second extension, the other answer, is not searched for here:
the blocks that have one are the blocks the lattice route's checked UCP
left inverse kills, and that left inverse is their witness (see
:func:`cstarenv.boundary.boundary_representations`).

Dykstra alternating projections between an affine set and the cone decide
feasibility, stopping at the first iterate that meets the affine
tolerance, and search for a dual certificate when its closed form fails.
The feasibility search reads each iterate's residual off the next affine
projection, which computes it anyway (see :func:`ucp_feasibility`).

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

from .errors import InconclusiveError, InputError
from .linalg import DEFAULT_TOL, Tolerances, hermitian_units

__all__ = [
    "UcpSpectrahedron",
    "UniquenessResult",
    "CertificateCheck",
    "FeasibilityResult",
    "pack_herm",
    "unpack_herm",
    "maximally_entangled",
    "is_unique_ucp_extension",
    "verify_uniqueness_certificate",
    "ucp_feasibility",
]

_DUAL_CAP = 400
# Dykstra iterations before a feasibility search is reported undecided
_FEASIBILITY_CAP = 8_000
# an undecided feasibility search reports its residual every this many iterations
_HISTORY_EVERY = 200
_CHECK_EVERY = 50
_GRAM_CUT = 1e-13
# singular values of Z -> Z_j ω below this span the face: rounding, not a constraint
_FACE_CUT = 1e-12


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
    constraints over the real coordinates; ``J0`` is an optional
    distinguished feasible point (the map whose extensions are being
    probed).
    """

    source_dims: tuple[int, ...]
    target_dim: int
    L: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    J0: np.ndarray | None = field(default=None, repr=False)

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
        J0_mats=None,
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
        spec = cls(source_dims, t, L, rhs)
        if J0_mats is not None:
            spec.J0 = spec.pack_tuple(J0_mats)
        return spec

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

    @property
    def null_dim(self) -> int:
        return self.num_coords - self._factorization()[0].shape[1]

    def _gram_solve(self, y: np.ndarray) -> np.ndarray:
        w, lam = self._factorization()
        if w.shape[1] == 0:
            return np.zeros_like(y)
        return ((y @ w) / lam) @ w.T

    def affine_step(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(affine_project(X), a)``, with ``a = (X Lᵀ - rhs) w`` the
        residual of ``X`` in the kept eigenvectors ``w`` of ``L Lᵀ``.  The
        step moves ``X`` by ``c L`` with ``(c L) Lᵀ w = a``."""
        w, lam = self._factorization()
        a = (X @ self.L.T - self.rhs) @ w
        return X - ((a / lam) @ w.T) @ self.L, a

    def affine_project(self, X: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return X
        return self.affine_step(X)[0]

    def null_project(self, Z: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return Z
        return Z - self._gram_solve(Z @ self.L.T) @ self.L

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
class UniquenessResult:
    """A proof that a spectrahedron is the singleton ``{J0}``: ``method`` is
    ``"pinned"`` or ``"dual"``, and ``certificate`` the packed dual
    certificate of a ``"dual"`` verdict."""

    method: str
    separation: float
    iterations: int
    certificate: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    certificate: list | None
    residual: float
    iterations: int
    method: str


class _DykstraState:
    """Resumable batched Dykstra iteration between an affine set and the cone."""

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


def _frame(spec: UcpSpectrahedron) -> tuple[int, np.ndarray, float, float]:
    """``(j, ω, t, offset)``: the block ``j`` holding most of the trace ``t``
    of ``J0``, the unit top eigenvector ``ω`` of that block, and
    ``offset = ‖J0 - t·ωω*‖``, which is rounding for a rank-one ``J0``."""
    mats = spec.unpack_tuple(spec.J0)
    traces = [float(np.trace(m).real) for m in mats]
    j, t = int(np.argmax(traces)), sum(traces)
    omega = np.linalg.eigh(mats[j])[1][:, -1]
    mats[j] = mats[j] - t * np.outer(omega, np.conj(omega))
    return j, omega, t, float(np.linalg.norm(spec.pack_tuple(mats)))


def _distance_bound(t: float, tau: float) -> float:
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


def _trace_bound(
    t: float, offset: float, rho: float, eta: float, delta: float, mu: float
) -> float:
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


def verify_uniqueness_certificate(
    spec: UcpSpectrahedron, Z: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> CertificateCheck:
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
    ``‖J - J0‖ ≤ √(2x(x + t)) + ε`` by :func:`_distance_bound`.  The two
    sides bound ``x ≤ τ`` (:func:`_trace_bound`), so
    ``‖J - J0‖ ≤ √(2τ(τ + t)) + ε``.  The certificate is accepted
    when ``μ > 0`` and this bound is below ``tol_sep·max(1, ‖J0‖)``, the
    separation below which two feasible points count as one.  Exactly
    (``ρ = η = δ = 0``) this is strict complementarity: ``Z = Lᵀy ⪰ 0`` has
    kernel ``span(ω)``, so every feasible ``J`` lives on ``span(ω)`` and
    unitality forces ``J = J0``.
    """
    j, omega, t, offset = _frame(spec)
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
    bound = _distance_bound(t, _trace_bound(t, offset, rho, eta, delta, mu)) + offset
    threshold = tol.tol_sep * max(1.0, float(np.linalg.norm(spec.J0)))
    return CertificateCheck(rho, eta, delta, float(mu), float(bound), threshold)


def _face(spec: UcpSpectrahedron) -> tuple[np.ndarray, np.ndarray]:
    """``(F, P⊥)``: orthonormal columns ``F`` spanning the face subspace
    ``S = rowspace(L) ∩ {Z : Z_j ω = 0}``, from one SVD of ``Z ↦ Z_j ω``
    on an orthonormal row-space basis, and the packed projector ``P⊥``."""
    j, omega, _, _ = _frame(spec)
    w, lam = spec._factorization()
    rows = (spec.L.T @ w) / np.sqrt(lam)
    image = unpack_herm(rows.T[:, spec.offsets[j] : spec.offsets[j + 1]], spec.choi_dims[j])
    image = image @ omega
    _, sv, vh = np.linalg.svd(np.concatenate([image.real, image.imag], axis=1).T)
    perp = [np.eye(D, dtype=np.complex128) for D in spec.choi_dims]
    perp[j] -= np.outer(omega, np.conj(omega))
    return rows @ vh[np.count_nonzero(sv > _FACE_CUT) :].T, spec.pack_tuple(perp)


def _dual_search(spec, F, p_perp, Z, mu, ratio, tol):
    """Dykstra between ``S - P⊥`` and the cone from the closed form ``Z``
    (margin ``mu``, ``ratio``), checked every ``_CHECK_EVERY`` iterations:
    ``(Z, μ, ratio, iterations)`` of an accepted ``Z`` in ``S`` near
    ``{Z ⪰ P⊥}``, or None with the best margin and ratio reached."""

    def to_face(X):
        return (X @ F) @ F.T

    def affine(X):
        return to_face(X + p_perp) - p_perp

    state = _DykstraState(affine, spec.psd_project, (Z - p_perp)[np.newaxis, :])
    while state.iterations < _DUAL_CAP:
        state.run(_CHECK_EVERY)
        Z = to_face(state.X + p_perp)[0]
        check = verify_uniqueness_certificate(spec, Z, tol)
        if check.accepted:
            return Z, check.mu, check.ratio, state.iterations
        mu, ratio = max(mu, check.mu), min(ratio, check.ratio)
    return None, mu, ratio, state.iterations


def is_unique_ucp_extension(
    spec: UcpSpectrahedron, tol: Tolerances = DEFAULT_TOL
) -> UniquenessResult:
    """Certify that the spectrahedron is the singleton ``{J0}``.

    Every verdict is proved, in this order: a pinned affine set
    (``"pinned"``); the closed-form dual certificate (``"dual"``, see
    :func:`verify_uniqueness_certificate`); a Dykstra search for a dual
    certificate (``"dual"``, with its iterations).  A ``"dual"`` verdict's
    separation is the certificate's margin μ.  No step is random.  No step
    looks for room around a strictly definite ``J0`` either: the extension
    spectrahedron of a block of a multi-block algebra has ``J0`` zero at
    every other source, and a simple algebra decides no uniqueness.

    Only uniqueness is decided.  A block with a second extension has no
    certificate, so there every step fails and the call raises
    :class:`InconclusiveError` with the best margin and bound reached; its
    callers hand it only blocks that no checked witness refutes.
    """
    if spec.J0 is None:
        raise InputError("uniqueness requires the base point J0")

    if spec.null_dim == 0:
        return UniquenessResult("pinned", 0.0, 0)

    F, p_perp = _face(spec)
    Z = (p_perp @ F) @ F.T  # the orthogonal projection of P⊥ onto S
    check = verify_uniqueness_certificate(spec, Z, tol)
    if check.accepted:
        return UniquenessResult("dual", check.mu, 0, Z)

    Z, mu, ratio, iterations = _dual_search(spec, F, p_perp, Z, check.mu, check.ratio, tol)
    if Z is not None:
        return UniquenessResult("dual", mu, iterations, Z)
    raise InconclusiveError(
        f"uniqueness undecided: no dual certificate after {iterations} iterations "
        f"(best margin {mu:.3e}, best bound/threshold {ratio:.3e})"
    )


def ucp_feasibility(
    spec: UcpSpectrahedron,
    tol: Tolerances = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> FeasibilityResult:
    """Decide whether the spectrahedron is nonempty.

    The affine part is checked exactly first (least-squares gap).  Dykstra
    then runs from ``start`` (by default the min-norm affine solution) and
    returns its first iterate, counting the start as iteration 0, whose
    affine residual ``‖X Lᵀ - rhs‖`` is at most ``tol_rank·max(1, ‖rhs‖)``.
    At iteration 0 the least Choi eigenvalue must also be at least
    ``-tol_psd``; later iterates are cone projections.

    Each iterate's residual comes almost free from the next step.  That
    step projects ``X + P`` and computes ``a' = ((X + P) Lᵀ - rhs) w`` on
    the kept eigenvectors ``w`` of ``L Lᵀ``.  The correction ``P`` is the
    last projection's move ``c L``, with ``P Lᵀ w = a``, that projection's
    own coordinates.  So ``a' - a`` is the part of X's residual in the range
    of ``w``, a lower bound on its norm.  Only when that bound is within
    twice the tolerance, far above its rounding, is the residual taken
    exactly, one product with ``L``.  The returned iterate is the first
    whose exact residual meets the tolerance.

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
        return FeasibilityResult(True, spec.unpack_tuple(start), history[0], 0, "dykstra")
    # Dykstra as in _DykstraState, with each affine step's coordinates kept
    P, Q = np.zeros_like(X), np.zeros_like(X)
    a_prev = 0.0  # P = 0 before the first step
    iterations = 0
    while True:
        V = X + P
        Y, a = spec.affine_step(V)
        if iterations:
            exact = None
            if np.linalg.norm(a - a_prev) <= 2.0 * conv_tol:
                exact = float(spec.affine_residual(X)[0])
                if exact <= conv_tol:
                    return FeasibilityResult(
                        True, spec.unpack_tuple(X[0]), exact, iterations, "dykstra"
                    )
            if iterations % _HISTORY_EVERY == 0 or iterations == _FEASIBILITY_CAP:
                history.append(exact if exact is not None else float(spec.affine_residual(X)[0]))
        if iterations == _FEASIBILITY_CAP:
            break
        P, a_prev = V - Y, a
        X = spec.psd_project(Y + Q)
        Q = Y + Q - X
        iterations += 1
    raise InconclusiveError(
        f"feasibility undecided after {iterations} iterations: start least Choi "
        f"eigenvalue {least:.3e}, affine residuals "
        f"{', '.join(f'{r:.3e}' for r in history)} against tolerance {conv_tol:.3e}"
    )
