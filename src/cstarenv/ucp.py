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

Both are decided by Dykstra alternating projections between the affine set
and the cone, with exact fast paths and exact witness polishing layered on
top: any candidate second point is converted into a ray from the base
point inside the nullspace of ``L`` and certified by an eigenvalue line
search, so returned witnesses satisfy both constraint families to near
machine precision.

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
    "FeasibilityResult",
    "pack_herm",
    "unpack_herm",
    "maximally_entangled",
    "is_unique_ucp_extension",
    "ucp_feasibility",
]

_PROBE_CAP = 2_000
_FULL_CAP = 50_000
_CHECK_EVERY = 50
_RAY_SLACK = 1e-14
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
        constraints,
        J0_mats=None,
    ) -> "UcpSpectrahedron":
        """Build from interpolation constraints.

        ``constraints`` is a list of ``(xs, rhs_mat)`` pairs: ``xs[j]`` is the
        Hermitian image of the constrained element in source block ``j`` and
        ``rhs_mat`` the required Hermitian value in ``M_t``.  Each pair
        contributes ``t**2`` real rows through the identity
        ``<G, Phi(x)> = <conj(x) (x) G, C>`` over an orthonormal Hermitian
        basis ``G`` of the target.
        """
        t = int(target_dim)
        source_dims = tuple(int(d) for d in source_dims)
        gbasis = hermitian_units(t)  # (t^2, t, t)
        nrows_per = t * t
        row_blocks = []
        rhs_parts = []
        for xs, rhs_mat in constraints:
            if len(xs) != len(source_dims):
                raise InputError("constraint has wrong number of block images")
            cols = []
            for d, x in zip(source_dims, xs):
                x = np.asarray(x, dtype=np.complex128)
                if x.shape != (d, d):
                    raise InputError(f"block image shape {x.shape}, expected {(d, d)}")
                if t == 0:
                    continue
                xc = np.conj(x)
                # kron(xc, G_beta) for all beta at once
                kr = (
                    xc[np.newaxis, :, np.newaxis, :, np.newaxis]
                    * gbasis[:, np.newaxis, :, np.newaxis, :]
                ).reshape(nrows_per, d * t, d * t)
                cols.append(pack_herm(kr))
            if t == 0:
                continue
            row_blocks.append(np.concatenate(cols, axis=1) if cols else np.zeros((nrows_per, 0)))
            rhs_mat = np.asarray(rhs_mat, dtype=np.complex128)
            rhs_parts.append(np.real(np.einsum("bpq,pq->b", np.conj(gbasis), rhs_mat)))
        N = sum((d * t) ** 2 for d in source_dims)
        if row_blocks:
            L = np.concatenate(row_blocks, axis=0)
            rhs = np.concatenate(rhs_parts)
        else:
            L = np.zeros((0, N))
            rhs = np.zeros(0)
        J0 = None
        if J0_mats is not None:
            spec = cls(source_dims, t, L, rhs)
            J0 = spec.pack_tuple(J0_mats)
            return cls(source_dims, t, L, rhs, J0)
        return cls(source_dims, t, L, rhs, J0)

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
    def rank(self) -> int:
        return self._factorization()[0].shape[1]

    @property
    def null_dim(self) -> int:
        return self.num_coords - self.rank

    def _gram_solve(self, y: np.ndarray) -> np.ndarray:
        w, lam = self._factorization()
        if w.shape[1] == 0:
            return np.zeros_like(y)
        return ((y @ w) / lam) @ w.T

    def affine_project(self, X: np.ndarray) -> np.ndarray:
        if self.L.shape[0] == 0:
            return X
        resid = X @ self.L.T - self.rhs
        return X - self._gram_solve(resid) @ self.L

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

    def ray_tmax(self, D_dirs: np.ndarray, t_hi: float, slack: float) -> np.ndarray:
        """Largest ``t`` in ``[0, t_hi]`` with ``J0 + t D`` PSD up to ``slack``.

        Bisection on batched eigenvalues; directions are expected to lie in
        the nullspace of ``L`` so the affine constraints are exact along the
        ray.
        """
        if self.J0 is None:
            raise InputError("ray search requires a base point")
        B = D_dirs.shape[0]
        lo = np.zeros(B)
        hi = np.full(B, float(t_hi))
        feas_hi = self.min_eig(self.J0 + hi[:, None] * D_dirs) >= -slack
        lo[feas_hi] = hi[feas_hi]
        for _ in range(50):
            mid = (lo + hi) / 2.0
            feas = self.min_eig(self.J0 + mid[:, None] * D_dirs) >= -slack
            lo = np.where(feas, mid, lo)
            hi = np.where(feas, hi, mid)
        return lo


@dataclass(frozen=True)
class UniquenessResult:
    unique: bool
    witness: list | None
    method: str
    separation: float
    iterations: int


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    certificate: list | None
    residual: float
    iterations: int
    method: str


class _DykstraState:
    """Resumable batched Dykstra iteration between the affine set and the cone."""

    def __init__(self, spec: UcpSpectrahedron, starts: np.ndarray):
        self.spec = spec
        self.X = starts.copy()
        self.P = np.zeros_like(starts)
        self.Q = np.zeros_like(starts)
        self.iterations = 0

    def run(self, steps: int) -> None:
        spec = self.spec
        X, P, Q = self.X, self.P, self.Q
        for _ in range(steps):
            Y = spec.affine_project(X + P)
            P = X + P - Y
            Z = spec.psd_project(Y + Q)
            Q = Y + Q - Z
            X = Z
        self.X, self.P, self.Q = X, P, Q
        self.iterations += steps

    def select(self, idx: np.ndarray) -> "_DykstraState":
        """Continuation state for the chains at ``idx``; the counter carries over."""
        sub = _DykstraState(self.spec, self.X[idx])
        sub.P = self.P[idx].copy()
        sub.Q = self.Q[idx].copy()
        sub.iterations = self.iterations
        return sub


def _ray_polish(
    spec: UcpSpectrahedron,
    candidate: np.ndarray,
    sep_abs: float,
    psd_scale: float,
) -> tuple[np.ndarray, float] | None:
    """Exact witness from a clean candidate direction, or None.

    Projects the direction from ``J0`` into the nullspace of ``L`` and runs
    the eigenvalue line search.  Only succeeds when the direction is feasible
    to near machine precision; contaminated directions fall through to the
    face polish.
    """
    d_dir = spec.null_project((candidate - spec.J0)[np.newaxis, :])
    nrm = float(np.linalg.norm(d_dir))
    if nrm < 1e-14:
        return None
    d_dir = d_dir / nrm
    tmax = spec.ray_tmax(d_dir, t_hi=2.0 * max(nrm, 1.0), slack=_RAY_SLACK * psd_scale)
    t = float(tmax[0])
    if t < sep_abs:
        return None
    witness = spec.J0 + t * d_dir[0]
    return witness, t


def _face_polish(
    spec: UcpSpectrahedron,
    candidate: np.ndarray,
    sep_abs: float,
    psd_scale: float,
    scale: float,
) -> tuple[np.ndarray, float] | None:
    """Exact witness via rank-restricted refinement, or None.

    A stalled Dykstra chain sits near the feasible set but its direction from
    ``J0`` carries junk along infeasible nullspace directions, which kills the
    plain ray search (the junk violates positivity linearly).  The candidate's
    eigenvalue profile, however, identifies the rank of the face the nearby
    feasible points live on.  Alternating between the affine set and rank-
    truncated positive parts removes the tangential directions that stall
    Dykstra, so the refinement converges geometrically to a machine-precision
    feasible point, which the exact ray search then certifies.  False faces
    cannot produce false witnesses: the final certificate is always the ray
    search from ``J0``.
    """
    mats = spec.unpack_tuple(candidate)
    eig_tops = [float(np.linalg.eigvalsh(m)[-1]) if m.size else 0.0 for m in mats]
    global_max = max(eig_tops, default=0.0)
    if global_max <= 0.0:
        return None
    tried: set[tuple[int, ...]] = set()
    for cut in (3e-2, 1e-3):
        ranks = []
        for m, top in zip(mats, eig_tops):
            thresh = cut * max(top, 1e-3 * global_max)
            w = np.linalg.eigvalsh(m)
            ranks.append(int(np.count_nonzero(w > thresh)))
        key = tuple(ranks)
        if sum(ranks) == 0 or key in tried:
            continue
        tried.add(key)
        X = _refine_rank_factorization(spec, candidate, ranks, scale)
        if X is None:
            continue
        if float(np.linalg.norm(X - spec.J0)) < sep_abs:
            continue
        polished = _ray_polish(spec, X, sep_abs, psd_scale)
        if polished is not None:
            return polished
    return None


def _pack_jacobian(V: np.ndarray) -> np.ndarray:
    """Rows ``pack_herm(dV V* + V dV*)``, one per unit direction ``dV`` of the
    ``(D, r)`` factor ``V``: real parts first, then imaginary parts, each
    over ``(p, q)`` row-major."""
    D, r = V.shape
    unit = np.eye(D * r).reshape(D * r, D, r)
    dV = np.concatenate([unit, 1j * unit])
    return pack_herm(dV @ np.conj(V.T) + V @ np.conj(np.swapaxes(dV, 1, 2)))


def _refine_rank_factorization(
    spec: UcpSpectrahedron,
    candidate: np.ndarray,
    ranks,
    scale: float,
) -> np.ndarray | None:
    """Gauss-Newton solve of ``L(V V*) = rhs`` with fixed block ranks.

    Returns coordinates of an exactly-PSD point with affine residual near
    machine precision, or None if the iteration does not converge.
    """
    Vs = []
    for j, (D, r) in enumerate(zip(spec.choi_dims, ranks)):
        seg = candidate[spec.offsets[j] : spec.offsets[j + 1]]
        A = unpack_herm(seg, D)
        w, v = np.linalg.eigh(A)
        if r:
            Vs.append(v[:, -r:] * np.sqrt(np.maximum(w[-r:], 0.0)))
        else:
            Vs.append(np.zeros((D, 0), dtype=np.complex128))

    def assemble(Vs):
        parts = [
            pack_herm(V @ np.conj(V.T)) if V.shape[1] else np.zeros(D * D)
            for V, D in zip(Vs, spec.choi_dims)
        ]
        return np.concatenate(parts)

    def res_vec(X):
        return X @ spec.L.T - spec.rhs

    X = assemble(Vs)
    rn = float(np.linalg.norm(res_vec(X)))
    rn0 = rn
    for it in range(40):
        if rn <= 1e-13 * scale:
            return X
        # wrong rank profiles stagnate instead of converging quadratically;
        # give up on them early, the caller will try the next profile
        if it == 5 and rn > 0.5 * rn0:
            return None
        # Jacobian of pack(V V*) in the real/imaginary entries of every V_j
        cols = []
        meta = []
        for j, (D, r) in enumerate(zip(spec.choi_dims, ranks)):
            if r == 0:
                continue
            base = np.zeros((2 * D * r, spec.num_coords))
            base[:, spec.offsets[j] : spec.offsets[j + 1]] = _pack_jacobian(Vs[j])
            cols.append(base)
            meta.append((j, D, r))
        if not cols:
            return None
        jac = np.concatenate(cols, axis=0) @ spec.L.T  # (P, R)
        step, *_ = np.linalg.lstsq(jac.T, res_vec(X), rcond=None)
        alpha = 1.0
        improved = False
        for _ in range(8):
            new_Vs = [V.copy() for V in Vs]
            pos = 0
            for j, D, r in meta:
                block = step[pos : pos + 2 * D * r]
                pos += 2 * D * r
                delta = block[: D * r].reshape(D, r) + 1j * block[D * r :].reshape(D, r)
                new_Vs[j] = Vs[j] - alpha * delta
            X_new = assemble(new_Vs)
            rn_new = float(np.linalg.norm(res_vec(X_new)))
            if rn_new < rn:
                Vs, X, rn = new_Vs, X_new, rn_new
                improved = True
                break
            alpha /= 2.0
        if not improved:
            break
    return X if rn <= 1e-10 * scale else None


def is_unique_ucp_extension(
    spec: UcpSpectrahedron,
    seed_entropy,
    trials: int = 32,
    tol: Tolerances = DEFAULT_TOL,
) -> UniquenessResult:
    """Decide whether the spectrahedron is the singleton ``{J0}``.

    Exact fast paths first (fully pinned affine set; strictly definite base
    point), then seeded random directions in the nullspace of ``L`` probed
    with Dykstra from ``J0 + eps*D``; any separated candidate is polished
    into an exact witness.  One-sided: a "unique" answer is evidence from
    ``trials`` probes, a "not unique" answer carries a near-exact witness.
    """
    if spec.J0 is None:
        raise InputError("uniqueness requires the base point J0")
    scale = max(1.0, float(np.linalg.norm(spec.J0)))
    psd_scale = max(1.0, float(np.max(np.abs(spec.J0))))
    sep_abs = tol.tol_sep * scale
    conv_tol = tol.tol_rank * scale

    if spec.null_dim == 0:
        return UniquenessResult(True, None, "pinned", 0.0, 0)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=list(seed_entropy)))
    draw = rng.standard_normal((trials, spec.num_coords))
    dirs = spec.null_project(draw)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    good = norms[:, 0] > 1e-12
    dirs = dirs[good] / norms[good]
    if dirs.shape[0] == 0:
        return UniquenessResult(True, None, "pinned", 0.0, 0)

    if float(spec.min_eig(spec.J0[np.newaxis, :])[0]) > tol.tol_psd:
        # strictly definite base point: every null direction moves within the cone
        tmax = spec.ray_tmax(dirs[:1], t_hi=1.0, slack=_RAY_SLACK * psd_scale)
        t = float(tmax[0])
        witness = spec.J0 + 0.9 * t * dirs[0]
        return UniquenessResult(False, spec.unpack_tuple(witness), "pd-fast-path", 0.9 * t, 0)

    def polish(candidate: np.ndarray) -> tuple[np.ndarray, float] | None:
        out = _ray_polish(spec, candidate, sep_abs, psd_scale)
        if out is None:
            out = _face_polish(spec, candidate, sep_abs, psd_scale, scale)
        return out

    # cheap pre-probe candidates: the min-norm affine solution and its cone
    # projection; on a non-singleton set these often polish to an exact
    # witness immediately, and on a singleton set both polish attempts fail
    # fast because every exact ray from J0 has length below sep_abs
    x_p = spec.particular_solution()
    for cand in (x_p, spec.psd_project(x_p[np.newaxis, :])[0]):
        if float(np.linalg.norm(cand - spec.J0)) > sep_abs:
            out = polish(cand)
            if out is not None:
                witness, sep = out
                return UniquenessResult(False, spec.unpack_tuple(witness), "pre-probe", sep, 0)

    # half the chains start a small step from J0, half macroscopically far;
    # far starts give much cleaner witness directions when the set extends
    eps = np.where(
        np.arange(dirs.shape[0]) % 2 == 0,
        1e-3 * max(float(np.linalg.norm(spec.J0)), 1.0),
        0.5 * max(float(np.linalg.norm(spec.J0)), 1.0),
    )
    starts = spec.J0[np.newaxis, :] + eps[:, None] * dirs

    def probe(st: _DykstraState, cap: int, alive: np.ndarray, eps_vec: np.ndarray):
        """Run in segments, retiring chains that have collapsed back into J0.

        A chain is retired once it sits far below its start displacement and
        is still shrinking geometrically: its limit is J0 (or a point below
        the separation threshold, which counts as unique anyway), so keeping
        it alive only burns projections.  A chain headed for a genuine
        witness stops shrinking at the witness distance first and survives.
        Polish is attempted on the most separated chains once they look
        arrived (affinely converged, or no longer traveling).  Returns
        ("witness", w, sep, ..) or ("no-witness", .., survivors, checkpoint
        snapshots, affine residuals), plus the summed per-chain iterations.
        """
        n0 = last_dist.shape[0]
        seg = max(cap // 8, 1)
        checkpoints: list[tuple[int, np.ndarray]] = []
        aff_full = np.full(n0, np.inf)
        spent = 0
        while st.iterations < cap and alive.size:
            steps = min(seg, cap - st.iterations)
            st.run(steps)
            spent += steps * alive.size
            aff = spec.affine_residual(st.X)
            dist = np.linalg.norm(st.X - spec.J0, axis=-1)
            last_dist[alive] = dist
            aff_full[alive] = aff
            checkpoints.append((st.iterations, last_dist.copy()))
            prev = checkpoints[-3][1][alive] if len(checkpoints) >= 3 else None
            for k in np.argsort(-dist)[:2]:
                arrived = aff[k] <= conv_tol or (
                    prev is not None and dist[k] > 0.8 * prev[k]
                )
                if dist[k] > sep_abs and arrived:
                    out = polish(st.X[k])
                    if out is not None:
                        return ("witness", out[0], out[1], None, None, None, spent, st)
            if np.all(aff <= conv_tol):
                break
            if prev is not None:
                thresh = np.maximum(sep_abs, 1e-2 * eps_vec[alive])
                dead = (dist <= thresh) & (dist <= 0.5 * prev)
            else:
                dead = dist <= sep_abs
            if np.any(dead):
                keep = np.flatnonzero(~dead)
                alive = alive[keep]
                if keep.size:
                    st = st.select(keep)
        return ("no-witness", None, 0.0, alive, checkpoints, aff_full, spent, st)

    def classify(st: _DykstraState, alive, checkpoints, aff_full):
        dist = checkpoints[-1][1]
        mid_it = st.iterations // 2
        half_dist = min(checkpoints, key=lambda h: abs(h[0] - mid_it))[1]
        ambiguous = []
        for k in np.argsort(-dist[alive]):
            b = int(alive[k])
            if dist[b] <= sep_abs:
                continue
            out = polish(st.X[k])
            if out is not None:
                return ("witness", out[0], out[1], None)
            if aff_full[b] <= conv_tol:
                # converged to a separated point no polish can certify
                ambiguous.append(b)
            elif dist[b] > 0.8 * max(half_dist[b], 1e-300):
                # separated, not converged, not shrinking back to J0
                ambiguous.append(b)
        return ("no-witness", None, 0.0, ambiguous)

    last_dist = np.full(dirs.shape[0], np.inf)
    state = _DykstraState(spec, starts)
    tag, witness, sep, alive, checkpoints, aff_full, total_iters, state = probe(
        state, _PROBE_CAP, np.arange(dirs.shape[0]), eps
    )
    if tag == "witness":
        return UniquenessResult(False, spec.unpack_tuple(witness), "probe", sep, total_iters)
    verdict, witness, sep, ambiguous = classify(state, alive, checkpoints, aff_full)
    if verdict == "witness":
        return UniquenessResult(False, spec.unpack_tuple(witness), "probe", sep, total_iters)
    if ambiguous:
        idx = np.asarray(ambiguous, dtype=int)
        last_dist = np.full(dirs.shape[0], np.inf)
        state2 = _DykstraState(spec, starts[idx])
        tag, witness, sep, alive2, checkpoints2, aff2, spent2, state2 = probe(
            state2, _FULL_CAP, idx, eps
        )
        total_iters += spent2
        if tag == "witness":
            return UniquenessResult(False, spec.unpack_tuple(witness), "probe", sep, total_iters)
        verdict, witness, sep, ambiguous2 = classify(state2, alive2, checkpoints2, aff2)
        if verdict == "witness":
            return UniquenessResult(False, spec.unpack_tuple(witness), "probe", sep, total_iters)
        if ambiguous2:
            raise InconclusiveError(
                "uniqueness probe did not converge within the iteration cap; "
                f"{len(ambiguous2)} of {trials} directions remain ambiguous"
            )
    return UniquenessResult(True, None, "probe", 0.0, total_iters)


def _rank_truncated_descent(
    spec: UcpSpectrahedron, candidate: np.ndarray, ranks, sweeps: int
) -> np.ndarray:
    """Drive an iterate toward the rank-``ranks`` face of the feasible set.

    Alternates exact affine projection with rank-truncated positive parts.
    Unlike Dykstra on the full cone, the truncation discards the tangential
    junk directions outright, so a few sweeps land close enough to the face
    for the rank-restricted refinement to take over.
    """
    X = candidate.copy()
    for _ in range(sweeps):
        X = spec.affine_project(X[np.newaxis, :])[0]
        for j, (D, r) in enumerate(zip(spec.choi_dims, ranks)):
            seg = slice(spec.offsets[j], spec.offsets[j + 1])
            m = unpack_herm(X[seg], D)
            if r:
                w, v = np.linalg.eigh(m)
                m = (v[:, -r:] * np.maximum(w[-r:], 0.0)) @ np.conj(v[:, -r:].T)
            else:
                m = np.zeros_like(m)
            X[seg] = pack_herm(m)
    return X


def _feasibility_polish(
    spec: UcpSpectrahedron, candidate: np.ndarray, scale: float
) -> np.ndarray | None:
    """Exact feasible point refined from a stalled iterate, or None.

    A stall means the intersection is tangential, which happens exactly when
    the feasible points live on a low-rank face of the cone.  The iterate's
    eigenvalue profile suggests candidate face ranks, but a blurred spectrum
    routinely overestimates them, so the low ranks are swept as well, lowest
    first (Dykstra limits sit on the smallest face).  Each candidate profile
    is driven toward its face by truncated descent and finished by the
    rank-restricted refinement.  A wrong profile only fails, never falsely
    certifies: success requires machine-precision affine residual on an
    exactly positive point.
    """
    mats = spec.unpack_tuple(candidate)
    eig_tops = [float(np.linalg.eigvalsh(m)[-1]) if m.size else 0.0 for m in mats]
    global_max = max(eig_tops, default=0.0)
    if global_max <= 0.0:
        return None
    profiles: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def push(key: tuple[int, ...]) -> None:
        if sum(key) > 0 and key not in seen:
            seen.add(key)
            profiles.append(key)

    base: tuple[int, ...] = ()
    for cut in (3e-2, 1e-3, 1e-5):
        ranks = []
        for m, top in zip(mats, eig_tops):
            thresh = cut * max(top, 1e-3 * global_max)
            w = np.linalg.eigvalsh(m)
            ranks.append(int(np.count_nonzero(w > thresh)))
        if not base and sum(ranks):
            base = tuple(ranks)
        push(tuple(ranks))
    if len(spec.choi_dims) == 1:
        for r in range(1, min(spec.choi_dims[0], 12) + 1):
            push((r,))
    elif base:
        # vary one block at a time around the sharpest eigenvalue profile
        for j, D in enumerate(spec.choi_dims):
            for r in range(1, min(D, 6) + 1):
                push(base[:j] + (r,) + base[j + 1 :])
    profiles.sort(key=sum)
    for ranks in profiles:
        near = _rank_truncated_descent(spec, candidate, ranks, 100)
        X = _refine_rank_factorization(spec, near, ranks, scale)
        if X is not None:
            return X
    return None


def ucp_feasibility(
    spec: UcpSpectrahedron,
    tol: Tolerances = DEFAULT_TOL,
    cap: int = _FULL_CAP,
    start: np.ndarray | None = None,
) -> FeasibilityResult:
    """Decide whether the spectrahedron is nonempty.

    The affine part is checked exactly first (least-squares gap); Dykstra
    then runs from a cone-interior warm start.  Tangential intersections
    stall the iteration, so stalled iterates are polished into exact
    feasible points on the identified cone face.  Infeasibility is never
    declared from a plateau alone (slow tangential convergence looks the
    same); when neither convergence nor a polish decides within the cap,
    the outcome is inconclusive and the caller may bring stronger tools.
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
    state = _DykstraState(spec, start[np.newaxis, :].astype(np.float64))
    res_trace = []
    while state.iterations < cap:
        state.run(min(200, cap - state.iterations))
        res = float(spec.affine_residual(state.X)[0])
        res_trace.append(res)
        if res <= conv_tol:
            return FeasibilityResult(
                True, spec.unpack_tuple(state.X[0]), res, state.iterations, "dykstra"
            )
        stalled = len(res_trace) >= 3 and res > 0.5 * res_trace[-3]
        if stalled or state.iterations >= cap:
            X = _feasibility_polish(spec, state.X[0], scale)
            if X is not None:
                resid = float(spec.affine_residual(X[np.newaxis, :])[0])
                return FeasibilityResult(
                    True, spec.unpack_tuple(X), resid, state.iterations, "polish"
                )
    raise InconclusiveError(
        f"feasibility undecided after {state.iterations} iterations "
        f"(affine residual {res_trace[-1]:.3e}); no exact feasible point found"
    )
