"""Operator systems and the C*-algebras they generate.

An operator system here is a unital adjoint-closed subspace of ``M_n``,
presented by generators.  Its stored basis is Hermitian and orthonormal,
Hermitian bit for bit, so every UCP constraint is written against that
basis with no further Gram-Schmidt (:func:`cstarenv.linalg.hermitian_basis`
returns it as it is), and a tensor product inherits one.  The generated
C*-algebra is computed as the stabilizing member of the chain of power
spans ``E, span(E.E), ...``; in finite dimensions the chain stabilizes
after at most ``n**2`` steps.  Closure comes from the construction, and
nothing here re-checks it: the block decomposition's pattern check
certifies each algebra.  The algebra keeps the chain's subspaces, so the
propagation number and the power-compatibility check read them instead of
multiplying again.  A tensor product's algebra keeps the chain the pair
pipeline derived from the factor chains instead, certified by the factors'
step certificates (:attr:`CStarAlgebra.power_steps`, computed once per
factor algebra) and one concrete probe per step (see
:mod:`cstarenv.tensor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import (
    DEFAULT_TOL,
    MatSubspace,
    Tolerances,
    _rows_inside,
    dagger,
    hermitian_basis,
    hs_norm,
    span_of,
    subspace_contains,
)

__all__ = [
    "OperatorSystem",
    "CStarAlgebra",
    "PowerStep",
    "opsys_from_generators",
    "generated_cstar",
    "product_span",
]


@dataclass(frozen=True)
class OperatorSystem:
    """Unital adjoint-closed subspace of ``M_n`` with a stored basis."""

    space: MatSubspace
    label: str = ""

    @property
    def ambient(self) -> int:
        return self.space.ambient

    @property
    def dim(self) -> int:
        return self.space.dim

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> None:
        n = self.ambient
        if not subspace_contains(self.space, np.eye(n), tol):
            raise InputError(f"operator system {self.label!r} does not contain the identity")
        adjoints = np.conj(self.space.basis).transpose(0, 2, 1).reshape(self.dim, n * n)
        if not _rows_inside(self.space, adjoints, tol):
            raise InputError(f"operator system {self.label!r} is not adjoint-closed")


@dataclass(frozen=True)
class PowerStep:
    """Step j of a power chain E^1..E^a, read off the coefficients C of the
    products of E^j's and E's basis elements on the basis of E^{min(j+1,a)}.

    ``residual`` is the largest projection residual of a product off
    E^{min(j+1,a)} relative to its norm, and ``sigma_rank`` and ``sigma_max``
    are σ_d(C) and σ_1(C), d the dimension of E^{min(j+1,a)} (σ_d is 0 when
    C has fewer than d rows and cannot span it).
    """

    residual: float
    sigma_rank: float
    sigma_max: float


def _power_steps(powers: tuple[MatSubspace, ...]) -> tuple[PowerStep, ...]:
    """The step certificates of the chain ``powers``, with ``powers[0]`` as E
    and the last member's step its closure E^a·E ⊆ E^a."""
    if not powers:
        return ()
    n = powers[0].ambient
    steps = []
    for j, P in enumerate(powers, start=1):
        target = powers[min(j, len(powers) - 1)].vecs()
        prods = np.matmul(P.basis[:, None], powers[0].basis[None]).reshape(-1, n * n)
        coeffs = prods @ np.conj(target).T
        resid = np.linalg.norm(prods - coeffs @ target, axis=1)
        norms = np.linalg.norm(prods, axis=1)
        # a zero product has a zero residual, which passes the rule
        # resid <= tol_rank * norm; 0/0 is read as 0
        ratios = np.divide(resid, norms, out=np.zeros_like(resid), where=norms > 0)
        sig = np.linalg.svd(coeffs, compute_uv=False)
        d = target.shape[0]
        steps.append(
            PowerStep(
                residual=float(ratios.max(initial=0.0)),
                sigma_rank=float(sig[d - 1]) if sig.size >= d else 0.0,
                sigma_max=float(sig[0]) if sig.size else 0.0,
            )
        )
    return tuple(steps)


@dataclass(frozen=True)
class CStarAlgebra:
    """Unital *-subalgebra of ``M_n``.

    No method checks closure.  :func:`generated_cstar` builds it in, and
    the block pattern of :func:`cstarenv.wedderburn.wedderburn_decompose`
    certifies it.  ``powers`` is the power-span chain ``E, E^2, ..., E^k``
    of the system that generated it, where ``E^k`` is the first power equal
    to the next one, so ``powers[-1]`` is ``space``.  The chain is built by
    :func:`generated_cstar`, or for a tensor product derived from the
    factor chains.  An algebra built directly from a basis, such as a block
    algebra, has no powers.

    :attr:`power_steps` certifies the chain step by step, computed on first
    use from this instance's own ``powers`` and kept with it: a copy made by
    ``dataclasses.replace`` starts without it and computes its own.
    """

    space: MatSubspace
    powers: tuple[MatSubspace, ...] = ()

    @property
    def ambient(self) -> int:
        return self.space.ambient

    @property
    def dim(self) -> int:
        return self.space.dim

    @cached_property
    def power_steps(self) -> tuple[PowerStep, ...]:
        """One :class:`PowerStep` per member of ``powers``; the tensor
        product's chain certificate is derived from its factors'."""
        return _power_steps(self.powers)


def opsys_from_generators(
    n: int,
    generators,
    tol: Tolerances = DEFAULT_TOL,
    label: str = "",
) -> OperatorSystem:
    """Operator system spanned by the identity, the generators, and their adjoints.

    The identity and each generator are scaled to unit Hilbert-Schmidt norm
    before the span is taken; zero generators are skipped and non-finite
    entries raise :class:`InputError`.  The span is validated, and the
    system stores its Hermitian orthonormal basis, made Hermitian bit for bit
    by ``(h + h*)/2``, a no-op on a basis that is Hermitian already.
    """
    if n < 1:
        raise InputError(f"ambient dimension must be positive, got {n}")
    # unit Hilbert-Schmidt norms: span_of's rank cutoff is relative to the
    # largest input, so a generator's scale alone must not decide its rank
    units = []
    for g in generators:
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (n, n):
            raise InputError(f"generator shape {g.shape} does not match ambient {n}")
        peak = float(np.max(np.abs(g)))
        if not np.isfinite(peak):
            raise InputError("generator entries must be finite")
        if peak > 0.0:
            g = g / peak  # a unit largest entry first: the norm of 1e-200 underflows
            units.append(g / hs_norm(g))
    mats = [np.eye(n, dtype=np.complex128) / np.sqrt(n)]
    mats.extend(units)
    mats.extend(dagger(g) for g in units)
    space = span_of(mats, n, tol)
    OperatorSystem(space=space, label=label).validate(tol)
    herm = hermitian_basis(space, tol)
    herm = (herm + np.conj(herm).transpose(0, 2, 1)) / 2.0
    return OperatorSystem(space=MatSubspace(n, herm), label=label)


def product_span(
    s: MatSubspace, t: MatSubspace, tol: Tolerances = DEFAULT_TOL
) -> MatSubspace:
    """Span of all pairwise products of two subspaces' basis elements.

    The basis of ``s`` is prepended so the result visibly contains ``s``
    whenever ``t`` is unital; ordering is fixed for determinism.
    """
    if s.ambient != t.ambient:
        raise InputError("product_span requires a common ambient dimension")
    n = s.ambient
    prods = np.einsum("aij,bjk->abik", s.basis, t.basis).reshape(-1, n, n)
    mats = list(s.basis) + list(prods)
    return span_of(mats, n, tol)


def generated_cstar(E: OperatorSystem, tol: Tolerances = DEFAULT_TOL) -> CStarAlgebra:
    """Generated C*-algebra: iterate power spans until the dimension stabilizes,
    keeping each power.

    Closure holds by construction.  1 ∈ E = E* makes every power E^k
    adjoint-closed and contain the one before.  The loop stops at the first
    k with E^k·E ⊆ E^k, so E^k·E^j ⊆ E^k for every j.  These are rank
    decisions, certified downstream by the decomposition's block pattern.
    This builds the chain of a single system.  A tensor product's chain is
    not rebuilt here: the pair pipeline reads it off the factor chains as
    E^k ⊗ F^k and certifies it from the factor algebras' step certificates
    (:attr:`CStarAlgebra.power_steps`) with one concrete probe per step
    (:mod:`cstarenv.tensor`), and this function is the test oracle for it.
    """
    powers = [E.space]
    while True:
        nxt = product_span(powers[-1], E.space, tol)
        if nxt.dim == powers[-1].dim:
            break
        powers.append(nxt)
    return CStarAlgebra(space=powers[-1], powers=tuple(powers))
