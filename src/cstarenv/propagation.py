"""Propagation numbers: how many multiplications a system needs to fill its
minimal enveloping algebra.

The normative chain lives inside the envelope: the system is carried over by
the minimal quotient q (a complete order embedding, so nothing about the
system itself changes), and its k-th power span there is q(E)^k.  q is a
*-homomorphism, so q(E)^k = q(E^k): the chain is read off the power spans
the generated algebra already keeps, as the dimensions of their images,
until they exhaust the envelope.  A dimension is a rank, taken from the
singular values of the stacked images; no basis of an image is built.  The
same chain in the original ambient algebra is easy to confuse with it; it
stabilizes at the generated algebra instead and generally gives a different
number, so it is reported separately and never used in the verified
identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import EnvelopeResult
from .errors import InputError, StructuralError
from .linalg import DEFAULT_TOL, Tolerances
from .tensor import TensorFactorizationReport, _chain_certifies, _powers

__all__ = [
    "PropResult",
    "PowerCompatibilityReport",
    "PropagationMaxReport",
    "propagation_number",
    "verify_power_compatibility",
    "verify_propagation_max",
]


@dataclass(frozen=True)
class PropResult:
    """Propagation number with the dimension chains that witness it.

    ``chain[k-1]`` is the dimension of the k-th power span of the embedded
    system inside the envelope; it increases strictly and ends at
    ``envelope_dim``, and ``value = len(chain)`` is the first power that
    fills the envelope.  ``ambient_chain`` is the same iteration inside the
    original ambient algebra, reported for comparison only; it stabilizes at
    the generated algebra, which is generally bigger than the envelope.
    """

    value: int
    chain: tuple[int, ...]
    envelope_dim: int
    ambient_chain: tuple[int, ...]


def propagation_number(env: EnvelopeResult, tol: Tolerances = DEFAULT_TOL) -> PropResult:
    """First power of the embedded system ``env.system`` that spans the envelope.

    The k-th entry of the chain is ``dim q(E^k)``, taken over the generated
    algebra's power spans as the rank of the stacked images ``q(P)``: the
    number of singular values above ``tol_rank`` times the largest.  The
    chain must strictly increase until it hits the envelope dimension;
    stabilizing below it would contradict the quotient generating the
    envelope and raises.
    """
    powers = _powers(env)
    q = env.quotient
    env_dim = env.envelope.dim
    chain = []
    for P in powers:
        images = q.apply(P.basis).reshape(P.dim, -1)
        sig = np.linalg.svd(images, compute_uv=False)
        dim = int(np.count_nonzero(sig > tol.tol_rank * sig[0]))
        if chain and dim == chain[-1]:
            break
        chain.append(dim)
        if dim >= env_dim:
            break
    if chain[-1] < env_dim:
        raise StructuralError(
            f"power spans stabilized at dimension {chain[-1]} below the "
            f"envelope dimension {env_dim}"
        )
    if chain[-1] != env_dim:
        raise StructuralError(
            f"power span dimension {chain[-1]} overshot the envelope dimension {env_dim}"
        )
    return PropResult(
        value=len(chain),
        chain=tuple(chain),
        envelope_dim=env_dim,
        ambient_chain=tuple(P.dim for P in powers),
    )


@dataclass(frozen=True)
class PowerCompatibilityReport:
    """Power spans of a tensor product against tensors of power spans.

    ``per_power[n-1] = (n, left_dim, right_dim, product_dim, equal)``.
    """

    n_max: int
    per_power: tuple[tuple[int, int, int, int, bool], ...]
    verified: bool


def verify_power_compatibility(
    fac: TensorFactorizationReport, n_max: int, tol: Tolerances = DEFAULT_TOL
) -> PowerCompatibilityReport:
    """Check that power spans factor through the minimal tensor product.

    For each ``n`` up to ``n_max`` the n-th power span of the tensor system
    must equal the tensor of the two n-th power spans, as subspaces of the
    product ambient.  The three chains are the ones the generated algebras
    of ``fac``'s three envelopes keep, each repeating its last power past
    stabilization.  The product's chain is the one ``fac`` verified, whose
    members are those tensors: row ``n`` reads its certificate, the
    residuals and margins of the first ``min(n - 1, K)`` induction steps,
    and forms no subspace.  That certificate is derived from the factor
    algebras' step certificates, read off concrete products of each factor
    chain's members with its system, and each residual is at least that of
    one concrete product in the tensor system, a generic element of the
    member times one of the system (see
    :func:`cstarenv.tensor._verified_power_chain`).  Pair pipelines pass one
    past the larger factor propagation number, so the interesting range is
    always covered.
    """
    if n_max < 1:
        raise InputError(f"power cap must be at least 1, got {n_max}")
    chains = [
        _powers(env) for env in (fac.left_envelope, fac.right_envelope, fac.product_envelope)
    ]
    K = len(chains[2])
    rows = []
    for n in range(1, n_max + 1):
        left, right, direct = (c[min(n, len(c)) - 1] for c in chains)
        equal = _chain_certifies(fac.power_residuals, fac.power_margins, min(n - 1, K), tol)
        rows.append((n, left.dim, right.dim, direct.dim, equal))
    return PowerCompatibilityReport(
        n_max=n_max, per_power=tuple(rows), verified=all(row[4] for row in rows)
    )


@dataclass(frozen=True)
class PropagationMaxReport:
    """Propagation number of a tensor product against the factor maximum."""

    left: PropResult
    right: PropResult
    product: PropResult
    expected: int
    verified: bool
    tensor_report: TensorFactorizationReport


def verify_propagation_max(
    fac: TensorFactorizationReport,
    left_prop: PropResult,
    right_prop: PropResult,
    tol: Tolerances = DEFAULT_TOL,
) -> PropagationMaxReport:
    """Check ``prop(E (x) F) = max(prop E, prop F)``.

    The identity only makes sense over the verified envelope of the tensor
    product, so it holds only when the factorization report ``fac`` passed:
    the product's number is computed and reported either way, and a failed
    factorization fails this check too.  ``left_prop`` and ``right_prop``
    are the factor propagation numbers.
    """
    p_T = propagation_number(fac.product_envelope, tol)
    expected = max(left_prop.value, right_prop.value)
    return PropagationMaxReport(
        left=left_prop,
        right=right_prop,
        product=p_T,
        expected=expected,
        verified=fac.verified and p_T.value == expected,
        tensor_report=fac,
    )
