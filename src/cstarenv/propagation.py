"""Propagation numbers: how many multiplications a system needs to fill its
minimal enveloping algebra.

The normative chain lives inside the envelope: the system is carried over by
the minimal quotient (a complete order embedding, so nothing about the system
itself changes) and its power spans are iterated there until they exhaust the
envelope.  The same chain computed in the original ambient algebra is easy to
confuse with it; it stabilizes at the generated algebra instead and generally
gives a different number, so it is reported separately and never used in the
verified identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import EnvelopeResult
from .errors import InputError, StructuralError
from .linalg import DEFAULT_TOL, Tolerances, span_of, subspace_equal
from .opsys import OperatorSystem, product_span
from .tensor import TensorFactorizationReport, TensorSystem, subspace_kron

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

    The chain must strictly increase until it hits the envelope dimension;
    stabilizing below it would contradict the quotient generating the
    envelope and raises.
    """
    E = env.system
    t = env.quotient.target_dim
    image = OperatorSystem(
        space=span_of(list(env.embed.values), t, tol), label=E.label
    )
    image.validate(tol)
    env_dim = env.envelope.dim
    chain = [image.dim]
    current = image.space
    while chain[-1] < env_dim:
        nxt = product_span(current, image.space, tol)
        if nxt.dim == chain[-1]:
            raise StructuralError(
                f"power spans stabilized at dimension {nxt.dim} below the "
                f"envelope dimension {env_dim}"
            )
        chain.append(nxt.dim)
        current = nxt
    if chain[-1] != env_dim:
        raise StructuralError(
            f"power span dimension {chain[-1]} overshot the envelope dimension {env_dim}"
        )

    # the generated algebra's chain is this iteration in the ambient, ending
    # with the repeated dimension that showed it had stabilized
    ambient_chain = env.algebra.chain[:-1]
    if len(env.algebra.chain) < 2 or ambient_chain[0] != E.dim:
        raise StructuralError(
            f"the envelope's algebra carries no power-span chain of the system "
            f"(chain {env.algebra.chain}, system dimension {E.dim})"
        )

    return PropResult(
        value=len(chain),
        chain=tuple(chain),
        envelope_dim=env_dim,
        ambient_chain=ambient_chain,
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
    T: TensorSystem, n_max: int, tol: Tolerances = DEFAULT_TOL
) -> PowerCompatibilityReport:
    """Check that power spans factor through the minimal tensor product.

    For each ``n`` up to ``n_max`` the tensor of the two n-th power spans
    must equal the n-th power span of the tensor system, as subspaces of the
    product ambient.  The three power chains grow together, one
    :func:`product_span` per chain and step.  Pair pipelines pass one past
    the larger factor propagation number, so the interesting range is always
    covered.
    """
    if n_max < 1:
        raise InputError(f"power cap must be at least 1, got {n_max}")
    left, right, direct = T.left.space, T.right.space, T.product.space
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        if n > 1:
            left = product_span(left, T.left.space, tol)
            right = product_span(right, T.right.space, tol)
            direct = product_span(direct, T.product.space, tol)
        equal = subspace_equal(subspace_kron(left, right), direct, tol)
        ok = ok and equal
        rows.append((n, left.dim, right.dim, direct.dim, equal))
    return PowerCompatibilityReport(n_max=n_max, per_power=tuple(rows), verified=ok)


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
    product, so the factorization report ``fac`` must have passed.
    ``left_prop`` and ``right_prop`` are the factor propagation numbers.
    """
    if not fac.verified:
        raise InputError(
            "tensor factorization must be verified before comparing propagation numbers"
        )
    p_T = propagation_number(fac.product_envelope, tol)
    expected = max(left_prop.value, right_prop.value)
    return PropagationMaxReport(
        left=left_prop,
        right=right_prop,
        product=p_T,
        expected=expected,
        verified=p_T.value == expected,
        tensor_report=fac,
    )
