"""End-to-end pipelines for single systems and tensor pairs.

:func:`analyze_system` runs the whole single-system pipeline (generated
algebra with its power spans, block decomposition, both minimal-ideal
routes, quotient with the isometry check of its left inverse, propagation)
and keeps every intermediate object, so that pair pipelines can reuse the
factor work instead of recomputing it.  A route disagreement does not raise
here: it is recorded with both certificates so the caller can serialize
them, as required of every report.

:func:`analyze_pair` runs the four tensor-pair checks against two cached
factor analyses: quotient factorization, boundary-pair closure, power-span
compatibility, and the propagation maximum.  The factorization check takes
the two factor envelopes and builds the tensor system, the pair blocks and
the product envelope once; the other three checks take its report (and the
factor propagation numbers) and recompute none of it.  Each factor's power
chain is built once, by the generated algebra that keeps it.  The product's
chain is not rebuilt: the factorization check reads it off the factor chains
and certifies it once on concrete products in the tensor system.
Propagation and power compatibility read those chains and multiply nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import DkCertificate, EnvelopeResult, LatticeCertificate, cstar_envelope
from .errors import RouteDisagreementError, VerificationError
from .linalg import DEFAULT_TOL, Tolerances
from .opsys import CStarAlgebra, OperatorSystem, generated_cstar
from .propagation import (
    PowerCompatibilityReport,
    PropResult,
    PropagationMaxReport,
    propagation_number,
    verify_power_compatibility,
    verify_propagation_max,
)
from .tensor import (
    BoundaryPairReport,
    TensorFactorizationReport,
    verify_boundary_pair_closure,
    verify_envelope_tensor_factorization,
)
from .wedderburn import WedderburnData, wedderburn_decompose

__all__ = [
    "AnalysisConfig",
    "SystemAnalysis",
    "PairAnalysis",
    "analyze_system",
    "analyze_pair",
]


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs threaded through every pipeline stage.

    Defaults match the command-line defaults so that a report produced
    through the library and one produced through the front end agree.  The
    isometry of the minimal quotient is certified by the lattice route's
    left inverse, which has no knob.
    """

    seed: int = 1
    tol: Tolerances = DEFAULT_TOL
    max_ambient_product: int = 36


@dataclass(frozen=True)
class SystemAnalysis:
    """Everything the single-system pipeline produced.

    ``envelope`` and ``prop`` are None exactly when the two minimal-ideal
    routes disagreed; the certificates of both routes are always present.
    """

    name: str
    digest: str
    system: OperatorSystem
    config: AnalysisConfig
    algebra: CStarAlgebra
    wedderburn: WedderburnData
    dk_certificate: DkCertificate
    lattice_certificate: LatticeCertificate
    agreement: bool
    envelope: EnvelopeResult | None
    prop: PropResult | None

    @property
    def silov_dk(self) -> frozenset[int]:
        return frozenset(self.wedderburn.labels) - self.dk_certificate.boundary_labels

    @property
    def silov_lattice(self) -> frozenset[int]:
        return self.lattice_certificate.maximal

    @property
    def envelope_block_dims(self) -> tuple[int, ...]:
        if self.envelope is None:
            raise VerificationError(f"no envelope for {self.name!r}: routes disagreed")
        return self.envelope.envelope_block_dims


def analyze_system(
    E: OperatorSystem,
    config: AnalysisConfig = AnalysisConfig(),
    *,
    name: str = "",
    digest: str = "",
) -> SystemAnalysis:
    """Run the full single-system pipeline.

    Route disagreement is captured in the result rather than raised;
    inconclusive numerical decisions still propagate, because there is
    nothing sound to report in that case.
    """
    name = name or E.label or "system"
    A = generated_cstar(E, tol=config.tol)
    W = wedderburn_decompose(A, seed=config.seed, tol=config.tol)
    try:
        env = cstar_envelope(E, tol=config.tol, algebra=A, wedderburn=W)
    except RouteDisagreementError as exc:
        return SystemAnalysis(
            name=name,
            digest=digest,
            system=E,
            config=config,
            algebra=A,
            wedderburn=W,
            dk_certificate=exc.dk_certificate,
            lattice_certificate=exc.lattice_certificate,
            agreement=False,
            envelope=None,
            prop=None,
        )
    prop = propagation_number(env, config.tol)
    return SystemAnalysis(
        name=name,
        digest=digest,
        system=E,
        config=config,
        algebra=A,
        wedderburn=W,
        dk_certificate=env.dk_certificate,
        lattice_certificate=env.lattice_certificate,
        agreement=True,
        envelope=env,
        prop=prop,
    )


@dataclass(frozen=True)
class PairAnalysis:
    """Outcome of the four tensor-pair checks for one ordered pair."""

    left: SystemAnalysis
    right: SystemAnalysis
    config: AnalysisConfig
    factorization: TensorFactorizationReport
    boundary_pairs: BoundaryPairReport
    power: PowerCompatibilityReport
    prop_max: PropagationMaxReport

    @property
    def verified(self) -> bool:
        return (
            self.factorization.verified
            and self.boundary_pairs.verified
            and self.power.verified
            and self.prop_max.verified
        )


def analyze_pair(
    left: SystemAnalysis,
    right: SystemAnalysis,
    config: AnalysisConfig | None = None,
) -> PairAnalysis:
    """Run the tensor-pair checks, reusing both factor analyses.

    Both factors must have a trusted envelope; a pair over a disagreed
    factor has no well-defined expected answer to verify against.
    """
    config = config if config is not None else left.config
    for side in (left, right):
        if not side.agreement or side.envelope is None:
            raise VerificationError(
                f"cannot verify a pair over {side.name!r}: its minimal-ideal "
                "routes disagreed"
            )
    factorization = verify_envelope_tensor_factorization(
        left.envelope,
        right.envelope,
        tol=config.tol,
        max_ambient_product=config.max_ambient_product,
    )
    n_max = max(left.prop.value, right.prop.value) + 1
    return PairAnalysis(
        left=left,
        right=right,
        config=config,
        factorization=factorization,
        boundary_pairs=verify_boundary_pair_closure(factorization),
        power=verify_power_compatibility(factorization, n_max, config.tol),
        prop_max=verify_propagation_max(factorization, left.prop, right.prop, config.tol),
    )
