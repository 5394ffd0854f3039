"""End-to-end pipelines for single systems and tensor pairs.

:func:`analyze_system` runs the whole single-system pipeline (generated
algebra with its power spans, block decomposition, the minimal boundary
ideal with both its certificates, quotient with the isometry check of its
left inverse, propagation) and keeps every intermediate object, so that
pair pipelines can reuse the factor work instead of recomputing it.

:func:`analyze_pair` runs the four tensor-pair checks against two cached
factor analyses: quotient factorization, boundary-pair closure, power-span
compatibility, and the propagation maximum.  The factorization check takes
the two factor envelopes and builds the tensor system, the pair blocks and
the product envelope once; the other three checks take its report (and the
factor propagation numbers) and recompute none of it.  The product envelope
runs no search: its certificate is built from the factors' certificates
and checked on the tensor system.  A single system's envelope is the only
one the lattice route searches for.  Each factor's power
chain is built once, by the generated algebra that keeps it.  The product's
chain is not rebuilt: the factorization check reads it off the factor chains
and certifies it once on concrete products in the tensor system.
Propagation and power compatibility read those chains and multiply nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import DkCertificate, EnvelopeResult, LatticeCertificate, cstar_envelope
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
    left inverse, which has no knob.  ``max_ambient_product`` caps a pair's
    product ambient, and the command line's documents' ambient too.
    """

    seed: int = 1
    tol: Tolerances = DEFAULT_TOL
    max_ambient_product: int = 36


@dataclass(frozen=True)
class SystemAnalysis:
    """Everything the single-system pipeline produced: the envelope holds
    the algebra, its block decomposition and both certificates."""

    name: str
    digest: str
    system: OperatorSystem
    config: AnalysisConfig
    envelope: EnvelopeResult
    prop: PropResult

    @property
    def algebra(self) -> CStarAlgebra:
        return self.envelope.algebra

    @property
    def wedderburn(self) -> WedderburnData:
        return self.envelope.wedderburn

    @property
    def dk_certificate(self) -> DkCertificate:
        return self.envelope.dk_certificate

    @property
    def lattice_certificate(self) -> LatticeCertificate:
        return self.envelope.lattice_certificate

    @property
    def silov_dk(self) -> frozenset[int]:
        return frozenset(self.wedderburn.labels) - self.dk_certificate.boundary_labels

    @property
    def silov_lattice(self) -> frozenset[int]:
        return self.lattice_certificate.maximal

    @property
    def agreement(self) -> bool:
        """True by construction: the representation route certifies the
        lattice route's ideal.  The v1 report still records it."""
        return self.silov_dk == self.silov_lattice

    @property
    def envelope_block_dims(self) -> tuple[int, ...]:
        return self.envelope.envelope_block_dims


def analyze_system(
    E: OperatorSystem,
    config: AnalysisConfig = AnalysisConfig(),
    *,
    name: str = "",
    digest: str = "",
) -> SystemAnalysis:
    """Run the full single-system pipeline.

    Failed checks and inconclusive numerical decisions propagate, because
    there is nothing sound to report in either case.
    """
    A = generated_cstar(E, tol=config.tol)
    W = wedderburn_decompose(A, seed=config.seed, tol=config.tol)
    env = cstar_envelope(E, tol=config.tol, algebra=A, wedderburn=W)
    return SystemAnalysis(
        name=name or E.label or "system",
        digest=digest,
        system=E,
        config=config,
        envelope=env,
        prop=propagation_number(env, config.tol),
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
    """Run the tensor-pair checks, reusing both factor analyses."""
    config = config if config is not None else left.config
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
