"""Computable C*-extension theory for finite-dimensional operator systems.

Pipelines over unital adjoint-closed subspaces of ``M_n``: the generated
C*-algebra and its block decomposition, the minimal boundary ideal found as
the maximum of the boundary-ideal lattice and certified by its left
inverse, with a boundary-representation verdict per block read off the
same lattice (a kept block's singleton ideal is refuted), the minimal
quotient with its embedding, minimal tensor products with factorization
checks, and propagation numbers.  The :mod:`cstarenv.cli` front end batches
all of it over JSON documents.
"""

from .analysis import (
    AnalysisConfig,
    PairAnalysis,
    SystemAnalysis,
    analyze_pair,
    analyze_system,
)
from .boundary import (
    BlockImages,
    BlockUniqueness,
    DkCertificate,
    EnvelopeResult,
    FalsifierReport,
    IsometryCheck,
    LatticeCertificate,
    block_images,
    boundary_representations,
    cstar_envelope,
    falsify_complete_isometry,
    is_boundary_ideal_ucp,
    silov_ideal_dk,
    silov_ideal_lattice,
)
from .corpus import corpus_entries, standard_pairs, write_corpus
from .errors import (
    DecompositionError,
    InconclusiveError,
    InputError,
    RouteDisagreementError,
    StructuralError,
    VerificationError,
)
from .linalg import (
    DEFAULT_TOL,
    MatSubspace,
    Tolerances,
    hermitian_basis,
    hs_inner,
    hs_norm,
    op_norm,
    span_of,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from .opsys import (
    CStarAlgebra,
    OperatorSystem,
    generated_cstar,
    opsys_from_generators,
    product_span,
)
from .propagation import (
    PowerCompatibilityReport,
    PropResult,
    PropagationMaxReport,
    propagation_number,
    verify_power_compatibility,
    verify_propagation_max,
)
from .specio import SystemSpec, VERSION, load_system, opsys_of, spec_digest
from .tensor import (
    BoundaryPairReport,
    ProductBlocks,
    TensorFactorizationReport,
    TensorSystem,
    kernel_of_tensor_quotients,
    min_tensor,
    product_blocks,
    subspace_kron,
    verify_boundary_pair_closure,
    verify_envelope_tensor_factorization,
)
from .ucp import (
    FeasibilityResult,
    UcpSpectrahedron,
    UniquenessResult,
    is_unique_ucp_extension,
    ucp_feasibility,
)
from .wedderburn import (
    BlockIdeal,
    QuotientMap,
    WedderburnData,
    quotient_map,
    wedderburn_decompose,
)

__version__ = VERSION

__all__ = [
    "AnalysisConfig",
    "BlockIdeal",
    "BlockImages",
    "BlockUniqueness",
    "BoundaryPairReport",
    "CStarAlgebra",
    "DEFAULT_TOL",
    "DecompositionError",
    "DkCertificate",
    "EnvelopeResult",
    "FalsifierReport",
    "IsometryCheck",
    "FeasibilityResult",
    "InconclusiveError",
    "InputError",
    "LatticeCertificate",
    "MatSubspace",
    "OperatorSystem",
    "PairAnalysis",
    "PowerCompatibilityReport",
    "ProductBlocks",
    "PropResult",
    "PropagationMaxReport",
    "QuotientMap",
    "RouteDisagreementError",
    "StructuralError",
    "SystemAnalysis",
    "SystemSpec",
    "TensorFactorizationReport",
    "TensorSystem",
    "Tolerances",
    "UcpSpectrahedron",
    "UniquenessResult",
    "VerificationError",
    "WedderburnData",
    "analyze_pair",
    "analyze_system",
    "block_images",
    "boundary_representations",
    "corpus_entries",
    "cstar_envelope",
    "falsify_complete_isometry",
    "generated_cstar",
    "hermitian_basis",
    "hs_inner",
    "hs_norm",
    "is_boundary_ideal_ucp",
    "is_unique_ucp_extension",
    "kernel_of_tensor_quotients",
    "load_system",
    "min_tensor",
    "op_norm",
    "opsys_from_generators",
    "opsys_of",
    "product_blocks",
    "product_span",
    "propagation_number",
    "quotient_map",
    "silov_ideal_dk",
    "silov_ideal_lattice",
    "span_of",
    "spec_digest",
    "standard_pairs",
    "subspace_contains",
    "subspace_equal",
    "subspace_intersection",
    "subspace_kron",
    "ucp_feasibility",
    "verify_boundary_pair_closure",
    "verify_envelope_tensor_factorization",
    "verify_power_compatibility",
    "verify_propagation_max",
    "wedderburn_decompose",
    "write_corpus",
    "__version__",
]
