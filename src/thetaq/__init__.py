"""Exact q-series engine for theta-function product identities and
mixed ternary representation counts."""

from .series import (
    CoefficientOverflowError,
    EqualityReport,
    HalfPowerSeries,
    TruncationError,
)
from .theta import (
    ExpansionError,
    NormalizedTheta,
    ThetaArg,
    jacobi_triple_product,
    theta_dissection,
    theta_expand,
    theta_normalize,
    theta_special,
)
from .identity import (
    IdentityEntry,
    IdentityReport,
    PairParams,
    ThetaProduct,
    TripleParams,
    instantiate_corollary,
    load_identity_catalog,
    pair_lhs,
    pair_rhs,
    triple_lhs,
    triple_rhs,
    validate_pair,
    validate_triple,
    verify_corollary,
    verify_pair,
    verify_triple,
)
from .repcount import (
    REGISTRY,
    FigurateKind,
    MixedSumSpec,
    count_enumerate,
    count_series,
    count_table,
    figurate_values,
    nonrep_scan,
    registry_lookup,
)
from .relations import (
    CLASSICAL_IDS,
    ClassicalReport,
    CountRef,
    Counterexample,
    RelationStatement,
    ScanStatement,
    classical_check,
    load_relation_catalog,
    load_scan_catalog,
    verify_relation,
)

__version__ = "0.1.0"
