"""Exact tau-factorization toolkit for Z and Z[x] modulo an ideal.

A tau-factorization of a nonzero nonunit a is a = lambda * b1 * ... * bk
with lambda a unit and all bi pairwise congruent modulo a fixed ideal.
This package enumerates them exhaustively from exact factored inputs,
decides tau-atomhood, computes exact elasticity (max over min atomic
length), classifies the order-4 quotients of Z and Z[x], and evaluates
closed-form predictions per quotient class against the enumeration oracle.
"""

__version__ = "0.1.0"

from .engine import (
    DEFAULT_BUDGET,
    ElasticityReport,
    EnumerationBudget,
    TauFactorization,
    elasticity,
    enumerate_tau_factorizations,
    is_tau_atom,
)
from .errors import TaufactError
from .partitions import vector_partitions
from .poly import Poly, divmod_monic
from .predictors import (
    Atomicity,
    Census,
    IsoMap,
    PredictedProfile,
    PredictionContext,
    build_iso_map,
    class_census,
    predict_f4,
    predict_z4,
    predict_zx_x2p1,
    predict_zx_x2px,
    prediction_context,
    sequence_element,
)
from .quotient import (
    CayleyTable,
    Ideal,
    IsoClass,
    QuotientFingerprint,
    Residue,
    cayley_table,
    classify,
    classify_order4,
    congruent,
    enumerate_residues,
    find_prime_in_class,
    find_primes_in_class,
    quotient_fingerprint,
    reduce,
    unit_classes,
)
from .rings import (
    Element,
    FactoredElement,
    Ring,
    build_factored,
    canonical_associate,
    expand,
    is_unit,
    load_registry,
    verify_prime,
)
from .syntax import (
    parse_element,
    parse_ideal,
    parse_poly,
    parse_primes_spec,
    render_primes_spec,
)

