"""Certified upper bounds and exact desk-scale verification for set
families with modular restrictions on differences, intersections, and
Hamming distances."""

from .bounds import (
    BinomSum,
    BoundCertificate,
    SeparationFailure,
    best_bound,
    binom_sum,
    bound_from_seppoly,
)
from .closure import (
    ClosedPairCensus,
    IntervalL,
    closure_length_bound,
    count_closed_pairs,
    is_q_closed,
    q_closure,
)
from .families import (
    CheckResult,
    ConstraintSpec,
    Kind,
    SearchResult,
    SetFamily,
    format_family,
    max_family,
    parse_family,
    push_to_middle,
    satisfies,
)
from .padic import (
    INFINITY,
    PrimePower,
    is_prime,
    lucas_nondivisible,
    to_digits,
    vp,
    vp_binomial,
    vp_factorial,
)
from .polylab import (
    ProofSystem,
    RankReport,
    build_diff_sperner_system,
    build_midband_system,
    verify_independence,
)
from .seppoly import (
    FactoredIntPoly,
    SeparationReport,
    check_separation,
    degree_upper_bound,
    min_valuation_over_class,
    search_min_degree,
    separates,
)

__version__ = "0.1.0"
