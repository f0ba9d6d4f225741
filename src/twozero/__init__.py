"""Two-zero p-ary cyclic codes: exact construction and weight distributions.

Given an odd prime p and positive integers m, k with m/gcd(m, k) >= 3, the
package builds the cyclic code of length p**m - 1 whose parity-check
polynomial is the product of the minimal polynomials of -pi**(-1) and
pi**(-(p**k+1)/2), evaluates the underlying exponential character sums
exactly in Z[zeta_p], and computes the code's weight distribution by three
independent engines (direct enumeration, character-sum evaluation, and the
closed-form S distribution), cross-verifying them against each other.
"""

from .codes import (
    CyclicCode,
    WeightDistribution,
    build_code,
    code_report,
    codeword,
    codeword_weight,
    codeword_weight_via_sums,
    weight_distribution_brute,
    weight_distribution_closed,
    weight_distribution_sums,
)
from .errors import (
    BothZero,
    BudgetExceeded,
    DegreeTooLarge,
    DistinctnessViolated,
    DivisionByZero,
    InexactDivision,
    InternalInconsistency,
    NonIntegralWeight,
    NonRationalSum,
    NotADivisor,
    NotOddPrime,
    ParameterError,
    Refusal,
    STooSmall,
    TwoZeroError,
    UnsupportedCase,
    ZeroArgument,
)
from .expsums import (
    CyclotomicInteger,
    IdentityCheck,
    SymbolicSumValue,
    ValueDistribution,
    count_e1,
    count_e2,
    gauss_sum,
    s_census_direct,
    s_census_fast,
    s_direct,
    s_distribution_closed,
    s_fast,
    subfield_gauss_sum,
    t_census_direct,
    t_census_fast,
    t_direct,
    t_distribution_closed,
    t_fast,
    t_value,
    verify_power_identities,
)
from .gf import FiniteField, Polynomial, build_field, v2
from .quadforms import (
    Case,
    CodeParams,
    RankCensus,
    classify_parameters,
    closed_rank_census,
    diagonalize,
    gram_matrix,
    phi,
    psi,
    rank,
    rank_census,
    twist_pair,
)

__version__ = "0.1.0"
