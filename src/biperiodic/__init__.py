"""Exact engine for bi-periodic Fibonacci and Lucas sequences.

Terms can be computed three independent ways (plain recurrence,
generating-matrix powers, Binet closed form over a quadratic extension),
and a catalog of inter-term identities can be machine-verified over
parameter grids in exact rational arithmetic.
"""
from .binet import (
    DegenerateDiscriminantError,
    EigenDecomposition,
    RootPair,
    binet_fib,
    binet_lucas,
    eigen_decompose,
    roots,
)
from .exact import (
    DiscriminantMismatchError,
    Mat2,
    QuadExt,
    Rational,
    SingularMatrixError,
    format_rational,
    mat_pow,
    mat_pow_counted,
    parse_rational,
)
from .genmatrix import (
    ClosedForm,
    det_power,
    generating_matrix,
    matrix_power,
    matrix_power_counted,
    power_closed_form,
    term_fast,
    term_fast_counted,
)
from .identities import (
    DEFAULT_RANGES,
    STANDARD_VALUES,
    Counterexample,
    ExcludedPoint,
    Expectation,
    IdentityId,
    IdentityReport,
    ParityMismatchError,
    addition_eval,
    cassini_fib,
    cassini_lucas,
    evaluate,
    expectation,
    report_matches_expectation,
    subtraction_eval,
    verify_default,
    verify_grid,
)
from .sequences import (
    PRESET_CLASSICAL,
    PRESET_K_LUCAS,
    SeqParams,
    SequenceKind,
    TermTable,
    parity,
    preset,
    term_recurrence,
)

__version__ = "0.1.0"
