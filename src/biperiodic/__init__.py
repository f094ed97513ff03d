"""Exact engine for bi-periodic Fibonacci and Lucas sequences.

Terms can be computed three independent ways (plain recurrence,
generating-matrix powers, Binet closed form over a quadratic extension),
and a catalog of inter-term identities can be machine-verified over
parameter grids in exact rational arithmetic.

Importing the package loads no module: each exported name loads its own
module on first access (PEP 562), so a CLI command imports only what it runs.
"""
from importlib import import_module

#: module -> the names it exports here
_EXPORTS = {
    "binet": "DegenerateDiscriminantError EigenDecomposition RootPair binet_fib binet_lucas "
             "eigen_decompose roots",
    "exact": "DiscriminantMismatchError Mat2 QuadExt Rational SingularMatrixError format_rational "
             "mat_pow mat_pow_counted parse_rational",
    "genmatrix": "ClosedForm det_power generating_matrix matrix_power matrix_power_counted "
                 "power_closed_form term_fast term_fast_counted",
    "identities": "DEFAULT_RANGES STANDARD_VALUES Counterexample ExcludedPoint Expectation IdentityId "
                  "IdentityReport ParityMismatchError addition_eval cassini_fib cassini_lucas evaluate "
                  "expectation report_matches_expectation subtraction_eval verify_default verify_grid",
    "sequences": "PRESET_CLASSICAL PRESET_K_LUCAS SeqParams SequenceKind TermTable parity preset "
                 "term_recurrence",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
