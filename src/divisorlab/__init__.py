"""divisorlab: exact and analytic study of the divisor-square summatory sum.

Modules:
    sieve    exact prefix sums by mu * D_j; one factorization sieve call
    zeta     multiprecision and float64 zeta, Stieltjes constants
    series   main-term residues from three cached zeta jets, one evaluator
    zeros    zero-table ingestion and explicit-formula coefficients
    formula  explicit-formula assembly and error reports
    perron   contour quadrature verification
    cli      command-line interface
"""

__version__ = "0.1.0"
