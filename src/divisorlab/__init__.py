"""divisorlab: exact and analytic study of the divisor-square summatory sum.

Modules:
    sieve    exact prefix sums by mu * D_j; one factorization sieve call
    zeta     multiprecision zeta, Stieltjes constants, functional equation
    series   main-term residue coefficients from three-term Taylor jets
    zeros    zero-table ingestion and explicit-formula coefficients
    formula  explicit-formula assembly and error reports
    perron   contour quadrature verification
    cli      command-line interface
"""

__version__ = "0.1.0"
