"""divisorlab: exact and analytic study of the divisor-square summatory sum.

Modules:
    sieve    exact prefix sums by mu * D_j; one factorization sieve call
    zeta     multiprecision and float64 zeta, Stieltjes constants
    series   main-term residues from three cached zeta jets, one evaluator
    zeros    zero-table ingestion and explicit-formula coefficients
    formula  explicit-formula assembly and error reports
    perron   contour quadrature verification
    cli      command-line interface

``lazy_import`` binds numpy in sieve, zeta, perron and formula: numpy's own
import runs at the first attribute access, so the multiprecision-only
subcommands never load it.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def lazy_import(name: str):
    """The module `name`, run at its first attribute access (the LazyLoader
    recipe of the importlib docs), or as it is if it is already imported."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
