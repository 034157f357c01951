"""divisorlab: exact and analytic study of the divisor-square summatory sum.

Modules:
    sieve    exact prefix sums by mu * D_j; one factorization sieve call
    zeta     multiprecision and float64 zeta, Stieltjes constants
    series   main-term residues from three cached zeta jets, one evaluator
    zeros    zero-table ingestion and explicit-formula coefficients
    formula  explicit-formula assembly and error reports
    perron   contour quadrature verification
    cli      command-line interface

``lazy_import`` binds numpy in sieve, zeta, perron and formula, and mpmath
and the five computation modules in cli: each runs at the first attribute
access, so ``sum`` and ``--help`` never load mpmath, and the
multiprecision-only subcommands never load numpy.  DEFAULT_PRECISION and
MODES, which the CLI's parser reads, are defined here so that building the
parser loads neither zeta nor series.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Working precision in bits of every computation except `constants`.
DEFAULT_PRECISION = 128

#: The main-term coefficient modes (see series).
MODES = ("paper", "exact")


def lazy_import(name: str):
    """The module `name`, run at its first attribute access (the LazyLoader
    recipe of the importlib docs), or as it is if it is already imported.
    A submodule is also bound on its package, as an import binds it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module
