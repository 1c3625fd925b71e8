"""Exact tau-factorization toolkit for Z and Z[x] modulo an ideal.

A tau-factorization of a nonzero nonunit a is a = lambda * b1 * ... * bk
with lambda a unit and all bi pairwise congruent modulo a fixed ideal.
This package enumerates them exhaustively from exact factored inputs,
computes exact elasticity (max over min atomic length), decides
tau-atomhood (an element is a tau-atom when ``elasticity`` counts one
factorization), classifies the order-4 quotients of Z and Z[x], and
evaluates closed-form predictions per quotient class against the
enumeration oracle.
"""

__version__ = "0.1.0"

from .engine import EnumerationBudget, TauFactorization, elasticity, enumerate_tau_factorizations
from .poly import Poly
from .predictors import prediction_context, sequence_element
from .quotient import Ideal, cayley_table, classify, find_primes_in_class, reduce
from .rings import Element, FactoredElement, Ring, build_factored, expand, load_registry
from .syntax import parse_element, parse_ideal, parse_primes_spec, render_primes_spec
