"""Read a listing's rows as factorizations.

``enumerate_tau_factorizations`` returns rows of block ranks into a table
of distinct blocks.  ``items`` reads each row back as an ``Item``: the
unit lambda, one ``FactoredElement`` per block (built from the block's
multiplicity vector over the element's factors), the sign witness, and
the block atom flags and products the table holds, in block order.  An
``Item`` has the fields ``assert_factorization_sound`` reads.
"""

from math import prod
from typing import NamedTuple

from taufact.engine import DEFAULT_BUDGET, enumerate_tau_factorizations
from taufact.rings import Element, FactoredElement


class Item(NamedTuple):
    lam: int
    blocks: tuple[FactoredElement, ...]
    signs: tuple[int, ...]
    atomic: tuple[bool, ...]
    products: tuple[Element, ...]

    @property
    def length(self) -> int:
        return len(self.blocks)


def item(listing, fe, row):
    """One row of ``listing``, the tau-factorizations of ``fe``."""
    primes = [prime for prime, _ in fe.factors]
    signs = listing.signs(row)
    blocks = tuple(
        FactoredElement(fe.ring, 1, tuple((p, m) for p, m in zip(primes, listing.parts[k]) if m))
        for k in row
    )
    return Item(
        fe.unit * prod(signs),
        blocks,
        signs,
        tuple(listing.atomic[k] for k in row),
        tuple(listing.products[k] for k in row),
    )


def items(listing, fe):
    """Every row of ``listing``, in order."""
    return [item(listing, fe, row) for row in listing.rows]


def factorizations(fe, ideal, budget=DEFAULT_BUDGET):
    """The items of ``fe``'s listing modulo ``ideal`` under ``budget``."""
    return items(enumerate_tau_factorizations(fe, ideal, budget), fe)
