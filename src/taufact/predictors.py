"""Closed-form predictions for order-4 quotients.

Each of the four order-4 quotient classes admits closed forms for which
elements are tau-atomic and which atomic-factorization lengths occur, as a
function of the prime-class census of the element.  This module maps the
quotient onto the model ring of its class, counts primes per residue role,
and evaluates the closed forms.  The map is the one that decides the
class, ``quotient.model_bijection``: the first of the 24 bijections,
listing the quotient's residues in sort-key order, that carries the
model's product and sum tables onto the quotient's; a residue's role is
the printed model residue it maps to ("0", "1", "2", "3" or "0", "1", "x",
"x+1").  Where the model has an automorphism (F4, Z2X_X2PX), role x thus
goes to the smaller residue.

The predictors read only the census (``predict_z4`` also reads the
element's role).  The units of Z and Z[x] are +-1, so they lie in role 1,
or in roles 1 and 3 for Z4, on every presentation; the closed forms for
other unit groups are left out.  Everything here is cross-validated
against the enumeration oracle by the verify suites; facts marked
``derived`` in a profile are exactly the ones the oracle, not the closed
form, is authoritative for.

Census conventions (k, l, m, n) per class:

    Z4        k: role 1,  l: role 2,  m: role 3,    n: role 0
    Z2X_X2P1  k: role 1,  l: role x,  m: role x+1,  n: role 0
    Z2X_X2PX  k: role 1,  l: role x,  m: role x+1,  n: role 0
    F4        k: role 0,  l: role 1,  m: role x,    n: role x+1
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import InternalCheckFailed, NoWitnessPrime, NotOrderFour
from .poly import Poly
from .quotient import (
    MODELS, Ideal, IsoClass, Residue, cayley_table, find_primes_in_class, model_bijection, reduce,
)
from .rings import Element, FactoredElement, Ring, build_factored, expand

_CENSUS_ROLES = {
    IsoClass.Z4: ("1", "2", "3", "0"),
    IsoClass.Z2X_X2P1: ("1", "x", "x+1", "0"),
    IsoClass.Z2X_X2PX: ("1", "x", "x+1", "0"),
    IsoClass.F4: ("0", "1", "x", "x+1"),
}


class IsoMap:
    """Residue -> model-role assignment for an order-4 quotient."""

    __slots__ = ("iso_class", "_role_of", "_residue_of")

    def __init__(self, iso_class: IsoClass, role_of: dict):
        self.iso_class = iso_class
        self._role_of = role_of
        self._residue_of = {role: res for res, role in role_of.items()}

    def role_of(self, residue: Residue) -> str:
        return self._role_of[residue]

    def residue_of(self, role: str) -> Residue:
        return self._residue_of[role]

    @property
    def roles(self) -> tuple[str, ...]:
        """The four roles in the class's (k, l, m, n) census order."""
        return _CENSUS_ROLES[self.iso_class]


def build_iso_map(ideal: Ideal) -> IsoMap:
    """The isomorphism onto the model ring of the quotient's class, as
    ``model_bijection`` finds it.  The role of a residue is the printed
    form of its model residue.  On order 4 the counting order of residues
    is their sort-key order."""
    if not ideal.is_finite_quotient or ideal.quotient_size != 4:
        raise NotOrderFour(f"quotient by ({ideal}) does not have order 4")
    table = cayley_table(ideal)
    cls, image = model_bijection(table)
    if cls is IsoClass.OTHER:
        raise InternalCheckFailed(f"no model ring's tables carry onto those of ({ideal})")
    return IsoMap(cls, {table.residues[image[i]]: str(r) for i, r in enumerate(MODELS[cls].residues)})


@dataclass(frozen=True)
class Census:
    """Prime multiplicities of an element in the four residue roles, under
    the class's own (k, l, m, n) convention."""

    k: int
    l: int
    m: int
    n: int


class Atomicity(enum.Enum):
    ATOMIC = "atomic"
    NOT_ATOMIC = "not-atomic"
    NO_CLOSED_FORM = "no-closed-form"


@dataclass(frozen=True)
class PredictedProfile:
    atomicity: Atomicity
    lengths: Optional[frozenset[int]] = None
    elasticity: Optional[Fraction] = None
    derived: tuple[str, ...] = field(default=())


def _atomic(lengths: set[int], derived: tuple[str, ...] = ()) -> PredictedProfile:
    ls = frozenset(lengths)
    return PredictedProfile(
        Atomicity.ATOMIC, ls, Fraction(max(ls), min(ls)), derived
    )


_NOT_ATOMIC = PredictedProfile(Atomicity.NOT_ATOMIC)
_NO_CLOSED_FORM = PredictedProfile(Atomicity.NO_CLOSED_FORM)


def predict_z4(census: Census, a_class: str) -> PredictedProfile:
    """Closed form for quotients isomorphic to Z/4Z.

    Products in class 2 are atoms outright; units exist in classes 1 and 3,
    so elements there split into single primes; elements in the zero class
    factor through their zero-class primes (each atom holds exactly one,
    plus at most one class-2 prime) or, lacking those, through their class-2
    primes one per atom.
    """
    if a_class == "2":
        return _atomic({1})
    if a_class in ("1", "3"):
        return _atomic({census.k + census.m})
    if a_class == "0":
        if census.n >= 1:
            if census.l > census.n:
                return PredictedProfile(
                    Atomicity.NOT_ATOMIC, derived=("atomic-guard",)
                )
            return _atomic({census.n}, derived=("atomic-guard",))
        return _atomic({census.l})
    raise ValueError(f"unknown residue role {a_class!r}")


def predict_zx_x2p1(census: Census) -> PredictedProfile:
    """Closed form for quotients isomorphic to Z[x]/(2, x^2+1): the x+1 class
    is the nilpotent zero-divisor and plays the role class 2 plays in Z/4Z."""
    if census.n >= 1:
        if census.m > census.n:
            return PredictedProfile(Atomicity.NOT_ATOMIC, derived=("atomic-guard",))
        return _atomic({census.n}, derived=("atomic-guard",))
    if census.m >= 1:
        return _atomic({census.m})
    if census.l >= 1:
        return _atomic({census.l})
    return _atomic({census.k})


def predict_f4(census: Census) -> PredictedProfile:
    """Closed form for quotients isomorphic to the field of four elements.

    Atoms in the zero class carry exactly one zero-class prime; away from
    the zero class, x- and x+1-class primes can only annihilate in pairs,
    so an element using both classes is atomic exactly when it uses them
    equally, each identity-class prime standing alone.
    """
    if census.k >= 1:
        return _atomic({census.k})
    if census.m == 0 or census.n == 0:
        longest = max(census.m, census.n)
        return _atomic({longest if longest >= 1 else census.l})
    if census.m == census.n:
        return _atomic({census.l + census.m})
    return _NOT_ATOMIC


def predict_zx_x2px(census: Census) -> PredictedProfile:
    """Closed form for quotients isomorphic to Z[x]/(2, x^2+x), the one
    class with elasticity above 1.

    Outside the ideal all factorizations share one length.  Inside it, with
    no zero-class primes, atoms hold exactly one x-class or one x+1-class
    prime each: the shortest split has length 2, the longest min(l, m), and
    every length between is realizable; min(l, m) = 1 leaves the element an
    atom.  Mixing zero-class primes into an ideal element has no closed
    form here and is left to the oracle.
    """
    if census.n == 0 and (census.l == 0 or census.m == 0):
        longest = max(census.l, census.m)
        return _atomic({longest if longest >= 1 else census.k})
    if census.n == 0:
        shortest_side = min(census.l, census.m)
        if shortest_side == 1:
            return _atomic({1})
        return _atomic(
            set(range(2, shortest_side + 1)), derived=("length-interval",)
        )
    return _NO_CLOSED_FORM


def sequence_element(i: int) -> FactoredElement:
    """The factored element x^i (x+1)^i in Z[x]."""
    if i < 1:
        raise ValueError("index must be >= 1")
    x, x_plus_1 = Element.polynomial(Poly.x()), Element.polynomial(Poly((1, 1)))
    return build_factored(Ring.ZX, 1, [(x, i), (x_plus_1, i)])


@dataclass
class PredictionContext:
    """An order-4 ideal with its isomorphism onto the model ring.  The
    predictors read only an element's census (and, for Z4, its role);
    ``bound`` limits the search for witness primes of each role."""

    ideal: Ideal
    iso: IsoMap
    bound: int

    def census(self, fe: FactoredElement) -> Census:
        counts = {role: 0 for role in self.iso.roles}
        for prime, exp in fe.factors:
            counts[self.iso.role_of(reduce(prime, self.ideal))] += exp
        return Census(*counts.values())

    def predict(self, fe: FactoredElement, census: Optional[Census] = None) -> PredictedProfile:
        """The closed-form profile of fe; ``census``, when given, is fe's
        census, so a caller that needs both reduces each prime once."""
        if census is None:
            census = self.census(fe)
        cls = self.iso.iso_class
        if cls is IsoClass.Z4:
            return predict_z4(census, self.iso.role_of(reduce(expand(fe), self.ideal)))
        if cls is IsoClass.Z2X_X2P1:
            return predict_zx_x2p1(census)
        if cls is IsoClass.F4:
            return predict_f4(census)
        return predict_zx_x2px(census)

    def witnesses(self) -> dict[str, list[Element]]:
        """The first three primes below the bound in each role."""
        pools = {}
        for role in self.iso.roles:
            target = self.iso.residue_of(role)
            pool = list(itertools.islice(find_primes_in_class(self.ideal, target, self.bound), 3))
            if not pool:
                raise NoWitnessPrime(f"no witness prime below bound {self.bound} in class {target}")
            pools[role] = pool
        return pools


def prediction_context(ideal: Ideal, bound: int = 50) -> PredictionContext:
    return PredictionContext(ideal, build_iso_map(ideal), bound)
