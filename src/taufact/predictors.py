"""Closed-form predictions for order-4 quotients.

Each of the four order-4 quotient classes admits closed forms for which
elements are tau-atomic and which atomic-factorization lengths occur, as a
function of the prime-class census of the element.  This module maps the
quotient onto the model ring of its class, counts primes per residue role,
and evaluates the closed forms.  The map is the first of the 24 bijections,
listing the quotient's residues in sort-key order, that carries the
model's product and sum tables onto the quotient's; a residue's role is
the printed model residue it maps to ("0", "1", "2", "3" or "0", "1", "x",
"x+1").  Where the model has an automorphism (F4, Z2X_X2PX), role x thus
goes to the smaller residue.  Everything here is
cross-validated against the enumeration oracle by the verify suites; facts
marked ``derived`` in a profile are exactly the ones the oracle, not the
closed form, is authoritative for.

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

from .errors import InternalCheckFailed, WrongIsoClass
from .poly import Poly
from .quotient import (
    CayleyTable,
    Ideal,
    IsoClass,
    Residue,
    cayley_table,
    classify,
    find_primes_in_class,
    order4_table,
    reduce,
    residue_add,
    unit_classes,
)
from .rings import Element, FactoredElement, Ring, build_factored, expand

CANONICAL_IDEALS = {
    IsoClass.Z4: Ideal(Ring.Z, 4),
    IsoClass.Z2X_X2P1: Ideal(Ring.ZX, 2, Poly((1, 0, 1))),
    IsoClass.F4: Ideal(Ring.ZX, 2, Poly((1, 1, 1))),
    IsoClass.Z2X_X2PX: Ideal(Ring.ZX, 2, Poly((0, 1, 1))),
}

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


def _tables(table: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """Product and sum tables as indices into ``table.residues``, row-major."""
    residues = table.residues
    index = {r: i for i, r in enumerate(residues)}
    return (
        tuple(k for row in table.product for k in row),
        tuple(index[residue_add(a, b)] for a in residues for b in residues),
    )


# The model rings never change, so their tables are built once, at import.
_MODELS = {cls: cayley_table(ideal) for cls, ideal in CANONICAL_IDEALS.items()}
_MODEL_TABLES = {cls: _tables(model) for cls, model in _MODELS.items()}


def build_iso_map(ideal: Ideal) -> IsoMap:
    """The isomorphism onto the model ring of the quotient's class: the
    first bijection, in sort-key order of the quotient's residues, that
    carries the model's product and sum tables onto the quotient's.  The
    role of a residue is the printed form of its model residue.  On order
    4 the counting order of residues is their sort-key order."""
    table = order4_table(ideal)
    _, cls = classify(table)
    if cls not in _MODELS:
        raise WrongIsoClass(f"cannot build an isomorphism for {cls.value}")
    ours, model = table.residues, _MODELS[cls].residues
    our_tables, model_tables = _tables(table), _MODEL_TABLES[cls]
    for image in itertools.permutations(range(4)):  # model index -> our index
        if all(
            image[theirs[4 * i + j]] == mine[4 * image[i] + image[j]]
            for mine, theirs in zip(our_tables, model_tables)
            for i, j in itertools.product(range(4), repeat=2)
        ):
            return IsoMap(cls, {ours[image[i]]: str(m) for i, m in enumerate(model)})
    raise InternalCheckFailed(f"no bijection carries the tables of ({ideal}) onto {cls.value}")


@dataclass(frozen=True)
class Census:
    """Prime multiplicities of an element in the four residue roles, under
    the class's own (k, l, m, n) convention."""

    k: int
    l: int
    m: int
    n: int

    @property
    def total(self) -> int:
        return self.k + self.l + self.m + self.n


def class_census(fe: FactoredElement, ideal: Ideal, iso: IsoMap) -> Census:
    counts = {role: 0 for role in iso.roles}
    for prime, exp in fe.factors:
        counts[iso.role_of(reduce(prime, ideal))] += exp
    return Census(*counts.values())


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


def predict_zx_x2p1(census: Census, unit_in_x_class: bool) -> PredictedProfile:
    """Closed form for quotients isomorphic to Z[x]/(2, x^2+1): the x+1 class
    is the nilpotent zero-divisor and plays the role class 2 plays in Z/4Z."""
    if census.n >= 1:
        if census.m > census.n:
            return PredictedProfile(Atomicity.NOT_ATOMIC, derived=("atomic-guard",))
        return _atomic({census.n}, derived=("atomic-guard",))
    if census.m >= 1:
        return _atomic({census.m})
    if unit_in_x_class:
        return _atomic({census.k + census.l})
    if census.l >= 1:
        return _atomic({census.l})
    return _atomic({census.k})


def predict_f4(
    census: Census,
    unit_classes_count: int,
    primes_in_both_xr_classes: bool,
) -> PredictedProfile:
    """Closed form for quotients isomorphic to the field of four elements.

    With units in every nonzero class the prime factorization itself
    splits completely.  Otherwise atoms in the zero class carry exactly one
    zero-class prime; away from the zero class, x- and x+1-class primes can
    only annihilate in pairs, so an element using both classes is atomic
    exactly when it uses them equally, each identity-class prime standing
    alone.
    """
    if unit_classes_count == 3:
        return _atomic({census.total})
    if not primes_in_both_xr_classes and census.m >= 1 and census.n >= 1:
        raise ValueError(
            "census uses both the x and x+1 classes, but the ring was "
            "declared to have primes in only one of them"
        )
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
    """Per-ideal facts the predictors need: the isomorphism, which roles
    contain units of the ring, and whether bounded search finds primes in
    both the x and x+1 classes."""

    ideal: Ideal
    iso: IsoMap
    unit_roles: frozenset[str]
    primes_in_both_xr: bool

    def census(self, fe: FactoredElement) -> Census:
        return class_census(fe, self.ideal, self.iso)

    def element_role(self, fe: FactoredElement) -> str:
        return self.iso.role_of(reduce(expand(fe), self.ideal))

    def predict(self, fe: FactoredElement) -> PredictedProfile:
        census = self.census(fe)
        cls = self.iso.iso_class
        if cls is IsoClass.Z4:
            return predict_z4(census, self.element_role(fe))
        if cls is IsoClass.Z2X_X2P1:
            return predict_zx_x2p1(census, "x" in self.unit_roles)
        if cls is IsoClass.F4:
            return predict_f4(census, len(self.unit_roles), self.primes_in_both_xr)
        if cls is IsoClass.Z2X_X2PX:
            return predict_zx_x2px(census)
        raise WrongIsoClass(f"no predictor for {cls.value}")


def prediction_context(ideal: Ideal, bound: int = 50) -> PredictionContext:
    iso = build_iso_map(ideal)
    unit_roles = frozenset(iso.role_of(u) for u in unit_classes(ideal))
    both = iso.iso_class is not IsoClass.Z4 and all(
        next(find_primes_in_class(ideal, iso.residue_of(role), bound), None) is not None
        for role in ("x", "x+1")
    )
    return PredictionContext(ideal, iso, unit_roles, both)

