"""Ideals, canonical residues and finite quotient structure.

Supported ideal shapes are (m) over ZZ and (m, g) over ZZ[x] with g monic.
Reduction to a canonical residue is then elementary: divide by g exactly
(monic long division keeps everything in ZZ[x]) and take every coefficient
mod m.  Two elements are congruent iff their canonical residues coincide,
and for m >= 2 with g present the quotient is finite with m**deg(g)
residues, which is enough to build the full Cayley table.

``cayley_table`` is the one place that computes the structure of a finite
quotient: residues in counting order (zero and one first) and the product
table as indices into them.  Order-4 quotients are classified by cheap
fingerprint counts read off that table (the characteristic, which is the
modulus m, squares equal to zero or to themselves, and invertibility),
which separate the four isomorphism classes without any isomorphism search.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InfiniteQuotient, NonMonicGenerator, NotOrderFour, RingMismatch
from .poly import Poly, divmod_monic
from .rings import Element, Ring, constant, is_prime_int, verify_prime


@dataclass(frozen=True)
class Ideal:
    ring: Ring
    modulus: int
    generator: Optional[Poly] = None

    def __post_init__(self):
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")
        if self.ring is Ring.Z and self.generator is not None:
            raise ValueError("ideals over Z carry no polynomial generator")
        if self.generator is not None:
            if self.generator.degree < 1 or not self.generator.is_monic:
                raise NonMonicGenerator(f"generator must be monic of degree >= 1, got {self.generator}")

    @property
    def is_finite_quotient(self) -> bool:
        if self.modulus < 2:
            return False
        return self.ring is Ring.Z or self.generator is not None

    @property
    def quotient_size(self) -> int:
        if not self.is_finite_quotient:
            raise InfiniteQuotient(f"quotient by ({self}) is not finite")
        if self.ring is Ring.Z:
            return self.modulus
        return self.modulus ** self.generator.degree

    def __str__(self) -> str:
        if self.generator is None:
            return str(self.modulus)
        return f"{self.modulus}, {self.generator}"


@dataclass(frozen=True)
class Residue:
    ideal: Ideal
    rep: object

    def __str__(self) -> str:
        return str(self.rep)


def reduce(e: Element, ideal: Ideal) -> Residue:
    """Canonical residue of e modulo the ideal.

    m = 0 means the degenerate ideal where congruence is equality.  The map
    is a ring homomorphism onto the quotient.
    """
    if e.ring is not ideal.ring:
        raise RingMismatch(f"element ring {e.ring.value} does not match ideal ring {ideal.ring.value}")
    if ideal.ring is Ring.Z:
        rep = e.value % ideal.modulus if ideal.modulus else e.value
        return Residue(ideal, rep)
    p = e.value
    if ideal.generator is not None:
        _, p = divmod_monic(p, ideal.generator)
    if ideal.modulus:
        p = Poly(tuple(c % ideal.modulus for c in p.coeffs))
    return Residue(ideal, p)


def congruent(a: Element, b: Element, ideal: Ideal) -> bool:
    if a.ring is not b.ring:
        raise RingMismatch("cannot compare elements of different rings")
    return reduce(a, ideal) == reduce(b, ideal)


def residue_mul(a: Residue, b: Residue) -> Residue:
    if a.ideal != b.ideal:
        raise RingMismatch("residues belong to different ideals")
    return reduce(Element(a.ideal.ring, a.rep * b.rep), a.ideal)


def residue_add(a: Residue, b: Residue) -> Residue:
    if a.ideal != b.ideal:
        raise RingMismatch("residues belong to different ideals")
    return reduce(Element(a.ideal.ring, a.rep + b.rep), a.ideal)


def enumerate_residues(ideal: Ideal) -> tuple[Residue, ...]:
    """All canonical residues in deterministic counting order: the lowest
    coefficient varies fastest, so zero and one come first."""
    if not ideal.is_finite_quotient:
        raise InfiniteQuotient(f"cannot enumerate residues of ({ideal})")
    m = ideal.modulus
    if ideal.ring is Ring.Z:
        return tuple(Residue(ideal, n) for n in range(m))
    return tuple(
        Residue(ideal, Poly(digits[::-1]))
        for digits in itertools.product(range(m), repeat=ideal.generator.degree)
    )


@dataclass(frozen=True)
class CayleyTable:
    ideal: Ideal
    residues: tuple[Residue, ...]
    product: tuple[tuple[int, ...], ...]


def cayley_table(ideal: Ideal) -> CayleyTable:
    residues = enumerate_residues(ideal)
    index = {r: i for i, r in enumerate(residues)}
    rows = tuple(
        tuple(index[residue_mul(a, b)] for b in residues)
        for a in residues
    )
    return CayleyTable(ideal, residues, rows)


@dataclass(frozen=True)
class QuotientFingerprint:
    size: int
    characteristic: int
    nilpotent_count: int
    idempotent_count: int
    unit_count: int


def quotient_fingerprint(table: CayleyTable) -> QuotientFingerprint:
    """Fingerprint counts of the quotient, read off its product table.

    (Z/m)[x]/(g) with g monic is free over Z/m, so the additive order of 1
    is m; zero and one sit at indices 0 and 1 of the counting order."""
    squares = [row[i] for i, row in enumerate(table.product)]
    nilpotent = squares.count(0)
    idempotent = sum(1 for i, sq in enumerate(squares) if sq == i)
    units = sum(1 for row in table.product if 1 in row)
    return QuotientFingerprint(len(table.residues), table.ideal.modulus, nilpotent, idempotent, units)


class IsoClass(enum.Enum):
    Z4 = "Z4"
    Z2X_X2P1 = "Z2X_X2P1"
    F4 = "F4"
    Z2X_X2PX = "Z2X_X2PX"
    OTHER = "Other"


def order4_table(ideal: Ideal) -> CayleyTable:
    """The Cayley table of a quotient of order 4; any other order is refused."""
    if not ideal.is_finite_quotient or ideal.quotient_size != 4:
        raise NotOrderFour(f"quotient by ({ideal}) does not have order 4")
    return cayley_table(ideal)


def classify_order4(ideal: Ideal) -> IsoClass:
    """Assign one of the four order-4 ring classes from the fingerprint."""
    return classify(order4_table(ideal))[1]


def _order4_class(fp: QuotientFingerprint) -> IsoClass:
    if fp.characteristic == 4:
        return IsoClass.Z4
    if fp.unit_count == 3:
        return IsoClass.F4
    if fp.nilpotent_count == 2:
        return IsoClass.Z2X_X2P1
    if fp.idempotent_count == 4:
        return IsoClass.Z2X_X2PX
    return IsoClass.OTHER


def classify(table: CayleyTable) -> tuple[QuotientFingerprint, IsoClass]:
    """Fingerprint plus class of the quotient with this product table;
    quotients of order != 4 classify as Other."""
    fp = quotient_fingerprint(table)
    cls = _order4_class(fp) if fp.size == 4 else IsoClass.OTHER
    return fp, cls


def unit_classes(ideal: Ideal) -> frozenset[Residue]:
    """Residues that contain a unit of the ring, i.e. classes of 1 and -1."""
    if not ideal.is_finite_quotient:
        raise InfiniteQuotient(f"quotient by ({ideal}) is not finite")
    plus = reduce(constant(ideal.ring, 1), ideal)
    minus = reduce(constant(ideal.ring, -1), ideal)
    return frozenset((plus, minus))


def find_primes_in_class(ideal: Ideal, target: Residue, bound: int = 50) -> Iterator[Element]:
    """Yield verified primes whose residue is ``target``, in deterministic
    search order, until the bounded search space is exhausted.

    ZZ: primes ascending to the bound.  ZZ[x]: degree-0 primes first, then
    monic polynomials of degree 1..3 with the other coefficients running
    over [-bound, bound] by ascending magnitude.
    """
    if not ideal.is_finite_quotient:
        raise InfiniteQuotient(f"cannot search prime classes of ({ideal})")
    if target.ideal != ideal:
        raise RingMismatch("target residue belongs to a different ideal")
    for n in range(2, bound + 1):
        if is_prime_int(n):
            cand = constant(ideal.ring, n)
            if reduce(cand, ideal) == target:
                yield cand
    if ideal.ring is Ring.Z:
        return
    magnitudes = sorted(range(-bound, bound + 1), key=lambda c: (abs(c), c < 0))
    for degree in (1, 2, 3):
        for tail in itertools.product(magnitudes, repeat=degree):
            # tail holds coefficients from degree-1 down to the constant term
            coeffs = tuple(reversed(tail)) + (1,)
            cand = Element.polynomial(Poly(coeffs))
            if reduce(cand, ideal) != target:
                continue
            if verify_prime(cand):
                yield cand
