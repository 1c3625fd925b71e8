"""Elements of the two supported unique factorization domains.

The package works over ZZ and ZZ[x].  Both have unit group {+1, -1}, so a
canonical associate always exists: the positive integer, or the polynomial
with positive leading coefficient.  ``FactoredElement`` is a unit together
with a multiset of verified primes in canonical-associate form, the exact
factored representation every enumeration below consumes.

Primality is decided directly: trial division for integers; for
polynomials, content-1 plus the rational-root criterion up to degree 3.
Primitive polynomials of degree 4 and beyond are out of reach of that test
and must be whitelisted through the trusted registry (one polynomial per
line, see ``load_registry``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

from .errors import (
    NotPrime, ParseError, RingMismatch, UnsupportedDegree, ZeroElement, ZeroOrUnitInput,
)
from .poly import Poly, has_rational_root


class Ring(enum.Enum):
    Z = "z"
    ZX = "zx"


@dataclass(frozen=True)
class Element:
    ring: Ring
    value: object

    def __post_init__(self):
        if self.ring is Ring.Z:
            if not isinstance(self.value, int):
                raise RingMismatch(f"Z element must hold an int, got {type(self.value).__name__}")
        else:
            if not isinstance(self.value, Poly):
                raise RingMismatch(f"Z[x] element must hold a Poly, got {type(self.value).__name__}")

    @classmethod
    def integer(cls, n: int) -> Element:
        return cls(Ring.Z, n)

    @classmethod
    def polynomial(cls, p: Poly) -> Element:
        return cls(Ring.ZX, p)

    @property
    def is_zero(self) -> bool:
        if self.ring is Ring.Z:
            return self.value == 0
        return self.value.is_zero

    @property
    def sort_key(self) -> tuple:
        if self.ring is Ring.Z:
            return (0, self.value)
        return self.value.sort_key

    def __mul__(self, other: Element) -> Element:
        if not isinstance(other, Element):
            return NotImplemented
        if self.ring is not other.ring:
            raise RingMismatch("cannot multiply elements of different rings")
        return Element(self.ring, self.value * other.value)

    def __neg__(self) -> Element:
        return Element(self.ring, -self.value)

    def __str__(self) -> str:
        return str(self.value)


def constant(ring: Ring, n: int) -> Element:
    """The integer n as an element of the ring."""
    return Element(ring, n) if ring is Ring.Z else Element(ring, Poly.constant(n))


def is_unit(e: Element) -> bool:
    """True exactly for 1 and -1 (constant ±1 polynomials in ZZ[x])."""
    if e.ring is Ring.Z:
        return e.value in (1, -1)
    return e.value.coeffs in ((1,), (-1,))


def canonical_associate(e: Element) -> tuple[int, Element]:
    """Return (unit, canonical) with canonical == unit * e and canonical
    positive (positive leading coefficient for polynomials)."""
    if e.is_zero:
        raise ZeroElement("zero has no canonical associate")
    if e.ring is Ring.Z:
        lead = e.value
    else:
        lead = e.value.leading_coefficient
    if lead > 0:
        return 1, e
    return -1, -e


def is_prime_int(n: int) -> bool:
    """Trial division up to sqrt(n)."""
    n = abs(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    top = isqrt(n)
    while d <= top:
        if n % d == 0:
            return False
        d += 2
    return True


def verify_prime(e: Element, registry: frozenset = frozenset()) -> bool:
    """Decide primality of e in its ring.

    ZZ: trial division.  ZZ[x]: degree 0 reduces to integer primality;
    degree >= 1 requires content 1, and irreducibility over QQ is decided by
    the rational-root criterion for degrees up to 3.  Degree >= 4 primitive
    polynomials raise UnsupportedDegree unless whitelisted in ``registry``;
    the registry is never consulted for what the tests above decide.
    """
    if e.is_zero or is_unit(e):
        raise ZeroOrUnitInput("primality is undefined for zero and units")
    _, canon = canonical_associate(e)
    if canon.ring is Ring.Z:
        return is_prime_int(canon.value)
    p = canon.value
    if p.degree == 0:
        return is_prime_int(p.constant_coefficient)
    if p.content != 1:
        return False
    if p.degree == 1:
        return True
    if p.degree <= 3:
        return not has_rational_root(p)
    if p in registry:
        return True
    raise UnsupportedDegree(
        f"cannot decide primality of degree-{p.degree} polynomial {p}; "
        "add it to the trusted registry if it is known prime"
    )


@dataclass(frozen=True)
class FactoredElement:
    """A unit together with a multiset of canonical primes with exponents."""

    ring: Ring
    unit: int
    factors: tuple[tuple[Element, int], ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(exp for _, exp in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return str(self.unit)
        parts = []
        for prime, exp in self.factors:
            base = str(prime) if prime.ring is Ring.Z else f"({prime})"
            parts.append(base if exp == 1 else f"{base}^{exp}")
        body = " * ".join(parts)
        return body if self.unit == 1 else f"-1 * {body}"


def build_factored(ring: Ring, unit: int, parts, registry: frozenset = frozenset()) -> FactoredElement:
    """Canonicalize, verify and merge (element, exponent) pairs.

    Signs fold into the unit; equal primes merge into exponents; primes are
    ordered ascending (degree then leading-first coefficients for
    polynomials).  Raises NotPrime when verification fails.
    """
    if unit not in (1, -1):
        raise ZeroOrUnitInput(f"unit must be +1 or -1, got {unit}")
    # Every factor lies in ``ring``, so equal primes merge by value, which
    # hashes without the ring: each entry maps a value to (prime, exponent).
    merged: dict = {}
    for elem, exp in parts:
        if elem.ring is not ring:
            raise RingMismatch(f"factor {elem} does not belong to {ring.value}")
        if exp < 1:
            raise ValueError(f"exponent must be positive, got {exp}")
        if elem.is_zero or is_unit(elem):
            raise ZeroOrUnitInput(f"factor must be a nonzero nonunit, got {elem}")
        sign, canon = canonical_associate(elem)
        if sign == -1 and exp % 2 == 1:
            unit = -unit
        if not verify_prime(canon, registry):
            raise NotPrime(canon)
        _, seen = merged.get(canon.value, (canon, 0))
        merged[canon.value] = (canon, seen + exp)
    ordered = tuple(sorted(merged.values(), key=lambda item: item[0].sort_key))
    return FactoredElement(ring, unit, ordered)


def expand(fe: FactoredElement) -> Element:
    """Exact product unit * prod(prime**exponent)."""
    acc = constant(fe.ring, 1)
    for prime, exp in fe.factors:
        for _ in range(exp):
            acc = acc * prime
    if fe.unit == -1:
        acc = -acc
    return acc


def load_registry(path: str) -> frozenset:
    """Read the trusted prime registry: one polynomial per line in the
    shared text syntax; blank lines and #-comments are skipped.

    Only primitive polynomials of degree >= 4 may be listed; an entry that
    ``verify_prime`` decides itself, or that does not parse, raises
    ParseError naming its line, and an unreadable file one naming the path.
    """
    from .syntax import parse_poly

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read registry {path!r}: {exc}") from exc
    entries = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            p = parse_poly(line)
        except ParseError as exc:
            raise ParseError(f"registry line {lineno}: {exc}") from exc
        if p.degree <= 3 or p.content != 1:
            raise ParseError(
                f"registry line {lineno}: {line!r} is not a primitive polynomial "
                "of degree >= 4; its primality is decided without the registry"
            )
        if p.leading_coefficient < 0:
            p = -p
        entries.add(p)
    return frozenset(entries)
