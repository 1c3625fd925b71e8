"""Ideals, canonical residues and finite quotient structure.

Supported ideal shapes are (m) over ZZ and (m, g) over ZZ[x] with g monic.
Reduction to a canonical residue is then elementary: divide by g exactly
(monic long division keeps everything in ZZ[x]) and take every coefficient
mod m; ``remainder`` does both in one pass over a coefficient list and
keeps no quotient.  Two elements are congruent iff their canonical residues
coincide, and for m >= 2 with g present the quotient is finite with
m**deg(g) residues, which is enough to build the full Cayley table.

``residue_ops`` gives the product and the negation of residues modulo one
ideal, chosen once per ideal.  Over ZZ[x] both take and give canonical
``Poly`` representatives, not ``Residue`` values: inside one call the ideal
never changes, so the counting kernel keeps its residues bare, and
``Residue`` is built only by ``reduce``, ``cayley_table`` and the listing's
table.  The product convolves the two representatives' coefficients and
takes the remainder once, and the negation negates each coefficient mod m:
a canonical representative has degree < deg g, and so has its negation.
Neither builds an intermediate ``Poly`` or ``Element``.  Over ZZ both still
take and give ``Residue`` values through ``reduce``, as before: plain
integer arithmetic there waits for ROADMAP item 1, which first changes how
the benchmark bills its own time against the kernel's.

``cayley_table`` is the one place that computes the structure of a finite
quotient: residues in counting order (zero and one first) and the product
and sum tables as indices into them.  Residue i has the base-m digits of i
as its coefficients, constant term lowest, so both tables come from the
Z/m-linear structure by index arithmetic, without residue arithmetic.
An order-4 quotient's class is the model ring whose product and sum tables
a bijection carries onto the quotient's (``model_bijection``); only models
of the quotient's characteristic, which is the modulus m, are tried.
Fingerprint counts read off the product table (the characteristic, squares
equal to zero or to themselves, and invertibility) are reported beside it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import BudgetExceeded, InfiniteQuotient, NonMonicGenerator, RingMismatch
from .poly import Poly, convolve
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


def remainder(coeffs: list[int], g: Optional[tuple[int, ...]], m: int) -> Poly:
    """The polynomial with these coefficients, low degree first, modulo
    (m, g): the remainder of long division by the monic g (no division when
    g is None), then every coefficient mod m (kept when m = 0).  The list is
    used up."""
    if g is not None:
        d = len(g) - 1
        low = g[:d]
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if c:
                # coeffs[i] itself cancels against g's leading 1
                for j, gc in enumerate(low, i - d):
                    coeffs[j] -= c * gc
        del coeffs[d:]
    if m:
        coeffs = [c % m for c in coeffs]
    return Poly(coeffs)


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
    g = ideal.generator.coeffs if ideal.generator is not None else None
    return Residue(ideal, remainder(list(e.value.coeffs), g, ideal.modulus))


def residue_ops(ideal: Ideal) -> tuple[Callable, Callable]:
    """The product and the negation of residues modulo the ideal; the
    ring's arm is chosen here, once, not per residue.  Over ZZ both take
    and give ``Residue`` values of the ideal, over ZZ[x] their canonical
    ``Poly`` representatives (``reduce(e, ideal).rep``)."""
    if ideal.ring is Ring.Z:
        # Through ``reduce`` on purpose (module docstring, ROADMAP item 1).
        def mul(a: Residue, b: Residue) -> Residue:
            return reduce(Element(Ring.Z, a.rep * b.rep), ideal)

        def neg(r: Residue) -> Residue:
            return reduce(-Element(Ring.Z, r.rep), ideal)

        return mul, neg
    g = ideal.generator.coeffs if ideal.generator is not None else None
    m = ideal.modulus

    def mul(a: Poly, b: Poly) -> Poly:
        return remainder(convolve(a.coeffs, b.coeffs), g, m)

    def neg(r: Poly) -> Poly:
        # deg(-r) = deg r < deg g: only the coefficients need reducing
        return remainder([-c for c in r.coeffs], None, m)

    return mul, neg


MAX_TABLE_CELLS = 5_000_000  # as many as the default kernel step budget


@dataclass(frozen=True)
class CayleyTable:
    ideal: Ideal
    residues: tuple[Residue, ...]
    product: tuple[tuple[int, ...], ...]
    sum: tuple[tuple[int, ...], ...]


def cayley_table(ideal: Ideal) -> CayleyTable:
    """Residues in counting order, with the product and sum tables as
    indices into them.  A quotient of order n is refused, before anything
    is built, when its n * n cells exceed ``MAX_TABLE_CELLS``.

    Residue i of (Z/m)[x]/(g), g monic of degree d, has the d base-m digits
    of i as its coefficients, constant term lowest; Z/m is the case g = x.
    A sum is the digit-wise sum mod m.  Multiplication by a is Z/m-linear,
    so row a lists c_0*a + c_1*(a*x) + ... + c_{d-1}*(a*x^(d-1)) for every
    index with digits c_0, c_1, ..., built from the sum table."""
    n = ideal.quotient_size
    if n * n > MAX_TABLE_CELLS:
        raise BudgetExceeded(f"{n * n} table cells exceed the budget of {MAX_TABLE_CELLS}")
    m = ideal.modulus
    low = ideal.generator.coeffs[:-1] if ideal.generator is not None else (0,)
    weights = [m**k for k in range(len(low))]
    if ideal.ring is Ring.Z:
        residues = tuple(Residue(ideal, i) for i in range(n))
    else:
        residues = tuple(Residue(ideal, Poly(tuple(i // w % m for w in weights))) for i in range(n))
    sums = []
    for a in range(n):
        row = [0]
        for w in weights:
            row = [(a // w + c) % m * w + u for c in range(m) for u in row]
        sums.append(tuple(row))
    products = []
    for a in range(n):
        row, image = [0], [a // w % m for w in weights]  # digits of a*x^j
        for _ in weights:
            multiples = [sum(c * e % m * w for e, w in zip(image, weights)) for c in range(m)]
            row = [sums[s][u] for s in multiples for u in row]
            # times x: shift one place up, then subtract top * g
            image = [((image[k - 1] if k else 0) - image[-1] * g) % m for k, g in enumerate(low)]
        products.append(tuple(row))
    return CayleyTable(ideal, residues, tuple(products), tuple(sums))


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


# The model rings never change, so their tables are built once, at import.
MODELS = {
    IsoClass.Z4: cayley_table(Ideal(Ring.Z, 4)),
    IsoClass.Z2X_X2P1: cayley_table(Ideal(Ring.ZX, 2, Poly((1, 0, 1)))),
    IsoClass.F4: cayley_table(Ideal(Ring.ZX, 2, Poly((1, 1, 1)))),
    IsoClass.Z2X_X2PX: cayley_table(Ideal(Ring.ZX, 2, Poly((0, 1, 1)))),
}


def model_bijection(table: CayleyTable) -> tuple[IsoClass, tuple[int, ...]]:
    """The first model ring, with the first bijection in counting order,
    that carries the model's product and sum tables onto the table's:
    ``image[i]`` is the table index of model residue i.  Only models of the
    table's characteristic (its modulus) are tried.  A table of order != 4,
    or one that no model fits, gives (Other, ())."""
    if len(table.residues) == 4:
        for cls, model in MODELS.items():
            if model.ideal.modulus != table.ideal.modulus:
                continue  # the characteristic, an invariant, differs
            for image in itertools.permutations(range(4)):
                if all(
                    image[theirs[i][j]] == mine[image[i]][image[j]]
                    for mine, theirs in ((table.product, model.product), (table.sum, model.sum))
                    for i, j in itertools.product(range(4), repeat=2)
                ):
                    return cls, image
    return IsoClass.OTHER, ()


def classify(table: CayleyTable) -> tuple[QuotientFingerprint, IsoClass]:
    """Fingerprint plus class of the quotient with these tables; quotients
    of order != 4 classify as Other."""
    return quotient_fingerprint(table), model_bijection(table)[0]


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
