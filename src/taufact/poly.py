"""Dense polynomials with exact integer coefficients.

``Poly`` stores coefficients low degree first: ``coeffs[i]`` is the
coefficient of x**i.  The stored tuple never ends in a zero; the zero
polynomial is the empty tuple.  Coefficients are ordinary Python ints, so
all arithmetic is exact at any magnitude.

Division is deliberately restricted to monic divisors (``divmod_monic``),
which keeps quotient and remainder inside ZZ[x] and is the only division
the rest of the package needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NonMonicDivisor


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> Poly:
        return cls((c,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def constant_coefficient(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[0]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def evaluate(self, point):
        """Exact evaluation via Horner; accepts int or Fraction."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    @property
    def sort_key(self) -> tuple:
        """Total order: by degree, then coefficients from leading down."""
        return (self.degree, tuple(reversed(self.coeffs)))

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coefficient(power)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                xpart = "x" if power == 1 else f"x^{power}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += sign + body
        return text


def divmod_monic(a: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Exact division of a by a monic g over ZZ: a == q*g + r, deg r < deg g."""
    if not g.is_monic:
        raise NonMonicDivisor(f"divisor must be monic, got {g}")
    dg = g.degree
    rem = list(a.coeffs)
    if len(rem) <= dg:
        return Poly(()), a
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dg] = c
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] -= c * gc
    return Poly(tuple(quot)), Poly(tuple(rem[:dg]))


def has_rational_root(p: Poly) -> bool:
    """Rational-root test: candidates are ±(divisors of the constant term)
    over (divisors of the leading coefficient)."""
    if p.is_zero:
        return True
    if p.constant_coefficient == 0:
        return p.degree >= 1
    num_divs = _divisors(abs(p.constant_coefficient))
    den_divs = _divisors(abs(p.leading_coefficient))
    for num in num_divs:
        for den in den_divs:
            cand = Fraction(num, den)
            if p.evaluate(cand) == 0 or p.evaluate(-cand) == 0:
                return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
