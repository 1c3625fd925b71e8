"""Dense polynomials with exact integer coefficients.

``Poly`` stores coefficients low degree first: ``coeffs[i]`` is the
coefficient of x**i.  The stored tuple never ends in a zero; the zero
polynomial is the empty tuple.  Coefficients are ordinary Python ints, so
all arithmetic is exact at any magnitude.

``convolve`` multiplies two coefficient sequences; ``Poly.__mul__`` and
the residue arithmetic of ``taufact.quotient`` both use it.  The only
division the package needs is by a monic generator, and only its remainder:
that lives with the residues in ``taufact.quotient``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(map(int, self.coeffs))
        n = len(cs)
        while n and cs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

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
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other) -> Poly:
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(convolve(self.coeffs, other.coeffs))

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


def convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the product of two polynomials given by their
    coefficients, low degree first; empty if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return out


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
