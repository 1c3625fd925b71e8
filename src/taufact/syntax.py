"""Text syntax shared between the library and the CLI.

Polynomials: terms like ``x^2``, ``3*x``, ``x`` and integer constants joined
by ``+``/``-``; whitespace is ignored.  Ideals: ``"m"`` or ``"m, g"``.
Prime specs: ``"p1:e1, p2:e2"`` with elements in the polynomial syntax
(``:e`` may be omitted for exponent 1).
"""

from __future__ import annotations

import re

from .errors import ParseError
from .poly import Poly
from .rings import Element, Ring

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(x)(?:\^(\d+))?$|^(\d+)$")


def parse_int(text: str) -> int:
    text = text.strip()
    if not re.fullmatch(r"-?\d+", text):
        raise ParseError(f"not an integer: {text!r}")
    return int(text)


def parse_poly(text: str) -> Poly:
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty polynomial")
    # Normalize to explicitly signed terms, then split.
    if compact[0] not in "+-":
        compact = "+" + compact
    tokens = re.findall(r"[+-][^+-]+", compact)
    if "".join(tokens) != compact:
        raise ParseError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for token in tokens:
        sign = -1 if token[0] == "-" else 1
        body = token[1:]
        m = _TERM_RE.match(body)
        if not m:
            raise ParseError(f"bad term {body!r} in polynomial {text!r}")
        if m.group(4) is not None:
            coeffs[0] = coeffs.get(0, 0) + sign * int(m.group(4))
        else:
            coefficient = int(m.group(1)) if m.group(1) else 1
            power = int(m.group(3)) if m.group(3) else 1
            coeffs[power] = coeffs.get(power, 0) + sign * coefficient
    size = max(coeffs) + 1 if coeffs else 0
    out = [0] * size
    for power, c in coeffs.items():
        out[power] = c
    return Poly(tuple(out))


def parse_element(text: str, ring: Ring) -> Element:
    if ring is Ring.Z:
        return Element.integer(parse_int(text))
    return Element.polynomial(parse_poly(text))


def parse_ideal(text: str, ring: Ring):
    from .quotient import Ideal

    pieces = text.split(",", 1)
    try:
        modulus = parse_int(pieces[0])
    except ParseError:
        raise ParseError(f"ideal modulus must be an integer: {text!r}")
    if modulus < 0:
        raise ParseError(f"ideal modulus must be nonnegative: {text!r}")
    if len(pieces) == 1:
        return Ideal(ring, modulus)
    if ring is Ring.Z:
        raise ParseError("ideals over Z take no polynomial generator")
    return Ideal(ring, modulus, parse_poly(pieces[1]))


def parse_primes_spec(text: str, ring: Ring) -> list[tuple[Element, int]]:
    parts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty entry in primes spec {text!r}")
        if ":" in chunk:
            elem_text, exp_text = chunk.rsplit(":", 1)
            exponent = parse_int(exp_text)
            if exponent < 1:
                raise ParseError(f"exponent must be positive in {chunk!r}")
        else:
            elem_text, exponent = chunk, 1
        parts.append((parse_element(elem_text, ring), exponent))
    if not parts:
        raise ParseError("primes spec is empty")
    return parts


def render_primes_spec(parts) -> str:
    return ", ".join(f"{elem}:{exp}" for elem, exp in parts)
