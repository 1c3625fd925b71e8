import pytest

from taufact.errors import ParseError
from taufact.poly import Poly
from taufact.quotient import Ideal
from taufact.rings import Element, Ring
from taufact.syntax import (
    parse_element,
    parse_ideal,
    parse_poly,
    parse_primes_spec,
    render_primes_spec,
)


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x^2+x", (0, 1, 1)),
        ("x", (0, 1)),
        ("3*x", (0, 3)),
        ("3x", (0, 3)),
        (" x^2 + x + 1 ", (1, 1, 1)),
        ("-x-1", (-1, -1)),
        ("7", (7,)),
        ("-7", (-7,)),
        ("x^3-2*x+5", (5, -2, 0, 1)),
        ("2*x^2+1", (1, 0, 2)),
        ("x+x", (0, 2)),
        ("0", ()),
    ],
)
def test_parse_poly(text, coeffs):
    assert parse_poly(text) == Poly(coeffs)


@pytest.mark.parametrize("bad", ["", "x^", "y+1", "x**2", "1+", "^2", "x^-1"])
def test_parse_poly_rejects(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_poly_round_trip():
    for coeffs in [(0, 1, 1), (-1, -1), (5,), (1, 0, 3), (), (0, -2, 0, 1)]:
        p = Poly(coeffs)
        assert parse_poly(str(p)) == p


def test_parse_ideal():
    assert parse_ideal("3", Ring.Z) == Ideal(Ring.Z, 3)
    assert parse_ideal("2, x^2+x", Ring.ZX) == Ideal(Ring.ZX, 2, Poly((0, 1, 1)))
    assert parse_ideal("0", Ring.Z) == Ideal(Ring.Z, 0)
    with pytest.raises(ParseError):
        parse_ideal("2, x^2+x", Ring.Z)
    with pytest.raises(ParseError):
        parse_ideal("x^2", Ring.Z)


def test_ideal_round_trip():
    for text, ring in [("3", Ring.Z), ("2, x^2+x", Ring.ZX), ("4, x", Ring.ZX)]:
        ideal = parse_ideal(text, ring)
        assert parse_ideal(str(ideal), ring) == ideal


def test_parse_primes_spec():
    parts = parse_primes_spec("x:3, x+1:3", Ring.ZX)
    assert parts == [
        (Element.polynomial(Poly((0, 1))), 3),
        (Element.polynomial(Poly((1, 1))), 3),
    ]
    assert parse_primes_spec("2:2, 5:1", Ring.Z) == [
        (Element.integer(2), 2),
        (Element.integer(5), 1),
    ]
    assert parse_primes_spec("7", Ring.Z) == [(Element.integer(7), 1)]
    with pytest.raises(ParseError):
        parse_primes_spec("2:0", Ring.Z)
    with pytest.raises(ParseError):
        parse_primes_spec("", Ring.Z)


def test_primes_spec_round_trip():
    parts = parse_primes_spec("x:3, x+1:2", Ring.ZX)
    assert parse_primes_spec(render_primes_spec(parts), Ring.ZX) == parts


def test_parse_element():
    assert parse_element("-7", Ring.Z) == Element.integer(-7)
    assert parse_element("x+1", Ring.ZX) == Element.polynomial(Poly((1, 1)))
