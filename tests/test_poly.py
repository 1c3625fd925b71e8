from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

from taufact.poly import Poly, has_rational_root
from taufact.quotient import remainder

X = Poly.x()
XP1 = Poly((1, 1))


def small_polys(max_degree=4, max_coeff=9):
    return st.builds(
        Poly,
        st.lists(
            st.integers(min_value=-max_coeff, max_value=max_coeff),
            max_size=max_degree + 1,
        ).map(tuple),
    )


def monic_polys(max_degree=3, max_coeff=5):
    return st.lists(
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        min_size=1,
        max_size=max_degree,
    ).map(lambda tail: Poly(tuple(tail) + (1,)))


def add(a, b):
    """The coefficient-wise sum, to check products and remainders against."""
    return Poly(tuple(x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)))


def test_normalization_trims_leading_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly(()).is_zero
    assert Poly((0, 0)).degree == -1


def test_mul_examples():
    assert X * XP1 == Poly((0, 1, 1))
    assert Poly(()) * XP1 == Poly(())
    assert XP1 * XP1 == Poly((1, 2, 1))


def test_mul_degree_adds():
    a = Poly((3, 0, 2))
    b = Poly((-1, 4))
    assert (a * b).degree == a.degree + b.degree


def divmod_reference(a, g):
    """Schoolbook long division by a monic g, quotient kept: a == q*g + r."""
    dg = g.degree
    rem = list(a.coeffs)
    if len(rem) <= dg:
        return Poly(()), a
    quot = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        quot[i - dg] = c
        for j, gc in enumerate(g.coeffs):
            rem[i - dg + j] -= c * gc
    return Poly(tuple(quot)), Poly(tuple(rem[:dg]))


def test_divmod_monic_examples():
    g = Poly((0, 1, 1)).coeffs
    assert remainder([0, 0, 0, 1], g, 0) == X
    assert remainder(list(XP1.coeffs), g, 0) == XP1
    assert remainder([0, 1, 1], g, 0) == Poly(())
    assert remainder([3, 5, 7], None, 2) == Poly((1, 1, 1))
    assert remainder([4, -6], None, 2) == Poly(())


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * add(b, c) == add(a * b, a * c)


@given(small_polys(), monic_polys())
def test_divmod_round_trip(a, g):
    r = remainder(list(a.coeffs), g.coeffs, 0)
    assert r.degree < g.degree
    assert remainder(list(add(a, -r).coeffs), g.coeffs, 0).is_zero


@given(small_polys(max_degree=2), monic_polys())
def test_divmod_recovers_quotient_and_remainder(a, g):
    r = Poly(a.coeffs[: g.degree])
    assert remainder(list(add(a * g, r).coeffs), g.coeffs, 0) == r


@given(small_polys(max_degree=6), monic_polys(), st.integers(0, 6))
def test_remainder_agrees_with_long_division(a, g, m):
    q, r = divmod_reference(a, g)
    assert add(q * g, r) == a
    expected = Poly(tuple(c % m for c in r.coeffs)) if m else r
    assert remainder(list(a.coeffs), g.coeffs, m) == expected
    assert remainder(list(a.coeffs), None, m) == (Poly(tuple(c % m for c in a.coeffs)) if m else a)


def test_content():
    assert Poly((2, 4, 6)).content == 2
    assert Poly((3, 5)).content == 1
    assert Poly(()).content == 0


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((1, 0, 1), False),  # x^2 + 1
        ((-2, 0, 1), False),  # x^2 - 2
        ((-4, 0, 1), True),  # (x-2)(x+2)
        ((0, 1, 1), True),  # x(x+1)
        ((2, 1, 1), False),  # x^2 + x + 2
        ((6, 5, 1), True),  # (x+2)(x+3)
        ((-1, 0, 0, 2), False),  # 2x^3 - 1
        ((1, 1, 0, 2), False),  # 2x^3 + x + 1: candidates ±1, ±1/2 all miss
        ((-1, 1, 1, 2), True),  # (2x-1)(x^2+x+1) has root 1/2
    ],
)
def test_rational_root(coeffs, expected):
    assert has_rational_root(Poly(coeffs)) == expected


def test_str_round_shapes():
    assert str(Poly((0, 1, 1))) == "x^2+x"
    assert str(Poly((-1, -1))) == "-x-1"
    assert str(Poly((5,))) == "5"
    assert str(Poly((1, 0, 3))) == "3*x^2+1"
    assert str(Poly(())) == "0"


def test_sort_key_orders_by_degree_then_leading_coeffs():
    assert Poly((2,)).sort_key < X.sort_key
    assert X.sort_key < XP1.sort_key
    assert Poly((2, 1)).sort_key < Poly((0, 2)).sort_key  # x+2 before 2x
