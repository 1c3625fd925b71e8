import pytest
from hypothesis import given, strategies as st

from taufact.errors import (
    NotPrime,
    RingMismatch,
    UnsupportedDegree,
    ZeroElement,
    ZeroOrUnitInput,
)
from taufact.poly import Poly
from taufact.rings import (
    Element,
    Ring,
    build_factored,
    canonical_associate,
    expand,
    is_prime_int,
    is_unit,
    verify_prime,
)

Z = Ring.Z
ZX = Ring.ZX
X = Element.polynomial(Poly.x())
XP1 = Element.polynomial(Poly((1, 1)))


def test_is_unit():
    assert is_unit(Element.integer(-1))
    assert is_unit(Element.integer(1))
    assert not is_unit(Element.integer(2))
    assert not is_unit(X)
    assert is_unit(Element.polynomial(Poly((-1,))))


def test_unit_group_is_exactly_plus_minus_one():
    constants = [Element.polynomial(Poly.constant(n)) for n in range(-6, 7) if n != 0]
    assert [u for u in constants if is_unit(u)] == [
        Element.polynomial(Poly.constant(-1)),
        Element.polynomial(Poly.constant(1)),
    ]
    sample = [Element.integer(n) for n in range(-6, 7) if n != 0]
    assert [u for u in sample if is_unit(u)] == [
        Element.integer(-1),
        Element.integer(1),
    ]


def test_element_ring_guard():
    with pytest.raises(RingMismatch):
        Element(Z, Poly((1,)))
    with pytest.raises(RingMismatch):
        Element(ZX, 3)
    with pytest.raises(RingMismatch):
        Element.integer(2) * X


def test_canonical_associate():
    assert canonical_associate(Element.integer(-7)) == (-1, Element.integer(7))
    assert canonical_associate(Element.polynomial(Poly((-1, -1)))) == (-1, XP1)
    assert canonical_associate(Element.integer(5)) == (1, Element.integer(5))
    with pytest.raises(ZeroElement):
        canonical_associate(Element.integer(0))


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_canonical_associate_idempotent(n):
    unit, canon = canonical_associate(Element.integer(n))
    assert Element.integer(unit * n) == canon
    again = canonical_associate(canon)
    assert again == (1, canon)


def test_is_prime_int():
    primes = [p for p in range(2, 60) if is_prime_int(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime_int(91)  # 7 * 13
    assert is_prime_int(999983)


def test_verify_prime_examples():
    assert verify_prime(XP1)
    assert not verify_prime(Element.polynomial(Poly((0, 1, 1))))  # x(x+1)
    assert not verify_prime(Element.integer(91))
    assert verify_prime(Element.integer(2))
    assert verify_prime(Element.polynomial(Poly((1, 0, 1))))  # x^2+1
    assert not verify_prime(Element.polynomial(Poly((2, 2))))  # content 2
    assert verify_prime(Element.polynomial(Poly((3, 2))))  # 2x+3, content 1
    assert not verify_prime(Element.polynomial(Poly((-4, 0, 1))))  # (x-2)(x+2)


def test_verified_primes_have_no_nonunit_divisors():
    for n in range(2, 400):
        brute = all(n % d for d in range(2, n))
        assert verify_prime(Element.integer(n)) == brute


def test_verify_prime_guards():
    with pytest.raises(ZeroOrUnitInput):
        verify_prime(Element.integer(1))
    with pytest.raises(ZeroOrUnitInput):
        verify_prime(Element.integer(0))
    quartic = Element.polynomial(Poly((1, 1, 0, 0, 1)))
    with pytest.raises(UnsupportedDegree):
        verify_prime(quartic)
    # the registry bypasses verification
    assert verify_prime(quartic, registry=frozenset({Poly((1, 1, 0, 0, 1))}))


def test_build_factored_examples():
    fe = build_factored(Z, 1, [(Element.integer(2), 2), (Element.integer(7), 1)])
    assert fe.unit == 1
    assert fe.factors == ((Element.integer(2), 2), (Element.integer(7), 1))

    fe = build_factored(ZX, 1, [(Element.polynomial(Poly((-1, -1))), 1)])
    assert fe.unit == -1
    assert fe.factors == ((XP1, 1),)

    with pytest.raises(NotPrime):
        build_factored(Z, 1, [(Element.integer(4), 1)])


def test_build_factored_merges_and_orders():
    fe = build_factored(
        Z,
        1,
        [(Element.integer(7), 1), (Element.integer(-2), 1), (Element.integer(2), 1)],
    )
    assert fe.unit == -1
    assert fe.factors == ((Element.integer(2), 2), (Element.integer(7), 1))

    fe = build_factored(ZX, 1, [(XP1, 1), (X, 1)])
    assert [p for p, _ in fe.factors] == [X, XP1]


def test_build_factored_guards():
    with pytest.raises(ZeroOrUnitInput):
        build_factored(Z, 1, [(Element.integer(1), 1)])
    with pytest.raises(ZeroOrUnitInput):
        build_factored(Z, 2, [(Element.integer(3), 1)])
    with pytest.raises(RingMismatch):
        build_factored(Z, 1, [(X, 1)])
    with pytest.raises(ValueError):
        build_factored(Z, 1, [(Element.integer(3), 0)])


def test_expand():
    fe = build_factored(Z, -1, [(Element.integer(2), 2), (Element.integer(7), 1)])
    assert expand(fe) == Element.integer(-28)
    fe = build_factored(ZX, 1, [(X, 1), (XP1, 1)])
    assert expand(fe) == Element.polynomial(Poly((0, 1, 1)))
    assert expand(build_factored(Z, 1, [])) == Element.integer(1)


@given(
    st.lists(
        st.tuples(st.sampled_from([2, 3, 5, 7, -2, -3, -5]), st.integers(1, 3)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1, -1]),
)
def test_expand_matches_raw_product(parts, unit):
    raw = unit
    for base, exp in parts:
        raw *= base**exp
    fe = build_factored(Z, unit, [(Element.integer(b), e) for b, e in parts])
    assert expand(fe) == Element.integer(raw)


def test_verify_prime_agrees_with_sympy_up_to_degree_three():
    """A primitive polynomial is prime in Z[x] exactly when it is
    irreducible over Q, which is what ``sympy.factor_list`` decides."""
    import itertools
    import math

    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    checked = 0
    for degree in (1, 2, 3):
        for lower in itertools.product(range(-2, 3), repeat=degree):
            for lead in (-2, -1, 1, 2):
                coeffs = (*lower, lead)
                if math.gcd(*coeffs) != 1:
                    continue
                expr = sum(c * x**i for i, c in enumerate(coeffs))
                _, factors = sympy.factor_list(expr)
                irreducible = len(factors) == 1 and factors[0][1] == 1
                elem = Element.polynomial(Poly(coeffs))
                assert verify_prime(elem) == irreducible, coeffs
                checked += 1
    assert checked > 500
