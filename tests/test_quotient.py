import ast
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taufact.errors import InfiniteQuotient, NonMonicGenerator, NotOrderFour, RingMismatch
from taufact.poly import Poly
from taufact.predictors import build_iso_map
from taufact.quotient import (
    Ideal,
    IsoClass,
    cayley_table,
    classify,
    find_primes_in_class,
    quotient_fingerprint,
    reduce,
    residue_ops,
)
from taufact.rings import Element, Ring, constant, verify_prime

X = Poly.x()
XP1 = Poly((1, 1))
I3 = Ideal(Ring.Z, 3)
I4 = Ideal(Ring.Z, 4)
I4X = Ideal(Ring.ZX, 4, X)
IX2P1 = Ideal(Ring.ZX, 2, Poly((1, 0, 1)))
IX2PX1 = Ideal(Ring.ZX, 2, Poly((1, 1, 1)))
IX2PX = Ideal(Ring.ZX, 2, Poly((0, 1, 1)))


def zx(coeffs):
    return Element.polynomial(Poly(coeffs))


def plus(ring, a, b):
    """The sum of two values of the ring as an element: the reference that
    the sum tables are checked against."""
    if ring is Ring.Z:
        return Element.integer(a + b)
    return zx(tuple(x + y for x, y in itertools.zip_longest(a.coeffs, b.coeffs, fillvalue=0)))


def test_ideal_guards():
    with pytest.raises(NonMonicGenerator):
        Ideal(Ring.ZX, 2, Poly((0, 2)))
    with pytest.raises(NonMonicGenerator):
        Ideal(Ring.ZX, 2, Poly((5,)))
    with pytest.raises(ValueError):
        Ideal(Ring.Z, 3, X)


def test_reduce_examples():
    assert reduce(Element.integer(7), I3).rep == 1
    assert reduce(zx((0, 0, 0, 1)), IX2PX).rep == X
    assert reduce(Element.integer(-7), I3).rep == 2


def test_reduce_degenerate_zero_ideal():
    I0 = Ideal(Ring.Z, 0)
    assert reduce(Element.integer(42), I0).rep == 42
    assert reduce(Element.integer(4), I0) == reduce(Element.integer(4), I0)
    assert reduce(Element.integer(4), I0) != reduce(Element.integer(7), I0)


def test_reduce_ring_guard():
    with pytest.raises(RingMismatch):
        reduce(zx((1,)), I3)


def test_congruent_examples():
    """Congruent elements are those with equal residues."""
    assert reduce(Element.integer(4), I3) == reduce(Element.integer(7), I3)
    assert reduce(zx((0, 1)), IX2PX) != reduce(zx((1, 1)), IX2PX)
    assert reduce(Element.integer(2), I3) == reduce(Element.integer(5), I3)


def test_enumerate_residues():
    assert [r.rep for r in cayley_table(IX2PX).residues] == [
        Poly(()),
        Poly((1,)),
        X,
        XP1,
    ]
    assert [r.rep for r in cayley_table(I4).residues] == [0, 1, 2, 3]
    assert len(cayley_table(Ideal(Ring.ZX, 3, Poly((1, 0, 1)))).residues) == 9


def test_enumerate_residues_infinite():
    with pytest.raises(InfiniteQuotient):
        cayley_table(Ideal(Ring.Z, 0))
    with pytest.raises(InfiniteQuotient):
        cayley_table(Ideal(Ring.ZX, 2))


def _table_cells(ideal):
    """Multiplication on the nonzero residues {1, x, x+1} as strings."""
    table = cayley_table(ideal)
    reps = ["1", "x", "x+1"]
    idx = {str(r): i for i, r in enumerate(table.residues)}
    return {
        (a, b): str(table.residues[table.product[idx[a]][idx[b]]]) for a in reps for b in reps
    }


def test_cayley_table_x2px():
    cells = _table_cells(IX2PX)
    assert cells[("x", "x")] == "x"
    assert cells[("x", "x+1")] == "0"
    assert cells[("x+1", "x+1")] == "x+1"
    assert cells[("1", "x")] == "x"


def test_cayley_table_x2p1():
    cells = _table_cells(IX2P1)
    assert cells[("x", "x")] == "1"
    assert cells[("x+1", "x+1")] == "0"
    assert cells[("x", "x+1")] == "x+1"


def test_cayley_table_x2px1():
    cells = _table_cells(IX2PX1)
    assert cells[("x", "x")] == "x+1"
    assert cells[("x", "x+1")] == "1"
    assert cells[("x+1", "x+1")] == "x"


def test_classify_four_ideals_distinct():
    classes = {
        classify(cayley_table(I4))[1],
        classify(cayley_table(IX2P1))[1],
        classify(cayley_table(IX2PX1))[1],
        classify(cayley_table(IX2PX))[1],
    }
    assert classes == {
        IsoClass.Z4,
        IsoClass.Z2X_X2P1,
        IsoClass.F4,
        IsoClass.Z2X_X2PX,
    }
    assert classify(cayley_table(I4X))[1] is IsoClass.Z4


def test_classify_order4_examples():
    assert classify(cayley_table(IX2PX))[1] is IsoClass.Z2X_X2PX
    assert classify(cayley_table(IX2PX1))[1] is IsoClass.F4


def test_classify_computes_one_fingerprint(monkeypatch):
    from taufact import quotient

    seen = []
    real = quotient.quotient_fingerprint

    def counting(table):
        seen.append(table)
        return real(table)

    monkeypatch.setattr(quotient, "quotient_fingerprint", counting)
    table = cayley_table(IX2PX)
    assert classify(table) == (real(table), IsoClass.Z2X_X2PX)
    assert seen == [table]


def _fingerprint_class(fp):
    """Reference rules: the four order-4 rings told apart by fingerprint
    counts alone, with no isomorphism search."""
    if fp.characteristic == 4:
        return IsoClass.Z4
    if fp.unit_count == 3:
        return IsoClass.F4
    if fp.nilpotent_count == 2:
        return IsoClass.Z2X_X2P1
    if fp.idempotent_count == 4:
        return IsoClass.Z2X_X2PX
    return IsoClass.OTHER


@pytest.mark.parametrize(
    "ideal",
    # every supported (m, g) shape with quotient size 4: degree-1 generators
    # over modulus 4 and all degree-2 generators over modulus 2, plus a few
    # with unreduced coefficients
    [Ideal(Ring.ZX, 4, Poly((c, 1))) for c in range(-3, 4)]
    + [Ideal(Ring.ZX, 2, Poly((c0, c1, 1))) for c0 in (0, 1) for c1 in (0, 1)]
    + [
        Ideal(Ring.ZX, 2, Poly((1, 2, 1))),  # == x^2+1 after coefficient reduction
        Ideal(Ring.ZX, 2, Poly((0, 3, 1))),  # == x^2+x
        Ideal(Ring.ZX, 2, Poly((-1, -2, 1))),
    ],
)
def test_every_order4_quotient_gets_a_named_class(ideal):
    fp, cls = classify(cayley_table(ideal))
    assert cls is not IsoClass.OTHER
    assert cls is _fingerprint_class(fp)


def test_classify_rejects_other_sizes():
    with pytest.raises(NotOrderFour):
        build_iso_map(I3)
    fp, cls = classify(cayley_table(Ideal(Ring.Z, 6)))
    assert fp.size == 6 and cls is IsoClass.OTHER


def _additive_order_of_one(ideal):
    """Reference characteristic: add 1 to itself until the sum is 0."""
    one = reduce(constant(ideal.ring, 1), ideal)
    zero = reduce(constant(ideal.ring, 0), ideal)
    order, acc = 1, one
    while acc != zero:
        acc = reduce(plus(ideal.ring, acc.rep, one.rep), ideal)
        order += 1
        assert order <= ideal.quotient_size
    return order


def _classify_plan():
    """The (ring, modulus, generator degree) shapes the benchmark's
    ``classify`` cases draw their ideals from."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLASSIFY_PLAN":
            return ast.literal_eval(node.value)
    raise LookupError("bench/workloads.py defines no CLASSIFY_PLAN")


def _shape_ideals():
    """Z/m for m = 2..30, and one ideal per monic generator with
    coefficients mod m for each Z[x] shape of the classify plan."""
    ideals = [Ideal(Ring.Z, m) for m in range(2, 31)]
    for ring, m, degree in sorted(set(_classify_plan())):
        if ring == "zx":
            ideals += [
                Ideal(Ring.ZX, m, Poly(tail + (1,)))
                for tail in itertools.product(range(m), repeat=degree)
            ]
    return ideals


def test_counting_order_starts_with_zero_and_one_and_char_is_modulus():
    ideals = _shape_ideals()
    assert {ideal.quotient_size for ideal in ideals} >= {4, 8, 9, 16, 25, 27, 49, 64, 125}
    for ideal in ideals:
        residues = cayley_table(ideal).residues
        assert residues[0] == reduce(constant(ideal.ring, 0), ideal)
        assert residues[1] == reduce(constant(ideal.ring, 1), ideal)
        assert _additive_order_of_one(ideal) == ideal.modulus


def test_fingerprint_counts():
    fp = quotient_fingerprint(cayley_table(IX2PX))
    assert (fp.size, fp.characteristic) == (4, 2)
    assert (fp.nilpotent_count, fp.idempotent_count, fp.unit_count) == (1, 4, 1)
    fp = quotient_fingerprint(cayley_table(I4))
    assert (fp.characteristic, fp.unit_count) == (4, 2)


def test_unit_classes():
    # The units of Z and Z[x] are 1 and -1; these are their residues.
    def unit_reps(ideal):
        return {str(reduce(constant(ideal.ring, u), ideal)) for u in (1, -1)}

    assert unit_reps(IX2PX) == {"1"}
    assert unit_reps(I3) == {"1", "2"}
    assert unit_reps(I4) == {"1", "3"}


def test_find_prime_in_class_examples():
    target = reduce(zx((0, 1)), IX2PX)
    assert next(find_primes_in_class(IX2PX, target), None) == zx((0, 1))
    target = reduce(zx((1, 1)), IX2PX)
    assert next(find_primes_in_class(IX2PX, target), None) == zx((1, 1))
    target = reduce(zx((2,)), I4X)
    assert next(find_primes_in_class(I4X, target), None) == zx((2,))


def test_find_prime_in_class_zero_class():
    target = reduce(zx((0,)), I4X)
    found = next(find_primes_in_class(I4X, target), None)
    assert found is not None
    assert reduce(found, I4X) == target
    assert verify_prime(found)


def test_find_prime_exhausted_budget():
    # no integer prime is congruent to 0 mod 4
    target = reduce(Element.integer(0), I4)
    assert next(find_primes_in_class(I4, target, bound=200), None) is None


def test_find_primes_are_verified_and_distinct():
    target = reduce(zx((1,)), IX2PX)
    found = list(itertools.islice(find_primes_in_class(IX2PX, target, 20), 3))
    assert len(found) == len(set(found)) == 3
    for p in found:
        assert verify_prime(p)
        assert reduce(p, IX2PX) == target


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
)
def test_reduce_is_multiplicative_z(a, b):
    ra = reduce(Element.integer(a), I4)
    rb = reduce(Element.integer(b), I4)
    assert reduce(Element.integer(a * b), I4) == residue_ops(I4)[0](ra, rb)


@given(
    st.lists(st.integers(-5, 5), max_size=4).map(tuple),
    st.lists(st.integers(-5, 5), max_size=4).map(tuple),
)
def test_reduce_is_multiplicative_zx(ca, cb):
    a, b = zx(ca), zx(cb)
    ra, rb = reduce(a, IX2PX), reduce(b, IX2PX)
    assert reduce(a * b, IX2PX) == residue_ops(IX2PX)[0](ra, rb)


_cached_table = functools.lru_cache(maxsize=32)(cayley_table)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([Ideal(Ring.Z, m) for m in range(2, 13)] + [I4X, IX2P1, IX2PX1, IX2PX]),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
)
def test_reduce_is_a_ring_homomorphism(ideal, ca, cb):
    if ideal.ring is Ring.Z:  # the value at x = 1
        a, b = Element.integer(sum(ca)), Element.integer(sum(cb))
    else:
        a, b = zx(ca), zx(cb)
    ra, rb = reduce(a, ideal), reduce(b, ideal)
    table = _cached_table(ideal)
    i, j = table.residues.index(ra), table.residues.index(rb)
    assert reduce(plus(ideal.ring, a.value, b.value), ideal) == table.residues[table.sum[i][j]]
    multiply, negate = residue_ops(ideal)
    assert reduce(a * b, ideal) == multiply(ra, rb)
    assert reduce(-a, ideal) == negate(ra)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([
        Ideal(Ring.ZX, 0, Poly((0, 1, 1))),  # (g) alone: m = 0
        Ideal(Ring.ZX, 0, Poly((7, -2, 0, 1))),
        Ideal(Ring.ZX, 0),  # congruence is equality
        Ideal(Ring.ZX, 1),
        Ideal(Ring.ZX, 3),
        Ideal(Ring.ZX, 4),
        Ideal(Ring.ZX, 5, Poly((1, 1, 0, 1))),  # degree-3 g
        Ideal(Ring.ZX, 6, Poly((-3, 2, 4, 1))),
        Ideal(Ring.Z, 0),
        Ideal(Ring.Z, 1),
    ]),
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_residue_ops_agree_with_reduce_on_every_shape(ideal, ca, cb):
    """The product and negation of canonical residues, on ideal shapes the
    table-backed property above cannot reach: infinite quotients, no
    generator, and generators of degree 3."""
    if ideal.ring is Ring.Z:  # the value at x = 2
        a, b = (Element.integer(sum(c << k for k, c in enumerate(cs))) for cs in (ca, cb))
    else:
        a, b = zx(ca), zx(cb)
    ra, rb = reduce(a, ideal), reduce(b, ideal)
    multiply, negate = residue_ops(ideal)
    assert multiply(ra, rb) == reduce(a * b, ideal)
    assert negate(ra) == reduce(-a, ideal)
    assert negate(negate(ra)) == ra


def _check_cells(table, cells):
    """Product and sum cells against ``reduce`` of the product and the sum
    of the two residues' representatives, taken as elements of the ring."""
    ideal, residues = table.ideal, table.residues
    elements = [Element(ideal.ring, r.rep) for r in residues]
    for i, j in cells:
        a, b = elements[i], elements[j]
        assert residues[table.product[i][j]] == reduce(a * b, ideal)
        assert residues[table.sum[i][j]] == reduce(plus(ideal.ring, a.value, b.value), ideal)


def test_cayley_matches_reduce_products():
    """Every cell of both tables, on every shape ideal of order <= 27."""
    small = [ideal for ideal in _shape_ideals() if ideal.quotient_size <= 27]
    assert {ideal.quotient_size for ideal in small} >= {2, 4, 8, 9, 16, 25, 27}
    for ideal in small:
        table = cayley_table(ideal)
        _check_cells(table, itertools.product(range(len(table.residues)), repeat=2))


_LARGE_SHAPE_IDEALS = [ideal for ideal in _shape_ideals() if ideal.quotient_size > 27]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_LARGE_SHAPE_IDEALS), st.data())
def test_cayley_matches_reduce_on_sampled_cells_of_large_orders(ideal, data):
    """Sampled cells of both tables on the shape ideals of order > 27
    (Z/28..Z/30 and orders 49, 64 and 125)."""
    cell = st.integers(0, ideal.quotient_size - 1)
    _check_cells(_cached_table(ideal), data.draw(st.lists(st.tuples(cell, cell), min_size=1, max_size=8)))
