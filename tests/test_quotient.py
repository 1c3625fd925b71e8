import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from taufact.errors import InfiniteQuotient, NonMonicGenerator, NotOrderFour, RingMismatch
from taufact.poly import Poly
from taufact.quotient import (
    Ideal,
    IsoClass,
    cayley_table,
    classify,
    classify_order4,
    congruent,
    enumerate_residues,
    find_primes_in_class,
    quotient_fingerprint,
    reduce,
    residue_add,
    residue_mul,
    unit_classes,
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
    assert congruent(Element.integer(4), Element.integer(4), I0)
    assert not congruent(Element.integer(4), Element.integer(7), I0)


def test_reduce_ring_guard():
    with pytest.raises(RingMismatch):
        reduce(zx((1,)), I3)


def test_congruent_examples():
    assert congruent(Element.integer(4), Element.integer(7), I3)
    assert not congruent(zx((0, 1)), zx((1, 1)), IX2PX)
    assert congruent(Element.integer(2), Element.integer(5), I3)


def test_congruence_is_equivalence_on_sample():
    sample = [Element.integer(n) for n in range(-10, 11)]
    for a in sample:
        assert congruent(a, a, I4)
    for a, b in itertools.product(sample, repeat=2):
        assert congruent(a, b, I4) == congruent(b, a, I4)
    for a, b, c in itertools.product(sample[:8], repeat=3):
        if congruent(a, b, I4) and congruent(b, c, I4):
            assert congruent(a, c, I4)


def test_enumerate_residues():
    assert [r.rep for r in enumerate_residues(IX2PX)] == [
        Poly(()),
        Poly.one(),
        X,
        XP1,
    ]
    assert [r.rep for r in enumerate_residues(I4)] == [0, 1, 2, 3]
    assert len(enumerate_residues(Ideal(Ring.ZX, 3, Poly((1, 0, 1))))) == 9


def test_enumerate_residues_infinite():
    with pytest.raises(InfiniteQuotient):
        enumerate_residues(Ideal(Ring.Z, 0))
    with pytest.raises(InfiniteQuotient):
        enumerate_residues(Ideal(Ring.ZX, 2))


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
        classify_order4(I4),
        classify_order4(IX2P1),
        classify_order4(IX2PX1),
        classify_order4(IX2PX),
    }
    assert classes == {
        IsoClass.Z4,
        IsoClass.Z2X_X2P1,
        IsoClass.F4,
        IsoClass.Z2X_X2PX,
    }
    assert classify_order4(I4X) is IsoClass.Z4


def test_classify_order4_examples():
    assert classify_order4(IX2PX) is IsoClass.Z2X_X2PX
    assert classify_order4(IX2PX1) is IsoClass.F4


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
    assert classify_order4(ideal) is not IsoClass.OTHER


def test_classify_rejects_other_sizes():
    with pytest.raises(NotOrderFour):
        classify_order4(I3)
    fp, cls = classify(cayley_table(Ideal(Ring.Z, 6)))
    assert fp.size == 6 and cls is IsoClass.OTHER


def _additive_order_of_one(ideal):
    """Reference characteristic: add 1 to itself until the sum is 0."""
    one = reduce(constant(ideal.ring, 1), ideal)
    zero = reduce(constant(ideal.ring, 0), ideal)
    order, acc = 1, one
    while acc != zero:
        acc = residue_add(acc, one)
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
        residues = enumerate_residues(ideal)
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
    assert {str(r) for r in unit_classes(IX2PX)} == {"1"}
    assert {r.rep for r in unit_classes(I3)} == {1, 2}
    assert {r.rep for r in unit_classes(I4)} == {1, 3}


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
    assert reduce(Element.integer(a * b), I4) == residue_mul(ra, rb)


@given(
    st.lists(st.integers(-5, 5), max_size=4).map(tuple),
    st.lists(st.integers(-5, 5), max_size=4).map(tuple),
)
def test_reduce_is_multiplicative_zx(ca, cb):
    a, b = zx(ca), zx(cb)
    ra, rb = reduce(a, IX2PX), reduce(b, IX2PX)
    assert reduce(a * b, IX2PX) == residue_mul(ra, rb)


def test_cayley_matches_reduce_products():
    for ideal in (I4, IX2P1, IX2PX1, IX2PX):
        table = cayley_table(ideal)
        for i, a in enumerate(table.residues):
            for j, b in enumerate(table.residues):
                assert table.residues[table.product[i][j]] == residue_mul(a, b)
