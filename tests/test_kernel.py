"""The counting kernel against the listing enumerator.

``elasticity`` and the listing's per-block atom flags count with a
per-class knapsack over sub-vectors of the prime multiplicity vector, while
``enumerate_tau_factorizations`` lists multiset partitions.  An element is
a tau-atom when ``elasticity`` counts one factorization.  The two share
only the residue arithmetic, so their agreement checks both; here each
block's flag is checked against a listing of the block itself.  The
kernel's atomic counts by length are also checked against a closed form
in partition numbers, which shares no code with it.
"""

from functools import cache
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from taufact.engine import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    _Context,
    elasticity,
    enumerate_tau_factorizations,
)
from taufact.errors import BudgetExceeded
from taufact.partitions import vector_partitions
from taufact.poly import Poly
from taufact.quotient import Ideal, Residue, reduce
from taufact.rings import Element, Ring, build_factored, expand
from taufact.verify import SUITE_IDEALS

from listing_items import factorizations, item, items
from walk_count import walk_counts

Z_PRIMES = [Element.integer(p) for p in (2, 3, 5, 7, 11, 13, 17)]
ZX_PRIMES = [
    Element.polynomial(Poly(coeffs))
    for coeffs in ((2,), (3,), (0, 1), (1, 1), (2, 1), (1, 0, 1), (1, 1, 1))
]
IDEALS = [Ideal(Ring.Z, m) for m in range(19)] + list(SUITE_IDEALS.values())


def z_element(*primes):
    return build_factored(Ring.Z, 1, [(Element.integer(p), 1) for p in primes])


@st.composite
def censuses(draw):
    """An ideal and a unit times at most seven primes, repeats allowed."""
    ideal = draw(st.sampled_from(IDEALS))
    pool = Z_PRIMES if ideal.ring is Ring.Z else ZX_PRIMES
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    unit = draw(st.sampled_from((1, -1)))
    return build_factored(ideal.ring, unit, [(p, 1) for p in primes]), ideal


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
# 2*2 mod 5 and mod 7: the square splits only outside its own class.
@example((z_element(2, 2), Ideal(Ring.Z, 5)))
@example((z_element(2, 2, 3), Ideal(Ring.Z, 7)))
def test_kernel_counts_what_the_enumerator_lists(case):
    fe, ideal = case
    listed = factorizations(fe, ideal)
    report = elasticity(fe, ideal)
    assert report.factorization_count == len(listed)
    single = {
        block: len(enumerate_tau_factorizations(block, ideal)) == 1
        for tf in listed
        for block in tf.blocks
    }
    assert all(tf.atomic == tuple(single[b] for b in tf.blocks) for tf in listed)
    atomic = [tf for tf in listed if all(single[b] for b in tf.blocks)]
    assert report.atomic_count == len(atomic)
    assert report.atomic_lengths == frozenset(tf.length for tf in atomic)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
def test_listing_order_and_signs_follow_from_the_block_products(case):
    """Block order, listing order and sign witnesses, recomputed from each
    block's expanded product and its residue alone."""
    fe, ideal = case
    listed = factorizations(fe, ideal)
    keys = [tuple(expand(b).sort_key for b in tf.blocks) for tf in listed]
    assert all(list(k) == sorted(k) for k in keys)
    order = [(len(k), k) for k in keys]
    assert all(a < b for a, b in zip(order, order[1:]))
    for tf in listed:
        residues = [reduce(expand(b), ideal) for b in tf.blocks]
        assert tf.signs == tuple(1 if r == residues[0] else -1 for r in residues)
        assert tf.lam == fe.unit * prod(tf.signs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
def test_listing_carries_each_block_product(case):
    fe, ideal = case
    for tf in factorizations(fe, ideal):
        assert len(tf.products) == tf.length
        assert all(tf.products[i] == expand(tf.blocks[i]) for i in range(tf.length))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
# Multiplicities 1, 3, 4, 7 and 8 take fields of 2, 3, 4, 4 and 5 bits.
@example((z_element(2, 3, 3, 3, 5), Ideal(Ring.Z, 7)))
@example((z_element(*[2] * 4, 3), Ideal(Ring.Z, 5)))
@example((z_element(2, *[3] * 7), Ideal(Ring.Z, 1)))
@example((z_element(*[2] * 8, 3), Ideal(Ring.Z, 3)))
def test_kernel_and_walk_share_one_packed_layout(case):
    """Every sub-vector unpacks to itself, packed order is lex order, and
    every part the walk yields from the kernel's packed classes is a key
    of the kernel's counts."""
    fe, ideal = case
    ctx = _Context(fe, ideal, DEFAULT_BUDGET)
    parts = [p for p in product(*(range(e + 1) for e in ctx.vector)) if any(p)]
    packed = [ctx.pack(p) for p in parts]
    assert [ctx.unpack(s) for s in packed] == parts
    assert all(a < b for a, b in zip(packed, packed[1:]))  # product() is lex order
    assert max(ctx.vector) < 1 << (ctx.width - 1)  # a clear guard bit per field
    groups, total = ctx.pass1()[:2]
    classes = [[ctx.pack(p) for p in ps] for ps in groups]
    for partition in vector_partitions(ctx.pack(ctx.vector), ctx.width, classes):
        assert all(s in total for s in partition)


def listing_steps(fe, ideal):
    """The listing's bound, the kernel's count of nonempty multisets of one
    class's blocks that fit under the vector, and the number of classes."""
    groups, total = _Context(fe, ideal, DEFAULT_BUDGET).pass1()[:2]
    return sum(total.values()) - len(groups), len(groups)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
def test_walk_examines_at_most_the_listing_steps(case):
    fe, ideal = case
    steps, _ = listing_steps(fe, ideal)
    with walk_counts() as counts:
        enumerate_tau_factorizations(fe, ideal)
    assert counts["examined"] <= steps


def test_listing_steps_on_the_worked_examples():
    # 2^8 modulo 1: one class, whose multisets are the 66 partitions of
    # 1..8; the walk examines each of them once, so the bound is tight.
    fe, ideal = z_element(*[2] * 8), Ideal(Ring.Z, 1)
    with walk_counts() as counts:
        enumerate_tau_factorizations(fe, ideal)
    assert listing_steps(fe, ideal) == (66, 1)
    assert counts["examined"] == 66
    # Ten distinct primes modulo 1 bound 678,569 steps; the walk examines
    # 231,949 blocks (test_walk_examines_only_parts_that_fit).
    ten = z_element(2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert listing_steps(ten, ideal) == (678_569, 1)


def test_dead_classes_never_reach_the_walk():
    """2^2 3^2 5 7 modulo 12 has seven classes, and five of them cannot
    partition the whole vector; the walk gets only classes that yield a
    partition, and the listing still has its three factorizations."""
    fe, ideal = z_element(2, 2, 3, 3, 5, 7), Ideal(Ring.Z, 12)
    assert listing_steps(fe, ideal)[1] == 7
    with walk_counts() as counts:
        listed = enumerate_tau_factorizations(fe, ideal)
    [(whole, width, classes)] = counts["walks"]
    assert len(classes) == 2
    for parts in classes:
        assert next(vector_partitions(whole, width, [parts]), None) is not None
    assert len(listed) == elasticity(fe, ideal).factorization_count == 3


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(censuses())
def test_listing_is_a_sequence_of_its_factorizations(case):
    """The listing's length is the kernel's count, one row of ascending
    ranks per factorization, using every entry of its table of distinct
    blocks; reading the rows by index, negative indices included, gives
    what reading them in order gives."""
    fe, ideal = case
    listed = enumerate_tau_factorizations(fe, ideal)
    assert len(listed) == elasticity(fe, ideal).factorization_count
    assert all(list(row) == sorted(row) for row in listed.rows)
    assert set().union(*listed.rows) == set(range(len(listed.products)))
    read = items(listed, fe)
    assert read == [item(listed, fe, listed.rows[i]) for i in range(len(listed))]
    assert read[::-1] == [item(listed, fe, listed.rows[-i]) for i in range(1, len(listed) + 1)]
    with pytest.raises(IndexError):
        listed.rows[len(listed)]


@pytest.mark.parametrize(
    "i,factorizations,atomic",
    [(14, 19_125, 648), (20, 1_130_612, 9_320), (30, 560_036_477, 460_184)],
)
def test_main_sequence_counts(i, factorizations, atomic):
    x, xp1 = Element.polynomial(Poly.x()), Element.polynomial(Poly((1, 1)))
    fe = build_factored(Ring.ZX, 1, [(x, i), (xp1, i)])
    report = elasticity(fe, SUITE_IDEALS["lemma4"], EnumerationBudget(max_primes=60))
    assert (report.factorization_count, report.atomic_count) == (factorizations, atomic)
    assert report.atomic_lengths == frozenset(range(2, i + 1))


@cache
def partitions_into(k, n):
    """p_k(n), the partitions of n into exactly k parts:
    p_k(n) = p_{k-1}(n - 1) + p_k(n - k)."""
    if k <= 0 or n < k:
        return int(k == n == 0)
    return partitions_into(k - 1, n - 1) + partitions_into(k, n - k)


def closed_form_length_counts(a, b):
    """Atomic factorizations of x^a (x+1)^b modulo (2, x^2+x) by length.

    Modulo the ideal x^a is x, (x+1)^b is x+1 and x(x+1) is 0, so for a, b
    >= 1 every block lies in class {0}: it is (α, β) with α, β >= 1, and an
    atom exactly when min(α, β) = 1.  A factorization with t atoms (1, 1),
    p atoms (1, β >= 2) and q atoms (α >= 2, 1) has length t + p + q; its α
    are a partition of a - t - p into q parts >= 2, its β one of b - t - q
    into p parts >= 2, and P2(n, k) = p_k(n - k) counts either."""
    counts = [0] * (a + b + 1)
    for t in range(min(a, b) + 1):
        for p in range(a - t + 1):
            for q in range(b - t + 1):
                counts[t + p + q] += partitions_into(q, a - t - p - q) * partitions_into(p, b - t - q - p)
    while counts[-1] == 0:
        counts.pop()
    return counts


def kernel_length_counts(a, b):
    x, xp1 = Element.polynomial(Poly.x()), Element.polynomial(Poly((1, 1)))
    fe = build_factored(Ring.ZX, 1, [(x, a), (xp1, b)])
    budget = EnumerationBudget(max_primes=a + b)
    return _Context(fe, SUITE_IDEALS["lemma4"], budget).atomic_counts()[1]


def test_length_counts_follow_the_closed_form():
    for a, b in product(range(1, 13), repeat=2):
        assert kernel_length_counts(a, b) == closed_form_length_counts(a, b), (a, b)


@pytest.mark.parametrize("i", range(2, 31))
def test_main_sequence_has_one_factorization_of_length_2_and_one_of_length_i(i):
    counts = kernel_length_counts(i, i)
    assert counts == closed_form_length_counts(i, i)
    assert counts[2] == counts[i] == 1


def test_zx_kernel_builds_residues_only_at_its_edges(monkeypatch):
    """Over Z[x] the kernel's residues are canonical polynomials: a call
    builds one ``Residue`` per prime, in ``reduce``, and none per
    sub-vector; a listing adds at most one per distinct residue of its
    table.  Every construction is counted, wherever it happens."""
    built = []
    init = Residue.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Residue, "__init__", counting)
    x, xp1 = Element.polynomial(Poly.x()), Element.polynomial(Poly((1, 1)))
    a4, a9 = (build_factored(Ring.ZX, 1, [(x, i), (xp1, i)]) for i in (4, 9))
    cubic = Element.polynomial(Poly((1, 1, 0, 1)))
    eight = build_factored(Ring.ZX, 1, [(p, 1) for p in [*ZX_PRIMES, cubic]])
    assert len(eight.factors) == 8
    lemma3, lemma4 = SUITE_IDEALS["lemma3"], SUITE_IDEALS["lemma4"]
    for fe, ideal in ((a9, lemma4), (eight, lemma3)):
        built.clear()
        elasticity(fe, ideal, EnumerationBudget(max_primes=18))
        assert len(built) == len(fe.factors)
    for fe, ideal in ((a4, lemma4), (eight, lemma3)):
        built.clear()
        listed = enumerate_tau_factorizations(fe, ideal)
        assert len(built) <= len(fe.factors) + len(set(listed.residues))
        assert list(listed.residues) == [reduce(b, ideal) for b in listed.products]


@st.composite
def presentations(draw):
    """An ideal, a product of at most six primes, and a second presentation
    of it: factors reordered, some negated, exponents split into chunks,
    and the unit drawn afresh."""
    ideal = draw(st.sampled_from(IDEALS))
    pool = Z_PRIMES if ideal.ring is Ring.Z else ZX_PRIMES
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    plain = build_factored(ideal.ring, 1, [(p, 1) for p in primes])
    parts = []
    for p in draw(st.permutations(primes)):
        if draw(st.booleans()):
            p = -p
        if parts and parts[-1][0] == p and draw(st.booleans()):
            parts[-1] = (p, parts[-1][1] + 1)  # a larger chunk of the exponent
        else:
            parts.append((p, 1))
    other = build_factored(ideal.ring, draw(st.sampled_from((1, -1))), parts)
    return plain, other, ideal


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_results_ignore_order_signs_chunks_and_unit(case):
    plain, other, ideal = case
    assert elasticity(other, ideal) == elasticity(plain, ideal)


def outcome(decide, fe, ideal, budget):
    """The result of one call, or the message of the budget it exceeded."""
    try:
        return decide(fe, ideal, budget)
    except BudgetExceeded as exc:
        return f"BudgetExceeded: {exc}"


DECIDERS = (factorizations, elasticity)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(censuses(), censuses(), st.integers(3, 14), st.integers(1, 800))
# 2^8 mod 1 takes 36 kernel steps and 66 listing steps, so a cap of 36
# stops only its listing; 2^4 3^4 mod 1 takes 200 kernel steps, so a cap of
# 199 stops its kernel.
@example((z_element(*[2] * 8), Ideal(Ring.Z, 1)), (z_element(3), Ideal(Ring.Z, 5)), 8, 36)
@example((z_element(2, 2, 2, 2, 3, 3, 3, 3), Ideal(Ring.Z, 1)), (z_element(3), Ideal(Ring.Z, 5)), 8, 199)
def test_budget_outcome_carries_over_nothing(case, other, max_primes, max_partitions):
    """Under one budget, each entry point gives the same result or the same
    BudgetExceeded cold, after unrelated calls, and on a repeat."""
    fe, ideal = case
    budget = EnumerationBudget(max_primes, max_partitions)
    for decide in DECIDERS:
        cold = outcome(decide, fe, ideal, budget)
        for unrelated in DECIDERS:
            outcome(unrelated, *other, DEFAULT_BUDGET)
        assert outcome(decide, fe, ideal, budget) == cold
        assert outcome(decide, fe, ideal, budget) == cold
