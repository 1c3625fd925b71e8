import random
from fractions import Fraction

import pytest

from taufact import engine
from taufact.engine import (
    EnumerationBudget,
    elasticity,
    enumerate_tau_factorizations,
)
from taufact.errors import BudgetExceeded, InternalCheckFailed, RingMismatch, ZeroOrUnitInput
from taufact.poly import Poly
from taufact.quotient import Ideal
from taufact.rings import Element, FactoredElement, Ring, build_factored, expand

from listing_items import factorizations
from naive_oracle import (
    assert_factorization_sound,
    naive_atomic_lengths,
    naive_atomic_partitions,
    naive_factorizations,
    naive_is_atom,
)

I3 = Ideal(Ring.Z, 3)
I4X = Ideal(Ring.ZX, 4, Poly.x())
IX2PX = Ideal(Ring.ZX, 2, Poly((0, 1, 1)))
X = Element.polynomial(Poly.x())
XP1 = Element.polynomial(Poly((1, 1)))


def z_factored(*parts, unit=1):
    return build_factored(Ring.Z, unit, [(Element.integer(p), e) for p, e in parts])


def seq(i):
    return build_factored(Ring.ZX, 1, [(X, i), (XP1, i)])


def block_values(tf):
    return tuple(expand(b) for b in tf.blocks)


def atomic_factorizations(fe, ideal):
    return [
        tf for tf in factorizations(fe, ideal)
        if all(elasticity(b, ideal).factorization_count == 1 for b in tf.blocks)
    ]


def test_28_mod_3_factorizations():
    fe = z_factored((2, 2), (7, 1))
    facs = factorizations(fe, I3)
    assert [tf.length for tf in facs] == [1, 2, 2, 3]
    flags = {tuple(str(v) for v in block_values(tf)): tf.atomic for tf in facs}
    assert flags == {
        ("28",): (False,),
        ("4", "7"): (False, True),
        ("2", "14"): (True, False),
        ("2", "2", "7"): (True, True, True),
    }
    three = [tf for tf in facs if tf.length == 3][0]
    assert three.signs == (1, 1, -1)
    assert three.lam == -1
    for tf in facs:
        assert_factorization_sound(tf, fe, I3)


def test_x_xp1_single_factorization():
    fe = build_factored(Ring.ZX, 1, [(X, 1), (XP1, 1)])
    facs = factorizations(fe, IX2PX)
    assert len(facs) == 1
    assert facs[0].length == 1


def test_single_prime_trivial_only():
    for fe, ideal in [(z_factored((7, 1)), I3), (build_factored(Ring.ZX, 1, [(X, 1)]), IX2PX)]:
        facs = factorizations(fe, ideal)
        assert len(facs) == 1 and facs[0].length == 1
        assert elasticity(fe, ideal).factorization_count == 1


def test_atom_examples():
    assert elasticity(z_factored((2, 2)), I3).factorization_count != 1  # 4
    assert elasticity(z_factored((2, 1), (7, 1)), I3).factorization_count != 1  # 14 = -1*2*(-7)
    fe = build_factored(Ring.ZX, 1, [(X, 1), (XP1, 2)])
    assert elasticity(fe, IX2PX).factorization_count == 1


def test_atomic_factorizations_28():
    fe = z_factored((2, 2), (7, 1))
    atomic = atomic_factorizations(fe, I3)
    assert len(atomic) == 1
    assert atomic[0].length == 3
    assert tuple(str(v) for v in block_values(atomic[0])) == ("2", "2", "7")


def test_atomic_factorizations_20():
    fe = z_factored((2, 2), (5, 1))
    atomic = atomic_factorizations(fe, I3)
    assert len(atomic) == 1 and atomic[0].length == 3
    report = elasticity(fe, I3)
    assert report.is_atomic and report.atomic_lengths == frozenset({3})
    assert report.elasticity == 1


def test_non_atomic_witness():
    fe = build_factored(
        Ring.ZX,
        1,
        [
            (Element.polynomial(Poly((2,))), 1),
            (Element.polynomial(Poly((2, 1))), 1),
            (X, 1),
        ],
    )
    assert atomic_factorizations(fe, I4X) == []
    report = elasticity(fe, I4X)
    assert not report.is_atomic
    assert report.atomic_lengths == frozenset()
    assert report.elasticity is None and report.min_len is None


def test_elasticity_examples():
    report = elasticity(seq(3), IX2PX)
    assert report.atomic_lengths == frozenset({2, 3})
    assert report.elasticity == Fraction(3, 2)

    report = elasticity(seq(2), IX2PX)
    assert report.atomic_lengths == frozenset({2})
    assert report.elasticity == 1


def test_elasticity_counts_are_consistent():
    fe = z_factored((2, 2), (7, 1))
    report = elasticity(fe, I3)
    assert report.factorization_count == len(enumerate_tau_factorizations(fe, I3))
    assert report.atomic_count == len(atomic_factorizations(fe, I3))
    assert report.atomic_lengths <= {tf.length for tf in factorizations(fe, I3)}


def test_input_guards():
    with pytest.raises(ZeroOrUnitInput):
        enumerate_tau_factorizations(FactoredElement(Ring.Z, 1, ()), I3)
    with pytest.raises(RingMismatch):
        enumerate_tau_factorizations(z_factored((2, 1)), IX2PX)


def test_budget_guards():
    with pytest.raises(BudgetExceeded):
        enumerate_tau_factorizations(
            z_factored((2, 3), (3, 2)), I3, EnumerationBudget(max_primes=4)
        )
    with pytest.raises(BudgetExceeded):
        enumerate_tau_factorizations(
            z_factored((2, 3), (3, 3)), I3, EnumerationBudget(max_partitions=3)
        )


def test_listing_applies_the_kernel_cap_before_listing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the listing started over the kernel cap")

    monkeypatch.setattr(engine, "vector_partitions", unreachable)
    # v = (4, 4): 200 kernel steps, as in test_kernel_budget_boundary.
    with pytest.raises(BudgetExceeded, match="^200 kernel steps exceed the budget of 199$"):
        enumerate_tau_factorizations(seq(4), IX2PX, EnumerationBudget(max_partitions=199))


def test_listing_candidate_cap_fires_above_the_kernel_cap():
    # 2^8 modulo 1: 36 kernel steps, 66 candidate blocks, 22 factorizations.
    fe, ideal = z_factored((2, 8)), Ideal(Ring.Z, 1)
    assert len(enumerate_tau_factorizations(fe, ideal, EnumerationBudget(max_partitions=66))) == 22
    assert elasticity(fe, ideal, EnumerationBudget(max_partitions=36)).factorization_count != 1
    for cap in (36, 65):
        with pytest.raises(BudgetExceeded, match=f"^66 listing steps exceed the budget of {cap}$"):
            enumerate_tau_factorizations(fe, ideal, EnumerationBudget(max_partitions=cap))


def test_listing_applies_its_own_cap_before_listing(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the listing started over its cap")

    monkeypatch.setattr(engine, "vector_partitions", unreachable)
    fe, ideal = z_factored((2, 8)), Ideal(Ring.Z, 1)
    with pytest.raises(BudgetExceeded, match="^66 listing steps exceed the budget of 65$"):
        enumerate_tau_factorizations(fe, ideal, EnumerationBudget(max_partitions=65))


def test_listing_that_drops_a_partition_fails_its_count_check(monkeypatch):
    real = engine.vector_partitions

    def drop_last(*args):
        return list(real(*args))[:-1]

    monkeypatch.setattr(engine, "vector_partitions", drop_last)
    with pytest.raises(InternalCheckFailed, match="listed 3 tau-factorizations, the kernel counts 4"):
        enumerate_tau_factorizations(z_factored((2, 2), (7, 1)), I3)


def test_budget_outcome_independent_of_earlier_calls():
    tight = EnumerationBudget(max_partitions=3)
    with pytest.raises(BudgetExceeded):
        elasticity(seq(4), IX2PX, tight)
    assert elasticity(seq(4), IX2PX).factorization_count != 1
    with pytest.raises(BudgetExceeded):
        elasticity(seq(4), IX2PX, tight)


def test_associate_invariance():
    pools = [
        (z_factored((2, 2), (7, 1)), z_factored((2, 2), (7, 1), unit=-1), I3),
        (seq(3), build_factored(Ring.ZX, -1, [(X, 3), (XP1, 3)]), IX2PX),
    ]
    for fe, neg, ideal in pools:
        a, b = elasticity(fe, ideal), elasticity(neg, ideal)
        assert (a.is_atomic, a.atomic_lengths, a.elasticity) == (
            b.is_atomic,
            b.atomic_lengths,
            b.elasticity,
        )
        assert a.factorization_count == b.factorization_count


def test_determinism_across_runs():
    fe = z_factored((2, 2), (3, 1), (7, 1))
    first = [(tf.lam, block_values(tf), tf.signs) for tf in factorizations(fe, I3)]
    second = [(tf.lam, block_values(tf), tf.signs) for tf in factorizations(fe, I3)]
    assert first == second


def test_determinism_under_concurrent_use():
    from concurrent.futures import ThreadPoolExecutor

    inputs = [
        (z_factored((2, 2), (7, 1)), I3),
        (z_factored((2, 3), (3, 2)), Ideal(Ring.Z, 4)),
        (seq(4), IX2PX),
        (seq(5), IX2PX),
    ]
    expected = [
        (r.is_atomic, r.atomic_lengths, r.elasticity, r.factorization_count)
        for r in (elasticity(fe, ideal) for fe, ideal in inputs)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [
            pool.submit(elasticity, fe, ideal)
            for _ in range(4)
            for fe, ideal in inputs
        ]
        results = [f.result() for f in futures]
    for i, report in enumerate(results):
        want = expected[i % len(inputs)]
        assert (
            report.is_atomic,
            report.atomic_lengths,
            report.elasticity,
            report.factorization_count,
        ) == want


def test_soundness_reverified_on_random_inputs():
    ideals = [I3, Ideal(Ring.Z, 4), Ideal(Ring.Z, 12)]
    elements = [
        z_factored((2, 2), (3, 1)),
        z_factored((2, 1), (3, 1), (5, 1)),
        z_factored((5, 2), (7, 1), unit=-1),
        z_factored((2, 3), (3, 2)),
    ]
    for ideal in ideals:
        for fe in elements:
            for tf in factorizations(fe, ideal):
                assert_factorization_sound(tf, fe, ideal)


@pytest.mark.parametrize(
    "parts,ideal",
    [
        ([(2, 2), (7, 1)], I3),
        ([(2, 1), (3, 1), (5, 1)], I3),
        ([(2, 2), (3, 2)], Ideal(Ring.Z, 4)),
        ([(2, 1), (5, 1), (13, 1)], Ideal(Ring.Z, 12)),
    ],
)
def test_engine_matches_naive_z(parts, ideal):
    fe = z_factored(*parts)
    ours = {block_values(tf) for tf in factorizations(fe, ideal)}
    assert ours == naive_factorizations(fe, ideal)
    instances = [Element.integer(p) for p, e in parts for _ in range(e)]
    assert (elasticity(fe, ideal).factorization_count == 1) == naive_is_atom(instances, ideal)
    report = elasticity(fe, ideal)
    assert report.atomic_lengths == frozenset(naive_atomic_lengths(fe, ideal))


def test_engine_matches_naive_zx():
    fe = build_factored(Ring.ZX, 1, [(X, 2), (XP1, 2)])
    ours = {block_values(tf) for tf in factorizations(fe, IX2PX)}
    assert ours == naive_factorizations(fe, IX2PX)
    report = elasticity(fe, IX2PX)
    assert report.atomic_lengths == frozenset(naive_atomic_lengths(fe, IX2PX))


def test_engine_matches_naive_six_primes():
    fe = z_factored((2, 3), (3, 2), (5, 1))
    ideal = Ideal(Ring.Z, 4)
    ours = {block_values(tf) for tf in factorizations(fe, ideal)}
    assert ours == naive_factorizations(fe, ideal)
    report = elasticity(fe, ideal)
    assert report.atomic_lengths == frozenset(naive_atomic_lengths(fe, ideal))


Z_POOL = [Element.integer(p) for p in (2, 3, 5, 7, 11, 13)]
ZX_POOL = [
    Element.polynomial(Poly(coeffs))
    for coeffs in ((2,), (0, 1), (1, 1), (2, 1), (1, 0, 1), (1, 1, 1), (1, 2))
]


@pytest.mark.parametrize(
    "ideal,pool",
    [(Ideal(Ring.Z, m), Z_POOL) for m in (0, 1, 2, 5, 8, 12)]
    + [
        (Ideal(Ring.ZX, 3), ZX_POOL),
        (Ideal(Ring.ZX, 3, Poly((1, 0, 1))), ZX_POOL),
    ],
    ids=lambda v: f"{v.ring.value}-{v}" if isinstance(v, Ideal) else "pool",
)
def test_engine_matches_naive_on_other_ideals(ideal, pool):
    # Ideals the order-4 suites never use: Z mod 0 (congruence is equality),
    # mod 1 (everything congruent), small and composite moduli, and Z[x]
    # modulo a bare modulus or a modulus with a generator.
    rng = random.Random(f"naive-{ideal}")
    for _ in range(28):
        combo = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        tally = {}
        for prime in combo:
            tally[prime] = tally.get(prime, 0) + 1
        fe = build_factored(ideal.ring, rng.choice((1, -1)), list(tally.items()))
        facs = factorizations(fe, ideal)
        for tf in facs:
            assert_factorization_sound(tf, fe, ideal)
        expected = naive_factorizations(fe, ideal)
        assert {block_values(tf) for tf in facs} == expected
        atomic = naive_atomic_partitions(fe, ideal)
        report = elasticity(fe, ideal)
        assert report.factorization_count == len(expected)
        assert report.atomic_count == len(atomic)
        assert report.atomic_lengths == frozenset(len(blocks) for blocks in atomic)
        assert (report.factorization_count == 1) == naive_is_atom(combo, ideal)


def test_budget_binds_when_nothing_is_yielded():
    # Over Z mod 0 the blocks of a split must be equal up to sign, so six
    # distinct primes have no split at all.  The kernel's steps follow from
    # the multiplicity vector alone (3^6 - 2^6 = 665 here), so the cap binds
    # before any work, whether or not a split exists.
    fe = z_factored((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))
    ideal = Ideal(Ring.Z, 0)
    assert elasticity(fe, ideal).factorization_count == 1
    with pytest.raises(BudgetExceeded):
        elasticity(fe, ideal, EnumerationBudget(max_partitions=50))


def test_kernel_budget_boundary():
    # v = (4, 4): C(6, 2)^2 - 5^2 = 200 (part, target) pairs per pass.
    steps = 200
    report = elasticity(seq(4), IX2PX, EnumerationBudget(max_partitions=steps))
    assert report.factorization_count != 1
    assert report.atomic_lengths == frozenset({2, 3, 4})
    message = f"{steps} kernel steps exceed the budget of {steps - 1}"
    with pytest.raises(BudgetExceeded, match=message):
        elasticity(seq(4), IX2PX, EnumerationBudget(max_partitions=steps - 1))


def test_default_budget_admits_every_element_within_max_primes():
    # Distinct primes are the costliest vector of a given total: 14 of them
    # take 3^14 - 2^14 = 4,766,585 steps, under the default cap.
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    assert elasticity(z_factored(*((p, 1) for p in primes)), Ideal(Ring.Z, 0)).factorization_count == 1
    with pytest.raises(BudgetExceeded, match="15 primes exceed"):
        elasticity(z_factored(*((p, 1) for p in primes + (47,))), Ideal(Ring.Z, 0))
