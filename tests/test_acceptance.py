"""Acceptance suite: one test per criterion, zero tolerance.

Each test prints a PASS line with the measured values once its assertions
hold; run with ``pytest -s tests/test_acceptance.py -v`` to see them.
"""

import itertools
from fractions import Fraction

from taufact.engine import elasticity, enumerate_tau_factorizations, is_tau_atom
from taufact.poly import Poly
from taufact.quotient import (
    Ideal,
    IsoClass,
    cayley_table,
    classify_order4,
    find_primes_in_class,
)
from taufact.rings import Element, FactoredElement, Ring, build_factored, expand
from taufact.verify import (
    run_main_sequence,
    run_predictor_suite,
    run_small_integer_survey,
)

from naive_oracle import (
    assert_factorization_sound,
    naive_atomic_lengths,
    naive_factorizations,
    naive_is_atom,
)

X = Element.polynomial(Poly.x())
XP1 = Element.polynomial(Poly((1, 1)))
IX2PX = Ideal(Ring.ZX, 2, Poly((0, 1, 1)))


def test_criterion_1_main_sequence_elasticity():
    rows = run_main_sequence(5)
    for row in rows[1:]:
        assert row.elasticity == Fraction(row.i, 2)  # exact, zero tolerance
        assert row.min_len == 2
        assert row.max_len == row.i
    assert all(row.ok for row in rows)
    values = ", ".join(f"i={r.i}: {r.elasticity}" for r in rows[1:])
    print(f"\nPASS criterion 1: sequence elasticity exact ({values})")


def test_criterion_2_worked_examples():
    twenty = build_factored(Ring.Z, 1, [(Element.integer(2), 2), (Element.integer(5), 1)])
    ideal = Ideal(Ring.Z, 3)
    report = elasticity(twenty, ideal)
    assert report.is_atomic
    assert report.atomic_lengths == frozenset({3})
    assert report.atomic_count == 1
    assert report.elasticity == 1

    twenty_eight = build_factored(Ring.Z, 1, [(Element.integer(2), 2), (Element.integer(7), 1)])
    facs = enumerate_tau_factorizations(twenty_eight, ideal)
    multisets = {tuple(str(expand(b)) for b in tf.blocks) for tf in facs}
    assert multisets == {("28",), ("4", "7"), ("2", "14"), ("2", "2", "7")}
    atomic = [
        tf for tf in facs
        if all(is_tau_atom(block, ideal) for block in tf.blocks)
    ]
    assert len(atomic) == 1
    witness = atomic[0]
    assert tuple(str(expand(b)) for b in witness.blocks) == ("2", "2", "7")
    assert witness.lam == -1
    assert witness.signs == (1, 1, -1)
    print("\nPASS criterion 2: 20 and 28 mod (3) reproduce exactly "
          "(unique atomic length 3; lambda=-1, signs (+,+,-))")


def test_criterion_3_cayley_goldens_and_classes():
    paper_tables = {
        "2, x^2+1": {
            ("1", "1"): "1", ("1", "x"): "x", ("1", "x+1"): "x+1",
            ("x", "1"): "x", ("x", "x"): "1", ("x", "x+1"): "x+1",
            ("x+1", "1"): "x+1", ("x+1", "x"): "x+1", ("x+1", "x+1"): "0",
        },
        "2, x^2+x+1": {
            ("1", "1"): "1", ("1", "x"): "x", ("1", "x+1"): "x+1",
            ("x", "1"): "x", ("x", "x"): "x+1", ("x", "x+1"): "1",
            ("x+1", "1"): "x+1", ("x+1", "x"): "1", ("x+1", "x+1"): "x",
        },
        "2, x^2+x": {
            ("1", "1"): "1", ("1", "x"): "x", ("1", "x+1"): "x+1",
            ("x", "1"): "x", ("x", "x"): "x", ("x", "x+1"): "0",
            ("x+1", "1"): "x+1", ("x+1", "x"): "0", ("x+1", "x+1"): "x+1",
        },
    }
    generators = {
        "2, x^2+1": Poly((1, 0, 1)),
        "2, x^2+x+1": Poly((1, 1, 1)),
        "2, x^2+x": Poly((0, 1, 1)),
    }
    for name, cells in paper_tables.items():
        table = cayley_table(Ideal(Ring.ZX, 2, generators[name]))
        index = {str(r): i for i, r in enumerate(table.residues)}
        for (a, b), want in cells.items():
            got = str(table.residues[table.product[index[a]][index[b]]])
            assert got == want, f"({a})*({b}) mod ({name}): {got} != {want}"

    classes = {
        classify_order4(Ideal(Ring.Z, 4)),
        classify_order4(Ideal(Ring.ZX, 2, Poly((1, 0, 1)))),
        classify_order4(Ideal(Ring.ZX, 2, Poly((1, 1, 1)))),
        classify_order4(Ideal(Ring.ZX, 2, Poly((0, 1, 1)))),
    }
    assert len(classes) == 4 and IsoClass.OTHER not in classes
    assert classify_order4(Ideal(Ring.ZX, 4, Poly.x())) is IsoClass.Z4
    print("\nPASS criterion 3: three multiplication tables match cell-for-cell; "
          "four ideals classify to four distinct classes")


def test_criterion_4_half_factoriality_and_predictor_agreement():
    summaries = []
    for suite in ("lemma1", "lemma2", "lemma3"):
        report = run_predictor_suite(suite, samples=200, seed=11)
        assert report.checked == 200
        assert report.failures == 0, [c for c in report.cases if not c.ok][:3]
        for case in report.cases:
            oracle_atomic = case.oracle.startswith("atomic")
            if oracle_atomic:
                assert "lengths=[" in case.oracle
        summaries.append(f"{suite}: 200/200")
    print("\nPASS criterion 4: single atomic length and 100% predictor agreement "
          f"({'; '.join(summaries)})")


def test_criterion_5_non_atomic_witness():
    fe = build_factored(
        Ring.ZX,
        1,
        [
            (Element.polynomial(Poly((2,))), 1),
            (Element.polynomial(Poly((2, 1))), 1),
            (Element.polynomial(Poly((0, 1))), 1),
        ],
    )
    ideal = Ideal(Ring.ZX, 4, Poly.x())
    report = elasticity(fe, ideal)
    assert report.is_atomic is False
    assert report.atomic_lengths == frozenset()
    print("\nPASS criterion 5: 2*(x+2)*x mod (4, x) is not tau-atomic")


def test_criterion_6_small_integer_corpus():
    survey = run_small_integer_survey(seed=3)
    for n in (1, 2, 3):
        res = survey[n]
        assert res.max_elasticity == 1
        assert res.non_atomic_elements == 0
        assert res.atomic_elements == res.elements
        assert res.crosscheck_failures == 0
    notes = []
    for n in (12, 18):
        res = survey[n]
        assert res.max_elasticity is not None and res.max_elasticity <= 2
        assert res.crosscheck_failures == 0
        attained = (
            f"2 attained at {res.attained_two[0]}"
            if res.attained_two
            else f"2 not attained (max {res.max_elasticity} at {res.max_witness})"
        )
        notes.append(f"n={n}: {attained}")
    print("\nPASS criterion 6: elasticity 1 for n=1,2,3 over the whole corpus; "
          f"bound 2 holds for n=12,18 ({'; '.join(notes)})")


def _witness_pool(ideal):
    """One bounded-search witness prime per residue role of the quotient."""
    from taufact.predictors import build_iso_map

    iso = build_iso_map(ideal)
    pool = []
    for role in iso.roles:
        prime = next(find_primes_in_class(ideal, iso.residue_of(role), 50), None)
        if prime is not None:
            pool.append(prime)
    return pool


def test_criterion_7_oracle_self_consistency():
    setups = [
        Ideal(Ring.ZX, 4, Poly.x()),
        Ideal(Ring.ZX, 2, Poly((1, 0, 1))),
        Ideal(Ring.ZX, 2, Poly((1, 1, 1))),
        IX2PX,
    ]
    checked = 0
    for ideal in setups:
        pool = _witness_pool(ideal)
        assert len(pool) == 4
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(pool, size):
                tally = {}
                for p in combo:
                    tally[p] = tally.get(p, 0) + 1
                fe = build_factored(Ring.ZX, 1, list(tally.items()))

                facs = enumerate_tau_factorizations(fe, ideal)
                for tf in facs:
                    assert_factorization_sound(tf, fe, ideal)

                ours = {
                    tuple(expand(b) for b in tf.blocks) for tf in facs
                }
                assert ours == naive_factorizations(fe, ideal)

                atom = is_tau_atom(fe, ideal)
                assert atom == naive_is_atom(list(combo), ideal)

                negated = FactoredElement(fe.ring, -fe.unit, fe.factors)
                assert atom == is_tau_atom(negated, ideal)

                report = elasticity(fe, ideal)
                neg_report = elasticity(negated, ideal)
                assert (report.is_atomic, report.atomic_lengths) == (
                    neg_report.is_atomic,
                    neg_report.atomic_lengths,
                )
                assert report.atomic_lengths == frozenset(
                    naive_atomic_lengths(fe, ideal)
                )
                checked += 1
    print(f"\nPASS criterion 7: {checked} elements re-verified and matched "
          "against the naive oracle over the four order-4 setups")
