from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from taufact import predictors, quotient
from taufact.engine import elasticity
from taufact.errors import InternalCheckFailed, NoWitnessPrime, NotOrderFour
from taufact.poly import Poly
from taufact.predictors import (
    Atomicity,
    Census,
    PredictionContext,
    build_iso_map,
    predict_f4,
    predict_z4,
    predict_zx_x2p1,
    predict_zx_x2px,
    prediction_context,
    sequence_element,
)
from taufact.quotient import Ideal, IsoClass, cayley_table, classify, reduce
from taufact.rings import Element, Ring, build_factored, constant, expand

I4 = Ideal(Ring.Z, 4)
I4X = Ideal(Ring.ZX, 4, Poly.x())
IX2P1 = Ideal(Ring.ZX, 2, Poly((1, 0, 1)))
IX2PX1 = Ideal(Ring.ZX, 2, Poly((1, 1, 1)))
IX2PX = Ideal(Ring.ZX, 2, Poly((0, 1, 1)))
X = Element.polynomial(Poly.x())
XP1 = Element.polynomial(Poly((1, 1)))


def zx(coeffs):
    return Element.polynomial(Poly(coeffs))


def test_iso_map_identity_cases():
    iso = build_iso_map(IX2PX)
    assert iso.iso_class is IsoClass.Z2X_X2PX
    assert iso.role_of(reduce(X, IX2PX)) == "x"
    assert iso.role_of(reduce(XP1, IX2PX)) == "x+1"

    iso = build_iso_map(I4X)
    assert iso.role_of(reduce(zx((2,)), I4X)) == "2"

    iso = build_iso_map(IX2P1)
    assert iso.role_of(reduce(XP1, IX2P1)) == "x+1"  # the nilpotent class


def test_iso_map_nonidentity_quotient():
    # F2[x]/(x^2): x is the nilpotent, so it must land in the x+1 role of
    # the model ring F2[x]/(x^2+1)
    ideal = Ideal(Ring.ZX, 2, Poly((0, 0, 1)))
    iso = build_iso_map(ideal)
    assert iso.iso_class is IsoClass.Z2X_X2P1
    assert iso.role_of(reduce(X, ideal)) == "x+1"
    assert iso.role_of(reduce(XP1, ideal)) == "x"


def test_iso_map_rejects_non_order4():
    with pytest.raises(NotOrderFour):
        build_iso_map(Ideal(Ring.Z, 5))


def test_census_examples():
    iso = build_iso_map(IX2PX)
    fe = build_factored(Ring.ZX, 1, [(X, 3), (XP1, 3)])
    assert PredictionContext(IX2PX, iso, 50).census(fe) == Census(0, 3, 3, 0)

    iso = build_iso_map(I4)
    fe = build_factored(Ring.Z, 1, [(Element.integer(2), 2), (Element.integer(5), 1)])
    assert PredictionContext(I4, iso, 50).census(fe) == Census(1, 2, 0, 0)

    iso = build_iso_map(I4X)
    fe = build_factored(Ring.ZX, 1, [(zx((2,)), 1), (zx((2, 1)), 1), (X, 1)])
    assert PredictionContext(I4X, iso, 50).census(fe) == Census(0, 2, 0, 1)


def test_predict_z4():
    profile = predict_z4(Census(1, 2, 0, 0), "0")
    assert profile.atomicity is Atomicity.ATOMIC and profile.lengths == {2}

    profile = predict_z4(Census(0, 2, 0, 1), "0")
    assert profile.atomicity is Atomicity.NOT_ATOMIC

    profile = predict_z4(Census(3, 0, 2, 0), "1")
    assert profile.lengths == {5}

    profile = predict_z4(Census(2, 1, 3, 0), "2")
    assert profile.lengths == {1}

    profile = predict_z4(Census(0, 1, 0, 2), "0")
    assert profile.atomicity is Atomicity.ATOMIC and profile.lengths == {2}


def test_predict_zx_x2p1():
    profile = predict_zx_x2p1(Census(2, 1, 0, 0))
    assert profile.lengths == {1}

    profile = predict_zx_x2p1(Census(0, 0, 2, 1))
    assert profile.atomicity is Atomicity.NOT_ATOMIC

    profile = predict_zx_x2p1(Census(1, 2, 0, 3))
    assert profile.lengths == {3}

    profile = predict_zx_x2p1(Census(4, 0, 0, 0))
    assert profile.lengths == {4}


def test_predict_f4():
    profile = predict_f4(Census(0, 0, 2, 2))
    assert profile.lengths == {2}

    profile = predict_f4(Census(0, 3, 2, 1))
    assert profile.atomicity is Atomicity.NOT_ATOMIC

    profile = predict_f4(Census(2, 1, 1, 0))
    assert profile.lengths == {2}

    # identity-class primes stand alone next to the x/x+1 pairs
    profile = predict_f4(Census(0, 1, 1, 1))
    assert profile.lengths == {2}

    # one-sided censuses are atomic even though m != n
    profile = predict_f4(Census(0, 1, 1, 0))
    assert profile.atomicity is Atomicity.ATOMIC and profile.lengths == {1}

    profile = predict_f4(Census(0, 0, 3, 0))
    assert profile.lengths == {3}


def test_predict_zx_x2px():
    profile = predict_zx_x2px(Census(0, 3, 3, 0))
    assert profile.lengths == {2, 3}
    assert profile.elasticity == Fraction(3, 2)
    assert "length-interval" in profile.derived

    profile = predict_zx_x2px(Census(0, 2, 2, 0))
    assert profile.lengths == {2} and profile.elasticity == 1

    profile = predict_zx_x2px(Census(0, 1, 4, 0))
    assert profile.lengths == {1}

    profile = predict_zx_x2px(Census(2, 3, 0, 0))
    assert profile.lengths == {3}

    profile = predict_zx_x2px(Census(0, 1, 1, 1))
    assert profile.atomicity is Atomicity.NO_CLOSED_FORM


def test_sequence_element():
    fe = sequence_element(4)
    assert expand(fe) == expand(build_factored(Ring.ZX, 1, [(X, 4), (XP1, 4)]))
    report = elasticity(fe, IX2PX)
    assert report.elasticity == Fraction(2)

    assert elasticity(sequence_element(1), IX2PX).elasticity == 1
    with pytest.raises(ValueError):
        sequence_element(0)


def test_prediction_context_facts():
    ctx = prediction_context(IX2PX)
    assert (ctx.iso.iso_class, ctx.bound) == (IsoClass.Z2X_X2PX, 50)
    pools = ctx.witnesses()
    assert pools["x"][0] == X and pools["x+1"][0] == XP1

    ctx = prediction_context(IX2PX1, 20)
    pools = {role: pool[:2] for role, pool in ctx.witnesses().items()}
    assert list(pools) == list(ctx.iso.roles)
    for role, pool in pools.items():
        assert len(pool) == 2
        assert all(ctx.iso.role_of(reduce(p, IX2PX1)) == role for p in pool)


def test_f4_prediction_needs_no_prime_search():
    """At bound 0 the F4 ideal has roles with no witness below the bound;
    the prediction for x(x+1) must still match the oracle."""
    ctx = prediction_context(IX2PX1, 0)
    with pytest.raises(NoWitnessPrime, match="below bound 0"):
        ctx.witnesses()
    fe = build_factored(Ring.ZX, 1, [(X, 1), (XP1, 1)])
    profile = ctx.predict(fe)
    report = elasticity(fe, IX2PX1)
    assert (profile.atomicity is Atomicity.ATOMIC) == report.is_atomic
    assert profile.lengths == report.atomic_lengths == {1}
    assert profile.elasticity == report.elasticity


def test_context_predicts_sequence_profile():
    ctx = prediction_context(IX2PX)
    profile = ctx.predict(sequence_element(5))
    assert profile.lengths == frozenset(range(2, 6))
    assert profile.elasticity == Fraction(5, 2)


def test_context_predicts_z4_census():
    fe = build_factored(Ring.Z, 1, [(Element.integer(2), 2), (Element.integer(5), 1)])
    profile = prediction_context(I4).predict(fe)
    assert profile.atomicity is Atomicity.ATOMIC and profile.lengths == {2}


@pytest.mark.parametrize(
    "ideal",
    [I4, I4X, IX2P1, IX2PX1, IX2PX, Ideal(Ring.ZX, 2, Poly((0, 0, 1)))],
)
def test_unit_classes_map_into_roles(ideal):
    iso = build_iso_map(ideal)
    units = {iso.role_of(reduce(constant(ideal.ring, u), ideal)) for u in (1, -1)}
    assert units == ({"1", "3"} if iso.iso_class is IsoClass.Z4 else {"1"})


@pytest.mark.parametrize("ideal", [I4X, IX2P1, IX2PX1, IX2PX])
def test_predictor_agrees_with_oracle_exhaustively_small(ideal):
    """Every census with at most 6 primes, one witness prime per role."""
    import itertools

    ctx = prediction_context(ideal)
    witnesses = {role: pool[0] for role, pool in ctx.witnesses().items()}
    roles = list(ctx.iso.roles)
    for counts in itertools.product(range(7), repeat=4):
        if not 1 <= sum(counts) <= 6:
            continue
        parts = [
            (witnesses[role], count)
            for role, count in zip(roles, counts)
            if count
        ]
        fe = build_factored(Ring.ZX, 1, parts)
        profile = ctx.predict(fe)
        report = elasticity(fe, ideal)
        if profile.atomicity is Atomicity.NO_CLOSED_FORM:
            # no length claim, but the oracle must still be sound
            from taufact.engine import enumerate_tau_factorizations

            from naive_oracle import assert_factorization_sound

            for tf in enumerate_tau_factorizations(fe, ideal):
                assert_factorization_sound(tf, fe, ideal)
            continue
        assert (profile.atomicity is Atomicity.ATOMIC) == report.is_atomic, (
            counts,
            profile,
            report,
        )
        if report.is_atomic:
            assert profile.lengths == report.atomic_lengths, (counts, profile, report)
            assert profile.elasticity == report.elasticity


# Every order-4 quotient of the shapes the CLI accepts, up to small
# coefficients: 14 Z4, 45 Z2X_X2P1, 16 F4 and 20 Z2X_X2PX.
ISO_CORPUS = (
    [Ideal(Ring.Z, 4)]
    + [Ideal(Ring.ZX, 4, Poly((a, 1))) for a in range(-6, 7)]
    + [Ideal(Ring.ZX, 2, Poly((a, b, 1))) for a in range(-4, 5) for b in range(-4, 5)]
)


def iso_map_lines():
    """One line per corpus ideal: its class and the role of each residue,
    residues in counting order.  Regenerate the golden (only by hand, and
    only when the role maps are meant to change) with::

        PYTHONPATH=src:tests python3 -c 'import test_predictors as t; \\
            print(*t.iso_map_lines(), sep="\\n")' > tests/goldens/iso_maps.txt
    """
    lines = []
    for ideal in ISO_CORPUS:
        iso = build_iso_map(ideal)
        roles = " ".join(f"{r}->{iso.role_of(r)}" for r in cayley_table(ideal).residues)
        lines.append(f"{ideal} | {iso.iso_class.value} | {roles}")
    return lines


def test_iso_maps_match_golden():
    golden = Path(__file__).parent / "goldens" / "iso_maps.txt"
    assert iso_map_lines() == golden.read_text().splitlines()


def test_presentation_facts_the_predictors_rely_on():
    """Over Z and Z[x] the units are +-1: 1 has role 1 and -1 has role 1,
    or 3 in the Z4 class, on every presentation; outside Z4 both the x and
    the x+1 role hold primes below bound 50."""
    for ideal in ISO_CORPUS:
        ctx = prediction_context(ideal)
        role = {u: ctx.iso.role_of(reduce(constant(ideal.ring, u), ideal)) for u in (1, -1)}
        assert role[1] == "1", ideal
        assert role[-1] == ("3" if ctx.iso.iso_class is IsoClass.Z4 else "1"), ideal
        if ctx.iso.iso_class is not IsoClass.Z4:
            pools = ctx.witnesses()
            assert pools["x"] and pools["x+1"], ideal


def test_counting_order_is_sort_key_order_on_every_order_four_ideal():
    assert len(ISO_CORPUS) == 95
    for ideal in ISO_CORPUS:
        residues = list(cayley_table(ideal).residues)
        assert sorted(residues, key=lambda r: Element(ideal.ring, r.rep).sort_key) == residues


def test_iso_search_multiplies_each_residue_pair_once(monkeypatch):
    """Each product and sum is computed once, in the quotient's one table,
    by index arithmetic: no residue is multiplied or added."""
    calls = {"cayley_table": 0, "residue_ops": 0}
    for name in calls:
        real = getattr(quotient, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        # Patched wherever the iso search could look the name up.
        for module in (quotient, predictors):
            monkeypatch.setattr(module, name, counting, raising=False)
    build_iso_map(Ideal(Ring.ZX, 2, Poly((0, 1, 1))))
    assert calls == {"cayley_table": 1, "residue_ops": 0}
    assert not hasattr(quotient, "residue_add") and not hasattr(predictors, "residue_add")


def test_iso_map_rejects_tables_that_do_not_transport(monkeypatch):
    # The quotient is equal to, but not the same object as, the model ring
    # of its class, so only its own sum table is corrupted: x + (x+1) -> 0.
    ideal = Ideal(Ring.ZX, 2, Poly((0, 1, 1)))
    real = predictors.cayley_table

    def corrupted(target):
        table = real(target)
        if target is not ideal:
            return table
        x, x1 = (table.residues.index(reduce(p, ideal)) for p in (X, zx((1, 1))))
        rows = [list(row) for row in table.sum]
        rows[x][x1] = 0
        return replace(table, sum=tuple(map(tuple, rows)))

    monkeypatch.setattr(predictors, "cayley_table", corrupted)
    with pytest.raises(InternalCheckFailed):
        build_iso_map(ideal)
    # The class is decided by the same bijection, so it is Other too.
    assert classify(corrupted(ideal))[1] is IsoClass.OTHER
    # An equal ideal that is another object still maps: the model is intact.
    assert build_iso_map(Ideal(Ring.ZX, 2, Poly((0, 1, 1)))).iso_class is IsoClass.Z2X_X2PX


def test_predictor_suite_reports_budget_exceeded_cases(monkeypatch):
    """A case whose oracle run exceeds the budget is an ok row that names
    the budget error and still shows its census and prediction."""
    from taufact import verify
    from taufact.engine import EnumerationBudget
    from taufact.errors import BudgetExceeded

    real = verify.elasticity
    raised = []

    def recording(fe, ideal, budget):
        try:
            return real(fe, ideal, budget)
        except BudgetExceeded as exc:
            raised.append(str(exc))
            raise

    full = verify.run_predictor_suite("lemma4", samples=12, seed=2)
    monkeypatch.setattr(verify, "elasticity", recording)
    tight = verify.run_predictor_suite(
        "lemma4", samples=12, seed=2, budget=EnumerationBudget(max_partitions=50)
    )
    exceeded = [i for i, case in enumerate(tight.cases) if case.oracle == "budget-exceeded"]
    assert 0 < len(exceeded) < len(tight.cases) and len(raised) == len(exceeded)
    for i, message in zip(exceeded, raised):
        case, same = tight.cases[i], full.cases[i]
        assert case.ok is True and case.detail == message
        assert (case.element, case.census, case.predicted) == (
            same.element, same.census, same.predicted,
        )
        assert case.census != (0, 0, 0, 0) and case.predicted
    kept = [i for i in range(len(tight.cases)) if i not in exceeded]
    assert [tight.cases[i] for i in kept] == [full.cases[i] for i in kept]
    assert tight.no_closed_form == sum(
        1 for i in kept if tight.cases[i].predicted == "no-closed-form"
    )
