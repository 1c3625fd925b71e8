"""Cross-validation suites: closed-form predictors against the oracle.

The predictor suites draw seeded random censuses, materialize each census
as an actual factored element using bounded-search witness primes, and
require the predictor's atomicity verdict, length set, and elasticity to
match the enumeration oracle exactly.  Cases the predictor declines
(no-closed-form) still run the oracle and are reported separately.

The integer survey walks every product of at most six primes below 50.
Because blocks enter factorizations only through their residues and primes
sharing a residue class are interchangeable, the atomic-length set of a
product depends only on the multiset of prime residues; the survey
therefore runs the oracle once per residue census and maps every product
onto its census.  A seeded random sample of 120 products per modulus is
re-run directly against the oracle to cross-check that reduction.

Every row a suite returns carries its own verdict ``ok``, decided here and
nowhere else; a suite passes when all of its rows are ok:

- ``lemma1``..``lemma4`` (``SuiteCase``): the predictor's atomicity, length
  set and elasticity equal the oracle's, unless the predictor has no closed
  form; for the half-factorial classes of lemmas 1-3 an atomic element
  must also have exactly one atomic length.  A case whose oracle run
  exceeds the budget is reported and counted ok.
- ``main`` (``SequenceRow``): x^i (x+1)^i is atomic with length set
  exactly {1} for i = 1 and {2, ..., i} after, and min, max and
  elasticity (1, 1, 1) and (2, i, i/2) to match.
- ``hfd-z-small`` (``SurveyResult``): no cross-check failure, and the
  largest elasticity is exactly 1 modulo 1, 2 and 3, at most 2 otherwise.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .engine import DEFAULT_BUDGET, ElasticityReport, EnumerationBudget, elasticity
from .errors import BudgetExceeded
from .poly import Poly
from .predictors import Atomicity, PredictionContext, prediction_context, sequence_element
from .quotient import Ideal
from .rings import Element, FactoredElement, Ring, build_factored, is_prime_int

SUITE_IDEALS = {
    "lemma1": Ideal(Ring.ZX, 4, Poly.x()),
    "lemma2": Ideal(Ring.ZX, 2, Poly((1, 0, 1))),
    "lemma3": Ideal(Ring.ZX, 2, Poly((1, 1, 1))),
    "lemma4": Ideal(Ring.ZX, 2, Poly((0, 1, 1))),
}

HALF_FACTORIAL_SUITES = ("lemma1", "lemma2", "lemma3")

# Moduli whose survey must find elasticity exactly 1; any other modulus
# must stay at or below 2.
HALF_FACTORIAL_MODULI = (1, 2, 3)
SURVEY_MODULI = (1, 2, 3, 12, 18)


@dataclass
class SuiteCase:
    element: str
    census: tuple[int, int, int, int]
    predicted: str
    oracle: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    cases: list[SuiteCase] = field(default_factory=list)
    no_closed_form: int = 0

    @property
    def checked(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if not c.ok)


def _materialize(ctx: PredictionContext, counts, pools, unit: int) -> FactoredElement:
    """Turn a per-role census into a factored element, spreading each
    role's multiplicity over that role's witness primes."""
    parts = [
        (pools[role][j % len(pools[role])], 1)
        for role, count in counts.items()
        for j in range(count)
    ]
    return build_factored(ctx.ideal.ring, unit, parts)


def _describe(atomicity: Atomicity, lengths, rho) -> str:
    """A predicted or an oracle profile as it prints in a case row."""
    if atomicity is Atomicity.ATOMIC:
        return f"atomic lengths={sorted(lengths)} rho={rho}"
    return atomicity.value


def run_predictor_suite(
    suite: str,
    samples: int = 200,
    seed: int = 0,
    budget: EnumerationBudget = DEFAULT_BUDGET,
    bound: int = 50,
) -> SuiteReport:
    ideal = SUITE_IDEALS[suite]
    ctx = prediction_context(ideal, bound)
    roles = ctx.iso.roles
    pools = ctx.witnesses()
    rng = random.Random(seed)
    report = SuiteReport(suite)
    half_factorial = suite in HALF_FACTORIAL_SUITES
    max_total = max(1, min(8, budget.max_primes))

    for _ in range(samples):
        total = rng.randint(1, max_total)
        counts = {role: 0 for role in roles}
        for _ in range(total):
            counts[roles[rng.randrange(4)]] += 1
        fe = _materialize(ctx, counts, pools, rng.choice((1, -1)))
        census = ctx.census(fe)
        profile = ctx.predict(fe, census)
        try:
            oracle = elasticity(fe, ideal, budget)
        except BudgetExceeded as exc:
            # reported, not fatal: the case is skipped rather than failed
            shown, problems, detail = "budget-exceeded", [], str(exc)
        else:
            oracle_atomicity = Atomicity.ATOMIC if oracle.is_atomic else Atomicity.NOT_ATOMIC
            shown = _describe(oracle_atomicity, oracle.atomic_lengths, oracle.elasticity)
            problems = []
            if profile.atomicity is Atomicity.NO_CLOSED_FORM:
                report.no_closed_form += 1
            elif profile.atomicity is not oracle_atomicity:
                problems.append("atomicity mismatch")
            elif oracle.is_atomic and (
                profile.lengths != oracle.atomic_lengths
                or profile.elasticity != oracle.elasticity
            ):
                problems.append("length-set mismatch")
            if half_factorial and oracle.is_atomic and len(oracle.atomic_lengths) != 1:
                problems.append("multiple atomic lengths")
            detail = "; ".join(problems)
        report.cases.append(
            SuiteCase(
                element=str(fe),
                census=(census.k, census.l, census.m, census.n),
                predicted=_describe(profile.atomicity, profile.lengths, profile.elasticity),
                oracle=shown,
                ok=not problems,
                detail=detail,
            )
        )
    return report


@dataclass
class SequenceRow:
    i: int
    min_len: int
    max_len: int
    elasticity: Fraction
    ok: bool


def run_main_sequence(
    max_i: int, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[SequenceRow]:
    """Oracle elasticity of x^i (x+1)^i under (2, x^2+x) for i = 1..max_i,
    checked against the expected length sets ({1} for i = 1, {2..i} after).

    Rows are computed from max_i down, so the costliest element meets the
    budget before any other row is computed, and returned in ascending i."""
    ideal = SUITE_IDEALS["lemma4"]
    rows = []
    for i in range(max_i, 0, -1):
        report = elasticity(sequence_element(i), ideal, budget)
        lengths = frozenset({1} if i == 1 else range(2, i + 1))
        lo, hi = min(lengths), max(lengths)
        ok = report.is_atomic and (
            report.atomic_lengths, report.min_len, report.max_len, report.elasticity
        ) == (lengths, lo, hi, Fraction(hi, lo))
        rows.append(SequenceRow(i, report.min_len, report.max_len, report.elasticity, ok))
    return rows[::-1]


@dataclass
class SurveyResult:
    modulus: int
    elements: int
    censuses: int
    atomic_elements: int
    non_atomic_elements: int
    max_elasticity: Optional[Fraction]
    max_witness: Optional[str]
    attained_two: list[str]
    crosschecked: int
    crosscheck_failures: int
    ok: bool


def run_small_integer_survey(
    seed: int = 0, budget: EnumerationBudget = DEFAULT_BUDGET
) -> dict[int, SurveyResult]:
    primes = [p for p in range(2, 50) if is_prime_int(p)]
    multisets = [
        combo
        for size in range(1, 7)
        for combo in itertools.combinations_with_replacement(primes, size)
    ]
    results = {}
    for modulus in SURVEY_MODULI:
        ideal = Ideal(Ring.Z, modulus)
        cache: dict[tuple[int, ...], ElasticityReport] = {}
        best: Optional[Fraction] = None
        best_witness = None
        attained = []
        atomic_elements = 0
        non_atomic = 0
        for combo in multisets:
            key = tuple(sorted(p % modulus for p in combo))
            report = cache.get(key)
            if report is None:
                report = cache[key] = elasticity(_as_factored(combo), ideal, budget)
            if not report.is_atomic:
                non_atomic += 1
                continue
            atomic_elements += 1
            if best is None or report.elasticity > best:
                best = report.elasticity
                best_witness = _combo_str(combo)
            if report.elasticity == 2 and len(attained) < 5:
                attained.append(_combo_str(combo))

        rng = random.Random(seed)
        failures = 0
        picks = rng.sample(multisets, min(120, len(multisets)))
        for combo in picks:
            key = tuple(sorted(p % modulus for p in combo))
            direct = elasticity(_as_factored(combo), ideal, budget)
            cached = cache[key]
            if (direct.is_atomic, direct.atomic_lengths) != (
                cached.is_atomic,
                cached.atomic_lengths,
            ):
                failures += 1

        max_allowed = 1 if modulus in HALF_FACTORIAL_MODULI else 2
        results[modulus] = SurveyResult(
            modulus=modulus,
            elements=len(multisets),
            censuses=len(cache),
            atomic_elements=atomic_elements,
            non_atomic_elements=non_atomic,
            max_elasticity=best,
            max_witness=best_witness,
            attained_two=attained,
            crosschecked=len(picks),
            crosscheck_failures=failures,
            ok=failures == 0 and best is not None and best <= max_allowed,
        )
    return results


def _as_factored(combo) -> FactoredElement:
    return build_factored(Ring.Z, 1, [(Element.integer(p), 1) for p in combo])


def _combo_str(combo) -> str:
    return f"{math.prod(combo)} = " + "*".join(str(p) for p in combo)
