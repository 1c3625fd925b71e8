"""The benchmark workloads: inputs from a seed, the timed call, checks.

Every workload drives taufact only through its public functions or the CLI
entry point, and builds its inputs in set-up so that a timed case is one
element decided: one oracle call plus the predictor on ``suites``, one CLI
invocation on ``listing``.  Inputs are stratified: every seed gets the same
number of cases of each shape, so the work per run barely moves with the
seed.

Each workload has three checks.  ``check`` runs inside the timed phase and
compares a case with a closed form.  ``check_all`` compares cases with each
other.  ``check_naive`` runs after the timed phase and compares cases with
the independent brute-force oracle in ``tests/naive_oracle.py`` and with
independent arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import taufact as tf

NAIVE_MAX_PRIMES = 5


@dataclass
class Case:
    id: int
    primes: int  # total prime multiplicity; 0 for classify
    data: dict = field(default_factory=dict)


def _int_partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _int_partitions(n - first, first):
            yield (first,) + rest


def _present(rng: random.Random, factors) -> tuple[int, list]:
    """A random presentation of a factored element: the unit, an associate
    sign per factor, exponents split into chunks, and a shuffled order."""
    parts = []
    for elem, exp in factors:
        while exp:
            chunk = rng.randint(1, exp)
            exp -= chunk
            parts.append((-elem if rng.random() < 0.5 else elem, chunk))
    rng.shuffle(parts)
    return rng.choice((1, -1)), parts


def _report_payload(report) -> list:
    return [
        report.is_atomic,
        sorted(report.atomic_lengths),
        str(report.elasticity),
        report.factorization_count,
        report.atomic_count,
    ]


def _check_report(report) -> str | None:
    if report.is_atomic:
        lo, hi = min(report.atomic_lengths), max(report.atomic_lengths)
        if (report.min_len, report.max_len) != (lo, hi):
            return "min/max length disagree with the length set"
        if report.elasticity != Fraction(hi, lo):
            return "elasticity is not max/min"
        if not 1 <= report.atomic_count <= report.factorization_count:
            return "atomic count out of range"
    elif report.atomic_lengths or report.atomic_count:
        return "non-atomic report carries atomic lengths"
    return None


def _naive_elasticity(case: Case, payload) -> str | None:
    from naive_oracle import naive_atomic_lengths, naive_factorizations

    if case.primes > NAIVE_MAX_PRIMES:
        return None
    fe, ideal = case.data["fe"], case.data["ideal"]
    if sorted(naive_atomic_lengths(fe, ideal)) != payload[1]:
        return "atomic lengths differ from the naive oracle"
    if len(naive_factorizations(fe, ideal)) != payload[3]:
        return "factorization count differs from the naive oracle"
    return None


class Workload:
    """Seeded cases in ``self.cases``; subclasses define ``run`` and ``check``."""

    cases: list[Case]

    def check_all(self, payloads) -> dict:
        """Problems found by comparing cases with each other, by case id."""
        return {}

    def check_naive(self, case: Case, payload) -> str | None:
        return _naive_elasticity(case, payload)


# ---------------------------------------------------------------------------
# suites: predictor versus oracle over the four order-4 quotient classes


def _zx(*coeffs) -> "tf.Poly":
    return tf.Poly(tuple(coeffs))


SUITE_IDEALS = {
    # suite: (modulus, generator coefficients low degree first, half-factorial)
    "lemma1": (4, (0, 1), True),
    "lemma2": (2, (1, 0, 1), True),
    "lemma3": (2, (1, 1, 1), True),
    "lemma4": (2, (0, 1, 1), False),
}


def _spread(count: int, witnesses: int) -> list[int]:
    """Multiplicities of the witness primes that carry ``count`` primes of
    one role, one witness after another as ``run_predictor_suite`` does."""
    return [len(range(j, count, witnesses)) for j in range(min(count, witnesses))]


def _censuses(rng: random.Random, roles: int, total: int, n: int, witnesses: int) -> list[tuple]:
    """``n`` role-count vectors of ``total`` primes, sampled systematically
    from the multinomial law of drawing each prime's role uniformly: a
    seeded offset, then ``n`` evenly spaced quantiles of the cumulative
    weights.  The vectors are ordered by the multiplicities of the element
    they materialise to, which set most of its cost, so that every seed
    draws about the same mix of cheap and dear cases."""
    vectors = [v for v in itertools.product(range(total + 1), repeat=roles) if sum(v) == total]

    def shape(v):
        mults = sorted((m for c in v for m in _spread(c, witnesses)), reverse=True)
        return len(mults), mults, v

    vectors.sort(key=shape)
    weights = [math.factorial(total) // math.prod(map(math.factorial, v)) for v in vectors]
    step = sum(weights) / n
    point = rng.random() * step
    out, acc = [], 0
    for vector, weight in zip(vectors, weights):
        acc += weight
        while len(out) < n and point < acc:
            out.append(vector)
            point += step
    return out


class Suites(Workload):
    """``verify lemma1..4`` as ``run_predictor_suite`` draws it: a census
    total uniform over 1..8 primes, each prime's role uniform over the four
    residue roles, materialised with the first three witness primes of each
    role below 50 and a random unit.  The draw is stratified so that the
    work of a round hardly depends on the seed: each suite gets
    ``per_total`` censuses of every total, sampled systematically from the
    law of role counts (``_censuses``), decided in seeded order."""

    max_total = 8  # run_predictor_suite's default
    per_total = 5
    witnesses = 3
    bound = 50

    def __init__(self, seed: int):
        rng = random.Random(f"suites/{seed}")
        self.cases: list[Case] = []
        for suite, (modulus, gen, half_factorial) in SUITE_IDEALS.items():
            ideal = tf.Ideal(tf.Ring.ZX, modulus, _zx(*gen))
            ctx = tf.prediction_context(ideal, self.bound)
            roles = sorted(ctx.iso.roles)
            pools = [
                list(itertools.islice(
                    tf.find_primes_in_class(ideal, ctx.iso.residue_of(role), self.bound),
                    self.witnesses,
                ))
                for role in roles
            ]
            censuses = [
                counts
                for total in range(1, self.max_total + 1)
                for counts in _censuses(rng, len(roles), total, self.per_total, self.witnesses)
            ]
            rng.shuffle(censuses)
            for counts in censuses:
                tally: Counter = Counter()
                for pool, count in zip(pools, counts):
                    for j in range(count):
                        tally[pool[j % len(pool)]] += 1
                fe = tf.build_factored(ideal.ring, rng.choice((1, -1)), list(tally.items()))
                self.cases.append(Case(len(self.cases), sum(counts), {
                    "ideal": ideal, "ctx": ctx, "fe": fe, "half_factorial": half_factorial,
                }))

    def run(self, case: Case):
        d = case.data
        return tf.elasticity(d["fe"], d["ideal"]), d["ctx"].predict(d["fe"])

    def check(self, case: Case, result):
        report, profile = result
        payload = _report_payload(report)
        problem = _check_report(report)
        if problem:
            return payload, problem
        kind = profile.atomicity.value
        if kind != "no-closed-form":
            if (kind == "atomic") != report.is_atomic:
                return payload, "atomicity differs from the predictor"
            if report.is_atomic and (
                profile.lengths != report.atomic_lengths
                or profile.elasticity != report.elasticity
            ):
                return payload, "length set differs from the predictor"
        if case.data["half_factorial"] and report.is_atomic and len(report.atomic_lengths) != 1:
            return payload, "several atomic lengths in a half-factorial class"
        return payload, None


# ---------------------------------------------------------------------------
# main_sequence: x^i (x+1)^i under (2, x^2+x)


class MainSequence(Workload):
    """``verify main`` and ``sequence``: x^i (x+1)^i for i = 3..9 in four
    seeded presentations each (unit, associate signs, exponent chunks,
    factor order), which must give identical results.  Seven groups of four
    cases put the median and the tail case inside the groups of i = 6 and
    i = 7, away from a jump between groups."""

    min_i, max_i = 3, 9
    presentations = 4
    budget_primes = 18  # 2 * max_i; the default budget stops at 14 primes

    def __init__(self, seed: int):
        ideal = tf.Ideal(tf.Ring.ZX, 2, _zx(0, 1, 1))
        budget = tf.EnumerationBudget(max_primes=self.budget_primes)
        x = tf.Element.polynomial(_zx(0, 1))
        xp1 = tf.Element.polynomial(_zx(1, 1))
        rngs = [random.Random(f"main_sequence/{seed}/{k}") for k in range(self.presentations)]
        self.cases = []
        for i in range(self.min_i, self.max_i + 1):
            for rng in rngs:
                unit, parts = _present(rng, [(x, i), (xp1, i)])
                fe = tf.build_factored(ideal.ring, unit, parts)
                self.cases.append(Case(len(self.cases), 2 * i, {
                    "i": i, "ideal": ideal, "fe": fe, "budget": budget,
                }))

    def run(self, case: Case):
        d = case.data
        return tf.elasticity(d["fe"], d["ideal"], d["budget"])

    def check(self, case: Case, report):
        payload = _report_payload(report)
        problem = _check_report(report)
        if problem:
            return payload, problem
        i = case.data["i"]
        if not report.is_atomic or set(report.atomic_lengths) != set(range(2, i + 1)):
            return payload, f"length set is not {{2..{i}}}"
        if report.elasticity != Fraction(i, 2):
            return payload, f"elasticity is not {i}/2"
        return payload, None

    def check_all(self, payloads) -> dict:
        """Presentation invariance: one result per i."""
        by_i: dict = {}
        for case in self.cases:
            by_i.setdefault(case.data["i"], []).append(case.id)
        problems = {}
        for i, ids in by_i.items():
            if len({repr(payloads.get(c)) for c in ids}) > 1:
                problems.update({c: f"presentations of x^{i} (x+1)^{i} disagree" for c in ids})
        return problems


# ---------------------------------------------------------------------------
# z_survey: products of at most 6 primes below 50 over Z


def _small_primes(bound: int) -> list[int]:
    return [p for p in range(2, bound) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _shape_count(shape, n: int) -> int:
    """Multisets over n items whose multiplicities form ``shape``."""
    count = math.perm(n, len(shape))
    for repeats in Counter(shape).values():
        count //= math.factorial(repeats)
    return count


def _allocate(total: int, weights: dict) -> dict:
    """Split ``total`` in proportion to weights by largest remainder."""
    whole = sum(weights.values())
    exact = {k: total * w / whole for k, w in weights.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: (-(exact[k] - out[k]), k))[: total - sum(out.values())]:
        out[k] += 1
    return out


class ZSurvey(Workload):
    """Products of at most 6 primes below 50 over Z modulo 1, 2, 3, 12 and
    18, each decided by ``elasticity`` directly: a fixed number of distinct
    products per size and modulus, split over multiplicity shapes in
    proportion to how many products each shape has."""

    moduli = (1, 2, 3, 12, 18)
    per_size = {1: 15, 2: 60, 3: 60, 4: 60, 5: 60, 6: 60}
    prime_bound = 50

    def __init__(self, seed: int):
        primes = _small_primes(self.prime_bound)
        self.cases = []
        for modulus in self.moduli:
            rng = random.Random(f"z_survey/{seed}/{modulus}")
            ideal = tf.Ideal(tf.Ring.Z, modulus)
            for size, wanted in self.per_size.items():
                shapes = {s: _shape_count(s, len(primes)) for s in _int_partitions(size)}
                seen = set()
                for shape, count in _allocate(wanted, shapes).items():
                    for _ in range(count):
                        while True:
                            key = tuple(sorted(zip(rng.sample(primes, len(shape)), shape)))
                            if key not in seen:
                                seen.add(key)
                                break
                        unit, parts = _present(rng, [(tf.Element.integer(p), e) for p, e in key])
                        fe = tf.build_factored(tf.Ring.Z, unit, parts)
                        self.cases.append(Case(len(self.cases), size, {
                            "modulus": modulus, "ideal": ideal, "fe": fe,
                        }))

    def run(self, case: Case):
        return tf.elasticity(case.data["fe"], case.data["ideal"])

    def check(self, case: Case, report):
        payload = _report_payload(report)
        problem = _check_report(report)
        if problem:
            return payload, problem
        if case.data["modulus"] in (1, 2, 3):
            if not report.is_atomic or report.elasticity != 1:
                return payload, "elasticity is not exactly 1"
        elif report.is_atomic and report.elasticity > 2:
            return payload, "elasticity exceeds 2"
        return payload, None


# ---------------------------------------------------------------------------
# listing: CLI classify and factorizations, in-process


def _render_poly(coeffs) -> str:
    """Polynomial text in the CLI syntax, highest degree first."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            xpart = "x" if power == 1 else f"x^{power}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


_TERM = re.compile(r"^([+-])(?:(\d+)\*?)?(?:(x)(?:\^(\d+))?)?$")


def _parse_poly(text: str) -> tuple:
    """Coefficients (low degree first, no trailing zeros) of CLI output."""
    if text[0] not in "+-":
        text = "+" + text
    coeffs: dict = {}
    for token in re.findall(r"[+-][^+-]+", text):
        m = _TERM.match(token)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot read polynomial {text!r}")
        power = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        mag = int(m.group(2)) if m.group(2) else 1
        coeffs[power] = coeffs.get(power, 0) + (-mag if m.group(1) == "-" else mag)
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for power, c in coeffs.items():
        out[power] = c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _mulmod(a: tuple, b: tuple, modulus: int, gen: tuple) -> tuple:
    """a * b in (Z/m)[x]/(g) for monic g, as a trimmed coefficient tuple."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    deg = len(gen) - 1
    for top in range(len(out) - 1, deg - 1, -1):
        c = out[top]
        if c:
            for j, gc in enumerate(gen):
                out[top - deg + j] -= c * gc
    out = [c % modulus for c in out[:deg]]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# (ring, modulus, generator degree): quotient orders 4 .. 125
CLASSIFY_PLAN = (
    ("z", 4, 0), ("zx", 2, 2), ("zx", 2, 2), ("zx", 2, 2), ("zx", 2, 3), ("zx", 3, 2),
    ("zx", 4, 2), ("zx", 5, 2), ("zx", 3, 3), ("zx", 7, 2), ("zx", 4, 3), ("zx", 5, 3),
)

FACTOR_IDEALS = ("3", "4", "5", "2, x^2+x", "2, x^2+1", "2, x^2+x+1", "3, x^2+1", "2, x^3+x+1")
Z_PRIMES = ((2,), (3,), (5,), (7,), (11,), (13,))
ZX_PRIMES = (
    (2,), (3,), (0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (1, 0, 1), (1, 1, 1),
    (2, 0, 1), (1, 1, 0, 1), (1, -1, 0, 1), (1, 2, 0, 1), (2, 0, 1, 1),
)
FACTOR_TOTALS = (3, 4, 5, 6)

_LINE = re.compile(r"^lambda=([+-]1) length=(\d+) blocks=\[(.*)\] signs=\[([+,-]*)\] atomic=(yes|no)$")


class Listing(Workload):
    """``taufact classify`` on quotients of order 4 to 125 and ``taufact
    factorizations`` on elements with up to 6 primes, cubics included."""

    def __init__(self, seed: int):
        from taufact import cli

        self.cli = cli
        rng = random.Random(f"listing/{seed}")
        self.cases = []
        for ring, modulus, degree in CLASSIFY_PLAN:
            if ring == "z":
                gen, text = (), str(modulus)
            else:
                tail = [rng.randint(-modulus, modulus) for _ in range(degree)]
                gen = tuple(tail) + (1,)
                text = f"{modulus}, {_render_poly(gen)}"
            args = ["classify", "--ring", ring, "--ideal", text]
            self.cases.append(Case(len(self.cases), 0, {
                "args": args, "kind": "classify", "modulus": modulus,
                "gen": tuple(c % modulus for c in gen[:-1]) + (1,) if gen else (),
            }))
        for ideal_text in FACTOR_IDEALS:
            ring = tf.Ring.ZX if "," in ideal_text else tf.Ring.Z
            pool = ZX_PRIMES if ring is tf.Ring.ZX else Z_PRIMES
            for total in FACTOR_TOTALS:
                for k, shape in enumerate(_int_partitions(total)):
                    if len(shape) > len(pool):
                        continue
                    # The primes are fixed per shape, because the residues
                    # of the primes set how many factorizations are listed;
                    # the seed picks associates, entry order and unit.
                    factors = [
                        (tuple(-c for c in p) if rng.random() < 0.5 else p, e)
                        for p, e in zip((pool[(k + j) % len(pool)] for j in range(len(shape))), shape)
                    ]
                    rng.shuffle(factors)
                    unit = rng.choice((1, -1))
                    spec = ", ".join(f"{_render_poly(p)}:{e}" for p, e in factors)
                    args = ["factorizations", "--ideal", ideal_text, "--primes", spec, "--unit", str(unit)]
                    self.cases.append(Case(len(self.cases), total, {
                        "args": args, "kind": "factorizations", "ring": ring,
                        "ideal_text": ideal_text, "factors": factors, "unit": unit,
                    }))

    def run(self, case: Case) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                self.cli.main(case.data["args"], standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"CLI exited with {exc.code}: {out.getvalue().strip()}") from None
        return out.getvalue()

    def check(self, case: Case, text: str):
        lines = text.splitlines()
        if case.data["kind"] == "classify":
            fields = dict(line.split(": ", 1) for line in lines[:6] if ": " in line)
            order = case.data["modulus"] ** max(len(case.data["gen"]) - 1, 1)
            if fields.get("size") != str(order) or fields.get("characteristic") != str(case.data["modulus"]):
                return text, "size or characteristic is wrong"
            if lines[6:7] != ["cayley:"] or len(lines) != 8 + order:
                return text, "Cayley table has the wrong shape"
            return text, None
        if not lines or lines[0] != f"count: {len(lines) - 1}" or len(lines) < 2:
            return text, "count line does not match the listing"
        for line in lines[1:]:
            m = _LINE.match(line)
            if not m:
                return text, f"unreadable line {line!r}"
            blocks = m.group(3).split(", ")
            if int(m.group(2)) != len(blocks) or len(m.group(4).split(",")) != len(blocks):
                return text, "length, blocks and signs disagree"
        return text, None

    def check_naive(self, case: Case, text: str):
        if case.data["kind"] == "classify":
            return self._check_classify(case, text)
        return self._check_factorizations(case, text)

    def _check_classify(self, case: Case, text: str):
        """Recompute the Cayley table and fingerprint with independent
        arithmetic in (Z/m)[x]/(g)."""
        lines = text.splitlines()
        fields = dict(line.split(": ", 1) for line in lines[:6])
        modulus, gen = case.data["modulus"], case.data["gen"]
        header = lines[7].split()[1:]
        if gen:
            reps = [_parse_poly(s) if s != "0" else () for s in header]
            mul = lambda a, b: _mulmod(a, b, modulus, gen)  # noqa: E731
            zero, one = (), (1,)
            expected = {
                tuple(itertools.dropwhile(lambda c: c == 0, reversed(digits)))[::-1]
                for digits in itertools.product(range(modulus), repeat=len(gen) - 1)
            }
        else:
            reps = [int(s) for s in header]
            mul = lambda a, b: a * b % modulus  # noqa: E731
            zero, one = 0, 1
            expected = set(range(modulus))
        if set(reps) != expected or len(reps) != len(expected):
            return "residues are not the canonical representatives"
        for row, line in zip(reps, lines[8:]):
            cells = line.split()
            read = _parse_poly(cells[0]) if gen and cells[0] != "0" else (() if gen else int(cells[0]))
            if read != row:
                return "row labels differ from the header"
            for col, cell in zip(reps, cells[1:]):
                value = (_parse_poly(cell) if cell != "0" else ()) if gen else int(cell)
                if value != mul(row, col):
                    return f"Cayley cell {cells[0]}*{col} is wrong"
        nilpotent = sum(1 for r in reps if mul(r, r) == zero)
        idempotent = sum(1 for r in reps if mul(r, r) == r)
        units = sum(1 for r in reps if any(mul(r, s) == one for s in reps))
        counts = (str(nilpotent), str(idempotent), str(units))
        if counts != (fields["nilpotent_count"], fields["idempotent_count"], fields["unit_count"]):
            return "fingerprint counts are wrong"
        if len(reps) != 4:
            iso = "Other"
        elif modulus == 4:
            iso = "Z4"
        elif units == 3:
            iso = "F4"
        elif nilpotent == 2:
            iso = "Z2X_X2P1"
        elif idempotent == 4:
            iso = "Z2X_X2PX"
        else:
            iso = "Other"
        if fields["iso_class"] != iso:
            return f"iso class {fields['iso_class']} should be {iso}"
        return None

    def _check_factorizations(self, case: Case, text: str):
        from naive_oracle import (
            assert_factorization_sound,
            naive_atomic_lengths,
            naive_factorizations,
        )

        d = case.data
        ring = d["ring"]

        def element(coeffs):
            if ring is tf.Ring.Z:
                return tf.Element.integer(coeffs[0] if coeffs else 0)
            return tf.Element.polynomial(tf.Poly(tuple(coeffs)))

        ideal = tf.parse_ideal(d["ideal_text"], ring)
        fe = tf.build_factored(ring, d["unit"], [(element(p), e) for p, e in d["factors"]])
        listed = set()
        atomic_lengths = set()
        for line in text.splitlines()[1:]:
            m = _LINE.match(line)
            blocks = tuple(
                element(_parse_poly(b) if ring is tf.Ring.ZX else (int(b),))
                for b in m.group(3).split(", ")
            )
            signs = tuple(1 if s == "+" else -1 for s in m.group(4).split(","))
            factorization = tf.TauFactorization(
                int(m.group(1)),
                tuple(tf.FactoredElement(ring, 1, ((b, 1),)) for b in blocks),
                signs,
            )
            try:
                assert_factorization_sound(factorization, fe, ideal)
            except AssertionError:
                return f"listed factorization does not multiply back: {line}"
            listed.add(tuple(sorted(blocks, key=lambda e: e.sort_key)))
            if m.group(5) == "yes":
                atomic_lengths.add(len(blocks))
        if len(listed) != len(text.splitlines()) - 1:
            return "a factorization is listed twice"
        if fe.total_multiplicity <= NAIVE_MAX_PRIMES:
            if listed != naive_factorizations(fe, ideal):
                return "listed factorizations differ from the naive oracle"
            if atomic_lengths != naive_atomic_lengths(fe, ideal):
                return "atomic flags differ from the naive oracle"
        return None


WORKLOADS = {
    "suites": Suites,
    "main_sequence": MainSequence,
    "z_survey": ZSurvey,
    "listing": Listing,
}
