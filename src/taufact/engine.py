"""Exhaustive tau-factorization oracle.

A tau-factorization of a factored element splits its prime multiset into
blocks and attaches a sign to each block so that all signed block products
are pairwise congruent modulo the ideal; the leftover unit lambda makes the
product exact.  Factorizations are counted up to block order and associates,
and under that identification a candidate is exactly one multiset partition
of the primes: block products of canonical primes are themselves canonical,
and unique factorization keeps distinct partitions distinct.

The units of Z and Z[x] are 1 and -1, so a partition admits signs exactly
when every block lies in one class {r, -r} of residues up to sign.  The
enumeration therefore lists, class by class, the partitions into blocks of
one class, and every partition it yields is a tau-factorization.  The witness
signs a block +1 when its residue equals the first block's residue and -1
otherwise; the enumerator sorts blocks first, so the witness is
reproducible.

Only residues decide the classes, so each prime is reduced once and a
block's residue is built from a smaller block's residue times one prime's
residue.  Over Z[x] the kernel's residues are canonical ``Poly``
representatives, compared and hashed without the ideal, which one call
never changes; a ``Residue`` is built once per prime by ``reduce``, and
once per distinct residue of the listing's table.  Over Z they are still
``Residue`` values, through ``reduce``, until ROADMAP item 1.

The kernel and the walk share one packed layout: a sub-vector is one int,
coordinate 0 most significant, each field one guard bit wider than the
largest multiplicity needs, so sums under the vector never carry and
numeric order is lex order.  The listing runs the counting kernel below
first: its counts bound the blocks the walk examines, flag each block as a
tau-atom or not, and pick the classes that partition the whole vector, the
only ones ``vector_partitions`` walks.  The listing is a table with one
entry per distinct block, ranked by its product's sort key (the product is
built by the same recursion, on ints or coefficient lists), and one row of
ascending ranks per factorization, whose count must equal the kernel's.
The rows are the listing's only form; a printer reads them as they are.

Counts need no listing.  For each sign class K, a knapsack over the
sub-vectors of class K counts the multisets of them summing to each
sub-vector w of the multiplicity vector; summed over K, that is the number
of tau-factorizations of w, and w is a tau-atom exactly when it is 1.
(Not the class of w alone: 2*2 modulo 5 lies in {1, 4}, splits in {2, 3}.)
A second knapsack per class, over atoms only, grades its counts by length:
field n of an entry counts the multisets of n atoms, so the nonzero fields
of the whole vector's entry are its atomic lengths and their sum its atomic
count.  All public results are canonically sorted, so output never depends
on exploration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import mul
from typing import Optional

from .errors import BudgetExceeded, InternalCheckFailed, RingMismatch, ZeroOrUnitInput
from .partitions import vector_partitions
from .poly import Poly, convolve
from .quotient import Ideal, Residue, reduce, residue_ops
from .rings import Element, FactoredElement, Ring


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the work of one call; exceeding one raises BudgetExceeded
    before the work it guards starts.

    ``max_primes`` caps the total prime multiplicity of the input.
    ``max_partitions`` caps steps: for the kernel, the (part, target) pairs
    of one knapsack pass, prod C(v_i + 2, 2) - prod (v_i + 1) for a vector
    v, checked before the kernel runs; for the listing, the kernel's count
    of nonempty multisets of one class's blocks that fit under v, a bound
    on the blocks the walk examines, checked before the walk.
    """

    max_primes: int = 14
    max_partitions: int = 5_000_000


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class TauFactorization:
    """One factorization written out, as a soundness check reads it: unit
    lambda, blocks and a sign witness proving pairwise congruence of the
    signed blocks.  The listing holds rows of block ranks instead
    (``TauListing``)."""

    lam: int
    blocks: tuple[FactoredElement, ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class ElasticityReport:
    is_atomic: bool
    atomic_lengths: frozenset[int]
    min_len: Optional[int]
    max_len: Optional[int]
    elasticity: Optional[Fraction]
    factorization_count: int
    atomic_count: int


class _Context:
    """Per-call state: the prime multiset as a vector, each prime's residue,
    the ideal's residue product and negation, and each part-vector's residue.
    Residues are what ``residue_ops`` takes: over Z[x] the canonical ``Poly``
    representative, ``reduce(p, ideal).rep``, over Z the ``Residue``.
    ``pack`` and ``unpack`` convert part-vectors to and from the one packed
    layout (module docstring), ``width`` bits per field."""

    __slots__ = (
        "budget", "primes", "vector", "width", "shifts", "residues",
        "_prime_residues", "_mul", "_neg",
    )

    def __init__(self, fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget):
        if fe.ring is not ideal.ring:
            raise RingMismatch("factored element and ideal live in different rings")
        if not fe.factors:
            raise ZeroOrUnitInput("tau-factorizations are defined for nonzero nonunits")
        total = fe.total_multiplicity
        if total > budget.max_primes:
            raise BudgetExceeded(
                f"{total} primes exceed the budget of {budget.max_primes}"
            )
        self.budget = budget
        self.primes = tuple(p for p, _ in fe.factors)
        self.vector = tuple(exp for _, exp in fe.factors)
        reduced = tuple(reduce(p, ideal) for p in self.primes)
        self._prime_residues = reduced if ideal.ring is Ring.Z else tuple(r.rep for r in reduced)
        self._mul, self._neg = residue_ops(ideal)
        self.residues: dict = {}
        self.width = max(self.vector).bit_length() + 1
        self.shifts = tuple(self.width * i for i in reversed(range(len(self.vector))))

    def pack(self, part) -> int:
        return sum(mult << shift for mult, shift in zip(part, self.shifts))

    def unpack(self, s: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        return tuple(s >> shift & mask for shift in self.shifts)

    def pass1(self) -> tuple[list, dict, list]:
        """The nonzero sub-vectors grouped by sign class, the number of
        tau-factorizations of each, keyed packed, and the classes that
        partition the whole vector."""
        steps = prod(comb(e + 2, 2) for e in self.vector) - prod(e + 1 for e in self.vector)
        if steps > self.budget.max_partitions:
            raise BudgetExceeded(
                f"{steps} kernel steps exceed the budget of {self.budget.max_partitions}"
            )
        groups: dict = {}
        for part in product(*(range(e + 1) for e in self.vector)):
            if any(part):
                residue = self.build(part, self.residues, self._prime_residues, self._mul)
                groups.setdefault(frozenset((residue, self._neg(residue))), []).append(part)
        total: dict = {}
        whole, live = self.pack(self.vector), []
        for parts in groups.values():
            counts = self.knapsack(parts, 0)
            if whole in counts:
                live.append(parts)
            for w, c in counts.items():
                total[w] = total.get(w, 0) + c
        return list(groups.values()), total, live

    def knapsack(self, parts: list[tuple[int, ...]], width: int) -> dict:
        """The multisets of ``parts`` that sum to each packed w <= v, graded
        by size: field n of w's entry, ``width`` bits at bit n * width, counts
        those of n parts; width 0 overlays the fields into the plain count.
        Part s adds d, one field up, into d + s for each d <= v - s, so s may
        repeat: any order that visits d before d + s is correct, and the box
        below is in numeric order.  Unused coordinates stay 0.  Nothing is
        masked: a count field that overflows carries into the next."""
        used = [i for i in range(len(self.vector)) if any(p[i] for p in parts)]
        count = {0: 1}
        for part in parts:
            box = [0]
            for i in used:  # the last coordinate, the lowest field, varies fastest
                if self.vector[i] > part[i]:
                    ks = [k << self.shifts[i] for k in range(self.vector[i] - part[i] + 1)]
                    box = [d + k for d in box for k in ks]
            s = self.pack(part)
            for d in box:
                c = count.get(d)
                if c:
                    t = d + s
                    count[t] = count.get(t, 0) + (c << width)
        return count

    def atomic_counts(self) -> tuple[int, list[int]]:
        """The number of tau-factorizations of the whole vector, and its
        atomic factorizations by length: entry n counts those of n atoms."""
        groups, total, _ = self.pass1()
        whole = self.pack(self.vector)
        # No length has more atomic factorizations than there are
        # factorizations, so every field of the classes' sum fits this width.
        width = total[whole].bit_length()
        graded = sum(
            self.knapsack([p for p in parts if total[self.pack(p)] == 1], width).get(whole, 0)
            for parts in groups
        )
        counts = []
        while graded:
            graded, c = divmod(graded, 1 << width)
            counts.append(c)
        return total[whole], counts

    def build(self, part: tuple[int, ...], cache: dict, leaves: tuple, mul):
        """A block's value, memoized in ``cache``: ``mul`` of the value of the
        block without one copy of its first prime and that prime's leaf.
        Residues build with the ideal's product, products with ``*``."""
        value = cache.get(part)
        if value is None:
            lead = next(i for i, mult in enumerate(part) if mult)
            value = leaves[lead]
            if sum(part) > 1:
                rest = part[:lead] + (part[lead] - 1,) + part[lead + 1:]
                value = mul(self.build(rest, cache, leaves, mul), value)
            cache[part] = value
        return value


class TauListing:
    """The tau-factorizations of one element, in canonical order, as rows of
    ascending block ranks; rank k, the k-th distinct block by its product's
    sort key, has ``products[k]``, ``residues[k]`` (a ``Residue``; equal
    residues are one object), ``atomic[k]`` and ``parts[k]``, its
    multiplicity vector over the element's factors."""

    def __init__(self, rows: list[tuple[int, ...]], table: list[tuple]):
        self.rows = rows
        self.parts, self.products, self.residues, self.atomic = zip(*table)

    def __len__(self) -> int:
        return len(self.rows)

    def signs(self, row: tuple[int, ...]) -> tuple[int, ...]:
        """The witness: +1 for a block whose residue is the lead block's."""
        lead = self.residues[row[0]]
        return tuple([1 if self.residues[k] is lead else -1 for k in row])


def enumerate_tau_factorizations(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> TauListing:
    """Every tau-factorization of fe, deduplicated up to block order and
    associates, in canonical (length, blocks) order, with per-block atom
    flags.  Includes the trivial length-1 factorization."""
    ctx = _Context(fe, ideal, budget)
    groups, total, live = ctx.pass1()
    # Each block the walk examines closes a nonempty multiset of one class's
    # blocks that fits under the vector, and no two close the same one.  The
    # class's knapsack counted exactly those multisets, plus the empty one.
    steps = sum(total.values()) - len(groups)
    if steps > budget.max_partitions:
        raise BudgetExceeded(f"{steps} listing steps exceed the budget of {budget.max_partitions}")
    whole = ctx.pack(ctx.vector)
    found = list(vector_partitions(whole, ctx.width, [[ctx.pack(p) for p in parts] for parts in live]))
    if len(found) != total[whole]:
        raise InternalCheckFailed(f"listed {len(found)} tau-factorizations, the kernel counts {total[whole]}")
    # One table entry per distinct block.  pass1 built its residue, and the
    # table shares one Residue per distinct value; its product is built the
    # same way, on ints or coefficient lists.
    z = fe.ring is Ring.Z
    leaves = tuple(p.value if z else p.value.coeffs for p in ctx.primes)
    times, wrap = (mul, Element.integer) if z else (convolve, lambda c: Element.polynomial(Poly(c)))
    plain, shared, table = {}, {}, []
    for s in set().union(*found):
        part = ctx.unpack(s)
        value = ctx.residues[part]
        if value not in shared:
            shared[value] = value if z else Residue(ideal, value)
        table.append((part, wrap(ctx.build(part, plain, leaves, times)), shared[value], total[s] == 1))
    table.sort(key=lambda entry: entry[1].sort_key)
    rank = {ctx.pack(entry[0]): k for k, entry in enumerate(table)}
    for i, partition in enumerate(found):
        found[i] = tuple(sorted(map(rank.__getitem__, partition)))
    # Distinct blocks have distinct keys, so ranks compare as keys do, and
    # rows sorted by ranks, then stably by length, are in canonical order.
    found.sort()
    found.sort(key=len)
    return TauListing(found, table)


def elasticity(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> ElasticityReport:
    """Atomic-factorization length statistics and exact elasticity.

    The length set is finite, so the elasticity is exactly max/min; an
    element with no atomic factorization reports is_atomic=False and no
    ratio.
    """
    factorization_count, counts = _Context(fe, ideal, budget).atomic_counts()
    atomic_count = sum(counts)
    lengths = {n for n, c in enumerate(counts) if c}
    if lengths:
        lo, hi = min(lengths), max(lengths)
        return ElasticityReport(
            True, frozenset(lengths), lo, hi, Fraction(hi, lo),
            factorization_count, atomic_count,
        )
    return ElasticityReport(
        False, frozenset(), None, None, None, factorization_count, atomic_count
    )
