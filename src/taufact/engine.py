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
residue; no block product is expanded until a yielded partition is sorted.
The listing runs the counting kernel below first and walks the sub-vectors
it grouped by class; the kernel's counts flag each block as a tau-atom or
not, and its count of the whole must equal the listing's length.

Counts need no listing.  For each sign class K, a knapsack over the
sub-vectors of class K counts the multisets of them summing to each
sub-vector w of the multiplicity vector; summed over K, that is the number
of tau-factorizations of w, and w is a tau-atom exactly when it is 1.
(Not the class of w alone: 2*2 modulo 5 lies in {1, 4}, splits in {2, 3}.)
A second knapsack per class, over atoms only, gives the atomic
factorizations' count and lengths.  All public results are canonically
sorted, so output never depends on exploration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Optional

from .errors import BudgetExceeded, InternalCheckFailed, RingMismatch, ZeroOrUnitInput
from .partitions import vector_partitions
from .quotient import Ideal, Residue, reduce, residue_ops
from .rings import FactoredElement, expand


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the work of one call; exceeding one raises BudgetExceeded.

    ``max_primes`` caps the total prime multiplicity of the input.
    ``max_partitions`` caps steps: for the kernel, the (part, target) pairs
    of one knapsack pass, prod C(v_i + 2, 2) - prod (v_i + 1) for a vector
    v, checked before any work; for the enumerator, the blocks it examines
    over all classes: those of the class being walked that fit in what is
    left, hold its first prime and are no larger than the previous block.
    A listing applies the kernel's cap first, then the enumerator's.
    """

    max_primes: int = 14
    max_partitions: int = 5_000_000


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class TauFactorization:
    """One factorization: unit lambda, canonically ordered blocks, a sign
    witness proving pairwise congruence of the signed blocks, and whether
    each block is a tau-atom.  The listing fills ``atomic``; a hand-built
    factorization carries no flags."""

    lam: int
    blocks: tuple[FactoredElement, ...]
    signs: tuple[int, ...]
    atomic: tuple[bool, ...] = ()

    @property
    def length(self) -> int:
        return len(self.blocks)


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
    the ideal's residue product and negation, plus residue and sign-class
    caches keyed on part-vectors.  The kernel packs a part-vector into one
    int with a bit field per prime; sums that stay below the vector never
    carry."""

    __slots__ = (
        "fe", "ideal", "budget", "primes", "vector", "shifts", "_prime_residues",
        "_mul", "_neg", "_residues", "_classes",
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
        self.fe = fe
        self.ideal = ideal
        self.budget = budget
        self.primes = tuple(p for p, _ in fe.factors)
        self.vector = tuple(exp for _, exp in fe.factors)
        self._prime_residues = tuple(reduce(p, ideal) for p in self.primes)
        self._mul, self._neg = residue_ops(ideal)
        self._residues: dict = {}
        self._classes: dict = {}
        width = max(self.vector).bit_length()
        self.shifts = tuple(width * i for i in range(len(self.vector)))

    def pack(self, part) -> int:
        return sum(mult << shift for mult, shift in zip(part, self.shifts))

    def pass1(self) -> tuple[list, dict]:
        """The nonzero sub-vectors grouped by sign class, and the number of
        tau-factorizations of each, keyed packed."""
        steps = prod(comb(e + 2, 2) for e in self.vector) - prod(e + 1 for e in self.vector)
        if steps > self.budget.max_partitions:
            raise BudgetExceeded(
                f"{steps} kernel steps exceed the budget of {self.budget.max_partitions}"
            )
        groups: dict = {}
        for part in product(*(range(e + 1) for e in self.vector)):
            if any(part):
                groups.setdefault(self.sign_class(part), []).append(part)
        total: dict = {}
        for parts in groups.values():
            for w, c in self.knapsack(parts, False)[0].items():
                total[w] = total.get(w, 0) + c
        return list(groups.values()), total

    def knapsack(self, parts: list[tuple[int, ...]], lengths: bool) -> tuple[dict, dict]:
        """How many multisets of ``parts`` sum to each packed w <= v, and, if
        ``lengths``, a bitmask of their sizes.  Part s adds d into d + s for
        each d <= v - s ascending, so s may repeat; unused coordinates stay 0."""
        used = [i for i in range(len(self.vector)) if any(p[i] for p in parts)]
        count, sizes = {0: 1}, {0: 1}
        for part in parts:
            box = [0]
            for i in reversed(used):  # ascending: the lowest field varies fastest
                if self.vector[i] > part[i]:
                    ks = [k << self.shifts[i] for k in range(self.vector[i] - part[i] + 1)]
                    box = [d + k for d in box for k in ks]
            s = self.pack(part)
            for d in box:
                c = count.get(d)
                if c:
                    t = d + s
                    count[t] = count.get(t, 0) + c
                    if lengths:
                        sizes[t] = sizes.get(t, 0) | sizes[d] << 1
        return count, sizes

    def residue(self, part: tuple[int, ...]) -> Residue:
        """The block's residue: the residue of the block without one copy of
        its first prime, times that prime's residue."""
        cached = self._residues.get(part)
        if cached is None:
            lead = next(i for i, mult in enumerate(part) if mult)
            cached = self._prime_residues[lead]
            if sum(part) > 1:
                rest = part[:lead] + (part[lead] - 1,) + part[lead + 1:]
                cached = self._mul(self.residue(rest), cached)
            self._residues[part] = cached
        return cached

    def sign_class(self, part: tuple[int, ...]) -> frozenset[Residue]:
        """The block's residues up to sign: {r, -r}."""
        cached = self._classes.get(part)
        if cached is None:
            residue = self.residue(part)
            cached = self._classes[part] = frozenset((residue, self._neg(residue)))
        return cached

    def block(self, part: tuple[int, ...]) -> FactoredElement:
        factors = tuple(
            (prime, mult) for prime, mult in zip(self.primes, part) if mult
        )
        return FactoredElement(self.fe.ring, 1, factors)


def enumerate_tau_factorizations(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[TauFactorization]:
    """Every tau-factorization of fe, deduplicated up to block order and
    associates, in canonical (length, blocks) order, with per-block atom
    flags.  Includes the trivial length-1 factorization."""
    ctx = _Context(fe, ideal, budget)
    groups, total = ctx.pass1()
    sort_keys: dict = {}  # blocks recur across partitions
    found = []
    for partition in vector_partitions(ctx.vector, groups, budget.max_partitions):
        for p in partition:
            if p not in sort_keys:
                sort_keys[p] = expand(ctx.block(p)).sort_key
        # Sorting fixes which block leads, hence the witness.
        parts = sorted(partition, key=sort_keys.__getitem__)
        lead = ctx.residue(parts[0])
        signs = tuple(1 if ctx.residue(p) == lead else -1 for p in parts)
        lam = fe.unit * prod(signs)
        blocks = tuple(ctx.block(p) for p in parts)
        atomic = tuple(total[ctx.pack(p)] == 1 for p in parts)
        key = (len(parts), tuple(sort_keys[p] for p in parts))
        found.append((key, TauFactorization(lam, blocks, signs, atomic)))
    found.sort(key=lambda item: item[0])
    counted = total[ctx.pack(ctx.vector)]
    if len(found) != counted:
        raise InternalCheckFailed(f"listed {len(found)} tau-factorizations, the kernel counts {counted}")
    return [tf for _, tf in found]


def elasticity(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> ElasticityReport:
    """Atomic-factorization length statistics and exact elasticity.

    The length set is finite, so the elasticity is exactly max/min; an
    element with no atomic factorization reports is_atomic=False and no
    ratio.
    """
    ctx = _Context(fe, ideal, budget)
    groups, total = ctx.pass1()
    whole = ctx.pack(ctx.vector)
    factorization_count = total[whole]
    atomic_count = sizes = 0
    for parts in groups:
        count, masks = ctx.knapsack([p for p in parts if total[ctx.pack(p)] == 1], True)
        atomic_count += count.get(whole, 0)
        sizes |= masks.get(whole, 0)
    lengths = {n for n in range(sizes.bit_length()) if sizes >> n & 1}
    if lengths:
        lo, hi = min(lengths), max(lengths)
        return ElasticityReport(
            True, frozenset(lengths), lo, hi, Fraction(hi, lo),
            factorization_count, atomic_count,
        )
    return ElasticityReport(
        False, frozenset(), None, None, None, factorization_count, atomic_count
    )
