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
enumeration therefore generates only partitions whose blocks share that
class, and every partition it yields is a tau-factorization.  The witness
signs a block +1 when its residue equals the first block's residue and -1
otherwise; the enumerator sorts blocks first, so the witness is
reproducible.

Only residues steer the search, so each prime is reduced once and a
block's residue is built from a smaller block's residue times one prime's
residue; no block product is expanded until a yielded partition is sorted.

An element is a tau-atom when no split into two or more blocks is yielded.
Atomhood depends only on the block and the ideal; it is memoized per call
on the block's part-vector, because the same sub-blocks recur across
partitions.  All public results are canonically sorted before returning, so
output never depends on exploration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BudgetExceeded, RingMismatch, ZeroOrUnitInput
from .partitions import vector_partitions
from .quotient import Ideal, Residue, reduce, residue_mul
from .rings import Element, FactoredElement, expand


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the enumeration; exceeding one raises BudgetExceeded.

    ``max_primes`` caps the total prime multiplicity of the input;
    ``max_partitions`` caps the candidate blocks one partition search
    examines, whether or not they end up in a yielded partition.
    """

    max_primes: int = 14
    max_partitions: int = 1_000_000


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class TauFactorization:
    """One factorization: unit lambda, canonically ordered blocks, and a
    sign witness proving pairwise congruence of the signed blocks."""

    lam: int
    blocks: tuple[FactoredElement, ...]
    signs: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        inner = ", ".join(str(expand(b)) for b in self.blocks)
        signs = ",".join("+" if s > 0 else "-" for s in self.signs)
        return f"lambda={self.lam:+d} blocks=[{inner}] signs=[{signs}]"


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
    plus residue, sign-class and atomhood caches keyed on part-vectors."""

    __slots__ = (
        "fe", "ideal", "budget", "primes", "vector", "_prime_residues",
        "_residues", "_classes", "_atoms",
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
        self._residues: dict = {}
        self._classes: dict = {}
        self._atoms: dict = {}

    def partitions(self, part: tuple[int, ...], min_blocks: int = 1):
        return vector_partitions(
            part, self.sign_class, min_blocks, self.budget.max_partitions
        )

    def residue(self, part: tuple[int, ...]) -> Residue:
        """The block's residue: the residue of the block without one copy of
        its first prime, times that prime's residue."""
        cached = self._residues.get(part)
        if cached is None:
            lead = next(i for i, mult in enumerate(part) if mult)
            cached = self._prime_residues[lead]
            if sum(part) > 1:
                rest = part[:lead] + (part[lead] - 1,) + part[lead + 1:]
                cached = residue_mul(self.residue(rest), cached)
            self._residues[part] = cached
        return cached

    def sign_class(self, part: tuple[int, ...]) -> frozenset[Residue]:
        """The block's residues up to sign: {r, -r}."""
        cached = self._classes.get(part)
        if cached is None:
            residue = self.residue(part)
            minus = reduce(-Element(self.ideal.ring, residue.rep), self.ideal)
            cached = self._classes[part] = frozenset((residue, minus))
        return cached

    def is_atom(self, part: tuple[int, ...]) -> bool:
        """True iff the block with this part-vector has no split into two or
        more blocks of one sign class."""
        cached = self._atoms.get(part)
        if cached is None:
            split = next(self.partitions(part, min_blocks=2), None)
            cached = self._atoms[part] = split is None
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
    associates, in canonical (length, blocks) order.  Includes the trivial
    length-1 factorization."""
    ctx = _Context(fe, ideal, budget)
    sort_keys: dict = {}  # blocks recur across partitions
    found = []
    for partition in ctx.partitions(ctx.vector):
        for p in partition:
            if p not in sort_keys:
                sort_keys[p] = expand(ctx.block(p)).sort_key
        # Sorting fixes which block leads, hence the witness.
        parts = sorted(partition, key=sort_keys.__getitem__)
        lead = ctx.residue(parts[0])
        signs = tuple(1 if ctx.residue(p) == lead else -1 for p in parts)
        lam = fe.unit
        for s in signs:
            lam *= s
        blocks = tuple(ctx.block(p) for p in parts)
        key = (len(parts), tuple(sort_keys[p] for p in parts))
        found.append((key, TauFactorization(lam, blocks, signs)))
    found.sort(key=lambda item: item[0])
    return [tf for _, tf in found]


def is_tau_atom(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> bool:
    """True iff fe admits no tau-factorization with two or more blocks."""
    ctx = _Context(fe, ideal, budget)
    return ctx.is_atom(ctx.vector)


def elasticity(
    fe: FactoredElement, ideal: Ideal, budget: EnumerationBudget = DEFAULT_BUDGET
) -> ElasticityReport:
    """Atomic-factorization length statistics and exact elasticity.

    The length set is finite, so the elasticity is exactly max/min; an
    element with no atomic factorization reports is_atomic=False and no
    ratio.
    """
    ctx = _Context(fe, ideal, budget)
    factorization_count = 0
    atomic_count = 0
    lengths: set[int] = set()
    for partition in ctx.partitions(ctx.vector):
        factorization_count += 1
        if all(ctx.is_atom(p) for p in partition):
            atomic_count += 1
            lengths.add(len(partition))
    if lengths:
        lo, hi = min(lengths), max(lengths)
        return ElasticityReport(
            True, frozenset(lengths), lo, hi, Fraction(hi, lo),
            factorization_count, atomic_count,
        )
    return ElasticityReport(
        False, frozenset(), None, None, None, factorization_count, atomic_count
    )
