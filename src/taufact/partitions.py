"""Multiset partition enumeration, restricted to one key class.

A multiset is handled as a multiplicity vector over its distinct elements.
A partition is a multiset of nonzero part-vectors summing to the whole; it
is generated exactly once, with parts in non-increasing lexicographic order
(index 0 most significant).  The first part of the first partition is the
whole vector, so the trivial one-block partition always comes first.

Only partitions whose parts all share one ``key`` are generated: the first
part fixes the key, and a candidate part with another key is skipped before
the search descends below it.

Enumeration is depth first: choose the lex-largest remaining part below the
current bound, recurse on what is left.  In non-increasing order every part
must contain the first nonzero coordinate of what remains, since a later,
lex-smaller part could not cover it; only such parts are generated.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Hashable, Iterator, Optional

from .errors import BudgetExceeded


def vector_partitions(
    vector: tuple[int, ...],
    key: Callable[[tuple[int, ...]], Hashable],
    max_partitions: Optional[int] = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the partitions of a multiplicity vector whose parts share one
    ``key(part)``, as tuples of part-vectors.

    ``max_partitions`` caps the candidate parts examined, not the partitions
    yielded, so a search that finds nothing stops as well.
    """
    if not vector or not any(vector):
        raise ValueError("vector must have positive total multiplicity")
    yield from _partitions(vector, vector, [], None, key, count(1), max_partitions)


def _partitions(remaining, bound, acc, target, key, examined, cap):
    if not any(remaining):
        yield tuple(acc)
        return
    for part in _parts_descending(remaining, bound):
        if cap is not None and next(examined) > cap:
            raise BudgetExceeded(f"partition budget of {cap} exhausted")
        part_key = key(part)
        if acc and part_key != target:
            continue
        acc.append(part)
        yield from _partitions(
            tuple(r - p for r, p in zip(remaining, part)),
            part, acc, part_key, key, examined, cap,
        )
        acc.pop()


def _parts_descending(remaining, bound):
    """Vectors p <= remaining componentwise and p <= bound lexicographically
    that contain the first nonzero coordinate of remaining, in descending
    lexicographic order."""
    lead = next(i for i, r in enumerate(remaining) if r)
    tight = not any(bound[:lead])
    hi = min(remaining[lead], bound[lead]) if tight else remaining[lead]
    prefix = [0] * lead
    for d in range(hi, 0, -1):
        prefix.append(d)
        yield from _suffixes(remaining, bound, lead + 1, tight and d == bound[lead], prefix)
        prefix.pop()


def _suffixes(remaining, bound, i, tight, prefix):
    if i == len(remaining):
        yield tuple(prefix)
        return
    hi = min(remaining[i], bound[i]) if tight else remaining[i]
    for d in range(hi, -1, -1):
        prefix.append(d)
        yield from _suffixes(remaining, bound, i + 1, tight and d == bound[i], prefix)
        prefix.pop()
