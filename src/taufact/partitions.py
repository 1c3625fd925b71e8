"""Multiset partition enumeration, one class of parts at a time.

A multiset is handled as a multiplicity vector over its distinct elements.
A partition is a multiset of nonzero part-vectors summing to the whole.
The caller groups the candidate parts into classes; only partitions into
parts of one class are generated, class by class, each exactly once, with
parts in non-increasing lexicographic order (index 0 most significant).
So when the whole vector is in a class, its trivial partition comes first.

Enumeration is depth first (Knuth, TAOCP 4A, 7.2.1.5): choose the
lex-largest part that fits in what remains and is no larger than the
previous part, recurse on what is left.  Every part must contain the first
nonzero coordinate of what remains, since a later, lex-smaller part could
not cover it.  A class keeps a trie of its parts per first nonzero
coordinate; the search reaches only parts meeting all three conditions.

Nothing here counts or caps the work: each part examined closes a distinct
nonempty multiset of one class's parts, which a caller can count first.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def vector_partitions(
    vector: tuple[int, ...], classes: Iterable[Iterable[tuple[int, ...]]]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the partitions of a multiplicity vector into parts of one class,
    class by class, as tuples of part-vectors."""
    if not vector or not any(vector):
        raise ValueError("vector must have positive total multiplicity")
    for parts in classes:
        tries: dict = {}  # by first nonzero coordinate; children descend
        for part in sorted(parts, reverse=True):
            lead = next(i for i, d in enumerate(part) if d)
            node = tries.setdefault(lead, {})
            for d in part[lead:-1]:
                node = node.setdefault(d, {})
            node[part[-1]] = part
        yield from _partitions(vector, vector, [], tries)


def _partitions(remaining, bound, acc, tries):
    if not any(remaining):
        yield tuple(acc)
        return
    lead = next(i for i, r in enumerate(remaining) if r)
    trie, tight = tries.get(lead, {}), not any(bound[:lead])
    for part in _candidates(trie, remaining, bound, lead, tight, []):
        acc.append(part)
        rest = tuple(r - p for r, p in zip(remaining, part))
        yield from _partitions(rest, part, acc, tries)
        acc.pop()


def _candidates(node, remaining, bound, i, tight, out):
    """Append to ``out`` the parts below trie ``node``, at coordinate ``i``,
    that fit in ``remaining`` and are lexicographically at most ``bound``,
    in descending order; ``tight`` says the digits so far equal ``bound``'s."""
    hi = min(remaining[i], bound[i]) if tight else remaining[i]
    for d, child in node.items():
        if d <= hi:
            if i + 1 == len(remaining):
                out.append(child)
            else:
                _candidates(child, remaining, bound, i + 1, tight and d == bound[i], out)
    return out
