"""Multiset partition enumeration, one class of parts at a time.

A multiset is handled as a multiplicity vector over its distinct elements.
A partition is a multiset of nonzero part-vectors summing to the whole.
The caller groups the candidate parts, sub-vectors of the whole, into
classes; only partitions into parts of one class are generated, class by
class, each exactly once, with parts in non-increasing lexicographic order
(index 0 most significant).  So when the whole vector is in a class, its
trivial partition comes first.

Enumeration is depth first (Knuth, TAOCP 4A, 7.2.1.5): choose the
lex-largest part that fits in what remains and is no larger than the
previous part, go on with what is left.  Every part must contain the first
nonzero coordinate of what remains, since a later, lex-smaller part could
not cover it.

The walk runs on the caller's packed ints (TAOCP 4A, 7.1.3).  A vector
packs into one field per coordinate, coordinate 0 most significant, each
field one guard bit wider than the largest multiplicity needs.  So numeric
order is lex order, and the first nonzero coordinate is the top nonzero
field.  With G the mask of guard bits, part s fits in remainder r exactly
when ((r | G) - s) & G == G: a field where s exceeds r borrows its own
guard bit, and no borrow reaches the next field.  The caller's parts within
a class are distinct, and the walk yields them as it was given them.  A
class keeps its parts by top field in ascending order.  A node bisects the
parts of r's top field at the previous part and scans those below it,
largest first, skipping the ones that do not fit.  The path lives on an
explicit stack inside the one generator frame, so partitions stream out as
the walk finds them.

Nothing here counts or caps the work.  A part the walk examines is one it
takes at a node, to descend or to close a partition: each closes a distinct
nonempty multiset of one class's parts, which a caller can count first.
The parts the scan skips are not counted; they are at most the parts of
one top field per node.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator


def vector_partitions(
    whole: int, width: int, classes: Iterable[Iterable[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of the packed vector ``whole``, ``width`` bits
    per field, into parts of one class, class by class, as tuples of the
    packed parts.  Every part is a sub-vector of ``whole``."""
    if whole <= 0:
        raise ValueError("vector must have positive total multiplicity")
    guard = 0
    for _ in range((whole.bit_length() - 1) // width + 1):
        guard = guard << width | 1 << (width - 1)
    for parts in classes:
        groups: dict = {}  # by top field, ascending
        for s in parts:
            groups.setdefault((s.bit_length() - 1) // width, []).append(s)
        for group in groups.values():
            group.sort()
        # The open nodes: what remains at each, its untaken candidates, and
        # the parts taken on the way to it.  The root has no previous part,
        # so it scans its whole top field.
        rests = [whole]
        nodes = [reversed(groups.get((whole.bit_length() - 1) // width, ()))]
        path = []
        while nodes:
            r = rests[-1]
            high = r | guard
            for s in nodes[-1]:
                if (high - s) & guard != guard:
                    continue
                rest = r - s
                if not rest:
                    yield (*path, s)
                    continue
                group = groups.get((rest.bit_length() - 1) // width, ())
                path.append(s)
                rests.append(rest)
                nodes.append(reversed(group[:bisect_right(group, s)]))
                break
            else:
                nodes.pop()
                rests.pop()
                del path[-1:]
