import itertools
import random

import pytest

from taufact import partitions

from naive_oracle import naive_set_partitions
from walk_count import walk_counts

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
INTEGER_PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def tuple_partitions(vector, classes):
    """The packed walk on tuples: pack ``vector`` and each class's parts
    coordinate 0 most significant, one guard bit per field, and unpack the
    parts of every partition the walk yields.  The walk is looked up when
    called, so ``walk_counts`` sees it."""
    width = max(vector, default=0).bit_length() + 1

    def pack(part):
        s = 0
        for mult in part:
            s = s << width | mult
        return s

    unpacked = {}
    packed = [[pack(p) for p in parts] for parts in classes]
    for parts, packs in zip(classes, packed):
        unpacked.update(zip(packs, parts))
    for partition in partitions.vector_partitions(pack(vector), width, packed):
        yield tuple(unpacked[s] for s in partition)


def one_class(vector):
    """Every nonzero sub-vector of ``vector``, as a single class."""
    return [[p for p in itertools.product(*(range(e + 1) for e in vector)) if any(p)]]


def item_partitions(items):
    """tuple_partitions over the multiplicity vector of a list of items,
    with every part expanded back into a tuple of items."""
    distinct = sorted(set(items))
    vector = tuple(items.count(item) for item in distinct)
    for parts in tuple_partitions(vector, one_class(vector)):
        yield tuple(
            tuple(item for item, mult in zip(distinct, part) for _ in range(mult))
            for part in parts
        )


def test_example_aab():
    assert list(tuple_partitions((2, 1), one_class((2, 1)))) == [
        ((2, 1),),
        ((2, 0), (0, 1)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (0, 1)),
    ]


def test_single_item():
    assert list(tuple_partitions((1,), one_class((1,)))) == [((1,),)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_distinct_items_count_is_bell(n):
    assert sum(1 for _ in tuple_partitions((1,) * n, one_class((1,) * n))) == BELL[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_identical_items_count_is_integer_partitions(n):
    assert sum(1 for _ in tuple_partitions((n,), one_class((n,)))) == INTEGER_PARTITIONS[n]


@pytest.mark.parametrize(
    "items",
    [
        [1, 1, 2, 2],
        [1, 2, 3, 3, 3],
        [1, 1, 1, 2, 3],
        ["a", "a", "b", "c", "c"],
        # A field holds the largest multiplicity and a guard bit: 1, 3 and
        # 7 fill a field of 2, 3 and 4 bits; 4 and 8 take one bit more.
        [1, 2, 2, 2],
        [1, 1, 1, 2, 2, 2, 2],
        [1, 1, 1, 1, 2],
        [1, 2, 2, 2, 2, 3],
        [1] * 7 + [2],
        [1] + [2] * 7,
        [1] * 8 + [2],
        [1] + [2] * 8,
    ],
)
def test_matches_naive_enumeration(items):
    ours = {
        tuple(
            sorted(
                (tuple(sorted(b)) for b in partition),
                key=lambda b: (len(b), b),
            )
        )
        for partition in item_partitions(items)
    }
    assert ours == naive_set_partitions(items)


def test_no_duplicate_partitions():
    seen = set()
    for partition in tuple_partitions((2, 2, 1), one_class((2, 2, 1))):
        canon = tuple(sorted(partition))
        assert canon not in seen
        seen.add(canon)


def test_every_partition_covers_the_multiset():
    items = [1, 1, 2, 3, 3]
    for partition in item_partitions(items):
        merged = sorted(x for block in partition for x in block)
        assert merged == sorted(items)
        assert all(block for block in partition)


def test_deterministic_order():
    first = list(tuple_partitions((2, 2), one_class((2, 2))))
    second = list(tuple_partitions((2, 2), one_class((2, 2))))
    assert first == second


def test_trivial_partition_comes_first():
    listed = tuple_partitions((1, 2, 1), one_class((1, 2, 1)))
    assert next(iter(listed)) == ((1, 2, 1),)


def test_leading_zero_coordinates():
    assert list(tuple_partitions((0, 1, 1), one_class((0, 1, 1)))) == [
        ((0, 1, 1),),
        ((0, 1, 0), (0, 0, 1)),
    ]


def lex_partitions(vector, bound):
    """The partitions of ``vector`` into parts no larger than ``bound``,
    parts in non-increasing lex order, by plain recursion on tuples."""
    if not any(vector):
        yield ()
        return
    for part in sorted(one_class(vector)[0], reverse=True):
        if part <= bound:
            rest = tuple(v - p for v, p in zip(vector, part))
            for tail in lex_partitions(rest, part):
                yield (part, *tail)


def check_classes_keep_the_one_class_partitions(vector, modulus):
    def key(part):
        return sum((i + 2) * p for i, p in enumerate(part)) % modulus

    classes: dict = {}
    for part in one_class(vector)[0]:
        classes.setdefault(key(part), []).append(part)
    everything = list(tuple_partitions(vector, one_class(vector)))
    assert everything == list(lex_partitions(vector, vector))
    expected = [ps for ps in everything if len({key(p) for p in ps}) == 1]
    listed = list(tuple_partitions(vector, list(classes.values())))
    assert sorted(listed) == sorted(expected)
    for k in classes:
        within = [ps for ps in listed if key(ps[0]) == k]
        assert within == sorted(within, reverse=True)


def test_classes_keep_exactly_the_one_class_partitions():
    rng = random.Random(3)
    for _ in range(60):
        vector = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if not any(vector):
            continue
        check_classes_keep_the_one_class_partitions(vector, rng.randint(1, 5))
    # Multiplicities up to 8 cross the field widths of 2, 3 and 4 bits; the
    # total stays at most 10 so that each vector's partitions stay few.
    rng = random.Random(4)
    drawn, accepted, wide = set(), 0, 0
    while accepted < 60:
        vector = tuple(rng.randint(0, 8) for _ in range(rng.randint(2, 4)))
        if not any(vector) or sum(vector) > 10:
            continue
        drawn.update(vector)
        accepted += 1
        wide += len(vector) > 2
        check_classes_keep_the_one_class_partitions(vector, rng.randint(1, 5))
    assert {1, 3, 4, 7, 8} <= drawn
    assert wide >= 20


def test_walk_examines_only_parts_that_fit():
    # Ten distinct items in one class: the walk examines the sub-vectors of
    # what remains that hold its first item and are no larger than the
    # previous part, 231,949 for the Bell(10) = 115,975 partitions.  Parts
    # of the class that do not fit in what remains are not walked.
    vector = (1,) * 10
    with walk_counts() as counts:
        walk = tuple_partitions(vector, one_class(vector))
        assert sum(1 for _ in walk) == 115_975
    assert counts["examined"] == 231_949
    # The nodes below the root scan 1,653,985 parts, fitting or not; the
    # root scans its 512 parts holding item 0, which all fit.  A walk that
    # scans more fails here.
    assert counts["scanned"] == 1_653_985


def test_vector_partitions_rejects_empty():
    with pytest.raises(ValueError):
        list(tuple_partitions((0, 0), one_class((0, 0))))
