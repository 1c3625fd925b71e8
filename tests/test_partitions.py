import itertools
import random

import pytest

from taufact.partitions import vector_partitions

from naive_oracle import naive_set_partitions
from walk_count import walk_calls

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
INTEGER_PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


def one_class(vector):
    """Every nonzero sub-vector of ``vector``, as a single class."""
    return [[p for p in itertools.product(*(range(e + 1) for e in vector)) if any(p)]]


def item_partitions(items):
    """vector_partitions over the multiplicity vector of a list of items,
    with every part expanded back into a tuple of items."""
    distinct = sorted(set(items))
    vector = tuple(items.count(item) for item in distinct)
    for parts in vector_partitions(vector, one_class(vector)):
        yield tuple(
            tuple(item for item, mult in zip(distinct, part) for _ in range(mult))
            for part in parts
        )


def test_example_aab():
    assert list(vector_partitions((2, 1), one_class((2, 1)))) == [
        ((2, 1),),
        ((2, 0), (0, 1)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (0, 1)),
    ]


def test_single_item():
    assert list(vector_partitions((1,), one_class((1,)))) == [((1,),)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_distinct_items_count_is_bell(n):
    assert sum(1 for _ in vector_partitions((1,) * n, one_class((1,) * n))) == BELL[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_identical_items_count_is_integer_partitions(n):
    assert sum(1 for _ in vector_partitions((n,), one_class((n,)))) == INTEGER_PARTITIONS[n]


@pytest.mark.parametrize(
    "items",
    [
        [1, 1, 2, 2],
        [1, 2, 3, 3, 3],
        [1, 1, 1, 2, 3],
        ["a", "a", "b", "c", "c"],
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
    for partition in vector_partitions((2, 2, 1), one_class((2, 2, 1))):
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
    first = list(vector_partitions((2, 2), one_class((2, 2))))
    second = list(vector_partitions((2, 2), one_class((2, 2))))
    assert first == second


def test_trivial_partition_comes_first():
    partitions = vector_partitions((1, 2, 1), one_class((1, 2, 1)))
    assert next(iter(partitions)) == ((1, 2, 1),)


def test_leading_zero_coordinates():
    assert list(vector_partitions((0, 1, 1), one_class((0, 1, 1)))) == [
        ((0, 1, 1),),
        ((0, 1, 0), (0, 0, 1)),
    ]


def test_classes_keep_exactly_the_one_class_partitions():
    rng = random.Random(3)
    for _ in range(60):
        vector = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if not any(vector):
            continue
        modulus = rng.randint(1, 5)

        def key(part):
            return sum((i + 2) * p for i, p in enumerate(part)) % modulus

        classes: dict = {}
        for part in one_class(vector)[0]:
            classes.setdefault(key(part), []).append(part)
        everything = vector_partitions(vector, one_class(vector))
        expected = [ps for ps in everything if len({key(p) for p in ps}) == 1]
        listed = list(vector_partitions(vector, list(classes.values())))
        assert sorted(listed) == sorted(expected)
        for k in classes:
            within = [ps for ps in listed if key(ps[0]) == k]
            assert within == sorted(within, reverse=True)


def test_walk_examines_only_parts_that_fit():
    # Ten distinct items in one class: the walk examines the sub-vectors of
    # what remains that hold its first item and are no larger than the
    # previous part, 231,949 for the Bell(10) = 115,975 partitions.  Parts
    # of the class that do not fit in what remains are not walked.
    vector = (1,) * 10
    with walk_calls() as calls:
        assert sum(1 for _ in vector_partitions(vector, one_class(vector))) == 115_975
    assert len(calls) - 1 == 231_949


def test_vector_partitions_rejects_empty():
    with pytest.raises(ValueError):
        list(vector_partitions((0, 0), one_class((0, 0))))
