import random

import pytest

from taufact.errors import BudgetExceeded
from taufact.partitions import vector_partitions

from naive_oracle import naive_set_partitions

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
INTEGER_PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


def same_key(part):
    return 0


def item_partitions(items):
    """vector_partitions over the multiplicity vector of a list of items,
    with every part expanded back into a tuple of items."""
    distinct = sorted(set(items))
    vector = tuple(items.count(item) for item in distinct)
    for parts in vector_partitions(vector, same_key):
        yield tuple(
            tuple(item for item, mult in zip(distinct, part) for _ in range(mult))
            for part in parts
        )


def test_example_aab():
    assert list(vector_partitions((2, 1), same_key)) == [
        ((2, 1),),
        ((2, 0), (0, 1)),
        ((1, 1), (1, 0)),
        ((1, 0), (1, 0), (0, 1)),
    ]


def test_single_item():
    assert list(vector_partitions((1,), same_key)) == [((1,),)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_distinct_items_count_is_bell(n):
    assert sum(1 for _ in vector_partitions((1,) * n, same_key)) == BELL[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_identical_items_count_is_integer_partitions(n):
    assert sum(1 for _ in vector_partitions((n,), same_key)) == INTEGER_PARTITIONS[n]


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
    for partition in vector_partitions((2, 2, 1), same_key):
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
    first = list(vector_partitions((2, 2), same_key))
    second = list(vector_partitions((2, 2), same_key))
    assert first == second


def test_trivial_partition_comes_first():
    partitions = vector_partitions((1, 2, 1), same_key)
    assert next(iter(partitions)) == ((1, 2, 1),)


def test_leading_zero_coordinates():
    assert list(vector_partitions((0, 1, 1), same_key)) == [
        ((0, 1, 1),),
        ((0, 1, 0), (0, 0, 1)),
    ]


def test_key_keeps_exactly_the_one_key_partitions():
    rng = random.Random(3)
    for _ in range(60):
        vector = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if not any(vector):
            continue
        modulus = rng.randint(1, 5)

        def key(part):
            return sum((i + 2) * p for i, p in enumerate(part)) % modulus

        everything = vector_partitions(vector, same_key)
        expected = [ps for ps in everything if len({key(p) for p in ps}) == 1]
        assert list(vector_partitions(vector, key)) == expected


def test_budget_enforced():
    with pytest.raises(BudgetExceeded):
        list(vector_partitions((1,) * 6, same_key, max_partitions=10))


def test_budget_counts_parts_examined_not_partitions_yielded():
    # Every part has its own key: only the trivial partition is yielded, yet
    # the search examines every candidate part, one key call each.
    examined = []

    def unique_key(part):
        examined.append(part)
        return part

    assert list(vector_partitions((1,) * 5, unique_key)) == [((1,) * 5,)]
    cap = len(examined)
    assert cap > 1
    assert len(list(vector_partitions((1,) * 5, unique_key, max_partitions=cap))) == 1
    with pytest.raises(BudgetExceeded):
        list(vector_partitions((1,) * 5, unique_key, max_partitions=cap - 1))


def test_budget_is_lazy():
    gen = vector_partitions((1,) * 6, same_key, max_partitions=10)
    yielded = []
    with pytest.raises(BudgetExceeded):
        for partition in gen:
            yielded.append(partition)
    assert 0 < len(yielded) < BELL[6]
    assert yielded == list(vector_partitions((1,) * 6, same_key))[: len(yielded)]


def test_vector_partitions_rejects_empty():
    with pytest.raises(ValueError):
        list(vector_partitions((0, 0), same_key))
