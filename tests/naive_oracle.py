"""Independent brute-force re-implementation of the tau-factorization
oracle, used to cross-check the engine.

Deliberately naive: set partitions are generated over prime *instances*
(equal primes as separate items, duplicates collapsed afterwards through a
set), sign vectors are tried exhaustively (all 2**k), and atom checks
recurse with no memoization.  Each sign search reduces every block product
and its negation once; a sign vector passes when the residues it picks are
all one, which is pairwise congruence.  Shares only ``reduce``, ``expand``
and ``constant`` with the engine.
"""

from itertools import product as iter_product

from taufact.quotient import reduce
from taufact.rings import constant, expand


def assert_factorization_sound(tf, fe, ideal):
    """Re-verify a returned factorization from scratch: exact
    re-multiplication, unit lambda, and pairwise congruence of the signed
    block products, as one residue shared by all of them."""
    assert tf.lam in (1, -1)
    assert len(tf.blocks) == len(tf.signs)
    total = constant(fe.ring, 1)
    signed = []
    for block, sign in zip(tf.blocks, tf.signs):
        assert block.factors, "blocks must be nonunits"
        value = expand(block)
        if sign == -1:
            value = -value
        signed.append(value)
        total = total * value
    if tf.lam == -1:
        total = -total
    assert total == expand(fe)
    assert len({reduce(value, ideal) for value in signed}) <= 1


def _instances(fe):
    items = []
    for prime, exp in fe.factors:
        items.extend([prime] * exp)
    return items


def _product(block):
    acc = constant(block[0].ring, 1)
    for p in block:
        acc = acc * p
    return acc


def _key(item):
    return getattr(item, "sort_key", item)


def _canonical(blocks):
    return tuple(
        sorted(
            (tuple(sorted(b, key=_key)) for b in blocks),
            key=lambda b: (len(b), tuple(_key(e) for e in b)),
        )
    )


def naive_set_partitions(items, min_blocks=1):
    """All partitions of a list of items, canonicalized and deduplicated."""
    out = set()

    def rec(i, blocks):
        if i == len(items):
            if len(blocks) >= min_blocks:
                out.add(_canonical(blocks))
            return
        for b in blocks:
            b.append(items[i])
            rec(i + 1, blocks)
            b.pop()
        blocks.append([items[i]])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def _signable(blocks, ideal):
    """Exhaustive sign search: some vector making all signed block products
    pairwise congruent, that is, reduce to one residue."""
    choices = []
    for b in blocks:
        p = _product(b)
        choices.append({1: reduce(p, ideal), -1: reduce(-p, ideal)})
    for signs in iter_product((1, -1), repeat=len(blocks)):
        if len({choice[s] for choice, s in zip(choices, signs)}) == 1:
            return signs
    return None


def naive_factorizations(fe, ideal):
    """Set of canonical factorizations as sorted tuples of block products."""
    items = _instances(fe)
    found = set()
    for blocks in naive_set_partitions(items):
        if _signable([list(b) for b in blocks], ideal) is not None:
            prods = tuple(
                sorted((_product(list(b)) for b in blocks), key=lambda e: e.sort_key)
            )
            found.add(prods)
    return found


def naive_is_atom(items, ideal):
    for blocks in naive_set_partitions(items, min_blocks=2):
        if _signable([list(b) for b in blocks], ideal) is not None:
            return False
    return True


def naive_atomic_partitions(fe, ideal):
    """Canonical partitions of the prime instances that are factorizations
    into tau-atoms."""
    found = []
    for blocks in naive_set_partitions(_instances(fe)):
        if _signable([list(b) for b in blocks], ideal) is None:
            continue
        if all(naive_is_atom(list(b), ideal) for b in blocks):
            found.append(blocks)
    return found


def naive_atomic_lengths(fe, ideal):
    return {len(blocks) for blocks in naive_atomic_partitions(fe, ideal)}
