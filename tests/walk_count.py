"""Count the work of the partition walk."""

from contextlib import contextmanager

from taufact import engine, partitions


@contextmanager
def walk_counts():
    """Yield a dict whose ``examined`` counts the parts the walk takes while
    the block runs, through ``partitions.vector_partitions`` or the engine's
    binding of it.  A taken part either closes a partition, which the walk
    yields, or opens a node, which bisects its top field once; the root of a
    class's walk bisects nothing.  ``scanned`` counts the parts those nodes
    scan, fitting or not: the parts of the top field below the bisection.
    ``walks`` lists each call's arguments, its classes as lists."""
    counts = {"examined": 0, "scanned": 0, "walks": []}
    real_bisect, real_walk = partitions.bisect_right, partitions.vector_partitions

    def bisect_right(group, bound):
        index = real_bisect(group, bound)
        counts["examined"] += 1
        counts["scanned"] += index
        return index

    def vector_partitions(whole, width, classes):
        classes = [list(parts) for parts in classes]
        counts["walks"].append((whole, width, classes))
        for partition in real_walk(whole, width, classes):
            counts["examined"] += 1
            yield partition

    partitions.bisect_right = bisect_right
    partitions.vector_partitions = engine.vector_partitions = vector_partitions
    try:
        yield counts
    finally:
        partitions.bisect_right = real_bisect
        partitions.vector_partitions = engine.vector_partitions = real_walk
