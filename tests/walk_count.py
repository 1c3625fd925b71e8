"""Count the blocks the partition walk examines."""

from contextlib import contextmanager

from taufact import partitions


@contextmanager
def walk_calls():
    """Yield a list that grows by one on every call of the walk's recursive
    generator while the block runs.  Each class's walk starts with one root
    call; every further call follows one examined block."""
    real, calls = partitions._partitions, []

    def counting(*args):
        calls.append(None)
        yield from real(*args)

    partitions._partitions = counting
    try:
        yield calls
    finally:
        partitions._partitions = real
