"""Count the residue arithmetic of the kernel."""

from contextlib import contextmanager

from taufact import quotient


@contextmanager
def remainder_calls():
    """Yield a dict whose ``remainder`` counts the calls of
    ``quotient.remainder`` while the block runs.  Over Z[x] each prime's
    ``reduce`` makes one, and so does each residue product and negation
    that ``residue_ops`` computes."""
    counts = {"remainder": 0}
    real = quotient.remainder

    def remainder(*args):
        counts["remainder"] += 1
        return real(*args)

    quotient.remainder = remainder
    try:
        yield counts
    finally:
        quotient.remainder = real
