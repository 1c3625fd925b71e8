"""Exception hierarchy shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error objects.
"""


class TaufactError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class ParseError(TaufactError):
    code = "parse_error"


class RingMismatch(TaufactError):
    code = "ring_mismatch"


class ZeroElement(TaufactError):
    code = "zero_element"


class ZeroOrUnitInput(TaufactError):
    code = "zero_or_unit_input"


class NotPrime(TaufactError):
    code = "not_prime"

    def __init__(self, element, message=None):
        super().__init__(message or f"not prime: {element}")
        self.element = element


class UnsupportedDegree(TaufactError):
    code = "unsupported_degree"


class NonMonicGenerator(TaufactError):
    code = "non_monic_generator"


class InfiniteQuotient(TaufactError):
    code = "infinite_quotient"


class NotOrderFour(TaufactError):
    code = "not_order_four"


class InternalCheckFailed(TaufactError):
    code = "internal_check_failed"


class BudgetExceeded(TaufactError):
    code = "budget_exceeded"


class NoWitnessPrime(TaufactError):
    code = "no_witness_prime"
