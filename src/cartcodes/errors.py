"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Raised when elements of different fields are combined."""


class NotCoprimeError(ValueError):
    """Remainder sequence hit zero: the inputs share a nonconstant factor.

    Carries the offending gcd (made monic) in ``gcd``.
    """

    def __init__(self, gcd):
        super().__init__(f"inputs are not coprime; gcd = {gcd}")
        self.gcd = gcd


class SingularMatrixError(ValueError):
    """Raised when a singular matrix is inverted."""


def format_count(count: int) -> str:
    """``count`` in decimal, or the bound "more than 10^D" when it has more
    digits than the interpreter converts (4,300 by default)."""
    try:
        return str(count)
    except ValueError:
        # 0.30102 < log10(2), so 10^D <= 2^(bit_length - 1) <= count
        return f"more than 10^{(count.bit_length() - 1) * 30102 // 100000}"


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the caller's budget.

    ``required`` names the enumeration size that was refused.
    """

    def __init__(self, required, budget):
        super().__init__(
            f"enumeration of {format_count(required)} items exceeds budget {budget}"
        )
        self.required = required
        self.budget = budget


class NotLcdError(ValueError):
    """A construction required an LCD code but the code is not LCD.

    ``witness`` is a matrix whose rows lie in the intersection of the code
    with its dual.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistencyError(AssertionError):
    """Two routes that must agree produced different answers.

    This always indicates a bug, never bad user input.
    """
