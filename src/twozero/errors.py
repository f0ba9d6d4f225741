"""Exception hierarchy.

Three severity tiers, matching the CLI exit-code contract:

* ``ParameterError`` -- the caller asked for something invalid (exit 2).
* ``Refusal`` -- the request is valid but declined, either because an
  enumeration would exceed its budget or because no closed form exists
  for the parameter case (exit 3).
* ``InternalInconsistency`` -- a structural invariant that should be
  unconditionally true has failed; these abort loudly and are never
  caught by the CLI (they indicate a bug, not bad input).

Every budgeted pass refuses through :func:`check_budget`, beside the loop it bounds.
"""


class TwoZeroError(Exception):
    """Base class for all package errors."""


class ParameterError(TwoZeroError, ValueError):
    """Invalid user-supplied parameters."""


class NotOddPrime(ParameterError):
    """p must be an odd prime."""


class NotADivisor(ParameterError):
    """Subfield degree does not divide the extension degree."""


class ZeroArgument(ParameterError):
    """Operation undefined at zero."""


class DivisionByZero(ParameterError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class STooSmall(ParameterError):
    """The standing assumption m/gcd(m,k) >= 3 fails."""


class BothZero(ParameterError):
    """(alpha, beta) = (0, 0) is outside the operation's domain."""


class Refusal(TwoZeroError):
    """Valid request declined (budget or unsupported parameter case)."""


class BudgetExceeded(Refusal):
    """Enumeration size exceeds the configured budget."""


class DegreeTooLarge(BudgetExceeded):
    """p**m exceeds the configured table budget."""


def check_budget(
    what: str,
    needed: int,
    unit: str,
    budget: int | None,
    default: int,
    error: type[BudgetExceeded] = BudgetExceeded,
) -> None:
    """Refuse work of needed units when it exceeds budget (None: default)."""
    limit = default if budget is None else budget
    if needed > limit:
        raise error(f"{what} needs {needed} {unit} > budget {limit}")


class UnsupportedCase(Refusal):
    """No closed form exists for this parameter case."""


class InternalInconsistency(TwoZeroError):
    """A structural invariant failed; indicates a bug."""


class DistinctnessViolated(InternalInconsistency):
    """h1 and h2 coincide, contradicting their construction."""


class NonRationalSum(InternalInconsistency):
    """A character-sum aggregate that must be rational is not."""


class NonIntegralWeight(InternalInconsistency):
    """The weight formula produced a non-integer."""


class InexactDivision(InternalInconsistency):
    """A closed-form frequency formula did not divide exactly."""
