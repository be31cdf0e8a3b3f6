"""The package's one exception for calls outside a function's stated domain,
and its one integer and one real-number argument check: each refuses with a
PreconditionError that names the rule and the value given."""

import math
import sys
from fractions import Fraction


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


def checked_int(x: object, rule: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``x`` if it is an int, not a bool, with lo <= x <= hi; else
    PreconditionError(f"{rule}, got {x!r}").  The one integer check of the
    package: primes, counts, degrees, indices and JSON integer fields."""
    if type(x) is not int or not lo <= x <= hi:
        raise PreconditionError(f"{rule}, got {x!r}")
    return x


def checked_real(
    x: object, rule: str, lo: float = -math.inf, hi: float = sys.float_info.max
) -> float:
    """Like ``checked_int`` for an int, float or Fraction: the one real-number
    check of the package (tolerances, windows, constants).  The default upper
    bound keeps out inf, and any bound keeps out nan."""
    if not isinstance(x, (int, float, Fraction)) or type(x) is bool or not lo <= x <= hi:
        raise PreconditionError(f"{rule}, got {x!r}")
    return x
