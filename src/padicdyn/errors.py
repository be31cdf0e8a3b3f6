"""The package's one exception for calls outside a function's stated domain,
and its one integer, real-number, pair-sequence and outside-data check: each
refuses with a PreconditionError that names the rule and the value given."""

import functools
import math
import sys
from collections.abc import Iterable
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


def checked_pairs(xs: object, rule: str) -> list:
    """The items of ``xs`` as a list if it is an iterable of pairs (tuples or
    lists of length 2), else PreconditionError(f"{rule}, got {xs!r}"): the
    one check of (index, valuation) data."""
    items = list(xs) if isinstance(xs, Iterable) else None
    if items is None or not all(isinstance(x, (tuple, list)) and len(x) == 2 for x in items):
        raise PreconditionError(f"{rule}, got {xs!r}")
    return items


def refusing_malformed(what: str):
    """Decorator for a reader of outside data (a JSON dict): data of the wrong
    shape, such as None, a missing field or a short entry, raises
    PreconditionError(f"malformed {what}, got {data!r}") instead of the error
    of reading it.  The reader's own refusals pass as they are."""

    def decorate(reader):
        @functools.wraps(reader)
        def read(data):
            try:
                return reader(data)
            except PreconditionError:
                raise
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                raise PreconditionError(f"malformed {what}, got {data!r}") from exc

        return read

    return decorate
