"""p-adic valuations of rational numbers.

The additive valuation ``val(x, p)`` is the exponent of ``p`` in ``x``:
``val(p**k * m/n, p) = k`` when ``p`` divides neither ``m`` nor ``n``.  The
valuation of zero is the distinguished element ``INF``, which compares
greater than every rational, absorbs addition, and refuses the operations
(negation, subtraction) that have no consistent meaning for it.  The
corresponding absolute value is ``|x| = p**(-val(x))``; all comparisons in
this package happen on the valuation side, where arithmetic is exact.

A ``Place`` bundles a residue prime ``p`` with a ramification index ``e``;
the value group of the induced valuation on a ramified extension is
``(1/e)·Z``, membership in which is ``in_value_group``.  ``as_place`` is
the package's one place check, ``as_fraction`` its one rational check and
``as_valuation`` its one rational-or-INF check.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, checked_int
from .primes import is_prime


class _PlusInfinity:
    """The valuation of zero: larger than every rational, absorbing under +."""

    _instance: "_PlusInfinity | None" = None
    __slots__ = ()

    def __new__(cls) -> "_PlusInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("padicdyn.INF")

    # Order: INF is strictly greater than every rational and equal to itself.
    def __lt__(self, other: object) -> bool:
        self._check_comparable(other)
        return False

    def __le__(self, other: object) -> bool:
        self._check_comparable(other)
        return other is self

    def __gt__(self, other: object) -> bool:
        self._check_comparable(other)
        return other is not self

    def __ge__(self, other: object) -> bool:
        self._check_comparable(other)
        return True

    @staticmethod
    def _check_comparable(other: object) -> None:
        if not isinstance(other, (int, Fraction, _PlusInfinity)):
            raise TypeError(f"cannot compare INF with {other!r}")

    # Arithmetic: INF + v = INF for rational v; products with positive
    # integers (segment lengths, multiplicities) stay INF.  Anything that
    # would need a value for INF - INF or 0 * INF raises.
    def __add__(self, other: object) -> "_PlusInfinity":
        if isinstance(other, (int, Fraction, _PlusInfinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other: object) -> "_PlusInfinity":
        if isinstance(other, (int, Fraction)):
            if other > 0:
                return self
            raise ValueError("INF may only be scaled by a positive factor")
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "_PlusInfinity":
        raise ValueError("-INF is not a valuation")

    def __sub__(self, other: object) -> "_PlusInfinity":
        if isinstance(other, (int, Fraction)):
            return self
        raise ValueError("INF - INF is undefined")


INF = _PlusInfinity()

#: A valuation is either an exact rational or +infinity (the valuation of 0).
Valuation = Fraction | _PlusInfinity


def is_finite(v: Valuation) -> bool:
    """True iff ``v`` is a rational (i.e. not the valuation of zero)."""
    return not isinstance(v, _PlusInfinity)


RationalLike = int | Fraction | str

# ASCII digits only: no exponent, decimal point, underscore or whitespace, so
# a short string cannot stand for a huge number.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(x: RationalLike) -> Fraction:
    """``x`` as an exact Fraction: a Fraction, an int that is not a bool, or
    a '[sign]num[/den]' string; else PreconditionError.  The one rational
    check of the package."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str) and (match := _RATIONAL_TEXT.fullmatch(x)):
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):  # the int digit limit, or den 0
            pass
    raise PreconditionError(f"not a rational number [sign]num[/den], got {x!r}")


def as_valuation(x: Valuation | RationalLike) -> Valuation:
    """INF for INF or the text 'inf', else ``as_fraction(x)``: the one check
    of a rational-or-INF argument (disc radii, polygon valuations)."""
    if x is INF or (type(x) is str and x == "inf"):  # Fraction == str is slow
        return INF
    return as_fraction(x)


def as_place(place: Place | int) -> Place:
    """Coerce a Place or a bare prime to a Place.

    Anything else raises PreconditionError("place requires a prime ...")
    from ``Place`` itself, the one place check of the package.  Places built
    from an exact int are memoised, so a prime is tested once; only
    ``type(place) is int`` reaches the memo, since 2.0, True and Fraction(2)
    hash and compare equal to 2 and must still be refused.
    """
    if type(place) is int:
        return _int_place(place)
    return place if isinstance(place, Place) else Place(place)


def _int_valuation(n: int, p: int) -> int:
    """Multiplicity of p in the nonzero integer n.

    Most valuations an orbit meets are 0, 1 or 2, so the first two factors
    of p come off one division at a time and v = 0 costs one ``%``.  From a
    third factor on, p, p**2, p**4, ... are split off while they divide,
    then the same powers downwards, so a valuation k costs about 2*log2(k)
    divisions.
    """
    if n % p:
        return 0
    n //= p
    if n % p:
        return 1
    n //= p
    if n % p:
        return 2
    powers = []
    q = p
    while True:
        quo, rem = divmod(n, q)
        if rem:
            break
        n = quo
        powers.append(q)
        q *= q
    # The 2**len(powers) - 1 factors are off, and p**(2**len(powers)) does
    # not divide n, so the rest of v has the bits below len(powers).
    v = 1 + (1 << len(powers))
    for i in range(len(powers) - 1, -1, -1):
        quo, rem = divmod(n, powers[i])
        if not rem:
            n = quo
            v += 1 << i
    return v


def val(x: RationalLike, p: Place | int) -> Valuation:
    """Additive p-adic valuation of the rational ``x``; ``val(0, p) = INF``.

    ``p`` is a prime or a ``Place``.  Satisfies val(xy) = val(x) + val(y)
    and the ultrametric inequality val(x + y) >= min(val(x), val(y)), with
    equality when the two valuations differ.
    """
    p = as_place(p).p
    q = as_fraction(x)
    if q == 0:
        return INF
    return Fraction(_int_valuation(q.numerator, p) - _int_valuation(q.denominator, p))


_E_RULE = "ramification index must be a positive integer"


def in_value_group(sigma: RationalLike, e: int) -> bool:
    """Whether the rational ``sigma`` lies in (1/e)·Z.

    This is the value-group membership test for a place of ramification
    index ``e``: sigma is in the group iff e*sigma is an integer.
    """
    return (as_fraction(sigma) * checked_int(e, _E_RULE, 1)).denominator == 1


@dataclass(frozen=True)
class Place:
    """A non-archimedean place: residue prime ``p``, ramification index ``e``.

    The valuation is normalized so val(p) = 1; on a field with ramification
    index ``e`` over this place the value group is (1/e)·Z.
    """

    p: int
    e: int = 1

    def __post_init__(self) -> None:
        if not is_prime(checked_int(self.p, "place requires a prime", 2)):
            raise PreconditionError(f"place requires a prime, got {self.p!r}")
        checked_int(self.e, _E_RULE, 1)


_int_place = functools.lru_cache(maxsize=64)(Place)


def reduce_mod_prime_power(x: RationalLike, p: Place | int, k: int) -> Fraction:
    """A small rational congruent to ``x`` modulo p**k.

    ``p`` is a prime or a ``Place`` and ``k`` an integer.  Returns x' with
    val(x - x', p) >= k and with numerator/denominator of size O(p**k):
    writing x = p**v * m/n with p dividing neither m nor n, the result is
    p**v * (m * n^{-1} mod p**(k-v)), or 0 when v >= k.  Used to keep orbit
    elements small while preserving every valuation that is less than k.
    """
    p = as_place(p).p
    checked_int(k, "precision exponent k must be an integer")
    x = as_fraction(x)
    num, den = _reduce_pair(x.numerator, x.denominator, p, k)
    return Fraction(num) if den == 1 else Fraction(num, den)


def _reduce_pair(num: int, den: int, p: int, k: int) -> tuple[int, int]:
    """``reduce_mod_prime_power`` on the lowest-terms pair num/den (den > 0),
    returning a lowest-terms pair; p a prime and k an integer, unchecked."""
    if not num:
        return 0, 1
    v = _int_valuation(num, p) - _int_valuation(den, p)
    if v >= k:
        return 0, 1
    # In lowest terms p divides at most one of num and den, so this is m/n.
    m, n = (num // p**v, den) if v >= 0 else (num, den // p**-v)
    modulus = p ** (k - v)
    # u is a unit mod p, since m and n are, so u/p**-v is in lowest terms.
    u = m % modulus * pow(n, -1, modulus) % modulus
    return (u * p**v, 1) if v >= 0 else (u, p**-v)
