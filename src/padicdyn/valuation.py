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
``(1/e)·Z``, membership in which is ``in_value_group``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .primes import is_prime


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


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
Valuation = Union[Fraction, _PlusInfinity]


def is_finite(v: Valuation) -> bool:
    """True iff ``v`` is a rational (i.e. not the valuation of zero)."""
    return not isinstance(v, _PlusInfinity)


RationalLike = Union[int, Fraction, str]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_place(place: Place | int) -> Place:
    """Coerce a Place or a bare prime to a Place.

    Anything else raises PreconditionError("place requires a prime ...")
    from ``Place`` itself, the one place check of the package.
    """
    return place if isinstance(place, Place) else Place(place)


def _int_valuation(n: int, p: int) -> int:
    """Multiplicity of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(x: RationalLike, p: int) -> Valuation:
    """Additive p-adic valuation of the rational ``x``; ``val(0, p) = INF``.

    Satisfies val(xy) = val(x) + val(y) and the ultrametric inequality
    val(x + y) >= min(val(x), val(y)), with equality when the two
    valuations differ.
    """
    if not isinstance(p, int) or p < 2:
        raise PreconditionError(f"prime expected, got {p!r}")
    q = as_fraction(x)
    if q == 0:
        return INF
    return Fraction(_int_valuation(q.numerator, p) - _int_valuation(q.denominator, p))


def in_value_group(sigma: RationalLike, e: int) -> bool:
    """Whether the rational ``sigma`` lies in (1/e)·Z.

    This is the value-group membership test for a place of ramification
    index ``e``: sigma is in the group iff e*sigma is an integer.
    """
    if not isinstance(e, int) or e < 1:
        raise PreconditionError(f"ramification index must be a positive integer, got {e!r}")
    return (as_fraction(sigma) * e).denominator == 1


@dataclass(frozen=True)
class Place:
    """A non-archimedean place: residue prime ``p``, ramification index ``e``.

    The valuation is normalized so val(p) = 1; on a field with ramification
    index ``e`` over this place the value group is (1/e)·Z.
    """

    p: int
    e: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2 or not is_prime(self.p):
            raise PreconditionError(f"place requires a prime, got {self.p!r}")
        if not isinstance(self.e, int) or self.e < 1:
            raise PreconditionError(
                f"ramification index must be a positive integer, got {self.e!r}"
            )


def reduce_mod_prime_power(x: Fraction, p: int, k: int) -> Fraction:
    """A small rational congruent to ``x`` modulo p**k.

    Returns x' with val(x - x', p) >= k and with numerator/denominator of
    size O(p**k): writing x = p**v * m/n with p dividing neither m nor n,
    the result is p**v * (m * n^{-1} mod p**(k-v)), or 0 when v >= k.
    Used to keep orbit elements small while preserving every valuation
    that is less than k.
    """
    if x == 0:
        return x
    v = _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    if v >= k:
        return Fraction(0)
    unit = x / Fraction(p) ** v
    modulus = p ** (k - v)
    m = unit.numerator % modulus
    n_inv = pow(unit.denominator, -1, modulus)
    u = m * n_inv % modulus
    if v >= 0:
        return Fraction(u * p**v)
    return Fraction(u, p**-v)
