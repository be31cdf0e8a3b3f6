"""Dense univariate polynomials over the rationals, with exact arithmetic.

Coefficients are ``fractions.Fraction`` stored ascending by degree.  The
operations that matter for dynamics are exact evaluation, composition and
iteration (refused above degree MAP_DEGREE_MAX), Taylor expansion about a
point (by an in-place Taylor shift, never by differentiating and dividing by
factorials, and refused above degree MAP_DEGREE_MAX), and the rational fixed
points of a map (candidate valuations from the Newton polygons of
phi(X) - X, plus exact verification).

Evaluation (``_image``) and the Taylor shift (``_taylor_shift``) run on
plain integers: the integer form of P is W = lcm of the coefficient
denominators and A_i = W * a_i, kept on the polynomial by ``map_invariant``,
and each public result is built as one Fraction from an integer numerator
and denominator.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError, checked_int
from .newton import newton_polygon
from .primes import factorize
from .valuation import RationalLike, as_fraction, val


class RationalPoly:
    """An exact polynomial with rational coefficients.

    ``coefficients`` are ascending: coefficients[i] multiplies X**i.
    Trailing zeros are trimmed; the zero polynomial has an empty tuple and
    degree None.
    """

    __slots__ = ("_coeffs", "_prepared")

    def __init__(self, coefficients: Iterable[RationalLike] = ()) -> None:
        if isinstance(coefficients, str) or not isinstance(coefficients, Iterable):
            rule = "coefficients must be an iterable of rationals, not text"
            raise PreconditionError(f"{rule}, got {coefficients!r}")
        coeffs = [as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        self._prepared = None  # map_invariant's dict, made on first use

    # -- construction ---------------------------------------------------
    @classmethod
    def identity(cls) -> "RationalPoly":
        """The polynomial X."""
        return cls((0, 1))

    @classmethod
    def constant(cls, c: RationalLike) -> "RationalPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: RationalLike = 1) -> "RationalPoly":
        """c * X**k."""
        return cls([0] * checked_int(k, "monomial exponent must be a nonnegative integer", 0) + [c])

    # -- structure ------------------------------------------------------
    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, i: int) -> Fraction:
        """The coefficient of X**i (zero beyond the degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; raises on the zero polynomial."""
        if not self._coeffs:
            raise PreconditionError("the zero polynomial has no degree")
        return len(self._coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise PreconditionError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    # -- ring operations ------------------------------------------------
    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation by Horner's rule on the integer form: at x = m/n,
        sum A_i m**i n**(d-i) over W n**d."""
        xf = as_fraction(x)
        if not self._coeffs:
            return Fraction(0)
        return Fraction(*_image(map_invariant(self, _integer_form), xf.numerator, xf.denominator))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "RationalPoly | RationalLike") -> "RationalPoly":
        other = self._coerce(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return RationalPoly(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(-c for c in self._coeffs)

    def __sub__(self, other: "RationalPoly | RationalLike") -> "RationalPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "RationalPoly | RationalLike") -> "RationalPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "RationalPoly | RationalLike") -> "RationalPoly":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RationalPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other: "RationalPoly | RationalLike") -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        return RationalPoly.constant(other)

    def __repr__(self) -> str:
        return f"RationalPoly({format_polynomial(self)!r})"

    # -- calculus-free expansions ----------------------------------------
    def derivative(self) -> "RationalPoly":
        return RationalPoly(i * c for i, c in enumerate(self._coeffs) if i > 0)

    def taylor_coefficients(self, a: RationalLike) -> list[Fraction]:
        """Coefficients c_0..c_d with P(X) = sum c_n (X - a)**n.

        The Fraction form of ``_taylor_shift``: at a = m/n, c_k = e_k /
        (W n**(d-k)).  Exact, and free of the factorial divisions of the
        derivative formula.  Refuses degree d > MAP_DEGREE_MAX, since every
        disc seminorm and pushforward runs this O(d**2) kernel.
        """
        af = as_fraction(a)
        if not self._coeffs:
            return [Fraction(0)]
        d = len(self._coeffs) - 1
        if d > MAP_DEGREE_MAX:
            raise PreconditionError(
                f"Taylor expansion of degree {d} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"
            )
        form, n = map_invariant(self, _integer_form), af.denominator
        shifted = _taylor_shift(form, af.numerator, n)
        return [Fraction(e, form[0] * n ** (d - k)) for k, e in enumerate(shifted)]

    def compose(self, inner: "RationalPoly") -> "RationalPoly":
        """self(inner(X)), by Horner's rule in the polynomial ring.

        Refuses, before doing any work, a result of degree above
        MAP_DEGREE_MAX: the cost grows with the square of that degree.
        """
        d = (len(self._coeffs) - 1) * (len(checked_poly(inner)._coeffs) - 1)
        if d > MAP_DEGREE_MAX:
            raise PreconditionError(
                f"composition degree {d} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"
            )
        acc = RationalPoly()
        for c in reversed(self._coeffs):
            acc = acc * inner + RationalPoly.constant(c)
        return acc

    def iterate(self, m: int) -> "RationalPoly":
        """The m-fold composition of self with itself; m = 0 gives X.

        Each step is a ``compose``, so an iterate of degree above
        MAP_DEGREE_MAX is refused, and so is m above MAP_DEGREE_MAX, which
        bounds the steps of a map of degree <= 1.  For degree >= 2 the
        leading coefficient of the iterate is lc**((d**m - 1)/(d - 1)), which
        is asserted.
        """
        checked_int(m, _ITERATE_RULE, 0, MAP_DEGREE_MAX)
        d = self.degree
        result = RationalPoly.identity()
        for _ in range(m):
            result = self.compose(result)
        if d >= 2:
            expected_lc = self.leading_coefficient ** ((d**m - 1) // (d - 1))
            assert result.leading_coefficient == expected_lc
            assert result.degree == d**m
        return result

    def rational_fixed_points(self) -> list[Fraction]:
        """All rational solutions of self(x) = x, each verified exactly.

        Let a_0 + ... + a_k X**k (a_0, a_k != 0) be the content-free integer
        form of self(X) - X over its power of X.  At each prime q of a_0*a_k a
        nonzero rational root has valuation v = minus an integral slope of the
        q-adic Newton polygon, elsewhere 0; each candidate +-prod q**v with
        |a_0| / sum|a_i| <= |x| <= sum|a_i| / |a_k| is checked exactly.  As v
        lies in [-v_q(a_k), v_q(a_0)], one value per coprime divisor pair
        r | a_0, s | a_k, this makes no more evaluations than a divisor loop.
        """
        psi = self - RationalPoly.identity()
        if psi.is_zero:
            raise PreconditionError("identity map: every rational point is fixed")
        ints = map_invariant(psi, _integer_form)[1]
        low = next(i for i, a in enumerate(ints) if a)
        roots = [Fraction(0)] if low else []
        content = gcd(*ints)
        ints = [a // content for a in ints[low:]]
        if len(ints) > 1:
            candidates = [Fraction(1)]
            for q in factorize(abs(ints[0])) | factorize(abs(ints[-1])):
                polygon = newton_polygon((i, val(a, q)) for i, a in enumerate(ints))
                powers = [Fraction(q) ** -s.slope for s in polygon.segments
                          if s.slope.denominator == 1]
                candidates = [c * qv for qv in powers for c in candidates]
            total = sum(map(abs, ints))
            lo, hi = Fraction(abs(ints[0]), total), Fraction(total, abs(ints[-1]))
            roots += [x for c in candidates if lo <= c <= hi
                      for x in (c, -c) if psi(x) == 0]
        return sorted(roots)


# Every dynamics entry point refuses maps above this degree, and the CLI
# grammar refuses any larger exponent, so no argument builds such a map.
MAP_DEGREE_MAX = 256
_ITERATE_RULE = f"iteration count must be an integer in 0..MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"


def checked_poly(poly: RationalPoly, what: str = "a polynomial") -> RationalPoly:
    """``poly`` if it is a RationalPoly, else PreconditionError(f"{what} must
    be a RationalPoly, got {poly!r}"): the one polynomial check."""
    if not isinstance(poly, RationalPoly):
        raise PreconditionError(f"{what} must be a RationalPoly, got {poly!r}")
    return poly


def map_degree(phi: RationalPoly) -> int:
    """Degree d of phi as a dynamical map; every dynamics entry point needs
    2 <= d <= MAP_DEGREE_MAX."""
    d = len(checked_poly(phi, "a map").coefficients) - 1  # -1 for the zero polynomial
    if d < 2:
        raise PreconditionError("dynamics requires a polynomial of degree >= 2")
    if d > MAP_DEGREE_MAX:
        raise PreconditionError(f"map degree {d} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}")
    return d


_UNSET = object()  # map_invariant's marker for a value not yet computed


def map_invariant(phi: RationalPoly, make, *args):
    """make(phi, *args) for a value that depends on the polynomial alone,
    computed once per polynomial object and kept on it.  A computation that
    raises stores nothing; callers run their own checks before every lookup."""
    prepared = phi._prepared
    if prepared is None:
        prepared = phi._prepared = {}
    key = (make, *args)
    value = prepared.get(key, _UNSET)
    if value is _UNSET:
        value = prepared[key] = make(phi, *args)
    return value


def _integer_form(poly: RationalPoly) -> tuple[int, tuple[int, ...]]:
    """(W, (A_0, ..., A_d)): W the lcm of the coefficient denominators and
    A_i = W * a_i, so that poly = (sum A_i X**i) / W on plain integers."""
    w = lcm(*(c.denominator for c in poly.coefficients))
    return w, tuple(c.numerator * (w // c.denominator) for c in poly.coefficients)


def _image(form: tuple[int, tuple[int, ...]], a: int, b: int, mod: int = 0) -> tuple[int, int]:
    """P(a/b) as a lowest-terms pair, for the integer form (W, A) of a
    nonzero P and the lowest-terms pair a/b: sum A_i a**i b**(d-i) over
    W b**d, by one Horner pass and one gcd.  A positive ``mod`` keeps each
    partial sum of that numerator modulo ``mod``."""
    w, ints = form
    acc, bpow = ints[-1], 1
    for c in ints[-2::-1]:
        bpow *= b
        acc = acc * a + c * bpow
        if mod:
            acc %= mod
    bpow *= w
    g = gcd(acc, bpow)
    return acc // g, bpow // g


def _taylor_shift(form: tuple[int, tuple[int, ...]], a: int, b: int) -> list[int]:
    """Numerators e_0..e_d of the Taylor coefficients of P about a/b, for
    the integer form (W, A) of a nonzero P and b > 0: c_k = e_k / (W b**(d-k)).

    The in-place Taylor shift, d(d+1)/2 multiply-adds on one list:
    B_j = A_j b**(d-j) are the coefficients of W b**d P(Z/b), and shifting
    them by a gives the e_k.  The one kernel behind ``taylor_coefficients``
    and the disc steps of ``filled_julia_membership``.
    """
    e = list(form[1])
    d, bpow = len(e) - 1, 1
    for j in range(d - 1, -1, -1):
        bpow *= b
        e[j] *= bpow
    for i in range(d if a else 0):  # the shift by 0 leaves the B_j as they are
        acc = e[d]
        for j in range(d - 1, i - 1, -1):
            acc = e[j] = e[j] + a * acc
    return e


def format_polynomial(poly: RationalPoly) -> str:
    """Canonical text form: descending powers, e.g. 'X^5 + X^2 + X + 1/2'.

    Inverse of the expression parser on canonical forms: coefficients 1 and
    -1 on X-terms are elided, other coefficients print as 'c*X^n', and the
    constant term prints bare.
    """
    if checked_poly(poly).is_zero:
        return "0"
    parts: list[str] = []
    for i in range(poly.degree, -1, -1):
        c = poly.coefficient(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "X" if i == 1 else f"X^{i}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
