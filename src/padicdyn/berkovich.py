"""Points of the Berkovich affine line over Q_p, and polynomial dynamics on them.

A ``DiscPoint`` is a closed disc D(a, r) with rational center ``a`` and
radius r = p**(-rho); the radius is always handled through its valuation
``rho`` so that all comparisons are exact rational arithmetic.  rho = INF
gives a type I (classical) point, rho rational a type II/III point.  Two
disc points are equal iff they describe the same disc: equal rho and
val(a - a') >= rho.

The seminorm of a polynomial at a disc point, the containment partial
order, the image of a disc under a polynomial map, and membership of a
point in the filled Julia set (with certified escape / certified cycle /
iteration-budget verdicts) are all computed exactly.  Long orbits stay
exact by reducing centers modulo a high power of p whose exponent is
provisioned, up front, against the worst-case per-step congruence loss;
every valuation the verdicts depend on is provably unaffected by the
reduction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .polynomial import RationalPoly
from .valuation import (
    INF,
    PreconditionError,
    RationalLike,
    Valuation,
    as_fraction,
    as_place,
    is_finite,
    reduce_mod_prime_power,
    val,
)


@dataclass(frozen=True, eq=False)
class DiscPoint:
    """The closed disc D(center, p**(-rho)) as a point of the Berkovich line.

    rho = INF is the classical point ``center``; rational rho is the disc
    of radius p**(-rho).  Equality is equality of discs, not of the
    (center, rho) presentation.
    """

    center: Fraction
    rho: Valuation
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_fraction(self.center))
        if is_finite(self.rho):
            object.__setattr__(self, "rho", as_fraction(self.rho))
        object.__setattr__(self, "p", as_place(self.p).p)

    @property
    def is_type_i(self) -> bool:
        return not is_finite(self.rho)

    def canonical_key(self) -> tuple:
        """A hashable key equal for exactly the equal disc points."""
        if self.is_type_i:
            return ("I", self.p, self.center)
        k = math.ceil(self.rho)
        return ("II", self.p, self.rho, reduce_mod_prime_power(self.center, self.p, k))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscPoint):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        rho = "INF" if self.is_type_i else str(self.rho)
        return f"DiscPoint(center={self.center}, rho={rho}, p={self.p})"

    def to_json_dict(self) -> dict:
        return {
            "center": str(self.center),
            "rho": "inf" if self.is_type_i else str(self.rho),
            "p": self.p,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def disc_point_from_json_dict(data: dict) -> DiscPoint:
    rho: Valuation = INF if data["rho"] == "inf" else Fraction(data["rho"])
    return DiscPoint(Fraction(data["center"]), rho, int(data["p"]))


def seminorm(zeta: DiscPoint, poly: RationalPoly) -> Valuation:
    """Valuation-side seminorm: -log_p of sup |P| over the disc.

    For a type I point this is val(P(a)).  For a disc D(a, p**-rho) it is
    min_n (n*rho + val(c_n)) over the Taylor expansion P = sum c_n (X-a)**n,
    by the ultrametric maximum principle.  Multiplicative in P, and
    satisfies the ultrametric triangle inequality on the valuation side.
    """
    if zeta.is_type_i:
        return val(poly(zeta.center), zeta.p)
    best: Valuation = INF
    for n, c in enumerate(poly.taylor_coefficients(zeta.center)):
        if c == 0:
            continue
        term = n * zeta.rho + val(c, zeta.p)
        if term < best:
            best = term
    return best


def leq(zeta: DiscPoint, other: DiscPoint) -> bool:
    """Containment order: True iff disc(zeta) is contained in disc(other).

    In valuation terms: zeta.rho >= other.rho and
    val(center difference) >= other.rho.  Points at different primes are
    not comparable.
    """
    if zeta.p != other.p:
        raise PreconditionError(
            f"points at different places are incomparable: {zeta.p} vs {other.p}"
        )
    if not zeta.rho >= other.rho:
        return False
    return val(zeta.center - other.center, zeta.p) >= other.rho


def noncontainment_witness(zeta: DiscPoint, other: DiscPoint) -> RationalPoly:
    """A degree-one polynomial separating zeta from other when not leq.

    Returns P = X - b with seminorm(zeta, P) < seminorm(other, P), which
    certifies that disc(zeta) is not contained in disc(other).  The center
    of the would-be dominating disc always works as b.
    """
    if leq(zeta, other):
        raise PreconditionError("containment holds; no witness exists")
    return RationalPoly.identity() - RationalPoly.constant(other.center)


def pushforward(phi: RationalPoly, zeta: DiscPoint) -> DiscPoint:
    """The image disc of zeta under the polynomial map phi.

    A closed disc maps onto a closed disc: center phi(a), and radius
    valuation min_{n>=1} (n*rho + val(c_n)) read off the Taylor expansion
    of phi about a.  Characterized by seminorm(pushforward(phi, zeta), P)
    = seminorm(zeta, P o phi) for every P.
    """
    if phi.is_zero or phi.degree < 1:
        raise PreconditionError("pushforward requires a nonconstant polynomial")
    if zeta.is_type_i:
        return DiscPoint(phi(zeta.center), INF, zeta.p)
    tay = phi.taylor_coefficients(zeta.center)
    rho_new: Valuation = INF
    for n in range(1, len(tay)):
        if tay[n] == 0:
            continue
        term = n * zeta.rho + val(tay[n], zeta.p)
        if term < rho_new:
            rho_new = term
    return DiscPoint(tay[0], rho_new, zeta.p)


def escape_threshold(phi: RationalPoly, place) -> Fraction:
    """The critical valuation v_C below which orbits provably escape.

    v_C = min( -val(a_d)/(d-1),  min over i < d with a_i != 0 of
    (val(a_i) - val(a_d))/(d - i) ).  Guarantee: if val(z) < v_C then the
    leading term strictly dominates, so val(phi(z)) = val(a_d) + d*val(z)
    < val(z), and the valuation decreases to -infinity from there on.
    """
    p = as_place(place).p
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("escape threshold requires degree >= 2")
    d = phi.degree
    vad = val(phi.leading_coefficient, p)
    best = -vad / Fraction(d - 1)
    for i in range(d):
        ai = phi.coefficient(i)
        if ai == 0:
            continue
        cand = (val(ai, p) - vad) / Fraction(d - i)
        if cand < best:
            best = cand
    return best


# -- naive height growth -----------------------------------------------------


def weil_height(x: RationalLike) -> float:
    """Naive logarithmic height: h(m/n) = log max(|m|, |n|) in lowest terms."""
    q = as_fraction(x)
    return math.log(max(abs(q.numerator), q.denominator))


def _height_growth_bound(phi: RationalPoly) -> float:
    """B with: h(z) > B implies h(phi(z)) >= d*h(z) - (d-1)*B > h(z).

    With integer coefficients A_i = W*a_i (W the denominator lcm),
    S = sum of |A_i| for i < d, and R1 = max(1, 2S/|A_d|):
      - |z| >= R1 forces |numerator(phi(z))| >= |m|**d / (2 W |A_d|**(d-1)),
      - |z| < R1 forces denominator(phi(z)) >= |n|**d / |A_d|**d with
        max(|m|,|n|) <= R1*|n|,
    giving h(phi(z)) >= d*h(z) - C with
    C = max(log(2 W |A_d|**(d-1)), d*log(R1*|A_d|)); B = C/(d-1).
    (Silverman, The Arithmetic of Dynamical Systems, section 3.4.)
    """
    d = phi.degree
    w = math.lcm(*(c.denominator for c in phi.coefficients))
    ints = [abs(int(c * w)) for c in phi.coefficients]
    a_d = ints[-1]
    s_low = sum(ints[:-1])
    # log(R1*|A_d|) = log max(|A_d|, 2S), taken on exact integers so that
    # huge coefficients cannot overflow a float.
    c_low = max(
        math.log(2 * w) + (d - 1) * math.log(a_d),
        d * math.log(max(a_d, 2 * s_low)),
    )
    return c_low / (d - 1)


# -- filled Julia membership -------------------------------------------------


@dataclass(frozen=True)
class Escaped:
    """The orbit certifiably escapes; ``step`` is the first index whose
    valuation drops below the escape threshold, and ``valuation`` is that
    state's valuation min(val(center), rho).  Equality and JSON ignore
    ``valuation``."""

    step: int
    valuation: Valuation | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BoundedCertified:
    """The orbit certifiably cycles: state at ``cycle_start`` recurs after
    ``cycle_length`` further steps, so the point lies in the filled Julia set."""

    cycle_start: int
    cycle_length: int


@dataclass(frozen=True)
class BoundedUpTo:
    """No escape detected within ``max_iter`` verified steps; inconclusive."""

    max_iter: int


MembershipVerdict = Union[Escaped, BoundedCertified, BoundedUpTo]


def verdict_to_json_dict(verdict: MembershipVerdict) -> dict:
    if isinstance(verdict, Escaped):
        return {"verdict": "escaped", "step": verdict.step}
    if isinstance(verdict, BoundedCertified):
        return {
            "verdict": "bounded_certified",
            "cycle_start": verdict.cycle_start,
            "cycle_length": verdict.cycle_length,
        }
    if isinstance(verdict, BoundedUpTo):
        return {"verdict": "bounded_up_to", "max_iter": verdict.max_iter}
    raise TypeError(f"not a membership verdict: {verdict!r}")


def filled_julia_membership(
    phi: RationalPoly, zeta: DiscPoint, max_iter: int = 256
) -> MembershipVerdict:
    """Decide membership of ``zeta`` in the filled Julia set of ``phi``.

    Pushes the disc forward up to ``max_iter`` times.  Escaped(m): at step
    m the state's valuation min(val(center), rho) drops below the escape
    threshold, which certifies divergence.  BoundedCertified: the exact
    same disc recurs, certifying a cycle and hence membership.
    BoundedUpTo(n): neither event within the n verified steps.

    Centers are reduced modulo p**W each step; W is provisioned so that
    every valuation compared against the threshold, and every canonical
    form used for cycle detection, is provably the true one.  Type I
    points also carry the exact center for cycle detection until, at some
    step m >= 1, its naive height passes the growth bound of
    ``_height_growth_bound``: from there on heights increase strictly, so
    the orbit provably never repeats and only escape detection continues.
    If a disc orbit outruns the window (enormous radii), cycle
    certification is disabled for the remaining steps but escape detection
    stays sound.
    """
    if not isinstance(max_iter, int) or max_iter < 1:
        raise PreconditionError(f"max_iter must be a positive integer, got {max_iter!r}")
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("membership requires degree >= 2")
    p = zeta.p
    d = phi.degree
    v_c = escape_threshold(phi, p)

    # Precision plan.  Per step, congruence modulo p**k degrades by at most
    # L = max(0, -min val(a_i)) + (d-1)*max(0, -v_C) (difference bound for
    # phi(x) - phi(y) with both valuations >= v_C).  TRUST is the level below
    # which computed valuations are guaranteed exact after all steps; the
    # extra d*negvc covers comparison slop in the radius update.
    finite_cvals = [val(c, p) for c in phi.coefficients if c != 0]
    neg = max(0, math.ceil(-min(finite_cvals)))
    negvc = max(0, math.ceil(-v_c))
    rho0_mag = 0 if zeta.is_type_i else 2 * math.ceil(abs(zeta.rho))
    loss_per_step = neg + (d - 1) * negvc
    trust = 64 + 2 * (1 + math.ceil(abs(v_c))) + rho0_mag + d * negvc
    rho_trust = trust - d * negvc
    window = trust + (max_iter + 1) * loss_per_step

    center_red = reduce_mod_prime_power(as_fraction(zeta.center), p, window)
    rho = zeta.rho
    exact_center: Fraction | None = zeta.center if zeta.is_type_i else None
    certifiable = True
    seen: dict[tuple, int] = {}
    verified = 0
    growth_bound: float | None = None  # computed on first use

    for m in range(max_iter + 1):
        verified = m
        # Valuation of the current state; values at or above TRUST are only
        # known to be large, which suffices (TRUST > v_C by construction).
        cv = val(center_red, p)
        cv_known = is_finite(cv) and cv < trust
        rho_known = is_finite(rho) and rho < rho_trust
        t: Valuation = INF
        if cv_known:
            t = cv
        if rho_known:
            t = rho if not is_finite(t) else min(t, rho)
        if is_finite(t) and t < v_c:
            return Escaped(m, t)

        # Checked from step 1 on, after the escape test, so orbits that
        # escape at once never pay for the bound.
        if exact_center is not None and m >= 1:
            if growth_bound is None:
                growth_bound = _height_growth_bound(phi) + 1e-9
            if weil_height(exact_center) > growth_bound:
                exact_center = None  # the orbit can no longer repeat

        if certifiable:
            key: tuple | None = None
            if not is_finite(rho):
                if exact_center is not None:
                    key = ("I", exact_center)
            else:
                kk = math.ceil(rho)
                if kk <= trust:
                    key = ("II", rho, reduce_mod_prime_power(center_red, p, kk))
            if key is not None:
                if key in seen:
                    return BoundedCertified(seen[key], m - seen[key])
                seen[key] = m
            else:
                certifiable = False

        if m == max_iter:
            break

        # Advance one step.
        if not is_finite(rho):
            if exact_center is not None:
                exact_center = phi(exact_center)
            center_red = reduce_mod_prime_power(phi(center_red), p, window)
        else:
            tay = phi.taylor_coefficients(center_red)
            rho_new: Valuation = INF
            for n in range(1, len(tay)):
                if tay[n] == 0:
                    continue
                term = n * rho + val(tay[n], p)
                if term < rho_new:
                    rho_new = term
            if is_finite(rho_new) and rho_new >= rho_trust:
                certifiable = False
            rho = rho_new
            center_red = reduce_mod_prime_power(tay[0], p, window)

    return BoundedUpTo(verified)


# -- maximal bounded disc about a preperiodic center -------------------------


@dataclass(frozen=True)
class MaxPointResult:
    """Search outcome for the largest bounded disc centered at a point.

    The critical radius valuation rho* (boundedness holds exactly for
    rho >= rho*) lies in [rho_lower, rho_upper] when both are set.
    ``snapped`` is the lowest-denominator rational in the bracket; it is
    reported with exact=True when probing confirms boundedness at
    ``snapped`` and escape just below it.
    """

    rho_lower: Fraction | None
    rho_upper: Fraction | None
    snapped: Fraction | None
    exact: bool
    probes: int

    def to_json_dict(self) -> dict:
        return {
            "rho_lower": None if self.rho_lower is None else str(self.rho_lower),
            "rho_upper": None if self.rho_upper is None else str(self.rho_upper),
            "snapped": None if self.snapped is None else str(self.snapped),
            "exact": self.exact,
            "probes": self.probes,
        }


def simplest_between(lo: Fraction, hi: Fraction, include_hi: bool = True) -> Fraction:
    """The smallest-denominator rational in (lo, hi) or (lo, hi].

    Stern-Brocot / continued-fraction descent; among equal denominators the
    one closest to lo is produced by the descent.
    """
    if not lo < hi:
        raise ValueError("empty interval")
    cand = _simplest_open(lo, hi)
    if include_hi and hi.denominator < cand.denominator:
        return hi
    return cand


def _simplest_closed(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational in [lo, hi] (ties resolved toward lo)."""
    if lo == hi:
        return lo
    best = simplest_between(lo, hi, include_hi=True)
    if lo.denominator <= best.denominator:
        return lo
    return best


def _simplest_open(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly between lo and hi."""
    floor_lo = lo.numerator // lo.denominator
    if lo < floor_lo + 1 < hi:
        return Fraction(floor_lo + 1)
    if lo == floor_lo:
        # lo is an integer: simplest strictly above it is lo + 1/n for the
        # smallest n with lo + 1/n < hi.
        gap = hi - lo
        n = 1 // gap + 1
        return lo + Fraction(1, int(n))
    shifted_lo = lo - floor_lo
    shifted_hi = hi - floor_lo
    if shifted_hi > 1:
        return Fraction(floor_lo + 1)
    return floor_lo + 1 / _simplest_open(1 / shifted_hi, 1 / shifted_lo)


def max_point(
    phi: RationalPoly,
    a: RationalLike,
    place,
    tolerance: Fraction = Fraction(1, 2**20),
    max_iter: int = 256,
    max_probes: int = 200,
) -> MaxPointResult:
    """Locate rho* = the smallest rho with D(a, p**-rho) in the filled Julia set.

    Requires the orbit of the type I point ``a`` itself to be certified
    bounded (a preperiodic center); otherwise no disc about a is bounded
    and a PreconditionError is raised.

    The bounded-region radius bound forces rho* >= -val(a_d)/(d-1), so that
    value is probed first, and when it is already bounded it IS rho*
    exactly.  Otherwise certified escapes raise the lower end and certified
    cycles lower the upper end of a bracket, bisected to ``tolerance`` and
    then snapped to the lowest-denominator rational in the bracket, with
    confirmation probes on both sides of the snapped value.
    """
    p = as_place(place).p
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("max_point requires degree >= 2")
    af = as_fraction(a)
    base = filled_julia_membership(phi, DiscPoint(af, INF, p), max_iter)
    if not isinstance(base, BoundedCertified):
        raise PreconditionError(
            "base point is not preperiodic (orbit not certified bounded); "
            "max_point requires a preperiodic center"
        )

    probes = 0

    def probe(rho: Fraction) -> MembershipVerdict:
        nonlocal probes
        probes += 1
        return filled_julia_membership(phi, DiscPoint(af, rho, p), max_iter)

    d = phi.degree
    rho_floor = -val(phi.leading_coefficient, p) / Fraction(d - 1)
    first = probe(rho_floor)
    if isinstance(first, BoundedCertified):
        return MaxPointResult(rho_floor, rho_floor, rho_floor, True, probes)

    lo = rho_floor  # rho* >= rho_floor always; raised further by escapes
    lo_escaped = isinstance(first, Escaped)
    hi: Fraction | None = None
    step = Fraction(1)
    cursor = rho_floor
    while probes < max_probes:
        cursor = cursor + step
        step *= 2
        verdict = probe(cursor)
        if isinstance(verdict, BoundedCertified):
            hi = cursor
            break
        if isinstance(verdict, Escaped):
            lo = cursor
            lo_escaped = True
    if hi is None:
        return MaxPointResult(lo, None, None, False, probes)

    while hi - lo > tolerance and probes < max_probes:
        mid = (lo + hi) / 2
        verdict = probe(mid)
        if isinstance(verdict, BoundedCertified):
            hi = mid
        elif isinstance(verdict, Escaped):
            lo = mid
            lo_escaped = True
        else:
            break  # cannot refine rigorously past an inconclusive probe

    # Snap to the lowest-denominator candidate in the bracket: (lo, hi] when
    # an escape certified the lower end as strict, [lo, hi] otherwise.
    if lo_escaped:
        snapped = simplest_between(lo, hi, include_hi=True)
    else:
        snapped = _simplest_closed(lo, hi)
    bounded_at_snap = snapped == hi or isinstance(probe(snapped), BoundedCertified)
    if bounded_at_snap:
        delta = min(tolerance, (snapped - lo) / 2) if snapped > lo else tolerance
        below = probe(snapped - delta)
        if isinstance(below, Escaped):
            return MaxPointResult(snapped - delta, snapped, snapped, True, probes)
        return MaxPointResult(lo, snapped, snapped, False, probes)
    return MaxPointResult(lo, hi, None, False, probes)


def good_reduction(phi: RationalPoly, place) -> bool:
    """Whether phi has good reduction at the place.

    For a polynomial map this holds iff every coefficient is integral at p
    and the leading coefficient is a unit: then the mod-p reduction has the
    same degree and the resultant of the homogenized pair is a unit.
    """
    p = as_place(place).p
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("good reduction test requires degree >= 2")
    if val(phi.leading_coefficient, p) != 0:
        return False
    return all(val(c, p) >= 0 for c in phi.coefficients)
