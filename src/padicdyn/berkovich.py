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
iteration-budget verdicts) are all computed exactly.  A disc state is the
lowest-terms integer pair (num, den) of its center and a rational radius
valuation rho.  Its center is reduced once a step, mod p**ceil(rho) (any
point of a disc is its center) capped at a window provisioned against the
worst-case per-step congruence loss, and each step is one integer Taylor
shift (``polynomial._taylor_shift``) whose valuations are taken on
integers; only rho is a Fraction.  A type I state is the lowest-terms
integer pair (a, b) of its point a/b, stepped on the map's integer form
(modulo a power of p once its orbit can no longer repeat), with every
valuation taken on integers.  Once an orbit can no longer be certified to
cycle (a type I point past its growth bound, a disc radius past the trust
level), a p-integral state of a p-integral map ends it at once: such a map
sends the closed unit disc into itself, so the orbit can neither escape nor
cycle (the integral trap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, checked_int, refusing_malformed
from .polynomial import (
    RationalPoly, _image, _integer_form, _taylor_shift, checked_poly, map_degree, map_invariant
)
from .valuation import (
    INF,
    RationalLike,
    Valuation,
    _int_valuation,
    _reduce_pair,
    as_fraction,
    as_place,
    as_valuation,
    is_finite,
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
        object.__setattr__(self, "rho", as_valuation(self.rho))
        object.__setattr__(self, "p", as_place(self.p).p)

    @property
    def is_type_i(self) -> bool:
        return not is_finite(self.rho)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscPoint):
            return NotImplemented
        return (
            self.p == other.p
            and self.rho == other.rho
            and val(self.center - other.center, self.p) >= self.rho
        )

    def __hash__(self) -> int:
        # Equal discs agree mod p**ceil(rho), so also mod p**64, which is cheap.
        c = (self.center.numerator, self.center.denominator)
        if not self.is_type_i:
            c = _reduce_pair(*c, self.p, min(math.ceil(self.rho), 64))
        return hash((self.p, self.rho, c))

    def __repr__(self) -> str:
        rho = "INF" if self.is_type_i else str(self.rho)
        return f"DiscPoint(center={self.center}, rho={rho}, p={self.p})"

    def to_json_dict(self) -> dict:
        return {
            "center": str(self.center),
            "rho": "inf" if self.is_type_i else str(self.rho),
            "p": self.p,
        }


def _checked_disc(zeta: DiscPoint) -> DiscPoint:
    """``zeta`` if it is a DiscPoint, else PreconditionError: the one check
    of a point argument."""
    if not isinstance(zeta, DiscPoint):
        raise PreconditionError(f"a point must be a DiscPoint, got {zeta!r}")
    return zeta


@refusing_malformed("disc point data")
def disc_point_from_json_dict(data: dict) -> DiscPoint:
    p = checked_int(data["p"], "p must be an integer")
    return DiscPoint(data["center"], data["rho"], p)


def seminorm(zeta: DiscPoint, poly: RationalPoly) -> Valuation:
    """Valuation-side seminorm: -log_p of sup |P| over the disc.

    For a type I point this is val(P(a)).  For a disc D(a, p**-rho) it is
    min_n (n*rho + val(c_n)) over the Taylor expansion P = sum c_n (X-a)**n,
    by the ultrametric maximum principle.  Multiplicative in P, and
    satisfies the ultrametric triangle inequality on the valuation side.
    """
    _checked_disc(zeta)
    checked_poly(poly)
    if zeta.is_type_i:
        return val(poly(zeta.center), zeta.p)
    return _taylor_min(poly.taylor_coefficients(zeta.center), 0, zeta.rho, zeta.p)


def _taylor_min(tay: list[Fraction], start: int, rho: Fraction, p: int) -> Valuation:
    """min of n*rho + val(c_n) over n >= start with c_n != 0, else INF: a
    disc's seminorm from n = 0, its image radius from n = 1.  The membership
    loop keeps its own copy on integers on purpose: the bench's ``orbits``
    gate replays its verdicts through ``pushforward``, so shared code would
    check the engine against itself; the two share only ``_taylor_shift``."""
    return min(
        (n * rho + val(c, p) for n, c in enumerate(tay[start:], start) if c != 0),
        default=INF,
    )


def leq(zeta: DiscPoint, other: DiscPoint) -> bool:
    """Containment order: True iff disc(zeta) is contained in disc(other).

    In valuation terms: zeta.rho >= other.rho and
    val(center difference) >= other.rho.  Points at different primes are
    not comparable.
    """
    if _checked_disc(zeta).p != _checked_disc(other).p:
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
    _checked_disc(zeta)
    if checked_poly(phi).is_zero or phi.degree < 1:
        raise PreconditionError("pushforward requires a nonconstant polynomial")
    if zeta.is_type_i:
        return DiscPoint(phi(zeta.center), INF, zeta.p)
    tay = phi.taylor_coefficients(zeta.center)
    return DiscPoint(tay[0], _taylor_min(tay, 1, zeta.rho, zeta.p), zeta.p)


class _LocalInvariants:
    """phi's invariants at the prime p, built on integers: v_C (the one
    Fraction), the ints vad = val(a_d) and min_val (the least coefficient
    valuation), the tail constant bound_q * log(p) (the left factor in
    _tail_bound_p) and p-integrality.  One pass over the coefficients below
    a_d takes v_C and min_val together, skipping a zero by its numerator.
    Callers check the place and degree."""

    def __init__(self, phi: RationalPoly, p: int) -> None:
        *low, lead = phi.coefficients
        d = len(low)
        self.vad = vad = _int_valuation(lead.numerator, p) - _int_valuation(lead.denominator, p)
        # v_C = vn / vd, the least of -vad/(d-1) and (v - vad)/(d-i).
        vn, vd = -vad, d - 1
        min_val = vad
        for i, c in enumerate(low):
            if c.numerator:
                v = _int_valuation(c.numerator, p) - _int_valuation(c.denominator, p)
                if v < min_val:
                    min_val = v
                if (v - vad) * vd < vn * (d - i):
                    vn, vd = v - vad, d - i
        self.v_c = Fraction(vn, vd)
        self.min_val = min_val
        # bound_q = max(0, -t_floor) + |vad|/(d-1), t_floor = min_val + d*min(v_C, 0).
        neg_t = max(0, d * max(0, -vn) - self.min_val * vd)
        self.tail_const = (neg_t * (d - 1) + abs(vad) * vd) / (vd * (d - 1)) * math.log(p)
        self.integral = self.min_val >= 0


def escape_threshold(phi: RationalPoly, place) -> Fraction:
    """The critical valuation v_C below which orbits provably escape.

    v_C = min( -val(a_d)/(d-1),  min over i < d with a_i != 0 of
    (val(a_i) - val(a_d))/(d - i) ).  Guarantee: if val(z) < v_C then the
    leading term strictly dominates, so val(phi(z)) = val(a_d) + d*val(z)
    < val(z), and the valuation decreases to -infinity from there on.
    """
    p = as_place(place).p
    map_degree(phi)
    return map_invariant(phi, _LocalInvariants, p).v_c


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
    w, ints = map_invariant(phi, _integer_form)
    a_d = abs(ints[-1])
    s_low = sum(map(abs, ints[:-1]))
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


MembershipVerdict = Escaped | BoundedCertified | BoundedUpTo


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
    raise PreconditionError(f"not a membership verdict, got {verdict!r}")


# The p-adic window grows like (max_iter + 1) * loss_per_step, so max_iter is
# capped.  The cap clears the largest step count canonical_height can ask for
# (about 1,100: a float tail bound over the EPS_FLOOR budget, at degree 2).
MEMBERSHIP_MAX_ITER = 2048
_MAX_ITER_RULE = f"max_iter must be an integer in 1..MEMBERSHIP_MAX_ITER = {MEMBERSHIP_MAX_ITER}"
# The window also grows by 2*ceil(|rho|) for a disc, so |rho| is capped too.
# At the cap and MEMBERSHIP_MAX_ITER steps, X^2 + X at p = 3 about 1 takes
# about 0.4 s on a 2-vCPU Xeon.
MEMBERSHIP_RHO_MAX = 1024


class _OrbitPlan:
    """The precision plan of a membership orbit of phi at p, for at most
    max_iter steps from a state of |rho| <= rho0_mag / 2.

    Per step, congruence modulo p**k degrades by at most
    L = max(0, -min val(a_i)) + (d-1)*max(0, -v_C) (difference bound for
    phi(x) - phi(y) with both valuations >= v_C).  TRUST is the level below
    which computed valuations are guaranteed exact after all steps; the
    extra d*negvc covers comparison slop in the radius update.  Disc
    centers, as integer pairs, and type I states past the growth bound,
    are reduced modulo p**window.  ``window`` and ``rho_trust`` are ints,
    their ceilings taken by floor division on v_C's numerator and
    denominator.  Callers check the place and degree.
    """

    def __init__(self, phi: RationalPoly, p: int, max_iter: int, rho0_mag: int) -> None:
        d = phi.degree
        inv = map_invariant(phi, _LocalInvariants, p)
        vn, vd = inv.v_c.numerator, inv.v_c.denominator
        negvc = max(0, -(vn // vd))  # ceil(-v_C)
        loss_per_step = max(0, -inv.min_val) + (d - 1) * negvc
        trust = 64 + 2 * (1 - (-abs(vn) // vd)) + rho0_mag + d * negvc  # 1 + ceil(|v_C|)
        self.rho_trust = trust - d * negvc
        self.window = trust + (max_iter + 1) * loss_per_step


def filled_julia_membership(
    phi: RationalPoly, zeta: DiscPoint, max_iter: int = 256
) -> MembershipVerdict:
    """Decide membership of ``zeta`` in the filled Julia set of ``phi``.

    Pushes the disc forward up to ``max_iter`` times.  Escaped(m): at step
    m the state's valuation min(val(center), rho) drops below the escape
    threshold, which certifies divergence.  BoundedCertified: the exact
    same disc recurs, certifying a cycle and hence membership.
    BoundedUpTo(n): neither event within the n verified steps.

    Each step reduces the center once, modulo p**min(ceil(rho), W).  Below
    the window W that residue names the disc however its center is
    written, so it is the cycle key; it becomes the center only when
    smaller, so a small center such as a fixed point stays as it is.  W is
    provisioned so that every valuation compared against the threshold is
    provably the true one; it depends only on phi, p, ``max_iter`` and the
    size of the starting radius, so its plan is computed once and kept on
    the map object.  The plan and phi's integer form (w, A) are looked up
    at the first advance, so a call that ends at step 0 builds neither and
    one that ends at step 1 pays for little more than its steps.  A disc
    state is the lowest-terms pair (num, den) of its center and the
    Fraction rho = r/q, which only the radius update reads as a Fraction:
    the escape test (t * den(v_C) < num(v_C), r * den(v_C) < num(v_C) * q
    when t = rho), the cycle key (a, b, r, q) and the trust test
    r >= rho_trust * q work on integers.  A step is one ``_taylor_shift``
    on the integer form: its numerators e_n give val(c_n) = val(e_n) -
    val(w) - (d - n)*val(den), and the new center e_0 / (w den**d) in
    lowest terms by one gcd.  A type I state is the lowest-terms integer
    pair (a, b) of its center a/b, stepped by Horner's rule on phi's
    integer form (see ``_type_i_orbit``); it stays exact while the orbit can
    repeat: until, at some step m >= 1, its naive height passes the growth
    bound of ``_height_growth_bound``.  From there on heights increase
    strictly, so the orbit provably never repeats; each step runs modulo a
    power of p that fixes the next state modulo p**W, and only escape
    detection continues.  Once a disc's radius valuation reaches
    rho_trust (enormous radii), cycle certification is disabled for the
    remaining steps but escape detection stays sound.
    The integral trap ends both loops with BoundedUpTo, exactly, at a
    p-integral state of a p-integral map once no cycle can be certified any
    more: a type I state past the growth bound, or a disc whose radius
    valuation is at least rho_trust.  Such a map keeps the center
    p-integral under every later step and reduction, and a disc's radius
    valuation, being >= 0, no smaller; so t >= 0 >= v_C rules out escape,
    and the steps left could only give BoundedUpTo.
    """
    checked_int(max_iter, _MAX_ITER_RULE, 1, MEMBERSHIP_MAX_ITER)
    if not _checked_disc(zeta).is_type_i and abs(zeta.rho) > MEMBERSHIP_RHO_MAX:
        raise PreconditionError(
            "disc radius valuation exceeds MEMBERSHIP_RHO_MAX = "
            f"{MEMBERSHIP_RHO_MAX} in absolute value"
        )
    p = zeta.p
    v_c = escape_threshold(phi, p)  # checks the map
    if zeta.is_type_i:
        return _type_i_orbit(phi, zeta.center, p, v_c, max_iter)
    vn, vd = v_c.numerator, v_c.denominator
    num, den = zeta.center.numerator, zeta.center.denominator
    rho = zeta.rho
    r, q = rho.numerator, rho.denominator
    # The plan's W is read at the first advance.  Until then the step-0
    # stand-in 2*ceil(|rho_0|) serves: ceil(rho_0) <= 2*ceil(|rho_0|) < trust
    # <= W, so min(ceil(rho_0), W) = ceil(rho_0) under either.
    rho0_mag = window = 2 * math.ceil(abs(rho))
    form = None  # phi's integer form, looked up at the first advance
    certifiable = True
    seen: dict[tuple, int] = {}

    for m in range(max_iter + 1):
        # The step's one reduction.  While certifiable, rho < rho_trust <= W,
        # so (a, b, r, q) names the disc: the cycle key.  t = min(val(center),
        # rho), as a nonzero residue has valuation below ceil(rho), so rho.
        # A computed value at or above trust (rho_trust for rho) is only
        # known to be large; both exceed v_C, so such a value never passes
        # the test and one that does is the true value.  The escape test
        # t < v_C is taken on the integers of t and v_C.
        a, b = _reduce_pair(num, den, p, min(-(-r // q), window))
        if max(abs(a), b) < max(abs(num), den):
            num, den = a, b
        if a:
            t = _int_valuation(a, p) - _int_valuation(b, p)
            if vd * t < vn:
                return Escaped(m, Fraction(t))
        elif r * vd < vn * q:
            return Escaped(m, rho)

        if certifiable:
            key = (a, b, r, q)
            if key in seen:
                return BoundedCertified(seen[key], m - seen[key])
            seen[key] = m

        if m == max_iter:
            break

        # Advance one step on the shift's numerators e_n, c_n = e_n / (w den**(d-n)):
        # the image radius is min of n*rho + val(c_n), n >= 1, the center c_0.
        if form is None:
            form = map_invariant(phi, _integer_form)
            w, d = form[0], phi.degree
            vw = _int_valuation(w, p)
            integral = map_invariant(phi, _LocalInvariants, p).integral
            plan = map_invariant(phi, _OrbitPlan, p, max_iter, rho0_mag)
            window, rho_trust = plan.window, plan.rho_trust
        e = _taylor_shift(form, num, den)
        vden = _int_valuation(den, p)
        rho = min(
            n * rho + (_int_valuation(e[n], p) - vw - (d - n) * vden)
            for n in range(1, d + 1)
            if e[n]  # e_d = A_d != 0
        )
        r, q = rho.numerator, rho.denominator
        den = w * den**d
        g = math.gcd(e[0], den)
        num, den = e[0] // g, den // g
        if r >= rho_trust * q:
            # The integral trap: a p-integral map keeps a p-integral center
            # p-integral and a radius valuation >= 0 at least as large, so
            # t >= 0 >= v_C and rho >= rho_trust at every later step: this
            # orbit can neither escape nor cycle.
            if integral and den % p:
                break
            certifiable = False

    return BoundedUpTo(max_iter)


def _type_i_orbit(
    phi: RationalPoly, center: Fraction, p: int, v_c: Fraction, max_iter: int
) -> MembershipVerdict:
    """``filled_julia_membership`` from the type I point ``center``, on the
    lowest-terms pair (a, b) of each orbit point a/b: one ``_image`` call
    per step, the escape test t < v_C as t * den(v_C) < num(v_C), and
    (a, b) itself as the cycle key.  Once the orbit is past the growth
    bound, the integral trap (a p-integral map at a p-integral state) ends
    it with BoundedUpTo(max_iter), the only verdict its remaining steps
    could give; it is tested before the plan's W is looked up, so an orbit
    trapped there never builds the plan.  Else each state is its residue
    modulo p**W, so a Horner product has about 2W base-p digits, not d*W.
    phi's integer form is looked up at the first advance, so an orbit that
    escapes at step 0 never builds it.  Callers check phi, p and max_iter;
    ``local_escape_rate`` calls it directly."""
    form = None  # phi's integer form, looked up at the first advance
    vn, vd = v_c.numerator, v_c.denominator
    a, b = center.numerator, center.denominator
    certifiable = True
    integral = False  # phi's p-integrality, looked up once no cycle is possible
    mod = 0  # the modulus of each Horner pass: none while the orbit can repeat
    seen: dict[tuple[int, int], int] = {}
    bound = math.inf  # the growth bound, looked up at step 1

    for m in range(max_iter + 1):
        if a:
            t = _int_valuation(a, p) - _int_valuation(b, p)
            if t * vd < vn:
                return Escaped(m, Fraction(t))

        if certifiable:
            # Checked from step 1 on, after the escape test, so orbits that
            # escape at once never pay for the bound.
            if m == 1:
                bound = map_invariant(phi, _height_growth_bound) + 1e-9
            if math.log(max(abs(a), b)) > bound:
                certifiable = False  # the orbit can no longer repeat
                integral = map_invariant(phi, _LocalInvariants, p).integral
            else:
                key = (a, b)
                if key in seen:
                    return BoundedCertified(seen[key], m - seen[key])
                seen[key] = m

        if not certifiable:
            # The integral trap: a p-integral map keeps a p-integral point
            # p-integral, Horner steps and reductions alike, and has
            # v_C <= 0 <= t, so this orbit can neither escape nor cycle.
            if integral and b % p:
                break
            if not mod:  # the first step past the growth bound
                window = map_invariant(phi, _OrbitPlan, p, max_iter, 0).window
                top, d = p ** (window + _int_valuation(form[0], p)), phi.degree
            # A pair stays exact while the orbit can repeat: a reduced one
            # could give two distinct points the same cycle key.  Past that,
            # the state is its residue mod p**W, a/b with b = p**e or 1.  Its
            # image has denominator w * b**d, w = form[0], of valuation
            # val(w) + d*e, so its numerator mod p**(W + val(w)) * b**d
            # fixes it mod p**W.
            a, b = _reduce_pair(a, b, p, window)
            mod = top * b**d

        if m == max_iter:
            break
        if form is None:
            form = map_invariant(phi, _integer_form)
        a, b = _image(form, a, b, mod)

    return BoundedUpTo(max_iter)


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


def _simplest_open(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator rational strictly between lo and hi, by
    continued-fraction descent (of equal denominators, the one nearest lo)."""
    floor_lo = lo.numerator // lo.denominator
    if lo < floor_lo + 1 < hi:
        return Fraction(floor_lo + 1)
    if lo == floor_lo:
        # lo is an integer: simplest strictly above it is lo + 1/n for the
        # smallest n with lo + 1/n < hi.
        gap = hi - lo
        n = 1 // gap + 1
        return lo + Fraction(1, int(n))
    # hi <= floor_lo + 1 here, or the first test would have returned.
    return floor_lo + 1 / _simplest_open(1 / (hi - floor_lo), 1 / (lo - floor_lo))


MAX_POINT_TOLERANCE = Fraction(1, 2**20)
MAX_POINT_ITER = 256
MAX_POINT_PROBES = 200


def max_point(phi: RationalPoly, a: RationalLike, place) -> MaxPointResult:
    """Locate rho* = the smallest rho with D(a, p**-rho) in the filled Julia set.

    Requires ``a`` to be preperiodic (its type I orbit certified bounded);
    otherwise no disc about a is bounded and PreconditionError is raised.

    rho* >= rho_floor = -val(a_d)/(d-1) by the bounded-region radius bound,
    so rho_floor is probed first and, when bounded, is rho* exactly.  Else
    certified escapes raise ``lo`` and certified cycles lower ``hi`` of a
    bracket: probes step up from rho_floor by 1, 2, 4, ... until one is
    bounded, then bisect to MAX_POINT_TOLERANCE; the bracket's lowest-
    denominator rational is confirmed by probes on both sides.  Each probe
    runs MAX_POINT_ITER membership steps.  The search always stops: both
    phases end at the first inconclusive (BoundedUpTo) probe, after
    MAX_POINT_PROBES probes, or at a probe beyond MEMBERSHIP_RHO_MAX, and
    rho_upper is None when no upward probe was bounded (a repelling center,
    say).
    """
    p = as_place(place).p
    d = map_degree(phi)
    af = as_fraction(a)
    base = filled_julia_membership(phi, DiscPoint(af, INF, p), MAX_POINT_ITER)
    if not isinstance(base, BoundedCertified):
        raise PreconditionError(
            "base point is not preperiodic (orbit not certified bounded); "
            "max_point requires a preperiodic center"
        )

    probes = 0

    def probe(rho: Fraction) -> MembershipVerdict:
        nonlocal probes
        probes += 1
        return filled_julia_membership(phi, DiscPoint(af, rho, p), MAX_POINT_ITER)

    rho_floor = Fraction(-map_invariant(phi, _LocalInvariants, p).vad, d - 1)
    lo = rho_floor  # rho* >= rho_floor always; raised further by escapes
    lo_escaped = False
    hi: Fraction | None = None

    def narrow(rho: Fraction) -> bool:
        """Probe rho and move the bracket end it certifies; False if it certifies none."""
        nonlocal lo, lo_escaped, hi
        if probes >= MAX_POINT_PROBES or abs(rho) > MEMBERSHIP_RHO_MAX:
            return False
        verdict = probe(rho)
        if isinstance(verdict, Escaped):
            lo, lo_escaped = rho, True
        elif isinstance(verdict, BoundedCertified):
            hi = rho
        return not isinstance(verdict, BoundedUpTo)

    narrow(rho_floor)
    if hi is not None:
        return MaxPointResult(rho_floor, rho_floor, rho_floor, True, probes)

    k = 1
    while hi is None and narrow(rho_floor + 2**k - 1):
        k += 1
    if hi is None:
        return MaxPointResult(lo, None, None, False, probes)
    while hi - lo > MAX_POINT_TOLERANCE and narrow((lo + hi) / 2):
        pass

    # Snap within (lo, hi] when an escape made lo strict, else within [lo, hi];
    # min keeps the first of equal denominators, so ties go toward lo.
    candidates = ([] if lo_escaped else [lo]) + [_simplest_open(lo, hi), hi]
    snapped = min(candidates, key=lambda q: q.denominator)
    if snapped == hi or isinstance(probe(snapped), BoundedCertified):
        delta = MAX_POINT_TOLERANCE
        if snapped > lo:
            delta = min(delta, (snapped - lo) / 2)
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
    map_degree(phi)
    inv = map_invariant(phi, _LocalInvariants, p)
    return inv.vad == 0 and inv.integral
