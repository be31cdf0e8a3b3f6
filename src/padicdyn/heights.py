"""Canonical heights for polynomial dynamics over Q, with certified errors.

The canonical height of a rational point x under a degree-d polynomial map
phi decomposes as a sum of local escape rates: one archimedean term and one
term for each prime where either x or a coefficient of phi fails to be
integral (all other primes contribute exactly zero).

Finite places are handled exactly, on the type I loop of the orbit engine
behind ``filled_julia_membership``, run at x with the arguments checked
once, by ``local_escape_rate`` itself: once the orbit's
valuation crosses the escape threshold at step m, the local escape rate is
the exact rational multiple d**-m * (-t_m - val(a_d)/(d-1)) of log p, and
orbits that stay integral, or visit the same rational twice, contribute an
exact zero.  The engine tracks the exact orbit until its naive height
passes the growth bound, past which no repetition is possible, and from
there on steps residues modulo a power of p chosen so that every valuation
that matters is provably unaffected.

The archimedean term is certified with outward-rounded fixed-point interval
arithmetic at one binary precision, sized from the map and the tolerance:
the orbit is enclosed in [lo, hi] * 2**-prec, a pair of plain integers,
until it either stays below the escape radius long enough that the
remaining contribution is within budget, or provably crosses it, after
which a short logarithmic tail computation pins the value to the requested
tolerance.  Where that one attempt cannot certify, the call is refused.
The radius tests are integer cross-multiplications, and each float the
tail needs is one correctly rounded integer division.

On top of these: exact preperiodicity decisions (orbit repetition versus a
certified height-growth bound, on the engine's integer pairs) and a survey
that enumerates all rationals of bounded naive height and tabulates their
canonical heights.

What depends on the map alone (per-prime valuation data and tail constants,
the p-adic tail bound for each prime and step count, the p-adic orbit plan
for each prime, step budget and starting radius size, the growth bound, the
primes of the coefficient denominators, and the archimedean plan for each
error budget: its step count and precision, the interval coefficients at
that precision, the escape radius and tail constants, and the result of an
orbit that stays bounded) is kept on the map object by
``polynomial.map_invariant``, so a survey computes it once for all its
points.  Every call still runs its own checks, and a failed computation is
never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .berkovich import (
    BoundedCertified,
    Escaped,
    MEMBERSHIP_MAX_ITER,
    _height_growth_bound,
    _LocalInvariants,
    _MAX_ITER_RULE,
    _type_i_orbit,
    escape_threshold,
    weil_height,
)
from .errors import PreconditionError, checked_int, checked_real
from .polynomial import RationalPoly, _image, _integer_form, map_degree, map_invariant
from .primes import factorize
from .valuation import Place, RationalLike, as_fraction, as_place

EPS_FLOOR = 1e-12
_EPS_RULE = (
    f"eps must be finite and at least the double-precision floor EPS_FLOOR = {EPS_FLOOR:g}; "
    "below it, interval arithmetic with higher-precision logarithms is required"
)
_BUDGET_RULE = (
    f"error_budget must be finite and at least EPS_FLOOR / 4 = {EPS_FLOOR / 4:g}; "
    "below it, interval arithmetic with higher-precision logarithms is required"
)
_PREPERIODIC_ITERATION_GUARD = 10_000


# -- local contributions ------------------------------------------------------


@dataclass(frozen=True)
class LocalContribution:
    """One place's share of the canonical height.

    ``value`` and ``error_bound`` are floats with value in
    [value - error_bound, value + error_bound] guaranteed.  When a finite
    place is decided exactly, ``log_p_multiple`` is the exact rational q
    with value = q * log(p) (q = 0 for certified-zero contributions) and
    ``error_bound`` is 0.  ``escaped_at`` is the certified escape step, if
    any.  Iterating yields (value, error_bound).
    """

    value: float
    error_bound: float
    log_p_multiple: Fraction | None = None
    escaped_at: int | None = None

    def __iter__(self) -> Iterator[float]:
        return iter((self.value, self.error_bound))

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "error_bound": self.error_bound,
            "log_p_multiple": None
            if self.log_p_multiple is None
            else str(self.log_p_multiple),
            "escaped_at": self.escaped_at,
        }


_EXACT_ZERO = LocalContribution(0.0, 0.0, Fraction(0), None)


def local_escape_rate(
    phi: RationalPoly, x: RationalLike, p: Place | int, max_iter: int = 64
) -> LocalContribution:
    """The p-adic escape rate g_p(x): lim d**-m log+ |phi^m(x)|_p.

    Checks phi, x, p and ``max_iter`` once, then runs the type I loop of
    the membership engine on x directly, with v_C from ``escape_threshold``:
    the verdict is that of ``filled_julia_membership`` at the type I point
    x, without its second round of checks.  Exact outcomes:
    a certified escape at step m gives the exact rational multiple
    d**-m * (-t_m - val(a_d)/(d-1)) of log p, where t_m is the escaping
    valuation; an integral trap (integral coefficients and point) or an
    exact orbit repetition gives exactly zero.  Otherwise the rate is 0
    with a rigorous error bound that decays like d**-max_iter.

    ``p`` is a prime or a ``Place``; only its residue prime is used, since
    with val(p) = 1 the rate of a rational point does not depend on the
    ramification index.
    """
    d = map_degree(phi)
    xf = as_fraction(x)
    p = as_place(p).p
    checked_int(max_iter, _MAX_ITER_RULE, 1, MEMBERSHIP_MAX_ITER)

    # Integral trap: integral coefficients keep integral points integral,
    # and the escape threshold is then <= 0, so the orbit never escapes.
    inv = map_invariant(phi, _LocalInvariants, p)
    if xf.denominator % p and inv.integral:
        return _EXACT_ZERO

    verdict = _type_i_orbit(phi, xf, p, escape_threshold(phi, p), max_iter)
    if isinstance(verdict, Escaped):
        # q = d**-m * (-t - val(a_d)/(d-1)), as one Fraction.
        t, vad = verdict.valuation, inv.vad
        q = Fraction(
            -(t.numerator * (d - 1) + vad * t.denominator),
            t.denominator * (d - 1) * d**verdict.step,
        )
        return LocalContribution(q.numerator / q.denominator * math.log(p), 0.0, q, verdict.step)
    if isinstance(verdict, BoundedCertified):
        return _EXACT_ZERO
    return LocalContribution(0.0, _tail_bound_p(phi, p, max_iter), None, None)


def _tail_bound_p(phi: RationalPoly, p: int, max_iter: int) -> float:
    """Upper bound for |g_p| given no escape within max_iter steps."""
    escape_threshold(phi, p)  # checks the place and degree
    return map_invariant(phi, _tail_bound, p, max_iter)


def _tail_bound(phi: RationalPoly, p: int, max_iter: int) -> float:
    """``_tail_bound_p``'s float, kept by ``map_invariant`` per (p, max_iter)."""
    tail_const = map_invariant(phi, _LocalInvariants, p).tail_const
    return tail_const * math.exp(-(max_iter) * math.log(phi.degree)) * 1.01 + 1e-300


# -- archimedean contribution -------------------------------------------------


def _fraction_upper(x: float) -> Fraction:
    """A rational strictly above the float x (cheap outward rounding)."""
    return Fraction(math.nextafter(x, math.inf)) + Fraction(1, 1 << 40)


class _ArchPlan:
    """phi's archimedean set-up at one error budget, kept by ``map_invariant``
    per (map, budget), so every point of a survey shares it: the step count
    and binary precision, the coefficient intervals at that precision, the
    gate, escape-radius and u numerators already shifted by the precision,
    log|a_d|/(d-1), and the bounded-orbit result, the same for every point.
    ``steps`` and ``prec`` are sized from the map and the budget unless given.
    """

    def __init__(
        self, phi: RationalPoly, budget: float, steps: int | None = None, prec: int | None = None
    ) -> None:
        d = phi.degree
        ad = abs(phi.leading_coefficient)
        if float(ad) == 0.0:
            raise PreconditionError(
                "leading coefficient underflows double precision; the escape "
                "radius would need big-number logarithms"
            )
        s_low = sum(abs(c) for c in phi.coefficients[:-1])
        # Escape radius: beyond R the leading term dominates (u <= 1/2), the
        # modulus at least doubles each step, and the log recursion is valid.
        r_candidates = [
            Fraction(1),
            (2 * s_low + 2) / ad,
            _fraction_upper((4.0 / float(ad)) ** (1.0 / (d - 1))),
        ]
        r_esc = max(r_candidates) * Fraction(9, 8)
        # The 9/8 slack inside r_esc means dominance already holds a hair below
        # it; entering the escape branch at this lower gate keeps an orbit value
        # exactly equal to r_esc (where the outward enclosure can never clear the
        # radius at any precision) from stalling the certificate.
        r_gate = r_esc * Fraction((1 << 20) - 1, 1 << 20)
        # First-crossing magnitude bound and the tail constant kappa.
        r1 = float((s_low + ad) * r_esc ** d) * 1.01 + 2.0
        log_ad = math.log(float(ad))
        kappa = math.log(r1) + abs(log_ad) / (d - 1) + 1.0
        # Lipschitz bound for phi on |z| <= r_esc, sizing the precision.
        lam = float(sum(i * abs(c) for i, c in enumerate(phi.coefficients))) * float(
            max(r_esc, 1) ** (d - 1)
        ) + 2.0
        self.log_d = log_d = math.log(d)
        if steps is None:
            steps = max(1, math.ceil(math.log(kappa / budget) / log_d)) + 1
            prec = 64 + steps * max(1, math.ceil(math.log2(lam + 2)))
        self.d, self.budget, self.steps, self.prec = d, budget, steps, prec
        self.coeffs_iv = _coeffs_iv(phi, prec)
        # _arch_attempt tests |z| >= r_gate and |z| > r_esc, and bounds
        # u = s_low / (|a_d| |z|), on integers with |z| scaled by 2**prec:
        # each is a numerator times 2**prec and a denominator here.
        self.gate = (r_gate.numerator << prec, r_gate.denominator)
        self.esc = (r_esc.numerator << prec, r_esc.denominator)
        self.u_ratio = (
            s_low.numerator * ad.denominator << prec,
            s_low.denominator * ad.numerator,
        )
        self.scale = 1 << prec
        self.log_ad_share = log_ad / (d - 1)
        # Certified below the radius for `steps` steps: any later escape
        # contributes at most d**-steps * kappa.
        bound = math.exp(-steps * log_d) * kappa * 1.01
        self.bounded = LocalContribution(0.0, min(bound, budget), None, None)


def _coeffs_iv(phi: RationalPoly, prec: int) -> list[tuple[int, int]]:
    """phi's coefficients as outward-rounded fixed-point intervals: pairs
    (lo, hi) of integers with a_i in [lo, hi] * 2**-prec, top degree first."""
    out = []
    for c in reversed(phi.coefficients):
        num = c.numerator << prec
        out.append((num // c.denominator, -(-num // c.denominator)))
    return out


def archimedean_escape_rate(
    phi: RationalPoly, x: RationalLike, error_budget: float = 1e-9
) -> LocalContribution:
    """The archimedean escape rate g_inf(x) = lim d**-m log+ |phi^m(x)|.

    Certified to ``error_budget``: the orbit is enclosed in outward-rounded
    intervals until it either provably stays below the escape radius long
    enough that the remaining contribution is within budget (the rate is
    then 0 up to that budget), or provably escapes, after which the
    logarithmic recursion converges doubly exponentially and the value is
    pinned by a short tail estimate.  The interval precision is sized once
    per (map, budget) from the map's Lipschitz bound and the number of
    steps; where that attempt cannot certify, the call is refused.
    """
    map_degree(phi)
    checked_real(error_budget, _BUDGET_RULE, EPS_FLOOR / 4)
    xf = as_fraction(x)
    # A map or point beyond double range makes a float conversion or power
    # in the plan or the attempt raise OverflowError.
    try:
        plan = map_invariant(phi, _ArchPlan, error_budget)
        result = _arch_attempt(plan, xf)
    except OverflowError as exc:
        raise PreconditionError(
            "the map or the point exceeds double precision range; the escape "
            "rate would need big-number logarithms"
        ) from exc
    if result is None:
        raise PreconditionError(
            f"archimedean certification failed at {plan.prec} bits: the orbit's "
            "enclosure straddles the escape radius, or the float error floor "
            f"of the escape estimate exceeds the tolerance {error_budget:g}"
        )
    return result


def _horner_iv(
    coeffs_iv: list[tuple[int, int]], xlo: int, xhi: int, prec: int
) -> tuple[int, int]:
    """phi on [xlo, xhi] * 2**-prec by Horner's rule, as an enclosure
    [lo, hi] * 2**-prec: sums are exact, and each product rounds lo down and
    hi up.  The product of [lo, hi] and [xlo, xhi] spans the least and the
    greatest of the four endpoint products; the signs of the endpoints say
    which two those are, and the signs of x's are tested once per call.

    A monic map's leading interval is [2**prec, 2**prec], and 2**prec * xlo
    shifted right by prec is xlo itself, with nothing rounded away (as for
    xhi), so its first step is the exact sum [xlo + c_lo, xhi + c_hi], the
    same enclosure at every sign of x."""
    coeffs = iter(coeffs_iv)
    lo, hi = next(coeffs)
    if lo == hi == 1 << prec and len(coeffs_iv) > 1:
        c_lo, c_hi = next(coeffs)
        lo, hi = xlo + c_lo, xhi + c_hi
    if xlo >= 0:
        for c_lo, c_hi in coeffs:
            lo, hi = (
                (lo * (xlo if lo >= 0 else xhi) >> prec) + c_lo,
                c_hi - (-(hi * (xhi if hi >= 0 else xlo)) >> prec),
            )
    elif xhi <= 0:
        for c_lo, c_hi in coeffs:
            lo, hi = (
                (hi * (xlo if hi >= 0 else xhi) >> prec) + c_lo,
                c_hi - (-(lo * (xhi if lo >= 0 else xlo)) >> prec),
            )
    else:
        for c_lo, c_hi in coeffs:
            lo, hi = (
                (min(lo * xhi, hi * xlo) >> prec) + c_lo,
                c_hi - (-max(lo * xlo, hi * xhi) >> prec),
            )
    return lo, hi


def _arch_attempt(plan: _ArchPlan, x: Fraction) -> LocalContribution | None:
    # The orbit is enclosed in [lo, hi] * 2**-prec with integer endpoints,
    # |z| in [alo, ahi] * 2**-prec, and the tests against r_gate and r_esc
    # are cross-multiplications.
    coeffs_iv, prec, steps, budget, d = plan.coeffs_iv, plan.prec, plan.steps, plan.budget, plan.d
    num = x.numerator << prec
    lo, hi = num // x.denominator, -(-num // x.denominator)
    gate_num, gate_den = plan.gate
    esc_num, esc_den = plan.esc
    last = steps + 79
    for m in range(last + 1):
        if lo >= 0:
            alo, ahi = lo, hi
        elif hi <= 0:
            alo, ahi = -hi, -lo
        else:
            alo, ahi = 0, max(-lo, hi)
        if alo * gate_den >= gate_num:
            # Escaped.  Keep iterating until the tail constant u is small
            # enough that the remaining correction fits the budget.
            u_num, u_den = plan.u_ratio
            u_up = u_num / (u_den * alo) * 1.02 + 1e-300
            damp = math.exp(-m * plan.log_d)
            if not (u_up * damp * 8.0 > budget and m < last):
                ylo = math.log(alo / plan.scale)
                yhi = math.log(ahi / plan.scale)
                slop = 6 * math.ulp(1.0 + abs(yhi))
                ylo -= slop
                yhi += slop
                tail = 4.0 * u_up * damp / d
                value = damp * ((ylo + yhi) / 2 + plan.log_ad_share)
                half_width = damp * (yhi - ylo) / 2
                err = half_width + tail + 8 * math.ulp(1.0 + abs(value) + abs(yhi))
                if err > budget:
                    return None  # the float error floor exceeds the budget
                return LocalContribution(max(value, 0.0), err, None, m)
        elif ahi * esc_den > esc_num:
            return None  # the enclosure straddles the escape radius
        elif m >= steps:
            return plan.bounded
        lo, hi = _horner_iv(coeffs_iv, lo, hi, prec)


# -- preperiodicity -----------------------------------------------------------


@dataclass(frozen=True)
class PreperiodicityCertificate:
    """Decision with evidence: an exact orbit repetition (tail_length,
    cycle_length) or a height passing the certified growth bound
    (escape_step), beyond which naive heights increase strictly forever."""

    preperiodic: bool
    tail_length: int | None
    cycle_length: int | None
    escape_step: int | None
    growth_bound: float

    def __bool__(self) -> bool:
        return self.preperiodic


def is_preperiodic(phi: RationalPoly, x: RationalLike) -> PreperiodicityCertificate:
    """Decide exactly whether x is preperiodic under phi.

    Iterates the exact orbit on lowest-terms pairs, as the type I loop of
    the orbit engine does: a repetition proves preperiodicity; a naive
    height exceeding the growth bound proves the heights increase strictly
    from then on, so the orbit can never repeat.
    """
    map_degree(phi)
    z = as_fraction(x)
    bound = map_invariant(phi, _height_growth_bound)
    form = map_invariant(phi, _integer_form)
    a, b = z.numerator, z.denominator
    seen: dict[tuple[int, int], int] = {}
    for k in range(_PREPERIODIC_ITERATION_GUARD):
        key = (a, b)
        if key in seen:
            return PreperiodicityCertificate(
                True, seen[key], k - seen[key], None, bound
            )
        seen[key] = k
        # the naive height of a/b; heights increase strictly from a/b on
        if math.log(max(abs(a), b)) > bound + 1e-9:
            return PreperiodicityCertificate(False, None, None, k, bound)
        a, b = _image(form, a, b)
    raise PreconditionError(
        f"preperiodicity undecided within _PREPERIODIC_ITERATION_GUARD = "
        f"{_PREPERIODIC_ITERATION_GUARD} exact orbit steps"
    )


# -- canonical height ---------------------------------------------------------


@dataclass(frozen=True)
class HeightResult:
    """Canonical height with certified error and per-place breakdown.

    local_parts maps "inf" and decimal prime strings to contributions;
    value is their sum and error_bound the sum of their bounds.
    """

    value: float
    error_bound: float
    local_parts: dict[str, LocalContribution]
    preperiodic: bool = False

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "error_bound": self.error_bound,
            "preperiodic": self.preperiodic,
            "local_parts": {
                label: part.to_json_dict() for label, part in self.local_parts.items()
            },
        }


def _denominator_primes(phi: RationalPoly) -> frozenset[int]:
    """The primes dividing a coefficient's denominator."""
    return frozenset().union(*map(factorize, (c.denominator for c in phi.coefficients)))


def canonical_height(
    phi: RationalPoly, x: RationalLike, eps: float = 1e-8
) -> HeightResult:
    """The canonical height of x under phi, certified within eps.

    Preperiodic points are detected exactly and get an exact zero.  For all
    other points the height is the sum of the archimedean escape rate and
    the finitely many p-adic escape rates at primes dividing a denominator;
    finite places usually resolve exactly, and the total error bound never
    exceeds eps.
    """
    d = map_degree(phi)
    checked_real(eps, _EPS_RULE, EPS_FLOOR)
    xf = as_fraction(x)
    # Primes where x or a coefficient is non-integral; all others give 0.
    active = sorted(map_invariant(phi, _denominator_primes).union(factorize(xf.denominator)))
    if is_preperiodic(phi, xf):
        parts = {"inf": _EXACT_ZERO}
        for p in active:
            parts[str(p)] = _EXACT_ZERO
        return HeightResult(0.0, 0.0, parts, preperiodic=True)

    parts = {}
    budget_inf = eps / 2 if active else eps
    budget_p = (eps - budget_inf) / len(active) if active else 0.0
    total = 0.0
    total_err = 0.0
    for p in active:
        need = max(
            4,
            math.ceil(
                math.log(max(_tail_bound_p(phi, p, 0), 1e-30) / (budget_p / 2))
                / math.log(d)
            )
            + 2,
        )
        part = local_escape_rate(phi, xf, p, max_iter=need)
        parts[str(p)] = part
        total += part.value
        total_err += part.error_bound
    arch = archimedean_escape_rate(phi, xf, budget_inf)
    parts["inf"] = arch
    total += arch.value
    total_err += arch.error_bound
    return HeightResult(total, total_err, parts, preperiodic=False)


# -- bounded-height survey ----------------------------------------------------

SURVEY_DISCLAIMER = (
    "finite enumeration of rational points of bounded naive height: "
    "numerical evidence only, not a proof of a height gap"
)


@dataclass(frozen=True)
class SurveyRecord:
    x: Fraction
    height: float
    error_bound: float
    preperiodic: bool


@dataclass(frozen=True)
class SurveyReport:
    p: int
    max_height: float
    eps: float
    records: tuple[SurveyRecord, ...]
    preperiodic_points: tuple[Fraction, ...]
    min_positive: SurveyRecord | None
    disclaimer: str = SURVEY_DISCLAIMER


# Largest max(|m|, n) that survey enumerates: about 1.2 million points.
SURVEY_N_MAX = 10**3
_MAX_HEIGHT_RULE = f"max_height must be finite and in 0..log(SURVEY_N_MAX = {SURVEY_N_MAX})"


def survey(
    phi: RationalPoly, p: Place | int, max_height: float, eps: float = 1e-7
) -> SurveyReport:
    """Tabulate canonical heights over all rationals of naive height <= max_height.

    Enumerates m/n in lowest terms with max(|m|, n) <= floor(exp(max_height)),
    where max_height may not exceed log(SURVEY_N_MAX), decides preperiodicity
    exactly, certifies every canonical height within eps, and reports the
    smallest height among non-preperiodic points.  The residue prime of the
    place p (a prime or a ``Place``) is recorded for context (heights
    themselves are global).  The result is finite-sample evidence, never a
    proof.
    """
    map_degree(phi)
    p = as_place(p).p
    checked_real(max_height, _MAX_HEIGHT_RULE, 0, math.log(SURVEY_N_MAX))
    checked_real(eps, _EPS_RULE, EPS_FLOOR)
    n_max = math.floor(math.exp(max_height) + 1e-9)
    records: list[SurveyRecord] = []
    preperiodic_points: list[Fraction] = []
    min_positive: SurveyRecord | None = None
    for n in range(1, n_max + 1):
        for m in range(-n_max, n_max + 1):
            if math.gcd(m, n) != 1:
                continue
            xq = Fraction(m, n)
            if is_preperiodic(phi, xq):
                records.append(SurveyRecord(xq, 0.0, 0.0, True))
                preperiodic_points.append(xq)
                continue
            hr = canonical_height(phi, xq, eps)
            rec = SurveyRecord(xq, hr.value, hr.error_bound, False)
            records.append(rec)
            if min_positive is None or rec.height < min_positive.height:
                min_positive = rec
    return SurveyReport(
        p=p,
        max_height=max_height,
        eps=eps,
        records=tuple(records),
        preperiodic_points=tuple(preperiodic_points),
        min_positive=min_positive,
    )


def survey_to_csv(report: SurveyReport) -> str:
    """CSV rows x,num,den,canonical_height,error_bound,preperiodic."""
    if not isinstance(report, SurveyReport):
        raise PreconditionError(f"survey_to_csv requires a SurveyReport, got {report!r}")
    lines = ["x,num,den,canonical_height,error_bound,preperiodic"]
    for rec in report.records:
        lines.append(
            f"{rec.x},{rec.x.numerator},{rec.x.denominator},"
            f"{rec.height!r},{rec.error_bound!r},{'true' if rec.preperiodic else 'false'}"
        )
    return "\n".join(lines) + "\n"
