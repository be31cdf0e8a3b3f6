"""Canonical heights for polynomial dynamics over Q, with certified errors.

The canonical height of a rational point x under a degree-d polynomial map
phi decomposes as a sum of local escape rates: one archimedean term and one
term for each prime where either x or a coefficient of phi fails to be
integral (all other primes contribute exactly zero).

Finite places are handled exactly, on the orbit engine of
``filled_julia_membership`` run at the type I point x: once the orbit's
valuation crosses the escape threshold at step m, the local escape rate is
the exact rational multiple d**-m * (-t_m - val(a_d)/(d-1)) of log p, and
orbits that stay integral, or visit the same rational twice, contribute an
exact zero.  The engine reduces points modulo a high power of p chosen so
that every valuation that matters is provably unaffected, and stops
tracking the exact orbit once its naive height passes the growth bound,
past which no repetition is possible.

The archimedean term is certified with outward-rounded fixed-point interval
arithmetic (integer mantissas at a chosen binary precision, escalated until
the certificate succeeds): the orbit is enclosed until it either stays
below the escape radius long enough that the remaining contribution is
within budget, or provably crosses it, after which a short logarithmic tail
computation pins the value to the requested tolerance.

On top of these: exact preperiodicity decisions (orbit repetition versus a
certified height-growth bound) and a survey that enumerates all rationals
of bounded naive height and tabulates their canonical heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .berkovich import (
    BoundedCertified,
    DiscPoint,
    Escaped,
    _height_growth_bound,
    escape_threshold,
    filled_julia_membership,
    weil_height,
)
from .polynomial import RationalPoly
from .primes import factorize
from .valuation import (
    INF,
    Place,
    PreconditionError,
    RationalLike,
    as_fraction,
    as_place,
    val,
)

EPS_FLOOR = 1e-12
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


def _exact_zero() -> LocalContribution:
    return LocalContribution(0.0, 0.0, Fraction(0), None)


def _validate_map(phi: RationalPoly) -> int:
    if phi.is_zero or phi.degree < 2:
        raise PreconditionError("dynamics requires a polynomial of degree >= 2")
    return phi.degree


def local_escape_rate(
    phi: RationalPoly, x: RationalLike, p: Place | int, max_iter: int = 64
) -> LocalContribution:
    """The p-adic escape rate g_p(x): lim d**-m log+ |phi^m(x)|_p.

    Runs ``filled_julia_membership`` on the type I point x.  Exact outcomes:
    a certified escape at step m gives the exact rational multiple
    d**-m * (-t_m - val(a_d)/(d-1)) of log p, where t_m is the escaping
    valuation; an integral trap (integral coefficients and point) or an
    exact orbit repetition gives exactly zero.  Otherwise the rate is 0
    with a rigorous error bound that decays like d**-max_iter.

    ``p`` is a prime or a ``Place``; only its residue prime is used, since
    with val(p) = 1 the rate of a rational point does not depend on the
    ramification index.
    """
    d = _validate_map(phi)
    zeta = DiscPoint(x, INF, p)  # checks the place
    p = zeta.p
    if not isinstance(max_iter, int) or max_iter < 1:
        raise PreconditionError(f"max_iter must be a positive integer, got {max_iter!r}")

    # Integral trap: integral coefficients keep integral points integral,
    # and the escape threshold is then <= 0, so the orbit never escapes.
    if zeta.center.denominator % p and all(c.denominator % p for c in phi.coefficients):
        return _exact_zero()

    verdict = filled_julia_membership(phi, zeta, max_iter)
    if isinstance(verdict, Escaped):
        vad = val(phi.leading_coefficient, p)
        q = Fraction(1, d**verdict.step) * (-verdict.valuation - vad / Fraction(d - 1))
        return LocalContribution(float(q) * math.log(p), 0.0, q, verdict.step)
    if isinstance(verdict, BoundedCertified):
        return _exact_zero()
    return LocalContribution(0.0, _tail_bound_p(phi, p, max_iter), None, None)


def _tail_bound_p(phi: RationalPoly, p: int, max_iter: int) -> float:
    """Upper bound for |g_p| given no escape within max_iter steps."""
    d = phi.degree
    v_c = escape_threshold(phi, p)
    vad = val(phi.leading_coefficient, p)
    coeff_vals = [val(c, p) for c in phi.coefficients if c != 0]
    t_floor = min(coeff_vals) + d * min(v_c, Fraction(0))
    bound_q = max(Fraction(0), -t_floor) + abs(vad) / Fraction(d - 1)
    return (
        float(bound_q) * math.log(p) * math.exp(-(max_iter) * math.log(d)) * 1.01
        + 1e-300
    )


# -- archimedean contribution -------------------------------------------------


class _FixIv:
    """Closed real interval [lo, hi] * 2**-prec with integer endpoints.

    Addition is exact; multiplication rounds lo down and hi up, so every
    derived interval encloses the true value.  This is the outward-rounded
    interval arithmetic used to certify archimedean orbits.
    """

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: int, hi: int, prec: int) -> None:
        self.lo = lo
        self.hi = hi
        self.prec = prec

    @classmethod
    def from_fraction(cls, q: Fraction, prec: int) -> "_FixIv":
        num = q.numerator << prec
        lo = num // q.denominator
        hi = -((-num) // q.denominator)
        return cls(lo, hi, prec)

    def __add__(self, other: "_FixIv") -> "_FixIv":
        return _FixIv(self.lo + other.lo, self.hi + other.hi, self.prec)

    def __mul__(self, other: "_FixIv") -> "_FixIv":
        p = self.prec
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        lo = min(products) >> p
        hi = -((-max(products)) >> p)
        return _FixIv(lo, hi, p)

    def abs_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact rational bounds for |value| over the interval."""
        scale = 1 << self.prec
        if self.lo >= 0:
            return Fraction(self.lo, scale), Fraction(self.hi, scale)
        if self.hi <= 0:
            return Fraction(-self.hi, scale), Fraction(-self.lo, scale)
        return Fraction(0), Fraction(max(-self.lo, self.hi), scale)


def _poly_eval_iv(coeffs_iv: list[_FixIv], x: _FixIv) -> _FixIv:
    acc = coeffs_iv[-1]
    for c in reversed(coeffs_iv[:-1]):
        acc = acc * x + c
    return acc


def _fraction_upper(x: float) -> Fraction:
    """A rational strictly above the float x (cheap outward rounding)."""
    return Fraction(math.nextafter(x, math.inf)) + Fraction(1, 1 << 40)


def archimedean_escape_rate(
    phi: RationalPoly, x: RationalLike, error_budget: float = 1e-9
) -> LocalContribution:
    """The archimedean escape rate g_inf(x) = lim d**-m log+ |phi^m(x)|.

    Certified to ``error_budget``: the orbit is enclosed in outward-rounded
    intervals until it either provably stays below the escape radius long
    enough that the remaining contribution is within budget (the rate is
    then 0 up to that budget), or provably escapes, after which the
    logarithmic recursion converges doubly exponentially and the value is
    pinned by a short tail estimate.  Precision escalates automatically
    until the certificate succeeds.
    """
    d = _validate_map(phi)
    if error_budget < EPS_FLOOR / 4:
        raise PreconditionError(
            f"tolerance {error_budget:g} is below the double-precision floor; "
            "interval arithmetic mode with higher-precision logarithms is required"
        )
    xf = as_fraction(x)
    coeffs = phi.coefficients
    ad = abs(coeffs[-1])
    if float(ad) == 0.0:
        raise PreconditionError(
            "leading coefficient underflows double precision; the escape "
            "radius would need big-number logarithms"
        )
    s_low = sum(abs(c) for c in coeffs[:-1])

    # Escape radius: beyond R the leading term dominates (u <= 1/2), the
    # modulus at least doubles each step, and the log recursion is valid.
    r_candidates = [
        Fraction(1),
        (2 * s_low + 2) / ad,
        _fraction_upper((4.0 / float(ad)) ** (1.0 / (d - 1))),
    ]
    r_esc = max(r_candidates) * Fraction(9, 8)
    # First-crossing magnitude bound and the tail constant.
    r1 = float((s_low + ad) * r_esc ** d) * 1.01 + 2.0
    log_ad = math.log(float(ad))
    kappa = math.log(r1) + abs(log_ad) / (d - 1) + 1.0
    steps = max(1, math.ceil(math.log(kappa / error_budget) / math.log(d))) + 1

    # Lipschitz bound for phi on |z| <= r_esc, sizing the interval precision.
    lam = float(sum(i * abs(c) for i, c in enumerate(coeffs))) * float(
        max(r_esc, 1) ** (d - 1)
    ) + 2.0
    prec = 64 + steps * max(1, math.ceil(math.log2(lam + 2)))
    for _ in range(8):
        result = _arch_attempt(
            phi, xf, error_budget, steps, prec, r_esc, kappa, log_ad, s_low, ad
        )
        if result is not None:
            return result
        prec *= 2
    raise PreconditionError(
        "archimedean certification did not converge; the point straddles the "
        "escape boundary beyond the supported interval precision"
    )


def _arch_attempt(
    phi: RationalPoly,
    x: Fraction,
    budget: float,
    steps: int,
    prec: int,
    r_esc: Fraction,
    kappa: float,
    log_ad: float,
    s_low: Fraction,
    ad: Fraction,
) -> LocalContribution | None:
    d = phi.degree
    coeffs_iv = [_FixIv.from_fraction(c, prec) for c in phi.coefficients]
    xiv = _FixIv.from_fraction(x, prec)
    # The 9/8 slack inside r_esc means dominance already holds a hair below
    # it; entering the escape branch at this lower gate keeps an orbit value
    # exactly equal to r_esc (where the outward enclosure can never clear the
    # radius at any precision) from stalling the certificate.
    r_gate = r_esc * Fraction((1 << 20) - 1, 1 << 20)
    m = 0
    while m <= steps + 80:
        alo, ahi = xiv.abs_bounds()
        if alo >= r_gate:
            # Escaped.  Keep iterating until the tail constant u is small
            # enough that the remaining correction fits the budget.
            u_up = float(s_low / (ad * alo)) * 1.02 + 1e-300
            damp = math.exp(-m * math.log(d))
            if u_up * damp * 8.0 > budget and m <= steps + 78:
                xiv = _poly_eval_iv(coeffs_iv, xiv)
                m += 1
                continue
            ylo = math.log(float(alo))
            yhi = math.log(float(ahi))
            slop = 6 * math.ulp(1.0 + abs(yhi))
            ylo -= slop
            yhi += slop
            tail = 4.0 * u_up * damp / d
            value = damp * ((ylo + yhi) / 2 + log_ad / (d - 1))
            half_width = damp * (yhi - ylo) / 2
            err = half_width + tail + 8 * math.ulp(1.0 + abs(value) + abs(yhi))
            if err > budget:
                return None  # escalate precision
            return LocalContribution(max(value, 0.0), err, None, m)
        if ahi > r_esc:
            return None  # enclosure straddles the escape radius: escalate
        if m >= steps:
            # Certified below the radius for `steps` steps: any later escape
            # contributes at most d**-steps * kappa.
            bound = math.exp(-steps * math.log(d)) * kappa * 1.01
            return LocalContribution(0.0, min(bound, budget), None, None)
        xiv = _poly_eval_iv(coeffs_iv, xiv)
        m += 1
    return None


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

    Iterates the exact orbit: a repetition proves preperiodicity; a naive
    height exceeding the growth bound proves the heights increase strictly
    from then on, so the orbit can never repeat.
    """
    _validate_map(phi)
    z = as_fraction(x)
    bound = _height_growth_bound(phi)
    seen: dict[Fraction, int] = {}
    for k in range(_PREPERIODIC_ITERATION_GUARD):
        if z in seen:
            return PreperiodicityCertificate(
                True, seen[z], k - seen[z], None, bound
            )
        seen[z] = k
        if weil_height(z) > bound + 1e-9:
            return PreperiodicityCertificate(False, None, None, k, bound)
        z = phi(z)
    raise RuntimeError("preperiodicity undecided within the iteration guard")


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


def _active_primes(phi: RationalPoly, x: Fraction) -> list[int]:
    """Primes where x or a coefficient is non-integral; all others give 0."""
    primes: set[int] = set(factorize(x.denominator))
    for c in phi.coefficients:
        primes.update(factorize(c.denominator))
    return sorted(primes)


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
    d = _validate_map(phi)
    if not (eps > 0):
        raise PreconditionError("eps must be positive")
    if eps < EPS_FLOOR:
        raise PreconditionError(
            f"tolerance {eps:g} is below the double-precision floor ({EPS_FLOOR:g}); "
            "interval arithmetic mode with higher-precision logarithms is required"
        )
    xf = as_fraction(x)
    active = _active_primes(phi, xf)
    if is_preperiodic(phi, xf):
        parts = {"inf": _exact_zero()}
        for p in active:
            parts[str(p)] = _exact_zero()
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


def survey(
    phi: RationalPoly, p: Place | int, max_height: float, eps: float = 1e-7
) -> SurveyReport:
    """Tabulate canonical heights over all rationals of naive height <= max_height.

    Enumerates m/n in lowest terms with max(|m|, n) <= floor(exp(max_height)),
    decides preperiodicity exactly, certifies every canonical height within
    eps, and reports the smallest height among non-preperiodic points.  The
    residue prime of the place p (a prime or a ``Place``) is recorded for
    context (heights themselves are global).  The result is finite-sample
    evidence, never a proof.
    """
    _validate_map(phi)
    p = as_place(p).p
    if max_height < 0:
        raise PreconditionError("max_height must be nonnegative")
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
    lines = ["x,num,den,canonical_height,error_bound,preperiodic"]
    for rec in report.records:
        lines.append(
            f"{rec.x},{rec.x.numerator},{rec.x.denominator},"
            f"{rec.height!r},{rec.error_bound!r},{'true' if rec.preperiodic else 'false'}"
        )
    return "\n".join(lines) + "\n"
