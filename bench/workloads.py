"""The four benchmark workloads: seeded inputs, public calls and output gates.

A workload turns a seed into a batch: a sequence of blocks, each a list of
``Call``s into padicdyn's public API.  The harness times each call, then hands
its output to ``check``, which either raises ``GateFailure`` or returns the
call's outcome and the exact bytes that go into the pinned sha256.  Every
check avoids the code path that produced the output: counts come from the
benchmark's own sieves, valuations from its own ``_val``, and membership
verdicts are replayed through ``pushforward`` and ``escape_threshold``.

Blocks are stratified (each holds the same mix of input kinds), so a run that
stops at any block boundary measures the same mix whatever the seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

DEFAULT_SEED = 0
MAX_ITER = 256
SURVEY_EPS = 1e-7
HEIGHT_EPS = "1e-11"
MEMBER_MAX_ITER = "64"

OK = "ok"
# The input hits a defect the ROADMAP already names (item 4: bare
# OverflowError from archimedean_escape_rate on coefficients near 10**400).
KNOWN_DEFECT = "known_defect"


class GateFailure(Exception):
    """An output failed one of its correctness checks."""


@dataclass
class Call:
    """One call ``padicdyn.<fn>(*args)`` completing ``items`` workload items.

    ``fn`` is a public name, looked up at call time so that the traced run
    reaches the wrappers it installs.
    """

    kind: str
    fn: str
    args: tuple
    items: int


@dataclass
class Raised:
    """The output of a call that raised instead of returning."""

    exc: BaseException


class Blocks:
    """A batch of blocks made on demand.  Block i comes from a generator
    seeded with (seed, i), so it is the same whenever it is asked for, and a
    full-size batch is too long for any run to wrap around and reuse inputs."""

    def __init__(self, make_block, seed: int, count: int) -> None:
        self.make_block, self.seed, self.count = make_block, seed, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> list[Call]:
        if not 0 <= i < self.count:
            raise IndexError(i)
        return self.make_block(random.Random(f"{self.seed}:{i}"))


class Workload:
    """Calls go straight to the named public function by default."""

    # Per-layer counter that adds up the items of traced calls, if any.
    item_counter: str | None = None

    def invoke(self, pd, call: Call):
        return getattr(pd, call.fn)(*call.args)


# -- independent arithmetic used by the gates ---------------------------------


def _val(x: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None for zero."""
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _recenter(x: Fraction, p: int, k: int) -> Fraction:
    """A small rational y with val(x - y) >= k (any integer k)."""
    v = _val(x, p)
    if v is None or v >= k:
        return Fraction(0)
    unit = x / Fraction(p) ** v
    mod = p ** (k - v)
    u = unit.numerator * pow(unit.denominator, -1, mod) % mod
    return u * Fraction(p) ** v


def _sieve(n: int) -> bytearray:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return flags


@functools.lru_cache(maxsize=None)
def prime_power_events(n: int) -> int:
    """Number of prime powers p**k <= n (k >= 1): where lcm(1..e) changes."""
    flags = _sieve(n)
    count = flags.count(1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            q = p * p
            while q <= n:
                count += 1
                q *= p
    return count


def lcm_upto(n: int) -> int:
    """lcm(1..n) as the product of the largest prime powers <= n."""
    flags = _sieve(n)
    out = 1
    for p in range(2, n + 1):
        if flags[p]:
            q = p
            while q * p <= n:
                q *= p
            out *= q
    return out


def coprime_points(window: int) -> int:
    """#{m/n : 1 <= n <= N, |m| <= N, gcd(m, n) = 1}, via Euler's phi."""
    phi = list(range(window + 1))
    for i in range(2, window + 1):
        if phi[i] == i:
            for j in range(i, window + 1, i):
                phi[j] -= phi[j] // i
    both_positive = 2 * sum(phi[1:]) - 1
    return 1 + 2 * both_positive


# -- survey -------------------------------------------------------------------


class Survey(Workload):
    """``survey`` over the worked quintic and seeded companion quintics.

    An item is one surveyed point.  Each block surveys the worked quintic and
    a different companion over the same window.  Nearly all time is
    ``heights`` work that recomputes per-map invariants for every point.
    Companions have the shape X^5 + aX^2 + bX + c/2 with c odd, so every
    rational escapes 2-adically: no point is preperiodic, exactly as for the
    worked example.
    """

    name = "survey"
    traced_blocks = 1
    pin_blocks = 1
    WORKED = (Fraction(1, 2), 1, 1, 0, 0, 1)

    def batch(self, pd, seed: int, scale: str) -> list[list[Call]]:
        window, n_blocks = (50, 6) if scale == "full" else (5, 2)
        family = [
            (Fraction(c, 2), b, a, 0, 0, 1)
            for c in (-3, -1, 1, 3)
            for b in (-1, 0, 1)
            for a in (-1, 0, 1)
            if (Fraction(c, 2), b, a, 0, 0, 1) != self.WORKED
        ]
        companions = random.Random(seed).sample(family, n_blocks)
        args = (2, math.log(window), SURVEY_EPS)
        points = coprime_points(window)
        return [
            [
                Call("worked", "survey", (pd.RationalPoly(self.WORKED), *args), points),
                Call("companion", "survey", (pd.RationalPoly(coeffs), *args), points),
            ]
            for coeffs in companions
        ]

    def check(self, pd, call: Call, out) -> tuple[str, bytes]:
        _no_exception(out)
        if len(out.records) != call.items:
            raise GateFailure(f"{len(out.records)} points, expected {call.items}")
        worst = max(rec.error_bound for rec in out.records)
        if worst > SURVEY_EPS:
            raise GateFailure(f"error bound {worst!r} exceeds eps {SURVEY_EPS}")
        if out.preperiodic_points or any(rec.preperiodic for rec in out.records):
            raise GateFailure("a quintic of this family has no preperiodic points")
        return OK, pd.survey_to_csv(out).encode()


# -- orbits -------------------------------------------------------------------


def _unit(rng: random.Random, p: int, bound: int) -> int:
    while True:
        u = rng.randint(-bound, bound)
        if u % p:
            return u


def _integral_map(pd, rng, p: int, d: int):
    coeffs = [rng.randint(-p * p, p * p) for _ in range(d)] + [_unit(rng, p, p * p)]
    return pd.RationalPoly(coeffs)


def _attracting_map(pd, rng, p: int, d: int) -> tuple[int, Any]:
    """phi(X) = a + sum c_n (X - a)^n with c_1 in {+-p, +-2p}, c_2 = +-1/p,
    the rest integral and a unit leading coefficient (c_2 itself when d = 2).

    The fixed point a attracts, and for the disc D(a, p**-rho) the radius
    valuation maps to min(rho + v(c_1), 2*rho - 1, n*rho + v(c_n)): it
    shrinks below rho = 1, holds at rho = 1, and grows above.  So the
    largest bounded disc is exactly rho* = 1, an oracle independent of
    ``max_point``.  (A repelling center would send max_point's doubling
    cursor to p**(2**k) windows and the call would not end.  A
    superattracting center, c_1 = 0, makes some searches ten times slower
    than the rest, and those few calls would set the p99 latency alone.)
    """
    a = rng.randint(-3, 3)
    shifted = [Fraction(0), Fraction(p * rng.choice((-2, -1, 1, 2)))]
    shifted += [Fraction(rng.randint(-p, p)) for _ in range(d - 2)]
    shifted.append(Fraction(rng.choice((-1, 1))))
    shifted[2] = Fraction(rng.choice((-1, 1)), p)
    # Expand sum c_n (X - a)^n + a into ascending monomial coefficients.
    coeffs = [Fraction(0)] * (d + 1)
    for n, c in enumerate(shifted):
        for k in range(n + 1):
            coeffs[k] += c * math.comb(n, k) * (-a) ** (n - k)
    coeffs[0] += a
    return a, pd.RationalPoly(coeffs)


class Orbits(Workload):
    """Seeded ``filled_julia_membership(..., max_iter=256)`` calls and
    ``max_point`` searches, at p in {2, 3, 5, 7} and degrees 2 to 5.

    An item is one call.  Every block holds one input of each kind below;
    most time goes to the long bounded or inconclusive orbits of the first
    three.  No ``heights`` work happens here.
    """

    name = "orbits"
    traced_blocks = 40
    pin_blocks = 40
    # kind -> verdict classes the kind's construction allows.
    KINDS = {
        "int_type1": ("BoundedCertified", "BoundedUpTo"),
        "rat_type1": ("BoundedCertified", "BoundedUpTo"),
        "int_type2": ("BoundedCertified", "BoundedUpTo"),
        "gauss": ("BoundedCertified",),
        "escape_type1": ("Escaped",),
        "escape_wide": ("Escaped",),
        "attracting_disc": ("Escaped",),
        "max_point": (),
    }

    def batch(self, pd, seed: int, scale: str) -> Blocks:
        return Blocks(lambda rng: self._block(pd, rng), seed, 10**9 if scale == "full" else 3)

    def _block(self, pd, rng) -> list[Call]:
        block = []
        for kind in self.KINDS:
            p = rng.choice((2, 3, 5, 7))
            d = rng.randint(2, 5)
            if kind == "max_point":
                a, phi = _attracting_map(pd, rng, p, rng.randint(2, 3))
                block.append(Call(kind, "max_point", (phi, a, p), 1))
                continue
            if kind == "attracting_disc":
                # rho in (0, 1): strictly below rho* = 1, so the disc escapes.
                a, phi = _attracting_map(pd, rng, p, rng.randint(2, 3))
                zeta = pd.DiscPoint(a, Fraction(rng.randint(1, 15), 16), p)
            elif kind == "escape_type1":
                # Constant term of valuation -1 below the threshold -1/d.
                coeffs = [Fraction(_unit(rng, p, p), p)]
                coeffs += [rng.randint(-p, p) for _ in range(d - 1)]
                coeffs.append(_unit(rng, p, p))
                phi = pd.RationalPoly(coeffs)
                zeta = pd.DiscPoint(rng.randint(-9, 9), pd.INF, p)
            else:
                phi = _integral_map(pd, rng, p, d)
                center: Fraction | int = rng.randint(-9, 9)
                if kind == "rat_type1":
                    center = Fraction(center, abs(_unit(rng, p, p * p)))
                rho = {
                    "int_type1": pd.INF,
                    "rat_type1": pd.INF,
                    "int_type2": Fraction(rng.randint(1, 2)),
                    "gauss": Fraction(0),
                    "escape_wide": Fraction(-rng.randint(1, 3)),
                }[kind]
                zeta = pd.DiscPoint(center, rho, p)
            block.append(Call(kind, "filled_julia_membership", (phi, zeta, MAX_ITER), 1))
        rng.shuffle(block)
        return block

    def check(self, pd, call: Call, out) -> tuple[str, bytes]:
        _no_exception(out)
        if call.kind == "max_point":
            if not (out.exact and out.snapped == 1 and out.rho_lower <= 1 <= out.rho_upper):
                raise GateFailure(f"max_point {out!r}: the attracting family has rho* = 1")
            return OK, json.dumps(out.to_json_dict()).encode()
        verdict = type(out).__name__
        if verdict not in self.KINDS[call.kind]:
            raise GateFailure(f"{call.kind} input gave {out!r}")
        phi, zeta, max_iter = call.args
        if isinstance(out, pd.Escaped):
            _replay(pd, phi, zeta, out.step, escape_at=out.step)
        elif isinstance(out, pd.BoundedCertified):
            states = _replay(pd, phi, zeta, out.cycle_start + out.cycle_length, escape_at=None)
            if not _same_disc(states[out.cycle_start], states[-1]):
                raise GateFailure(f"{out!r}: the replayed disc does not recur")
        elif out.max_iter != max_iter:
            raise GateFailure(f"{out!r} after a budget of {max_iter}")
        return OK, json.dumps(pd.verdict_to_json_dict(out)).encode()


def _state_val(zeta) -> int | Fraction | None:
    v = _val(zeta.center, zeta.p)
    if zeta.is_type_i:
        return v
    return zeta.rho if v is None else min(v, zeta.rho)


def _same_disc(a, b) -> bool:
    if a.is_type_i or b.is_type_i:
        return a.is_type_i and b.is_type_i and a.center == b.center
    v = _val(a.center - b.center, a.p)
    return a.rho == b.rho and (v is None or v >= a.rho)


def _replay(pd, phi, zeta, steps: int, escape_at: int | None) -> list:
    """Push zeta forward ``steps`` times with ``pushforward``; check that the
    state's valuation drops below ``escape_threshold`` exactly at step
    ``escape_at`` (never, when None).  Type II centers are re-chosen inside
    their disc each step, which leaves the disc, and so its image, unchanged.
    """
    v_c = pd.escape_threshold(phi, zeta.p)
    states = [zeta]
    for m in range(steps + 1):
        t = _state_val(states[-1])
        below = t is not None and t < v_c
        if below != (m == escape_at):
            raise GateFailure(f"replay: escape at step {m} is {below}, verdict says {escape_at}")
        if m == steps:
            break
        nxt = pd.pushforward(phi, states[-1])
        if not nxt.is_type_i:
            nxt = pd.DiscPoint(_recenter(nxt.center, nxt.p, math.ceil(nxt.rho)), nxt.rho, nxt.p)
        states.append(nxt)
    return states


# -- requests -----------------------------------------------------------------

_DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12)
_HUGE = 10**400


def _rational(rng, bound: int) -> str:
    num, den = rng.randint(-bound, bound), rng.choice(_DENOMINATORS)
    return str(num) if den == 1 else f"{num}/{den}"


def _poly_text(coeffs: list[str]) -> str:
    """Text in the CLI grammar from rational strings, ascending: ['1', '-3/2']
    gives '-3/2*X+1'."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.startswith("0"):
            continue
        power = "" if i == 0 else ("*X" if i == 1 else f"*X^{i}")
        sign = "-" if c.startswith("-") else ("+" if out else "")
        out += f"{sign}{c.lstrip('-')}{power}"
    return out or "0"


def _random_map(rng, degree: int) -> list[str]:
    coeffs = [_rational(rng, 20) for _ in range(degree)]
    lead = "0"
    while lead.startswith("0"):
        lead = _rational(rng, 20)
    return coeffs + [lead]


class Requests(Workload):
    """A stream of in-process ``padicdyn.run(argv)`` calls, stdout captured.

    An item is one call on a freshly generated map; no map is reused, so a
    per-map cache can only cost here.  Each block of 44 holds 8 requests of
    each subcommand plus one of each error path: a syntax error, a degree
    below 2, a non-prime place, and coefficients near 10**400, which today
    leak OverflowError (the known defect).

    ``member`` runs with ``--max-iter 64``: at the default of 256 a few random
    maps per thousand take up to 0.4 s, and those few alone set the p99,
    which then moved by 30% from seed to seed.  Long orbits are the
    ``orbits`` workload's job.
    """

    name = "requests"
    traced_blocks = 25
    pin_blocks = 25
    COMMANDS = ("np", "bogomolov", "disc-eval", "member", "height")
    ERRORS = ("syntax", "degree", "place", "overflow")
    PER_BLOCK = 8

    def batch(self, pd, seed: int, scale: str) -> Blocks:
        return Blocks(lambda rng: self._block(pd, rng), seed, 10**9 if scale == "full" else 2)

    def _block(self, pd, rng) -> list[Call]:
        kinds = [c for c in self.COMMANDS for _ in range(self.PER_BLOCK)] + list(self.ERRORS)
        rng.shuffle(kinds)
        return [Call(kind, "run", (self._argv(kind, rng),), 1) for kind in kinds]

    def invoke(self, pd, call: Call) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = pd.run(*call.args)
        return code, stdout.getvalue()

    def _argv(self, kind: str, rng) -> list[str]:
        p = str(rng.choice((2, 3, 5, 7)))
        text = _poly_text(_random_map(rng, rng.randint(2, 5)))
        if kind == "syntax":
            at = rng.randrange(len(text) + 1)
            bad = text[:at] + "#" + text[at:]
            return {
                "np": ["np", "--prime", p, "--", bad],
                "member": ["member", "--prime", p, "--center=0", "--rho=0", "--", bad],
                "height": ["height", "--eps", HEIGHT_EPS, "--", bad, "1/2"],
            }[rng.choice(("np", "member", "height"))]
        if kind == "degree":
            low = _poly_text([_rational(rng, 20), rng.choice(("0", _rational(rng, 20)))])
            return {
                "bogomolov": ["bogomolov", "--prime", p, "--", low],
                "member": ["member", "--prime", p, "--center=0", "--rho=0", "--", low],
                "height": ["height", "--eps", HEIGHT_EPS, "--", low, "1/2"],
            }[rng.choice(("bogomolov", "member", "height"))]
        if kind == "place":
            bad = str(rng.choice((0, 1, 4, 6, 9, 15, 21, 25)))
            return [rng.choice(("np", "bogomolov")), "--prime", bad, "--", text]
        if kind == "overflow":
            huge = _HUGE + rng.randint(1, 10**6)
            # A denominator must stay smooth: canonical_height factorizes it.
            smooth = _HUGE * 2 ** rng.randint(0, 20)
            return [
                ["height", "--eps", HEIGHT_EPS, "--", f"{huge}*X^2+1", "1/2"],
                ["height", "--eps", HEIGHT_EPS, "--", f"1/{smooth}*X^2+1", "1/2"],
                ["height", "--eps", HEIGHT_EPS, "--", "X^2+1", f"{huge}/3"],
            ][rng.randrange(3)]
        center = f"--center={_rational(rng, 9)}"
        rho = "--rho=" + rng.choice(("inf", f"{rng.randint(-4, 8)}/{rng.choice((1, 2, 3))}"))
        return {
            "np": ["np", "--prime", p, "--", text],
            "bogomolov": ["bogomolov", "--prime", p, "--", text],
            "disc-eval": ["disc-eval", "--prime", p, center, rho, "--", text],
            "member": ["member", "--prime", p, "--max-iter", MEMBER_MAX_ITER, center, rho, "--", text],
            "height": ["height", "--eps", HEIGHT_EPS, "--", text, _rational(rng, 9)],
        }[kind]

    def check(self, pd, call: Call, out) -> tuple[str, bytes]:
        if isinstance(out, Raised):
            if call.kind == "overflow" and type(out.exc) is OverflowError:
                return KNOWN_DEFECT, b""
            raise GateFailure(f"{call.args[0]} raised {out.exc!r}")
        code, stdout = out
        if code not in (0, 2, 3, 10):
            raise GateFailure(f"{call.args[0]} exited {code}")
        if call.kind in ("syntax", "degree", "place") and code not in (2, 3):
            raise GateFailure(f"error-path request {call.args[0]} exited {code}")
        if code in (0, 10):
            try:
                json.loads(stdout)
            except ValueError as exc:
                raise GateFailure(f"{call.args[0]}: stdout is not JSON: {stdout[:80]!r}") from exc
        if call.kind == "overflow":
            # Outside the pin: fixing the known defect changes these outputs.
            return OK, b""
        return OK, f"{code}\n{stdout}".encode()


# -- lcm ----------------------------------------------------------------------


class Lcm(Workload):
    """``verify_lcm_exponential_bound`` at 10**6, plus ``bound_table`` and
    ``find_crossover``.  An item is one prime-power event (where lcm(1..e)
    changes).  Only ``bounds`` works here; its big-integer cost grows
    superlinearly with the range.  Block k verifies up to 10**6 - k, so no
    two calls in a run are the same.
    """

    name = "lcm"
    item_counter = "bounds.lcm_events"
    traced_blocks = 1
    pin_blocks = 1

    def batch(self, pd, seed: int, scale: str) -> list[list[Call]]:
        rng = random.Random(seed)
        n_max, e_mid, n_blocks = (10**6, 2500, 6) if scale == "full" else (10**4, 200, 2)
        batch = []
        for k in range(n_blocks):
            e_max = e_mid + rng.randint(-50, 50)
            c = 2.0 ** rng.uniform(-8, 8)
            batch.append(
                [
                    Call("verify", "verify_lcm_exponential_bound", (n_max - k,), prime_power_events(n_max - k)),
                    Call("table", "bound_table", (e_max, c), prime_power_events(e_max)),
                    Call("crossover", "find_crossover", (e_max, c), prime_power_events(6)),
                ]
            )
        return batch

    def check(self, pd, call: Call, out) -> tuple[str, bytes]:
        _no_exception(out)
        if call.kind == "verify":
            if out is not True:
                raise GateFailure(f"verify_lcm_exponential_bound{call.args} = {out!r}")
            return OK, b"True"
        if call.kind == "crossover":
            if out != 6:
                raise GateFailure(f"crossover {out!r}, expected 6 for every C > 0")
            return OK, b"6"
        e_max = call.args[0]
        if [row.e for row in out] != list(range(1, e_max + 1)):
            raise GateFailure("bound_table rows are not e = 1..e_max")
        if out[-1].lcm_e != lcm_upto(e_max):
            raise GateFailure(f"bound_table lcm({e_max}) differs from the sieve product")
        return OK, pd.bounds_to_csv(out).encode()


def _no_exception(out) -> None:
    if isinstance(out, Raised):
        raise GateFailure(f"unexpected exception {out.exc!r}")


WORKLOADS = {w.name: w for w in (Survey(), Orbits(), Requests(), Lcm())}
