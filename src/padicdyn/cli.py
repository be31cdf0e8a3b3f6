"""Command-line interface and polynomial-expression parsing.

Grammar (whitespace insignificant):

    expr  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff | coeff '*'? var | var
    var   := 'X' ('^' nat)?      (that nat <= polynomial.MAP_DEGREE_MAX)
    coeff := nat ('/' nat)?

Repeated powers are summed.  Every subcommand refuses an exponent above
``MAP_DEGREE_MAX`` as a syntax error at that token, so no argument builds a
polynomial of higher degree.  Syntax errors carry the character position.

Subcommands write their data (JSON or CSV) to stdout and diagnostics to
stderr.  Exit codes: 0 success (and a strong verdict for `bogomolov`),
10 an inconclusive `bogomolov` verdict, 2 usage or parse errors,
3 precondition violations reported verbatim from the library.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .berkovich import (
    DiscPoint,
    filled_julia_membership,
    max_point,
    seminorm,
    verdict_to_json_dict,
)
from .bogomolov import check_criterion
from .bounds import bound_table, bounds_to_csv, find_crossover
from .heights import canonical_height, survey, survey_to_csv
from .newton import newton_polygon
from .polynomial import MAP_DEGREE_MAX, RationalPoly
from .valuation import INF, Place, PreconditionError, as_fraction, is_finite, val

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 10


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial expressions; carries the position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    """(kind, value, position) tokens; an ASCII digit run is one int token."""
    tokens: list[tuple[str, str | int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # beyond Python's int-conversion digit limit
                raise PolynomialSyntaxError("integer has too many digits", i) from None
            i = j
            continue
        if ch == "X":
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str | int, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str | int, int]:
        tok = self.peek()
        if tok is None:
            raise PolynomialSyntaxError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect_int(self, what: str) -> tuple[int, int]:
        """The next token as an integer, with its position."""
        tok = self.peek()
        if tok is None or tok[0] != "int":
            where = tok[2] if tok else len(self.text)
            raise PolynomialSyntaxError(f"expected {what}", where)
        self.take()
        return tok[1], tok[2]

    def parse(self) -> dict[int, Fraction]:
        powers: dict[int, Fraction] = {}
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] in "+-":
            self.take()
            sign = -1 if tok[0] == "-" else 1
        self._term(powers, sign)
        while (tok := self.peek()) is not None:
            if tok[0] not in "+-":
                raise PolynomialSyntaxError("expected '+' or '-'", tok[2])
            self.take()
            self._term(powers, -1 if tok[0] == "-" else 1)
        return powers

    def _term(self, powers: dict[int, Fraction], sign: int) -> None:
        tok = self.peek()
        if tok is None:
            raise PolynomialSyntaxError("expected a term", len(self.text))
        coeff = Fraction(1)
        have_coeff = False
        if tok[0] == "int":
            self.take()
            num = tok[1]
            den = 1
            nxt = self.peek()
            if nxt is not None and nxt[0] == "/":
                self.take()
                den, where = self.expect_int("a positive denominator")
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", where)
            coeff = Fraction(num, den)
            have_coeff = True
            nxt = self.peek()
            if nxt is not None and nxt[0] == "*":
                self.take()
                nxt2 = self.peek()
                if nxt2 is None or nxt2[0] != "var":
                    where = nxt2[2] if nxt2 else len(self.text)
                    raise PolynomialSyntaxError("expected 'X' after '*'", where)
        tok = self.peek()
        if tok is not None and tok[0] == "var":
            self.take()
            power = 1
            nxt = self.peek()
            if nxt is not None and nxt[0] == "^":
                self.take()
                power, where = self.expect_int("a nonnegative integer exponent")
                if power > MAP_DEGREE_MAX:
                    raise PolynomialSyntaxError(
                        f"exponent {power} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}", where
                    )
            powers[power] = powers.get(power, Fraction(0)) + sign * coeff
        elif have_coeff:
            powers[0] = powers.get(0, Fraction(0)) + sign * coeff
        else:
            raise PolynomialSyntaxError("expected a coefficient or 'X'", tok[2])


def parse_polynomial(text: str) -> RationalPoly:
    """Parse an expression like 'X^5 + X^2 + X + 1/2' to an exact polynomial."""
    powers = _Parser(text).parse()
    return RationalPoly(powers.get(i, Fraction(0)) for i in range(max(powers) + 1))


def _parse_rational(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except PreconditionError as exc:
        raise PolynomialSyntaxError(str(exc), 0) from None


def _parse_rho(text: str):
    if text.strip().lower() == "inf":
        return INF
    return _parse_rational(text)


def _disc_point(args: argparse.Namespace) -> DiscPoint:
    return DiscPoint(_parse_rational(args.center), _parse_rho(args.rho), args.prime)


def _cmd_np(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    p = Place(args.prime).p
    polygon = newton_polygon((i, val(c, p)) for i, c in enumerate(poly.coefficients))
    print(json.dumps(polygon.to_json_dict()))
    return EXIT_OK


def _cmd_bogomolov(args: argparse.Namespace) -> int:
    cert = check_criterion(parse_polynomial(args.poly), Place(args.prime, args.ram))
    print(cert.to_json())
    return EXIT_OK if cert.is_strong else EXIT_INCONCLUSIVE


def _cmd_disc_eval(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    zeta = _disc_point(args)
    v = seminorm(zeta, poly)
    try:
        absolute = 0.0 if not is_finite(v) else float(args.prime) ** float(-v)
    except OverflowError as exc:
        raise PreconditionError(
            "the absolute value p**-v is beyond double precision range"
        ) from exc
    out = {
        "point": zeta.to_json_dict(),
        "valuation": "inf" if not is_finite(v) else str(v),
        "absolute_value": absolute,
    }
    print(json.dumps(out))
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    verdict = filled_julia_membership(poly, _disc_point(args), args.max_iter)
    print(json.dumps(verdict_to_json_dict(verdict)))
    return EXIT_OK


def _cmd_mphi(args: argparse.Namespace) -> int:
    res = max_point(parse_polynomial(args.poly), _parse_rational(args.fixed), args.prime)
    print(json.dumps(res.to_json_dict()))
    return EXIT_OK


def _cmd_height(args: argparse.Namespace) -> int:
    res = canonical_height(parse_polynomial(args.poly), _parse_rational(args.x), args.eps)
    print(json.dumps(res.to_json_dict()))
    return EXIT_OK


def _cmd_survey(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    report = survey(poly, args.prime, args.max_height, args.eps)
    sys.stdout.write(survey_to_csv(report))
    print(f"note: {report.disclaimer}", file=sys.stderr)
    if report.min_positive is not None:
        rec = report.min_positive
        print(
            f"smallest nonzero canonical height: {rec.height!r} "
            f"(± {rec.error_bound!r}) at x = {rec.x}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    rows = bound_table(args.max_e, args.constant)
    sys.stdout.write(bounds_to_csv(rows))
    cross = find_crossover(args.max_e, args.constant)
    print(
        f"no crossover up to e = {args.max_e}: the lcm-based bound never "
        "overtakes the factorial-type bound in this range"
        if cross is None
        else f"crossover at e = {cross}: the lcm-based bound overtakes the "
        "factorial-type bound from there on",
        file=sys.stderr,
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicdyn",
        description="Exact non-archimedean polynomial dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, *, disc=False, prime=True):
        """A subcommand on a polynomial, run by ``handler``, with its shared options."""
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("poly")
        if disc:
            cmd.add_argument("--center", required=True)
            cmd.add_argument(
                "--rho", required=True, help="rational, or 'inf' for a classical point"
            )
        if prime:
            cmd.add_argument("--prime", type=int, required=True)
        return cmd

    add("np", _cmd_np, "Newton polygon of a polynomial's coefficients")
    bog = add("bogomolov", _cmd_bogomolov, "height-gap slope test on phi(X) - X")
    bog.add_argument("--ram", type=int, default=1, help="ramification index e")
    add("disc-eval", _cmd_disc_eval, "seminorm of a polynomial at a disc point", disc=True)
    mem = add("member", _cmd_member, "filled-Julia membership of a disc point", disc=True)
    mem.add_argument("--max-iter", type=int, default=256)
    mp = add("mphi", _cmd_mphi, "largest bounded disc about a preperiodic point")
    mp.add_argument("--fixed", required=True, help="preperiodic rational center")
    hgt = add("height", _cmd_height, "canonical height with local breakdown", prime=False)
    hgt.add_argument("x")
    hgt.add_argument("--eps", type=float, default=1e-8)
    sur = add("survey", _cmd_survey, "canonical heights over all small rationals")
    sur.add_argument("--max-height", type=float, required=True)
    sur.add_argument("--eps", type=float, default=1e-7)
    bnd = sub.add_parser("bounds", help="height-gap bound comparison table")
    bnd.set_defaults(handler=_cmd_bounds)
    bnd.add_argument("--max-e", type=int, required=True)
    bnd.add_argument("--constant", type=float, default=1.0)
    return parser


def run(argv: list[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (PolynomialSyntaxError, PreconditionError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, PolynomialSyntaxError) else EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))
