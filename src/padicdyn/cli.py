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
import re
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
from .errors import PreconditionError
from .heights import canonical_height, survey, survey_to_csv
from .newton import newton_polygon
from .polynomial import MAP_DEGREE_MAX, RationalPoly
from .valuation import Place, as_fraction, as_place, as_valuation, is_finite, val

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 10


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial expressions; carries the position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


_TOKEN = re.compile(r"([0-9]+)|\S")


def parse_polynomial(text: str) -> RationalPoly:
    """Parse an expression like 'X^5 + X^2 + X + 1/2' to an exact polynomial.

    Tokens are (kind, value, position): an ASCII digit run is one "int", and
    an "end" token at len(text) closes the list.  A bad character or an
    over-long integer is reported before any grammar error."""
    if not isinstance(text, str):
        raise PreconditionError(f"a polynomial expression must be a string, got {text!r}")
    tokens: list[tuple[str, int | None, int]] = []
    for m in _TOKEN.finditer(text):
        if m[1]:
            try:
                tokens.append(("int", int(m[1]), m.start()))
            except ValueError:  # beyond Python's int-conversion digit limit
                raise PolynomialSyntaxError("integer has too many digits", m.start()) from None
        elif m[0] in "X+-*/^":
            tokens.append((m[0], None, m.start()))
        else:
            raise PolynomialSyntaxError(f"unexpected character {m[0]!r}", m.start())
    tokens.append(("end", None, len(text)))
    if tokens[0][0] not in ("+", "-"):
        tokens.insert(0, ("+", None, 0))  # the first term's sign is optional
    powers: dict[int, Fraction] = {}
    i = 0
    while tokens[i][0] != "end":
        kind, _, where = tokens[i]
        if kind not in ("+", "-"):
            raise PolynomialSyntaxError("expected '+' or '-'", where)
        sign = -1 if kind == "-" else 1
        i += 1
        kind, value, where = tokens[i]
        coeff, power = Fraction(1), None  # power stays None without a coefficient or X
        if kind == "int":
            den = 1
            if tokens[i + 1][0] == "/":
                kind, den, where = tokens[i + 2]
                if kind != "int":
                    raise PolynomialSyntaxError("expected a positive denominator", where)
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", where)
                i += 2
            coeff, power = Fraction(value, den), 0
            i += 1
            if tokens[i][0] == "*":
                i += 1
                if tokens[i][0] != "X":
                    raise PolynomialSyntaxError("expected 'X' after '*'", tokens[i][2])
        kind, _, where = tokens[i]
        if kind == "X":
            power = 1
            if tokens[i + 1][0] == "^":
                kind, power, where = tokens[i + 2]
                if kind != "int":
                    raise PolynomialSyntaxError("expected a nonnegative integer exponent", where)
                if power > MAP_DEGREE_MAX:
                    raise PolynomialSyntaxError(
                        f"exponent {power} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}", where
                    )
                i += 2
            i += 1
        elif power is None:
            message = "expected a term" if kind == "end" else "expected a coefficient or 'X'"
            raise PolynomialSyntaxError(message, where)
        powers[power] = powers.get(power, Fraction(0)) + sign * coeff
    return RationalPoly(powers.get(k, Fraction(0)) for k in range(max(powers) + 1))


def _parse_rational(text: str, parse=as_fraction):
    """parse(text), with a refusal turned into a syntax error (exit 2)."""
    try:
        return parse(text)
    except PreconditionError as exc:
        raise PolynomialSyntaxError(str(exc), 0) from None


def _disc_point(args: argparse.Namespace) -> DiscPoint:
    rho = _parse_rational(args.rho, as_valuation)
    return DiscPoint(_parse_rational(args.center), rho, args.prime)


def _cmd_np(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    p = as_place(args.prime).p
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
