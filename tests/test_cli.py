"""Expression parsing and the command-line surface: exit codes, JSON, CSV."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padicdyn

from padicdyn import valuation
from padicdyn import (
    PolynomialSyntaxError,
    PreconditionError,
    RationalPoly,
    format_polynomial,
    parse_polynomial,
    run,
)
from padicdyn.bogomolov import certificate_from_json_dict
from padicdyn.newton import polygon_from_json_dict
from padicdyn.polynomial import MAP_DEGREE_MAX


class TestParsePolynomial:
    def test_drifting_quintic(self):
        poly = parse_polynomial("X^5 + X^2 + X + 1/2")
        assert poly.coefficients == (F(1, 2), F(1), F(1), F(0), F(0), F(1))

    def test_bare_variable(self):
        assert parse_polynomial("X") == RationalPoly([0, 1])

    def test_coefficient_with_star(self):
        assert parse_polynomial("2*X^2 - 3/4") == RationalPoly([F(-3, 4), F(0), F(2)])

    def test_implicit_multiplication(self):
        assert parse_polynomial("3X^2") == RationalPoly([0, 0, 3])

    def test_whitespace_insignificant(self):
        assert parse_polynomial(" X ^ 2+ 1 ") == parse_polynomial("X^2+1")

    def test_repeated_powers_sum(self):
        assert parse_polynomial("X + X + 1") == RationalPoly([1, 2])
        assert parse_polynomial("X^2 - X^2 + 1") == RationalPoly([1])

    def test_leading_sign(self):
        assert parse_polynomial("-X^2 + 1") == RationalPoly([1, 0, -1])

    def test_constant_only(self):
        assert parse_polynomial("7/3") == RationalPoly([F(7, 3)])

    def test_syntax_errors_carry_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("X^-2")
        assert err.value.position == 2
        assert "position 2" in str(err.value)

        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("X + ")
        assert err.value.position == 4

        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("X ++ 1")
        assert err.value.position == 3

        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("2 & X")
        assert err.value.position == 2

        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("1/0 + X")

        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("X^2 3")  # juxtaposition is not multiplication

    # Every message the parser has, with its position.  A bad character or an
    # over-long integer is reported before any grammar error, wherever it is.
    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("2*3", 2, "expected 'X' after '*'"),
            ("2*", 2, "expected 'X' after '*'"),
            ("1/X", 2, "expected a positive denominator"),
            ("X + 1/", 6, "expected a positive denominator"),
            ("1/0", 2, "zero denominator"),
            ("", 0, "expected a term"),
            ("  ", 2, "expected a term"),
            ("X +", 3, "expected a term"),
            ("-", 1, "expected a term"),
            ("*X", 0, "expected a coefficient or 'X'"),
            ("X + ^2", 4, "expected a coefficient or 'X'"),
            ("1/2/3", 3, "expected '+' or '-'"),
            ("X X", 2, "expected '+' or '-'"),
            ("X^", 2, "expected a nonnegative integer exponent"),
            ("X^-2", 2, "expected a nonnegative integer exponent"),
            (f"X^{MAP_DEGREE_MAX + 1}", 2,
             f"exponent {MAP_DEGREE_MAX + 1} exceeds MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"),
            ("++#", 2, "unexpected character '#'"),
            ("X^²", 2, "unexpected character '²'"),
            ("x", 0, "unexpected character 'x'"),
            ("*\t" + "1" * 5001, 2, "integer has too many digits"),
        ],
    )
    def test_syntax_error_golden_table(self, text, position, message):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == position
        assert str(err.value) == f"syntax error at position {position}: {message}"

    def test_exponent_above_degree_cap_rejected(self, capsys):
        assert parse_polynomial(f"X + X^{MAP_DEGREE_MAX}").degree == MAP_DEGREE_MAX
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(f"X + X^{MAP_DEGREE_MAX + 1}")
        assert err.value.position == 6
        assert str(err.value) == (
            f"syntax error at position 6: exponent {MAP_DEGREE_MAX + 1} exceeds "
            f"MAP_DEGREE_MAX = {MAP_DEGREE_MAX}"
        )
        assert run(["np", f"X^{MAP_DEGREE_MAX + 1}", "--prime", "2"]) == 2
        assert "position 2" in capsys.readouterr().err

    def test_non_ascii_digit_rejected(self, capsys):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("X^\u00b2")
        assert err.value.position == 2
        assert run(["np", "X^\u00b2", "--prime", "2"]) == 2
        assert "position 2" in capsys.readouterr().err

    def test_integer_beyond_conversion_limit_rejected(self, capsys):
        text = "X^2 + " + "1" * 5001
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text)
        assert err.value.position == 6
        assert run(["np", text, "--prime", "2"]) == 2
        assert "position 6" in capsys.readouterr().err

    def test_round_trip_on_canonical_forms(self):
        import random

        rng = random.Random(77)
        for _ in range(200):
            d = rng.randint(0, 6)
            cs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d + 1)]
            poly = RationalPoly(cs)
            assert parse_polynomial(format_polynomial(poly)) == poly

    def test_non_string_text_is_refused(self):
        with pytest.raises(PreconditionError) as err:
            parse_polynomial(None)
        assert str(err.value) == "a polynomial expression must be a string, got None"


class TestExitCodes:
    def test_strong_verdict_exits_zero(self, capsys):
        code = run(["bogomolov", "X^5+X^2+X+1/2", "--prime", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "strong_bogomolov"

    def test_inconclusive_exits_ten(self, capsys):
        code = run(["bogomolov", "X^2+3", "--prime", "5"])
        assert code == 10
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "inconclusive"

    def test_parse_error_exits_two(self, capsys):
        code = run(["np", "X^^2", "--prime", "2"])
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_usage_error_exits_two(self, capsys):
        assert run(["np", "X^2"]) == 2  # missing --prime
        capsys.readouterr()

    def test_precondition_violation_exits_three(self, capsys):
        code = run(["mphi", "X^2+1/2", "--fixed", "0", "--prime", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "preperiodic" in err

    def test_non_prime_rejected_verbatim(self, capsys):
        code = run(["np", "X+1", "--prime", "6"])
        assert code == 3
        assert "prime" in capsys.readouterr().err

    @pytest.mark.parametrize("command, prime", [("np", 2**89 - 1), ("bogomolov", 2**107 - 1)])
    def test_a_new_prime_is_tested_once(self, command, prime, monkeypatch, capsys):
        calls = []
        is_prime = valuation.is_prime
        monkeypatch.setattr(valuation, "is_prime", lambda n: calls.append(n) or is_prime(n))
        valuation._int_place.cache_clear()  # the prime must be new to the place memo
        assert run([command, "X^2+1", "--prime", str(prime)]) in (0, 10)
        capsys.readouterr()
        assert calls.count(prime) == 1

    def test_np_of_constant_is_a_degenerate_polygon(self, capsys):
        for text in ("0", "5"):
            assert run(["np", text, "--prime", "2"]) == 3
            assert "degenerate polygon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["survey", "X^2", "--prime", "2", "--max-height", "nan"],
            ["survey", "X^2", "--prime", "2", "--max-height", "inf"],
            ["height", "X^2", "2", "--eps", "inf"],
            ["height", "X^2", "2", "--eps", "nan"],
            ["survey", "X^2", "--prime", "2", "--max-height", "0", "--eps", "nan"],
            ["survey", "X^2", "--prime", "2", "--max-height", "0", "--eps", "-5"],
        ],
    )
    def test_non_finite_float_option_exits_three(self, argv, capsys):
        assert run(argv) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["height", "X^2+1", f"{10**400}/3"], "exceeds double precision range"),
            (["height", f"{10**400}*X^2+1", "1"], "exceeds double precision range"),
            (["survey", "X^2", "--prime", "2", "--max-height", "800"], "SURVEY_N_MAX"),
            (["bounds", "--max-e", "9001"], "BOUND_TABLE_E_MAX"),
            (
                ["member", "X^2", "--prime", "2", "--center", "0", "--rho", "0",
                 "--max-iter", "2049"],
                "MEMBERSHIP_MAX_ITER",
            ),
            (
                ["member", "X^2+X", "--prime", "3", "--center", "1", "--rho", "1025"],
                "MEMBERSHIP_RHO_MAX",
            ),
            # a 50-digit semiprime whose factors are out of Pollard rho's reach
            (["height", "X^2+1", f"1/{(10**24 + 7) * (10**25 + 13)}"], "FACTORIZE_RHO_STEPS"),
            (
                ["disc-eval", "X^2", "--prime", "2", "--center", "0", "--rho", "-512"],
                "beyond double precision range",
            ),
        ],
    )
    def test_out_of_range_input_exits_three(self, argv, message, capsys):
        assert run(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, exponent",
        [
            (["height", f"X^{MAP_DEGREE_MAX + 1}+1", "2"], MAP_DEGREE_MAX + 1),
            (["disc-eval", "X^9999+1", "--prime", "2", "--center", "1/3", "--rho", "1"], 9999),
        ],
        ids=["height", "disc-eval"],
    )
    def test_degree_above_the_cap_exits_two_at_the_token(self, argv, exponent, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"syntax error at position 2: exponent {exponent} exceeds MAP_DEGREE_MAX = 256\n"
        )

    def test_degree_cap_holds_at_every_radius(self, capsys):
        # one cap for every subcommand: a classical point (--rho inf), one
        # Horner evaluation, is refused at the exponent as a disc is
        argv = ["disc-eval", "X^9999+1", "--prime", "2", "--center", "1/3", "--rho"]
        for rho in ("1", "inf"):
            started = time.monotonic()
            assert run(argv + [rho]) == 2
            assert time.monotonic() - started < 1.0
        assert capsys.readouterr().err.count("syntax error at position 2") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["height", "X^999999", "2"],
            ["bogomolov", "X^999999+1", "--prime", "2"],
            ["member", "X^999999", "--prime", "2", "--center", "0", "--rho", "0"],
            ["mphi", "X^999999", "--fixed", "0", "--prime", "2"],
            ["survey", "X^999999", "--prime", "2", "--max-height", "0.5"],
            ["np", "X^999999", "--prime", "2"],
            ["disc-eval", "X^999999+1", "--prime", "2", "--center", "1/3", "--rho", "inf"],
        ],
    )
    def test_map_degree_cap_precedes_building_the_map(self, argv, capsys):
        # the exponent token is refused before any coefficient is built; past
        # the grammar, np took 3 s here and disc-eval at --rho inf over 15 s
        started = time.monotonic()
        assert run(argv) == 2
        assert time.monotonic() - started < 0.5
        assert capsys.readouterr().err == (
            "syntax error at position 2: exponent 999999 exceeds MAP_DEGREE_MAX = 256\n"
        )

    def test_map_degree_is_that_of_the_summed_terms(self, capsys):
        # cancelling terms under the cap leave a quadratic map; above it,
        # each exponent token is refused, whatever the terms sum to
        assert run(["height", "X^200 - X^200 + X^2", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["local_parts"]["inf"]["escaped_at"] == 2
        for argv in (
            ["height", "X^999999 - X^999999 + X^2", "2"],
            ["np", f"X^{MAP_DEGREE_MAX + 1} + 1", "--prime", "2"],
        ):
            assert run(argv) == 2
            assert "syntax error at position 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e-200000", "1e50000000"])
    def test_exponent_notation_rational_exits_two(self, text, capsys):
        # Fraction(text) would build 10**200000 and more, past any size check
        started = time.monotonic()
        assert run(["height", "X^2+1", text]) == 2
        assert run(["member", "X^2", "--prime", "2", "--center", text, "--rho", "0"]) == 2
        assert time.monotonic() - started < 1.0
        assert capsys.readouterr().err.count("not a rational number") == 2

    def test_rho_is_a_rational_or_exactly_inf(self, capsys):
        argv = ["member", "X^2", "--prime", "2", "--center", "0", "--rho"]
        for rho in ("INF", " inf"):
            assert run(argv + [rho]) == 2
            assert "not a rational number" in capsys.readouterr().err
        assert run(argv + ["inf"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "bounded_certified"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["bogomolov", "X^2+3", "--prime", "5"], 10),
            (["bogomolov", "X^2+3", "--prime", "6"], 3),
        ],
    )
    def test_module_entry_point(self, argv, code):
        src = str(Path(padicdyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        cmd = [sys.executable, "-W", "error", "-m", "padicdyn", *argv]
        done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == code, done.stderr
        assert "Warning" not in done.stderr

    def test_determinism(self, capsys):
        first = run(["bogomolov", "X^5+X^2+X+1/2", "--prime", "2"])
        out1 = capsys.readouterr().out
        second = run(["bogomolov", "X^5+X^2+X+1/2", "--prime", "2"])
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2


class TestSubcommandOutput:
    def test_np_emits_reparsable_polygon(self, capsys):
        assert run(["np", "X-8", "--prime", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        polygon = polygon_from_json_dict(data)
        assert len(polygon.segments) == 1
        assert polygon.segments[0].slope == F(-3)

    def test_bogomolov_emits_reparsable_certificate(self, capsys):
        assert run(["bogomolov", "X^5+X^2+X+1/2", "--prime", "2", "--ram", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        cert = certificate_from_json_dict(data)
        assert cert.witness_slope == F(1, 5)
        assert cert.place.e == 2

    def test_disc_eval(self, capsys):
        assert run(
            ["disc-eval", "X^2+1", "--center", "0", "--rho", "0", "--prime", "3"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["valuation"] == "0"
        assert data["absolute_value"] == 1.0

    def test_disc_eval_classical_point(self, capsys):
        assert run(
            ["disc-eval", "X", "--center", "7", "--rho", "inf", "--prime", "7"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["valuation"] == "1"

    def test_member(self, capsys):
        assert run(
            ["member", "X^2", "--center", "0", "--rho", "-1", "--prime", "2"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"verdict": "escaped", "step": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["member", "X^32+1/7", "--prime", "7", "--center", "1/3", "--rho", "1/2",
             "--max-iter", "2048"],
            ["member", "X^256+1/2", "--prime", "2", "--center", "1/3", "--rho", "inf"],
        ],
    )
    def test_member_keeps_small_centers_small(self, argv, capsys):
        # Reduced modulo the full p-adic window before the first step, 1/3
        # would become a number of about 10**5 bits, and each call would
        # take about 50 s.
        started = time.monotonic()
        assert run(argv) == 0
        assert time.monotonic() - started < 5.0
        assert capsys.readouterr().out == '{"verdict": "escaped", "step": 1}\n'

    def test_mphi(self, capsys):
        assert run(["mphi", "X^2", "--fixed", "0", "--prime", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] is True and data["snapped"] == "0"

    def test_mphi_on_repelling_center_stops(self, capsys):
        assert run(["mphi", "1/2*X^2 - 1/2*X", "--fixed", "3", "--prime", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rho_upper"] is None and data["exact"] is False

    def test_height_breakdown(self, capsys):
        assert run(["height", "X^2", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["value"] - 0.6931471805599453) <= 1e-8
        assert data["error_bound"] <= 1e-8
        assert "inf" in data["local_parts"]

    def test_height_rational_argument(self, capsys):
        assert run(["height", "X^2", "3/2", "--eps", "1e-9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["value"] - 1.0986122886681098) <= 1e-8

    def test_survey_csv_and_disclaimer(self, capsys):
        assert run(
            ["survey", "X^2", "--prime", "2", "--max-height", "0.8"]
        ) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "x,num,den,canonical_height,error_bound,preperiodic"
        assert len(lines) == 8  # header + {0, ±1, ±2, ±1/2}: max(|m|,|n|) <= 2
        assert "not a proof" in captured.err

    def test_bounds_csv_and_crossover(self, capsys):
        assert run(["bounds", "--max-e", "8"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "e,lcm_e,pottmeyer,new_bound,nine_exp"
        assert len(lines) == 9
        assert "crossover at e = 6" in captured.err


# Exact stdout of the README's examples, one per subcommand (both `bogomolov`
# exit codes); `survey` is pinned by its header and first three rows.
_GOLDEN = [
    (
        ["np", "X^5+X^2+X+1/2", "--prime", "2"],
        0,
        '{"vertices": [[0, "-1"], [5, "0"]], '
        '"segments": [{"slope": "1/5", "length": 5}]}\n',
    ),
    (
        ["bogomolov", "X^5+X^2+X+1/2", "--prime", "2"],
        0,
        '{"verdict": "strong_bogomolov", "p": 2, "e": 1, "witness": {"slope": "1/5", '
        '"segment": [[0, "-1"], [5, "0"]], "zeta_of_X_valuation": "-1/5"}, '
        '"polygon": {"vertices": [[0, "-1"], [5, "0"]], '
        '"segments": [{"slope": "1/5", "length": 5}]}, "abstract": false}\n',
    ),
    (
        ["bogomolov", "X^2+3", "--prime", "5"],
        10,
        '{"verdict": "inconclusive", "p": 5, "e": 1, "witness": null, '
        '"polygon": {"vertices": [[0, "0"], [2, "0"]], '
        '"segments": [{"slope": "0", "length": 2}]}, "abstract": false}\n',
    ),
    (
        ["disc-eval", "X^2+2*X+4", "--center", "0", "--rho", "0", "--prime", "2"],
        0,
        '{"point": {"center": "0", "rho": "0", "p": 2}, '
        '"valuation": "0", "absolute_value": 1.0}\n',
    ),
    (
        ["member", "X^2+1/2", "--center", "0", "--rho", "0", "--prime", "2"],
        0,
        '{"verdict": "escaped", "step": 1}\n',
    ),
    (
        ["mphi", "X^2", "--fixed", "0", "--prime", "3"],
        0,
        '{"rho_lower": "0", "rho_upper": "0", "snapped": "0", '
        '"exact": true, "probes": 1}\n',
    ),
    (
        ["height", "X^2", "2", "--eps", "1e-9"],
        0,
        '{"value": 0.6931471805599453, "error_bound": 7.771561172376096e-15, '
        '"preperiodic": false, "local_parts": {"inf": {"value": 0.6931471805599453, '
        '"error_bound": 7.771561172376096e-15, "log_p_multiple": null, '
        '"escaped_at": 2}}}\n',
    ),
    (
        ["survey", "X^2", "--prime", "2", "--max-height", "1.1"],
        0,
        "x,num,den,canonical_height,error_bound,preperiodic\n"
        "-3,-3,1,1.0986122886681098,8.43769498715119e-15,false\n"
        "-2,-2,1,0.6931471805599453,7.771561172376096e-15,false\n"
        "-1,-1,1,0.0,0.0,true\n",
    ),
    (
        ["bounds", "--max-e", "12"],
        0,
        "e,lcm_e,pottmeyer,new_bound,nine_exp\n"
        "1,1,7.38905609893065,1.0,0.11111111111111109\n"
        "2,2,1.7061921885357574,0.25,0.012345679012345675\n"
        "3,6,0.184466755140711,0.02777777777777778,0.0013717421124828531\n"
        "4,12,0.011371452282111087,0.006944444444444444,0.00015241579027587248\n"
        "5,60,0.0004511020194776421,0.00027777777777777794,1.6935087808430265e-05\n"
        "6,60,1.2461419831107067e-05,0.00027777777777777794,1.8816764231589204e-06\n"
        "7,420,2.533098900659035e-07,5.668934240362813e-06,2.090751581287688e-07\n"
        "8,840,3.946225799692687e-09,1.417233560090703e-06,2.323057312541874e-08\n"
        "9,2520,4.8606348334395775e-11,1.5747039556563356e-07,2.5811747917131962e-09\n"
        "10,2520,4.851651954097877e-13,1.5747039556563356e-07,2.8679719907924336e-10\n"
        "11,27720,4.003564625089091e-15,1.301408227815153e-09,3.18663554532493e-11\n"
        "12,27720,2.776747659571926e-17,1.301408227815153e-09,3.5407061614721485e-12\n",
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout", _GOLDEN, ids=[" ".join(case[0][:2]) for case in _GOLDEN]
)
def test_readme_examples_stdout_is_byte_identical(argv, code, stdout, capsys):
    assert run(argv) == code
    out = capsys.readouterr().out
    if argv[0] == "survey":
        out = "".join(out.splitlines(keepends=True)[:4])
    assert out == stdout


# Disc orbits at the degree cap: each membership step runs a degree-256
# Taylor shift.  On Fractions these took about 100 s (the repelling center)
# and 207 s (2048 steps of a contracting disc).
_DEGREE_CAP_ORBITS = [
    (
        ["mphi", "1/2*X^256-1/2*X", "--fixed", "0", "--prime", "2"],
        '{"rho_lower": "65026/255", "rho_upper": null, "snapped": null, '
        '"exact": false, "probes": 10}\n',
    ),
    (
        ["member", "9*X^256+3*X", "--prime", "3", "--center", "0", "--rho", "0",
         "--max-iter", "2048"],
        '{"verdict": "bounded_up_to", "max_iter": 2048}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdout", _DEGREE_CAP_ORBITS, ids=[case[0][0] for case in _DEGREE_CAP_ORBITS]
)
def test_disc_orbits_at_the_degree_cap(argv, stdout, capsys):
    started = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - started < 10.0
    assert capsys.readouterr().out == stdout


# -- fuzzing run() -------------------------------------------------------------

_FUZZ_POLYS = st.one_of(
    st.sampled_from(
        ["X^2", "X^5+X^2+X+1/2", "X^2 - 1", "1/2*X^3 - X", "X^2 + X", "X", "0", "5"]
    ),
    st.lists(
        st.tuples(st.sampled_from(["1", "2", "1/2", "3/4", "7", "1/9", "12345"]),
                  st.integers(0, 6)),
        max_size=4,
    ).map(lambda terms: " + ".join(f"{c}*X^{k}" for c, k in terms) or "0"),
    # junk; the grammar refuses any exponent above MAP_DEGREE_MAX
    st.text(alphabet="X0123456789+-*/^ ", max_size=10),
)
_FUZZ_RATIONALS = st.one_of(
    st.integers(-3000, 3000).map(str),
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(0, 60)),
    st.sampled_from(
        ["inf", "nan", "-inf", "1e400", "x", "", "2.5", "1/0", "1024", "1025", "-1025",
         "-600", "1e-200000", "1e50000000"]
    ),
)
_FUZZ_INTS = st.one_of(
    st.integers(-100, 100).map(str), st.sampled_from(["2", "3", "5", "7", "nan", "x", ""])
)
_FUZZ_FLOATS = st.one_of(
    st.floats(-1, 1.5, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "1e-13", "1e-3", "800", "x"]),
)
# Options per subcommand, with sizes bounded so that every call stays fast.
_FUZZ_OPTIONS = {
    "np": {"--prime": _FUZZ_INTS},
    "bogomolov": {"--prime": _FUZZ_INTS, "--ram": _FUZZ_INTS},
    "disc-eval": {"--prime": _FUZZ_INTS, "--center": _FUZZ_RATIONALS,
                  "--rho": _FUZZ_RATIONALS},
    "member": {"--prime": _FUZZ_INTS, "--center": _FUZZ_RATIONALS,
               "--rho": _FUZZ_RATIONALS, "--max-iter": st.integers(-2, 64).map(str)},
    "mphi": {"--prime": _FUZZ_INTS, "--fixed": _FUZZ_RATIONALS},
    "height": {"--eps": _FUZZ_FLOATS},
    "survey": {"--prime": _FUZZ_INTS, "--max-height": _FUZZ_FLOATS, "--eps": _FUZZ_FLOATS},
    "bounds": {"--max-e": st.integers(-5, 200).map(str), "--constant": _FUZZ_FLOATS},
    "nope": {},
}


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [cmd] if cmd == "bounds" else [cmd, draw(_FUZZ_POLYS)]
    if cmd == "height":
        argv.append(draw(_FUZZ_RATIONALS))
    for name, values in _FUZZ_OPTIONS[cmd].items():
        if draw(st.integers(0, 9)):  # occasionally leave a required option out
            argv += [name, draw(values)]
    junk = st.sampled_from(["--junk", "X", "-h", "--prime=2", "1/2", "--"])
    return argv + draw(st.lists(junk, max_size=1))


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argv())
def test_run_is_total_on_fuzzed_argv(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3, 10), argv
