"""One-line mutants of padicdyn, each with the tests that must catch it.

Run from the repository root (it takes a few minutes):

    python3 tests/mutants.py              # every mutant
    python3 tests/mutants.py --list       # names, expected outcomes and notes
    python3 tests/mutants.py NAME ...     # some of them

Each mutant replaces one text, which must occur exactly once, in one file of
``src/padicdyn``.  The runner copies ``src/``, ``tests/``, ``bench/`` (a
tier-1 test runs its seed-0 pins) and ``pyproject.toml`` to a temporary
directory, first runs the named tests of the chosen mutants there unmutated
(they must pass), then for each mutant applies it to a fresh copy, runs its
named tests with ``pytest -x`` and compares the outcome with the expected
one: "killed" (a named test fails) or "survives" (they all pass; the note
says why no test catches it, or why the mutant is equivalent).  It exits 1
if an outcome differs from the expected one or a mutant no longer applies.
The list only grows: a mutant that a new test kills changes its expected
outcome, and an equivalent one stays with its argument.  Standard library
only, besides the test suite's own pytest.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
BERKOVICH = "src/padicdyn/berkovich.py"
BOGOMOLOV = "src/padicdyn/bogomolov.py"
BOUNDS = "src/padicdyn/bounds.py"
HEIGHTS = "src/padicdyn/heights.py"
TIER_1 = ("tests",)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    expected: str  # "killed" or "survives"
    note: str = ""


MUTANTS = [
    # -- the membership engine, the heights and the slope test ---------------
    Mutant(
        "disc-rho-trust-strict",
        BERKOVICH,
        "if r >= rho_trust * q:",
        "if r > rho_trust * q:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_disc_whose_radius_reaches_rho_trust_is_not_certified",
        ),
        "killed",
        "a fixed disc reached at rho_trust exactly, checked by a pushforward replay",
    ),
    Mutant(
        "type-i-growth-bound-0.9",
        BERKOVICH,
        "bound = map_invariant(phi, _height_growth_bound) + 1e-9",
        "bound = map_invariant(phi, _height_growth_bound) * 0.9 + 1e-9",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_cycle_past_nine_tenths_of_the_growth_bound_is_certified",
        ),
        "killed",
        "X**d / n**(d-1) cycles at n, whose naive height passes 0.9 times the growth bound",
    ),
    Mutant(
        "preperiodic-growth-bound-0.9",
        HEIGHTS,
        "if math.log(max(abs(a), b)) > bound + 1e-9:",
        "if math.log(max(abs(a), b)) > bound * 0.9 + 1e-9:",
        ("tests/test_heights.py",),
        "killed",
    ),
    Mutant(
        "tail-bound-halved",
        HEIGHTS,
        "* math.log(phi.degree)) * 1.01 + 1e-300",
        "* math.log(phi.degree)) * 0.5 + 1e-300",
        TIER_1,
        "killed",
        "killed only as a changed output: the bench's requests anchor pins the bound that the CLI "
        "prints (test_bench_seed_0_pins).  The halved bound is still sound: no escape at steps "
        "0..max_iter puts the first escape at step m > max_iter, at a "
        "valuation t >= t_floor, so |g_p| = d**-m * (-t - val(a_d)/(d-1)) * log p <= "
        "d**-(max_iter+1) * bound_q * log p, which is at most half of the bound without its 1.01 for "
        "every d >= 2; the exact-orbit oracle reaches 0.495 of today's bound at d = 2 and kills any "
        "factor below 1/2 (tail-bound-below-half)",
    ),
    Mutant(
        "slope-threshold-strict",
        BOGOMOLOV,
        "if sigma >= threshold and not in_value_group(sigma, place.e):",
        "if sigma > threshold and not in_value_group(sigma, place.e):",
        ("tests/test_bogomolov.py::TestKnownVerdicts::test_witness_slope_at_the_threshold_qualifies",),
        "killed",
    ),
    Mutant(
        "orbit-trust-64-to-16",
        BERKOVICH,
        "trust = 64 + 2 * (1 - (-abs(vn) // vd))",
        "trust = 16 + 2 * (1 - (-abs(vn) // vd))",
        ("tests/test_berkovich.py",),
        "killed",
        "killed only by test_integer_record_matches_the_fraction_formulas, which restates the formula",
    ),
    Mutant(
        "orbit-window-loss-halved",
        BERKOVICH,
        "self.window = trust + (max_iter + 1) * loss_per_step",
        "self.window = trust + (max_iter + 1) * loss_per_step // 2",
        ("tests/test_berkovich.py",),
        "killed",
        "killed only by test_integer_record_matches_the_fraction_formulas, which restates the formula",
    ),
    Mutant(
        "arch-slop-zero",
        HEIGHTS,
        "slop = 6 * math.ulp(1.0 + abs(yhi))",
        "slop = 0.0",
        ("tests/test_cli.py",),
        "killed",
        "killed only by the README's byte-identical stdout",
    ),
    Mutant(
        "type-i-escape-not-strict",
        BERKOVICH,
        "if t * vd < vn:",
        "if t * vd <= vn:",
        ("tests/test_berkovich.py",),
        "killed",
    ),
    Mutant(
        "disc-escape-not-strict",
        BERKOVICH,
        "if vd * t < vn:",
        "if vd * t <= vn:",
        ("tests/test_berkovich.py",),
        "killed",
        "a nonzero residue's valuation at v_C",
    ),
    Mutant(
        "disc-zero-residue-escape-not-strict",
        BERKOVICH,
        "elif r * vd < vn * q:",
        "elif r * vd <= vn * q:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_disc_at_the_escape_threshold_is_a_fixed_disc",
        ),
        "killed",
        "X**3/2 at 2 fixes D(0, 1/2), whose radius valuation is v_C, checked by a pushforward replay",
    ),
    Mutant(
        "disc-cycle-key-drops-rho-denominator",
        BERKOVICH,
        "key = (a, b, r, q)",
        "key = (a, b, r)",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_radii_with_equal_numerators_are_different_discs",
        ),
        "killed",
        "X**2 + 3X at 3 maps D(0, 1/2) onto D(0, 1): radius numerators 1 and 1, a false cycle",
    ),
    Mutant(
        "escape-threshold-max",
        BERKOVICH,
        "if (v - vad) * vd < vn * (d - i):",
        "if (v - vad) * vd > vn * (d - i):",
        ("tests/test_berkovich.py",),
        "killed",
    ),
    Mutant(
        "escape-rate-one-step-late",
        HEIGHTS,
        "t.denominator * (d - 1) * d**verdict.step,",
        "t.denominator * (d - 1) * d ** (verdict.step + 1),",
        ("tests/test_heights.py",),
        "killed",
    ),
    Mutant(
        "slope-threshold-over-d",
        BOGOMOLOV,
        "threshold = lead_valuation / Fraction(d - 1)",
        "threshold = lead_valuation / Fraction(d)",
        ("tests/test_bogomolov.py",),
        "killed",
    ),
    # -- the disc step's valuations -------------------------------------------
    Mutant(
        "disc-step-drops-val-w",
        BERKOVICH,
        "n * rho + (_int_valuation(e[n], p) - vw - (d - n) * vden)",
        "n * rho + (_int_valuation(e[n], p) - (d - n) * vden)",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_integer_disc_step_matches_a_fraction_replay",
        ),
        "killed",
    ),
    Mutant(
        "disc-step-drops-val-den",
        BERKOVICH,
        "n * rho + (_int_valuation(e[n], p) - vw - (d - n) * vden)",
        "n * rho + (_int_valuation(e[n], p) - vw)",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_integer_disc_step_matches_a_fraction_replay",
        ),
        "killed",
    ),
    # -- the integral traps of the disc and type I loops -----------------------
    Mutant(
        "disc-trap-ignores-center-denominator",
        BERKOVICH,
        "if integral and den % p:",
        "if integral:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_disc_with_p_in_its_center_past_rho_trust_escapes_later",
        ),
        "killed",
        "a 3-integral map's disc past rho_trust at center -1/3 escapes at the next step",
    ),
    Mutant(
        "disc-trap-ignores-integrality",
        BERKOVICH,
        "if integral and den % p:",
        "if den % p:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_non_integral_disc_past_rho_trust_escapes_later",
        ),
        "killed",
        "a map with 1/3 in a coefficient has a disc past rho_trust at center 1 that escapes two steps on",
    ),
    Mutant(
        "disc-trap-one-below-rho-trust",
        BERKOVICH,
        "if r >= rho_trust * q:",
        "if r >= (rho_trust - 1) * q:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_integral_disc_past_rho_trust_stops_at_the_trap",
        ),
        "killed",
        "a fixed disc of radius valuation rho_trust - 2/3 about an integral center is certified",
    ),
    Mutant(
        "type-i-trap-ignores-point-denominator",
        BERKOVICH,
        "if integral and b % p:",
        "if integral:",
        (
            "tests/test_berkovich.py::TestFilledJuliaMembership::"
            "test_type_i_point_with_p_in_its_denominator_past_the_growth_bound_escapes_later",
        ),
        "killed",
        "3X**3 + X**2 at 3 takes 29/3 past its growth bound to 8410/3, of valuation -1, then escapes",
    ),
    # -- the p-adic tail bound against the exact-orbit oracle ------------------
    Mutant(
        "tail-bound-below-half",
        HEIGHTS,
        "* math.log(phi.degree)) * 1.01 + 1e-300",
        "* math.log(phi.degree)) * 0.49 + 1e-300",
        ("tests/test_heights.py::test_undecided_error_bound_covers_the_exact_rate_at_four_times_the_budget",),
        "killed",
    ),
    # -- the CI workflow's sha256 pins -----------------------------------------
    Mutant(
        "max-point-tolerance-halved",
        BERKOVICH,
        "MAX_POINT_TOLERANCE = Fraction(1, 2**20)",
        "MAX_POINT_TOLERANCE = Fraction(1, 2**21)",
        ("tests/test_golden.py::test_max_point_sweep_digest",),
        "killed",
    ),
    Mutant(
        "nine-exp-column-one-ulp-low",
        BOUNDS,
        "_exp_until_underflow(log_c - e * log_9 for e in es)",
        "_exp_until_underflow(log_c - e * log_9 * (1 + 2**-52) for e in es)",
        ("tests/test_golden.py::test_cli_stdout_digest",),
        "killed",
    ),
    # -- the lcm(1..n) <= 3**n certificate on odd-only flags ------------------
    Mutant(
        "interval-count-odd-lo",
        BOUNDS,
        'int.from_bytes(view[lo // 2 : hi // 2], "little")',
        'int.from_bytes(view[(lo + 1) // 2 : hi // 2], "little")',
        ("tests/test_bounds.py::TestLcmExponentialBound::test_each_interval_sum_decides_at_its_own_ratio",),
        "killed",
        "an odd prime at an interval's start is left out of its count",
    ),
    Mutant(
        "interval-count-odd-hi",
        BOUNDS,
        'int.from_bytes(view[lo // 2 : hi // 2], "little")',
        'int.from_bytes(view[lo // 2 : (hi + 1) // 2], "little")',
        ("tests/test_bounds.py::TestLcmExponentialBound::test_each_interval_sum_decides_at_its_own_ratio",),
        "killed",
        "an odd prime at the next interval's start is counted twice",
    ),
    Mutant(
        "interval-count-drops-two",
        BOUNDS,
        ".bit_count() + (lo <= 2 < hi)",
        ".bit_count()",
        ("tests/test_bounds.py::TestLcmExponentialBound::test_each_interval_sum_decides_at_its_own_ratio",),
        "killed",
    ),
    Mutant(
        "sieve-strikes-from-p-squared-plus-2p",
        BOUNDS,
        "start = p * p // 2",
        "start = p * p // 2 + p",
        ("tests/test_bounds.py::TestSieve",),
        "killed",
    ),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=1800)


def outcome(mutant: Mutant) -> str:
    """The mutant's outcome: killed, survives, does not apply, or error
    (pytest exited neither 0 nor 1, as for a test id that names no test)."""
    with tempfile.TemporaryDirectory(prefix="padicdyn-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "does not apply"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(tree, mutant.tests).returncode
    return {0: "survives", 1: "killed"}.get(code, "error")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            print(f"{m.name:38} {m.expected:9} {m.path}  {m.note}".rstrip())
        return 0

    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="padicdyn-mutant-") as tmp:
        _copy_tree(Path(tmp))
        baseline = _pytest(Path(tmp), tests)
    if baseline.returncode != 0:
        print(baseline.stdout[-4000:])
        print("the named tests fail on the unmutated tree")
        return 1
    mismatches = 0
    for m in chosen:
        got = outcome(m)
        ok = got == m.expected
        mismatches += not ok
        print(f"{m.name:38} {got:14} expected {m.expected:9} {'ok' if ok else 'MISMATCH'}", flush=True)
    print(f"{len(chosen) - mismatches} of {len(chosen)} mutants as expected")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
