"""The sha256 pins of the CI workflow, run under the tier-1 command.

Each case is one pinned output of ``.github/workflows/tests.yml``: the
worked-quintic survey, a seeded sweep of fresh-map membership calls, a seeded
sweep of ``max_point`` calls, four bounds tables and the exact stdout of five
membership calls with a time limit.  The workflow's ``timeout`` for each is a
wall-clock assertion here.  An output that changes
on purpose updates its digest here and in the workflow.  The call counts of
the worked-quintic survey, which ``bench/selftest.py`` checks on a traced
run, are pinned here too, and so are the bench's seed-0 pins of its four
workloads, each run as the workflow runs it.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import padicdyn
from padicdyn import (
    DiscPoint,
    RationalPoly,
    filled_julia_membership,
    max_point,
    survey,
    verdict_to_json_dict,
)

_SRC = str(Path(padicdyn.__file__).resolve().parents[1])
_BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize(
    "argv, digest, seconds",
    [
        (
            ["survey", "X^5+X^2+X+1/2", "--prime", "2", "--max-height", "3.912023005428146"],
            "e0b8939076d570ccab88bdbbdc4d901711160913de7aa18076d33126bc137ccc",
            60,
        ),
        (
            ["bounds", "--max-e", "9000"],
            "1a51f89d4a74070a6fea7ad9df96ca360c74811ddb286ff0eaf3976c05ca09fd",
            5,
        ),
        (
            ["bounds", "--max-e", "2500", "--constant", "0.004"],
            "1d4b0abaabd540ce42796eca837773c77168f511e8f3b068c3904cfa6730832d",
            5,
        ),
        (
            ["bounds", "--max-e", "9000", "--constant", "1e308"],
            "34d3f03e5b62f4adcec399bae193c5af6c70971b74a227ed7b5f5b090199f23c",
            5,
        ),
        (
            ["bounds", "--max-e", "9000", "--constant", "inf"],
            "5ac19c143b5caf7502dc4f0bade3d71dcfc067fb8a4f3c676d33f830fafc5296",
            5,
        ),
    ],
    ids=["worked-quintic-survey", "bounds-9000", "bounds-2500-C0.004", "bounds-9000-C1e308", "bounds-9000-Cinf"],
)
def test_cli_stdout_digest(argv, digest, seconds):
    # a fresh interpreter with warnings as errors, as in the workflow;
    # stdout only is hashed, and the time includes the interpreter's start
    env = dict(os.environ, PYTHONPATH=_SRC)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "padicdyn", *argv],
        capture_output=True,
        env=env,
        timeout=seconds,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest
    assert elapsed < seconds


_SMALL_FIXED_CENTER = """
import json
from fractions import Fraction
from padicdyn import DiscPoint, RationalPoly, filled_julia_membership, verdict_to_json_dict
half = Fraction(1, 2)
y = RationalPoly.identity() - half
phi = half + 3 * y + y * y * Fraction(1, 3) + RationalPoly.monomial(256).compose(y)
verdict = filled_julia_membership(phi, DiscPoint(half, Fraction(3, 2), 3), 256)
print(json.dumps(verdict_to_json_dict(verdict)))
"""


def _member(*argv):
    return ["-m", "padicdyn", "member", *argv]


@pytest.mark.parametrize(
    "argv, stdout, seconds",
    [
        (
            _member("7X^256-X", "--prime", "7", "--center", "1/2", "--rho", "inf", "--max-iter", "64"),
            '{"verdict": "bounded_up_to", "max_iter": 64}',
            5,
        ),
        (
            _member("7*X^5+X+1", "--prime", "7", "--center", "1/2", "--rho", "inf", "--max-iter", "2048"),
            '{"verdict": "bounded_up_to", "max_iter": 2048}',
            5,
        ),
        (
            _member("1/243*X^256+X", "--prime", "3", "--center", "9", "--rho", "inf"),
            '{"verdict": "bounded_up_to", "max_iter": 256}',
            5,
        ),
        (["-c", _SMALL_FIXED_CENTER], '{"verdict": "bounded_up_to", "max_iter": 256}', 5),
        (
            _member("X^256+1", "--prime", "3", "--center", "60/59", "--rho", "3/7", "--max-iter", "2048"),
            '{"verdict": "bounded_up_to", "max_iter": 2048}',
            5,
        ),
    ],
    ids=[
        "integral-type-i-degree-256",
        "integral-type-i-budget-2048",
        "type-i-degree-256-reduced",
        "disc-small-fixed-center",
        "integral-disc-past-rho-trust",
    ],
)
def test_membership_answers_in_time(argv, stdout, seconds):
    # the CI workflow's membership time limits: exact stdout from a fresh
    # interpreter with warnings as errors, the time including its start
    env = dict(os.environ, PYTHONPATH=_SRC)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-W", "error", *argv], capture_output=True, env=env, timeout=seconds)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == stdout + "\n"
    assert elapsed < seconds


@pytest.mark.filterwarnings("error")
def test_membership_sweep_digest():
    # 4,000 calls, each on a new map: 2,529 escaped, 605 certified, 866 up-to
    start = time.perf_counter()
    rng = random.Random(29)
    digest = hashlib.sha256()
    for _ in range(4000):
        p = rng.choice((2, 3, 5, 7, 11))
        dens = (1,) if rng.random() < 0.5 else (1, 3, p, p * p)
        low = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(2, 6))]
        phi = RationalPoly(low + [Fraction(rng.choice((1, -1, 2, 3)), rng.choice(dens))])
        kind = rng.random()
        center = Fraction(rng.randint(-20, 20), rng.choice((1, 3, p, p * p)))
        if kind < 0.5:
            rho = "inf"
        elif kind < 0.75:
            center, rho = 0, 0
        else:
            q = rng.randint(1, 4)
            rho = Fraction(rng.randint(-6 * q, 12 * q), q)
        v = filled_julia_membership(phi, DiscPoint(center, rho, p), rng.choice((1, 16, 64)))
        digest.update((json.dumps(verdict_to_json_dict(v)) + repr(getattr(v, "valuation", None))).encode())
    assert digest.hexdigest() == "22eb2bc7f73a0ee0ffc1b26518de6ca6ebcf4f5527390ca1559eadcb8928028a"
    assert time.perf_counter() - start < 30


@pytest.mark.filterwarnings("error")
def test_max_point_sweep_digest():
    # 300 maps a + lam*(X - a) + (X - a)**2 * q(X - a) of degree 2-4 that fix a,
    # attracting (val(lam) = 1) and repelling (val(lam) = -1) in turn: 130
    # exact, 170 without rho_upper
    start = time.perf_counter()
    rng = random.Random(30)
    digest = hashlib.sha256()
    x = RationalPoly.identity()
    for i in range(300):
        p = rng.choice((2, 3, 5, 7))
        a = Fraction(rng.randint(-9, 9), rng.choice((1, 3, p)))
        y = x - a
        lam = rng.choice((1, -1, p + 1)) * (Fraction(p) if i % 2 else Fraction(1, p))
        q = [Fraction(rng.randint(-9, 9), rng.choice((1, p))) for _ in range(rng.randint(0, 2))]
        phi = a + lam * y + y * y * RationalPoly(q + [rng.choice((1, -1, 2, 3))]).compose(y)
        digest.update(json.dumps(max_point(phi, a, p).to_json_dict()).encode())
    assert digest.hexdigest() == "deb07d320fb2b030401946ad0cff7302c6b2fb4f08de0fe97bb71ed8bcd98c7e"
    assert time.perf_counter() - start < 30


def test_worked_quintic_survey_call_counts():
    # Each function is wrapped in every padicdyn module that binds it, as the
    # bench's layer tracer does, for the one survey call, and then restored.
    # A change that moves a count moves bench/selftest.py's pin with it.
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "padicdyn"]
    undo = []
    for fname in ("escape_threshold", "is_preperiodic", "local_escape_rate", "canonical_height"):
        original = getattr(padicdyn, fname)

        def counting(*args, _original=original, _name=fname, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for bound, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, bound, value))
                    setattr(module, bound, counting)
    try:
        report = survey(RationalPoly([Fraction(1, 2), 1, 1, 0, 0, 1]), 2, math.log(50), 1e-7)
    finally:
        for module, bound, value in undo:
            setattr(module, bound, value)
    assert len(report.records) == 3095
    assert counts == {
        "escape_threshold": 12510,
        "is_preperiodic": 6190,
        "local_escape_rate": 6255,
        "canonical_height": 3095,
    }
    assert all(getattr(m, b) is v for m, b, v in undo)


@pytest.mark.parametrize("workload", ["survey", "orbits", "requests", "lcm"])
def test_bench_seed_0_pins(workload):
    # the workflow's full-size seed-0 pins: a fresh interpreter runs the
    # workload's pinned blocks once, gates every output and compares the
    # digest with bench/pins.json; the last stdout line is the run's result
    done = subprocess.run(
        [sys.executable, str(_BENCH_RUN), "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"],
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert json.loads(done.stdout.decode().splitlines()[-1])["correct"] is True
