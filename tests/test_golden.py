"""The sha256 pins of the CI workflow, run under the tier-1 command.

Each case is one pinned output of ``.github/workflows/tests.yml``: the
worked-quintic survey, a seeded sweep of fresh-map membership calls, a seeded
sweep of ``max_point`` calls and four bounds tables.  The workflow's
``timeout`` for each is a wall-clock assertion here.  An output that changes
on purpose updates its digest here and in the workflow.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padicdyn
from padicdyn import (
    DiscPoint,
    RationalPoly,
    filled_julia_membership,
    max_point,
    verdict_to_json_dict,
)

_SRC = str(Path(padicdyn.__file__).resolve().parents[1])


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
