"""Integer primality and factorization.

Deterministic Miller-Rabin for the sizes that arise in practice and Pollard's
rho for factoring.  These support prime validation of places and the primes
of coefficients: denominators, and the end coefficients of a fixed-point search.
"""

from __future__ import annotations

import math
import random

from .errors import PreconditionError, checked_int

# The first 13 primes prove primality for every n below psi_13 =
# 3_317_044_064_679_887_385_961_981 (Sorenson and Webster, Math. Comp. 86,
# 2017); the first 12 do not: psi_12 = 399165290221 * 798330580441 passes them.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Pollard-rho steps one factorize call may take in all.  Finding a prime
# factor q takes about sqrt(q) steps, so every factor below about 10**10 is
# in reach; on a 2-vCPU Xeon a refusal takes about 2 s at 50 digits.
FACTORIZE_RHO_STEPS = 1 << 19


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is prime.

    Deterministic for n below ~3.3e24 via the fixed Miller-Rabin witness
    set; beyond that, extra random witnesses are added (error probability
    below 4**-64).
    """
    if checked_int(n, "is_prime expects an integer") < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(0xC0FFEE ^ n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(64)]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random, steps: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd ``n`` and the steps left of ``steps``."""
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(2, n)
        y = x
        d = 1
        while d == 1:
            if steps == 0:
                raise PreconditionError(
                    "factorization needs more than FACTORIZE_RHO_STEPS = "
                    f"{FACTORIZE_RHO_STEPS} Pollard-rho steps"
                )
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d, steps


def factorize(n: int) -> dict[int, int]:
    """Return the prime factorization of ``n`` >= 1 as {prime: exponent}.

    Trial division by the primes up to 47 stops at the first p with
    p*p > n, since what is left is then 1 or a prime; Pollard rho splits
    whatever the small primes leave.

    Raises PreconditionError when the factors are out of Pollard rho's reach
    (more than FACTORIZE_RHO_STEPS steps in all).
    """
    checked_int(n, "factorize expects a positive integer", 1)
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # n has no prime factor below p, so it is 1 or a prime
            if n > 1:
                factors[n] = 1
            return dict(sorted(factors.items()))
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return dict(sorted(factors.items()))
    rng = random.Random(0x5EED)
    steps = FACTORIZE_RHO_STEPS
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, rng, steps)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))

