"""Exact integer kernel: factorization and multiplicative functions.

Everything here is exact -- Python ints and fractions.Fraction.  Floats
never enter; callers that want floats convert at their own boundary.

Conventions that the rest of the package leans on:
  * gcd(0, n) = |n|, so 0 is coprime only to 1 and -1.
  * phi_star(n)   = prod_{p | n} (1 - 1/p)      (so phi_star(n) = phi(n)/n)
  * phi_dagger(n) = prod_{p | n} (1 + 1/p)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Factorization",
    "factorize",
    "moebius",
    "phi_dagger",
    "phi_star",
    "prime_divisors",
    "primes",
    "squarefree_divisors",
]

# ((p1, a1), (p2, a2), ...) with p1 < p2 < ... and all a_i >= 1
Factorization = tuple[tuple[int, int], ...]


@lru_cache(maxsize=1 << 18)
def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1, primes ascending.

    Trial division with a 2-3-5 wheel; inputs in this package stay small
    (products of torsor coordinates, at most ~10^9).
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    fac: list[tuple[int, int]] = []
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            fac.append((p, a))
    # candidates 7, 11, 13, 17, 19, 23, 29, 31, 37, ... (wheel mod 30)
    p = 7
    gaps = (4, 2, 4, 2, 4, 6, 2, 6)
    gi = 0
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            fac.append((p, a))
        p += gaps[gi]
        gi = (gi + 1) % 8
    if m > 1:
        fac.append((m, 1))
    return tuple(fac)


def prime_divisors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n (empty for n = 1)."""
    return tuple(p for p, _ in factorize(n))


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fac = factorize(n)
    if any(a >= 2 for _, a in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=1 << 18)
def phi_star(n: int) -> Fraction:
    """prod_{p | n} (1 - 1/p), exactly.  phi_star(1) = 1."""
    out = Fraction(1)
    for p, _ in factorize(n):
        out *= Fraction(p - 1, p)
    return out


@lru_cache(maxsize=1 << 18)
def phi_dagger(n: int) -> Fraction:
    """prod_{p | n} (1 + 1/p), exactly.  phi_dagger(1) = 1."""
    out = Fraction(1)
    for p, _ in factorize(n):
        out *= Fraction(p + 1, p)
    return out


def squarefree_divisors(n: int) -> tuple[int, ...]:
    """All squarefree divisors of n, ascending.  Length is 2^omega(n)."""
    divs = [1]
    for p in prime_divisors(n):
        divs += [d * p for d in divs]
    return tuple(sorted(divs))


def primes(limit: int) -> list[int]:
    """All primes <= limit by a bytearray sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(2, limit + 1) if sieve[i]]
