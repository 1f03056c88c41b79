"""Exact integer kernel: factorization and multiplicative functions.

Everything here is exact -- Python ints and fractions.Fraction (the
prime sieve marks a numpy bool array, but returns Python ints).  Floats
never enter a result; callers that want floats convert at their own
boundary.  ragged, iroot and cuts are the int64 numpy helpers of the
counting and main-term kernels; iroot starts from a float root and
corrects it to the exact one.

Conventions that the rest of the package leans on:
  * gcd(0, n) = |n|, so 0 is coprime only to 1 and -1.
  * phi_star(n)   = prod_{p | n} (1 - 1/p)      (so phi_star(n) = phi(n)/n)
  * phi_dagger(n) = prod_{p | n} (1 + 1/p)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "Factorization",
    "cuts",
    "factorize",
    "iroot",
    "moebius",
    "phi_dagger",
    "phi_star",
    "prime_divisors",
    "primes",
    "ragged",
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
    """All primes <= limit (as Python ints) by a numpy sieve."""
    if limit < 2:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and rank of each row when owner i has counts[i] rows.

    The ragged arange of the numpy kernels in counting and dirichlet.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def iroot(x: np.ndarray, k: int) -> np.ndarray:
    """floor(x^(1/k)) for int64 x >= 0 and k >= 1, exactly.

    Exact while (floor(x^(1/k)) + 2)^k < 2^63, and for k = 1 while
    x <= 2^53, where the float root, x itself, is exact.  For k >= 2 the
    float root (np.sqrt for k = 2, np.cbrt for k = 3, else the float
    power) is off by a few units of 2^-53 relative, and for k >= 4 the
    rounding of 1/k adds at most ln(x)/k < 11 more; the root is below
    3.04e9, and below 55,110 for k >= 4, so the float root is within 1e-5
    of the true one.  Its floor is then off by at most one, and one exact
    integer step each way corrects it; the steps raise at most
    floor(x^(1/k)) + 2 to the k-th power.
    """
    f = np.asarray(x, np.float64)
    s = (np.sqrt(f) if k == 2 else np.cbrt(f) if k == 3 else f ** (1.0 / k)).astype(np.int64)
    s -= s**k > x
    s += (s + 1) ** k <= x
    return s


def cuts(w: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Contiguous slices [lo, hi) of rows with weights w >= 0.

    A slice begins at each row whose preceding weight sum has crossed a
    new multiple of size, so a slice weighs less than size plus the
    weight of its last row.
    """
    before = np.cumsum(w) - w
    b = [0, *(np.flatnonzero(np.diff(before // size)) + 1).tolist(), len(w)]
    return list(zip(b[:-1], b[1:]))
