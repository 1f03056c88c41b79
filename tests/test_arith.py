from fractions import Fraction

import pytest

from dp5a2.arith import (
    factorize,
    moebius,
    phi_dagger,
    phi_star,
    prime_divisors,
    primes,
    squarefree_divisors,
)


def test_factorize_basics():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(9973) == ((9973, 1),)
    assert factorize(2 * 3 * 5 * 7 * 11 * 13) == (
        (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    )


def test_factorize_reconstructs():
    for n in range(1, 2000):
        prod = 1
        for p, e in factorize(n):
            prod *= p**e
        assert prod == n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_moebius():
    vals = [moebius(n) for n in range(1, 13)]
    assert vals == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # Mertens sanity: partial sums stay small
    assert abs(sum(moebius(n) for n in range(1, 1000))) < 40


def test_phi_star():
    assert phi_star(1) == 1
    assert phi_star(2) == Fraction(1, 2)
    assert phi_star(12) == Fraction(1, 3)  # (1/2)(2/3)
    assert phi_star(8) == phi_star(2)  # depends on radical only
    assert isinstance(phi_star(30), Fraction)


def test_phi_dagger():
    # prod (1 + 1/p)
    assert phi_dagger(1) == 1
    assert phi_dagger(2) == Fraction(3, 2)
    assert phi_dagger(6) == Fraction(3, 2) * Fraction(4, 3)


def test_squarefree_divisors():
    assert squarefree_divisors(1) == (1,)
    assert squarefree_divisors(12) == (1, 2, 3, 6)
    assert squarefree_divisors(30) == (1, 2, 3, 5, 6, 10, 15, 30)
    for n in (7, 60, 360):
        divs = squarefree_divisors(n)
        assert len(divs) == 2 ** len(prime_divisors(n))
        assert all(moebius(d) != 0 for d in divs)
        assert list(divs) == sorted(divs)


def test_primes_sieve():
    assert primes(1) == []
    assert primes(2) == [2]
    assert primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes(10**4)) == 1229
