"""The arithmetic density theta, its Dirichlet series, and the main term.

theta(eta) for eta = (eta1, eta2, eta3, eta4) is an exact rational
multiple of 1/zeta(2); values are carried symbolically as ZetaRational
so every identity in this module can be tested with exact equality.

theta has two derivations that share no code: the staged sums
theta0 -> theta1a -> theta2a of the counting argument (Moebius sums over
alpha1, then alpha2), and the Euler product of the local weights over
the primes dividing eta1 eta2 eta3 eta4, which is what theta() returns.

The main-term sums use that theta(eta)/(eta1 eta2 eta3 eta4) depends on
eta only through the key (eta1 eta2 eta4, eta3).  Python walks the eta
triples (eta1, eta2, eta3); one numpy pass per batch of triples expands
them to their eta4 ranges, keeps the pairwise-coprime rows and counts
each key (_key_counts).  Each sum is then over the distinct keys, of
multiplicity x summand, with the local weights computed once per key:
the exact route adds integer numerators per denominator and builds one
Fraction over the lcm of the denominators, so B must be an integer; the
float route adds the same terms as floats.  delta_k, and summatory_M
with via="n", stay pure Python and share no enumeration with the key
route, which they check.

Delta_k(n) sums theta(eta)/(eta1 eta2 eta3 eta4) over eta with
eta1^k1 eta2^k2 eta3^k3 eta4^k4 = n.  Its Dirichlet series factors as
prod_p F_{k,p}(s); the per-prime closed form is implemented here along
with a brute-force truncated oracle for it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .arith import moebius, phi_star, prime_divisors, ragged, squarefree_divisors

__all__ = [
    "K_CUT",
    "K_MAIN",
    "MainTerm",
    "MainTermIdentityError",
    "ZetaRational",
    "delta_k",
    "e_star_sum",
    "euler_reference_factor",
    "g_k_zero_factor",
    "local_factor",
    "local_factor_truncated",
    "predicted_main_term",
    "summatory_M",
    "theta",
    "theta0",
    "theta1a",
    "theta2a",
]

K_MAIN = (2, 2, 3, 2)
K_CUT = (3, 3, 4, 2)

ZETA2_INV = 6.0 / math.pi**2

# The largest t at which the key kernel's int64 arithmetic cannot overflow
# (proved in _key_counts); above it the kernel runs on Python ints.
_INT64_MAX_T = 3 * 10**9
# eta4 rows per kernel batch
_CHUNK_ROWS = 1 << 18


@dataclass(frozen=True)
class ZetaRational:
    """A number q * zeta(2)^(-zpow) with q rational, compared exactly."""

    coeff: Fraction
    zpow: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            object.__setattr__(self, "zpow", 0)

    def __float__(self) -> float:
        return float(self.coeff) * ZETA2_INV**self.zpow

    def __add__(self, other: "ZetaRational") -> "ZetaRational":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.zpow != other.zpow:
            raise ValueError("cannot add different zeta powers exactly")
        return ZetaRational(self.coeff + other.coeff, self.zpow)

    def __sub__(self, other: "ZetaRational") -> "ZetaRational":
        return self + ZetaRational(-other.coeff, other.zpow)

    def __mul__(self, other):
        if isinstance(other, ZetaRational):
            return ZetaRational(self.coeff * other.coeff, self.zpow + other.zpow)
        return ZetaRational(self.coeff * Fraction(other), self.zpow)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ZetaRational":
        return ZetaRational(self.coeff / Fraction(other), self.zpow)

    def __bool__(self) -> bool:
        return self.coeff != 0


def _eta_coprime(eta: tuple[int, int, int, int]) -> bool:
    """Pairwise coprimality of eta1, eta2, eta4 (the eta-only condition)."""
    e1, e2, _, e4 = eta
    return gcd(e1, e2) == 1 and gcd(e1, e4) == 1 and gcd(e2, e4) == 1


@lru_cache(maxsize=None)
def theta0(eta: tuple[int, int, int, int]) -> Fraction:
    """Moebius-inverted density of the alpha1 congruence classes."""
    e1, e2, e3, e4 = eta
    e14 = e1 * e4
    total = Fraction(0)
    for k in squarefree_divisors(e3):
        if gcd(k, e14) != 1:
            continue
        total += Fraction(moebius(k), k) / phi_star(gcd(e3, k * e2))
    return total * phi_star(e3 * e4)


def _p2_correction(n: int) -> Fraction:
    """prod over p | n of (1 - 1/p^2)^(-1), as one Fraction."""
    num = den = 1
    for p in prime_divisors(n):
        num *= p * p
        den *= p * p - 1
    return Fraction(num, den)


def theta1a(eta: tuple[int, int, int, int]) -> ZetaRational:
    e1, e2, e3, e4 = eta
    coeff = theta0(eta) * phi_star(e1 * e2 * e3) * _p2_correction(e1 * e2 * e3 * e4)
    return ZetaRational(coeff, 1)


def theta2a(eta: tuple[int, int, int, int]) -> ZetaRational:
    e1, e2, e3, e4 = eta
    return theta1a(eta) * phi_star(e1 * e2 * e3 * e4)


def _weight(e124: int, e3: int) -> tuple[int, int]:
    """zeta(2) * theta(eta) as an unreduced (num, den), from e124 = eta1 eta2 eta4.

    The Euler product of the local weights, for pairwise-coprime eta1,
    eta2, eta4: then p divides at most one of them, and the weight of
    p | eta1 eta2 eta3 eta4 is (p-1)/(p+1) if p does not divide eta3,
    else (p-1)(p-2)/(p(p+1)) or (p-1)^2/(p(p+1)) as p divides none or one
    of eta1, eta2, eta4.
    """
    num = den = 1
    for p in prime_divisors(e124 * e3):
        if e3 % p:
            num *= p - 1
            den *= p + 1
        else:
            num *= (p - 1) * (p - 2 if e124 % p else p - 1)
            den *= p * (p + 1)
    return num, den


@lru_cache(maxsize=None)
def _theta_coeff(eta: tuple[int, int, int, int]) -> Fraction:
    """zeta(2) * theta(eta): zero unless eta1, eta2, eta4 are pairwise coprime."""
    if not _eta_coprime(eta):
        return Fraction(0)
    e1, e2, e3, e4 = eta
    return Fraction(*_weight(e1 * e2 * e4, e3))


def theta(eta: tuple[int, int, int, int]) -> ZetaRational:
    """Closed product form; zero unless eta1, eta2, eta4 pairwise coprime."""
    return ZetaRational(_theta_coeff(eta), 1)


# ---------------------------------------------------------------------------
# Delta, M, and the main term
# ---------------------------------------------------------------------------


def _exponents(k) -> tuple[int, int, int, int]:
    """k as a tuple of four ints >= 1, else ValueError (a zero or negative
    k_j leaves the eta loops unbounded)."""
    try:
        ks = tuple(operator.index(kj) for kj in k)
    except TypeError:
        raise ValueError(f"k must hold four ints >= 1, got {k!r}") from None
    if len(ks) != 4 or min(ks) < 1:
        raise ValueError(f"k must hold four ints >= 1, got {k!r}")
    return ks


def delta_k(k: tuple[int, int, int, int], n: int) -> ZetaRational:
    """Sum of theta(eta)/(eta1 eta2 eta3 eta4) over eta with prod eta_j^k_j = n.

    Pure Python, sharing no enumeration with summatory_M's key route.
    """
    n = operator.index(n)
    k = _exponents(k)
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    e1 = 0
    while True:
        e1 += 1
        p1 = e1 ** k[0]
        if p1 > n:
            break
        if n % p1:
            continue
        n1 = n // p1
        e2 = 0
        while True:
            e2 += 1
            p2 = e2 ** k[1]
            if p2 > n1:
                break
            if n1 % p2:
                continue
            n2 = n1 // p2
            e3 = 0
            while True:
                e3 += 1
                p3 = e3 ** k[2]
                if p3 > n2:
                    break
                if n2 % p3:
                    continue
                n3 = n2 // p3
                e4 = round(n3 ** (1.0 / k[3]))
                for c in (e4 - 1, e4, e4 + 1):
                    if c >= 1 and c ** k[3] == n3:
                        total += _theta_coeff((e1, e2, e3, c)) / (e1 * e2 * e3 * c)
    return ZetaRational(total, 1)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 0 and k >= 1, exactly."""
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    if n < 2:
        return n
    # integer Newton from above: r stays >= the root until it stops falling
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _batches(k: tuple[int, int, int, int], t: int, shell: bool):
    """The eta4 ranges of the set, per eta triple, in batches of flat lists.

    Python walks the triples (eta1, eta2, eta3) with gcd(eta1, eta2) = 1;
    the eta4 of the set are lo < eta4 <= hi: the sublevel set of k, or
    with shell its part outside the sublevel set of k + (1, 1, 1, 0).
    Yields (eta1 eta2, eta3, lo, hi) as four lists once they hold
    _CHUNK_ROWS eta4 or more; that is checked after each pair (eta1, eta2),
    so a batch exceeds _CHUNK_ROWS by at most the eta4 of one pair (about
    83,000 for K_MAIN at t = 10^9, from the pair (1, 1)).
    """
    k1, k2, k3, k4 = k
    root = isqrt if k4 == 2 else (lambda n: _iroot(n, k4))
    e12s: list[int] = []
    e3s: list[int] = []
    los: list[int] = []
    his: list[int] = []
    rows = 0
    e1 = 0
    while True:
        e1 += 1
        p1 = e1**k1
        if p1 > t:
            break
        e2 = 0
        while True:
            e2 += 1
            p2 = p1 * e2**k2
            if p2 > t:
                break
            if gcd(e1, e2) != 1:
                continue
            e12 = e1 * e2
            e3 = 0
            while True:
                e3 += 1
                p3 = p2 * e3**k3
                if p3 > t:
                    break
                hi = root(t // p3)
                lo = root(t // (p3 * e12 * e3)) if shell else 0
                if lo < hi:
                    e12s.append(e12)
                    e3s.append(e3)
                    los.append(lo)
                    his.append(hi)
                    rows += hi - lo
            if rows >= _CHUNK_ROWS:
                yield e12s, e3s, los, his
                e12s, e3s, los, his, rows = [], [], [], [], 0
    if his:
        yield e12s, e3s, los, his


def _key_dtype(t: int):
    """int64 up to _INT64_MAX_T (the bound proved in _key_counts), else object."""
    return np.int64 if t <= _INT64_MAX_T else object


def _key_counts(k: tuple[int, int, int, int], t: int, shell: bool = False):
    """The distinct keys (eta1 eta2 eta4, eta3) of the coprime eta, with multiplicities.

    theta(eta)/(eta1 eta2 eta3 eta4) depends on eta only through this key,
    so a sum over the set is a sum over keys of multiplicity x summand.
    Python walks the eta triples (_batches); each batch is expanded to
    one row per eta4 (a ragged arange), filtered by gcd(eta4, eta1 eta2)
    = 1, which with gcd(eta1, eta2) = 1 is the pairwise coprimality of
    eta1, eta2, eta4, and reduced to its distinct key codes
    e124 * M + eta3 (M = floor(t^(1/k3)) + 1 > eta3) by np.unique; the
    batches are merged at the end.  Returns three arrays (e124, e3, mult),
    sorted by code.  The rank is cast to the batch dtype, so the object
    route never mixes numpy int64 scalars into its Python ints.

    int64 safety.  Every k_j >= 1 and eta_j >= 1, so
    eta1 eta2 eta3 eta4 <= prod eta_j^k_j <= t: every eta_j, eta1 eta2,
    e124, lo and hi are at most t.  A multiplicity is at most the number
    of pairs (eta1, eta2) with eta1 eta2 | e124, below t^2.  A code is below
    (e124 + 1) M <= (t + 1)^2 < 2^63 for t <= _INT64_MAX_T = 3 10^9
    (9.000000006e18 there).  Above it the arrays hold Python ints
    (dtype object) and this same code runs exactly.
    """
    dtype = _key_dtype(t)
    M = _iroot(max(t, 0), k[2]) + 1
    codes, mults = [], []
    for e12s, e3s, los, his in _batches(k, t, shell):
        lo = np.array(los, dtype)
        owner, rank = ragged((np.array(his, dtype) - lo).astype(np.int64))
        e12 = np.array(e12s, dtype)[owner]
        e4 = lo[owner] + (rank + 1).astype(dtype)
        keep = np.gcd(e4, e12) == 1
        code = e12[keep] * e4[keep] * M + np.array(e3s, dtype)[owner][keep]
        code, mult = np.unique(code, return_counts=True)
        codes.append(code)
        mults.append(mult.astype(dtype))
    if not codes:
        empty = np.zeros(0, dtype)
        return empty, empty, empty
    code, inv = np.unique(np.concatenate(codes), return_inverse=True)
    mult = np.zeros(len(code), dtype)
    np.add.at(mult, inv, np.concatenate(mults))
    return code // M, code % M, mult


def _key_terms(k: tuple[int, int, int, int], t: int, shell: bool = False):
    """(multiplicity x num, den) of zeta(2) theta(eta)/(eta1 eta2 eta3 eta4), per key.

    _weight runs once per distinct key of _key_counts.
    """
    for e124, e3, mult in zip(*(a.tolist() for a in _key_counts(k, t, shell))):
        num, den = _weight(e124, e3)
        yield mult * num, den * e124 * e3


def _exact_sum(terms) -> Fraction:
    """Numerators summed per denominator, then one Fraction over their lcm."""
    by_den: dict[int, int] = {}
    for num, den in terms:
        by_den[den] = by_den.get(den, 0) + num
    lcm = math.lcm(*by_den)
    return Fraction(sum(num * (lcm // den) for den, num in by_den.items()), lcm)


def summatory_M(
    k: tuple[int, int, int, int], t: int, *, exact: bool = True, via: str = "eta"
):
    """M_k(t) = sum_{n <= t} Delta_k(n).

    via="eta" sums over the distinct keys of the eta with
    prod eta_j^k_j <= t (_key_counts); via="n" sums delta_k(n), which is
    much slower, pure Python, and exists as an independent cross-check.
    exact=True returns a ZetaRational, summed over one common denominator;
    exact=False sums the same terms as floats, for large t.  k must hold
    four ints >= 1.
    """
    t = operator.index(t)
    k = _exponents(k)
    if via == "n":
        total = ZetaRational(Fraction(0), 1)
        for n in range(1, t + 1):
            total = total + delta_k(k, n)
        return total if exact else float(total)
    if via != "eta":
        raise ValueError(f"unknown M mode {via!r}")
    if exact:
        return ZetaRational(_exact_sum(_key_terms(k, t)), 1)
    acc = 0.0
    for num, den in _key_terms(k, t):
        acc += num / den
    return acc * ZETA2_INV


def e_star_sum(B: int) -> ZetaRational:
    """Sum of theta(eta)/(eta1 eta2 eta3 eta4) over the shell E*(B), exactly.

    E*(B) keeps eta with eta1^2 eta2^2 eta3^3 eta4^2 <= B but
    eta1^3 eta2^3 eta3^4 eta4^2 > B.  Since the second base is the first
    times eta1 eta2 eta3, the shell is exactly the set difference of the
    two sublevel sets, and this sum equals M_(2,2,3,2) - M_(3,3,4,2).  For
    each eta triple the shell is one range of eta4:
    isqrt(B // (eta1^3 eta2^3 eta3^4)) < eta4 <= isqrt(B // (eta1^2 eta2^2 eta3^3)).
    """
    B = operator.index(B)
    return ZetaRational(_exact_sum(_key_terms(K_MAIN, B, shell=True)), 1)


class MainTermIdentityError(ArithmeticError):
    """The two exact routes to M_(2,2,3,2)(B) - M_(3,3,4,2)(B) disagree."""


@dataclass(frozen=True)
class MainTerm:
    B: int
    omega: float
    m_main: float
    m_cut: float
    value: float


def predicted_main_term(B: int, omega: float, *, cross_check: bool | None = None) -> MainTerm:
    """omega * B * (M_(2,2,3,2)(B) - M_(3,3,4,2)(B)).

    cross_check (default for B <= 10^4) re-derives the difference as the
    direct shell sum and raises MainTermIdentityError unless the two agree
    exactly.
    """
    B = operator.index(B)
    if B < 1:
        raise ValueError("B must be >= 1")
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if cross_check is None:
        cross_check = B <= 10**4
    if cross_check:
        m1 = summatory_M(K_MAIN, B)
        m2 = summatory_M(K_CUT, B)
        diff = m1 - m2
        shell = e_star_sum(B)
        if diff != shell:
            raise MainTermIdentityError(
                f"main-term identity failed at B={B}: {diff} != {shell}"
            )
        return MainTerm(B, omega, float(m1), float(m2), omega * B * float(diff))
    m1f = summatory_M(K_MAIN, B, exact=False)
    m2f = summatory_M(K_CUT, B, exact=False)
    return MainTerm(B, omega, m1f, m2f, omega * B * (m1f - m2f))


# ---------------------------------------------------------------------------
# per-prime factors of the Dirichlet series
# ---------------------------------------------------------------------------


def _exact_s(k: tuple[int, int, int, int], s) -> bool:
    if isinstance(s, int):
        return True
    if isinstance(s, Fraction):
        return all((kj * s).denominator == 1 for kj in k)
    return False


def local_factor(k: tuple[int, int, int, int], p: int, s):
    """Closed form of F_{k,p}(s).

    Exact Fraction when every k_j*s is an integer (s may be a Fraction),
    float otherwise.  Raises for s at or left of the pole line
    (any k_j*s + 1 <= 0).
    """
    if any(kj * float(s) + 1 <= 0 for kj in k):
        raise ValueError("s is at or beyond the abscissa of the pole")
    if _exact_s(k, s):
        one = Fraction(1)
        T = [(1 - Fraction(1, p)) / (p ** int(kj * s + 1) - 1) for kj in k]
        u = Fraction(1, p)
    else:
        one = 1.0
        T = [(1.0 - 1.0 / p) / (p ** (kj * s + 1.0) - 1.0) for kj in k]
        u = 1.0 / p
    t124 = T[0] + T[1] + T[3]
    return (one - u) * ((one + u) + t124 + T[2] * ((one - 2 * u) + t124))


def g_k_zero_factor(k: tuple[int, int, int, int], p: int) -> Fraction:
    """F_{k,p}(0) * (1 - 1/p)^4: the per-prime value of the series residue."""
    return local_factor(k, p, 0) * (1 - Fraction(1, p)) ** 4


def euler_reference_factor(p: int) -> Fraction:
    """(1 - 1/p)^5 (1 + 5/p + 1/p^2), the closed per-prime residue value."""
    u = Fraction(1, p)
    return (1 - u) ** 5 * (1 + 5 * u + u * u)


def local_factor_truncated(
    k: tuple[int, int, int, int], p: int, s, max_exp: int = 12
) -> tuple[float, float]:
    """Brute-force F_{k,p}(s) from theta on p-power tuples, with tail bound.

    theta(eta) = prod_q w_q over the local weights; the p-factor is
    (1 - 1/p^2) * sum over exponent tuples of (zeta(2) theta) at
    (p^a, p^b, p^c, p^d) times p^{-sum (k_j s + 1) e_j}.  Truncating all
    exponents at max_exp leaves a geometric tail, bounded crudely here.
    """
    sf = float(s)
    if sf <= 0:
        raise ValueError("the brute-force sum needs s > 0")
    total = 0.0
    for a in range(max_exp + 1):
        for b in range(max_exp + 1):
            for d in range(max_exp + 1):
                if (a > 0) + (b > 0) + (d > 0) > 1:
                    continue  # theta vanishes: eta1, eta2, eta4 share p
                for c in range(max_exp + 1):
                    w = _theta_coeff((p**a, p**b, p**c, p**d))
                    if not w:
                        continue
                    ex = (k[0] * sf + 1) * a + (k[1] * sf + 1) * b
                    ex += (k[2] * sf + 1) * c + (k[3] * sf + 1) * d
                    total += float(w) * p**-ex
    total *= 1.0 - 1.0 / (p * p)
    min_exp = min(kj * sf + 1 for kj in k)
    tail = 64.0 * p ** (-min_exp * (max_exp + 1))
    return total, tail
