"""The two counting engines and their comparison.

count_naive      -- box search over the defining equations (oracle engine).
count_torsor     -- torsor count: the outer tuples (eta1, ..., eta6), with
                    the alpha1 of each counted in closed form by one
                    batched numpy kernel.
torsor_solutions -- the torsor tuples themselves, enumerated as numpy rows.

Both engines count rational points of U (surface minus lines) of height
<= B.  The torsor engine enumerates eta1, ..., eta5 under (6)-(8);
eta6 is bounded by the two necessary inequalities

    eta1*eta2*eta3^2*eta4^2*eta5^2*|eta6| <= 2B      (|x1 + x4| <= 2B)
    eta3*eta4^2*eta5^3*eta6^2          <= 2B         (|x3 + x5| <= 2B)

without which eta6 would be unbounded (alpha1 = 0 solutions).  For such
an outer tuple, alpha2 = -(rhs + eta1*alpha1)/eta2 with
rhs = eta4*eta5^2*eta6, and the height conditions on alpha1 are

    |alpha1| <= a1max, |alpha2| <= A2        (one interval each)
    |eta1*alpha1^2 + rhs*alpha1| <= eta2*floor(B/|eta6|)   (at most two)

whose integer endpoints come from isqrt, exactly.  The coprimality
conditions (4) and (5) on alpha1 and alpha2 are removed by a double
Moebius sum over squarefree d1 | eta3*eta4 and d2 | eta3*eta5, as in the
first summation of the paper; each term counts one residue class in
those intervals.  The work is thus one row per outer tuple and Moebius
term, not one per alpha1 candidate.

The work is built as numpy tables, level by level: the quadruples
(eta1, ..., eta4) under (8) (_quads), their groups (eta1, ..., eta5)
(_groups), and each group's Moebius terms (_terms), whose squarefree
divisors come from a smallest-prime-factor table built per call
(_divisor_table).  The quadruple table is cut into contiguous slices of
about _UNIT_ROWS = 2^18 eta6 x term rows (_units), the parallel work
units; each slice builds its groups and terms and runs one numpy kernel
(_sweep), which expands them to (group, eta6) pairs and then to
(pair, term) rows and reduces the counts with masks.  The kernel runs in
int64 up to B = _INT64_MAX_B = 2*10^9, the bound its docstring proves,
and on arrays of Python ints (dtype object) above it.

equation_solutions and torsor_solutions (the ones that meet the reduced
conditions) read the rows of one numpy enumeration, _equation_rows, which
shares no code with count_torsor beyond arith.ragged, so either checks the
other.  verify_bijection maps those rows by psi in one call.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from math import gcd, isqrt
from multiprocessing import Pool
from typing import Iterator

import numpy as np

from .arith import ragged
from .surface import BRUTE_FORCE_MAX, ProjectivePoint, brute_force_points, in_U
from .torsor import TorsorPoint, coprimality_reduced, psi

__all__ = [
    "BijectionResult",
    "CountResult",
    "NAIVE_MAX_B",
    "TORSOR_MAX_B",
    "count_naive",
    "count_torsor",
    "equation_solutions",
    "equation_solutions_box",
    "torsor_solutions",
    "verify_bijection",
]

NAIVE_MAX_B = BRUTE_FORCE_MAX

# The largest B at which the torsor tables, built in int64, cannot
# overflow (proved in _sweep); count_torsor refuses larger B.
TORSOR_MAX_B = 1 << 61
# The largest B at which the sweep's int64 arithmetic cannot overflow
# (proved in _sweep); above it the sweep runs on Python ints.
_INT64_MAX_B = 2 * 10**9
# eta6 x Moebius-term rows per work unit (one _sweep call)
_UNIT_ROWS = 1 << 18
# The largest B at which _equation_rows cannot overflow int64 (proved there)
_SOLUTIONS_MAX_B = 10**9


@dataclass
class CountResult:
    B: int
    method: str
    count: int
    na: int | None = None
    nb1: int | None = None
    nb2: int | None = None
    points: frozenset[ProjectivePoint] | None = None  # naive point set
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# naive engine
# ---------------------------------------------------------------------------


def count_naive(B: int) -> CountResult:
    """Count U-points of height <= B by brute force over the quadrics.

    The U points are the rows of _naive_rows(B); ProjectivePoints are
    built for them only.  brute_force_points refuses B outside
    1..NAIVE_MAX_B with ValueError.
    """
    t0 = time.perf_counter()
    upts = frozenset(map(ProjectivePoint._make, _naive_rows(B).tolist()))
    return CountResult(
        B=B,
        method="naive",
        count=len(upts),
        points=upts,
        seconds=time.perf_counter() - t0,
    )


def _naive_rows(B: int) -> np.ndarray:
    """The points of U of height <= B found by box search, as (N, 6) int64 rows.

    The box points come from brute_force_points as one array, one row per
    point, and are classified by a single in_U call.  Every x0 = 0 surface
    point in the box must lie on one of the four lines; the same mask
    verifies that, it is not assumed.
    """
    rows = brute_force_points(B)
    mask = in_U(rows)
    stray = mask & (rows[:, 0] == 0)
    if stray.any():
        p = tuple(rows[stray.argmax()].tolist())
        raise RuntimeError(f"x0 = 0 surface point {p} is on no line")
    return rows[mask]


# ---------------------------------------------------------------------------
# torsor engine
# ---------------------------------------------------------------------------


def _kernel_dtype(B: int):
    """int64 up to _INT64_MAX_B (the bound proved in _sweep), else object."""
    return np.int64 if B <= _INT64_MAX_B else object


def _iroot(x: np.ndarray, k: int) -> np.ndarray:
    """floor(x^(1/k)) for k = 2 or 3 and int64 x >= 0 with (x^(1/k) + 2)^k < 2^63.

    The float root is within 1e-6 of the true one there (a root below
    3.04e9, off by a few units of 2^-53 relative), so its floor is off by
    at most one, and one exact integer step each way corrects it; the
    steps square or cube at most floor(x^(1/k)) + 2.
    """
    s = (np.sqrt if k == 2 else np.cbrt)(x.astype(np.float64)).astype(np.int64)
    s -= s**k > x
    s += (s + 1) ** k <= x
    return s


_isqrt_object = np.frompyfunc(isqrt, 1, 1)


def _divisor_table(n: int) -> tuple[np.ndarray, ...]:
    """The signed squarefree divisors of every 1 <= x <= n, as a ragged table.

    Returns (rad, count, start, d, mu): the divisors of rad(x) are
    d[start[x] : start[x] + count[x]], count[x] = 2^omega(x), with mu the
    Moebius sign of each.  Built from a smallest-prime-factor sieve: the
    distinct primes of every x become columns P[j] (1 past omega(x)), and
    divisor number i of x is the product of the P[j][x] whose bit j is set
    in i.
    """
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p :: p], p, out=spf[p * p :: p])
    x = np.arange(n + 1, dtype=np.int64)
    x[0] = 1
    cols = []
    while (big := x > 1).any():
        p = np.where(big, spf[x], 1)
        cols.append(p)
        while (hit := big & (x % p == 0)).any():
            x[hit] //= p[hit]
    P = np.array(cols, dtype=np.int64).reshape(-1, n + 1)
    count = 1 << (P > 1).sum(axis=0)
    x, i = ragged(count)
    bits = (i >> np.arange(len(P))[:, None]) & 1
    d = np.where(bits == 1, P[:, x], 1).prod(axis=0)
    mu = 1 - 2 * (bits.sum(axis=0) & 1)
    return P.prod(axis=0), count, np.cumsum(count) - count, d, mu


def _quads(B: int) -> tuple[np.ndarray, ...]:
    """The quadruples (eta1, eta2, eta3, eta4) of height bound B, as four int64 columns.

    Those with base = eta1^2 eta2^2 eta3^3 eta4^2 <= B and gcd(eta1, eta2)
    = gcd(eta4, eta1 eta2) = 1 (conditions (8)), in lexicographic order:
    eta2 <= isqrt(B) // eta1, then eta3^3 <= B // (eta1 eta2)^2 and
    eta4^2 <= B // (eta1^2 eta2^2 eta3^3), each level one ragged arange.
    """
    r = isqrt(B)
    e1 = np.arange(1, r + 1, dtype=np.int64)
    q, e2 = ragged(r // e1)
    e1, e2 = e1[q], e2 + 1
    keep = np.gcd(e1, e2) == 1
    e1, e2 = e1[keep], e2[keep]
    q, e3 = ragged(_iroot(B // (e1 * e2) ** 2, 3))
    e1, e2, e3 = e1[q], e2[q], e3 + 1
    q, e4 = ragged(_iroot(B // ((e1 * e2) ** 2 * e3**3), 2))
    e1, e2, e3, e4 = e1[q], e2[q], e3[q], e4 + 1
    keep = np.gcd(e4, e1 * e2) == 1
    return e1[keep], e2[keep], e3[keep], e4[keep]


def _bounds(quads: tuple[np.ndarray, ...], B: int) -> tuple[np.ndarray, ...]:
    """(base, c1, c2, e5max) per quadruple.

    base = eta1^2 eta2^2 eta3^3 eta4^2, and c1 = eta1 eta2 eta3^2 eta4^2,
    c2 = eta3 eta4^2 are the coefficients of the two eta6 bounds
    c1 eta5^2 |eta6| <= 2B and c2 eta5^3 eta6^2 <= 2B.  eta5 runs to the
    least eta5max of the three breaks base eta5 <= B and those two at
    |eta6| = 1; each is monotone in eta5, so the least is exact.
    """
    e1, e2, e3, e4 = quads
    twoB = 2 * B
    c2 = e3 * e4 * e4
    c1 = e1 * e2 * e3 * c2
    base = e1 * e2 * e3 * c1
    e5max = np.minimum(B // base, np.minimum(_iroot(twoB // c1, 2), _iroot(twoB // c2, 3)))
    return base, c1, c2, e5max


def _groups(quads: tuple[np.ndarray, ...], B: int, cap: int, table: tuple) -> tuple:
    """The groups (eta1, ..., eta5) of the given quadruples that reach the eta6 sweep.

    eta5 <= eta5max of _bounds, coprime to eta1 eta2 eta3 (condition (7)).
    Returns (q, cols, sets, nterms): q the quadruple row of each group;
    cols its sweep columns

        (e6max, eta5, t45, k3, k5, a1cap, a2cap, eta1, eta2, eta1 eta2 eta3 eta4, b1)

    with t45 = eta4 eta5^2 (so rhs = t45 eta6), |x1| = k1 |a1| <= B giving
    a1cap, |x4| = k4 |a2| <= B giving a2cap, |x3| = k3 |eta6| |a1| and
    |x5| = k5 |eta6| |a2|, and b1 = (base <= cap); sets the values
    (rad eta3, v4, u3, eta5) whose divisors make the Moebius terms (see
    _terms), and nterms the number of those terms.
    """
    e1, e2, e3, e4 = quads
    rad, count = table[:2]
    twoB = 2 * B
    base, c1, c2, e5max = _bounds(quads, B)
    q, e5 = ragged(e5max)
    e5 += 1
    e123 = e1 * e2 * e3
    keep = np.gcd(e5, e123[q]) == 1
    q, e5 = q[keep], e5[keep]
    e5sq = e5 * e5
    e6max = np.minimum(twoB // (c1[q] * e5sq), _iroot(twoB // (c2[q] * e5sq * e5), 2))
    e34 = e3 * e4
    cols = (
        e6max,
        e5,
        e4[q] * e5sq,
        (e1 * e34)[q] * e5,
        (e2 * e34)[q] * e5,
        (B // (e1 * e123 * e34))[q],
        (B // (e2 * e123 * e34))[q],
        e1[q],
        e2[q],
        (e1 * e2 * e34)[q],
        (base <= cap)[q],
    )
    r3, r4 = rad[e3], rad[e4]
    v4 = r4 // np.gcd(r4, r3)
    u3 = r3 // np.gcd(r3, e1)
    sets = (r3[q], v4[q], u3[q], e5)
    nterms = (count[r3] * count[v4] * count[u3])[q] * count[e5]
    return q, cols, sets, nterms


def _inverse(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m for int64 arrays with 0 <= a < m and gcd(a, m) = 1 (0 where m = 1).

    The extended Euclid recurrences r' = r0 - q r1, t' = t0 - q t1 run on
    all entries at once; each step keeps only the entries with r1 != 0.
    Every remainder is at most m, and every coefficient, like q t1, at
    most 2m in absolute value.
    """
    out = np.zeros_like(m)
    i = np.arange(len(m))
    r0, r1 = m, a
    t0, t1 = np.zeros_like(m), np.ones_like(m)
    while len(i):
        done = r1 == 0
        out[i[done]] = t0[done]  # r0 = gcd = 1, so t0 a = 1 (mod m)
        live = ~done
        i, r0, r1, t0, t1 = i[live], r0[live], r1[live], t0[live], t1[live]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return out % m


def _terms(cols: tuple, sets: tuple, nterms: np.ndarray, table: tuple) -> np.ndarray:
    """The congruence data of the double Moebius sum, group after group.

    One term per squarefree d1 | eta3 eta4 and d2 | eta3 eta5.  It counts
    the alpha1 with d1 | alpha1 and d2 | alpha2, i.e. with

        eta1 alpha1 = -rhs (mod m = eta2 d2)   and   alpha1 = 0 (mod d1),

    where rhs = eta4 eta5^2 eta6 is only known per eta6.  A prime of eta1
    divides none of eta4, eta5, eta6 under (6)-(8), so the first
    congruence has no solution when it divides d2: such d2 are left out,
    and eta1 is invertible mod m in the rest.  With h = gcd(m, d1),
    m = h m' and d1 = h d' (m', d' coprime), the solutions are
    alpha1 = h y with h | rhs and

        y = -(rhs/h) w (mod K = m' d'),   w = d' ((eta1 d')^-1 mod m'),

    one class mod L = lcm(m, d1) = h K: y = 0 (mod d') and
    eta1 y = -rhs/h (mod m').

    The divisor sets factor over coprime parts: d1 = a b and d2 = c e with
    a | rad eta3, b | v4 = rad eta4 / gcd(rad eta4, rad eta3),
    c | u3 = rad eta3 / gcd(rad eta3, eta1) and e | eta5 (whose primes
    divide neither eta1 nor eta3, by (7)), so term number i of a group is
    i = ((ia nb + ib) nc + ic) ne + ie in mixed radix over the four
    ragged divisor lists of table.  Returns the rows
    (mu(d1) mu(d2), h, K, w, L) of a (5, terms) array.
    """
    _, count, start, d, mu = table
    g, i = ragged(nterms)
    sign = np.ones(len(g), np.int64)
    parts = []
    for s in reversed(sets):
        s = s[g]
        n = count[s]
        j = start[s] + i % n
        i = i // n
        parts.append(d[j])
        sign *= mu[j]
    e, c, b, a = parts
    d1 = a * b
    m = cols[8][g] * c * e
    h = np.gcd(m, d1)
    m1, d1 = m // h, d1 // h
    K = m1 * d1
    w = d1 * _inverse(cols[7][g] * d1 % m1, m1)
    return np.array([sign, h, K, w, h * K])


def _sweep(B: int, cols: tuple, terms: np.ndarray, nterms: np.ndarray) -> tuple[int, int, int]:
    """The eta6 sweep of a batch of groups, as arrays.

    cols are the _groups columns of the groups, terms the _terms rows of
    all their terms in order, nterms how many each group has.  Returns
    (n, n_a, n_b1): the alpha1 count over eta6 > 0, its part with
    eta5 >= eta6, and its part with eta5 < eta6 in groups with b1 set.
    ((eta6, a1, a2) -> (-eta6, -a1, -a2) maps solutions to solutions, so
    the caller doubles.)

    Interval endpoints use floor((a + sqrt D)/k) = (a + isqrt(D)) // k and
    floor((a - sqrt D)/k) = (a - ceil(sqrt D)) // k for integers a, D >= 0
    and k > 0, which hold because no multiple of k lies strictly between
    two consecutive integers.

    int64 safety.  Every tuple here has base eta5 <= B with
    base = eta1^2 eta2^2 eta3^3 eta4^2, so eta1 eta2 <= sqrt(B) and
    eta2 eta3 eta4 eta5 <= B; eta6 <= e6max gives
    eta1 eta2 eta3^2 eta4^2 eta5^2 eta6 <= 2B and eta3 eta4^2 eta5^3 eta6^2
    <= 2B.  Hence
      * k3 eta6, k5 eta6 and rhs = eta4 eta5^2 eta6 are at most 2B;
      * rhs^2 = eta3 eta4^2 eta5^3 eta6^2 * eta5/eta3 <= 2B eta5 <= 2B^2;
      * C4 = 4 eta1 eta2 floor(B/eta6) <= 4 B^(3/2), so the largest
        operand, rhs^2 + C4, is at most 2B^2 + 4B^(3/2);
      * |lo|, |hi| <= B and e2A2 <= eta2 a2cap <= B;
      * m = eta2 d2 <= eta2 eta3 eta5 <= B, and L = lcm(m, d1) divides
        eta2 rad(eta3 eta4 eta5), so h, K, w < L <= B;
      * rhs/h is reduced mod K before the product with w (< K^2 <= B^2),
        and the class h y is below L.
    2B^2 + 4B^(3/2) < 2^63 for B <= _INT64_MAX_B = 2 10^9 (8.0004e18
    there), and so is (isqrt + 2)^2 in _iroot.  Above it the caller passes
    object arrays of Python ints and this same code runs exactly; only the
    isqrt helper differs.

    The tables themselves are built in int64 for every B <= TORSOR_MAX_B
    = 2^61, where 2B <= 2^62.  Their operands are
      * the roots of _quads, _bounds and _groups, of x <= 2B, whose
        correction steps in _iroot square or cube at most 2^31 + 2 or
        1.7 10^6 (below 4.7e18);
      * base, c1, c2, e1234 <= B, and c1 eta5^2, c2 eta5^3 <= 2B by the
        choice of eta5max; t45 <= c1 eta5^2, and k3, k5 <= base eta5 <= B;
      * d1 <= eta3 eta4, m, K, w, L <= B as above, and eta1 d' <=
        eta1 eta3 eta4 <= B, the argument of _inverse, whose extended-Euclid
        remainders stay <= m' and coefficients <= 2m'.
    """
    isqrt_ = (lambda x: _iroot(x, 2)) if cols[0].dtype == np.int64 else _isqrt_object
    e6max, e5, t45, k3, k5, a1cap, a2cap, e1, e2, e1234, b1 = cols
    # (group, eta6) pairs, 1 <= eta6 <= e6max, coprime to eta1 eta2 eta3 eta4
    g, e6 = ragged(e6max.astype(np.int64))
    e6 = (e6 + 1).astype(e6max.dtype, copy=False)
    keep = np.gcd(e6, e1234[g]) == 1
    g, e6 = g[keep], e6[keep]
    f = e1[g]
    rhs = t45[g] * e6
    # |x1|, |x3| <= B: |a1| <= a1max;  |x4|, |x5| <= B: |rhs + e1 a1| <= e2A2
    a1max = np.minimum(B // (k3[g] * e6), a1cap[g])
    e2A2 = e2[g] * np.minimum(B // (k5[g] * e6), a2cap[g])
    lo = np.maximum(-((e2A2 + rhs) // f), -a1max)
    hi = np.minimum((e2A2 - rhs) // f, a1max)
    # |x2| <= B: |q(a1)| <= C with q(x) = e1 x^2 + rhs x and C = e2 floor(B/e6);
    # q <= C is [ceil r-, floor r+] for the roots r- < r+ of q - C (C4 = 4 e1 C)
    C4 = 4 * f * e2[g] * (B // e6)
    rr = rhs * rhs
    s = isqrt_(rr + C4)
    f2 = 2 * f
    lo = np.maximum(lo, -((rhs + s) // f2))
    hi = np.minimum(hi, (s - rhs) // f2)
    keep = lo <= hi
    g, e6, rhs, lo, hi, f2 = g[keep], e6[keep], rhs[keep], lo[keep], hi[keep], f2[keep]
    # q >= -C removes the open gap between the roots r1 < r2 of q + C
    # (there when D > 0): keep [lo, hi1] = [lo, floor r1] and [lo2, hi] =
    # [ceil r2, hi], each clipped to [lo, hi]
    D = rr[keep] - C4[keep]
    s = isqrt_(np.maximum(D, 0))
    s += s * s < D
    v = (-rhs - s) // f2
    gap = (D > 0) & (v < hi)
    hi1 = np.where(gap, np.maximum(v, lo - 1), hi)
    v = -((rhs - s) // f2)
    lo2 = np.where(gap, np.minimum(np.maximum(v, lo), hi + 1), hi + 1)
    # (pair, term) rows: the alpha1 = x (mod L) of the term (see _terms),
    # none unless h | rhs
    p, k = ragged(nterms[g])
    t = (np.cumsum(nterms) - nterms)[g][p] + k
    mu, h, K, w, L = np.take(terms, t, axis=1)
    rp = rhs[p]
    x = h * ((-(rp // h) % K) * w % K)
    # all of [lo, hi], less the gap (hi1, lo2) where there is one
    c = (hi[p] - x) // L - (lo[p] - 1 - x) // L
    j = np.flatnonzero(gap[p])
    pj, xj, Lj = p[j], x[j], L[j]
    c[j] -= (lo2[pj] - 1 - xj) // Lj - (hi1[pj] - xj) // Lj
    c *= mu * (rp % h == 0)
    a = (e5[g] >= e6)[p]
    in_b1 = b1.astype(bool)[g][p] & ~a
    return int(c.sum()), int(c[a].sum()), int(c[in_b1].sum())


def _count_unit(B: int, cap: int, quads: tuple, table: tuple) -> tuple[int, int, int]:
    """(n, n_a, n_b1) of _sweep over all groups of a slice of the quadruples.

    The tables are built in int64 and cast to _kernel_dtype(B) for the sweep.
    """
    _, cols, sets, nterms = _groups(quads, B, cap, table)
    terms = _terms(cols, sets, nterms, table)
    if _kernel_dtype(B) is object:
        cols = tuple(col.astype(object) for col in cols)
        terms = terms.astype(object)
    return _sweep(B, cols, terms, nterms)


# The divisor table in a pool process: the initializer hands it over once
# per process, where sending it with every unit would copy it thousands of times.
_worker_table: tuple | None = None


def _init_worker(table: tuple) -> None:
    global _worker_table
    _worker_table = table


def _unit_worker(job: tuple) -> tuple[int, int, int]:
    return _count_unit(*job, _worker_table)


def _cuts(w: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Contiguous slices [lo, hi) of rows with weights w >= 0.

    A slice begins at each row whose preceding weight sum has crossed a
    new multiple of size, so a slice weighs less than size plus the
    weight of its last row.
    """
    before = np.cumsum(w) - w
    b = [0, *(np.flatnonzero(np.diff(before // size)) + 1).tolist(), len(w)]
    return list(zip(b[:-1], b[1:]))


def _units(quads: tuple, B: int, table: tuple, procs: int) -> list[tuple[int, int]]:
    """The work units: contiguous slices of the quadruple table.

    The weight of a quadruple is its eta6 x term rows, the sum of
    e6max * nterms over its groups; the groups are built for that in
    chunks of about _UNIT_ROWS, so memory stays bounded.  A unit holds at
    most _UNIT_ROWS rows, or total / (4 procs) when that is smaller so the
    units spread over the processes, plus the rows of its last quadruple.
    """
    rows = np.zeros(len(quads[0]), np.int64)
    for lo, hi in _cuts(_bounds(quads, B)[3], _UNIT_ROWS):
        q, cols, _, nterms = _groups(tuple(c[lo:hi] for c in quads), B, 0, table)
        rows[lo:hi] = np.bincount(q, cols[0] * nterms, hi - lo)
    budget = _UNIT_ROWS
    if procs > 1:
        budget = min(budget, -(-int(rows.sum()) // (4 * procs)))
    return _cuts(rows, budget)


def count_torsor(B: int, *, workers: int = 1, A: float | None = None) -> CountResult:
    """Count U-points of height <= B through the torsor parametrization.

    The quadruples (eta1, ..., eta4) are cut into contiguous slices of
    about 2^18 eta6 x Moebius-term rows each (_units); each slice builds
    its group and term tables and runs one numpy sweep, so memory stays
    bounded.  The pool has min(workers, number of slices, os.cpu_count())
    processes, so a large workers value never starts more processes than
    there are CPUs; with one, the slices run in this process.  With more,
    the slices are made smaller so that each process gets several, and
    the results are reduced in slice order: the counts are independent of
    the worker count.  The sweep's arrays are int64 up to B = 2*10^9,
    where that is proved not to overflow, and Python ints above it; all
    counts are Python ints.  B above TORSOR_MAX_B = 2^61, where the int64
    tables would overflow, raises ValueError.

    With A set (B >= 3), each solution is also classed as N_a if
    eta5 >= |eta6|, else N_b1 if eta1^2 eta2^2 eta3^3 eta4^2 <= B/(log B)^A,
    else N_b2; the three always sum to the total.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if B > TORSOR_MAX_B:
        raise ValueError(f"B must be <= TORSOR_MAX_B = 2^61, got {B}")
    if A is not None and B < 3:
        raise ValueError("split classification needs B >= 3 (log B > 1)")
    if A is not None and not math.isfinite(A):
        raise ValueError("A must be finite")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    cap = 0  # no base is <= 0: without a split, b1 stays empty
    if A is not None:
        try:
            thr = B / math.log(B) ** A
        except OverflowError:  # (log B)^A beyond the float range: no b1
            thr = 0.0
        except ZeroDivisionError:  # (log B)^A underflows to 0: all b1
            thr = math.inf
        cap = B if thr >= B else math.floor(thr)  # base <= thr iff base <= cap
    table = _divisor_table(isqrt(2 * B))
    quads = _quads(B)
    procs = min(workers, os.cpu_count() or 1)
    jobs = [(B, cap, tuple(c[lo:hi] for c in quads)) for lo, hi in _units(quads, B, table, procs)]
    procs = min(procs, len(jobs))
    if procs > 1:
        with Pool(procs, _init_worker, (table,)) as pool:
            parts = pool.map(_unit_worker, jobs, chunksize=1)
    else:
        parts = [_count_unit(*job, table) for job in jobs]
    n, n_a, n_b1 = (sum(col) for col in zip(*parts))
    return CountResult(
        B=B,
        method="torsor",
        count=2 * n,
        na=2 * n_a if A is not None else None,
        nb1=2 * n_b1 if A is not None else None,
        nb2=2 * (n - n_a - n_b1) if A is not None else None,
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# bijection check
# ---------------------------------------------------------------------------


@dataclass
class BijectionResult:
    B: int
    equal: bool
    n_naive: int
    n_torsor: int
    duplicate_images: tuple[ProjectivePoint, ...]
    only_naive: tuple[ProjectivePoint, ...]
    only_torsor: tuple[ProjectivePoint, ...]

    def __bool__(self) -> bool:
        return self.equal

    def first_mismatch(self) -> ProjectivePoint | None:
        for group in (self.duplicate_images, self.only_naive, self.only_torsor):
            if group:
                return group[0]
        return None


def verify_bijection(B: int) -> BijectionResult:
    """The naive points at B against the psi images of the torsor tuples of B.

    Equal sets and no duplicate image make psi a bijection at height B.
    psi maps all the tuples in one call.  A row with every |x_i| <= B is
    compared as one int64 key, its digits x_i + B in base 2B + 1: the key
    is injective there, orders rows lexicographically, and is below
    (2B + 1)^6 < 2^63 for B <= NAIVE_MAX_B.  An image with some |x_i| > B
    is no naive point; it is reported in only_torsor, once.
    """
    naive = _naive_rows(B)
    images = psi(_torsor_rows(B))
    base = 2 * B + 1
    assert base**6 < 2**63, "row keys overflow int64"
    weights = base ** np.arange(5, -1, -1, dtype=np.int64)
    inside = (np.abs(images) <= B).all(axis=1)
    keys = np.sort((images[inside].astype(np.int64) + B) @ weights)
    naive_keys = np.sort((naive + B) @ weights)

    def points(k: np.ndarray) -> tuple[ProjectivePoint, ...]:
        return tuple(map(ProjectivePoint._make, (k[:, None] // weights % base - B).tolist()))

    def missing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The keys of a that are not in the sorted keys b."""
        b = np.append(b, base**6)  # above every key, so the lookup stays in range
        return a[b[np.searchsorted(b, a)] != a]

    dups = points(keys[1:][keys[1:] == keys[:-1]])
    only_naive = points(missing(naive_keys, keys))
    far = map(ProjectivePoint._make, images[~inside].tolist())
    only_torsor = tuple(sorted({*points(missing(keys, naive_keys)), *far}))
    return BijectionResult(
        B=B,
        equal=not dups and not only_naive and not only_torsor,
        n_naive=len(naive),
        n_torsor=len(images),
        duplicate_images=dups,
        only_naive=only_naive,
        only_torsor=only_torsor,
    )


# ---------------------------------------------------------------------------
# enumeration: raw equation solutions (no coprimality) and torsor tuples
# ---------------------------------------------------------------------------


def torsor_solutions(B: int) -> Iterator[TorsorPoint]:
    """The torsor tuples with max|psi_i| <= B: one per point of U."""
    return map(TorsorPoint._make, _torsor_rows(B).tolist())


def equation_solutions(B: int) -> Iterator[TorsorPoint]:
    """All torsor-equation solutions with max|psi_i| <= B, no coprimality.

    The rows of _equation_rows, in its lexicographic order.
    """
    return map(TorsorPoint._make, _equation_rows(B).tolist())


def _torsor_rows(B: int) -> np.ndarray:
    """The rows of _equation_rows(B) that satisfy conditions (4)-(8)."""
    rows = _equation_rows(B)
    return rows[coprimality_reduced(rows)]


def _cap(n: np.ndarray, k: int) -> np.ndarray:
    """An int64 cap >= floor(n^(1/k)) for int64 n >= 0, k = 2 or 3: the float root + 1.

    The float root is within 1 of the real one, so the cap is at least the
    integer root and below the real root + 2; callers test every value
    up to it.
    """
    return (np.sqrt if k == 2 else np.cbrt)(n.astype(np.float64)).astype(np.int64) + 1


def _equation_rows(B: int) -> np.ndarray:
    """All torsor-equation solutions with max|psi_i| <= B, as an (N, 8) int64 array.

    No coprimality is imposed.  The rows (eta1, ..., eta6, alpha1, alpha2)
    come in lexicographic order, built level by level, each a ragged
    arange over its parent rows up to a cap, then an exact test:

      * eta1..eta5 with x0 = base eta5 <= B (base = eta1^2 eta2^2 eta3^3
        eta4^2), c1 eta5^2 <= 2B and c2 eta5^3 <= 2B (c1 = eta1 eta2
        eta3^2 eta4^2, c2 = eta3 eta4^2);
      * eta6 != 0 with c1 eta5^2 |eta6| <= 2B and c2 eta5^3 eta6^2 <= 2B:
        |x1 + x4|, |x3 + x5| <= 2B, which follow from the equation and
        the height alone;
      * alpha1 with |x1| = k1 |alpha1| <= B and |x3| = k3 |eta6 alpha1|
        <= B, in the one class mod m = eta2/g (g = gcd(eta1, eta2) must
        divide rhs = eta4 eta5^2 eta6) where eta2 | rhs + eta1 alpha1;
        the inverse of eta1/g mod m comes from pow, once per (eta1, eta2);
      * alpha2 = -(rhs + eta1 alpha1) / eta2, kept when |x2|, |x4| =
        k4 |alpha2| and |x5| = k5 |eta6 alpha2| are <= B.

    Here k1 = eta1^2 eta2 eta3^2 eta4, k3 = eta1 eta3 eta4 eta5,
    k4 = eta1 eta2^2 eta3^2 eta4 and k5 = eta2 eta3 eta4 eta5.

    int64 safety.  The eta_i are >= 1, and each product of them formed
    here divides x0, c1 eta5^2 or c2 eta5^3 (k3 and k5 divide c1 eta5^2,
    the others base).  A cap is below its real root + 2, so a tested v^k
    or c v^k at a cap is below 54B, or 9B (2B)^(2/3) for c1 eta5^2; past
    the tests, base eta5, c1 eta5^2 and c2 eta5^3 are at most 2B, and so
    are rhs, k3 |eta6| and k5 |eta6|.  Then eta1 |alpha1| <= k1 |alpha1|
    <= B gives |alpha2| <= 3B, and the tested products k4 |alpha2|,
    k5 |eta6| |alpha2| and |eta6 alpha1| |alpha2| are at most 6B^2.  The
    class ((-rhs/g) mod m) times the inverse is below m^2 <= B.  All are
    below 2^63 for B <= _SOLUTIONS_MAX_B = 10^9; larger B is refused with
    ValueError.
    """
    if not 1 <= B <= _SOLUTIONS_MAX_B:
        raise ValueError(f"B must be in 1..{_SOLUTIONS_MAX_B}, got {B}")
    twoB = 2 * B
    r = isqrt(B)
    e1, e2 = ragged(r // np.arange(1, r + 1))  # eta1 eta2 <= isqrt(B)
    e1, e2 = e1 + 1, e2 + 1
    g = np.gcd(e1, e2)
    m = e2 // g
    inv = [pow(a, -1, b) if b > 1 else 0 for a, b in zip((e1 // g).tolist(), m.tolist())]
    inv = np.array(inv, dtype=np.int64)
    n = B // (e1 * e2) ** 2
    k, e3 = ragged(_cap(n, 3))  # k: the (eta1, eta2) row
    e3 += 1
    keep = e3**3 <= n[k]
    k, e3 = k[keep], e3[keep]
    n = n[k] // e3**3
    q, e4 = ragged(_cap(n, 2))
    e4 += 1
    keep = e4 * e4 <= n[q]
    q, e4 = q[keep], e4[keep]
    k, e3, x0max = k[q], e3[q], n[q] // (e4 * e4)  # B // base: x0 <= B iff eta5 <= it
    c2 = e3 * e4 * e4
    c1 = (e1 * e2)[k] * e3 * c2
    q, e5 = ragged(_cap(twoB // c2, 3))
    e5 += 1
    keep = (e5 <= x0max[q]) & (c1[q] * e5 * e5 <= twoB) & (c2[q] * e5**3 <= twoB)
    q, e5 = q[keep], e5[keep]
    k, e3, e4, c1, c2 = k[q], e3[q], e4[q], c1[q], c2[q]
    # eta6 = -cap, ..., -1, 1, ..., cap, with cap <= 2B // (c1 eta5^2)
    n = twoB // (c2 * e5**3)
    cap = np.minimum(twoB // (c1 * e5 * e5), _cap(n, 2))
    q, e6 = ragged(2 * cap)
    e6 -= cap[q]
    e6 += e6 >= 0
    keep = e6 * e6 <= n[q]
    q, e6 = q[keep], e6[keep]
    k, e3, e4, e5 = k[q], e3[q], e4[q], e5[q]
    e1, e2, g, m, inv = e1[k], e2[k], g[k], m[k], inv[k]
    rhs = e4 * e5 * e5 * e6
    e34 = e3 * e4
    a1max = np.minimum(B // (e1 * e1 * e2 * e3 * e34), B // (e1 * e34 * e5 * np.abs(e6)))
    # alpha1 = cls (mod m): the candidates lo, lo + m, ..., up to a1max
    cls = (-(rhs // g) % m) * inv % m
    lo = -a1max + (cls + a1max) % m
    q, i = ragged(np.where(rhs % g == 0, (a1max - lo) // m + 1, 0))
    a1 = lo[q] + m[q] * i
    e1, e2, e3, e4, e5, e6, e34 = e1[q], e2[q], e3[q], e4[q], e5[q], e6[q], e34[q]
    a2 = -(rhs[q] + e1 * a1) // e2
    aa2 = np.abs(a2)
    keep = (
        (e1 * e2 * e2 * e3 * e34 * aa2 <= B)
        & (e2 * e34 * e5 * np.abs(e6) * aa2 <= B)
        & (np.abs(e6 * a1) * aa2 <= B)
    )
    return np.stack([e1, e2, e3, e4, e5, e6, a1, a2], axis=1)[keep]


def equation_solutions_box(N: int) -> Iterator[TorsorPoint]:
    """All torsor-equation solutions with every coordinate in [-N, N]."""
    for e1 in range(1, N + 1):
        for e2 in range(1, N + 1):
            g = gcd(e1, e2)
            e2red = e2 // g
            e1inv = pow(e1 // g, -1, e2red) if e2red > 1 else 0
            for e4 in range(1, N + 1):
                for e5 in range(1, N + 1):
                    t45 = e4 * e5 * e5
                    for e6 in range(-N, N + 1):
                        if e6 == 0:
                            continue
                        rhs = t45 * e6
                        if rhs % g:
                            continue
                        if e2red == 1:
                            start, step = -N, 1
                        else:
                            r = (-(rhs // g) * e1inv) % e2red
                            start = -N + (r + N) % e2red
                            step = e2red
                        for a1 in range(start, N + 1, step):
                            a2 = -(rhs + e1 * a1) // e2
                            if abs(a2) > N:
                                continue
                            for e3 in range(1, N + 1):
                                yield TorsorPoint(e1, e2, e3, e4, e5, e6, a1, a2)
