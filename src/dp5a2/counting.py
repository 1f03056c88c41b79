"""The two counting engines and their comparison.

count_naive      -- box search over the defining equations (oracle engine).
count_torsor     -- torsor count: the outer tuples (eta1, ..., eta6), with
                    the alpha1 of each counted in closed form by one
                    batched numpy kernel.
torsor_solutions -- the torsor tuples themselves, by plain enumeration.

Both engines count rational points of U (surface minus lines) of height
<= B.  The torsor engine loops eta1, ..., eta5 under conditions (6)-(8);
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

Each eta1 is one parallel work unit.  Within it, Python enumerates the
groups (eta2, ..., eta5) and their Moebius terms (_groups); batches of
groups holding about _CHUNK_ROWS = 2^18 eta6 x term rows go to one numpy
kernel (_sweep), which expands them to (group, eta6) pairs and then to
(pair, term) rows and reduces the counts with masks.  The kernel runs in
int64 up to B = _INT64_MAX_B = 2*10^9, the bound its docstring proves,
and on arrays of Python ints (dtype object) above it.

torsor_solutions filters equation_solutions by the reduced conditions; it
shares no code with count_torsor, so either checks the other.
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

from .arith import prime_divisors, ragged
from .surface import BRUTE_FORCE_MAX, ProjectivePoint, brute_force_points, in_U
from .torsor import TorsorPoint, coprimality_reduced, psi

__all__ = [
    "BijectionResult",
    "CountResult",
    "NAIVE_MAX_B",
    "count_naive",
    "count_torsor",
    "equation_solutions",
    "equation_solutions_box",
    "torsor_solutions",
    "verify_bijection",
]

NAIVE_MAX_B = BRUTE_FORCE_MAX

# The largest B at which the torsor kernel's int64 arithmetic cannot
# overflow (proved in _sweep); above it the kernel runs on Python ints.
_INT64_MAX_B = 2 * 10**9
# eta6 x Moebius-term rows per kernel call
_CHUNK_ROWS = 1 << 18


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

    The box points come from brute_force_points as one (N, 6) array, one
    row per point, and are classified by a single in_U call.  Every x0 = 0
    surface point in the box must lie on one of the four lines; the same
    mask verifies that, it is not assumed.  ProjectivePoints are built for
    the U rows only.  brute_force_points refuses B outside 1..NAIVE_MAX_B
    with ValueError.
    """
    t0 = time.perf_counter()
    rows = brute_force_points(B)
    mask = in_U(rows)
    stray = mask & (rows[:, 0] == 0)
    if stray.any():
        p = tuple(rows[stray.argmax()].tolist())
        raise RuntimeError(f"x0 = 0 surface point {p} is on no line")
    upts = frozenset(map(ProjectivePoint._make, rows[mask].tolist()))
    return CountResult(
        B=B,
        method="naive",
        count=len(upts),
        points=upts,
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# torsor engine
# ---------------------------------------------------------------------------


def _signed_divisors(primes) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree d made of the given distinct primes."""
    out = [(1, 1)]
    for p in primes:
        out += [(d * p, -mu) for d, mu in out]
    return out


def _moebius_terms(
    e1: int, e2: int, e3: int, e5: int, divs1: list[tuple[int, int]]
) -> list[tuple]:
    """The congruence data of the double Moebius sum for fixed eta1..eta5.

    One term per squarefree d1 | eta3 eta4 and d2 | eta3 eta5; divs1 holds
    the signed d1, (d1, mu(d1)), which depend on eta3 and eta4 only.  It counts
    the alpha1 with d1 | alpha1 and d2 | alpha2, i.e. with

        eta1 alpha1 = -rhs (mod m = eta2 d2)   and   alpha1 = 0 (mod d1),

    where rhs = eta4 eta5^2 eta6 is only known per eta6.  A prime of eta1
    divides none of eta4, eta5, eta6 under (6)-(8), so the first
    congruence has no solution when it divides d2: such d2 are left out,
    and eta1 is invertible mod m in the rest (inv).  The CRT for the
    moduli m and d1, with h = gcd(m, d1) and inv2 = (m/h)^-1 mod d1/h,
    joins the two into one class mod L = lcm(m, d1).  Each term is
    (mu(d1) mu(d2), m, inv, h, d1/h, inv2, L).
    """
    divs2 = _signed_divisors([p for p in prime_divisors(e3 * e5) if e1 % p])
    terms = []
    for d1, mu1 in divs1:
        for d2, mu2 in divs2:
            m = e2 * d2
            h = gcd(m, d1)
            dh = d1 // h
            terms.append(
                (mu1 * mu2, m, pow(e1, -1, m), h, dh, pow(m // h, -1, dh), m // h * d1)
            )
    return terms


def _groups(e1: int, B: int, thr: float | None) -> Iterator[tuple[tuple, list[tuple]]]:
    """The groups (eta2, ..., eta5) of stratum eta1 that reach the eta6 sweep.

    Loops eta2..eta5 under conditions (6)-(8) and the two eta6 bounds of
    the module docstring.  Yields, per group, its scalars

        (e6max, eta5, t45, k3, k5, a1cap, a2cap, eta2, eta1 eta2 eta3 eta4, b1)

    with t45 = eta4 eta5^2 (so rhs = t45 eta6), |x1| = k1 |a1| <= B giving
    a1cap, |x4| = k4 |a2| <= B giving a2cap, |x3| = k3 |eta6| |a1| and
    |x5| = k5 |eta6| |a2|, and b1 = (eta1^2 eta2^2 eta3^3 eta4^2 <= thr);
    and its _moebius_terms.
    """
    twoB = 2 * B
    e1sq = e1 * e1
    e2 = 0
    while True:
        e2 += 1
        base12 = e1sq * e2 * e2
        if base12 > B:
            break
        if gcd(e1, e2) != 1:
            continue
        e3 = 0
        while True:
            e3 += 1
            base123 = base12 * e3**3
            if base123 > B:
                break
            e4 = 0
            while True:
                e4 += 1
                base = base123 * e4 * e4
                if base > B:
                    break
                if gcd(e4, e1) != 1 or gcd(e4, e2) != 1:
                    continue
                e123 = e1 * e2 * e3
                e1234 = e123 * e4
                c1base = e1 * e2 * e3 * e3 * e4 * e4
                c2base = e3 * e4 * e4
                a1cap = B // (e1sq * e2 * e3 * e3 * e4)  # k1
                a2cap = B // (e1 * e2 * e2 * e3 * e3 * e4)  # k4
                b1 = thr is not None and base <= thr
                divs1 = _signed_divisors(prime_divisors(e3 * e4))
                e5 = 0
                while True:
                    e5 += 1
                    if base * e5 > B:
                        break
                    m1 = twoB // (c1base * e5 * e5)
                    if m1 == 0:
                        break
                    m2 = isqrt(twoB // (c2base * e5**3))
                    if m2 == 0:
                        break
                    if gcd(e5, e123) != 1:
                        continue
                    scalars = (
                        m1 if m1 < m2 else m2,
                        e5,
                        e4 * e5 * e5,
                        e1 * e3 * e4 * e5,
                        e2 * e3 * e4 * e5,
                        a1cap,
                        a2cap,
                        e2,
                        e1234,
                        b1,
                    )
                    yield scalars, _moebius_terms(e1, e2, e3, e5, divs1)


def _kernel_dtype(B: int):
    """int64 up to _INT64_MAX_B (the bound proved in _sweep), else object."""
    return np.int64 if B <= _INT64_MAX_B else object


def _isqrt_int64(x: np.ndarray) -> np.ndarray:
    """floor(sqrt(x)) for int64 0 <= x <= 2B^2 + 4B^(3/2), B <= _INT64_MAX_B.

    The float root is within 1e-6 of the true one there, so its floor is
    off by at most one, and one exact integer step each way corrects it;
    (s + 1)^2 stays below 2^63.
    """
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


_isqrt_object = np.frompyfunc(isqrt, 1, 1)


def _sweep(
    B: int, e1: int, groups: np.ndarray, terms: np.ndarray, nterms: np.ndarray
) -> tuple[int, int, int]:
    """The eta6 sweep of a batch of groups of stratum eta1, as arrays.

    groups holds one row of _groups scalars per group, terms the
    _moebius_terms rows of all groups in order, nterms how many each
    group has.  Returns (n, n_a, n_b1): the alpha1 count over eta6 > 0,
    its part with eta5 >= eta6, and its part with eta5 < eta6 in groups
    with b1 set.  ((eta6, a1, a2) -> (-eta6, -a1, -a2) maps solutions to
    solutions, so the caller doubles.)

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
        eta2 rad(eta3 eta4 eta5), so L <= B;
      * rhs is reduced mod m before the product with inv (< m^2 <= B^2);
        (r/h) inv2 < (m/h)(d1/h) <= L and the joined class is below L.
    2B^2 + 4B^(3/2) < 2^63 for B <= _INT64_MAX_B = 2 10^9 (8.0004e18
    there).  Above it the caller passes object arrays of Python ints and
    this same code runs exactly; only the isqrt helper differs.
    """
    isqrt_ = _isqrt_int64 if groups.dtype == np.int64 else _isqrt_object
    e6max, e5, t45, k3, k5, a1cap, a2cap, e2, e1234, b1 = groups.T
    two_e1 = 2 * e1
    # (group, eta6) pairs, 1 <= eta6 <= e6max, coprime to eta1 eta2 eta3 eta4
    g, e6 = ragged(e6max.astype(np.int64))
    e6 = (e6 + 1).astype(groups.dtype, copy=False)
    keep = np.gcd(e6, e1234[g]) == 1
    g, e6 = g[keep], e6[keep]
    rhs = t45[g] * e6
    # |x1|, |x3| <= B: |a1| <= a1max;  |x4|, |x5| <= B: |rhs + e1 a1| <= e2A2
    a1max = np.minimum(B // (k3[g] * e6), a1cap[g])
    e2A2 = e2[g] * np.minimum(B // (k5[g] * e6), a2cap[g])
    lo = np.maximum(-((e2A2 + rhs) // e1), -a1max)
    hi = np.minimum((e2A2 - rhs) // e1, a1max)
    # |x2| <= B: |q(a1)| <= C with q(x) = e1 x^2 + rhs x and C = e2 floor(B/e6);
    # q <= C is [ceil r-, floor r+] for the roots r- < r+ of q - C (C4 = 4 e1 C)
    C4 = 4 * e1 * e2[g] * (B // e6)
    rr = rhs * rhs
    s = isqrt_(rr + C4)
    lo = np.maximum(lo, -((rhs + s) // two_e1))
    hi = np.minimum(hi, (s - rhs) // two_e1)
    keep = lo <= hi
    g, e6, rhs, lo, hi = g[keep], e6[keep], rhs[keep], lo[keep], hi[keep]
    # q >= -C removes the open gap between the roots r1 < r2 of q + C
    # (there when D > 0): keep [lo, hi1] = [lo, floor r1] and [lo2, hi] =
    # [ceil r2, hi], each clipped to [lo, hi]
    D = rr[keep] - C4[keep]
    s = isqrt_(np.maximum(D, 0))
    s += s * s < D
    v = (-rhs - s) // two_e1
    gap = (D > 0) & (v < hi)
    hi1 = np.where(gap, np.maximum(v, lo - 1), hi)
    v = -((rhs - s) // two_e1)
    lo2 = np.where(gap, np.minimum(np.maximum(v, lo), hi + 1), hi + 1)
    # (pair, term) rows: the alpha1 of one residue class mod L in both pieces
    p, k = ragged(nterms[g])
    t = (np.cumsum(nterms) - nterms)[g][p] + k
    mu, m, inv, h, dh, inv2, L = (col[t] for col in terms.T)
    r = (-rhs[p] % m) * inv % m
    ok = r % h == 0
    r += m * ((-(r // h) * inv2) % dh)
    c = (mu * ok) * (
        (hi1[p] - r) // L - (lo[p] - 1 - r) // L
        + (hi[p] - r) // L - (lo2[p] - 1 - r) // L
    )
    a = (e5[g] >= e6)[p]
    in_b1 = b1.astype(bool)[g][p] & ~a
    return int(c.sum()), int(c[a].sum()), int(c[in_b1].sum())


def _batches(e1: int, B: int, thr: float | None) -> Iterator[tuple[list, list, list]]:
    """The groups of _groups as flat lists (scalars, terms, nterms), in
    batches of about _CHUNK_ROWS eta6 x term rows; a group is never split."""
    scalars: list = []
    terms: list[int] = []
    nterms: list[int] = []
    rows = 0
    for group, group_terms in _groups(e1, B, thr):
        scalars += group
        for t in group_terms:
            terms += t
        nterms.append(len(group_terms))
        rows += group[0] * len(group_terms)
        if rows >= _CHUNK_ROWS:
            yield scalars, terms, nterms
            scalars, terms, nterms, rows = [], [], [], 0
    if nterms:
        yield scalars, terms, nterms


def _count_stratum(e1: int, B: int, thr: float | None) -> tuple[int, int, int, int]:
    """Count torsor solutions with fixed eta1 (one parallel work unit).

    Runs _sweep over the _batches of the stratum, as arrays of
    _kernel_dtype(B), and returns (count, na, nb1, nb2) as Python ints.
    thr is the N_b1 threshold B/(log B)^A, or None for no split.
    """
    dtype = _kernel_dtype(B)
    n = n_a = n_b1 = 0
    for scalars, terms, nterms in _batches(e1, B, thr):
        c, a, b1 = _sweep(
            B,
            e1,
            np.array(scalars, dtype).reshape(len(nterms), -1),
            np.array(terms, dtype).reshape(-1, 7),
            np.array(nterms),
        )
        n += c
        n_a += a
        n_b1 += b1
    if thr is None:
        return 2 * n, 0, 0, 0
    return 2 * n, 2 * n_a, 2 * n_b1, 2 * (n - n_a - n_b1)


def _stratum_worker(args: tuple) -> tuple:
    return _count_stratum(*args)


def count_torsor(B: int, *, workers: int = 1, A: float | None = None) -> CountResult:
    """Count U-points of height <= B through the torsor parametrization.

    Work is partitioned by eta1 strata; results are reduced in eta1 order,
    so the counts are independent of the worker count.  The pool has
    min(workers, number of strata, os.cpu_count()) processes, so a large
    workers value never starts more processes than there are CPUs; with
    one, the strata run in this process.  Within a stratum
    the eta6 sweep runs as numpy arrays, in batches of about 2^18
    eta6 x Moebius-term rows, so memory stays bounded; the arrays are
    int64 up to B = 2*10^9, where that is proved not to overflow, and
    Python ints above it.  All counts are Python ints.

    With A set (B >= 3), each solution is also classed as N_a if
    eta5 >= |eta6|, else N_b1 if eta1^2 eta2^2 eta3^3 eta4^2 <= B/(log B)^A,
    else N_b2; the three always sum to the total.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if A is not None and B < 3:
        raise ValueError("split classification needs B >= 3 (log B > 1)")
    if A is not None and not math.isfinite(A):
        raise ValueError("A must be finite")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    thr = None
    if A is not None:
        try:
            thr = B / math.log(B) ** A
        except OverflowError:  # (log B)^A beyond the float range: no b1
            thr = 0.0
        except ZeroDivisionError:  # (log B)^A underflows to 0: all b1
            thr = math.inf
    jobs = [(e1, B, thr) for e1 in range(1, isqrt(B) + 1)]
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs > 1:
        with Pool(procs) as pool:
            parts = pool.map(_stratum_worker, jobs, chunksize=1)
    else:
        parts = [_stratum_worker(j) for j in jobs]
    count = na = nb1 = nb2 = 0
    for c, a, b1, b2 in parts:
        count += c
        na += a
        nb1 += b1
        nb2 += b2
    return CountResult(
        B=B,
        method="torsor",
        count=count,
        na=na if A is not None else None,
        nb1=nb1 if A is not None else None,
        nb2=nb2 if A is not None else None,
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
    """The naive points at B against the psi images of torsor_solutions(B).

    Equal sets and no duplicate image make psi a bijection at height B.
    """
    naive = count_naive(B)
    images = [psi(t) for t in torsor_solutions(B)]
    seen: set[ProjectivePoint] = set()
    dups: list[ProjectivePoint] = []
    for p in images:
        if p in seen:
            dups.append(p)
        seen.add(p)
    npts = naive.points or frozenset()
    only_naive = tuple(sorted(npts - seen))
    only_torsor = tuple(sorted(seen - npts))
    return BijectionResult(
        B=B,
        equal=not dups and not only_naive and not only_torsor,
        n_naive=naive.count,
        n_torsor=len(images),
        duplicate_images=tuple(dups),
        only_naive=only_naive,
        only_torsor=only_torsor,
    )


# ---------------------------------------------------------------------------
# enumeration: raw equation solutions (no coprimality) and torsor tuples
# ---------------------------------------------------------------------------


def torsor_solutions(B: int) -> Iterator[TorsorPoint]:
    """The torsor tuples with max|psi_i| <= B: one per point of U."""
    return (t for t in equation_solutions(B) if coprimality_reduced(t))


def equation_solutions(B: int) -> Iterator[TorsorPoint]:
    """All torsor-equation solutions with max|psi_i| <= B, no coprimality.

    The eta6 pruning bounds remain valid here: they follow from the
    equation and the height alone.
    """
    twoB = 2 * B
    for e1 in range(1, isqrt(B) + 1):
        e1sq = e1 * e1
        e2 = 0
        while True:
            e2 += 1
            base12 = e1sq * e2 * e2
            if base12 > B:
                break
            e3 = 0
            while True:
                e3 += 1
                base123 = base12 * e3**3
                if base123 > B:
                    break
                e4 = 0
                while True:
                    e4 += 1
                    base = base123 * e4 * e4
                    if base > B:
                        break
                    k1 = e1sq * e2 * e3 * e3 * e4
                    k4 = e1 * e2 * e2 * e3 * e3 * e4
                    e5 = 0
                    while True:
                        e5 += 1
                        if base * e5 > B:
                            break
                        m1 = twoB // (e1 * e2 * e3 * e3 * e4 * e4 * e5 * e5)
                        if m1 == 0:
                            break
                        m2 = isqrt(twoB // (e3 * e4 * e4 * e5**3))
                        if m2 == 0:
                            break
                        e6max = min(m1, m2)
                        k3 = e1 * e3 * e4 * e5
                        k5 = e2 * e3 * e4 * e5
                        g = gcd(e1, e2)
                        e2red = e2 // g
                        e1inv = pow(e1 // g, -1, e2red) if e2red > 1 else 0
                        for e6 in range(-e6max, e6max + 1):
                            if e6 == 0:
                                continue
                            rhs = e4 * e5 * e5 * e6
                            if rhs % g:
                                continue  # equation has no integer alpha solutions
                            a1max = min(B // k1, B // (k3 * abs(e6)))
                            if e2red == 1:
                                start, step = -a1max, 1
                            else:
                                r = (-(rhs // g) * e1inv) % e2red
                                start = -a1max + (r + a1max) % e2red
                                step = e2red
                            for a1 in range(start, a1max + 1, step):
                                a2 = -(rhs + e1 * a1) // e2
                                if k4 * abs(a2) > B:
                                    continue
                                if k5 * abs(e6) * abs(a2) > B:
                                    continue
                                if abs(e6 * a1 * a2) > B:
                                    continue
                                yield TorsorPoint(e1, e2, e3, e4, e5, e6, a1, a2)


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
