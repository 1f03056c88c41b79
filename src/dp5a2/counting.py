"""The two counting engines and their comparison.

count_naive      -- box search over the defining equations (oracle engine).
count_torsor     -- torsor count: a loop over (eta1, ..., eta6), with the
                    alpha1 of each such tuple counted in closed form.
torsor_solutions -- the torsor tuples themselves, by plain enumeration.

Both engines count rational points of U (surface minus lines) of height
<= B.  The torsor engine loops eta1, ..., eta5 and eta6 under conditions
(6)-(8); eta6 is bounded by the two necessary inequalities

    eta1*eta2*eta3^2*eta4^2*eta5^2*|eta6| <= 2B      (|x1 + x4| <= 2B)
    eta3*eta4^2*eta5^3*eta6^2          <= 2B         (|x3 + x5| <= 2B)

without which the eta6 loop would be unbounded (alpha1 = 0 solutions).
For such an outer tuple, alpha2 = -(rhs + eta1*alpha1)/eta2 with
rhs = eta4*eta5^2*eta6, and the height conditions on alpha1 are

    |alpha1| <= a1max, |alpha2| <= A2        (one interval each)
    |eta1*alpha1^2 + rhs*alpha1| <= eta2*floor(B/|eta6|)   (at most two)

whose integer endpoints come from isqrt, exactly.  The coprimality
conditions (4) and (5) on alpha1 and alpha2 are removed by a double
Moebius sum over squarefree d1 | eta3*eta4 and d2 | eta3*eta5, as in the
first summation of the paper; each term counts one residue class in
those intervals.  The work is thus one step per outer tuple, not one per
alpha1 candidate.  torsor_solutions filters equation_solutions by the
reduced conditions; it shares no code with count_torsor, so either checks
the other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import gcd, isqrt
from multiprocessing import Pool
from typing import Iterator

from .arith import moebius, squarefree_divisors
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


def _moebius_terms(e1: int, e2: int, e3: int, e4: int, e5: int) -> list[tuple]:
    """The congruence data of the double Moebius sum for fixed eta1..eta5.

    One term per squarefree d1 | eta3 eta4 and d2 | eta3 eta5.  It counts
    the alpha1 with d1 | alpha1 and d2 | alpha2, i.e. with

        eta1 alpha1 = -rhs (mod m = eta2 d2)   and   alpha1 = 0 (mod d1),

    where rhs = eta4 eta5^2 eta6 is only known per eta6.  A prime of eta1
    divides none of eta4, eta5, eta6 under (6)-(8), so the first
    congruence has no solution when it divides d2: such terms are left
    out, and eta1 is invertible mod m in the rest (inv).  The CRT for the
    moduli m and d1, with h = gcd(m, d1) and inv2 = (m/h)^-1 mod d1/h,
    joins the two into one class mod L = lcm(m, d1).  Each term is
    (mu(d1) mu(d2), m, inv, h, d1/h, inv2, L).
    """
    terms = []
    divs2 = [
        (d2, moebius(d2)) for d2 in squarefree_divisors(e3 * e5) if gcd(e1, d2) == 1
    ]
    for d1 in squarefree_divisors(e3 * e4):
        mu1 = moebius(d1)
        for d2, mu2 in divs2:
            m = e2 * d2
            h = gcd(m, d1)
            dh = d1 // h
            terms.append(
                (mu1 * mu2, m, pow(e1, -1, m), h, dh, pow(m // h, -1, dh), m // h * d1)
            )
    return terms


def _count_stratum(e1: int, B: int, thr: float | None) -> tuple[int, int, int, int]:
    """Count torsor solutions with fixed eta1 (one parallel work unit).

    Loops over the outer tuples (eta1..eta6) that pass conditions (6)-(8)
    and counts their alpha1 in closed form; returns (count, na, nb1, nb2).
    thr is the N_b1 threshold B/(log B)^A, or None for no split.

    Interval endpoints use floor((a + sqrt D)/k) = (a + isqrt(D)) // k and
    floor((a - sqrt D)/k) = (a - ceil(sqrt D)) // k for integers a, D >= 0
    and k > 0, which hold because no multiple of k lies strictly between
    two consecutive integers.
    """
    twoB = 2 * B
    count = na = nb1 = nb2 = 0
    e1sq = e1 * e1
    two_e1 = 2 * e1
    four_e1 = 4 * e1
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
                k1 = e1sq * e2 * e3 * e3 * e4  # |x1| = k1 |a1|
                k4 = e1 * e2 * e2 * e3 * e3 * e4  # |x4| = k4 |a2|
                c1base = e1 * e2 * e3 * e3 * e4 * e4
                c2base = e3 * e4 * e4
                a1cap = B // k1
                a2cap = B // k4
                split_b1 = thr is not None and base <= thr
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
                    e6max = m1 if m1 < m2 else m2
                    k3 = e1 * e3 * e4 * e5  # |x3| = k3 |e6| |a1|
                    k5 = e2 * e3 * e4 * e5  # |x5| = k5 |e6| |a2|
                    t45 = e4 * e5 * e5
                    terms = _moebius_terms(e1, e2, e3, e4, e5)
                    n = n_a = 0
                    # (e6, a1, a2) -> (-e6, -a1, -a2) maps solutions to
                    # solutions, so count e6 > 0 and double at the end
                    for e6 in range(1, e6max + 1):
                        if gcd(e6, e1234) != 1:
                            continue
                        rhs = t45 * e6
                        # |x1|, |x3| <= B: |a1| <= a1max
                        a1max = B // (k3 * e6)
                        if a1cap < a1max:
                            a1max = a1cap
                        # |x4|, |x5| <= B: |rhs + e1 a1| <= e2 A2
                        e2A2 = B // (k5 * e6)
                        if a2cap < e2A2:
                            e2A2 = a2cap
                        e2A2 *= e2
                        lo = -((e2A2 + rhs) // e1)
                        if lo < -a1max:
                            lo = -a1max
                        hi = (e2A2 - rhs) // e1
                        if hi > a1max:
                            hi = a1max
                        # |x2| <= B: |q(a1)| <= C with q(x) = e1 x^2 + rhs x
                        # and C = e2 floor(B/e6); q <= C is [ceil r-, floor r+]
                        # for the roots r- < r+ of q - C (C4 = 4 e1 C)
                        C4 = four_e1 * e2 * (B // e6)
                        rr = rhs * rhs
                        s = isqrt(rr + C4)
                        v = -((rhs + s) // two_e1)
                        if lo < v:
                            lo = v
                        v = (s - rhs) // two_e1
                        if hi > v:
                            hi = v
                        if lo > hi:
                            continue
                        # q >= -C removes the open gap between the roots
                        # r1 < r2 of q + C: keep [lo, floor r1], [ceil r2, hi]
                        hi1 = hi
                        lo2 = hi + 1
                        D = rr - C4
                        if D > 0:
                            s = isqrt(D)
                            if s * s < D:
                                s += 1
                            v = (-rhs - s) // two_e1
                            if v < hi:
                                hi1 = v if v >= lo else lo - 1
                                v = -((rhs - s) // two_e1)
                                lo2 = lo if v < lo else v if v <= hi else hi + 1
                        c = 0
                        for mu, m, inv, h, dh, inv2, L in terms:
                            r = (-rhs * inv) % m
                            if r % h:
                                continue
                            r += m * ((-(r // h) * inv2) % dh)
                            c += mu * (
                                (hi1 - r) // L - (lo - 1 - r) // L
                                + (hi - r) // L - (lo2 - 1 - r) // L
                            )
                        n += c
                        if e5 >= e6:
                            n_a += c
                    count += 2 * n
                    if thr is not None:
                        na += 2 * n_a
                        if split_b1:
                            nb1 += 2 * (n - n_a)
                        else:
                            nb2 += 2 * (n - n_a)
    return count, na, nb1, nb2


def _stratum_worker(args: tuple) -> tuple:
    return _count_stratum(*args)


def count_torsor(B: int, *, workers: int = 1, A: float | None = None) -> CountResult:
    """Count U-points of height <= B through the torsor parametrization.

    Work is partitioned by eta1 strata; results are reduced in eta1 order,
    so the counts are independent of the worker count.

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
    if workers > 1 and len(jobs) > 1:
        with Pool(min(workers, len(jobs))) as pool:
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
