"""The two counting engines and their comparison.

count_naive   -- box search over the defining equations (oracle engine).
count_torsor  -- enumeration of torsor tuples with exact divisibility.

Both count rational points of U (surface minus lines) of height <= B.
The torsor engine loops eta1, eta2, eta3, eta4, eta5, eta6, alpha1 and
solves alpha2 exactly from the torsor equation; eta6 is bounded by the
two necessary inequalities

    eta1*eta2*eta3^2*eta4^2*eta5^2*|eta6| <= 2B      (|x1 + x4| <= 2B)
    eta3*eta4^2*eta5^3*eta6^2          <= 2B         (|x3 + x5| <= 2B)

without which the eta6 loop would be unbounded (alpha1 = 0 solutions).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import gcd, isqrt
from multiprocessing import Pool
from typing import Iterator

from .surface import BRUTE_FORCE_MAX, LINES, ProjectivePoint, brute_force_points, in_U
from .torsor import TorsorPoint, psi

__all__ = [
    "BijectionResult",
    "CountResult",
    "NAIVE_MAX_B",
    "count_naive",
    "count_torsor",
    "equation_solutions",
    "equation_solutions_box",
    "verify_bijection",
]

NAIVE_MAX_B = BRUTE_FORCE_MAX
RETAIN_CAP_DEFAULT = 10**6


@dataclass
class CountResult:
    B: int
    method: str
    count: int
    na: int | None = None
    nb1: int | None = None
    nb2: int | None = None
    solutions: tuple[tuple[int, ...], ...] | None = None  # torsor tuples when collected
    points: frozenset[ProjectivePoint] | None = None  # naive point set
    retention_exceeded: bool = False
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# naive engine
# ---------------------------------------------------------------------------


def count_naive(B: int) -> CountResult:
    """Count U-points of height <= B by brute force over the quadrics.

    Every x0 = 0 surface point in the box must lie on one of the four
    lines; that is verified, not assumed.  brute_force_points refuses B
    outside 1..NAIVE_MAX_B with ValueError.
    """
    t0 = time.perf_counter()
    pts = brute_force_points(B)
    for p in pts:
        if p.x0 == 0 and not any(p in line for line in LINES):
            raise RuntimeError(f"x0 = 0 surface point {tuple(p)} is on no line")
    upts = frozenset(p for p in pts if in_U(p))
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


def _scan_stratum(
    e1: int, B: int, collect: bool, A: float | None
) -> tuple[int, int, int, int, list[tuple[int, ...]]]:
    """Count torsor solutions with fixed eta1 (one parallel work unit)."""
    twoB = 2 * B
    thr = B / math.log(B) ** A if A is not None else 0.0
    count = na = nb1 = nb2 = 0
    sols: list[tuple[int, ...]] = []
    e1sq = e1 * e1
    e2 = 0
    while True:
        e2 += 1
        base12 = e1sq * e2 * e2
        if base12 > B:
            break
        if gcd(e1, e2) != 1:
            continue
        e1inv = pow(e1, -1, e2) if e2 > 1 else 0
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
                    a1cap = B // k1
                    e34 = e3 * e4
                    e35 = e3 * e5
                    for e6 in range(-e6max, e6max + 1):
                        if e6 == 0:
                            continue
                        if gcd(e6, e1234) != 1:
                            continue
                        ae6 = -e6 if e6 < 0 else e6
                        a1max = B // (k3 * ae6)
                        if a1cap < a1max:
                            a1max = a1cap
                        rhs = t45 * e6
                        if e2 == 1:
                            start = -a1max
                            step = 1
                        else:
                            r = (-rhs * e1inv) % e2
                            start = -a1max + (r + a1max) % e2
                            step = e2
                        k5e6 = k5 * ae6
                        for a1 in range(start, a1max + 1, step):
                            a2 = -(rhs + e1 * a1) // e2
                            aa2 = -a2 if a2 < 0 else a2
                            if k4 * aa2 > B:
                                continue
                            if k5e6 * aa2 > B:
                                continue
                            aa1 = -a1 if a1 < 0 else a1
                            if ae6 * aa1 * aa2 > B:
                                continue
                            if gcd(a1, e34) != 1:
                                continue
                            if gcd(a2, e35) != 1:
                                continue
                            count += 1
                            if A is not None:
                                if e5 >= ae6:
                                    na += 1
                                elif base <= thr:
                                    nb1 += 1
                                else:
                                    nb2 += 1
                            if collect:
                                sols.append((e1, e2, e3, e4, e5, e6, a1, a2))
    return count, na, nb1, nb2, sols


def _stratum_worker(args: tuple) -> tuple:
    return _scan_stratum(*args)


def count_torsor(
    B: int,
    *,
    workers: int = 1,
    collect: bool = False,
    A: float | None = None,
    retain_cap: int = RETAIN_CAP_DEFAULT,
) -> CountResult:
    """Count U-points of height <= B through the torsor parametrization.

    Work is partitioned by eta1 strata; results are reduced in eta1 order,
    so counts and collected tuples are independent of the worker count.

    With A set (B >= 3), each solution is also classed as N_a if
    eta5 >= |eta6|, else N_b1 if eta1^2 eta2^2 eta3^3 eta4^2 <= B/(log B)^A,
    else N_b2; the three always sum to the total.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if A is not None and B < 3:
        raise ValueError("split classification needs B >= 3 (log B > 1)")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.perf_counter()
    jobs = [(e1, B, collect, A) for e1 in range(1, isqrt(B) + 1)]
    if workers > 1 and len(jobs) > 1:
        with Pool(min(workers, len(jobs))) as pool:
            parts = pool.map(_stratum_worker, jobs, chunksize=1)
    else:
        parts = [_stratum_worker(j) for j in jobs]
    count = na = nb1 = nb2 = 0
    sols: list[tuple[int, ...]] = []
    exceeded = False
    for c, a, b1, b2, s in parts:
        count += c
        na += a
        nb1 += b1
        nb2 += b2
        if collect and not exceeded:
            sols.extend(s)
            if len(sols) > retain_cap:
                exceeded = True
                sols = []
    return CountResult(
        B=B,
        method="torsor",
        count=count,
        na=na if A is not None else None,
        nb1=nb1 if A is not None else None,
        nb2=nb2 if A is not None else None,
        solutions=tuple(sols) if collect and not exceeded else None,
        retention_exceeded=exceeded,
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


def verify_bijection(B: int, *, workers: int = 1) -> BijectionResult:
    """Both engines at B: same point set, and psi injective on solutions."""
    naive = count_naive(B)
    tor = count_torsor(B, workers=workers, collect=True)
    if tor.solutions is None:
        raise RuntimeError("torsor solutions exceeded the retention cap")
    images = [psi(TorsorPoint(*s)) for s in tor.solutions]
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
        n_torsor=tor.count,
        duplicate_images=tuple(dups),
        only_naive=only_naive,
        only_torsor=only_torsor,
    )


# ---------------------------------------------------------------------------
# raw equation solutions (no coprimality) -- for equivalence checks
# ---------------------------------------------------------------------------


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
