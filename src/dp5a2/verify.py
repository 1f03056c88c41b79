"""Structured self-checks tying the independent routes together.

Each check returns a CheckResult rather than raising, so the CLI can
report every failure; the test suite asserts on .passed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import counting, density, dirichlet
from .torsor import EDGES, coprimality_full, coprimality_reduced, psi

__all__ = [
    "CheckResult",
    "check_bijection",
    "check_coprimality_equiv",
    "check_g2_scaling",
    "check_height_bounds",
    "check_local_factor_oracle",
    "check_main_term_identity",
    "check_theta_consistency",
    "run_all",
]


# The largest B that check_height_bounds accepts: its int64 bound, proved there
_HEIGHT_INT64_MAX_B = 6000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def __bool__(self) -> bool:
        return self.passed


def _timed(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def check_bijection(B: int = 100) -> CheckResult:
    """Both engines agree and the torsor images are duplicate-free.

    count_torsor, which shares no code with the enumeration behind the
    images, must give the same number.
    """

    def run():
        r = counting.verify_bijection(B)
        if not r.equal:
            return False, f"B={B}: mismatch at {r.first_mismatch()}"
        n = counting.count_torsor(B).count
        if n != r.n_naive:
            return False, f"B={B}: count_torsor gives {n}, the point sets {r.n_naive}"
        return True, f"B={B}: {r.n_naive} points from both engines, no duplicates"

    return _timed("bijection", run)


def check_coprimality_equiv(
    height_bound: int = 50,
    box_bound: int = 10,
    edges: frozenset = EDGES,
) -> CheckResult:
    """Graph-derived coprimality == reduced conditions on equation solutions.

    Runs over every torsor-equation solution of image height <= the
    height bound, and every solution with all coordinates in the box.
    Each scan is one (N, 8) array on which the two conditions are compared
    as masks; the detail names the first mismatch in the scan's order.
    The edges parameter exists for fault injection: dropping an edge
    must make this check fail.
    """

    def run():
        sizes = []
        for scan, build, bound in (
            ("height", counting._equation_rows, height_bound),
            ("box", counting._equation_box_rows, box_bound),
        ):
            rows = build(bound)
            bad = coprimality_full(rows, edges) != coprimality_reduced(rows)
            if bad.any():
                return False, f"mismatch at {tuple(rows[bad.argmax()].tolist())} ({scan} scan)"
            sizes.append(len(rows))
        return True, f"{sizes[0]} height-bounded and {sizes[1]} box solutions agree"

    return _timed("coprimality-equivalence", run)


def check_height_bounds(B: int = 1000) -> CheckResult:
    """The two necessary bounds and the identities behind them.

    For every torsor tuple: x1 + x4 = -(e1 e2 e3^2 e4^2 e5^2 e6) and
    x3 + x5 = -(e3 e4^2 e5^3 e6^2) exactly, and both right sides are at
    most 2B in absolute value.  One psi call and array comparisons; the
    detail names the first tuple that fails.

    int64 safety.  A tuple of height <= B has eta_i >= 1,
    e1^2 e2^2 e3^3 e4^2 e5 = x0 <= B and |e6| <= B (|x3| or |x5| is a
    nonzero multiple of e6: alpha1 = alpha2 = 0 would break the
    equation), so |b1| <= B^3 and b2 <= B^5, as are their partial
    products.  B^5 < 2^63 for B <= _HEIGHT_INT64_MAX_B = 6,000; larger B
    raises ValueError before anything is enumerated.
    """
    if B > _HEIGHT_INT64_MAX_B:
        raise ValueError(f"B must be <= {_HEIGHT_INT64_MAX_B} for the int64 check, got {B}")

    def run():
        rows = counting._torsor_rows(B)
        e1, e2, e3, e4, e5, e6 = rows.T[:6]
        p = psi(rows)
        b1 = e1 * e2 * e3**2 * e4**2 * e5**2 * e6
        b2 = e3 * e4**2 * e5**3 * e6**2
        identity = (p[:, 1] + p[:, 4] == -b1) & (p[:, 3] + p[:, 5] == -b2)
        ok = identity & (np.abs(b1) <= 2 * B) & (b2 <= 2 * B)
        if not ok.all():
            i = int(ok.argmin())
            what = "bound" if identity[i] else "identity"
            return False, f"{what} failed at {tuple(rows[i].tolist())}"
        return True, f"B={B}: {len(rows)} solutions satisfy both bounds"

    return _timed("height-bounds", run)


def check_theta_consistency(bound: int = 30) -> CheckResult:
    """The closed theta == the staged theta2a exactly on the coprime eta box.

    The identity only holds when eta1, eta2, eta4 are pairwise coprime,
    which is also when theta is nonzero.  Caches are cleared per stratum
    to bound memory on the full box.
    """

    def run():
        n = 0
        for e1 in range(1, bound + 1):
            for e2 in range(1, bound + 1):
                if gcd(e1, e2) != 1:
                    continue
                for e4 in range(1, bound + 1):
                    if gcd(e4, e1) != 1 or gcd(e4, e2) != 1:
                        continue
                    for e3 in range(1, bound + 1):
                        eta = (e1, e2, e3, e4)
                        if dirichlet.theta(eta) != dirichlet.theta2a(eta):
                            return False, f"mismatch at eta={eta}"
                        n += 1
            dirichlet.theta0.cache_clear()
            dirichlet._theta_coeff.cache_clear()
        return True, f"{n} eta tuples consistent up to {bound}"

    return _timed("theta-consistency", run)


def check_main_term_identity(B: int = 10**4) -> CheckResult:
    """The shell sum e_star_sum(B) == M_(2,2,3,2)(B) - M_(3,3,4,2)(B) exactly."""

    def run():
        shell = dirichlet.e_star_sum(B)
        diff = dirichlet.summatory_M(dirichlet.K_MAIN, B) - dirichlet.summatory_M(
            dirichlet.K_CUT, B
        )
        if shell != diff:
            return False, f"B={B}: shell sum {float(shell)!r} != M difference {float(diff)!r}"
        return True, f"B={B}: shell sum = M difference = {float(shell):.15g}, exactly"

    return _timed("main-term-identity", run)


def check_local_factor_oracle(
    ps: tuple[int, ...] = (2, 3, 5),
    ss: tuple = (Fraction(1, 2), 1),
    max_exp: int = 12,
) -> CheckResult:
    """Closed per-prime factor vs brute-force truncated local sum."""

    def run():
        for k in (dirichlet.K_MAIN, dirichlet.K_CUT):
            for p in ps:
                for s in ss:
                    closed = float(dirichlet.local_factor(k, p, s))
                    brute, tail = dirichlet.local_factor_truncated(k, p, s, max_exp)
                    if abs(closed - brute) > tail + 1e-9 * abs(closed):
                        return False, (
                            f"k={k} p={p} s={s}: closed {closed} vs brute {brute}"
                            f" (tail {tail:.3g})"
                        )
        return True, f"{2 * len(ps) * len(ss)} (k, p, s) combinations agree"

    return _timed("local-factor-oracle", run)


def check_g2_scaling(
    t0s: tuple[float, ...] = (1.0, 1.25, 1.5, 2.0),
    rel_tol: float = 0.01,
    tol: float = 1e-6,
) -> CheckResult:
    """t0^2 G2(t0) is constant and equals the t0 = 1 value."""

    def run():
        try:
            om = density.omega_infty(tol)
            vals = {t0: t0 * t0 * density.G2(t0, tol).value for t0 in t0s}
        except density.QuadratureError as exc:
            return False, f"quadrature failed: {exc}"
        for t0, v in vals.items():
            if abs(v / om.value - 1.0) > rel_tol:
                return False, f"t0={t0}: t0^2 G2 = {v} vs omega = {om.value}"
        return True, f"omega_infty = {om.value:.8f}, constant over t0 in {t0s}"

    return _timed("g2-scaling", run)


def run_all(
    deep: bool = False,
    *,
    edges: frozenset = EDGES,
    B: int | None = None,
) -> list[CheckResult]:
    """The whole suite; deep mode widens every search range.

    edges is passed to the coprimality check (fault injection); B, when
    given, replaces the bijection check's default bound.
    """
    if B is None:
        B = 100 if deep else 50
    return [
        check_local_factor_oracle(),
        check_theta_consistency(30 if deep else 12),
        check_main_term_identity(10**6 if deep else 10**4),
        check_coprimality_equiv(*((50, 10) if deep else (30, 5)), edges=edges),
        check_bijection(B),
        check_height_bounds(1000 if deep else 200),
        check_g2_scaling() if deep else check_g2_scaling(t0s=(1.0, 2.0), tol=1e-5),
    ]
