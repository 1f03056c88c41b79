"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The slow criteria (the oracle grid, the B = 10^6 scan, the G2
scaling sweep) state their runtime budgets and are timed against them.
"""

import os
import time
from fractions import Fraction

import pytest

from dp5a2 import counting, density, dirichlet, surface, verify
from dp5a2.torsor import scaling_context

WORKERS = min(8, os.cpu_count() or 1)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {mark} {name}" + (f": {detail}" if detail else ""))


@pytest.fixture(scope="session")
def omega():
    return density.omega_infty(1e-6)


@pytest.fixture(scope="session")
def big_scan():
    """The B = 10^6 torsor scan, shared by the asymptotic criterion."""
    t0 = time.perf_counter()
    res = counting.count_torsor(10**6, workers=WORKERS)
    return res, time.perf_counter() - t0


def test_criterion_01_oracle_grid():
    grid = {1: 4, 2: 10, 5: 24, 10: 92, 25: 334, 50: 940, 100: 2222, 200: 5638}
    t0 = time.perf_counter()
    ok = True
    detail = []
    for B, expected in grid.items():
        naive = counting.count_naive(B).count
        torsor = counting.count_torsor(B).count
        if not (naive == torsor == expected):
            ok = False
            detail.append(f"B={B}: naive={naive} torsor={torsor} expected={expected}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(1, "oracle grid, both engines", ok,
           "; ".join(detail) or f"8 values match, {elapsed:.1f}s (< 120s)")
    assert ok


def test_criterion_02_bijection():
    res = counting.verify_bijection(200)
    ok = res.equal and not res.duplicate_images
    report(2, "bijection at B = 200", ok,
           f"{res.n_naive} points both ways, duplicates={len(res.duplicate_images)}")
    assert ok


def test_criterion_03_coprimality_equivalence():
    res = verify.check_coprimality_equiv(50, 10)
    report(3, "coprimality full == reduced", res.passed, res.detail)
    assert res.passed
    assert res.detail == "2316 height-bounded and 1262720 box solutions agree"


def test_criterion_04_alpha_exact():
    a = density.alpha_constant()
    ok = a == Fraction(1, 864)
    report(4, "alpha = 1/864 exactly", ok, str(a))
    assert ok


def test_criterion_05_per_prime_identity():
    from dp5a2.arith import primes

    worst = 0.0
    n = 0
    for p in primes(10**4):
        ref = dirichlet.euler_reference_factor(p)
        for k in (dirichlet.K_MAIN, dirichlet.K_CUT):
            got = dirichlet.g_k_zero_factor(k, p)
            rel = abs(float(got - ref)) / float(ref)
            worst = max(worst, rel)
            n += 1
    ok = worst <= 1e-12
    report(5, "per-prime residue identity, p <= 10^4", ok,
           f"{n} factors, worst rel {worst:.2e}")
    assert ok


def test_criterion_06_local_factor_oracle():
    res = verify.check_local_factor_oracle(ps=(2, 3, 5), ss=(Fraction(1, 2), 1))
    report(6, "local-factor brute oracle", res.passed, res.detail)
    assert res.passed


def test_criterion_07_theta_consistency():
    res = verify.check_theta_consistency(30)
    report(7, "theta = theta2a, eta <= 30", res.passed, res.detail)
    assert res.passed


def test_criterion_08_g2_scaling():
    t0 = time.perf_counter()
    res = verify.check_g2_scaling(t0s=(1.0, 1.25, 1.5, 2.0), rel_tol=0.01, tol=1e-6)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 300
    report(8, "t0^2 G2(t0) constant to 1%", ok, f"{res.detail}, {elapsed:.0f}s (< 300s)")
    assert ok


def test_criterion_09_g2_decomposition():
    params = [
        ((1, 1, 1, 1), 10**4),
        ((1, 1, 1, 1), 10**6),
        ((2, 1, 1, 1), 10**5),
        ((1, 3, 1, 2), 10**6),
        ((1, 1, 2, 1), 3 * 10**5),
    ]
    ok = True
    gaps = []
    for eta, B in params:
        fam = density.g_family(scaling_context(eta, B), tol=1e-5)
        gaps.append(f"{eta}/{B:g}: gap {fam.decomposition_gap:.2e}"
                    f" <= err {fam.combined_error:.2e}")
        if fam.decomposition_gap > fam.combined_error:
            ok = False
    report(9, "g2 = g2a + g2b within error, 5 sets", ok, "; ".join(gaps))
    assert ok


def test_criterion_10_partition():
    ok = True
    details = []
    for B in (10**3, 10**4):
        for A in (0.5, 1.0, 2.0, 28.0):
            res = counting.count_torsor(B, A=A)
            if res.na + res.nb1 + res.nb2 != res.count:
                ok = False
                details.append(f"B={B} A={A}: {res.na}+{res.nb1}+{res.nb2} != {res.count}")
    report(10, "N_a + N_b1 + N_b2 = N", ok, "; ".join(details) or "8 (B, A) combinations")
    assert ok


def test_criterion_11_main_term_identity():
    failed = [res.detail for B in (1, 10, 100, 10**3, 10**4)
              if not (res := verify.check_main_term_identity(B))]
    ok = not failed
    report(11, "shell sum = Delta-difference, B <= 10^4", ok,
           "; ".join(failed) or "exact at B in {1,10,100,10^3,10^4}")
    assert ok


def test_criterion_12_soft_asymptotic(omega, big_scan):
    big, elapsed = big_scan
    small = counting.count_torsor(10**4)
    mt_small = dirichlet.predicted_main_term(10**4, omega.value).value
    mt_big = dirichlet.predicted_main_term(10**6, omega.value).value
    r_small = small.count / mt_small
    r_big = big.count / mt_big
    in_range = 0.5 <= r_big <= 2.0
    toward_one = abs(r_big - 1.0) <= abs(r_small - 1.0)
    in_time = elapsed < 1800
    ok = big.count == 202_098_860 and in_range and toward_one and in_time
    noun = "worker" if WORKERS == 1 else "workers"
    report(12, "soft asymptotic ratio", ok,
           f"N(10^6)={big.count}, ratio {r_small:.4f} -> {r_big:.4f},"
           f" scan {elapsed:.0f}s with {WORKERS} {noun} (< 1800s)")
    assert ok


def test_criterion_13_height_prebounds():
    res = verify.check_height_bounds(10**3)
    report(13, "necessary 2B bounds at B = 10^3", res.passed, res.detail)
    assert res.passed


def test_criterion_14_lines():
    lines = surface.find_lines(5)
    pts = [p for p in surface.brute_force_points(100).tolist() if p[0] == 0]
    uncovered = [p for p in pts if not any(p in l for l in lines)]
    ok = len(lines) == 4 and not uncovered
    report(14, "4 lines cover the x0 = 0 points", ok,
           f"{len(lines)} lines, {len(pts)} points, {len(uncovered)} uncovered")
    assert ok
