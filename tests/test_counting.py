import dataclasses
import json
import math

import numpy as np
import pytest

from dp5a2.counting import (
    NAIVE_MAX_B,
    count_naive,
    count_torsor,
    equation_solutions,
    equation_solutions_box,
    torsor_solutions,
    verify_bijection,
)

# oracle values, computed once by both engines and frozen
KNOWN_COUNTS = {1: 4, 2: 10, 5: 24, 10: 92, 25: 334, 50: 940, 100: 2222, 200: 5638}


def test_n_of_1_points():
    from dp5a2 import counting

    assert count_naive(1).count == 4
    assert sorted(map(tuple, counting._naive_rows(1).tolist())) == [
        (1, -1, 0, -1, 0, 0),
        (1, 0, 0, 0, -1, -1),
        (1, 0, 0, 0, 1, -1),
        (1, 1, 0, -1, 0, 0),
    ]


def test_engines_agree_small():
    for B in [*range(1, 41), 50]:
        n = count_torsor(B).count
        assert count_naive(B).count == n, B
        assert n == KNOWN_COUNTS.get(B, n), B


def test_naive_checks_x0_zero_points(monkeypatch):
    # without the line {(0, t, u, 0, -t, 0)} its points look like U points
    # with x0 = 0, which the oracle must refuse
    from dp5a2 import surface

    line = surface.Line.through((0, 1, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0))
    assert line in surface.LINES
    monkeypatch.setattr(surface, "LINES", tuple(l for l in surface.LINES if l != line))
    with pytest.raises(RuntimeError, match="x0 = 0 surface point"):
        count_naive(10)


def test_naive_refuses_large_B():
    with pytest.raises(ValueError):
        count_naive(NAIVE_MAX_B + 1)
    with pytest.raises(ValueError):
        count_naive(0)


def test_counts_monotone_in_B():
    prev = 0
    for B in (1, 2, 5, 10, 25, 50, 100):
        n = count_torsor(B).count
        assert n >= prev
        prev = n


def test_bijection():
    r = verify_bijection(50)
    assert r.equal
    assert r.n_naive == r.n_torsor == KNOWN_COUNTS[50]
    assert not r.duplicate_images


@pytest.mark.parametrize("fault", ["drop", "duplicate", "foreign", "far"])
def test_bijection_reports_faulty_images(monkeypatch, fault):
    from dp5a2 import counting
    from dp5a2.surface import ProjectivePoint
    from dp5a2.torsor import TorsorPoint
    from dp5a2.verify import check_bijection

    real = counting.psi
    first = ProjectivePoint._make(real(counting._torsor_rows(25))[0].tolist())
    expected = {
        "foreign": ProjectivePoint(1, 1, 0, 0, -1, 0),  # on a line of S, so not in U
        "far": real(TorsorPoint(1, 1, 1, 1, 1, 1, -27, 26)),  # in U, of height 702 > 25
    }.get(fault, first)

    def faulty(rows):
        p = real(rows)
        return p[1:] if fault == "drop" else np.concatenate([p, [expected]])

    monkeypatch.setattr(counting, "psi", faulty)
    r = verify_bijection(25)
    group = {"duplicate": 0, "drop": 1}.get(fault, 2)
    reported = (r.duplicate_images, r.only_naive, r.only_torsor)
    assert reported == tuple((expected,) if i == group else () for i in range(3))
    assert not r.equal and r.first_mismatch() == expected
    res = check_bijection(25)
    assert not res.passed and res.detail == f"B=25: mismatch at {expected}"


def test_solution_counts_frozen():
    for B, n_eq, n_t in ((100, 6_920, 2_222), (200, 20_036, 5_638), (500, 76_326, 19_024)):
        assert sum(1 for _ in equation_solutions(B)) == n_eq, B
        assert sum(1 for _ in torsor_solutions(B)) == n_t, B
    assert sum(1 for _ in torsor_solutions(1000)) == 45_036


def test_enumeration_shares_no_code_with_count(monkeypatch):
    from dp5a2 import counting

    for name in ("_quads", "_bounds", "_groups", "iroot", "cuts", "_divisor_table", "_terms", "_sweep"):
        monkeypatch.setattr(counting, name, None)
    assert sum(1 for _ in torsor_solutions(100)) == KNOWN_COUNTS[100]


def test_enumeration_refuses_B_outside_its_int64_range():
    from dp5a2.counting import _SOLUTIONS_MAX_B

    for B in (0, _SOLUTIONS_MAX_B + 1):
        with pytest.raises(ValueError, match="B must be in"):
            list(equation_solutions(B))


def test_height_bounds_check_names_first_failing_tuple(monkeypatch):
    from dp5a2 import counting, verify

    rows = counting._torsor_rows(50)
    real = verify.psi

    def faulty(t):
        p = real(t).copy()
        p[[7, 9], 1] += 1
        return p

    res = verify.check_height_bounds(50)
    assert res.passed and res.detail == "B=50: 940 solutions satisfy both bounds"
    with pytest.raises(ValueError):
        verify.check_height_bounds(6001)
    monkeypatch.setattr(verify, "psi", faulty)
    res = verify.check_height_bounds(50)
    assert not res.passed and res.detail == f"identity failed at {tuple(rows[7].tolist())}"


def test_count_matches_enumeration():
    # the closed-form alpha1 count against plain enumeration of the tuples
    for B in [*range(1, 61), 100, 200, 300, 1000]:
        assert count_torsor(B).count == sum(1 for _ in torsor_solutions(B)), B
    B = 1000
    sols = list(torsor_solutions(B))
    for A in (0.5, 28.0):
        thr = B / math.log(B) ** A
        na = nb1 = nb2 = 0
        for t in sols:
            if t.eta5 >= abs(t.eta6):
                na += 1
            elif t.eta1**2 * t.eta2**2 * t.eta3**3 * t.eta4**2 <= thr:
                nb1 += 1
            else:
                nb2 += 1
        r = count_torsor(B, A=A)
        assert (r.count, r.na, r.nb1, r.nb2) == (len(sols), na, nb1, nb2)


def test_check_bijection_covers_count_torsor(monkeypatch):
    from dp5a2 import counting
    from dp5a2.verify import check_bijection

    assert check_bijection(25).passed
    real = counting.count_torsor
    monkeypatch.setattr(
        counting, "count_torsor",
        lambda B: dataclasses.replace(real(B), count=real(B).count + 1),
    )
    r = check_bijection(25)
    assert not r.passed and "count_torsor" in r.detail


def test_worker_count_does_not_change_result(monkeypatch):
    from dp5a2 import counting

    seq = count_torsor(10**4, workers=1, A=1.0)
    assert seq.count == 810_704
    assert seq.nb1 > 0 and seq.nb2 > 0
    parts = (seq.count, seq.na, seq.nb1, seq.nb2)
    for workers in (2, 3):
        par = count_torsor(10**4, workers=workers, A=1.0)
        assert (par.count, par.na, par.nb1, par.nb2) == parts, workers
    # a row budget small enough that B = 10^4 spans many slices
    monkeypatch.setattr(counting, "_UNIT_ROWS", 512)
    B = 10**4
    quads = counting._quads(B)
    table = counting._divisor_table(math.isqrt(2 * B))
    assert len(counting._units(quads, B, table)) > 100
    for workers in (1, 2, 3):
        r = count_torsor(B, workers=workers, A=1.0)
        assert (r.count, r.na, r.nb1, r.nb2) == parts, workers


def test_units_are_contiguous_and_within_budget(monkeypatch):
    from dp5a2 import counting

    B = 10**4
    quads = counting._quads(B)
    table = counting._divisor_table(math.isqrt(2 * B))
    _, cols, _, nterms = counting._groups(quads, B, 0, table)
    total = int((cols[0] * nterms).sum())
    for budget in (1 << 18, 4096, 1):
        monkeypatch.setattr(counting, "_UNIT_ROWS", budget)
        units = counting._units(quads, B, table)
        assert units[0][0] == 0 and units[-1][1] == len(quads[0])
        assert all(hi == lo2 and lo < hi for (lo, hi), (lo2, _) in zip(units, units[1:]))
        seen = 0
        for lo, hi in units:
            q, cols, _, nterms = counting._groups(tuple(c[lo:hi] for c in quads), B, 0, table)
            rows = np.bincount(q, cols[0] * nterms).astype(np.int64)
            assert rows.sum() - rows[-1] < budget, (budget, lo, hi)
            seen += int(rows.sum())
        assert seen == total


def _recording_pool(monkeypatch, sizes, njobs):
    """Replace counting.Pool by one that records the pool size asked for and
    the number of jobs, and runs the jobs here; it starts no process."""
    from dp5a2 import counting

    class RecordingPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            njobs.append(len(jobs))
            return [fn(job) for job in jobs]

    monkeypatch.setattr(counting, "Pool", RecordingPool)
    monkeypatch.setattr(counting, "_worker_table", None)


def test_pool_capped_at_cpu_count(monkeypatch):
    from dp5a2 import counting

    sizes = []
    njobs = []
    _recording_pool(monkeypatch, sizes, njobs)
    # a row budget small enough that B = 10^4 spans several units
    monkeypatch.setattr(counting, "_UNIT_ROWS", 4096)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    assert count_torsor(10**4, workers=10_000).count == 810_704
    assert sizes == [2]
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
    assert count_torsor(10**4, workers=3).count == 810_704
    monkeypatch.setattr(counting, "_UNIT_ROWS", 1)  # a unit per quadruple that has rows
    assert count_torsor(5, workers=10_000).count == KNOWN_COUNTS[5]  # 4 quadruples
    monkeypatch.setattr(counting, "_UNIT_ROWS", 4096)
    assert sizes == [2, 3, 4] and njobs[2] == 4
    assert all(s <= n for s, n in zip(sizes, njobs))  # never more processes than units
    # one CPU, a count os.cpu_count() cannot tell, or one work unit: no pool at all
    assert count_torsor(2, workers=10_000).count == KNOWN_COUNTS[2]
    for cpus in (1, None):
        monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)
        assert count_torsor(10**4, workers=10_000).count == 810_704
    assert sizes == [2, 3, 4]


def test_one_unit_count_starts_no_pool(monkeypatch):
    from dp5a2 import counting

    sizes = []
    _recording_pool(monkeypatch, sizes, [])
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
    assert count_torsor(10**4, workers=2).count == 810_704
    assert sizes == []  # B = 10^4 fits one work unit


def test_split_counts_frozen():
    # (count, na, nb1, nb2) of the per-eta6 Python loop that the array
    # kernel replaced, computed once and frozen
    frozen = {
        (10**4, 1.0): (810_704, 322_490, 230_720, 257_494),
        (10**5, 28.0): (13_196_076, 4_986_662, 0, 8_209_414),
    }
    for (B, A), parts in frozen.items():
        r = count_torsor(B, A=A)
        assert (r.count, r.na, r.nb1, r.nb2) == parts, (B, A)


def test_counts_are_python_ints(capsys):
    # numpy scalars would break json.dumps in the CLI and in run records
    for workers in (1, 2):
        r = count_torsor(10**4, workers=workers, A=1.0)
        assert all(type(v) is int for v in (r.count, r.na, r.nb1, r.nb2)), workers
    assert type(count_torsor(10**4).count) is int
    from dp5a2.cli import main

    assert main(["count", "--B", "10000", "--split", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["count"] == row["na"] + row["nb1"] + row["nb2"] == 810_704


def _exact_root(x, k):
    """floor(x^(1/k)) in Python ints."""
    r = round(x ** (1 / k))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def test_kernel_int64_exact_at_proved_bound():
    from dp5a2.arith import iroot
    from dp5a2.counting import TORSOR_MAX_B

    B = TORSOR_MAX_B
    # the largest operand, rhs^2 + C4 <= 2B^2 + 4B^(3/2), and the square
    # (s + 1)^2 of the isqrt correction stay below 2^63 at the bound
    top = 2 * B * B + 4 * B * (math.isqrt(B) + 1)
    assert (math.isqrt(top) + 2) ** 2 < 2**63
    # the float root with its integer correction is exact up to there
    xs = {0, 1, 2, 3, top, top - 1}
    for s in (math.isqrt(top), 3 * 10**9 // 2, 10**6, 94_906_265, 2**26 + 1):
        xs |= {s * s - 1, s * s, s * s + 1, s * s + 2 * s}
    xs = sorted(x for x in xs if 0 <= x <= top)
    got = iroot(np.array(xs, dtype=np.int64), 2)
    assert got.tolist() == [math.isqrt(x) for x in xs]
    # the roots of x <= 2B that the tables take
    x2 = 2 * B
    assert (math.isqrt(x2) + 2) ** 2 < 2**63 and (_exact_root(x2, 3) + 2) ** 3 < 2**63
    xs = {0, 1, 7, 8, 9, x2 - 1, x2}
    for r in (math.isqrt(x2), _exact_root(x2, 3), 1_234, 1_587, 1_588, 56_789):
        xs |= {r * r - 1, r * r, r * r + 1, r**3 - 1, r**3, r**3 + 1}
    xs = sorted(x for x in xs if 0 <= x <= x2)
    arr = np.array(xs, dtype=np.int64)
    assert iroot(arr, 2).tolist() == [math.isqrt(x) for x in xs]
    assert iroot(arr, 3).tolist() == [_exact_root(x, 3) for x in xs]
    # the roots of x <= 3*10^9 that the main-term key sums take, k = 4..32
    for k in range(4, 33):
        xs = sorted({r**k + d for r in range(1, _exact_root(3 * 10**9, k) + 1) for d in (-1, 0, 1)})
        assert iroot(np.array(xs, dtype=np.int64), k).tolist() == [_exact_root(x, k) for x in xs], k


def _signed_divisors(n):
    """(d, mu(d)) for the squarefree d | n, by trial division."""
    out = [(1, 1)]
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            out += [(d * p, -mu) for d, mu in out]
    return out


def _plain_tables(B, cap):
    """Per group, its sweep columns and sorted Moebius terms, by nested loops."""
    from itertools import count

    out = []
    for e1 in range(1, math.isqrt(B) + 1):
        for e2 in count(1):
            if (e1 * e2) ** 2 > B:
                break
            if math.gcd(e1, e2) != 1:
                continue
            for e3 in count(1):
                if (e1 * e2) ** 2 * e3**3 > B:
                    break
                for e4 in count(1):
                    base = (e1 * e2) ** 2 * e3**3 * e4**2
                    if base > B:
                        break
                    if math.gcd(e4, e1 * e2) != 1:
                        continue
                    for e5 in count(1):
                        c1 = e1 * e2 * e3**2 * e4**2 * e5**2
                        c2 = e3 * e4**2 * e5**3
                        if base * e5 > B or c1 > 2 * B or c2 > 2 * B:
                            break
                        if math.gcd(e5, e1 * e2 * e3) != 1:
                            continue
                        cols = (
                            min(2 * B // c1, math.isqrt(2 * B // c2)), e5, e4 * e5**2,
                            e1 * e3 * e4 * e5, e2 * e3 * e4 * e5,
                            B // (e1**2 * e2 * e3**2 * e4), B // (e1 * e2**2 * e3**2 * e4),
                            e1, e2, e1 * e2 * e3 * e4, int(base <= cap),
                        )
                        terms = []
                        for d1, mu1 in _signed_divisors(e3 * e4):
                            for d2, mu2 in _signed_divisors(e3 * e5):
                                if math.gcd(d2, e1) != 1:
                                    continue
                                m = e2 * d2
                                h = math.gcd(m, d1)
                                m1, dh = m // h, d1 // h
                                w = dh * pow(e1 * dh, -1, m1)
                                terms.append((mu1 * mu2, h, m1 * dh, w, h * m1 * dh))
                        out.append((cols, sorted(terms)))
    return out


def test_tables_match_plain_python():
    from dp5a2 import arith, counting

    table = counting._divisor_table(100)
    rad, cnt, start, d, mu = table
    for x in range(1, 101):
        divs = sorted(zip(d[start[x] : start[x] + cnt[x]].tolist(),
                          mu[start[x] : start[x] + cnt[x]].tolist()))
        assert divs == [(v, arith.moebius(v)) for v in arith.squarefree_divisors(x)], x
        assert rad[x] == math.prod(arith.prime_divisors(x)), x
    for B in (1, 2, 7, 30, 100, 1000):
        for cap in {0, math.floor(B / math.log(B)) if B >= 3 else 0}:
            quads = counting._quads(B)
            table = counting._divisor_table(math.isqrt(2 * B))
            _, cols, sets, nterms = counting._groups(quads, B, cap, table)
            terms = counting._terms(cols, sets, nterms, table).T.tolist()
            ends = np.cumsum(nterms).tolist()
            got = [
                (tuple(int(c[i]) for c in cols), sorted(map(tuple, terms[end - n : end])))
                for i, (n, end) in enumerate(zip(nterms.tolist(), ends))
            ]
            assert got == _plain_tables(B, cap), (B, cap)


def test_inverse_matches_pow():
    from dp5a2.counting import _inverse

    pairs = [(0, 1), (1, 2), (1, 3), (1, 10**9 + 7), (2 * 10**9 - 2, 2 * 10**9 - 1),
             (1_134_903_170, 1_836_311_903),  # consecutive Fibonacci numbers
             (1, 2 * 10**9 + 11), (10**9, 2 * 10**9 + 1), (12_345, 2 * 10**9 + 3)]
    rng = np.random.default_rng(7)
    for m in rng.integers(2, 2 * 10**9 + 100, 300).tolist():
        a = int(rng.integers(0, m))
        if math.gcd(a, m) == 1:
            pairs.append((a, m))
    a, m = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert _inverse(a, m).tolist() == [pow(x, -1, n) for x, n in pairs]
    # m = 1 everywhere (so d1/h = 1 in the table): the class is 0
    assert _inverse(np.zeros(3, np.int64), np.ones(3, np.int64)).tolist() == [0, 0, 0]


def test_workers_below_one_rejected():
    for workers in (0, -3):
        with pytest.raises(ValueError):
            count_torsor(10, workers=workers)


def test_torsor_refuses_B_above_table_bound(monkeypatch):
    from dp5a2 import counting

    def unreachable(*args):
        raise AssertionError("a table was built for a refused B")

    # refused before any table is built
    monkeypatch.setattr(counting, "_divisor_table", unreachable)
    monkeypatch.setattr(counting, "_quads", unreachable)
    with pytest.raises(ValueError, match="TORSOR_MAX_B"):
        count_torsor(counting.TORSOR_MAX_B + 1)


def test_split_partition():
    for A in (0.5, 1.0, 2.0, 28.0):
        r = count_torsor(1000, A=A)
        assert r.na + r.nb1 + r.nb2 == r.count
        assert r.count == count_torsor(1000).count
    with pytest.raises(ValueError):
        count_torsor(2, A=28.0)
    for A in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            count_torsor(1000, A=A)
    # (log B)^A beyond the float range leaves b1 empty or takes all of b
    big, small = count_torsor(1000, A=1000.0), count_torsor(1000, A=-1000.0)
    assert big.nb1 == 0 and big.nb2 == small.nb1 and small.nb2 == 0


def test_split_monotone_in_A():
    # raising A shrinks the b1 class (threshold B/(log B)^A drops)
    r1 = count_torsor(1000, A=0.5)
    r2 = count_torsor(1000, A=2.0)
    assert r1.na == r2.na  # the a/b split does not depend on A
    assert r1.nb1 >= r2.nb1


def test_equation_solutions_superset_of_torsor_scan():
    B = 30
    with_cop = list(torsor_solutions(B))
    eq_sols = list(equation_solutions(B))
    eq_set = {tuple(t) for t in eq_sols}
    assert len(eq_set) == len(eq_sols)  # generator emits no duplicates
    assert {tuple(t) for t in with_cop} <= eq_set
    assert len(eq_set) > len(with_cop)  # coprimality really cuts


def test_equation_solutions_box():
    sols = list(equation_solutions_box(3))
    assert all(t.satisfies_equation() for t in sols)
    # in the order of the nest eta1, eta2, eta4, eta5, eta6, alpha1, eta3
    keys = [(t.eta1, t.eta2, t.eta4, t.eta5, t.eta6, t.alpha1, t.eta3) for t in sols]
    assert keys == sorted(keys)
    for t in sols:
        assert all(1 <= v <= 3 for v in t.eta + (t.eta5,))
        assert 1 <= abs(t.eta6) <= 3 and abs(t.alpha1) <= 3 and abs(t.alpha2) <= 3
    # independent tiny oracle: full 8-fold loop
    from itertools import product

    expected = set()
    rng = range(-3, 4)
    for e1, e2, e3, e4, e5 in product(range(1, 4), repeat=5):
        for e6, a1, a2 in product(rng, rng, rng):
            if e6 == 0:
                continue
            if e4 * e5 * e5 * e6 + e1 * a1 + e2 * a2 == 0:
                expected.add((e1, e2, e3, e4, e5, e6, a1, a2))
    assert {tuple(t) for t in sols} == expected
