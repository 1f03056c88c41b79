"""Correctness checks made apart from the code the benchmark times.

Every check is a pure function of the outputs that the timed operations
returned (plain dicts, see perfbench/ops.py) and returns a list of
`(name, passed, detail)` triples.  The reference values are computed here
with numpy and the standard library only; this module never imports
dp5a2, so a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# README table of N(B), frozen when the package was written (both engines).
README_COUNTS = {1: 4, 2: 10, 5: 24, 10: 92, 25: 334, 50: 940, 100: 2222, 200: 5638}
# Reproduced by a Moebius-inversion prototype that shares no code with
# count_torsor (ROADMAP, open item 1).
MOEBIUS_COUNTS = {10**4: 810_704, 10**5: 13_196_076}
ANCHOR_COUNTS = {**README_COUNTS, **MOEBIUS_COUNTS}
# omega_infty(1e-6) = 27.33092822 +- 1.7e-5
OMEGA_ANCHOR = (27.33092822, 1.7e-5)
ALPHA = Fraction(1, 864)
MAIN_TERM_REL_TOL = 1e-9
MC_SAMPLES = 1 << 21
MC_SIGMAS = 4.0

Check = tuple[str, bool, str]


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def check_count(outs: dict[str, list[dict]], small: dict, oracle_torsor: dict) -> list[Check]:
    """Anchors for both engines, worker-count independence, point-set equality.

    small holds both engines at a README B; oracle_torsor is the torsor
    engine's count at the oracle's B, computed in a process of its own.
    """
    res: list[Check] = []
    tor = outs["torsor_count_s"] + outs["torsor_count_2w_s"]
    bad = [(o["workers"], o["count"]) for o in tor if o["count"] != ANCHOR_COUNTS[o["B"]]]
    res.append(("count.torsor_anchor", not bad,
                f"N({tor[0]['B']}) = {ANCHOR_COUNTS[tor[0]['B']]}, off: {bad}"))
    c1 = {o["count"] for o in outs["torsor_count_s"]}
    c2 = {o["count"] for o in outs["torsor_count_2w_s"]}
    res.append(("count.workers_agree", c1 == c2 and len(c1) == 1,
                f"1 worker {sorted(c1)}, 2 workers {sorted(c2)}"))
    nv = outs["naive_count_s"]
    B, want = oracle_torsor["B"], oracle_torsor["count"]
    anchor = README_COUNTS.get(B)
    bad = [o["count"] for o in nv if o["B"] != B or o["count"] != want]
    ok = (not bad and (anchor is None or want == anchor)
          and README_COUNTS[50] < want < README_COUNTS[200])
    res.append(("count.naive_anchor", ok,
                f"N({B}): torsor engine {want}, README {anchor}, naive off: {bad}"))
    bad = [o for o in outs["bijection_s"]
           if not (o["equal"] and o["duplicates"] == o["only_naive"] == o["only_torsor"] == 0
                   and o["B"] == B and o["n_naive"] == o["n_torsor"] == want)]
    res.append(("count.bijection", not bad, f"point sets equal in every sample, off: {bad}"))
    want = README_COUNTS[small["B"]]
    res.append(("count.small_anchor", small["torsor"] == small["naive"] == want,
                f"B={small['B']}: torsor {small['torsor']}, naive {small['naive']}, "
                f"README {want}"))
    return res


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------


def h_section(t0, t1, t5, t6):
    """The six height monomials |x_i|/B in scaled coordinates; their max."""
    t02 = t0 * t0
    t04 = t02 * t02
    return np.maximum.reduce([
        np.abs(t04 * t5),
        np.abs(t04 * t1),
        np.abs(t1 * t5**2 * t6**2 + t02 * t1**2 * t6),
        np.abs(t02 * t1 * t5 * t6),
        np.abs(t02 * t5**2 * t6 + t04 * t1),
        np.abs(t5**3 * t6**2 + t02 * t1 * t5 * t6),
    ])


def monte_carlo_volume(seed: int, n: int = MC_SAMPLES, chunk: int = 1 << 18):
    """Importance-sampled estimate of vol{(t1, t5, t6) : t5 > 0, h(1, .) <= 1}.

    At t0 = 1 the region lies in 0 < t5 <= 1 and t5^3 t6^2 <= 2.  Write
    d = t1 + t5^2 t6; the monomials give |t1| <= 1, |d| <= 1,
    |d| <= 1/(t5 |t6|) and |t1 d t6| <= 1, so min(|t1|, |d|) <= |t6|^-1/2.
    The proposal is t5 = u^4, |t6| = T v^2 with T = sqrt(2) t5^-3/2, and
    t1 from an even mixture of a box around 0 and a box around -t5^2 t6
    that together cover the region.  Its weight has finite variance.
    Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    s = s2 = 0.0
    done = 0
    while done < n:
        m = min(chunk, n - done)
        u = 1.0 - rng.random((3, m))
        t5 = u[0] ** 4
        T = math.sqrt(2.0) * t5**-1.5
        t6 = T * u[1] ** 2 * np.where(rng.random(m) < 0.5, -1.0, 1.0)
        a6 = np.abs(t6)
        a = np.minimum(1.0, a6**-0.5)
        d = np.minimum(a, 1.0 / (t5 * a6))
        c = t5 * t5 * t6
        t1 = np.where(rng.random(m) < 0.5, a * (2.0 * u[2] - 1.0), -c + d * (2.0 * u[2] - 1.0))
        q5 = 0.25 * t5**-0.75
        q6 = a6**-0.5 / (4.0 * np.sqrt(T))
        q1 = 0.25 * (np.abs(t1) <= a) / a + 0.25 * (np.abs(t1 + c) <= d) / d
        w = np.where(h_section(1.0, t1, t5, t6) <= 1.0, 1.0 / (q5 * q6 * q1), 0.0)
        s += float(w.sum())
        s2 += float((w * w).sum())
        done += m
    mean = s / n
    return mean, math.sqrt(max(s2 / n - mean * mean, 0.0) / n)


def sieve(limit: int) -> np.ndarray:
    """Primes <= limit (numpy sieve of Eratosthenes)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def reference_euler(p_max: int) -> tuple[float, int]:
    """prod_{p <= p_max} (1 - 1/p)^5 (1 + 5/p + 1/p^2) and the prime count."""
    p = sieve(p_max).astype(np.float64)
    logs = 5.0 * np.log1p(-1.0 / p) + np.log1p(5.0 / p + 1.0 / (p * p))
    return math.exp(math.fsum(logs.tolist())), len(p)


def check_constant(outs: dict[str, list[dict]], mc: tuple[float, float],
                   euler_ref: tuple[float, int], euler_ref_pmax: int,
                   primes_at_pmax: int) -> list[Check]:
    """alpha, omega against Monte Carlo and its anchor, G2 scaling, Euler product."""
    res: list[Check] = []
    pcs, g2s = outs["constant_s"], outs["g2_s"]
    bad = [o["alpha"] for o in pcs if Fraction(*o["alpha"]) != ALPHA]
    res.append(("constant.alpha", not bad, f"alpha = {ALPHA} exactly, off: {bad}"))
    est, se = mc
    bad = [o["omega"] for o in pcs if abs(o["omega"] - est) > MC_SIGMAS * se + o["omega_err"]]
    res.append(("constant.omega_monte_carlo", not bad,
                f"Monte Carlo {est:.4f} +- {se:.4f} ({MC_SIGMAS:g} sigma), off: {bad}"))
    ref, ref_err = OMEGA_ANCHOR
    bad = [o["omega"] for o in pcs if abs(o["omega"] - ref) > ref_err + o["omega_err"]]
    res.append(("constant.omega_anchor", not bad, f"anchor {ref} +- {ref_err}, off: {bad}"))
    bad = []
    for pc, g in zip(pcs, g2s):
        t0sq = g["t0"] ** 2
        if abs(t0sq * g["value"] - pc["omega"]) > t0sq * g["err"] + pc["omega_err"]:
            bad.append((pc["omega"], g["value"]))
    res.append(("constant.g2_scaling", not bad,
                f"t0^2 G2(t0) = omega within the stated errors, off: {bad}"))
    val, _ = euler_ref
    bad = [o["euler"] for o in pcs
           if abs(o["euler"] / val - 1.0) > o["euler_tail_rel_bound"]
           or o["euler_n_primes"] != primes_at_pmax]
    res.append(("constant.euler_product", not bad,
                f"reference to p <= {euler_ref_pmax} is {val:.12f}; "
                f"pi(p_max) = {primes_at_pmax}; off: {bad}"))
    return res


# ---------------------------------------------------------------------------
# main term
# ---------------------------------------------------------------------------


def check_main_term(outs: dict[str, list[dict]], mdiff: dict) -> list[Check]:
    """The two routes agree; the M difference equals the slow n-route sum."""
    res: list[Check] = []
    vals = [o["value"] for o in outs["main_term_s"]]
    exact = [o["value"] for o in outs["main_term_exact_s"]]
    ref = exact[0]
    bad = [v for v in vals + exact if abs(v - ref) > MAIN_TERM_REL_TOL * abs(ref)]
    res.append(("main_term.routes_agree", not bad,
                f"default and exact routes within {MAIN_TERM_REL_TOL:g} relative of "
                f"{ref!r}, off: {bad}"))
    res.append(("main_term.m_difference_exact", mdiff["eta"] == mdiff["n"],
                f"B={mdiff['B']}: M_(2,2,3,2) - M_(3,3,4,2) by eta and by n"))
    num, den, zpow = mdiff["n"]
    want = mdiff["omega"] * mdiff["B"] * (num / den) * (6.0 / math.pi**2) ** zpow
    ok = abs(mdiff["main_term"] - want) <= 1e-12 * abs(want)
    res.append(("main_term.small_b_value", ok,
                f"B={mdiff['B']}: main term {mdiff['main_term']!r} against {want!r}"))
    return res


def eta_tuples(k: tuple[int, int, int, int], t: int) -> int:
    """#{eta >= 1 : eta1^k1 eta2^k2 eta3^k3 eta4^k4 <= t}, counted directly."""
    n = 0
    e1 = 1
    while e1 ** k[0] <= t:
        e2 = 1
        while e1 ** k[0] * e2 ** k[1] <= t:
            e3 = 1
            while (p := e1 ** k[0] * e2 ** k[1] * e3 ** k[2]) <= t:
                q = t // p
                r = int(round(q ** (1.0 / k[3])))
                while r ** k[3] > q:
                    r -= 1
                while (r + 1) ** k[3] <= q:
                    r += 1
                n += r
                e3 += 1
            e2 += 1
        e1 += 1
    return n
