"""Show that every benchmark check passes on real outputs and fails on perturbed ones.

    python3 perfbench/selftest.py [--workload anchored|seeded] [--seed N]

Run from the root of a source checkout (about 15 s).  It calls each timed
operation once in this process on the workload's inputs for the seed
(perfbench/ops.py, `inputs`), feeds the outputs to the checks in
perfbench/checks.py, then perturbs one output at a time (a count off by
one, omega_infty off by 2 %, a main term off by 1e-6 relative, ...) and
requires the named check to fail.  Exit code 0 when every check passes on
the real outputs and rejects every perturbation, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import random
import sys
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("anchored", "seeded"), default="anchored")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dp5a2" / "__init__.py").is_file():
        print("error: run from a source checkout (no ./src/dp5a2)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import checks, ops

    inp = ops.inputs(args.workload, args.seed)

    def outputs(*names):
        return {n: [ops.OPS[n](inp)[1]] for n in names}

    rng = random.Random(args.seed)
    count_outs = outputs("torsor_count_s", "torsor_count_2w_s", "naive_count_s", "bijection_s")
    small = ops.check_small_count(rng.choice([1, 2, 5, 10, 25, 50]))[1]
    oracle = ops.check_torsor_count(inp["oracle_B"])[1]
    const_outs = outputs("constant_s", "g2_s")
    mc = checks.monte_carlo_volume(args.seed)
    ref_pmax = 10 * inp["p_max"]
    euler_ref = checks.reference_euler(ref_pmax)
    n_primes = len(checks.sieve(inp["p_max"]))
    main_outs = outputs("main_term_s", "main_term_exact_s")
    mdiff = ops.check_m_difference(rng.randrange(500, 2001))[1]

    def run_count(o, s=small, t=oracle):
        return checks.check_count(o, s, t)

    def run_constant(o, m=mc, e=euler_ref):
        return checks.check_constant(o, m, e, ref_pmax, n_primes)

    def run_main(o, d=mdiff):
        return checks.check_main_term(o, d)

    def perturbed(outs, op, key, fn):
        new = copy.deepcopy(outs)
        new[op][0][key] = fn(new[op][0][key])
        return new

    bad_small = dict(small, torsor=small["torsor"] + 1)
    bad_oracle = dict(oracle, count=oracle["count"] + 1)
    bad_num = list(mdiff["n"])
    bad_num[0] += 1
    cases = [
        # (description, results, check that must fail)
        ("count on 1 worker off by one",
         run_count(perturbed(count_outs, "torsor_count_s", "count", lambda c: c + 1)),
         "count.torsor_anchor"),
        ("count on 2 workers off by one",
         run_count(perturbed(count_outs, "torsor_count_2w_s", "count", lambda c: c + 1)),
         "count.workers_agree"),
        ("naive count off by one",
         run_count(perturbed(count_outs, "naive_count_s", "count", lambda c: c - 1)),
         "count.naive_anchor"),
        ("torsor-engine count at the oracle B off by one", run_count(count_outs, t=bad_oracle),
         "count.naive_anchor"),
        ("bijection with one point only on the naive side",
         run_count(perturbed(count_outs, "bijection_s", "only_naive", lambda c: c + 1)),
         "count.bijection"),
        ("small-B torsor count off by one", run_count(count_outs, bad_small),
         "count.small_anchor"),
        ("alpha = 1/863",
         run_constant(perturbed(const_outs, "constant_s", "alpha", lambda a: [1, 863])),
         "constant.alpha"),
        ("omega_infty 2 % high",
         run_constant(perturbed(const_outs, "constant_s", "omega", lambda w: w * 1.02)),
         "constant.omega_monte_carlo"),
        ("omega_infty 2 % low",
         run_constant(perturbed(const_outs, "constant_s", "omega", lambda w: w * 0.98)),
         "constant.omega_monte_carlo"),
        ("omega_infty 1 % off its anchor",
         run_constant(perturbed(const_outs, "constant_s", "omega", lambda w: w * 1.01)),
         "constant.omega_anchor"),
        ("G2 2 % high",
         run_constant(perturbed(const_outs, "g2_s", "value", lambda g: g * 1.02)),
         "constant.g2_scaling"),
        ("Euler product 1e-4 relative high",
         run_constant(perturbed(const_outs, "constant_s", "euler", lambda e: e * (1 + 1e-4))),
         "constant.euler_product"),
        ("Euler product over one prime too many",
         run_constant(perturbed(const_outs, "constant_s", "euler_n_primes", lambda n: n + 1)),
         "constant.euler_product"),
        ("default main term 1e-6 relative high",
         run_main(perturbed(main_outs, "main_term_s", "value", lambda v: v * (1 + 1e-6))),
         "main_term.routes_agree"),
        ("exact main term 1e-6 relative low",
         run_main(perturbed(main_outs, "main_term_exact_s", "value", lambda v: v * (1 - 1e-6))),
         "main_term.routes_agree"),
        ("n-route M difference numerator off by one",
         run_main(main_outs, dict(mdiff, n=bad_num)), "main_term.m_difference_exact"),
        ("small-B main term 1e-9 relative high",
         run_main(main_outs, dict(mdiff, main_term=mdiff["main_term"] * (1 + 1e-9))),
         "main_term.small_b_value"),
    ]

    ok = True
    for name, passed, detail in run_count(count_outs) + run_constant(const_outs) + run_main(main_outs):
        print(f"[{'PASS' if passed else 'FAIL'}] real outputs: {name}: {detail}")
        ok &= passed
    for desc, results, target in cases:
        verdict = {n: passed for n, passed, _ in results}
        if target not in verdict:
            raise KeyError(f"no check named {target}")
        rejected = not verdict[target]
        print(f"[{'PASS' if rejected else 'FAIL'}] {desc}: {target} "
              f"{'rejects it' if rejected else 'accepts it'}")
        ok &= rejected
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
