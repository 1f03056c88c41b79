"""dp5a2 benchmark: one workload, timed cold, checked, reported as JSON.

    python3 perfbench/run.py --workload anchored --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each timed sample is one call into the public API made in a child
process forked from this one right after `import dp5a2`, so it starts
from the caches of a fresh `dp5a2` process (the child asserts this).
Samples run one at a time in a closed loop, in whole rounds of all eight
operations on the workload's inputs (ops.inputs), as many as fit in
--seconds (the last may end up to a quarter round later).

Every time is reported in reference-speed seconds: the wall time of the
sample times the reference time of the operation's calibration kernel
(KERNELS) over the mean time of that kernel, run in a child of its own
just before and just after the sample.  On a shared machine whose speed
drifts by tens of percent within a minute, this keeps the figures of one
commit steady while still moving with the code.  Raw wall times are kept
in the run record.

--trace 0 prints every end-to-end metric (median seconds per operation,
plus set-up time); --trace 1 runs each operation once untraced and once
traced per round and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is the result
object; a run record with every sample, span and check is written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("anchored", "seeded")
# every operation, by the calibration kernel whose code it resembles
STYLE = {
    "torsor_count_s": "loops", "torsor_count_2w_s": "loops",
    "naive_count_s": "loops", "bijection_s": "loops",
    "constant_s": "quad", "g2_s": "quad",
    "main_term_s": "fractions", "main_term_exact_s": "fractions",
}
OPERATIONS = tuple(STYLE)
# operations that keep more than one CPU busy; they are scaled by the
# calibration kernel run in as many processes at once
OP_PROCESSES = {"torsor_count_2w_s": 2}
SAMPLE_TIMEOUT_S = 120.0

# per-layer metric -> (unit, operation whose traced samples give it, source);
# the source is "seconds", "out.<key>" from the result, or a tracer key
LAYER_METRICS = {
    "counting.count_torsor.s": ("s", "torsor_count_s", "seconds"),
    "counting.count_torsor.2w.s": ("s", "torsor_count_2w_s", "seconds"),
    "counting.count_torsor.points": ("count", "torsor_count_s", "out.count"),
    "counting.parallel_speedup": ("ratio", "torsor_count_2w_s", None),
    "counting.verify_bijection.s": ("s", "bijection_s", "seconds"),
    "surface.brute_force_points.s": ("s", "naive_count_s", "surface.brute_force_points.s"),
    "surface.brute_force_points.points": ("count", "naive_count_s",
                                          "surface.brute_force_points.count"),
    "surface.in_U.s": ("s", "naive_count_s", "surface.in_U.s"),
    "surface.in_U.calls": ("count", "naive_count_s", "surface.in_U.calls"),
    "torsor.psi.s": ("s", "bijection_s", "torsor.psi.s"),
    "torsor.psi.calls": ("count", "bijection_s", "torsor.psi.calls"),
    "density.omega_infty.s": ("s", "constant_s", "density.omega_infty.s"),
    "density.omega_infty.evaluations": ("count", "constant_s", "out.omega_evals"),
    "density.g0.us_per_eval": ("us", "constant_s", None),
    "density.G2.s": ("s", "g2_s", "seconds"),
    "density.G2.evaluations": ("count", "g2_s", "out.evals"),
    "density.euler_product.s": ("s", "constant_s", "density.euler_product.s"),
    "arith.primes.s": ("s", "constant_s", "arith.primes.s"),
    "dirichlet.summatory_M.K_MAIN.float.s": ("s", "main_term_s",
                                             "dirichlet.summatory_M.K_MAIN.float.s"),
    "dirichlet.summatory_M.K_CUT.float.s": ("s", "main_term_s",
                                            "dirichlet.summatory_M.K_CUT.float.s"),
    "dirichlet.summatory_M.K_MAIN.exact.s": ("s", "main_term_exact_s",
                                             "dirichlet.summatory_M.K_MAIN.exact.s"),
    "dirichlet.summatory_M.K_CUT.exact.s": ("s", "main_term_exact_s",
                                            "dirichlet.summatory_M.K_CUT.exact.s"),
    "dirichlet.e_star_sum.s": ("s", "main_term_exact_s", "dirichlet.e_star_sum.s"),
    "dirichlet.eta_tuples.K_MAIN": ("count", "main_term_s", None),
    "dirichlet.eta_tuples.K_CUT": ("count", "main_term_s", None),
    "arith.factorize.hits": ("count", "main_term_s", "arith.factorize.hits"),
    "arith.factorize.misses": ("count", "main_term_s", "arith.factorize.misses"),
    "arith.phi_star.misses": ("count", "main_term_s", "arith.phi_star.misses"),
}
LAYER_METRICS.update({f"overhead.{op}": ("s", op, None) for op in OPERATIONS})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _kernel_count() -> int:
    """Integer loops with gcds, a set of tuples and a numpy grid (counting)."""
    import numpy as np

    s = 0
    for e1 in range(1, 90):
        for e2 in range(1, 90):
            if math.gcd(e1, e2) != 1:
                continue
            for a in range(-30, 31):
                if math.gcd(a, e1 * e2) == 1:
                    s += 1
    pts = set()
    for i in range(40_000):
        pts.add((i, -i, i % 7, 3 * i, 1, 0))
    x = np.arange(-200, 201, dtype=np.int64)[:, None]
    for x0 in range(1, 20):
        s += int((x * (x + x.T) % x0 == 0).sum())
    return s + len(pts)


def _kernel_quad() -> float:
    """Nested scipy quad over a Python section-length integrand (density)."""
    from scipy import integrate

    def section(y: float, x: float) -> float:
        vals = [abs(x * x * y - 0.3), abs(x - y * y), abs(x * y * y + 0.1 * y)]
        return max(0.0, 1.0 - max(vals))

    def outer(x: float) -> float:
        return integrate.quad(section, 0.0, 1.0, args=(x,), epsrel=1e-6, limit=200)[0]

    # two integrals: one alone is too short to average out the speed jitter
    return integrate.quad(outer, 0.0, 1.0, epsrel=1e-6, limit=200)[0] + integrate.quad(
        outer, 0.0, 0.9, epsrel=1e-6, limit=200)[0]


def _kernel_fractions() -> int:
    """Cached trial-division factorizations and a tree sum of fractions (dirichlet)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def fac(n: int) -> tuple:
        out, p = [], 2
        while p * p <= n:
            while n % p == 0:
                out.append(p)
                n //= p
            p += 1
        return tuple(out + [n] if n > 1 else out)

    parts = []
    for n in range(1, 9000):
        f = fac(n) + fac(n + 1)
        parts.append(Fraction(len(f), n * n + 1) * Fraction(n, n + len(set(f))))
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2], Fraction(0)) for i in range(0, len(parts), 2)]
    return parts[0].denominator % 7


# Each operation is scaled by a kernel written in the style of its own code,
# with the kernel's typical time on the reference machine (seconds).
KERNELS = {
    "loops": (_kernel_count, 0.13),
    "quad": (_kernel_quad, 0.46),
    "fractions": (_kernel_fractions, 0.18),
}


def _calibration_child(kernel, conn) -> None:
    t = time.perf_counter()
    kernel()
    conn.send(time.perf_counter() - t)
    conn.close()


def _in_child(ctx, target, args) -> dict:
    """Run target(*args, conn) in a forked child and return what it sends."""
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, send))
    proc.start()
    send.close()
    try:
        if not recv.poll(SAMPLE_TIMEOUT_S):
            raise TimeoutError(f"no result in {SAMPLE_TIMEOUT_S:g} s")
        msg = recv.recv()
    except (EOFError, TimeoutError) as exc:
        msg = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        recv.close()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
        proc.join()
    if proc.exitcode != 0 and "error" not in msg:
        msg = {"ok": False, "error": f"child exit code {proc.exitcode}"}
    return msg


def calibrate(ctx, kernel, procs: int = 1) -> float:
    """Kernel seconds, run in `procs` forked children at once (their mean)."""
    pipes, children = [], []
    for _ in range(procs):
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_calibration_child, args=(kernel, send))
        child.start()
        send.close()
        pipes.append(recv)
        children.append(child)
    try:
        return statistics.mean(recv.recv() for recv in pipes)
    finally:
        for recv in pipes:
            recv.close()
        for child in children:
            child.join()


def run_op(ctx, name: str, arg, trace: bool) -> dict:
    """One operation (or check helper) in a forked child; returns its message."""
    from perfbench.ops import run_sample

    msg = _in_child(ctx, run_sample, (name, arg, trace))
    msg["op"], msg["traced"] = name, trace
    return msg


def measure_setup(root: Path, env: dict) -> float:
    """Seconds from starting a fresh interpreter until `import dp5a2` returns."""
    code = "import time, dp5a2; print(time.perf_counter()); print(dp5a2.__file__)"
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    stamp, path = out.stdout.split()
    if not Path(path).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"dp5a2 imported from {path}, not from ./src")
    return float(stamp) - t0


# ---------------------------------------------------------------------------
# rounds, checks, metrics
# ---------------------------------------------------------------------------


def run_rounds(ctx, inp: dict, seconds: float, trace: bool,
               rng: random.Random) -> list[dict]:
    """Whole rounds of all operations, as many as fit in `seconds`.

    A round starts while a round of mean length would end no later than a
    quarter round past `seconds`, so a slow stretch of the machine costs
    at most that overrun, not a whole round of samples.

    A round runs the operations grouped by kernel, the groups and the
    operations within them in a shuffled order, so that one kernel timing
    serves as the "after" of one sample and the "before" of the next.
    """
    samples: list[dict] = []
    begin = time.perf_counter()
    rounds = 0
    last = None  # (style, processes, seconds) of the calibration just run
    while True:
        start = time.perf_counter()
        if rounds and start + 0.75 * (start - begin) / rounds > begin + seconds:
            break
        styles = list(KERNELS)
        rng.shuffle(styles)
        order = list(OPERATIONS)
        rng.shuffle(order)
        order.sort(key=lambda op: (styles.index(STYLE[op]), OP_PROCESSES.get(op, 1)))
        for name in order:
            key = (STYLE[name], OP_PROCESSES.get(name, 1))
            kernel, ref_s = KERNELS[key[0]]
            modes = [False, True] if trace else [False]
            if trace and rng.random() < 0.5:
                modes.reverse()
            for traced in modes:
                before = last[2] if last and last[:2] == key else calibrate(ctx, kernel, key[1])
                msg = run_op(ctx, name, inp, traced)
                last = (*key, calibrate(ctx, kernel, key[1]))
                msg["cal"] = [before, last[2]]
                msg["scale"] = ref_s / (0.5 * (before + last[2]))
                samples.append(msg)
        rounds += 1
    return samples


def run_checks(ctx, inp: dict, outs: dict, seed: int) -> list[tuple[str, bool, str]]:
    """Every check of checks.py, with its reference values made for this run."""
    from perfbench import checks

    rng = random.Random(f"checks-{seed}")
    helpers = {
        "small": run_op(ctx, "small_count", rng.choice([1, 2, 5, 10, 25, 50]), False),
        "oracle": run_op(ctx, "torsor_count", inp["oracle_B"], False),
        "mdiff": run_op(ctx, "m_difference", rng.randrange(500, 2001), False),
    }
    if failed := [f"{k}: {m['error']}" for k, m in helpers.items() if not m["ok"]]:
        return [("checks.helpers", False, "; ".join(failed))]
    res = checks.check_count(outs, helpers["small"]["out"], helpers["oracle"]["out"])
    mc = checks.monte_carlo_volume(seed)
    ref_pmax = 10 * inp["p_max"]
    ref = checks.reference_euler(ref_pmax)
    res += checks.check_constant(outs, mc, ref, ref_pmax, len(checks.sieve(inp["p_max"])))
    return res + checks.check_main_term(outs, helpers["mdiff"]["out"])


def seconds_of(samples: list[dict], op: str, traced: bool = False) -> list[float]:
    """Reference-speed seconds of the successful samples of op."""
    return [s["seconds"] * s["scale"] for s in samples
            if s["op"] == op and s["traced"] == traced and s["ok"]]


def layer_metrics(inp: dict, samples: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics from the traced samples, and repeat checks on exact counts."""
    from dp5a2.dirichlet import K_CUT, K_MAIN

    from perfbench import checks

    def traced(op):
        return [s for s in samples if s["op"] == op and s["traced"] and s["ok"]]

    per_sample: dict[str, list] = {}
    for name, (unit, op, source) in LAYER_METRICS.items():
        if source is None:
            continue
        vals = []
        for s in traced(op):
            if source == "seconds":
                v = s["seconds"]
            elif source.startswith("out."):
                v = s["out"][source[4:]]
            else:
                v = s["layers"][source]
            vals.append(v * s["scale"] if unit == "s" else v)
        per_sample[name] = vals
    metrics = {name: statistics.median(v) for name, v in per_sample.items() if v}
    if "counting.count_torsor.2w.s" in metrics:
        metrics["counting.parallel_speedup"] = (metrics["counting.count_torsor.s"]
                                                / metrics["counting.count_torsor.2w.s"])
    evals = [1e6 * s["scale"] * s["layers"]["density.g0.s"] / s["layers"]["density.g0.calls"]
             for s in traced("constant_s") + traced("g2_s")]
    if evals:
        metrics["density.g0.us_per_eval"] = statistics.median(evals)
    metrics["dirichlet.eta_tuples.K_MAIN"] = checks.eta_tuples(K_MAIN, inp["main_term_B"])
    metrics["dirichlet.eta_tuples.K_CUT"] = checks.eta_tuples(K_CUT, inp["main_term_B"])
    for op in OPERATIONS:
        plain, with_trace = seconds_of(samples, op), seconds_of(samples, op, True)
        if plain and with_trace:
            metrics[f"overhead.{op}"] = statistics.median(with_trace) - statistics.median(plain)
    counts = [n for n, v in per_sample.items() if LAYER_METRICS[n][0] == "count" and v]
    varying = [n for n in counts if len(set(per_sample[n])) > 1]
    repeat = [("trace.counts_repeat", not varying,
               f"{len(counts)} exact counts, varying between samples: {varying}")]
    return metrics, repeat


def machine() -> dict:
    import numpy
    import scipy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dp5a2" / "__init__.py").is_file():
        print(f"error: no dp5a2 package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Samples are forked from this process.  dp5a2 never calls BLAS, and
    # without BLAS worker threads forking is safe.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import multiprocessing

    import numpy  # noqa: F401  (imported before timing any kernel)
    import scipy.integrate  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    try:
        kernel, ref_s = KERNELS["loops"]
        cal_before = calibrate(ctx, kernel)
        setup_wall = measure_setup(root, env)
        setup_s = setup_wall * ref_s / (0.5 * (cal_before + calibrate(ctx, kernel)))
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print(f"error: cannot import dp5a2 from {src}: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    from perfbench.ops import inputs  # imports dp5a2 once, before any sample fork

    inp = inputs(args.workload, args.seed)
    rng = random.Random(args.seed)
    samples = run_rounds(ctx, inp, args.seconds, bool(args.trace), rng)

    outs = {op: [s["out"] for s in samples if s["op"] == op and s["ok"]] for op in OPERATIONS}
    failed = [s for s in samples if not s["ok"]]
    if all(outs.values()):
        results = run_checks(ctx, inp, outs, args.seed)
    else:
        results = [("samples", False, "an operation failed in every sample")]
    if args.trace:
        metrics, repeat = layer_metrics(inp, samples)
        results += repeat
        report = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in metrics.items()}
    else:
        report = {"setup_s": {"value": setup_s, "unit": "s"}}
        for op in OPERATIONS:
            if secs := seconds_of(samples, op):
                report[op] = {"value": statistics.median(secs), "unit": "s"}
    wall = {op: statistics.median(s["seconds"] for s in samples if s["op"] == op and s["ok"])
            for op in OPERATIONS if outs[op]}

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "inputs": inp, "machine": machine(),
              "setup_wall_s": setup_wall,
              "median_wall_s": wall, "checks": results, "metrics": report,
              "samples": samples}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    for s in failed:
        print(f"[FAILED] {s['op']}: {s['error'].strip().splitlines()[-1]}")
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print("median wall seconds: " + ", ".join(f"{k} {v:.3f}" for k, v in wall.items())
          + f", setup {setup_wall:.3f}")
    correct = all(passed for _, passed, _ in results)
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failed), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
