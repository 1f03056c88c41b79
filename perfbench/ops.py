"""The timed operations, run one per fresh child process.

Each operation is one call into the public dp5a2 API.  `run_sample` is the
child-process entry point: it checks that the package caches are as a
fresh `dp5a2` process has them, optionally installs the tracing wrappers,
times the call and sends a plain dict back over a pipe.

The tracing wrappers replace a public function in the namespace where its
caller looks it up (for example `dp5a2.counting.psi`, which
`verify_bijection` calls), so nothing inside the package changes.  They are
installed only in traced samples.
"""

from __future__ import annotations

import random
import time
import traceback

import dp5a2
from dp5a2 import arith, counting, density, dirichlet, surface

# Inputs of the `anchored` workload.  perfbench/README.md explains each size.
ANCHORED = {"count_B": 10**4, "oracle_B": 100, "tol": 1e-2, "p_max": 10**6,
            "t0": 2.0, "main_term_B": 10**6}
# omega_infty(1e-6), the value the CLI would pass to predicted_main_term
OMEGA_REF = 27.33092822


def inputs(workload: str, seed: int) -> dict:
    """The inputs of one run: fixed for `anchored`, drawn from the seed for `seeded`.

    The seeded ranges are narrow, so both workloads do about the same work;
    count_torsor keeps B = 10^4, its only anchor that fits in a sample.
    """
    if workload == "anchored":
        return dict(ANCHORED)
    rng = random.Random(f"inputs-{seed}")
    return {"count_B": 10**4, "oracle_B": rng.randrange(98, 103), "tol": 1e-2,
            "p_max": rng.randrange(900_000, 1_100_001), "t0": rng.uniform(1.9, 2.1),
            "main_term_B": rng.randrange(970_000, 1_030_001)}


class Tracer:
    """Spans and per-function tallies, kept in memory for one sample."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.tallies: dict[str, list] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, tag=None, size=None):
        """Wrap fn so that every call records a span with its parent.

        tag(*args) refines the span name; size(result) is stored as a count.
        """

        def wrapper(*args, **kwargs):
            label = name if tag is None else f"{name}.{tag(*args, **kwargs)}"
            sid = len(self.spans)
            rec = {"id": sid, "name": label,
                   "parent": self._stack[-1] if self._stack else None}
            self.spans.append(rec)
            self._stack.append(sid)
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if size is not None:
                rec["count"] = size(out)
            return out

        return wrapper

    def tally(self, name: str, fn):
        """Wrap fn so that calls are counted and their time summed (hot paths)."""
        acc = self.tallies.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += time.perf_counter() - t
                acc[0] += 1

        return wrapper

    def layers(self) -> dict[str, float]:
        """Seconds and counts per span name, calls and seconds per tally."""
        out: dict[str, float] = {}
        for s in self.spans:
            key = s["name"]
            out[f"{key}.s"] = out.get(f"{key}.s", 0.0) + s["end"] - s["start"]
            if "count" in s:
                out[f"{key}.count"] = out.get(f"{key}.count", 0) + s["count"]
        for name, (calls, secs) in self.tallies.items():
            if calls:
                out[f"{name}.calls"] = calls
                out[f"{name}.s"] = secs
        return out


def _m_route(k, t, *, exact=True, via="eta"):
    key = "K_MAIN" if tuple(k) == dirichlet.K_MAIN else "K_CUT"
    return f"{key}.{'exact' if exact else 'float'}"


def install(tr: Tracer) -> None:
    """Wrap the public functions where their callers look them up."""
    counting.brute_force_points = tr.span("surface.brute_force_points",
                                          counting.brute_force_points, size=len)
    counting.in_U = tr.tally("surface.in_U", counting.in_U)
    counting.psi = tr.tally("torsor.psi", counting.psi)
    density.omega_infty = tr.span("density.omega_infty", density.omega_infty)
    density.euler_product = tr.span("density.euler_product", density.euler_product)
    density.primes = tr.span("arith.primes", density.primes)
    density.g0 = tr.tally("density.g0", density.g0)
    dirichlet.summatory_M = tr.span("dirichlet.summatory_M", dirichlet.summatory_M,
                                    tag=_m_route)
    dirichlet.e_star_sum = tr.span("dirichlet.e_star_sum", dirichlet.e_star_sum)


def cold_cache_sizes() -> dict[str, int]:
    """Entries held by the package's lru_caches; all 0 in a fresh process."""
    caches = {
        "arith.factorize": arith.factorize,
        "arith.phi_star": arith.phi_star,
        "arith.phi_dagger": arith.phi_dagger,
        "surface.brute_force_points": surface.brute_force_points,
        "dirichlet.theta0": dirichlet.theta0,
        "dirichlet._theta_coeff": dirichlet._theta_coeff,
    }
    return {k: f.cache_info().currsize for k, f in caches.items()}


# ---------------------------------------------------------------------------
# operations: each returns (timed seconds, plain-data outputs)
# ---------------------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def op_torsor_count(inp: dict, workers: int):
    B = inp["count_B"]
    s, r = _timed(dp5a2.count_torsor, B, workers=workers)
    return s, {"B": B, "workers": workers, "count": r.count}


def op_naive_count(inp: dict):
    B = inp["oracle_B"]
    s, r = _timed(dp5a2.count_naive, B)
    return s, {"B": B, "count": r.count}


def op_bijection(inp: dict):
    B = inp["oracle_B"]
    s, r = _timed(dp5a2.verify_bijection, B)
    return s, {"B": B, "equal": r.equal, "n_naive": r.n_naive,
               "n_torsor": r.n_torsor, "duplicates": len(r.duplicate_images),
               "only_naive": len(r.only_naive), "only_torsor": len(r.only_torsor)}


def op_constant(inp: dict):
    s, pc = _timed(dp5a2.peyre_constant, inp["tol"], inp["p_max"])
    return s, {"tol": inp["tol"], "p_max": inp["p_max"],
               "alpha": [pc.alpha.numerator, pc.alpha.denominator],
               "omega": pc.omega.value, "omega_err": pc.omega.error_estimate,
               "omega_evals": pc.omega.evaluations,
               "euler": pc.euler.value, "euler_n_primes": pc.euler.n_primes,
               "euler_tail_rel_bound": pc.euler.tail_rel_bound,
               "value": pc.value}


def op_g2(inp: dict):
    s, r = _timed(dp5a2.G2, inp["t0"], inp["tol"])
    return s, {"t0": inp["t0"], "tol": inp["tol"], "value": r.value,
               "err": r.error_estimate, "evals": r.evaluations}


def op_main_term(inp: dict):
    # B > 10^4, so this is the float route the CLI takes
    B = inp["main_term_B"]
    s, r = _timed(dp5a2.predicted_main_term, B, OMEGA_REF)
    return s, {"B": B, "value": r.value}


def op_main_term_exact(inp: dict):
    B = inp["main_term_B"]
    s, r = _timed(dp5a2.predicted_main_term, B, OMEGA_REF, cross_check=True)
    return s, {"B": B, "value": r.value}


# untimed helpers the checks call in a child of their own


def check_small_count(B: int):
    """Both engines at a small B, for the README anchor table."""
    return 0.0, {"B": B, "torsor": dp5a2.count_torsor(B).count,
                 "naive": dp5a2.count_naive(B).count}


def check_torsor_count(B: int):
    """The torsor engine alone, to check the naive oracle at its B."""
    return 0.0, {"B": B, "count": dp5a2.count_torsor(B).count}


def check_m_difference(B: int):
    """M difference by the eta route and by the slow n route, exactly."""
    diff_eta = (dirichlet.summatory_M(dirichlet.K_MAIN, B)
                - dirichlet.summatory_M(dirichlet.K_CUT, B))
    diff_n = (dirichlet.summatory_M(dirichlet.K_MAIN, B, via="n")
              - dirichlet.summatory_M(dirichlet.K_CUT, B, via="n"))
    mt = dirichlet.predicted_main_term(B, OMEGA_REF, cross_check=True)
    return 0.0, {"B": B, "omega": OMEGA_REF,
                 "eta": [diff_eta.coeff.numerator, diff_eta.coeff.denominator,
                         diff_eta.zpow],
                 "n": [diff_n.coeff.numerator, diff_n.coeff.denominator, diff_n.zpow],
                 "main_term": mt.value}


# end-to-end metric -> timed operation on the run's inputs
OPS = {
    "torsor_count_s": lambda inp: op_torsor_count(inp, 1),
    "torsor_count_2w_s": lambda inp: op_torsor_count(inp, 2),
    "naive_count_s": op_naive_count,
    "bijection_s": op_bijection,
    "constant_s": op_constant,
    "g2_s": op_g2,
    "main_term_s": op_main_term,
    "main_term_exact_s": op_main_term_exact,
}
HELPERS = {"small_count": check_small_count, "torsor_count": check_torsor_count,
           "m_difference": check_m_difference}


def run_sample(name: str, arg, trace: bool, conn) -> None:
    """Child-process entry point: one cold sample of one operation.

    name is a key of OPS, called on the inputs dict arg, or of HELPERS,
    called on arg as it is.
    """
    try:
        sizes = cold_cache_sizes()
        if any(sizes.values()):
            raise RuntimeError(f"caches not cold at sample start: {sizes}")
        fn = OPS.get(name) or HELPERS[name]
        tr = None
        if trace:
            tr = Tracer()
            install(tr)
        seconds, out = fn(arg)
        msg = {"ok": True, "seconds": seconds, "out": out}
        if tr is not None:
            layers = tr.layers()
            for cname in ("factorize", "phi_star"):
                info = getattr(arith, cname).cache_info()
                layers[f"arith.{cname}.hits"] = info.hits
                layers[f"arith.{cname}.misses"] = info.misses
            msg["layers"] = layers
            msg["spans"] = tr.spans
    except Exception:  # reported to the parent process as a failed operation
        msg = {"ok": False, "error": traceback.format_exc()}
    conn.send(msg)
    conn.close()
