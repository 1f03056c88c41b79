"""Command-line front end.

Subcommands: count, constant, verify, predict.  Output formats: text
(default), json, and csv for count and predict; the CSV schema is fixed as
B,method,count,na,nb1,nb2,main_term,ratio,seconds and identical configs
produce identical rows apart from the seconds column.

Exit codes: 0 success, 2 usage error, 3 quadrature non-convergence,
4 verification or comparison failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import counting, density, dirichlet, verify
from .torsor import EDGES

__all__ = ["RunConfig", "build_parser", "entry", "main"]

CSV_COLUMNS = ("B", "method", "count", "na", "nb1", "nb2", "main_term", "ratio", "seconds")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    Bs: list[int] = field(default_factory=list)
    method: str = "torsor"
    split: bool = False
    A: float = 28.0
    tol: float = 1e-3
    p_max: int = 10**6
    fmt: str = "text"
    workers: int = 1
    deep: bool = False
    edges: frozenset = EDGES


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp5a2",
        description="Rational point counts on a singular quintic del Pezzo surface.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # RunConfig holds the defaults (None means "not given"); only predict --B has one here

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats)
        p.add_argument("--workers", type=int, default=None,
                       help="processes for the torsor count (default: DP5A2_WORKERS or 1)")
        p.add_argument("--config", default=None,
                       help="key=value file; command-line flags win")

    p = sub.add_parser("count", help="count points of height <= B")
    p.add_argument("--B", type=_int_list, required=True, metavar="B[,B...]")
    p.add_argument("--method", choices=("naive", "torsor", "both"))
    p.add_argument("--split", action="store_true",
                   help="classify solutions by the eta5/|eta6| and base-size cuts")
    p.add_argument("--A", type=float)
    common(p, ("text", "csv", "json"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("constant", help="the leading constant and its factors")
    p.add_argument("--tol", type=float)
    p.add_argument("--pmax", type=int)
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    common(p, ("text", "json"))  # writes no CSV rows
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--B", type=int, default=None, help="bijection check bound")
    p.add_argument("--drop-edge", default=None, metavar="V1,V2",
                   help="fault injection: remove an edge from the coprimality graph")
    common(p, ("text", "json"))  # writes no CSV rows
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("predict", help="counts against the predicted main term")
    p.add_argument("--B", type=_int_list, default=[1000, 10000], metavar="B[,B...]")
    p.add_argument("--tol", type=float)
    p.add_argument("--pmax", type=int)
    common(p, ("text", "csv", "json"))
    p.set_defaults(func=cmd_predict)

    return parser


def _load_config(path: str) -> list[str]:
    """key=value lines -> flag tokens, inserted before explicit flags."""
    flags: list[str] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                key = key.strip().replace("_", "-")
                val = val.strip()
                if val.lower() in ("true", "false"):
                    if val.lower() == "true":
                        flags.append(f"--{key}")
                else:
                    flags.extend([f"--{key}", val])
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    out = list(argv)
    path = None
    for i, tok in enumerate(out):
        if tok == "--config" and i + 1 < len(out):
            path = out[i + 1]
            del out[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del out[i]
            break
    if path is None:
        return out
    # config flags go right after the subcommand; later (explicit) flags win
    return out[:1] + _load_config(path) + out[1:]


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        print(",".join(CSV_COLUMNS))
        for r in rows:
            print(",".join(_fmt_cell(r.get(c)) for c in CSV_COLUMNS))
    elif fmt == "json":
        print(json.dumps([{c: r.get(c) for c in CSV_COLUMNS} for r in rows], indent=2))
    else:
        widths = {c: max(len(c), *(len(_fmt_cell(r.get(c))) for r in rows)) for c in CSV_COLUMNS}
        print("  ".join(c.rjust(widths[c]) for c in CSV_COLUMNS))
        for r in rows:
            print("  ".join(_fmt_cell(r.get(c)).rjust(widths[c]) for c in CSV_COLUMNS))


def _row(B: int, res: counting.CountResult, main_term=None, ratio=None) -> dict:
    return {
        "B": B,
        "method": res.method,
        "count": res.count,
        "na": res.na,
        "nb1": res.nb1,
        "nb2": res.nb2,
        "main_term": main_term,
        "ratio": ratio,
        "seconds": round(res.seconds, 3),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_count(cfg: RunConfig) -> int:
    rows: list[dict] = []
    disagree = False
    for B in cfg.Bs:
        results = []
        if cfg.method in ("naive", "both"):
            results.append(counting.count_naive(B))
        if cfg.method in ("torsor", "both"):
            results.append(
                counting.count_torsor(B, workers=cfg.workers, A=cfg.A if cfg.split else None)
            )
        rows.extend(_row(B, r) for r in results)
        if len(results) == 2 and results[0].count != results[1].count:
            disagree = True
    _emit_rows(rows, cfg.fmt)
    if disagree:
        print("count mismatch between methods", file=sys.stderr)
        return 4
    return 0


def cmd_constant(cfg: RunConfig) -> int:
    pc = density.peyre_constant(tol=cfg.tol, p_max=cfg.p_max)
    if cfg.fmt == "json":
        print(
            json.dumps(
                {
                    "alpha": str(pc.alpha),
                    "alpha_float": float(pc.alpha),
                    "omega_infty": pc.omega.value,
                    "omega_error": pc.omega.error_estimate,
                    "euler_product": pc.euler.value,
                    "euler_tail_rel_bound": pc.euler.tail_rel_bound,
                    "p_max": pc.euler.p_max,
                    "constant": pc.value,
                    "rel_error_bound": pc.rel_error_bound,
                },
                indent=2,
            )
        )
    else:
        print(f"alpha                  = {pc.alpha}")
        print(f"omega_infty            = {pc.omega.value:.8f} +- {pc.omega.error_estimate:.2e}")
        print(
            f"euler_product (p<={pc.euler.p_max}) = {pc.euler.value:.10f}"
            f" (tail rel bound {pc.euler.tail_rel_bound:.2e})"
        )
        print(f"constant               = {pc.value:.10f} (rel error <= {pc.rel_error_bound:.2e})")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    checks = verify.run_all(cfg.deep, edges=cfg.edges, B=cfg.Bs[0] if cfg.Bs else None)
    if cfg.fmt == "json":
        print(
            json.dumps(
                [
                    {"name": c.name, "passed": c.passed, "detail": c.detail,
                     "seconds": round(c.seconds, 3)}
                    for c in checks
                ],
                indent=2,
            )
        )
    else:
        for c in checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.name}: {c.detail} ({c.seconds:.2f}s)")
    return 0 if all(c.passed for c in checks) else 4


def cmd_predict(cfg: RunConfig) -> int:
    pc = density.peyre_constant(tol=cfg.tol, p_max=cfg.p_max)
    rows: list[dict] = []
    extra: list[str] = []
    for B in sorted(cfg.Bs):
        res = counting.count_torsor(B, workers=cfg.workers)
        mt = dirichlet.predicted_main_term(B, pc.omega.value).value
        ratio = res.count / mt if mt else None
        rows.append(_row(B, res, main_term=mt, ratio=ratio))
        if B >= 3:
            asym = pc.value * B * math.log(B) ** 4
            extra.append(
                f"B={B}: count={res.count} asymptote cB(log B)^4={asym:.1f}"
                f" ratio={res.count / asym:.4f}"
            )
    _emit_rows(rows, cfg.fmt)
    if cfg.fmt == "text":
        for line in extra:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def _to_config(ns: argparse.Namespace) -> RunConfig:
    """Namespace -> RunConfig; every check on outside input happens here."""
    cfg = RunConfig(subcommand=ns.subcommand)
    if hasattr(ns, "B") and ns.B is not None:
        cfg.Bs = ns.B if isinstance(ns.B, list) else [ns.B]
        if not cfg.Bs:
            raise UsageError("--B needs at least one value")
    for src, dst in (
        ("method", "method"),
        ("split", "split"),
        ("A", "A"),
        ("tol", "tol"),
        ("pmax", "p_max"),
        ("format", "fmt"),
        ("workers", "workers"),
        ("deep", "deep"),
    ):
        if hasattr(ns, src) and getattr(ns, src) is not None:
            setattr(cfg, dst, getattr(ns, src))
    if getattr(ns, "json", False):
        cfg.fmt = "json"
    runs_naive = cfg.subcommand == "verify" or cfg.method != "torsor"
    for B in cfg.Bs:
        if B < 1:
            raise UsageError("B must be >= 1")
        if runs_naive and B > counting.NAIVE_MAX_B:
            raise UsageError(f"naive enumeration refused for B > {counting.NAIVE_MAX_B}")
        if B > counting.TORSOR_MAX_B:
            raise UsageError(f"torsor count refused for B > {counting.TORSOR_MAX_B}")
        if cfg.split and cfg.method != "naive" and B < 3:
            raise UsageError("--split needs B >= 3 (log B > 1)")
    if not math.isfinite(cfg.A):
        raise UsageError("--A must be a finite number")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError("tolerance must be positive and finite")
    if cfg.p_max < 2:
        raise UsageError("--pmax must be >= 2")
    env = os.environ.get("DP5A2_WORKERS")
    if ns.workers is None and env:
        try:
            cfg.workers = int(env)
        except ValueError:
            raise UsageError(f"DP5A2_WORKERS is not an integer: {env!r}")
    if cfg.workers < 1:
        raise UsageError("the worker count (--workers or DP5A2_WORKERS) must be >= 1")
    if getattr(ns, "drop_edge", None):
        edge = frozenset(x.strip() for x in ns.drop_edge.split(","))
        if edge not in EDGES:
            raise UsageError(f"--drop-edge wants V1,V2, an edge of the graph: {ns.drop_edge}")
        cfg.edges = EDGES - {edge}
    return cfg


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        ns = parser.parse_args(_expand_config(list(argv)))
        cfg = _to_config(ns)
        return ns.func(cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except density.QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except dirichlet.MainTermIdentityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
