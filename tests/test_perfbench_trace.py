"""The tracing contract between perfbench and the package.

`perfbench/run.py --trace 1` wraps `brute_force_points`, `in_U` and `psi`
under their names in the `dp5a2.counting` namespace, and `summatory_M` and
`e_star_sum` in `dp5a2.dirichlet`, and reads the layers below.  If
`count_naive`, `verify_bijection` or `predicted_main_term` stopped calling
those names, the traced run would fail only when it reads them.  Each
operation runs through `perfbench.ops.run_sample` in a fresh interpreter,
as the harness runs it, since `run_sample` refuses warm package caches.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = """
import json, sys
from perfbench.ops import inputs, run_sample

class Conn:
    def send(self, msg):
        self.msg = msg

    def close(self):
        pass

conn = Conn()
run_sample(sys.argv[1], inputs("anchored", 1), True, conn)
print(json.dumps(conn.msg))
"""


def traced_layers(op: str) -> dict:
    path = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SAMPLE, op],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    msg = json.loads(proc.stdout)
    assert msg["ok"], msg.get("error")
    return msg["layers"]


@pytest.mark.parametrize("op", ["naive_count_s", "bijection_s"])
def test_traced_oracle_layers(op):
    layers = traced_layers(op)
    assert layers["surface.brute_force_points.s"] > 0
    assert layers["surface.brute_force_points.count"] == 50_923  # rows at B = 100
    assert layers["surface.in_U.calls"] == 1
    if op == "bijection_s":
        assert layers["torsor.psi.calls"] == 1  # one psi call maps every tuple


def test_traced_main_term_layers():
    layers = traced_layers("main_term_s")  # B = 10^6: the default, float route
    for key in ("K_MAIN", "K_CUT"):
        assert layers[f"dirichlet.summatory_M.{key}.float.s"] > 0
    assert not [name for name in layers if ".exact." in name or "e_star_sum" in name]
    layers = traced_layers("main_term_exact_s")
    for key in ("K_MAIN", "K_CUT"):
        assert layers[f"dirichlet.summatory_M.{key}.exact.s"] > 0
    assert layers["dirichlet.e_star_sum.s"] > 0
