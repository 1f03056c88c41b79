import math
from itertools import combinations
from math import gcd

import pytest

from dp5a2.counting import equation_solutions_box
from dp5a2.surface import is_on_surface
from dp5a2.torsor import (
    EDGES,
    VERTICES,
    TorsorPoint,
    coprimality_full,
    coprimality_reduced,
    height_forms,
    psi,
    required_coprime_pairs,
    scaling_context,
)
from dp5a2.verify import check_coprimality_equiv

# the four solutions at B = 1, frozen
B1_SOLUTIONS = [
    (1, 1, 1, 1, 1, -1, 0, 1),
    (1, 1, 1, 1, 1, -1, 1, 0),
    (1, 1, 1, 1, 1, 1, -1, 0),
    (1, 1, 1, 1, 1, 1, 0, -1),
]


def test_graph_shape():
    assert len(VERTICES) == 8
    assert len(EDGES) == 10
    pairs = {frozenset(p) for p in required_coprime_pairs(EDGES)}
    assert len(pairs) == 18
    # spot-check: adjacent pairs are exempt, non-adjacent are required
    assert frozenset(("A1", "E1")) not in pairs
    assert frozenset(("A1", "E2")) in pairs
    assert frozenset(("E4", "E6")) in pairs


def test_fields_follow_vertex_order():
    assert TorsorPoint._fields == (
        "eta1", "eta2", "eta3", "eta4", "eta5", "eta6", "alpha1", "alpha2",
    )
    # eta1 -> E1, ..., alpha2 -> A2
    assert tuple(f[0].upper() + f[-1] for f in TorsorPoint._fields) == VERTICES


def test_torsor_point_is_a_tuple():
    s = B1_SOLUTIONS[0]
    t = TorsorPoint(*s)
    assert t == s and hash(t) == hash(s)
    assert (t[0], t[5], t[6], t[7]) == (t.eta1, t.eta6, t.alpha1, t.alpha2)
    e1, _, _, _, _, e6, a1, a2 = t
    assert (e1, e6, a1, a2) == (1, -1, 0, 1)


def test_torsor_point_validation():
    with pytest.raises(ValueError):
        TorsorPoint(0, 1, 1, 1, 1, 1, 0, -1)
    with pytest.raises(ValueError):
        TorsorPoint(1, 1, 1, 1, 1, 0, 0, -1)
    t = TorsorPoint(1, 1, 1, 1, 1, 1, 0, -1)
    assert t.eta == (1, 1, 1, 1)
    assert t.satisfies_equation()


@pytest.mark.parametrize("B", [0, -1.0, math.nan, math.inf])
def test_scaling_context_rejects_bad_B(B):
    with pytest.raises(ValueError, match="B positive and finite"):
        scaling_context((1, 1, 1, 1), B)


def test_equation():
    # eta4 eta5^2 eta6 + eta1 alpha1 + eta2 alpha2 = 0
    assert TorsorPoint(2, 1, 1, 1, 1, 1, 1, -3).satisfies_equation()
    assert not TorsorPoint(2, 1, 1, 1, 1, 1, 1, -2).satisfies_equation()


def test_psi_frozen_images():
    images = sorted(tuple(psi(TorsorPoint(*s))) for s in B1_SOLUTIONS)
    assert images == [
        (1, -1, 0, -1, 0, 0),
        (1, 0, 0, 0, -1, -1),
        (1, 0, 0, 0, 1, -1),
        (1, 1, 0, -1, 0, 0),
    ]
    for s in B1_SOLUTIONS:
        assert is_on_surface(psi(TorsorPoint(*s)))


def test_psi_rejects_imprimitive():
    # gcd(eta6, eta1) = 2 violates the coprimality graph; image has gcd 4
    t = TorsorPoint(2, 1, 1, 1, 1, 2, 1, -4)
    assert t.satisfies_equation()
    with pytest.raises(RuntimeError):
        psi(t)


def test_coprimality_routes_agree_on_valid_points():
    for s in B1_SOLUTIONS:
        t = TorsorPoint(*s)
        assert coprimality_full(t) and coprimality_reduced(t)
    bad = TorsorPoint(2, 1, 1, 1, 1, 2, 1, -4)
    assert not coprimality_full(bad) and not coprimality_reduced(bad)


def test_coprimality_fault_injection():
    # removing an edge adds a requirement and must break the equivalence
    t = TorsorPoint(2, 1, 1, 1, 1, 1, 2, -5)
    assert t.satisfies_equation()
    assert coprimality_full(t) == coprimality_reduced(t)
    pruned = frozenset(e for e in EDGES if e != frozenset(("A1", "E1")))
    assert coprimality_full(t, pruned) != coprimality_reduced(t)


def _graph_coprime_by_name(t, edges):
    value = {
        "E1": t.eta1, "E2": t.eta2, "E3": t.eta3, "E4": t.eta4,
        "E5": t.eta5, "E6": t.eta6, "A1": t.alpha1, "A2": t.alpha2,
    }
    return all(
        gcd(value[a], value[b]) == 1
        for a, b in combinations(VERTICES, 2)
        if frozenset((a, b)) not in edges
    )


@pytest.mark.parametrize(
    "dropped", [None, *sorted(EDGES, key=sorted)],
    ids=lambda e: "full" if e is None else "-".join(sorted(e)),
)
def test_coprimality_full_matches_name_lookup(dropped):
    edges = EDGES if dropped is None else EDGES - {dropped}
    verdicts = [
        (coprimality_full(t, edges), _graph_coprime_by_name(t, edges))
        for t in equation_solutions_box(3)
    ]
    assert all(by_index == by_name for by_index, by_name in verdicts)
    assert {v for v, _ in verdicts} == {True, False}


# first mismatch of check_coprimality_equiv(30, 5) with one edge dropped
DROPPED_EDGE_MISMATCH = {
    ("A1", "A2"): "(1, 1, 1, 1, 1, -5, 0, 5) (height scan)",
    ("A1", "E1"): "(2, 1, 1, 1, 1, -5, 0, 5) (height scan)",
    ("A1", "E6"): "(1, 1, 1, 1, 1, -5, 0, 5) (height scan)",
    ("A2", "E2"): "(1, 2, 1, 1, 1, -5, 1, 2) (height scan)",
    ("A2", "E6"): "(1, 1, 1, 1, 1, -5, 0, 5) (height scan)",
    ("E1", "E3"): "(2, 1, 2, 1, 1, -5, 1, 3) (box scan)",
    ("E2", "E3"): "(1, 2, 2, 1, 1, -5, -5, 5) (box scan)",
    ("E3", "E4"): "(1, 1, 2, 2, 1, -5, 5, 5) (box scan)",
    ("E4", "E5"): "(1, 1, 1, 2, 2, -1, 1, 7) (height scan)",
    ("E5", "E6"): "(1, 1, 1, 1, 2, -2, 1, 7) (height scan)",
}


def test_mismatch_table_covers_every_edge():
    assert {frozenset(e) for e in DROPPED_EDGE_MISMATCH} == EDGES


@pytest.mark.parametrize("edge", sorted(DROPPED_EDGE_MISMATCH), ids="-".join)
def test_dropping_any_edge_fails_the_equivalence_check(edge):
    res = check_coprimality_equiv(30, 5, edges=EDGES - {frozenset(edge)})
    assert not res.passed
    assert res.detail == f"mismatch at {DROPPED_EDGE_MISMATCH[edge]}"


def test_scaling_context_frozen_values():
    ctx = scaling_context((1, 1, 1, 1), 32)
    assert (ctx.y0, ctx.y1, ctx.y5, ctx.y6) == (0.5, 2.0, 2.0, 2.0)
    assert ctx.identity_residual() == pytest.approx(0.0, abs=1e-12)


def test_scaling_identity_various():
    # Y1 Y5 Y6 / (eta2 Y0^2) = B / (eta1 eta2 eta3 eta4)
    for eta, B in [((2, 3, 1, 5), 10**4), ((7, 1, 2, 1), 999), ((1, 1, 1, 1), 2)]:
        ctx = scaling_context(eta, B)
        assert abs(ctx.identity_residual()) < 1e-9


def test_height_forms_agree_off_boundary():
    t = TorsorPoint(1, 1, 1, 1, 1, 1, 0, -1)
    exact, floating = height_forms(t, 100)
    assert exact and floating
    exact, floating = height_forms(t, 1)
    assert exact  # max |psi_i| = 1
