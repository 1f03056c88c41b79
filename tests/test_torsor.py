import pytest

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


def test_torsor_point_validation():
    with pytest.raises(ValueError):
        TorsorPoint(0, 1, 1, 1, 1, 1, 0, -1)
    with pytest.raises(ValueError):
        TorsorPoint(1, 1, 1, 1, 1, 0, 0, -1)
    t = TorsorPoint(1, 1, 1, 1, 1, 1, 0, -1)
    assert t.eta == (1, 1, 1, 1)
    assert t.satisfies_equation()


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
