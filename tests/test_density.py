import random

import pytest

from dp5a2.density import (
    G2,
    alpha_constant,
    euler_product,
    g0,
    g0_subdivision,
    g1a,
    g1b,
    g_family,
    h_max,
    omega_infty,
)
from dp5a2.torsor import scaling_context

# frozen by the first converged run; criterion checks recompute it anyway
OMEGA_REF = 27.33092822


def test_h_max_values():
    assert h_max(1, 1, 1, 1) == 2
    assert h_max(1, 0, 0, 0) == 0
    # entries at the B = 1 solution (1,0,0,0,1,-1): all |psi_i| <= 1
    assert h_max(1, 0.0, 1.0, -1.0) == 1


def test_h_scaling_invariance():
    rng = random.Random(7)
    for _ in range(50):
        t0 = rng.uniform(0.2, 3.0)
        t1 = rng.uniform(-2, 2)
        t5 = rng.uniform(0, 2)
        t6 = rng.uniform(-3, 3)
        lam = rng.uniform(0.5, 2.0)
        a = h_max(t0 * lam, t1 / lam**4, t5 / lam**4, t6 * lam**6)
        b = h_max(t0, t1, t5, t6)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_h_even_in_t6_with_t1_flip():
    assert h_max(1.1, -0.3, 0.7, -2.0) == h_max(1.1, 0.3, 0.7, 2.0)


def test_g0_known_values():
    assert g0(1, 0.5, 0.0) == 2.0
    assert g0(1, 2.0, 0.0) == 0.0  # t0^4 t5 > 1 kills the section
    assert g0(2, 0.0, 0.0) == 2 * 2**-4


def test_g0_even_in_t6():
    for t5 in (0.1, 0.5, 0.9):
        for t6 in (0.3, 1.7):
            assert g0(1, t5, t6) == pytest.approx(g0(1, t5, -t6), rel=1e-12)


def test_g0_methods_agree():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(60):
        t0 = rng.uniform(0.5, 2.0)
        t5 = rng.uniform(0.0, t0**-4)
        t6 = rng.uniform(-3, 3)
        a = g0(t0, t5, t6)
        b = g0_subdivision(t0, t5, t6, 1e-8)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-7
    # the same domain guards
    assert g0_subdivision(1, 2.0, 0.0, 1e-8) == g0(1, 2.0, 0.0) == 0.0
    assert g0_subdivision(1, -0.1, 0.0, 1e-8) == g0(1, -0.1, 0.0) == 0.0
    for route in (lambda: g0(0.0, 0.5, 0.0), lambda: g0_subdivision(0.0, 0.5, 0.0, 1e-8)):
        with pytest.raises(ValueError):
            route()


def test_g0_support_bounds():
    # |t0^4 t1| <= 1 and |t0^4 t5| <= 1 directly; t5^3 t6^2 <= 2 from the
    # last two entries of h by the triangle inequality
    t0 = 1.3
    rng = random.Random(3)
    for _ in range(200):
        t1 = rng.uniform(-1.5, 1.5)
        t5 = rng.uniform(0, 1.5)
        t6 = rng.uniform(-4, 4)
        if h_max(t0, t1, t5, t6) <= 1:
            assert abs(t1) <= t0**-4
            assert 0.0 <= t5 <= t0**-4
            assert t5**3 * t6**2 <= 2.0


def test_omega_and_scaling():
    om = omega_infty(1e-5)
    assert om.value == pytest.approx(OMEGA_REF, rel=1e-6)
    assert om.error_estimate < 1e-3
    v = G2(1.5, 1e-5)
    assert 1.5**2 * v.value == pytest.approx(om.value, rel=1e-4)


def test_g2_decomposition():
    ctx = scaling_context((2, 1, 1, 1), 100)
    fam = g_family(ctx, tol=1e-4)
    assert fam.decomposition_gap <= fam.combined_error
    assert fam.a.value > 0 and fam.b.value > 0


def test_g1a_g1b_basics():
    ctx = scaling_context((1, 1, 1, 1), 32)
    # g1a vanishes once the t5 window closes
    assert g1a(ctx.y0, 1e9, ctx) == 0.0
    assert g1b(ctx.y0, 0.0, ctx) == 0.0
    assert g1a(ctx.y0, 0.1, ctx) > 0
    assert g1b(ctx.y0, 0.1, ctx) > 0


def test_alpha_constant():
    from fractions import Fraction

    assert alpha_constant() == Fraction(1, 864)


def test_euler_product_cutoff_consistency():
    a = euler_product(10**3)
    b = euler_product(10**4)
    assert abs(b.value - a.value) <= a.tail_rel_bound * a.value
    assert 0 < b.value < 1

