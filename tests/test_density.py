import math
import random

import numpy as np
import pytest

from dp5a2 import density
from dp5a2.density import (
    G2,
    alpha_constant,
    euler_product,
    g0,
    g0_subdivision,
    g2_direct,
    g2a,
    g2b,
    g_family,
    h_max,
    omega_infty,
    peyre_constant,
)
from dp5a2.torsor import scaling_context

# omega_infty(1e-11) = 27.3306204235 +- 1.5e-10; the criterion checks
# recompute it anyway
OMEGA_REF = 27.33062042


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
    # arrays on the quadrature's own path: t5 = w^4 and t6 = sqrt(2) z^2 / w^6
    # reach 1e-8 and 1e12; the bisection resolves 1e-9 t5, the check asks 1e-7 t5
    w = np.exp(np.array([rng.uniform(math.log(0.01), 0.0) for _ in range(60)]))
    z = np.array([rng.uniform(0.0, 1.0) for _ in range(60)])
    t5, t6 = w**4, math.sqrt(2.0) * z * z / w**6
    a = g0(1.0, t5, t6)
    b = [g0_subdivision(1.0, x, y, 1e-9 * x) for x, y in zip(t5, t6)]
    assert a.shape == t5.shape
    assert np.all(np.abs(a - b) <= 1e-7 * t5)
    assert np.count_nonzero(a) >= 30
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
    # four outer schemes agree on 27.33062042351 within 3e-11
    tight = omega_infty(1e-11)
    assert tight.error_estimate < 1e-9
    assert tight.value == pytest.approx(27.33062042351, abs=1e-9)
    v = G2(1.5, 1e-5)
    assert 1.5**2 * v.value == pytest.approx(om.value, rel=1e-4)


def test_g2_decomposition():
    ctx = scaling_context((2, 1, 1, 1), 100)
    fam = g_family(ctx, tol=1e-4)
    assert fam.decomposition_gap <= fam.combined_error
    assert fam.a.value > 0 and fam.b.value > 0


@pytest.mark.parametrize("w", [0.02, 0.05, 0.0736, 0.1, 0.5, 0.9])
def test_inner_integral_matches_midpoint(w):
    # the kink-split inner z integral against a 10^6-point midpoint rule;
    # nested scalar quadrature was 16 w^3 too high here for w < 0.09
    n = 10**6
    z = (np.arange(n) + 0.5) / n
    mid = np.sum(2.0 * z * g0(1.0, w**4, math.sqrt(2.0) * z * z / w**6)) / n
    value, error, _ = density._inner(1.0, np.array([w]), np.zeros(1), np.ones(1))
    assert value[0] == pytest.approx(mid, rel=1e-7)
    assert error[0] <= 1e-9 * value[0]


def test_g2_family_limits():
    # at t0 = Y0 = 1, t5 < t0^-4 = 1 / Y5: the Y5 t5 > 1 window of g2a is closed
    closed = scaling_context((2, 1, 1, 1), 4)
    assert closed.y0 == closed.y5 == 1.0
    a = g2a(closed.y0, closed)
    assert a.value == 0.0 and a.evaluations == 0
    assert g2b(closed.y0, closed) == g2_direct(closed.y0, closed)
    ctx = scaling_context((1, 1, 1, 1), 32)
    assert g2a(ctx.y0, ctx).value > 0
    assert g2b(ctx.y0, ctx).value > 0


def test_alpha_constant():
    from fractions import Fraction

    assert alpha_constant() == Fraction(1, 864)


def test_peyre_constant_rejects_pmax_before_integrating(monkeypatch):
    def must_not_run(tol):
        raise AssertionError("omega_infty ran before p_max was checked")

    monkeypatch.setattr(density, "omega_infty", must_not_run)
    with pytest.raises(ValueError, match="p_max must be >= 2"):
        peyre_constant(1e-15, 1)


def test_euler_product_cutoff_consistency():
    a = euler_product(10**3)
    b = euler_product(10**4)
    assert abs(b.value - a.value) <= a.tail_rel_bound * a.value
    assert 0 < b.value < 1



_CTX = scaling_context((1, 1, 1, 1), 32)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "integral",
    [
        omega_infty,
        lambda tol: G2(1.5, tol),
        lambda tol: g2a(_CTX.y0, _CTX, tol),
        lambda tol: g2b(_CTX.y0, _CTX, tol),
        lambda tol: g2_direct(_CTX.y0, _CTX, tol),
    ],
    ids=["omega_infty", "G2", "g2a", "g2b", "g2_direct"],
)
def test_region_rejects_bad_tol_before_integrating(monkeypatch, integral, tol):
    def must_not_run(*args):
        raise AssertionError("g0 ran before tol was checked")

    monkeypatch.setattr(density, "g0", must_not_run)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        integral(tol)
