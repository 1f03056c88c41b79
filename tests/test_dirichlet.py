from fractions import Fraction

import pytest

from dp5a2 import dirichlet, verify
from dp5a2.dirichlet import (
    K_CUT,
    K_MAIN,
    ZETA2_INV,
    ZetaRational,
    delta_k,
    e_star_sum,
    euler_reference_factor,
    g_k_zero_factor,
    local_factor,
    local_factor_truncated,
    predicted_main_term,
    summatory_M,
    theta,
    theta0,
    theta2a,
)


class TestZetaRational:
    def test_arithmetic(self):
        a = ZetaRational(Fraction(1, 2), 1)
        b = ZetaRational(Fraction(1, 3), 1)
        assert (a + b).coeff == Fraction(5, 6)
        assert (a - b).coeff == Fraction(1, 6)
        assert (a * b) == ZetaRational(Fraction(1, 6), 2)
        assert (a / 2).coeff == Fraction(1, 4)
        assert float(ZetaRational(Fraction(1), 1)) == pytest.approx(ZETA2_INV)

    def test_zero_normalizes_power(self):
        z = ZetaRational(Fraction(0), 5)
        assert z.zpow == 0
        assert not z
        assert (z + ZetaRational(Fraction(2), 3)).zpow == 3

    def test_mixed_powers_rejected(self):
        with pytest.raises(ValueError):
            ZetaRational(Fraction(1), 1) + ZetaRational(Fraction(1), 2)


class TestTheta:
    def test_theta0_examples(self):
        assert theta0((1, 1, 1, 1)) == 1
        # eta3 even, eta2 odd: the k23 = 2 term cancels half
        assert theta0((1, 1, 2, 1)) == 0
        assert theta0((2, 1, 2, 1)) == Fraction(1, 2)

    def test_theta_unit(self):
        t = theta((1, 1, 1, 1))
        assert t == ZetaRational(Fraction(1), 1)
        assert float(t) == pytest.approx(ZETA2_INV)

    def test_theta_vanishes_without_pairwise_coprimality(self):
        assert not theta((2, 2, 1, 1))
        assert not theta((2, 1, 1, 2))
        assert not theta((1, 3, 1, 3))

    def test_routes_agree_small_box(self):
        from math import gcd

        for e1 in range(1, 5):
            for e2 in range(1, 5):
                for e3 in range(1, 5):
                    for e4 in range(1, 5):
                        eta = (e1, e2, e3, e4)
                        if gcd(e1, e2) == gcd(e1, e4) == gcd(e2, e4) == 1:
                            assert theta(eta) == theta2a(eta)
                        else:
                            assert not theta(eta)

    def test_closed_route_shares_no_staged_code(self, monkeypatch):
        box = [(e1, e2, e3, e4) for e1 in range(1, 7) for e2 in range(1, 7)
               for e3 in range(1, 13) for e4 in range(1, 7)]
        expected = [theta(eta) for eta in box]

        def forbidden(*args):
            raise AssertionError("the closed theta called a staged helper")

        for name in ("theta0", "phi_star", "_p2_correction", "moebius",
                     "squarefree_divisors"):
            monkeypatch.setattr(dirichlet, name, forbidden)
        dirichlet._theta_coeff.cache_clear()
        try:
            assert [theta(eta) for eta in box] == expected
        finally:
            dirichlet._theta_coeff.cache_clear()

    def test_consistency_check_catches_wrong_staged_factor(self, monkeypatch):
        right = dirichlet._p2_correction
        monkeypatch.setattr(dirichlet, "_p2_correction",
                            lambda n: right(n) * Fraction(101, 100))
        dirichlet.theta0.cache_clear()
        dirichlet._theta_coeff.cache_clear()
        try:
            res = verify.check_theta_consistency(12)
        finally:
            dirichlet.theta0.cache_clear()
            dirichlet._theta_coeff.cache_clear()
        assert not res.passed
        assert res.detail.startswith("mismatch at eta=")


class TestSummatory:
    def test_delta_unit(self):
        assert delta_k(K_MAIN, 1) == ZetaRational(Fraction(1), 1)

    def test_delta_four(self):
        # n = 4 admits eta = (1,1,1,2) with base 2^2 = 4; theta halves
        assert delta_k(K_MAIN, 4) == ZetaRational(Fraction(1, 2), 1)

    def test_routes_agree(self):
        a = summatory_M(K_MAIN, 60, via="eta")
        b = summatory_M(K_MAIN, 60, via="n")
        assert a == b
        assert a.coeff == Fraction(8573, 2520)
        c = summatory_M(K_CUT, 60, via="eta")
        assert c == summatory_M(K_CUT, 60, via="n")
        assert c.coeff == Fraction(2963, 1260)

    def test_float_route_tracks_exact(self):
        for k in (K_MAIN, K_CUT):
            for t in (10, 100, 400, 10**5):
                ex = summatory_M(k, t)
                fl = summatory_M(k, t, exact=False)
                assert fl == pytest.approx(float(ex), rel=1e-12)

    def test_shell_is_set_difference(self):
        for B in (1, 7, 50, 300):
            shell = e_star_sum(B)
            diff = summatory_M(K_MAIN, B) - summatory_M(K_CUT, B)
            assert shell == diff

    def test_main_term_values(self):
        mt = predicted_main_term(10**3, 1.0)
        assert mt.value == pytest.approx(mt.omega * 10**3 * (mt.m_main - mt.m_cut))
        assert mt.m_main > mt.m_cut > 0
        # at B = 1 only eta = (1,1,1,1) is in either sublevel set, so the
        # shell is empty and the prediction degenerates to 0
        assert predicted_main_term(1, 2.5).value == 0.0
        with pytest.raises(ValueError):
            predicted_main_term(0, 1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            summatory_M(K_MAIN, 10, via="divisor")

    @pytest.mark.parametrize("k", [(1, 1, 1, 1), (2, 2, 3, 3), (1, 2, 1, 3), (3, 1, 2, 4),
                                   (40, 2, 3, 2), (2, 2, 3, 63)])
    def test_key_route_matches_n_route_for_other_k(self, k):
        # t at and around perfect squares, cubes and fourth powers checks
        # the integer k4-th root at the ends of the eta4 ranges; k_j above
        # 32 checks the kernel's cap on the exponents
        for t in (1, 2, 7, 8, 9, 15, 16, 17, 26, 27, 28, 63, 64, 65, 81, 200):
            ex = summatory_M(k, t)
            assert ex == summatory_M(k, t, via="n"), (k, t)
            assert summatory_M(k, t, exact=False) == pytest.approx(float(ex), rel=1e-12)


def fraction_oracle(B: int, shell: bool) -> tuple[Fraction, Fraction]:
    """zeta(2) theta(eta)/(e1 e2 e3 e4) summed as one plain Fraction per term.

    Returns the sums over e1^2 e2^2 e3^3 e4^2 <= B (with shell, over the
    part of that set outside the cut) and over the cut e1^3 e2^3 e3^4 e4^2 <= B.
    """
    main = cut = Fraction(0)
    e1 = 1
    while e1**2 <= B:
        e2 = 1
        while e1**2 * e2**2 <= B:
            e3 = 1
            while (base := e1**2 * e2**2 * e3**3) <= B:
                e4 = 1
                while base * e4**2 <= B:
                    term = dirichlet._theta_coeff((e1, e2, e3, e4)) / (e1 * e2 * e3 * e4)
                    in_cut = base * e4**2 * e1 * e2 * e3 <= B
                    if not (shell and in_cut):
                        main += term
                    if in_cut:
                        cut += term
                    e4 += 1
                e3 += 1
            e2 += 1
        e1 += 1
    return main, cut


class TestExactSums:
    """The common-denominator sums against one Fraction per term."""

    @pytest.mark.parametrize("B", [-1, 0, 1, 7, 300, 10**4, 10**5])
    def test_sums_match_fraction_oracle(self, B):
        main, cut = fraction_oracle(B, shell=False)
        assert summatory_M(K_MAIN, B) == ZetaRational(main, 1)
        assert summatory_M(K_CUT, B) == ZetaRational(cut, 1)
        shell, _ = fraction_oracle(B, shell=True)
        assert e_star_sum(B) == ZetaRational(shell, 1)
        assert shell == main - cut

    def test_identity_check_catches_wrong_shell(self, monkeypatch):
        assert verify.check_main_term_identity(300).passed
        real = dirichlet.e_star_sum
        monkeypatch.setattr(dirichlet, "e_star_sum",
                            lambda B: real(B) + ZetaRational(Fraction(1), 1))
        res = verify.check_main_term_identity(300)
        assert not res.passed
        assert res.detail.startswith("B=300: shell sum ")

    def test_slices_merge_exactly(self, monkeypatch):
        # at the default slice size these B fit in one slice; tiny slices
        # force the merge of the per-slice key counts
        sums = {B: (summatory_M(K_MAIN, B), summatory_M(K_CUT, B), e_star_sum(B))
                for B in (300, 10**4)}
        monkeypatch.setattr(dirichlet, "_CHUNK_ROWS", 50)
        for B, want in sums.items():
            assert (summatory_M(K_MAIN, B), summatory_M(K_CUT, B), e_star_sum(B)) == want

    def test_key_sums_refuse_t_above_int64_bound(self, monkeypatch):
        # a key code is below (t + 1)^2, which fits in int64 at the bound;
        # above it the sums refuse before the key table is built
        t = dirichlet._INT64_MAX_T + 1
        assert t**2 < 2**63
        monkeypatch.setattr(dirichlet, "_key_counts", Forbidden())
        for exact in (True, False):
            for k in (K_MAIN, K_CUT):
                with pytest.raises(ValueError, match="t must be <="):
                    summatory_M(k, t, exact=exact)
            with pytest.raises(ValueError, match="t must be <="):
                predicted_main_term(t, 1.0, cross_check=exact)
        with pytest.raises(ValueError, match="t must be <="):
            e_star_sum(t)
        with pytest.raises(ValueError, match="t must be <="):
            predicted_main_term(t, 1.0)

    def test_sums_keep_no_theta_cache(self):
        before = dirichlet._theta_coeff.cache_info().currsize
        predicted_main_term(10**5, 27.33, cross_check=True)
        assert dirichlet._theta_coeff.cache_info().currsize == before


class Forbidden:
    """Stands in for what a loop would read first; reading it fails the test."""

    def __getitem__(self, i):
        raise AssertionError("the loop started")

    def __call__(self, *args, **kwargs):
        raise AssertionError("the loop started")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10.5])
def test_non_integer_B_rejected_before_any_loop(monkeypatch, bad):
    # before, nan and inf never left the eta loops, and 10.5 was summed as 10
    monkeypatch.setattr(dirichlet, "_key_counts", Forbidden())
    with pytest.raises(TypeError):
        summatory_M(K_MAIN, bad)
    with pytest.raises(TypeError):
        summatory_M(K_CUT, bad, exact=False)
    with pytest.raises(TypeError):
        summatory_M(K_MAIN, bad, via="n")
    with pytest.raises(TypeError):
        e_star_sum(bad)
    with pytest.raises(TypeError):
        delta_k(Forbidden(), bad)
    monkeypatch.setattr(dirichlet, "summatory_M", Forbidden())
    monkeypatch.setattr(dirichlet, "e_star_sum", Forbidden())
    for cross_check in (None, True, False):
        with pytest.raises(TypeError):
            predicted_main_term(bad, 1.0, cross_check=cross_check)


@pytest.mark.parametrize(
    "k", [(0, 2, 3, 2), (2, 2, 3, -1), (2, 2, 3, 0), (2, 2, 3), (2, 2, 3, 2, 1),
          (2, 2, 3.0, 2), "2232", None]
)
def test_bad_k_rejected_before_any_loop(monkeypatch, k):
    # before, k1 = 0 and k4 = -1 never left the eta loops, and k4 = 0
    # raised ZeroDivisionError in delta_k
    monkeypatch.setattr(dirichlet, "_key_counts", Forbidden())
    monkeypatch.setattr(dirichlet, "_theta_coeff", Forbidden())
    for via in ("eta", "n"):
        for exact in (True, False):
            with pytest.raises(ValueError, match="k must hold four ints >= 1"):
                summatory_M(k, 10, exact=exact, via=via)
    with pytest.raises(ValueError, match="k must hold four ints >= 1"):
        delta_k(k, 10)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_omega_rejected(monkeypatch, omega):
    monkeypatch.setattr(dirichlet, "summatory_M", Forbidden())
    monkeypatch.setattr(dirichlet, "e_star_sum", Forbidden())
    with pytest.raises(ValueError, match="omega"):
        predicted_main_term(100, omega)


class TestLocalFactors:
    def test_zero_identity_exact(self):
        for p in (2, 3, 5, 7, 101):
            for k in (K_MAIN, K_CUT):
                assert g_k_zero_factor(k, p) == euler_reference_factor(p)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            local_factor(K_MAIN, 2, 0 - Fraction(1, 2))

    def test_exact_vs_float(self):
        for p in (2, 3):
            ex = local_factor(K_MAIN, p, 1)
            fl = local_factor(K_MAIN, p, 1.0)
            assert float(ex) == pytest.approx(fl, rel=1e-13)

    def test_truncated_oracle_matches_closed_form(self):
        for p in (2, 3, 5):
            for s in (Fraction(1, 2), Fraction(1)):
                val, tail = local_factor_truncated(K_MAIN, p, s, max_exp=14)
                closed = float(local_factor(K_MAIN, p, s))
                assert abs(val - closed) <= tail + 1e-9 * abs(closed)
