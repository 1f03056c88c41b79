"""Archimedean density: the height section h, the g-integral family,
omega_infty, and the full leading constant.

h(t0,t1,t5,t6) is the maximum of six monomial combinations; after the
scaling substitution its entries are exactly |x_i|/B for the image
point, so {h <= 1} is the continuous model of the height-<= B region.

g0 integrates out t1.  Each height entry is |quadratic in t1| <= 1, so
the t1-section is a finite union of intervals and g0 is computed by
exact root intersection.  g0_subdivision measures the same section by
bisection against the entries of h themselves; it is the independent
reference for g0, far slower, and never used in the nested quadratures.

Conventions: t0 > 0, t5 >= 0; g0 is even in t6 (t1 -> -t1 flips the
sign of every t6-odd entry), which the t6 integrals exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, sqrt

from scipy import integrate

from .arith import primes
from .torsor import ScalingContext

__all__ = [
    "EulerProduct",
    "GFamily",
    "PeyreConstant",
    "QuadratureError",
    "QuadratureResult",
    "G2",
    "alpha_constant",
    "euler_product",
    "g0",
    "g0_subdivision",
    "g1a",
    "g1b",
    "g2a",
    "g2b",
    "g2_direct",
    "g_family",
    "h_max",
    "omega_infty",
    "peyre_constant",
]

SQRT2 = math.sqrt(2.0)


def _h_entries(t0, t1, t5, t6):
    """The six signed monomial combinations x_i/B of the height section."""
    return (
        t0**4 * t5,
        t0**4 * t1,
        t1 * t5**2 * t6**2 + t0**2 * t1**2 * t6,
        t0**2 * t1 * t5 * t6,
        t0**2 * t5**2 * t6 + t0**4 * t1,
        t5**3 * t6**2 + t0**2 * t1 * t5 * t6,
    )


def h_max(t0, t1, t5, t6):
    """Height section: max of the six |x_i|/B monomial combinations."""
    return max(abs(e) for e in _h_entries(t0, t1, t5, t6))


# ---------------------------------------------------------------------------
# g0: the t1-section measure
# ---------------------------------------------------------------------------


def _t1_constraints(t0: float, t5: float, t6: float) -> list[tuple[float, float, float]]:
    """Coefficients (a, b, c) with entry = a t1^2 + b t1 + c, |entry| <= 1."""
    t0sq = t0 * t0
    return [
        (t0sq * t6, t5 * t5 * t6 * t6, 0.0),
        (0.0, t0sq * t5 * t6, 0.0),
        (0.0, t0sq * t0sq, t0sq * t5 * t5 * t6),
        (0.0, t0sq * t5 * t6, t5**3 * t6 * t6),
    ]


def _le_set(a: float, b: float, c: float, lo: float, hi: float) -> list[tuple[float, float]]:
    """{t in [lo, hi] : a t^2 + b t + c <= 0} as disjoint intervals."""
    if a == 0.0:
        if b == 0.0:
            return [(lo, hi)] if c <= 0.0 else []
        r = -c / b
        seg = (lo, min(hi, r)) if b > 0.0 else (max(lo, r), hi)
        return [seg] if seg[0] < seg[1] else []
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return [] if a > 0.0 else [(lo, hi)]
    sq = sqrt(disc)
    q = -(b + sq) / 2.0 if b >= 0.0 else -(b - sq) / 2.0
    r1, r2 = q / a, c / q
    rlo, rhi = (r1, r2) if r1 <= r2 else (r2, r1)
    if a > 0.0:
        seg = (max(lo, rlo), min(hi, rhi))
        return [seg] if seg[0] < seg[1] else []
    out = []
    if lo < min(hi, rlo):
        out.append((lo, min(hi, rlo)))
    if max(lo, rhi) < hi:
        out.append((max(lo, rhi), hi))
    return out


def _intersect(xs: list[tuple[float, float]], ys: list[tuple[float, float]]) -> list:
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if a < b:
            out.append((a, b))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


def _g0_intervals(t0: float, t5: float, t6: float) -> float:
    L = t0**-4
    region = [(-L, L)]
    for a, b, c in _t1_constraints(t0, t5, t6):
        band = _intersect(
            _le_set(a, b, c - 1.0, -L, L),
            _le_set(-a, -b, -c - 1.0, -L, L),
        )
        region = _intersect(region, band)
        if not region:
            return 0.0
    return fsum(b - a for a, b in region)


def _quad_range(a: float, b: float, c: float, lo: float, hi: float) -> tuple[float, float]:
    """Min and max of a t^2 + b t + c on [lo, hi]."""
    flo = a * lo * lo + b * lo + c
    fhi = a * hi * hi + b * hi + c
    fmin, fmax = (flo, fhi) if flo <= fhi else (fhi, flo)
    if a != 0.0:
        v = -b / (2.0 * a)
        if lo < v < hi:
            fv = a * v * v + b * v + c
            fmin = min(fmin, fv)
            fmax = max(fmax, fv)
    return fmin, fmax


def g0_subdivision(t0: float, t5: float, t6: float, tol: float) -> float:
    """g0 by bisection of [-t0^-4, t0^-4]; the reference route for g0.

    Entries 2-5 of h (0 and 1 are the guard and the t1 range) are quadratic
    in t1; their coefficients are read off h at t1 = 0, 1, -1, not from g0's.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if t5 < 0.0 or t0**4 * t5 > 1.0:
        return 0.0
    L = t0**-4
    at0, at1, atm1 = (_h_entries(t0, t1, t5, t6)[2:] for t1 in (0.0, 1.0, -1.0))
    cs = [((p + m) / 2.0 - c, (p - m) / 2.0, c) for c, p, m in zip(at0, at1, atm1)]
    min_len = tol / 64.0
    total = 0.0
    stack = [(-L, L)]
    while stack:
        lo, hi = stack.pop()
        inside = True
        dead = False
        for a, b, c in cs:
            fmin, fmax = _quad_range(a, b, c, lo, hi)
            if fmin > 1.0 or fmax < -1.0:
                dead = True
                break
            if fmax > 1.0 or fmin < -1.0:
                inside = False
        if dead:
            continue
        if inside:
            total += hi - lo
        elif hi - lo < min_len:
            total += (hi - lo) / 2.0  # straddling sliver: count half
        else:
            mid = (lo + hi) / 2.0
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total


def g0(t0: float, t5: float, t6: float) -> float:
    """Length of {t1 : h(t0, t1, t5, t6) <= 1}, by exact root intersection."""
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if t5 < 0.0 or t0**4 * t5 > 1.0:
        return 0.0
    return _g0_intervals(t0, t5, t6)


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """A numeric integral failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _quad(f, a: float, b: float, *, epsabs: float, epsrel: float, what: str) -> tuple[float, float]:
    out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400, full_output=1)
    val, err = out[0], out[1]
    if len(out) > 3 and err > 4.0 * max(epsabs, epsrel * abs(val)):
        raise QuadratureError(f"{what}: {out[3]}")
    return val, err


def _region_integral(t0: float, t6_floor: float, tol: float) -> QuadratureResult:
    """2 * integral of g0 over {t5 > 0, t6 > t6_floor} (t6_floor >= 0).

    Outer substitution t5 = w^4 flattens the t5 -> 0 profile; inner
    t6 = sqrt(2) z^2 / t5^{3/2} maps the support exactly onto z <= 1 and
    softens the |t6|^{-1/2} behaviour of g0.
    """
    itol = tol / 4.0
    evals = [0]

    def inner(w: float) -> float:
        if w <= 0.0:
            return 0.0
        w6 = w**6
        t5 = w**4
        ulo = t6_floor * w6 / SQRT2
        if ulo >= 1.0:
            return 0.0

        def fz(z: float) -> float:
            evals[0] += 1
            return 2.0 * z * g0(t0, t5, SQRT2 * z * z / w6)

        val, _ = _quad(fz, sqrt(ulo), 1.0, epsabs=1e-14, epsrel=itol, what="inner t6 integral")
        return 8.0 * SQRT2 * val / (w * w * w)

    w_hi = 1.0 / t0
    if t6_floor > 0.0:
        # inner range is empty once t6_floor t5^{3/2} >= sqrt(2)
        w_hi = min(w_hi, (SQRT2 / t6_floor) ** (1.0 / 6.0))
    val, err = _quad(inner, 0.0, w_hi, epsabs=1e-13, epsrel=itol, what="outer t5 integral")
    return QuadratureResult(val, err + abs(val) * itol * 1.5, evals[0])


def omega_infty(tol: float = 1e-6) -> QuadratureResult:
    """The triple integral of g0 over {t5 > 0} at t0 = 1."""
    return _region_integral(1.0, 0.0, tol)


def G2(t0: float, tol: float = 1e-6) -> QuadratureResult:
    """Full section integral at t0; satisfies t0^2 G2(t0) = omega_infty."""
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    return _region_integral(t0, 0.0, tol)


# ---------------------------------------------------------------------------
# the g1/g2 family over a scaling context
# ---------------------------------------------------------------------------


def g1a(t0: float, t6: float, ctx: ScalingContext, tol: float = 1e-6) -> float:
    """Integral of g0 dt5 over {Y5 t5 >= |Y6 t6|, t5 > 0}."""
    lo = ctx.y6 * abs(t6) / ctx.y5
    hi = t0**-4
    if t6 != 0.0:
        hi = min(hi, (2.0 / (t6 * t6)) ** (1.0 / 3.0))
    if lo >= hi:
        return 0.0
    val, _ = _quad(
        lambda t5: g0(t0, t5, t6), lo, hi, epsabs=1e-14, epsrel=tol, what="g1a"
    )
    return val


def g1b(t0: float, t5: float, ctx: ScalingContext, tol: float = 1e-6) -> float:
    """Integral of g0 dt6 over {|Y6 t6| > max(Y5 t5, 1)}."""
    if t5 <= 0.0:
        return 0.0
    t6_floor = max(ctx.y5 * t5, 1.0) / ctx.y6
    s32 = t5**1.5
    ulo = t6_floor * s32 / SQRT2
    if ulo >= 1.0:
        return 0.0

    def fz(z: float) -> float:
        return 2.0 * z * g0(t0, t5, SQRT2 * z * z / s32)

    val, _ = _quad(fz, sqrt(ulo), 1.0, epsabs=1e-14, epsrel=tol, what="g1b")
    return 2.0 * SQRT2 * val / s32


def g2a(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Integral of g1a dt6 over {|Y6 t6| > 1}.

    The upper limit is the exact end of g1a's support: its t5 range is
    empty once Y6 t6 / Y5 exceeds t0^-4 or (2/t6^2)^{1/3}.  Integrating
    past the support would leave the quadrature sampling only zeros.
    """
    itol = tol / 4.0
    lo = 1.0 / ctx.y6
    r = ctx.y5 / ctx.y6
    hi = min(r / t0**4, 2.0**0.2 * r**0.6)
    if hi <= lo:
        return QuadratureResult(0.0, 0.0, 0)
    evals = [0]

    def f(t6: float) -> float:
        evals[0] += 1
        return g1a(t0, t6, ctx, tol=itol)

    val, err = _quad(f, lo, hi, epsabs=1e-13, epsrel=itol, what="g2a")
    value = 2.0 * val
    return QuadratureResult(value, 2.0 * err + abs(value) * itol * 1.5, evals[0])


def g2b(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Integral of g1b dt5 over t5 > 0 (outer substitution t5 = w^4).

    g1b's t6 range is empty once max(Y5 t5, 1)/Y6 exceeds sqrt(2/t5^3);
    the outer limit is clamped to that exact support end.
    """
    itol = tol / 4.0
    evals = [0]
    t5_hi = min(
        t0**-4.0,
        (SQRT2 * ctx.y6) ** (2.0 / 3.0),
        (SQRT2 * ctx.y6 / ctx.y5) ** 0.4,
    )
    if t5_hi <= 0.0:
        return QuadratureResult(0.0, 0.0, 0)

    def f(w: float) -> float:
        if w <= 0.0:
            return 0.0
        evals[0] += 1
        return 4.0 * w**3 * g1b(t0, w**4, ctx, tol=itol)

    val, err = _quad(f, 0.0, t5_hi**0.25, epsabs=1e-13, epsrel=itol, what="g2b")
    return QuadratureResult(val, err + abs(val) * itol * 1.5, evals[0])


def g2_direct(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Direct triple integral over {|Y6 t6| > 1, t5 > 0}; equals g2a + g2b."""
    return _region_integral(t0, 1.0 / ctx.y6, tol)


@dataclass(frozen=True)
class GFamily:
    ctx: ScalingContext
    t0: float
    a: QuadratureResult
    b: QuadratureResult
    direct: QuadratureResult

    @property
    def decomposition_gap(self) -> float:
        return abs(self.a.value + self.b.value - self.direct.value)

    @property
    def combined_error(self) -> float:
        return self.a.error_estimate + self.b.error_estimate + self.direct.error_estimate


def g_family(ctx: ScalingContext, t0: float | None = None, tol: float = 1e-5) -> GFamily:
    """Evaluate g2a, g2b and the direct integral at t0 (default Y0).

    The two regions partition {|Y6 t6| > 1, t5 > 0}, so a + b must match
    the direct value within combined quadrature error.
    """
    t0 = ctx.y0 if t0 is None else t0
    return GFamily(
        ctx=ctx,
        t0=t0,
        a=g2a(t0, ctx, tol),
        b=g2b(t0, ctx, tol),
        direct=g2_direct(t0, ctx, tol),
    )


# ---------------------------------------------------------------------------
# the leading constant
# ---------------------------------------------------------------------------


def alpha_constant() -> Fraction:
    """(1/4!) * (1/(2^3*3) - 1/(2*3^2*4)) = 1/864."""
    return Fraction(1, 24) * (Fraction(1, 24) - Fraction(1, 72))


@dataclass(frozen=True)
class EulerProduct:
    value: float
    p_max: int
    n_primes: int
    tail_rel_bound: float


def euler_product(p_max: int = 10**6) -> EulerProduct:
    """prod_p (1 - 1/p)^5 (1 + 5/p + 1/p^2) over p <= p_max.

    Each factor is 1 - 14/p^2 + O(1/p^3); |log factor| <= 15/p^2 for all
    p >= 2, so the truncation tail is bounded by expm1(15/p_max) in
    relative terms.
    """
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    ps = primes(p_max)
    logs = [5.0 * math.log1p(-1.0 / p) + math.log1p(5.0 / p + 1.0 / (p * p)) for p in ps]
    return EulerProduct(
        value=math.exp(fsum(logs)),
        p_max=p_max,
        n_primes=len(ps),
        tail_rel_bound=math.expm1(15.0 / p_max),
    )


@dataclass(frozen=True)
class PeyreConstant:
    alpha: Fraction
    omega: QuadratureResult
    euler: EulerProduct
    value: float
    rel_error_bound: float


def peyre_constant(tol: float = 1e-6, p_max: int = 10**6) -> PeyreConstant:
    """Leading constant alpha * omega_infty * (Euler product)."""
    om = omega_infty(tol)
    eu = euler_product(p_max)
    a = alpha_constant()
    rel_om = om.error_estimate / abs(om.value) if om.value else 0.0
    rel = rel_om + eu.tail_rel_bound + rel_om * eu.tail_rel_bound
    return PeyreConstant(
        alpha=a,
        omega=om,
        euler=eu,
        value=float(a) * om.value * eu.value,
        rel_error_bound=rel,
    )
