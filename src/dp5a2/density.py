"""Archimedean density: the height section h, the g-integral family,
omega_infty, and the full leading constant.

h(t0,t1,t5,t6) is the maximum of six monomial combinations; after the
scaling substitution its entries are exactly |x_i|/B for the image
point, so {h <= 1} is the continuous model of the height-<= B region.

g0 integrates out t1 in closed form, over numpy arrays.  Entry 0 of h is
the guard t0^4 t5 <= 1.  Entries 1, 3, 4 and 5 are linear in t1, so
together they keep one interval [lo, hi].  Entry 2 is q(t1) = a t1^2 + b t1
with a = t0^2 |t6|, b = t5^2 t6^2: q <= 1 keeps [r-, r+], and q >= -1
removes the hole (s-, s+), which exists once b^2 > 4a.  g0 is the length
of [lo, hi] and [r-, r+] together, minus the hole.  g0_subdivision
measures the same section by bisection against the entries of h
themselves; it is the independent reference for g0, far slower, and
shares no code with it.

omega_infty, G2, g2_direct, g2a and g2b are all 2 * the integral of g0
over t6 > 0 and 0 < t5 < t0^-4 between t6 limits that depend on t5; one
engine, _region, computes them.  It substitutes t5 = w^4 and
t6 = sqrt(2) z^2 / w^6, which maps the support t5^3 t6^2 <= 2 onto z <= 1.

* Kinks.  For fixed t0 and t5, g0 is smooth in t6 except where two
  section endpoints cross.  Each crossing is a root of a polynomial of
  degree at most 2 in t6 (_kinks lists them; for the entry-4 endpoints the
  cubic terms cancel), and the hole opens at t6^3 = 4 t0^2 / t5^4.  A root
  that is no kink only adds a piece, so none is filtered.
* Pieces.  Each z range is cut at its kinks.  A piece is also cut
  geometrically until its ends are within a factor 8, because an active
  endpoint may be ~1/t6, a pole at z = 0.  Right of the point z* where
  the hole opens, the hole grows like sqrt(z - z*), so a piece there is
  integrated in y = sqrt(z - z*).
* Inner rule.  Gauss-Legendre of orders 16 and 32 on each piece; the
  order-32 value counts and the difference of the two is the piece's
  error.
* Outer rule.  Globally adaptive Gauss-Kronrod 7-15 in w: each level
  bisects the panels with the largest errors until the total error is
  within tolerance, and the nodes of all new panels, times all their
  pieces, go to g0 in a few large batches.

Conventions: t0 > 0, t5 >= 0; g0 is even in t6 (t1 -> -t1 flips the
sign of every t6-odd entry), so it is computed at |t6|, and the t6
integrals run over t6 > 0 and double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

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


def g0(t0: float, t5, t6):
    """Length of {t1 : h(t0, t1, t5, t6) <= 1}, in closed form.

    t5 and t6 may be numpy arrays, broadcast together; the result is then
    an array, else a float.  A call on one point costs as much as a batch
    of several hundred, so integrands pass whole arrays.
    """
    if not (t0 > 0.0 and math.isfinite(t0)):
        raise ValueError(f"t0 must be positive and finite, not {t0!r}")
    t5 = np.asarray(t5, dtype=float)
    t6 = np.abs(np.asarray(t6, dtype=float))
    u = t0 * t0
    L = t0**-4
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        st = t5 * t6
        a = u * t6
        b = st * st
        c = u * st  # the t1 slope of entries 3 and 5
        d = t5 * b  # entry 5 at t1 = 0
        e = c * t5  # entry 4 at t1 = 0
        lo = np.maximum(np.maximum(-L, -1.0 / c), np.maximum((-1.0 - e) * L, (-1.0 - d) / c))
        hi = np.minimum(np.minimum(L, 1.0 / c), np.minimum((1.0 - e) * L, (1.0 - d) / c))
        # q = 1 at r- < 0 < r+; a = 0 only at t6 = 0, where q vanishes
        root = np.sqrt(b * b + 4.0 * a)
        lo = np.maximum(lo, np.where(a > 0.0, -(b + root) / (2.0 * a), -np.inf))
        hi = np.minimum(hi, 2.0 / (b + root))
        # q = -1 at s- <= s+ < 0, the ends of the hole
        disc = b * b - 4.0 * a
        root = np.sqrt(np.maximum(disc, 0.0))
        hole = np.minimum(hi, -2.0 / (b + root)) - np.maximum(lo, -(b + root) / (2.0 * a))
        length = np.maximum(hi - lo, 0.0) - np.where(disc > 0.0, np.maximum(hole, 0.0), 0.0)
    length = np.where((t5 >= 0.0) & (t0**4 * t5 <= 1.0), length, 0.0)
    return float(length) if length.ndim == 0 else length


# ---------------------------------------------------------------------------
# the quadrature engine
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """A numeric integral failed to converge to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


# Gauss-Kronrod 7-15 on [-1, 1]: the Kronrod nodes and weights of the
# QUADPACK qk15 table, and the Gauss weights, 0 at the Kronrod-only nodes
_XK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                0.207784955007898467600689403773245])
_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649])
_GK_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_GK_KRONROD = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = np.polynomial.legendre.leggauss(7)[1]

# Gauss-Legendre of orders 16 and 32 on [0, 1], as one node set with a
# weight row per order
_GL = [np.polynomial.legendre.leggauss(n) for n in (16, 32)]
_GL_NODES = np.concatenate([(x + 1.0) / 2.0 for x, _ in _GL])
_GL_WEIGHTS = np.zeros((2, 48))
_GL_WEIGHTS[0, :16] = _GL[0][1] / 2.0
_GL_WEIGHTS[1, 16:] = _GL[1][1] / 2.0

_PIECE_RATIO = 8.0  # largest end ratio of a piece not starting at z = 0
_BATCH = 4096  # pieces per g0 call, 48 points each
_MAX_LEVELS = 64  # bisection depth of the outer panels
_MAX_PANELS = 400  # outer panels held at once
_EPSABS = 1e-13  # absolute error that always suffices


def _quadratic_roots(p2, p1, p0):
    """Both roots of p2 x^2 + p1 x + p0: nan where complex, inf or nan where
    a leading coefficient vanishes."""
    q = -0.5 * (p1 + np.copysign(np.sqrt(p1 * p1 - 4.0 * p2 * p0), p1))
    return q / p2, p0 / q


def _kinks(t0: float, t5: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where g0(t0, t5, t6) may kink as a function of t6 > 0, for each t5.

    Returns the roots, one row of 30 per t5 (of any sign, or nan or inf;
    the caller keeps those inside its range), and the t6 where the hole
    opens.  The endpoints of the section are +-L from entry 1
    (L = t0^-4), the two ends of each of entries 3, 4 and 5, and the roots
    of q = +-1.  Each family below is the polynomial p2 t6^2 + p1 t6 + p0
    whose roots are where the named endpoints meet; u = t0^2, s = t5.
    Reflection about the vertex of q, t1 -> -s^2 t6 / u - t1, keeps q and
    swaps +-L with the entry-4 ends and the entry-3 ends with the entry-5
    ends, so each family also covers its mirror image.
    """
    u = t0 * t0
    s2 = t5 * t5
    s3 = s2 * t5
    families = [
        (0.0, t5, -u),  # +-L meets an entry-3 end
        (0.0, u * s2, -2.0),  # +-L meets an entry-4 end
        (s3, 0.0, -2.0),  # an entry-3 end meets an entry-5 end
    ]
    for sg in (1.0, -1.0):
        for rho in (1.0, -1.0):
            families += [
                (sg * s3, -rho * u * s2, 1.0),  # q = rho at an entry-3 end
                (-sg * s2 / (u * u), 1.0 / u**3, -rho),  # q = rho at an entry-4 end
                (u * s3, sg * t5, -rho * u),  # +-L meets an entry-5 end
            ]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        roots = [r for f in families for r in _quadratic_roots(*f)]
        opens = np.cbrt(4.0 * u / (s2 * s2))
    return np.stack(roots, axis=1), opens


def _pieces(t0: float, w: np.ndarray, zlo: np.ndarray, zhi: np.ndarray):
    """Cut each z range [zlo, zhi] of the outer nodes w into smooth pieces.

    Returns (node, a, b, zs): piece k is [a[k], b[k]] of node node[k], and
    zs[k] is the point z* where the hole opens at that node.
    """
    w6 = (w**6 / SQRT2)[:, None]
    roots, opens = _kinks(t0, w**4)
    lo, hi = zlo[:, None], zhi[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        zstar = np.sqrt(opens[:, None] * w6)
        cuts = np.concatenate([lo, np.sqrt(roots * w6), zstar, hi], axis=1)
    cuts = np.clip(np.where(np.isnan(cuts), lo, cuts), lo, hi)
    cuts.sort(axis=1)
    node, col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
    a, b = cuts[node, col], cuts[node, col + 1]
    # geometric cuts: n equal ratios per piece, none for a piece at z = 0
    with np.errstate(divide="ignore"):
        n = np.where(a > 0.0, np.ceil(np.log(b / a) / math.log(_PIECE_RATIO)), 1.0)
    n = np.maximum(n, 1.0).astype(np.int64)
    k = np.repeat(np.arange(len(a)), n)
    j = np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (b / a)[k]
        sub_a = np.where(j == 0, a[k], a[k] * ratio ** (j / n[k]))
        sub_b = np.where(j == n[k] - 1, b[k], a[k] * ratio ** ((j + 1) / n[k]))
    return node[k], sub_a, sub_b, zstar[node[k], 0]


def _inner(t0: float, w: np.ndarray, zlo: np.ndarray, zhi: np.ndarray):
    """The integral of 2 z g0(t0, w^4, sqrt(2) z^2 / w^6) over [zlo, zhi] per node.

    Returns the values, their errors and the number of g0 points.
    """
    node, a, b, zs = _pieces(t0, w, zlo, zhi)
    # right of z*, integrate in y = sqrt(z - z*), z = z* + y^2
    ymap = a >= zs
    ya = np.where(ymap, np.sqrt(np.maximum(a - zs, 0.0)), a)
    yb = np.where(ymap, np.sqrt(np.maximum(b - zs, 0.0)), b)
    t5 = w**4
    w6 = w**6
    sums = np.zeros((2, len(a)))
    for i in range(0, len(a), _BATCH):
        sl = slice(i, i + _BATCH)
        dy = (yb - ya)[sl, None]
        y = ya[sl, None] + dy * _GL_NODES
        z = np.where(ymap[sl, None], zs[sl, None] + y * y, y)
        jac = np.where(ymap[sl, None], 2.0 * y * dy, dy)
        nd = node[sl, None]
        f = 2.0 * z * jac * g0(t0, t5[nd], SQRT2 * z * z / w6[nd])
        sums[:, sl] = _GL_WEIGHTS @ f.T
    value = np.bincount(node, weights=sums[1], minlength=len(w))
    error = np.bincount(node, weights=np.abs(sums[1] - sums[0]), minlength=len(w))
    return value, error, 48 * len(a)


def _panels(t0: float, pa: np.ndarray, pb: np.ndarray, t6_limits):
    """Kronrod values and errors of the outer panels [pa, pb], and g0 points."""
    mid, half = (pa + pb) / 2.0, (pb - pa) / 2.0
    w = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
    lo, hi = np.broadcast_arrays(*t6_limits(w**4))
    scale = w**6 / SQRT2
    with np.errstate(invalid="ignore", over="ignore"):
        zlo = np.minimum(np.sqrt(lo * scale), 1.0)
        zhi = np.minimum(np.sqrt(hi * scale), 1.0)
    value, error, points = _inner(t0, w, zlo, zhi)
    # dt5 dt6 = 4 w^3 dw * 2 sqrt(2) z / w^6 dz, and t6 < 0 doubles it
    f = (8.0 * SQRT2 / w**3 * value).reshape(-1, 15)
    fe = (8.0 * SQRT2 / w**3 * error).reshape(-1, 15)
    kronrod = half * (f @ _GK_KRONROD)
    gauss = half * (f @ _GK_GAUSS)
    return kronrod, np.abs(kronrod - gauss) + half * (fe @ _GK_KRONROD), points


def _region(t0: float, tol: float, t6_limits, what: str) -> QuadratureResult:
    """2 * the integral of g0(t0, t5, t6) over 0 < t5 < t0^-4, t6 in t6_limits(t5).

    t6_limits maps an array of t5 to the bounds (lo, hi), 0 <= lo, arrays or
    numbers.  The requested relative error is tol / 4; what names the
    integral in a QuadratureError.  t0 and tol must be positive and finite.
    """
    if not (t0 > 0.0 and math.isfinite(t0)):
        raise ValueError(f"{what}: t0 must be positive and finite, not {t0!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"{what}: tol must be positive and finite, not {tol!r}")
    itol = tol / 4.0
    pa, pb = np.array([0.0]), np.array([1.0 / t0])
    pv, pe, evals = _panels(t0, pa, pb, t6_limits)
    for level in range(_MAX_LEVELS + 1):
        value = fsum(pv)
        target = max(itol * abs(value), _EPSABS)
        error = fsum(pe)
        if error <= target:
            return QuadratureResult(value, error + abs(value) * itol * 1.5, evals)
        # bisect the fewest panels whose errors hold all but half the target
        order = np.argsort(pe)[::-1]
        n = int(np.searchsorted(np.cumsum(pe[order]), error - target / 2.0)) + 1
        if level == _MAX_LEVELS or len(pa) + n > _MAX_PANELS:
            break
        split = order[:n]
        mid = (pa[split] + pb[split]) / 2.0
        na, nb = np.concatenate([pa[split], mid]), np.concatenate([mid, pb[split]])
        nv, ne, points = _panels(t0, na, nb, t6_limits)
        keep = np.ones(len(pa), dtype=bool)
        keep[split] = False
        pa, pb = np.concatenate([pa[keep], na]), np.concatenate([pb[keep], nb])
        pv, pe = np.concatenate([pv[keep], nv]), np.concatenate([pe[keep], ne])
        evals += points
    raise QuadratureError(
        f"{what}: error {error:.2e} above {target:.2e} after {evals} g0 points"
        f" on {len(pa)} panels (tol {tol:g})"
    )


def _whole(t5):
    return 0.0, np.inf


def omega_infty(tol: float = 1e-6) -> QuadratureResult:
    """The triple integral of g0 over {t5 > 0} at t0 = 1."""
    return _region(1.0, tol, _whole, what="omega_infty")


def G2(t0: float, tol: float = 1e-6) -> QuadratureResult:
    """Full section integral at t0; satisfies t0^2 G2(t0) = omega_infty."""
    return _region(t0, tol, _whole, what="G2")


# ---------------------------------------------------------------------------
# the g2 family over a scaling context
# ---------------------------------------------------------------------------


def g2a(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Integral of g0 over {|Y6 t6| > 1, Y5 t5 >= |Y6 t6|}.

    For each t5 the t6 range is [1, Y5 t5] / Y6, empty until Y5 t5 > 1.
    """

    def limits(t5):
        return 1.0 / ctx.y6, ctx.y5 * t5 / ctx.y6

    return _region(t0, tol, limits, what="g2a")


def g2b(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Integral of g0 over {|Y6 t6| > max(Y5 t5, 1), t5 > 0}."""

    def limits(t5):
        return np.maximum(ctx.y5 * t5, 1.0) / ctx.y6, np.inf

    return _region(t0, tol, limits, what="g2b")


def g2_direct(t0: float, ctx: ScalingContext, tol: float = 1e-5) -> QuadratureResult:
    """Direct triple integral over {|Y6 t6| > 1, t5 > 0}; equals g2a + g2b."""

    def limits(t5):
        return 1.0 / ctx.y6, np.inf

    return _region(t0, tol, limits, what="g2_direct")


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

    The t6 limits of g2a and g2b split the direct integral's range at
    Y6 t6 = Y5 t5, so a + b must match the direct value within combined
    quadrature error.
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
    ps = np.array(primes(p_max), dtype=np.float64)
    logs = 5.0 * np.log1p(-1.0 / ps) + np.log1p(5.0 / ps + 1.0 / (ps * ps))
    return EulerProduct(
        value=math.exp(fsum(logs.tolist())),
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
    eu = euler_product(p_max)  # first: a bad p_max fails before the integration
    om = omega_infty(tol)
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
