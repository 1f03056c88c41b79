"""Universal torsor coordinates for the surface.

A torsor point is (eta1..eta6, alpha1, alpha2) with eta1..eta5 > 0,
eta6 != 0, alphas in Z, satisfying the torsor equation

    eta4*eta5^2*eta6 + eta1*alpha1 + eta2*alpha2 = 0

plus coprimality conditions read off a graph on the eight coordinates:
two coordinates must be coprime exactly when their vertices are NOT
adjacent.  TorsorPoint is a tuple whose fields are in VERTICES order
(E1..E6, A1, A2 -> eta1..eta6, alpha1, alpha2), so the graph's pairs are
read by index.  The map psi sends such a point to a rational point of the
surface with x0 > 0, and is a bijection onto the points of U (one torsor
tuple per point).

The reduced coprimality conditions (equivalent to the graph ones on
solutions of the torsor equation) are

    gcd(alpha2, eta3*eta5) = 1            (4)
    gcd(alpha1, eta3*eta4) = 1            (5)
    gcd(eta6,  eta1*eta2*eta3*eta4) = 1   (6)
    gcd(eta5,  eta1*eta2*eta3) = 1        (7)
    gcd(eta1, eta2) = gcd(eta1, eta4) = gcd(eta2, eta4) = 1   (8)

with the gcd(0, n) = |n| convention doing real work when an alpha is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, inf
from typing import NamedTuple

import numpy as np

from .surface import ProjectivePoint, is_on_surface

__all__ = [
    "EDGES",
    "ScalingContext",
    "TorsorPoint",
    "VERTICES",
    "coprimality_full",
    "coprimality_reduced",
    "height_forms",
    "psi",
    "required_coprime_pairs",
    "scaling_context",
]

VERTICES: tuple[str, ...] = ("E1", "E2", "E3", "E4", "E5", "E6", "A1", "A2")

# Adjacency (= "allowed to share a prime"); ten edges.
EDGES: frozenset[frozenset[str]] = frozenset(
    frozenset(e)
    for e in [
        ("A1", "E1"),
        ("A1", "E6"),
        ("A1", "A2"),
        ("E6", "E5"),
        ("E5", "E4"),
        ("E4", "E3"),
        ("E1", "E3"),
        ("A2", "E2"),
        ("A2", "E6"),
        ("E2", "E3"),
    ]
)


def required_coprime_pairs(edges: frozenset[frozenset[str]] = EDGES) -> tuple[tuple[str, str], ...]:
    """The non-adjacent vertex pairs (18 in the full graph), which must be coprime."""
    return tuple(
        (a, b) for a, b in combinations(VERTICES, 2) if frozenset((a, b)) not in edges
    )


@lru_cache(maxsize=16)  # the full graph and its ten one-edge prunings fit
def _required_index_pairs(edges: frozenset[frozenset[str]]) -> tuple[tuple[int, int], ...]:
    """required_coprime_pairs(edges) as positions in VERTICES, i.e. in a TorsorPoint."""
    return tuple((VERTICES.index(a), VERTICES.index(b)) for a, b in required_coprime_pairs(edges))


class _TorsorFields(NamedTuple):
    eta1: int
    eta2: int
    eta3: int
    eta4: int
    eta5: int
    eta6: int
    alpha1: int
    alpha2: int


class TorsorPoint(_TorsorFields):
    """A torsor tuple; its fields are in VERTICES order."""

    __slots__ = ()

    def __new__(cls, eta1, eta2, eta3, eta4, eta5, eta6, alpha1, alpha2):
        if min(eta1, eta2, eta3, eta4, eta5) < 1:
            raise ValueError("eta1..eta5 must be positive")
        if eta6 == 0:
            raise ValueError("eta6 must be nonzero")
        return super().__new__(cls, eta1, eta2, eta3, eta4, eta5, eta6, alpha1, alpha2)

    @property
    def eta(self) -> tuple[int, int, int, int]:
        return (self.eta1, self.eta2, self.eta3, self.eta4)

    def satisfies_equation(self) -> bool:
        return self.eta4 * self.eta5**2 * self.eta6 + self.eta1 * self.alpha1 + self.eta2 * self.alpha2 == 0


def coprimality_full(t: TorsorPoint, edges: frozenset[frozenset[str]] = EDGES) -> bool:
    """Graph conditions: every non-adjacent coordinate pair is coprime.

    edges is the graph's edge set; fault injection (the CLI's --drop-edge
    and the tests) passes a pruned one.
    """
    return all(gcd(t[i], t[j]) == 1 for i, j in _required_index_pairs(edges))


def coprimality_reduced(t):
    """Conditions (4)-(8); equivalent to coprimality_full on equation solutions.

    t is one tuple (returns a bool) or an (N, 8) integer array of tuples
    (returns a boolean mask).  An int64 array is exact while x0 of psi
    fits in int64 (eta1 eta2 eta3 eta4 and eta3 eta5 divide it), an
    array of Python ints (dtype=object) always.
    """
    rows = isinstance(t, np.ndarray)
    e1, e2, e3, e4, e5, e6, a1, a2 = t.T if rows else t
    g = np.gcd if rows else gcd
    return (
        (g(a2, e3 * e5) == 1)
        & (g(a1, e3 * e4) == 1)
        & (g(e6, e1 * e2 * e3 * e4) == 1)
        & (g(e5, e1 * e2 * e3) == 1)
        & (g(e1, e2) == 1)
        & (g(e1, e4) == 1)
        & (g(e2, e4) == 1)
    )


# eta1^2 eta2^2 eta3^3 eta4^2 eta5 eta6 alpha1 alpha2, which every monomial
# of psi divides, as exponents in VERTICES order
_PSI_DEGREE = (2, 2, 3, 2, 1, 1, 1, 1)


def psi(t):
    """The torsor-to-surface map.

    psi(t) = ( eta1^2 eta2^2 eta3^3 eta4^2 eta5,
               eta1^2 eta2 eta3^2 eta4 alpha1,
               eta6 alpha1 alpha2,
               eta1 eta3 eta4 eta5 eta6 alpha1,
               eta1 eta2^2 eta3^2 eta4 alpha2,
               eta2 eta3 eta4 eta5 eta6 alpha2 ).

    t is one tuple (returns a ProjectivePoint) or an (N, 8) integer array
    of tuples (returns the (N, 6) array of their images).  Fails loudly if
    an image is imprimitive or off the surface, either of which would mean
    its tuple violates the torsor equation or the coprimalities; every row
    of an array is checked, and the first bad one raises its own error.

    An array is exact for any Python ints.  Every power and partial
    product formed here is at most P = prod max(1, |t_i|)^d_i in absolute
    value (d = _PSI_DEGREE).  If P in float64, within 2^-48 relative of
    the exact P (13 rounded factors), is below 2^62 on every row, the
    arithmetic runs in int64; otherwise on Python ints (dtype=object).
    """
    rows = isinstance(t, np.ndarray)
    if rows:
        if t.ndim != 2 or t.shape[1] != 8:
            raise ValueError(f"psi takes one tuple or an (N, 8) array, not shape {t.shape}")
        if t.dtype != object:
            P = (np.maximum(np.abs(t.astype(np.float64)), 1.0) ** _PSI_DEGREE).prod(axis=1)
            t = t.astype(np.int64 if (P < 2.0**62).all() else object, copy=False)
    e1, e2, e3, e4, e5, e6, a1, a2 = t.T if rows else t
    x = (
        e1**2 * e2**2 * e3**3 * e4**2 * e5,
        e1**2 * e2 * e3**2 * e4 * a1,
        e6 * a1 * a2,
        e1 * e3 * e4 * e5 * e6 * a1,
        e1 * e2**2 * e3**2 * e4 * a2,
        e2 * e3 * e4 * e5 * e6 * a2,
    )
    if not rows:
        p = ProjectivePoint(*x)
        _check_image(t, p, gcd(*p), is_on_surface(p))
        return p
    p = np.stack(x, axis=1)
    g = x[0]
    for c in x[1:]:
        g = np.gcd(g, c)
    on = is_on_surface(p)
    bad = (g != 1) | ~on
    if bad.any():
        i = int(bad.argmax())
        _check_image(TorsorPoint._make(t[i].tolist()), ProjectivePoint._make(p[i].tolist()),
                     int(g[i]), bool(on[i]))
    return p


def _check_image(t, p: ProjectivePoint, g: int, on_surface: bool) -> None:
    """Raise for the image p of t if its gcd g is not 1 or it is off the surface."""
    if g != 1:
        raise RuntimeError(f"psi image {tuple(p)} of {t} is imprimitive (gcd {g})")
    if not on_surface:
        raise RuntimeError(f"psi image {tuple(p)} of {t} is not on the surface")


@dataclass(frozen=True)
class ScalingContext:
    """The scaling frame attached to (eta1..eta4; B).

    y0 = (eta1^2 eta2^2 eta3^3 eta4^2 / B)^(1/5)      y5 = 1/y0
    y1 = (B eta2^3 eta3^2 eta4^3 / eta1^2)^(1/5)
    y6 = (B eta1^3 eta2^3 eta3^2 / eta4^2)^(1/5)

    In these units the exact height condition max|psi_i| <= B becomes
    h(y0, alpha1/y1, eta5/y5, eta6/y6) <= 1 for the piecewise monomial h.
    """

    B: float
    eta: tuple[int, int, int, int]
    y0: float
    y1: float
    y5: float
    y6: float

    def identity_residual(self) -> float:
        """Relative error of y1*y5*y6 / (eta2*y0^2) against B/(eta1..eta4)."""
        e1, e2, e3, e4 = self.eta
        lhs = self.y1 * self.y5 * self.y6 / (e2 * self.y0**2)
        rhs = self.B / (e1 * e2 * e3 * e4)
        return abs(lhs - rhs) / rhs


def scaling_context(eta: tuple[int, int, int, int], B: float) -> ScalingContext:
    e1, e2, e3, e4 = eta
    if min(eta) < 1 or not 0 < B < inf:
        raise ValueError(f"eta must be positive and B positive and finite, not eta={eta}, B={B!r}")
    y0 = (e1**2 * e2**2 * e3**3 * e4**2 / B) ** 0.2
    y1 = (B * e2**3 * e3**2 * e4**3 / e1**2) ** 0.2
    y6 = (B * e1**3 * e2**3 * e3**2 / e4**2) ** 0.2
    return ScalingContext(B=B, eta=eta, y0=y0, y1=y1, y5=1.0 / y0, y6=y6)


def height_forms(t: TorsorPoint, B: int) -> tuple[bool, bool]:
    """(exact, floating) evaluations of the height condition H(psi(t)) <= B.

    Exact: integer comparison max|psi_i| <= B.  Floating: the scaled form
    h(y0, alpha1/y1, eta5/y5, eta6/y6) <= 1.  They agree away from the
    boundary; only the exact form is authoritative.
    """
    from .density import h_max  # deferred: density imports this module

    exact = max(abs(c) for c in psi(t)) <= B
    ctx = scaling_context(t.eta, B)
    floating = (
        h_max(ctx.y0, t.alpha1 / ctx.y1, t.eta5 / ctx.y5, t.eta6 / ctx.y6) <= 1.0
    )
    return exact, floating
