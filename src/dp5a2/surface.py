"""The quintic surface S in P^5 cut out by five quadrics.

S = { x in P^5 :  x0*x2 - x1*x5 = x0*x2 - x3*x4 = x0*x3 + x1^2 + x1*x4
                = x0*x5 + x1*x4 + x4^2 = x3*x5 + x1*x2 + x2*x4 = 0 }.

S is a del Pezzo surface of degree 5 with a single A2 singularity at
(0:0:1:0:0:0) and exactly four lines; U is the complement of the lines.
Heights are anticanonical: H(x) = max |x_i| on primitive integer coords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Line",
    "LINES",
    "ProjectivePoint",
    "brute_force_points",
    "find_lines",
    "find_singular_points",
    "height",
    "in_U",
    "is_on_surface",
    "jacobian",
    "normalize",
    "quadric_values",
]

BRUTE_FORCE_MAX = 500  # per-coordinate box size beyond which enumeration is refused


class ProjectivePoint(NamedTuple):
    x0: int
    x1: int
    x2: int
    x3: int
    x4: int
    x5: int


def quadric_values(p):
    """The five defining quadrics at p.  Works on ints and numpy arrays."""
    x0, x1, x2, x3, x4, x5 = p
    return (
        x0 * x2 - x1 * x5,
        x0 * x2 - x3 * x4,
        x0 * x3 + x1 * x1 + x1 * x4,
        x0 * x5 + x1 * x4 + x4 * x4,
        x3 * x5 + x1 * x2 + x2 * x4,
    )


def is_on_surface(p: Sequence[int]) -> bool:
    return all(q == 0 for q in quadric_values(tuple(p)))


def normalize(p: Sequence[int]) -> ProjectivePoint:
    """Primitive representative with first nonzero coordinate positive."""
    if all(c == 0 for c in p):
        raise ValueError("all-zero vector does not define a projective point")
    g = 0
    for c in p:
        g = gcd(g, c)
    coords = [c // g for c in p]
    for c in coords:
        if c != 0:
            if c < 0:
                coords = [-d for d in coords]
            break
    return ProjectivePoint(*coords)


def height(p: Sequence[int]) -> int:
    """max |x_i| of the normalized representative."""
    return max(abs(c) for c in normalize(p))


def jacobian(p: Sequence[int]) -> list[list[int]]:
    """5x6 integer Jacobian of the quadrics at p."""
    x0, x1, x2, x3, x4, x5 = p
    return [
        [x2, -x5, x0, 0, 0, -x1],
        [x2, 0, x0, -x4, -x3, 0],
        [x3, 2 * x1 + x4, 0, x0, x1, 0],
        [x5, x4, 0, 0, x1 + 2 * x4, x0],
        [0, x2, x1 + x4, x5, x2, x3],
    ]


# ---------------------------------------------------------------------------
# small exact linear algebra (matrices are at most 5x6)
# ---------------------------------------------------------------------------


def _rref(rows: Iterable[Sequence[int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns)."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [c / inv for c in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def matrix_rank_exact(rows: Iterable[Sequence[int]]) -> int:
    return len(_rref(rows)[0])


def _primitive_int_row(row: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational row to a primitive integer row, leading entry > 0."""
    den = 1
    for c in row:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in row]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-d for d in ints]
            break
    return tuple(ints)


def _canonical_span(u: Sequence[int], v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of the plane span{u, v}: primitive integer RREF rows."""
    rows, _ = _rref([u, v])
    return tuple(_primitive_int_row(r) for r in rows)


def _nullspace_int(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Integer basis of {w : row . w = 0 for all rows}."""
    rref, pivots = _rref(rows)
    ncols = len(rref[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        w = [Fraction(0)] * ncols
        w[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            w[pc] = -rref[i][c]
        basis.append(_primitive_int_row(w))
    return tuple(basis)


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Line:
    """A projective line contained in S, stored by its canonical span."""

    basis: tuple[tuple[int, ...], tuple[int, ...]]
    annihilator: tuple[tuple[int, ...], ...] = field(compare=False)

    @classmethod
    def through(cls, u: Sequence[int], v: Sequence[int]) -> "Line":
        span = _canonical_span(u, v)
        if len(span) != 2:
            raise ValueError("points do not span a line")
        return cls(basis=(span[0], span[1]), annihilator=_nullspace_int(span))

    def __contains__(self, p: Sequence[int]) -> bool:
        return all(sum(a * c for a, c in zip(w, p)) == 0 for w in self.annihilator)

    def lies_in_surface(self) -> bool:
        """All five quadrics vanish identically on the span (checked via
        values at u, v and the polarization Q(u+v) - Q(u) - Q(v))."""
        u, v = self.basis
        uv = tuple(a + b for a, b in zip(u, v))
        qu, qv, quv = quadric_values(u), quadric_values(v), quadric_values(uv)
        return all(a == 0 and b == 0 and c - a - b == 0 for a, b, c in zip(qu, qv, quv))


# The four lines of S, derived once by find_lines(5) and frozen here as a
# regression fixture (canonical span form, sorted by basis):
#   {x0 = x1 = x3 = x4 = 0},  {x0 = x1 = x4 = x5 = 0},
#   {(0, t, u, 0, -t, 0)},    {(s, t, 0, 0, -t, 0)}.
LINES: tuple[Line, ...] = (
    Line.through((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    Line.through((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
    Line.through((0, 1, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0)),
    Line.through((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, -1, 0)),
)


def in_U(p: Sequence[int]) -> bool:
    """True iff p lies on S but on none of the four lines."""
    if not is_on_surface(p):
        raise ValueError(f"point {tuple(p)} is not on the surface")
    return not any(p in line for line in LINES)


# ---------------------------------------------------------------------------
# brute-force point enumeration
# ---------------------------------------------------------------------------


def _emit(out: set[ProjectivePoint], cols: tuple[np.ndarray, ...]) -> None:
    """Append all primitive surface points from parallel coordinate arrays.

    Coordinates are assumed sign-normalized by construction; every candidate
    is still filtered through the full quadric system.
    """
    mask = np.ones(cols[0].shape, dtype=bool)
    for q in quadric_values(cols):
        mask &= q == 0
    g = np.zeros(cols[0].shape, dtype=np.int64)
    for c in cols:
        g = np.gcd(g, np.abs(c))
    mask &= g == 1
    idx = np.nonzero(mask)
    stacked = np.stack([c[idx] for c in cols], axis=-1)
    for row in stacked.tolist():
        out.add(ProjectivePoint(*row))


@lru_cache(maxsize=8)
def brute_force_points(bound: int) -> frozenset[ProjectivePoint]:
    """All points of S with height <= bound, as normalized primitive tuples.

    For x0 >= 1 the quadrics force x3 = -x1(x1+x4)/x0, x5 = -x4(x1+x4)/x0,
    x2 = x1*x5/x0; candidates where those divisions are exact are filtered
    through the remaining quadrics.  The x0 = 0 slice collapses (over the
    quadrics x1(x1+x4) = x4(x1+x4) = 0) to x4 = -x1, which splits into the
    families (0,t,u,0,-t,0) and, for t = 0, (0,0,u,s,0,0)/(0,0,u,0,0,s)
    with x3*x5 = 0; each family is enumerated and re-verified.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force box {bound} exceeds feasibility bound {BRUTE_FORCE_MAX}")
    out: set[ProjectivePoint] = set()
    rng = np.arange(-bound, bound + 1, dtype=np.int64)

    # x0 >= 1 (sign-normalized since the leading coordinate is positive)
    for x0 in range(1, bound + 1):
        x1 = rng[:, None]
        x4 = rng[None, :]
        s = x1 + x4
        n3 = x1 * s
        n5 = x4 * s
        ok = (n3 % x0 == 0) & (n5 % x0 == 0)
        x3 = -(n3 // x0)
        x5 = -(n5 // x0)
        ok &= (np.abs(x3) <= bound) & (np.abs(x5) <= bound)
        n2 = x1 * x5
        ok &= n2 % x0 == 0
        x2 = n2 // x0
        ok &= np.abs(x2) <= bound
        idx = np.nonzero(ok)
        cols = (
            np.full(idx[0].shape, x0, dtype=np.int64),
            np.broadcast_to(x1, ok.shape)[idx],
            x2[idx],
            x3[idx],
            np.broadcast_to(x4, ok.shape)[idx],
            x5[idx],
        )
        _emit(out, cols)

    # x0 = 0, x1 = t >= 1:  (0, t, u, 0, -t, 0)
    t = np.arange(1, bound + 1, dtype=np.int64)[:, None]
    u = rng[None, :]
    shape = np.broadcast_shapes(t.shape, u.shape)
    zero = np.zeros(shape, dtype=np.int64)
    tt = np.broadcast_to(t, shape)
    uu = np.broadcast_to(u, shape)
    _emit(out, (zero, tt, uu, zero, -tt, zero))

    # x0 = x1 = x4 = 0 and x3*x5 = 0:  (0,0,u,s,0,0) and (0,0,u,0,0,s), u >= 1
    up = np.arange(1, bound + 1, dtype=np.int64)[:, None]
    sv = rng[None, :]
    shape = np.broadcast_shapes(up.shape, sv.shape)
    zero = np.zeros(shape, dtype=np.int64)
    uu = np.broadcast_to(up, shape)
    ss = np.broadcast_to(sv, shape)
    _emit(out, (zero, zero, uu, ss, zero, zero))
    _emit(out, (zero, zero, uu, zero, zero, ss))
    out.add(ProjectivePoint(0, 0, 0, 1, 0, 0))
    out.add(ProjectivePoint(0, 0, 0, 0, 0, 1))
    return frozenset(out)


def find_singular_points(search_height: int = 3) -> list[ProjectivePoint]:
    """Rational points of height <= search_height where the Jacobian has rank < 3."""
    return [
        p
        for p in sorted(brute_force_points(search_height))
        if matrix_rank_exact(jacobian(p)) < 3
    ]


def find_lines(search_height: int = 5) -> tuple[Line, ...]:
    """Derive the lines on S from scratch.

    Enumerates points of height <= search_height, buckets point pairs by the
    canonical span of the line through them, keeps spans holding >= 3 of the
    enumerated points, and verifies symbolically that each candidate span
    lies in S.  Fails loudly if the count is not 4 (search_height >= 5).
    """
    if search_height < 3:
        raise ValueError("search_height must be >= 3")
    pts = sorted(brute_force_points(search_height))
    buckets: dict[tuple, set[ProjectivePoint]] = {}
    for a, b in combinations(pts, 2):
        key = _canonical_span(a, b)
        buckets.setdefault(key, set()).update((a, b))
    lines = []
    for key, members in buckets.items():
        if len(members) < 3:
            continue
        line = Line(basis=(key[0], key[1]), annihilator=_nullspace_int(key))
        if line.lies_in_surface():
            lines.append(line)
    lines.sort(key=lambda ln: ln.basis)
    if search_height >= 5 and len(lines) != 4:
        raise RuntimeError(f"expected exactly 4 lines, found {len(lines)}")
    return tuple(lines)
