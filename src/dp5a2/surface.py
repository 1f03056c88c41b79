"""The quintic surface S in P^5 cut out by five quadrics.

S = { x in P^5 :  x0*x2 - x1*x5 = x0*x2 - x3*x4 = x0*x3 + x1^2 + x1*x4
                = x0*x5 + x1*x4 + x4^2 = x3*x5 + x1*x2 + x2*x4 = 0 }.

S is a del Pezzo surface of degree 5 with a single A2 singularity at
(0:0:1:0:0:0) and exactly four lines; U is the complement of the lines.
Heights are anticanonical: H(x) = max |x_i| on primitive integer coords.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def is_on_surface(p):
    """True iff p lies on S.

    p is one point (returns a bool) or an (N, 6) integer array (returns a
    boolean mask), exact for any Python ints: int64 when every
    |x_i| < 2^30 (each quadric is a sum of at most three products, below
    3 * 2^60), else Python ints (dtype=object).
    """
    if not isinstance(p, np.ndarray):
        return all(q == 0 for q in quadric_values(tuple(p)))
    if p.dtype != object and _magnitude(p) >= 2**30:
        p = p.astype(object)
    return np.logical_and.reduce([q == 0 for q in quadric_values(p.T)])


def _magnitude(x: np.ndarray) -> int:
    """max |x_i| over an integer array, as a Python int (0 if it is empty)."""
    return max(-int(x.min()), int(x.max())) if x.size else 0


def normalize(p: Sequence[int]) -> ProjectivePoint:
    """Primitive representative with first nonzero coordinate positive."""
    if all(c == 0 for c in p):
        raise ValueError("all-zero vector does not define a projective point")
    return ProjectivePoint(*_primitive(p))


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by its gcd, first nonzero entry > 0."""
    g = gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


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
# integer linear algebra: Pluecker coordinates and fraction-free rank
# ---------------------------------------------------------------------------


def matrix_rank_exact(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            if f:
                m[i] = [top[col] * a - f * b for a, b in zip(m[i], top)]
        rank += 1
    return rank


def _pivot_pair(u: Sequence[int], v: Sequence[int]) -> tuple[int, int]:
    """The lexicographically first (i, j), i < j, whose Pluecker coordinate
    p_ij = u_i v_j - u_j v_i is nonzero: the pivot columns of span{u, v}."""
    pair = next(
        ((i, j) for i, j in combinations(range(len(u)), 2) if u[i] * v[j] != u[j] * v[i]), None
    )
    if pair is None:
        raise ValueError("points do not span a line")
    return pair


def _canonical_span(u: Sequence[int], v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical form of the plane span{u, v}: its reduced echelon rows.

    With (i, j) = _pivot_pair(u, v), v_j u - u_j v is zero before i and
    at j, and u_i v - v_i u is zero before j; made primitive, they are the
    reduced echelon rows scaled to integers.
    """
    i, j = _pivot_pair(u, v)
    return (
        _primitive([v[j] * a - u[j] * b for a, b in zip(u, v)]),
        _primitive([u[i] * b - v[i] * a for a, b in zip(u, v)]),
    )


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
        """The line through the distinct points u and v.

        The basis is _canonical_span(u, v).  With p_ab = u_a v_b - u_b v_a
        the Pluecker coordinates and (i, j) = _pivot_pair(u, v), the
        annihilator has one primitive row p_ij e_c - p_cj e_i - p_ic e_j
        for each other column c, in increasing c.
        """
        i, j = _pivot_pair(u, v)

        def p(a: int, b: int) -> int:
            return u[a] * v[b] - u[b] * v[a]

        annihilator = []
        for c in range(len(u)):
            if c not in (i, j):
                w = [0] * len(u)
                w[c], w[i], w[j] = p(i, j), -p(c, j), -p(i, c)
                annihilator.append(_primitive(w))
        return cls(basis=_canonical_span(u, v), annihilator=tuple(annihilator))

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


_IN_U_CHUNK = 1 << 16  # rows per block of in_U: bounds its temporaries at any N


def in_U(p):
    """True iff p lies on S but on none of the four lines.

    p is one point (returns a bool) or an (N, 6) integer array (returns a
    boolean mask of length N).  Raises ValueError if any row is off S.

    A row lies on a line iff every annihilator row of that line (from
    LINES, read at call time) vanishes on it; each such linear form is
    evaluated on the columns it involves, at most three.  The result is
    exact for any Python ints.  The arithmetic runs in int64 when every
    |x_i| < 2^30 (see is_on_surface) and the annihilator rows are small
    enough for each form to stay below 2^62 likewise; otherwise it runs on
    Python ints (dtype=object).  Rows are processed in blocks, so the
    temporaries do not grow with N.
    """
    x = np.asarray(p)
    single = x.ndim == 1
    if x.shape[-1:] != (6,) or x.ndim > 2:
        raise ValueError(f"in_U takes one point or an (N, 6) array, not shape {x.shape}")
    x = np.atleast_2d(x)
    if x.dtype != object and x.dtype.kind not in "iu":
        raise TypeError(f"in_U needs integer coordinates, not {x.dtype}")
    # each line's forms as (column, coefficient) pairs over their nonzero entries
    forms = [[[(c, a) for c, a in enumerate(w) if a] for w in line.annihilator] for line in LINES]
    width = max(sum(abs(a) for _, a in f) for line in forms for f in line)
    big = _magnitude(x)
    x = x.astype(np.int64 if big < 2**30 and big * width < 2**62 else object, copy=False)
    mask = np.empty(len(x), dtype=bool)
    for lo in range(0, len(x), _IN_U_CHUNK):
        block = x[lo : lo + _IN_U_CHUNK]
        off = ~is_on_surface(block)
        if off.any():
            raise ValueError(f"point {tuple(block[off.argmax()].tolist())} is not on the surface")
        cols = block.T
        on_line = np.zeros(len(block), dtype=bool)
        for line in forms:
            on_line |= np.logical_and.reduce([_form(cols, f) == 0 for f in line])
        mask[lo : lo + _IN_U_CHUNK] = ~on_line
    return bool(mask[0]) if single else mask


def _form(cols, f: list[tuple[int, int]]):
    """The linear form with (column, coefficient) pairs f, on the columns cols."""
    terms = [cols[c] if a == 1 else a * cols[c] for c, a in f]
    return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# brute-force point enumeration
# ---------------------------------------------------------------------------


def _box_candidates(bound: int) -> np.ndarray:
    """Integer vectors of height <= bound that may lie on S, as (N, 6) int32.

    For x0 >= 1 the quadrics force x3 = -x1(x1+x4)/x0, x5 = -x4(x1+x4)/x0,
    x2 = x1*x5/x0.  The (x1, x4) grid is sorted once by
    max(|x1(x1+x4)|, |x4(x1+x4)|); the pairs with |x3|, |x5| <= bound at a
    given x0 are the prefix where that key is <= bound*x0, and only there
    are the divisions tested for exactness.  The x0 = 0 slice collapses
    (over the quadrics x1(x1+x4) = x4(x1+x4) = 0) to x4 = -x1, which splits
    into the families (0,t,u,0,-t,0) and, for t = 0, (0,0,u,s,0,0) and
    (0,0,u,0,0,s) with x3*x5 = 0.  Every row is sign-normalized and no
    vector appears twice; none is yet checked against the remaining
    quadrics or for primitivity.
    """
    # every product below is at most 2 * BRUTE_FORCE_MAX^2 in size: int32 is exact
    rng = np.arange(-bound, bound + 1, dtype=np.int32)
    x1 = np.repeat(rng, rng.size)
    x4 = np.tile(rng, rng.size)
    n3 = x1 * (x1 + x4)
    n5 = x4 * (x1 + x4)
    key = np.maximum(np.abs(n3), np.abs(n5))
    order = np.argsort(key, kind="stable")
    key, x1, x4, n3, n5 = key[order], x1[order], x4[order], n3[order], n5[order]

    # x0 >= 1 (sign-normalized since the leading coordinate is positive);
    # q * x0 == n tests x0 | n, much faster than n % x0 == 0 in numpy
    blocks = []
    for x0 in range(1, bound + 1):
        k = np.searchsorted(key, bound * x0, side="right")
        q3 = n3[:k] // x0
        i = np.flatnonzero(q3 * x0 == n3[:k])
        q5 = n5[i] // x0
        ok = q5 * x0 == n5[i]
        i, x3, x5 = i[ok], -q3[i[ok]], -q5[ok]
        n2 = x1[i] * x5
        x2 = n2 // x0
        ok = (x2 * x0 == n2) & (np.abs(x2) <= bound)
        i = i[ok]
        block = np.empty((i.size, 6), dtype=np.int32)
        block[:, 0] = x0
        block[:, 1] = x1[i]
        block[:, 2] = x2[ok]
        block[:, 3] = x3[ok]
        block[:, 4] = x4[i]
        block[:, 5] = x5[ok]
        blocks.append(block)

    # x0 = 0, t >= 1:  (0, t, u, 0, -t, 0), (0, 0, t, u, 0, 0), (0, 0, t, 0, 0, u)
    t = np.repeat(np.arange(1, bound + 1, dtype=np.int32), rng.size)
    u = np.tile(rng, bound)
    fam = np.zeros((3, t.size, 6), dtype=np.int32)
    fam[0, :, 1], fam[0, :, 2], fam[0, :, 4] = t, u, -t
    fam[1, :, 2], fam[1, :, 3] = t, u
    fam[2, :, 2], fam[2, :, 5] = t, u
    blocks.append(fam[:2].reshape(-1, 6))
    blocks.append(fam[2][u != 0])  # at u = 0 it repeats (0, 0, t, 0, 0, 0)
    blocks.append(np.array([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)], dtype=np.int32))
    return np.concatenate(blocks)


@lru_cache(maxsize=8)
def brute_force_points(bound: int) -> np.ndarray:
    """All points of S with height <= bound, as one read-only (N, 6) int64 array.

    One row per point, primitive and sign-normalized (first nonzero
    coordinate positive), in no particular order.  The candidates of
    _box_candidates are filtered once, as one array, through the full
    quadric system and the gcd.  The array is shared through the cache,
    so it is not writeable.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force box {bound} exceeds feasibility bound {BRUTE_FORCE_MAX}")
    rows = _box_candidates(bound)
    keep = np.logical_and.reduce([q == 0 for q in quadric_values(rows.T)])
    g = rows[:, 0]
    for c in range(1, 6):
        g = np.gcd(g, rows[:, c])
    keep &= g == 1
    rows = rows[keep].astype(np.int64)
    rows.flags.writeable = False
    return rows


def find_singular_points(search_height: int = 3) -> list[ProjectivePoint]:
    """Rational points of height <= search_height where the Jacobian has rank < 3."""
    pts = sorted(map(ProjectivePoint._make, brute_force_points(search_height).tolist()))
    return [p for p in pts if matrix_rank_exact(jacobian(p)) < 3]


def find_lines(search_height: int = 5) -> tuple[Line, ...]:
    """Derive the lines on S from scratch.

    Enumerates points of height <= search_height, buckets point pairs by the
    canonical span of the line through them, keeps spans holding >= 3 of the
    enumerated points, and verifies symbolically that each candidate span
    lies in S.  Fails loudly if the count is not 4 (search_height >= 5).
    """
    if search_height < 3:
        raise ValueError("search_height must be >= 3")
    pts = sorted(map(tuple, brute_force_points(search_height).tolist()))
    buckets: dict[tuple, set[tuple[int, ...]]] = {}
    for a, b in combinations(pts, 2):
        key = _canonical_span(a, b)
        buckets.setdefault(key, set()).update((a, b))
    lines = []
    for key, members in buckets.items():
        if len(members) < 3:
            continue
        line = Line.through(*key)
        if line.lies_in_surface():
            lines.append(line)
    lines.sort(key=lambda ln: ln.basis)
    if search_height >= 5 and len(lines) != 4:
        raise RuntimeError(f"expected exactly 4 lines, found {len(lines)}")
    return tuple(lines)
