from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from dp5a2.surface import (
    LINES,
    Line,
    ProjectivePoint,
    brute_force_points,
    find_lines,
    find_singular_points,
    height,
    in_U,
    is_on_surface,
    jacobian,
    matrix_rank_exact,
    normalize,
    quadric_values,
)

P_SING = ProjectivePoint(0, 0, 1, 0, 0, 0)


def test_known_points_on_surface():
    for p in [
        (1, 0, 0, 0, -1, -1),
        (1, -1, 0, -1, 0, 0),
        (1, 0, 0, 0, 1, -1),
        (1, 1, 0, -1, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 1, 1, 0, -1, 0),
    ]:
        assert is_on_surface(ProjectivePoint(*p)), p


def test_quadric_values_nonzero_off_surface():
    assert any(v != 0 for v in quadric_values(ProjectivePoint(1, 1, 1, 1, 1, 1)))


def test_normalize():
    assert normalize((2, 0, 0, 0, -2, -2)) == ProjectivePoint(1, 0, 0, 0, -1, -1)
    assert normalize((0, 0, -3, 0, 0, 0)) == P_SING
    with pytest.raises(ValueError):
        normalize((0, 0, 0, 0, 0, 0))


def test_height():
    assert height(ProjectivePoint(1, 0, 0, 0, -1, -1)) == 1
    assert height(normalize((2, 0, 0, 0, -4, -2))) == 2


def test_singularity_unique_and_rank():
    sings = find_singular_points(3)
    assert sings == [P_SING]
    assert matrix_rank_exact(jacobian(P_SING)) == 2
    smooth = ProjectivePoint(1, 0, 0, 0, -1, -1)
    assert matrix_rank_exact(jacobian(smooth)) == 3


def test_brute_force_matches_direct_enumeration():
    """Full 6-fold loop oracle at a tiny bound, no solving shortcuts."""
    bound = 3
    expected = set()
    for c in product(range(-bound, bound + 1), repeat=6):
        if all(v == 0 for v in c):
            continue
        # primitive, first nonzero coordinate positive
        g = 0
        for v in c:
            g = gcd(g, v)
        if g != 1:
            continue
        nz = next(v for v in c if v != 0)
        if nz < 0:
            continue
        if is_on_surface(c):
            expected.add(c)
    rows = brute_force_points(bound)
    assert set(map(tuple, rows.tolist())) == expected
    assert len(rows) == len(expected)


def test_brute_force_matches_full_box_array():
    """All 9^6 integer vectors of the box at bound 4 as one array, no solving shortcuts."""
    bound = 4
    rng = np.arange(-bound, bound + 1)
    box = np.stack([c.ravel() for c in np.meshgrid(*[rng] * 6, indexing="ij")], axis=1)
    assert len(box) == 9**6
    on = np.logical_and.reduce([q == 0 for q in quadric_values(box.T)])
    primitive = np.gcd.reduce(box, axis=1) == 1  # the zero vector has gcd 0
    leading = box[np.arange(len(box)), (box != 0).argmax(axis=1)]
    expected = box[on & primitive & (leading > 0)]
    rows = brute_force_points(bound)
    assert len(rows) == len(expected)
    assert set(map(tuple, rows.tolist())) == set(map(tuple, expected.tolist()))


# rows of brute_force_points(B), frozen from the sorted-grid box search that
# the divisor enumeration replaced (the two returned the same row sets for
# every B in 1..500)
BRUTE_FORCE_ROWS = {
    1: 17, 2: 39, 5: 181, 10: 601, 25: 3531, 50: 13321, 100: 50923, 200: 201347, 300: 448157,
}


@pytest.mark.parametrize("bound", sorted(BRUTE_FORCE_ROWS))
def test_brute_force_row_counts_frozen(bound):
    assert len(brute_force_points(bound)) == BRUTE_FORCE_ROWS[bound]


def test_lines_fixture_matches_search():
    assert find_lines(5) == LINES
    assert len(LINES) == 4
    for line in LINES:
        assert line.lies_in_surface()


def test_line_annihilators_against_rank():
    # the annihilator test p in line is checked against the rank of the
    # basis rows with p appended, which shares no code with the Pluecker rows
    pts = brute_force_points(20).tolist()
    for line in LINES:
        assert matrix_rank_exact(line.annihilator) == 4
        for w in line.annihilator:
            assert all(sum(a * c for a, c in zip(w, b)) == 0 for b in line.basis)
        for p in pts:
            assert (p in line) == (matrix_rank_exact([*line.basis, p]) == 2), (line, p)


def test_matrix_rank_exact_matches_numpy():
    rng = np.random.default_rng(20)
    for _ in range(3000):
        m = rng.integers(-3, 4, size=(5, 6))
        i, j = rng.choice(5, size=2, replace=False)
        kind = rng.integers(3)
        if kind == 1:
            m[i] = 0
        elif kind == 2:
            m[i] = m[j]
        assert matrix_rank_exact(m.tolist()) == np.linalg.matrix_rank(m), m
    assert matrix_rank_exact([]) == 0
    assert matrix_rank_exact([[0] * 6] * 5) == 0


def test_line_through_any_two_of_its_points():
    pts = brute_force_points(10).tolist()
    for line in LINES:
        on = [p for p in pts if p in line]
        assert len(on) >= 3
        for u, v in combinations(on, 2):
            other = Line.through(u, v)
            assert (other.basis, other.annihilator) == (line.basis, line.annihilator)
        with pytest.raises(ValueError, match="do not span a line"):
            Line.through(on[0], on[0])


def test_lines_cover_x0_zero_points():
    for p in brute_force_points(20).tolist():
        if p[0] == 0:
            assert any(p in line for line in LINES), p


def test_in_U():
    assert in_U(ProjectivePoint(1, 0, 0, 0, -1, -1)) is True  # one point: a bool
    assert in_U(P_SING) is False
    # the x0 > 0 line family (s, t, 0, 0, -t, 0)
    assert is_on_surface(ProjectivePoint(1, 1, 0, 0, -1, 0))
    assert not in_U(ProjectivePoint(1, 1, 0, 0, -1, 0))
    with pytest.raises(ValueError):
        in_U(ProjectivePoint(1, 1, 1, 1, 1, 1))


def test_brute_force_points_are_valid():
    for bound in (1, 5, 17):
        rows = brute_force_points(bound)
        assert rows.dtype.kind == "i" and rows.ndim == 2 and rows.shape[1] == 6
        for p in rows.tolist():
            assert is_on_surface(p)
            assert gcd(*p) == 1
            assert next(c for c in p if c) > 0
            assert max(map(abs, p)) <= bound


def test_brute_force_points_array_is_read_only():
    rows = brute_force_points(5)
    with pytest.raises(ValueError):
        rows[0, 0] = 7
    with pytest.raises(ValueError):
        rows += 1
    assert brute_force_points(5) is rows


def test_brute_force_points_rows_unique():
    # the singular point lies on both x0 = 0 families (0, 0, t, u, 0, 0) and
    # (0, 0, t, 0, 0, u); it must still be one row
    for bound in (*range(1, 61), 100):
        rows = brute_force_points(bound)
        assert len(np.unique(rows, axis=0)) == len(rows), bound
        assert (rows == P_SING).all(axis=1).sum() == 1, bound


def test_in_U_array_matches_reference():
    # the one-pass mask against the scalar quadrics and Line.__contains__,
    # x0 = 0 points included
    rows = brute_force_points(60)
    mask = in_U(rows)
    assert mask.dtype == bool and mask.shape == (len(rows),)
    pts = rows.tolist()
    expected = [is_on_surface(p) and not any(p in line for line in LINES) for p in pts]
    assert mask.tolist() == expected
    assert any(p[0] == 0 for p in pts) and 0 < sum(expected) < len(pts)


def test_in_U_array_rejects_off_surface_row():
    rows = brute_force_points(5)[:10].tolist() + [(1, 1, 1, 1, 1, 1)]
    with pytest.raises(ValueError, match=r"\(1, 1, 1, 1, 1, 1\)"):
        in_U(np.array(rows))


def test_in_U_exact_beyond_int64():
    from dp5a2.torsor import TorsorPoint, psi

    e6, a1 = 2**20 + 1, 2**20 + 3
    u_point = psi(TorsorPoint(1, 1, 1, 1, 1, e6, a1, -(e6 + a1)))  # x3*x5 ~ 2^81
    line_point = (0, 2**40, 1, 0, -2**40, 0)
    assert in_U(u_point) is True
    assert in_U(line_point) is False
    assert in_U([u_point, line_point]).tolist() == [True, False]
    # x0*x2 = 2^64 wraps to 0 in int64; the exact route sees it off S
    with pytest.raises(ValueError):
        in_U((2**32, 0, 2**32, 0, 0, 0))
