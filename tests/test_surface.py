from itertools import product
from math import gcd

import numpy as np
import pytest

from dp5a2.surface import (
    LINES,
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


def test_lines_fixture_matches_search():
    assert find_lines(5) == LINES
    assert len(LINES) == 4
    for line in LINES:
        assert line.lies_in_surface()


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
