import math

import pytest
from oracles import boundary_points, contains_rect, interior_points, rectangles_touching

from chms.errors import EmptyRegion, OutOfRange
from chms.grid import GridSpec, classify_region


def grid(n_space=8, n_time=5, h=1.0, k=0.5):
    return GridSpec(n_space, n_time, h, k, n_space * h)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(2, 5, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        GridSpec(8, 1, 1.0, 0.5, 8.0)
    with pytest.raises(ValueError):
        GridSpec(8, 5, 1.0, 0.5, 9.0)  # n_space * h != domain_length
    g = GridSpec.from_circle(10, 4, 3.0, 0.25)
    assert g.h == pytest.approx(0.3)
    assert g.k == pytest.approx(0.075)


@pytest.mark.parametrize("h, k, domain_length", [(math.inf, 1.0, math.inf), (1.0, math.inf, 8.0)])
def test_gridspec_rejects_non_finite_spacings(h, k, domain_length):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(8, 2, h, k, domain_length)


@pytest.mark.parametrize("domain_length, cfl", [(1e-300, 0.25), (2.0, 1e-300), (2.0, 1e300),
                                                (1e-200, 1e200), (1e-78, 1.0)])
def test_gridspec_rejects_spacings_outside_the_float_range(domain_length, cfl):
    # h*k must be a normal float and the Jacobian corner entry
    # 1/(a h^2 k^2) finite and nonzero for every admissible slope a.
    with pytest.raises(ValueError, match="out of range"):
        GridSpec.from_circle(8, 2, domain_length, cfl)


def test_gridspec_accepts_small_but_representable_spacings():
    g = GridSpec.from_circle(8, 2, 1e-60, 1.0)
    assert g.h * g.k > 0.0


def test_touching_interior_point():
    g = grid()
    pairs = rectangles_touching((3, 2), g)
    assert len(pairs) == 4
    assert [l for _, l in pairs] == [1, 2, 3, 4]
    by_l = {l: r for r, l in pairs}
    assert by_l == {1: (3, 2), 2: (2, 2), 3: (2, 1), 4: (3, 1)}


def test_touching_time_boundaries():
    g = grid()
    first = rectangles_touching((3, 0), g)
    assert [l for _, l in first] == [1, 2]
    assert all(r[1] == 0 for r, _ in first)
    last = rectangles_touching((3, g.n_time - 1), g)
    assert [l for _, l in last] == [3, 4]
    with pytest.raises(OutOfRange):
        rectangles_touching((0, g.n_time), g)
    with pytest.raises(OutOfRange):
        rectangles_touching((0, -1), g)


def test_touching_spatial_wraparound():
    g = GridSpec(3, 4, 1.0, 0.5, 3.0)
    pairs = rectangles_touching((0, 2), g)
    by_l = {l: r for r, l in pairs}
    assert by_l[2][0] == 2  # i-1 wraps to the top of the circle
    assert by_l[3][0] == 2


def test_touching_periodic_index_arithmetic():
    g = grid()
    a = rectangles_touching((2, 2), g)
    b = rectangles_touching((2 + g.n_space, 2), g)
    assert a == b


def test_classify_region_counts():
    g = GridSpec(4, 5, 1.0, 0.5, 4.0)
    r = classify_region(0, 2, g)
    assert r == (0, 2)
    assert len(interior_points(r, g)) == 4  # row 1
    assert len(boundary_points(r, g)) == 8  # rows 0 and 2


def test_classify_region_empty_interior():
    g = grid()
    r = classify_region(0, 1, g)
    assert r == (0, 1)
    assert interior_points(r, g) == []
    assert {j for _, j in boundary_points(r, g)} == {0, 1}


def test_classify_region_errors():
    g = grid()
    with pytest.raises(EmptyRegion, match=r"time window \[2, 2\] is empty"):
        classify_region(2, 2, g)
    with pytest.raises(EmptyRegion):
        classify_region(3, 1, g)
    with pytest.raises(OutOfRange, match=r"time window \[0, 5\] outside \[0, 4\]"):
        classify_region(0, g.n_time, g)
    with pytest.raises(OutOfRange):
        classify_region(-1, 2, g)


def test_interior_points_touched_only_by_members():
    g = grid()
    r = classify_region(1, 4, g)
    for p in interior_points(r, g):
        pairs = rectangles_touching(p, g)
        assert len(pairs) == 4
        assert all(contains_rect(r, rect) for rect, _ in pairs)
