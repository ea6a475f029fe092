"""Exact hull membership from the fraction-free phase-one simplex against
the two routes before it: the same simplex over `Fraction`
(`reference_hull.reference_feasible`) and Gaussian elimination +
Fourier-Motzkin (`reference_hull._in_hull`).

`reference_hull._in_hull` grows doubly exponentially with the number of
points, so its drawn clouds stay small: at most 4 points in dimensions 3 and
4, where one query already takes up to 0.1 s, and 5 or 6 below.  The
rational simplex takes the larger clouds.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hull
from reference_hull import reference_feasible
from toricdeg import toric
from toricdeg.toric import _feasible, _in_hull, hull_vertices

SLACKS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def _rationals(bound: int):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 3))


@st.composite
def _hull_queries(draw):
    """(point, points, slack): a cloud in dimension 1-4, full or flat (its
    affine span of any lower dimension, a single point included), and a
    query inside, beyond a point of the cloud, at one, at the midpoint of
    two, or shifted by exactly +-slack in some coordinates from one."""
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, max(4, 7 - d)))
    k = draw(st.integers(0, d))  # dimension of the affine span drawn
    vec = st.lists(_rationals(3), min_size=d, max_size=d)
    base = draw(vec)
    dirs = [draw(vec) for _ in range(k)]
    pts = []
    for _ in range(q):
        cs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
        pts.append(tuple(b + sum(c * v[i] for c, v in zip(cs, dirs))
                         for i, b in enumerate(base)))
    slack = draw(st.sampled_from(SLACKS))
    kind = draw(st.sampled_from(("inside", "beyond", "point", "midpoint",
                                 "shifted")))
    if kind == "inside":
        w = draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))
        w[draw(st.integers(0, q - 1))] += 1
        x = [sum(wi * p[i] for wi, p in zip(w, pts)) / sum(w) for i in range(d)]
    elif kind == "beyond":
        # past a point of the cloud, away from its centroid, then nudged
        p = draw(st.sampled_from(pts))
        nudge = draw(st.lists(_rationals(2), min_size=d, max_size=d))
        x = [3 * p[i] - 2 * sum(r[i] for r in pts) / q + nudge[i]
             for i in range(d)]
    elif kind == "midpoint":
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        x = [(s + t) / 2 for s, t in zip(a, b)]
    else:
        x = list(draw(st.sampled_from(pts)))
    if kind == "shifted":
        signs = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=d, max_size=d))
        x = [c + s * slack for c, s in zip(x, signs)]
    return x, pts, slack


@settings(max_examples=300, deadline=None)
@given(_hull_queries())
def test_in_hull_matches_fourier_motzkin(query):
    point, points, slack = query
    assert _in_hull(point, points, slack) == reference_hull._in_hull(point, points, slack)


def test_in_hull_exactly_at_slack():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    s = Fraction(1, 4)
    for point, want in [((Fraction(5, 4), Fraction(1, 2)), True),
                        ((Fraction(-1, 4), Fraction(-1, 4)), True),
                        ((Fraction(5, 4) + Fraction(1, 10**15), 0), False)]:
        assert _in_hull(point, square, s) is want
        assert reference_hull._in_hull(point, square, s) is want


@st.composite
def _systems(draw):
    """(rows, rhs): 1-6 rows over 1-8 columns of ints and Fractions with
    denominators up to 7, small or up to 10^30 in size, with zero and
    duplicated rows, and a right-hand side drawn freely (negative entries
    included) or planted as rows . y for a drawn y >= 0."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    big = 10**30
    entry = st.one_of(st.integers(-3, 3), st.integers(-big, big),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
                      st.builds(Fraction, st.integers(-big, big), st.integers(1, 7)))
    rows, rhs = [], []
    for _ in range(m):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "duplicate")))
        if kind == "duplicate" and rows:
            k = draw(st.integers(0, len(rows) - 1))
            rows.append(list(rows[k]))
            rhs.append(rhs[k])
        elif kind == "zero":
            rows.append([0] * n)
            rhs.append(draw(st.sampled_from((0, 0, 1, -1))))
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
            rhs.append(draw(entry))
    if draw(st.booleans()):
        y = draw(st.lists(st.one_of(st.just(0), entry.map(abs)),
                          min_size=n, max_size=n))
        rhs = [sum(c * x for c, x in zip(row, y)) for row in rows]
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_feasible_matches_rational_tableau(system):
    rows, rhs = system
    assert _feasible(rows, rhs) == reference_feasible(rows, rhs)


@st.composite
def _large_clouds(draw):
    """Up to 12 rational points in dimension 2-5, some of them convex
    combinations of others, so that some points are not vertices."""
    d = draw(st.integers(2, 5))
    vec = st.lists(_rationals(4), min_size=d, max_size=d)
    pts = draw(st.lists(vec, min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(pts)))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        t = draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3))))
        pts.append([t * x + (1 - t) * y for x, y in zip(a, b)])
    return pts


@settings(max_examples=60, deadline=None)
@given(_large_clouds())
def test_hull_vertices_matches_rational_tableau(points):
    with mock.patch.object(toric, "_feasible", reference_feasible):
        want = hull_vertices(points)
    assert hull_vertices(points) == want


def test_feasible_edge_cases():
    one = Fraction(1)
    assert _feasible([[0, 0]], [0])                 # y = 0
    assert not _feasible([[0, 0]], [one])           # 0 = 1
    assert not _feasible([[one, one]], [-one])      # y1 + y2 = -1, y >= 0
    assert _feasible([[one, -one]], [-one])         # y2 = y1 + 1
    # a redundant row and a degenerate (zero) right-hand side
    assert _feasible([[one, one, 0], [2, 2, 0], [one, 0, -one]], [one, 2, 0])


def test_hull_vertices_heptagon_and_flat_cloud():
    hept = [(0, 1), (1, 0), (3, 0), (4, 1), (4, 3), (2, 4), (0, 3)]
    inner = [(2, 2), (1, 1), (3, 2)]
    assert hull_vertices(hept + inner) == [tuple(map(Fraction, p)) for p in hept]
    segment = [(0, 0, 0), (2, 2, 2), (1, 1, 1), (3, 3, 3)]
    assert hull_vertices(segment) == [(0, 0, 0), (3, 3, 3)]
