"""Exact hull membership from the phase-one simplex against the Gaussian
elimination + Fourier-Motzkin route it replaced.

`reference_hull._in_hull` grows doubly exponentially with the number of
points, so the drawn clouds stay small: at most 4 points in dimensions 3 and
4, where one query already takes up to 0.1 s, and 5 or 6 below.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hull
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
