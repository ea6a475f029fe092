"""Toric ideals, semigroup polytopes, the orthant embedding, torus points."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_embedding import graded_embedding_matrix
from reference_saturation import saturate as reference_saturate

from toricdeg.groebner import Ideal, canonical, normal_form, reduced_basis, same_ideal
from toricdeg.intlat import IntMatrix, kernel_lattice
from toricdeg.polycore import (
    DimensionMismatch,
    Grading,
    Polynomial,
    dot,
    format_polynomial,
    parse_polynomial,
)
from toricdeg.toric import (
    NotDegreeOneGenerated,
    PolytopeQ,
    Semigroup,
    ZeroParameter,
    _saturation_variables,
    delta_polytope,
    embed_semigroup,
    hull_vertices,
    is_vertex,
    point_in_polytope,
    toric_ideal,
    torus_point,
    veronese,
)

TC_VARS = ("u3", "u2", "u1", "u0")
TC_MATRIX = IntMatrix([[1, 1, 1, 1], [3, 2, 1, 0]])


def _apply(A: IntMatrix, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A.entries)


def _random_rational(rng) -> Fraction:
    num = rng.choice([x for x in range(-7, 8) if x != 0])
    return Fraction(num, rng.randint(1, 7))


def test_toric_twisted_cubic_three_quadrics():
    T = toric_ideal(TC_MATRIX, TC_VARS)
    want = canonical(Ideal([parse_polynomial(s, TC_VARS) for s in
                            ("u2^2 - u3*u1", "u1^2 - u2*u0", "u2*u1 - u3*u0")],
                           TC_VARS))
    assert same_ideal(T, want)


def test_toric_full_column_rank_is_zero():
    T = toric_ideal(IntMatrix([[1, 0], [0, 1]]), ("x", "y"))
    assert T.is_zero()


def test_toric_elliptic_matches_ring_map_kernel():
    # cross-oracle: the kernel of A -> y^3, B -> y^2 z, C -> z^3 mod the cubic
    from toricdeg.groebner import ring_map_kernel
    names = ("A", "B", "C")
    T = toric_ideal(IntMatrix([[3, 2, 0], [0, 1, 3]]), names)
    vars = ("x", "y", "z")
    target = Ideal([parse_polynomial("y^2*z - x^3 + x*z^2", vars)], vars,
                   grading=Grading.standard(3))
    images = [parse_polynomial(s, vars) for s in ("y^3", "y^2*z", "z^3")]
    K = ring_map_kernel(names, images, target)
    assert same_ideal(T, K)


def test_toric_homogeneous_for_every_row():
    matrices = [TC_MATRIX,
                IntMatrix([[1, 1, 1], [1, 0, 3]]),
                IntMatrix([[2, 1, 0], [0, 1, 2], [1, 1, 1]])]
    for A in matrices:
        T = toric_ideal(A, tuple(f"x{i}" for i in range(A.cols)))
        for g in T.gens:
            for row in A.entries:
                weights = {dot(row, e) for e in g.terms}
                assert len(weights) == 1


def test_toric_vanishes_on_torus_points():
    rng = random.Random(99)
    for A in (TC_MATRIX, IntMatrix([[1, 1, 1], [1, 0, 3]])):
        names = tuple(f"x{i}" for i in range(A.cols))
        T = toric_ideal(A, names)
        for _ in range(50):
            t = [_random_rational(rng) for _ in range(A.rows)]
            pt = torus_point(A, t)
            for g in T.gens:
                assert g.evaluate(pt) == 0


def test_cubic_veronese_ideal_equals_quadric_enumeration():
    """Independent oracle: the kernel of the degree-3 monomial map is cut out
    by the quadratic binomials u_a u_b - u_c u_d with a + b = c + d."""
    from itertools import combinations_with_replacement
    from toricdeg import fixtures as fx
    from toricdeg.polycore import Polynomial

    mons, uv = fx.veronese3_coordinates()
    T = toric_ideal(IntMatrix.from_columns(mons), uv)
    by_sum = {}
    for i, j in combinations_with_replacement(range(10), 2):
        s = tuple(a + b for a, b in zip(mons[i], mons[j]))
        by_sum.setdefault(s, []).append((i, j))
    gens = []
    for pairs in by_sum.values():
        first = pairs[0]
        for other in pairs[1:]:
            e1 = [0] * 10
            e1[first[0]] += 1
            e1[first[1]] += 1
            e2 = [0] * 10
            e2[other[0]] += 1
            e2[other[1]] += 1
            gens.append(Polynomial.monomial(uv, tuple(e1))
                        - Polynomial.monomial(uv, tuple(e2)))
    Q = canonical(Ideal(gens, uv))
    assert same_ideal(T, Q)


def test_kernel_binomials_reduce_to_zero():
    for A in (TC_MATRIX, IntMatrix([[1, 1, 1, 1], [0, 1, 2, 4]])):
        names = tuple(f"x{i}" for i in range(A.cols))
        T = toric_ideal(A, names)
        G = reduced_basis(T)
        for u in kernel_lattice(A):
            plus = tuple(x if x > 0 else 0 for x in u)
            minus = tuple(-x if x < 0 else 0 for x in u)
            b = Polynomial.monomial(names, plus) - Polynomial.monomial(names, minus)
            assert normal_form(b, G).is_zero()


def _balanced(tau, basis):
    return all(bool(tau & {i for i, x in enumerate(u) if x > 0})
               == bool(tau & {i for i, x in enumerate(u) if x < 0}) for u in basis)


def _hits_every_balanced_set(sigma, basis, n):
    occurring = [i for i in range(n) if any(u[i] for u in basis)]
    return all(set(sigma) & set(tau)
               for k in range(1, len(occurring) + 1)
               for tau in itertools.combinations(occurring, k)
               if _balanced(set(tau), basis))


def test_saturation_variables_minimal_hitting_set_brute_force():
    rng = random.Random(4242)
    nonempty = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        basis = [tuple(rng.randint(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(1, n))]
        basis = [u for u in basis if any(u)]
        if not basis:
            continue
        sigma = _saturation_variables(basis)
        assert sigma == sorted(set(sigma))
        assert _hits_every_balanced_set(sigma, basis, n)
        for k in range(len(sigma)):
            for sub in itertools.combinations(sigma, k):
                assert not _hits_every_balanced_set(sub, basis, n)
        nonempty += bool(sigma)
    assert nonempty >= 50


def test_saturation_variables_empty_without_balanced_sets():
    # x0*x1 - 1: no balanced set, and the binomial ideal is already prime;
    # x2 occurs in no binomial, so no associated prime contains it
    assert _saturation_variables([(1, 1)]) == []
    assert _saturation_variables([(1, 1, 0)]) == []
    T = toric_ideal(IntMatrix([[1, -1]]), ("x", "y"))
    assert [format_polynomial(g) for g in T.gens] == ["x*y - 1"]


def _eliminated_toric(A, names):
    """The kernel binomials saturated by every variable through the
    elimination oracle (1 - y*x), the route toric_ideal took whenever its
    grading did not apply, with toric_ideal's grading."""
    basis = kernel_lattice(A)
    grading = Grading.standard(len(names)) if all(sum(u) == 0 for u in basis) else None
    gens = []
    for u in basis:
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        gens.append(Polynomial.monomial(names, plus) - Polynomial.monomial(names, minus))
    I = Ideal(gens, names)
    for v in names:
        I = reference_saturate(I, Polynomial.variable(names, v))
    return canonical(Ideal(I.gens, names, grading=grading))


def test_toric_positive_row_takes_graded_route(monkeypatch):
    # the all-ones vector is outside the row space of (2,1,2,3,3,2), but the
    # binomials are homogeneous for that positive row
    from toricdeg import groebner
    names = ("a", "b", "c", "d", "e", "f")
    A = IntMatrix([[2, 1, 2, 3, 3, 2]])
    want = _eliminated_toric(A, names)

    def refuse(*args, **kwargs):
        raise AssertionError("saturated through I^h")

    monkeypatch.setattr(groebner, "_homogenized", refuse)
    T = toric_ideal(A, names)
    monkeypatch.undo()
    assert T.grading is None
    assert T.gens == want.gens
    assert reduced_basis(T).elements == reduced_basis(want).elements


def test_toric_positive_row_matches_elimination_route():
    rng = random.Random(7331)
    nonstandard = 0
    for _ in range(30):
        n = rng.randint(3, 5)
        rows = [[rng.randint(1, 3) for _ in range(n)]]
        rows += [[rng.randint(-2, 3) for _ in range(n)] for _ in range(rng.randint(0, 1))]
        rng.shuffle(rows)
        A = IntMatrix(rows)
        names = tuple(f"x{i}" for i in range(n))
        T = toric_ideal(A, names)
        want = _eliminated_toric(A, names)
        assert T.grading == want.grading
        assert T.gens == want.gens
        nonstandard += T.grading is None
    assert nonstandard >= 10


# ---------------------------------------------------------------------------
# polytopes


def test_delta_elliptic_interval():
    S = Semigroup([(1, 0), (1, 1), (1, 3)])
    D = delta_polytope(S)
    assert set(D.vertices) == {(Fraction(0),), (Fraction(3),)}


def test_delta_single_generator_point():
    S = Semigroup([(2, 4, 6)])
    D = delta_polytope(S)
    assert D.vertices == ((Fraction(2), Fraction(3)),)


def test_delta_mixed_degrees_normalizes():
    S = Semigroup([(1, 1), (2, 6)])
    D = delta_polytope(S)
    assert set(D.vertices) == {(Fraction(1),), (Fraction(3),)}


def test_delta_non_integer_vertices_and_veronese_scale():
    # degrees 2, 3 and 6 normalize to denominators 2, 3 and 6; (1/6, 1/6)
    # is interior.  Veronese degree-6 re-grading keeps the polytope, now with
    # degree-one generators and degree_scale 6
    S = Semigroup([(1, 0, 0), (2, 1, 0), (3, 0, 2), (2, 1, 1), (6, 1, 1)])
    half, third = Fraction(1, 2), Fraction(1, 3)
    want = {(0, 0), (half, 0), (0, 2 * third), (half, half)}
    assert set(delta_polytope(S).vertices) == want
    V = veronese(S, 6)
    assert V.degree_scale == 6 and all(g[0] == 1 for g in V.gens)
    assert set(delta_polytope(V).vertices) == want


def test_hull_queries_of_the_wrong_length_raise():
    triangle = PolytopeQ([(0, 0), (1, 0), (0, 1)], 2)
    with pytest.raises(DimensionMismatch):
        point_in_polytope((1,), triangle)
    with pytest.raises(DimensionMismatch):
        point_in_polytope((0, 0, 0), triangle)


def test_is_vertex_of_the_wrong_length_raises():
    with pytest.raises(DimensionMismatch):
        is_vertex((0,), [(0, 0), (1, 1)])
    with pytest.raises(DimensionMismatch):
        is_vertex((0, 0, 0), [(0, 0), (1, 1)])


def test_hull_vertices_of_a_ragged_cloud_raise():
    with pytest.raises(DimensionMismatch):
        hull_vertices([(0, 0), (1,), (2, 2)])
    with pytest.raises(DimensionMismatch):
        hull_vertices([(0, 0), (1, 1, 1)])


def test_hull_vertices_drops_interior():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1)]  # (1,1) is on the edge hull
    vs = hull_vertices(pts)
    assert (Fraction(1), Fraction(1)) not in vs
    assert len(vs) == 3
    assert hull_vertices([(1, 2)]) == [(Fraction(1), Fraction(2))]


def test_point_in_polytope_with_slack():
    P = PolytopeQ([(0, 0), (1, 0), (0, 1)], 2)
    assert point_in_polytope((Fraction(1, 4), Fraction(1, 4)), P)
    assert not point_in_polytope((2, 2), P)
    assert point_in_polytope((Fraction(101, 100), 0), P, slack=Fraction(1, 50))


def test_is_vertex():
    pts = [(0,), (1,), (3,)]
    assert is_vertex((0,), pts)
    assert is_vertex((3,), pts)
    assert not is_vertex((1,), pts)
    assert is_vertex((2,), [(2,)])


def test_hull_membership_against_halfplane_oracle():
    """Independent oracle in the plane: exact half-plane tests from the
    monotone-chain hull agree with the feasibility-based membership."""
    rng = random.Random(2025)

    def hull2d(pts):
        pts = sorted(set(pts))
        if len(pts) <= 2:
            return pts

        def cross(o, a, b):
            return ((a[0] - o[0]) * (b[1] - o[1])
                    - (a[1] - o[1]) * (b[0] - o[0]))

        lower, upper = [], []
        for p in pts:
            while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        for p in reversed(pts):
            while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        return lower[:-1] + upper[:-1]

    def inside_halfplanes(q, hull):
        if len(hull) == 1:
            return q == hull[0]
        if len(hull) == 2:
            (x1, y1), (x2, y2) = hull
            cr = (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1)
            if cr != 0:
                return False
            t1 = min(x1, x2) <= q[0] <= max(x1, x2)
            t2 = min(y1, y2) <= q[1] <= max(y1, y2)
            return t1 and t2
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            cr = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if cr < 0:
                return False
        return True

    for _ in range(20):
        pts = [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
               for _ in range(rng.randint(3, 7))]
        hull = hull2d(pts)
        P = PolytopeQ(hull_vertices(pts), 2)
        assert set(P.vertices) == set(hull)
        for _ in range(12):
            q = (Fraction(rng.randint(-10, 10), rng.randint(1, 3)),
                 Fraction(rng.randint(-10, 10), rng.randint(1, 3)))
            assert point_in_polytope(q, P) == inside_halfplanes(q, hull)


# ---------------------------------------------------------------------------
# veronese and embedding


def test_veronese_identity():
    S = Semigroup([(1, 0), (1, 2)])
    assert veronese(S, 1) is S


def test_veronese_elliptic_cubes():
    S = Semigroup([(1, 0), (1, 1), (1, 3)])
    V = veronese(S, 3)
    # triple sums re-graded to degree one: values 0..7 and 9 appear
    values = {g[1] for g in V.gens}
    assert values == {0, 1, 2, 3, 4, 5, 6, 7, 9}
    assert all(g[0] == 1 for g in V.gens)


def test_veronese_delta_invariant():
    S = Semigroup([(1, 0), (1, 1), (1, 3)])
    D1 = delta_polytope(S)
    for n in (1, 2, 3):
        Dn = delta_polytope(veronese(S, n))
        assert set(Dn.vertices) == set(D1.vertices)


def _reference_veronese_sums(S: Semigroup, n: int) -> list:
    """The sorted degree-n sums of generators as veronese built them, by one
    recursive call per generator added."""
    sums = set()

    def rec(start, total, acc):
        if total == n:
            sums.add(tuple(acc))
            return
        for i in range(start, len(S.gens)):
            g = S.gens[i]
            if total + g[0] <= n:
                rec(i, total + g[0], tuple(a + b for a, b in zip(acc, g)))

    rec(0, 0, (0,) * S.ambient_dim)
    return sorted(sums)


@settings(max_examples=60, deadline=None)
@given(gens=st.integers(1, 2).flatmap(lambda r: st.lists(
           st.tuples(st.integers(1, 3), *[st.integers(-2, 3)] * r),
           min_size=1, max_size=4)),
       n=st.integers(2, 7))
def test_veronese_matches_recursive_sums(gens, n):
    S = Semigroup(gens, degree_scale=2)
    want = _reference_veronese_sums(S, n)
    if not want:
        with pytest.raises(ValueError, match="no semigroup elements"):
            veronese(S, n)
        return
    V = veronese(S, n)
    assert V.gens == tuple((s[0] // n,) + s[1:] for s in want)
    assert V.degree_scale == 2 * n


def test_veronese_of_high_degree_does_not_recurse():
    V = veronese(Semigroup([(1, 0)]), 1200)
    assert V.gens == ((1, 0),) and V.degree_scale == 1200


def test_embed_elliptic():
    S = Semigroup([(1, 0), (1, 1), (1, 3)])
    N, images = embed_semigroup(S)
    assert N == 3
    assert images == ((3, 0), (2, 1), (0, 3))


def test_embed_degenerate_single_generator():
    S = Semigroup([(1, 0)])
    N, images = embed_semigroup(S)
    assert N == 1
    assert images == ((1, 0),)


def test_embed_refuses_fractional_values():
    with pytest.raises(ValueError, match="not an integer"):
        embed_semigroup(Semigroup([(1, 0.5, 1)]))
    assert embed_semigroup(Semigroup([(1.0, 1, 2.0)])) == (3, ((0, 1, 2),))


def test_embed_requires_degree_one():
    S = Semigroup([(2, 1)])
    with pytest.raises(NotDegreeOneGenerated):
        embed_semigroup(S)


def test_embed_images_sum_to_N_and_additive():
    rng = random.Random(12)
    gens = [(1, 2, 1, 1, 1, 1), (1, 1, 2, 1, 1, 1), (1, 1, 1, 2, 1, 1),
            (1, 1, 1, 1, 2, 1), (1, 1, 0, 2, 2, 1), (1, 1, 1, 1, 1, 2)]
    S = Semigroup(gens)
    N, images = embed_semigroup(S)
    assert N == 6
    assert len(images) == len(gens)
    for c in images:
        assert all(x >= 0 for x in c)
        assert sum(c) == N
    # each image is E (1, a) for the linear map E; check additivity on 10 random pairs
    M = graded_embedding_matrix(N, len(gens[0]) - 1)
    assert tuple(_apply(M, g) for g in gens) == images
    for _ in range(10):
        a = rng.choice(gens)
        b = rng.choice(gens)
        s = tuple(x + y for x, y in zip(a, b))
        assert _apply(M, s) == tuple(x + y for x, y in
                                     zip(_apply(M, a), _apply(M, b)))


# ---------------------------------------------------------------------------
# torus points


def test_torus_point_all_ones():
    pt = torus_point(TC_MATRIX, (1, 1))
    assert pt == (1, 1, 1, 1)


def test_torus_point_elliptic_weights():
    pt = torus_point(IntMatrix([[0, 1, 3]]), (Fraction(2),))
    assert pt == (1, 2, 8)


def test_torus_point_twisted_cubic_parametrization():
    s, u = Fraction(3), Fraction(5)
    pt = torus_point(TC_MATRIX, (1, Fraction(s, u)))
    # equals [s^3 : s^2 u : s u^2 : u^3] after normalization
    want = (s ** 3, s ** 2 * u, s * u ** 2, u ** 3)
    scale = want[0]
    assert pt == tuple(x / scale for x in want)
    I = Ideal([parse_polynomial(t, TC_VARS) for t in
               ("u2^2 - u3*u1", "u1^2 - u2*u0", "u2*u1 - u3*u0")], TC_VARS)
    for g in I.gens:
        assert g.evaluate(pt) == 0


def test_torus_point_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        torus_point(TC_MATRIX, (1, 0))


def test_semigroup_dedupes_and_validates():
    S = Semigroup([(1, 2), (1, 2), (1, 3)])
    assert S.gens == ((1, 2), (1, 3))
    S = Semigroup([(1, 3), (1, 2), (1, 3), (1, 0), (1, 2)], labels="abcde")
    assert S.gens == ((1, 3), (1, 2), (1, 0)) and S.labels == ("a", "b", "d")
    with pytest.raises(ValueError):
        Semigroup([(0, 1)])


def test_semigroup_refuses_fractional_entries():
    with pytest.raises(ValueError, match="not an integer"):
        Semigroup([(1, 2.5)])
    with pytest.raises(ValueError, match="not an integer"):
        Semigroup([(1, 2)], degree_scale=1.5)
    S = Semigroup([(1.0, 2), (1, 2.0)], degree_scale=2.0)
    assert S.gens == ((1, 2),) and S.degree_scale == 2


def test_integrality_is_checked_before_range():
    # a fractional or string scale or Veronese degree is refused as not an
    # integer, not compared with 1 first
    for scale in (0.5, "2"):
        with pytest.raises(ValueError, match="degree_scale .* is not an integer"):
            Semigroup([(1, 0)], degree_scale=scale)
    S = Semigroup([(1, 0), (1, 1)])
    for n in (1.5, "2"):
        with pytest.raises(ValueError, match="n .* is not an integer"):
            veronese(S, n)
