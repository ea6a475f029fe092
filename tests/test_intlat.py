"""Integer lattice algebra: HNF, kernels, homogenization, embedding matrix,
certified weights."""

from __future__ import annotations

import random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_embedding import graded_embedding_matrix, rank

from toricdeg.groebner import (
    Ideal,
    NotHomogeneous,
    canonical,
    initial_ideal,
    same_ideal,
)
from toricdeg.intlat import (
    IntMatrix,
    hermite_normal_form,
    homogenize_matrix,
    kernel_lattice,
    pivot_columns,
    weight_from_matrix,
)
from toricdeg.polycore import Grading, parse_polynomial
from toricdeg.toric import Semigroup, embed_semigroup


def _mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in zip(*B.entries)]
                      for row in A.entries])


def _apply(A: IntMatrix, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A.entries)


def _det(A: IntMatrix) -> int:
    return sympy.Matrix(A.rows_list()).det()


def _hnf_shape_ok(H: IntMatrix) -> bool:
    prev = -1
    for row in H.entries:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        piv = nz[0]
        if piv <= prev:
            return False
        if row[piv] <= 0:
            return False
        prev = piv
    return True


def test_hnf_identity():
    A = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    H, U = hermite_normal_form(A)
    assert H == A and U == A


def test_derived_matrices_skip_checks_but_keep_their_shape():
    # transpose, HNF and homogenization build from checked entries
    # without re-checking them; a matrix with no columns still has no
    # transpose, and outside input keeps every check
    A = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert A.transpose() == IntMatrix([[1, 4], [2, 5], [3, 6]])
    assert _mul(A, A.transpose()) == IntMatrix([[14, 32], [32, 77]])
    assert homogenize_matrix(A) == IntMatrix([[4, 2, 0], [1, 2, 3], [4, 5, 6]])
    H, U = hermite_normal_form(A)
    assert _mul(U, A) == H and isinstance(H.entries[0], tuple)
    with pytest.raises(ValueError, match="at least one row"):
        IntMatrix([[]]).transpose()
    with pytest.raises(ValueError, match="not an integer"):
        IntMatrix([[1, 0.5]])


def test_hnf_gcd_pivot():
    # column-style on the transpose of [6 4]: the pivot is gcd(6, 4) = 2
    H, U = hermite_normal_form(IntMatrix([[6], [4]]))
    assert H.entries[0][0] == 2
    assert H.entries[1][0] == 0
    assert _mul(U, IntMatrix([[6], [4]])) == H


def test_hnf_random_property():
    rng = random.Random(2024)
    for _ in range(25):
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        H, U = hermite_normal_form(A)
        assert _mul(U, A) == H
        assert abs(_det(U)) == 1
        assert _hnf_shape_ok(H)


@st.composite
def _matrices_with_dependent_columns(draw):
    """1-5 rows and 1-7 columns, each column drawn in -3..3, zero, or a
    repeat, negation or sum of earlier columns."""
    m = draw(st.integers(1, 5))
    cols = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["drawn", "zero", "repeat", "negated", "sum"]
                                    if cols else ["drawn", "zero"]))
        if kind == "drawn":
            col = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        elif kind == "zero":
            col = [0] * m
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            col = {"repeat": a, "negated": [-x for x in a],
                   "sum": [x + y for x, y in zip(a, b)]}[kind]
        cols.append(col)
    return IntMatrix.from_columns(cols)


@settings(max_examples=200, deadline=None)
@given(A=_matrices_with_dependent_columns())
@example(A=IntMatrix([[1, 2, 0, -1, 3], [2, 4, 0, -2, 1]]))
@example(A=IntMatrix([[0, 1], [0, 2], [0, -3], [0, 0], [0, 5]]))
def test_pivot_columns_raise_the_prefix_ranks(A):
    # column j is a pivot exactly when it raises the rank of the columns
    # before it, each rank from sympy
    S = sympy.Matrix(A.rows_list())
    ranks = [S[:, :j].rank() for j in range(A.cols + 1)]
    assert pivot_columns(A) == tuple(j for j in range(A.cols) if ranks[j + 1] > ranks[j])


def test_hnf_row_permutation_invariant():
    rng = random.Random(7)
    A_rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
    H1, _ = hermite_normal_form(IntMatrix(A_rows))
    rng.shuffle(A_rows)
    H2, _ = hermite_normal_form(IntMatrix(A_rows))
    assert H1 == H2


def test_kernel_elliptic():
    A = IntMatrix([[1, 1, 1], [0, 1, 3]])
    assert kernel_lattice(A) == [(2, -3, 1)]


def test_kernel_full_rank_empty():
    assert kernel_lattice(IntMatrix([[1, 0], [0, 1]])) == []


def test_kernel_twisted_cubic():
    A = IntMatrix([[1, 1, 1, 1], [3, 2, 1, 0]])
    basis = kernel_lattice(A)
    assert len(basis) == 2
    for u in basis:
        assert _apply(A, u) == (0, 0)
    # the stated vectors lie in the lattice spanned by the basis
    from toricdeg.intlat import hermite_normal_form as hnf
    Hb, _ = hnf(IntMatrix(list(basis)))
    for v in [(1, -2, 1, 0), (0, 1, -2, 1)]:
        Hv, _ = hnf(IntMatrix(list(basis) + [list(v)]))
        assert [r for r in Hv.entries if any(r)] == [r for r in Hb.entries if any(r)]


def test_kernel_saturated():
    # kernels of integer matrices are saturated: scaled members descend
    rng = random.Random(5)
    for _ in range(10):
        A = IntMatrix([[rng.randint(-4, 4) for _ in range(4)] for _ in range(2)])
        basis = kernel_lattice(A)
        for u in basis:
            assert _apply(A, u) == (0,) * A.rows
        if basis:
            H, _ = hermite_normal_form(IntMatrix(list(basis)))
            # pivots of the basis HNF are invariant under doubling a member
            doubled = [list(basis[0])] + [list(b) for b in basis]
            H2, _ = hermite_normal_form(IntMatrix(doubled))
            assert [r for r in H.entries if any(r)] == [r for r in H2.entries if any(r)]


def test_homogenize_equal_sums_adds_zero_row():
    A = IntMatrix([[1, 1, 1], [1, 0, 3], [1, 2, 0]])  # column sums 3,3,4 -> not equal
    B = IntMatrix([[1, 2], [2, 1]])  # column sums equal
    HB = homogenize_matrix(B)
    assert HB.entries[0] == (0, 0)
    assert HB.entries[1:] == B.entries


def test_homogenize_elliptic_weights():
    A = IntMatrix([[0, 1, 3]])
    H = homogenize_matrix(A)
    assert H == IntMatrix([[3, 2, 0], [0, 1, 3]])
    sums = {sum(H.column(j)) for j in range(H.cols)}
    assert sums == {3}


def test_homogenize_rank_increases_when_needed():
    A = IntMatrix([[0, 1, 3]])
    H = homogenize_matrix(A)
    assert rank(H) == rank(A) + 1
    # the all-ones vector lies in the row space: it is orthogonal to the kernel
    assert all(sum(u) == 0 for u in kernel_lattice(H))


def test_embedding_matrix_elliptic():
    M = graded_embedding_matrix(3, 1)
    assert M == IntMatrix([[3, -1], [0, 1]])
    assert [_apply(M, (1, a)) for a in (0, 1, 3)] == [(3, 0), (2, 1), (0, 3)]


def test_embedding_identity_on_degree_coordinate():
    assert _apply(graded_embedding_matrix(1, 1), (1, 0)) == (1, 0)
    assert embed_semigroup(Semigroup([(1, 0)])) == (1, ((1, 0),))


def test_embedding_matrix_determinant_and_lattice_index():
    for N, r in [(2, 1), (3, 2), (6, 5)]:
        M = graded_embedding_matrix(N, r)
        assert _det(M) == N
    # HNF oracle: the image lattice of the elliptic generators has index N
    src = IntMatrix([[1, 0], [1, 1], [1, 3]])
    img = IntMatrix([[3, 0], [2, 1], [0, 3]])
    Hs, _ = hermite_normal_form(src)
    Hi, _ = hermite_normal_form(img)
    det_s = Hs.entries[0][0] * Hs.entries[1][1]
    det_i = Hi.entries[0][0] * Hi.entries[1][1]
    assert det_i == 3 * det_s


def test_weight_from_single_row():
    vars = ("x", "y", "z")
    J = Ideal([parse_polynomial("y^2*z - x^3 + x*z^2", vars)], vars,
              grading=Grading.standard(3))
    w, init = weight_from_matrix(J, IntMatrix([[1, 0, 3]]))
    assert w == [1, 0, 3]
    assert same_ideal(init, initial_ideal(J, w))


def test_weight_from_gr24_matrix():
    vars = ("p12", "p13", "p14", "p23", "p24", "p34")
    J = Ideal([parse_polynomial("p12*p34 - p13*p24 + p14*p23", vars)], vars,
              grading=Grading.standard(6))
    M = IntMatrix([
        [1, 1, 1, 1, 1, 1],
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 0, 1],
        [1, 1, 2, 1, 2, 1],
        [1, 1, 1, 2, 2, 1],
        [1, 1, 1, 1, 1, 2],
    ])
    w, init_M = weight_from_matrix(J, M)
    init = initial_ideal(J, w)
    want = canonical(Ideal([parse_polynomial("p13*p24 - p14*p23", vars)], vars))
    assert same_ideal(init, want)
    assert same_ideal(init_M, want)


def test_weight_from_matrix_one_matrix_order_basis(monkeypatch):
    # the matrix-order basis gives both the splitting check and in_M(J): the
    # one Groebner basis of J is under M's rows refined by degrevlex, and no
    # second one under w verifies the split
    from toricdeg import groebner
    vars = ("p12", "p13", "p14", "p23", "p24", "p34")
    J = Ideal([parse_polynomial("p12*p34 - p13*p24 + p14*p23", vars)], vars,
              grading=Grading.standard(6))
    M = IntMatrix([[1, 1, 1, 1, 1, 1], [0, 1, 0, 1, 2, 3], [1, 0, 2, 0, 1, 1]])
    rows = tuple(tuple(r) for r in M.rows_list())
    orders_on_J = []
    bb = groebner.buchberger

    def spy(I, order=None, **kwargs):
        if I is J:
            orders_on_J.append(order)
        return bb(I, order, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    w, init_M = weight_from_matrix(J, M)
    assert len(orders_on_J) == 1
    assert orders_on_J[0].rows == groebner._weight_order(rows, 6).rows
    monkeypatch.setattr(groebner, "buchberger", bb)
    assert same_ideal(initial_ideal(J, w), initial_ideal(J, M))
    assert same_ideal(init_M, initial_ideal(J, M))


def test_weight_certification_bound():
    # the doubling stops at the latest at the first B above every
    # |row_k . (e - e')| within a basis element: here 10^15, so B = 2^50,
    # past the forty doublings the verified selection allowed
    vars = ("x", "y")
    J = Ideal([parse_polynomial("x^2 - y^2", vars)], vars)
    assert weight_from_matrix(J, IntMatrix([[1, 1], [0, 1]]))[0] == [2, 3]
    J = Ideal([parse_polynomial("x - y", vars)], vars)
    w, init = weight_from_matrix(J, IntMatrix([[0, 1], [10**15, 0]]))
    assert w == [10**15, 2**50]
    assert same_ideal(init, canonical(Ideal([parse_polynomial("x", vars)], vars)))
    assert same_ideal(initial_ideal(J, w), init)


def test_weight_from_matrix_requires_homogeneous(monkeypatch):
    # the split certifies w only for homogeneous J, so no basis is computed
    # for any other
    from toricdeg import groebner

    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger ran on non-homogeneous input")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    vars = ("x", "y")
    J = Ideal([parse_polynomial("x^2 - y", vars)], vars)
    with pytest.raises(NotHomogeneous):
        weight_from_matrix(J, IntMatrix([[1, 1], [0, 1]]))
