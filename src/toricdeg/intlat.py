"""Integer matrix linear algebra: Hermite normal form and its pivot
columns, kernel lattices, matrix homogenization, and certified weight
vectors that realize a matrix refinement as a single weight.
"""

from __future__ import annotations

from typing import Sequence

from . import groebner
from .polycore import (
    DimensionMismatch,
    exact_int,
    initial_form,
    initial_form_rows,
)


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[int]]):
        try:
            rows = tuple(tuple(exact_int(x, "matrix entry") for x in r)
                         for r in entries)
        except TypeError:
            raise ValueError("a matrix is a list of rows of integers") from None
        if not rows:
            raise ValueError("matrix must have at least one row")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        self.entries = rows
        self.rows = len(rows)
        self.cols = w

    @classmethod
    def _trusted(cls, rows) -> "IntMatrix":
        """Adopt `rows` without checks: the caller guarantees a nonempty
        iterable of equal-length rows of ints, built from checked entries."""
        A = cls.__new__(cls)
        A.entries = tuple(map(tuple, rows))
        A.rows = len(A.entries)
        A.cols = len(A.entries[0])
        return A

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    def rows_list(self):
        return [list(r) for r in self.entries]

    def column(self, j: int):
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        if not self.cols:
            raise ValueError("matrix must have at least one row")
        return IntMatrix._trusted(zip(*self.entries))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"


def hermite_normal_form(A: IntMatrix):
    """Row-style HNF: returns (H, U) with U unimodular, H = U*A, H in echelon
    form with positive pivots and entries above each pivot reduced into
    [0, pivot)."""
    m, n = A.rows, A.cols
    H = [list(r) for r in A.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op_sub(i, j, q):
        # row_i -= q * row_j
        Hi, Hj = H[i], H[j]
        for k in range(n):
            Hi[k] -= q * Hj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] -= q * Uj[k]

    r = 0
    for c in range(n):
        # make all entries below row r in column c zero by Euclid
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(H[i][c]))
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    row_op_sub(i, r, q)
                    if H[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            p = H[r][c]
            for i in range(r):
                if H[i][c] != 0:
                    q = H[i][c] // p  # floor keeps residues in [0, p)
                    row_op_sub(i, r, q)
            r += 1
            if r == m:
                break
    return IntMatrix._trusted(H), IntMatrix._trusted(U)


def pivot_columns(A: IntMatrix) -> tuple:
    """Indices of the columns of A that are independent of the columns
    before them, ascending: the pivot columns of hermite_normal_form(A).
    Row operations keep the rank of every leading block of columns, so
    column j raises that rank in A exactly when it does in the echelon
    form, where it does exactly when it holds some row's first nonzero
    entry."""
    H, _ = hermite_normal_form(A)
    return tuple([next(j for j, x in enumerate(r) if x) for r in H.entries if any(r)])


def kernel_lattice(A: IntMatrix):
    """Basis of the saturated integer kernel lattice {u : A u = 0}."""
    H, U = hermite_normal_form(A.transpose())
    basis = []
    for i in range(H.rows):
        if not any(H.entries[i]):
            v = list(U.entries[i])
            # sign-normalize: first nonzero entry positive
            lead = next((x for x in v if x != 0), 0)
            if lead < 0:
                v = [-x for x in v]
            basis.append(tuple(v))
    basis.sort()
    return basis


def homogenize_matrix(A: IntMatrix) -> IntMatrix:
    """Prepend a row making every column sum equal max of the column sums;
    its entries are nonnegative because c is the largest sum."""
    sums = [sum(A.column(j)) for j in range(A.cols)]
    c = max(sums)
    new_row = [c - s for s in sums]
    return IntMatrix._trusted([new_row] + A.rows_list())


def weight_from_matrix(J: "groebner.Ideal", M: IntMatrix):
    """(w, in_M(J)): a single weight vector w with in_w(J) = in_M(J), and
    that initial ideal in canonical form, for J homogeneous (NotHomogeneous
    otherwise); M and w are in the min convention.  A one-row M is its own
    weight: at B = 2, w is that row, whose split is the row's.

    w = sum_k B^(d-1-k) * row_k for the first B in 2, 4, 8, ... for which w
    splits each element g of G, J's reduced basis under M's rows refined by
    degrevlex (`groebner._weight_basis`), the way the rows do:
    initial_form(g, w) and initial_form_rows(g, M) have the same terms.
    Only that one Groebner basis is computed; in_M(J) is read off its
    initial forms.

    Why the split certifies w (Sturmfels 1996, Groebner Bases and Convex
    Polytopes, ch. 1).  Let <_M be G's order and <_w the order of w refined
    by the same degrevlex tie-break.  The w-initial terms of g are its
    M-initial terms, which tie under every row and so under w; hence <_w
    and <_M pick the same lead of g.  J is homogeneous, so both orders can
    be read degree by degree, where each is a term order, and every initial
    ideal of J has J's Hilbert function.  The leads of G generate
    in_<_M(J) and lie in in_<_w(J); with equal Hilbert functions the two
    ideals are equal, so G is a Groebner basis for <_w as well.  Hence
    in_w(J) = <in_w(g) : g in G> = <in_M(g) : g in G> = in_M(J).

    Why the loop ends.  Once B exceeds every |row_k . (e - e')| over pairs of
    terms e, e' of one element of G, w . (e - e') is a base-B expansion
    whose sign is that of its first nonzero digit row_k . (e - e'), so w
    compares those terms as the rows do, and the splits agree.
    """
    if M.cols != len(J.vars):
        raise DimensionMismatch("one matrix column per ideal variable required")
    groebner.homogeneous_grading(J)
    rows = M.rows_list()
    d = len(rows)
    G, init_M = groebner._weight_basis(J, rows)
    B = 2
    while True:
        w = [sum(B ** (d - 1 - k) * rows[k][j] for k in range(d))
             for j in range(M.cols)]
        if _splits_agree(G, rows, w):
            return w, init_M
        B *= 2


def _splits_agree(G, rows, w) -> bool:
    """Check w groups each basis element's terms exactly as the rows do."""
    return all(initial_form(g, w).terms.keys() == initial_form_rows(g, rows).terms.keys()
               for g in G.elements)
