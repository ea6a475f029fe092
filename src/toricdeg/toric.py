"""Toric ideals of integer matrices, graded semigroups and their polytopes,
the degree-one embedding into the positive orthant, and exact torus-orbit
points.

Polytopes are kept as vertex lists over exact rationals, and no facet
enumeration is attempted: vertex and membership queries are answered by
exact linear feasibility, a phase-one simplex with Bland's rule, by
fraction-free integer pivoting over a common denominator, which makes the
same pivots as the rational tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .groebner import Ideal, _with_basis, reduced_basis, saturate_by_variables
from .intlat import IntMatrix, kernel_lattice
from .polycore import DimensionMismatch, Grading, Polynomial, exact_int


class NotDegreeOneGenerated(ValueError):
    """Semigroup has a generator of degree other than one."""


class ZeroParameter(ValueError):
    """Torus parameters must be nonzero."""


class Semigroup:
    """Finitely generated subsemigroup of Z^(1+r), given by its generators.

    The first coordinate is the degree: its entries must be positive.
    `degree_scale` records how many original degree units one unit of the
    degree coordinate stands for; `veronese` sets it, so a normalized value
    polytope stays put when the re-grading keeps the whole Veronese, as it
    always does for degree-one generators.
    """

    __slots__ = ("gens", "labels", "degree_scale")

    def __init__(self, gens: Sequence[Sequence[int]],
                 labels: Sequence[str] | None = None, degree_scale: int = 1):
        first = {}  # generator -> index of its first occurrence
        for k, g in enumerate(gens):
            first.setdefault(tuple(exact_int(x, "generator entry") for x in g), k)
        kept = list(first)
        if not kept:
            raise ValueError("semigroup needs at least one generator")
        n = len(kept[0])
        if any(len(g) != n for g in kept):
            raise DimensionMismatch("generators of unequal length")
        for g in kept:
            if g[0] <= 0:
                raise ValueError(f"generator {g} has nonpositive degree entry")
        self.gens = tuple(kept)
        self.labels = None
        if labels is not None:
            labels = list(labels)
            self.labels = tuple(labels[k] for k in first.values())
        self.degree_scale = exact_int(degree_scale, "degree_scale")
        if self.degree_scale < 1:
            raise ValueError("degree_scale must be positive")

    @property
    def ambient_dim(self) -> int:
        return len(self.gens[0])

    def degrees(self):
        return tuple(g[0] for g in self.gens)

    def value_parts(self):
        """Generators with the degree coordinate removed."""
        return tuple(g[1:] for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, Semigroup) and set(self.gens) == set(other.gens)
                and self.degree_scale == other.degree_scale)

    def __repr__(self):
        return f"Semigroup({list(self.gens)})"


class PolytopeQ:
    """Rational polytope as an irredundant vertex list."""

    __slots__ = ("vertices", "dim_ambient")

    def __init__(self, vertices: Sequence[Sequence[Fraction]], dim_ambient: int):
        self.vertices = tuple(tuple(Fraction(x) for x in v) for v in vertices)
        self.dim_ambient = dim_ambient
        for v in self.vertices:
            if len(v) != dim_ambient:
                raise DimensionMismatch("vertex length does not match ambient")

    def __eq__(self, other):
        return (isinstance(other, PolytopeQ) and self.dim_ambient == other.dim_ambient
                and set(self.vertices) == set(other.vertices))

    def __repr__(self):
        return f"PolytopeQ({len(self.vertices)} vertices in dim {self.dim_ambient})"


# ---------------------------------------------------------------------------
# exact linear feasibility (phase-one simplex)


def _feasible(rows, rhs) -> bool:
    """Is {y >= 0 : rows . y = rhs} nonempty?  Exact, for a system of at
    least one row with int or Fraction entries.

    Phase one of the simplex method: start from an all-artificial basis and
    drive the sum of the artificial variables to zero.  Bland's rule (the
    least eligible index enters; ratio-test ties leave by least basic index)
    rules out cycling, so the loop always ends (Bland 1977).  An artificial
    variable that leaves the basis never re-enters, so it keeps no column;
    artificial i has index n + i.

    Fraction-free integer pivoting over a common denominator (Edmonds 1967;
    Bareiss 1968).  Every row is scaled by L, the lcm of all denominators,
    so the system M = [L rows | L rhs], with unit artificial columns and
    one more row for the objective (its column sums, with the objective
    value as basic variable), is over the integers.  With B the current
    basis columns of M, the tableau is T = D B^-1 M for D = det B, starting
    at D = 1.  Pivoting on p = T[r][e] > 0 replaces column r of B by column
    e of M, so the new determinant is D (B^-1 M)[r][e] = p; the pivot row
    stays T[r], and every other row a becomes (a p - f T[r]) / D with
    f = a[e], the rational update scaled by the new determinant p.  The new
    T is p B'^-1 M = adj(B') M, an integer matrix, so every division is
    exact (Sylvester's identity).

    Same pivots as the rational tableau.  That tableau is B''^-1 [rows | rhs]
    with unit artificial columns before scaling, so each row of T is a
    positive multiple of its row: L D for a row whose basic variable is
    artificial (and for the objective), D otherwise.  The loop reads only
    the signs of the objective row, whether obj[n] is zero, and ratios
    within one row, all unchanged by a positive row scale.  So the same
    variable enters and leaves at each step, and the answer is the same.
    Ratios are compared by cross-multiplying with the positive entering
    entries, ties leaving by least basic index.
    """
    n = len(rows[0])
    L = lcm(*(x.denominator for co in rows for x in co),
            *(r.denominator for r in rhs))
    # one row per equality, rhs last, signs flipped so that rhs >= 0
    tab = [[x.numerator * (L // x.denominator) for x in co]
           + [r.numerator * (L // r.denominator)] for co, r in zip(rows, rhs)]
    tab = [row if row[n] >= 0 else [-x for x in row] for row in tab]
    basis = [n + i for i in range(len(tab))]
    # the artificial sum is (obj[n] - obj[:n] . y) / D
    obj = [sum(col) for col in zip(*tab)]
    D = 1
    while obj[n] != 0:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            return False
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # row[n] / a against best[n] / best[enter], both over positives
                best = tab[leave]
                c = row[n] * best[enter] - best[n] * a
                if c < 0 or c == 0 and basis[i] < basis[leave]:
                    leave = i
        piv = tab[leave]
        p = piv[enter]
        for row in tab + [obj]:
            if row is not piv:
                f = row[enter]
                if f:
                    row[:] = [(a * p - f * b) // D for a, b in zip(row, piv)]
                elif p != D:
                    row[:] = [a * p // D for a in row]
        D = p
        basis[leave] = enter
    return True


def _in_hull(point, points, slack: Fraction = Fraction(0)) -> bool:
    """Exact test: point within slack (sup-norm) of conv(points).

    Variables lambda_1..lambda_q >= 0 with sum lambda = 1.  Without slack each
    coordinate sum lambda * p = point is an equality; with slack it is boxed
    by two rows, sum lambda * p + u = point + slack and
    sum lambda * p - l = point - slack, with slack variables u, l >= 0.
    Raises DimensionMismatch when a point's length differs from the query's.
    """
    if any(len(p) != len(point) for p in points):
        raise DimensionMismatch("hull points and query differ in length")
    q = len(points)
    rows = [[1] * q]
    rhs = [1]
    for i, x in enumerate(point):
        coord = [p[i] for p in points]
        if slack == 0:
            rows.append(coord)
            rhs.append(x)
        else:
            rows += [coord, coord]
            rhs += [x + slack, x - slack]
    if slack != 0:
        # +u closes the upper box row of each coordinate, -l the lower one
        k = len(rows) - 1
        rows = [row + [0] * k for row in rows]
        for j in range(k):
            rows[j + 1][q + j] = 1 if j % 2 == 0 else -1
    return _feasible(rows, rhs)


def hull_vertices(points):
    """Irredundant subset: points not in the hull of the others."""
    uniq = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    return [p for i, p in enumerate(uniq) if not _in_hull(p, uniq[:i] + uniq[i + 1:])]


def is_vertex(point, points) -> bool:
    """True if `point` lies outside the hull of the remaining points."""
    p = tuple(Fraction(x) for x in point)
    others = [q for q in (tuple(Fraction(x) for x in q) for q in points) if q != p]
    return not _in_hull(p, others)


def point_in_polytope(point, P: PolytopeQ, slack: Fraction = Fraction(0)) -> bool:
    return _in_hull([Fraction(x) for x in point], P.vertices, slack)


# ---------------------------------------------------------------------------
# operations


def _balanced_core(S: int, signs) -> int:
    """Largest balanced subset of the variable bitmask S.

    `signs` holds one (supp u+, supp u-) pair of bitmasks per basis vector.
    A balanced subset of S meets neither support of a vector whose supports
    S meets unequally, so removing that vector's support from S keeps every
    balanced subset; when no vector is left to remove, S is balanced.
    """
    while True:
        for plus, minus in signs:
            if bool(S & plus) != bool(S & minus):
                S &= ~(plus | minus)
                break
        else:
            return S


def _saturation_variables(basis) -> list[int]:
    """Indices of a set sigma that meets every nonempty balanced set of the
    variables that occur in the basis.

    sigma is valid exactly when those variables outside sigma have an empty
    balanced core.  It is grown greedily, each time by the variable of the
    current core that leaves the smallest core, and then each variable that
    is not needed is dropped, so no proper subset of sigma is valid.
    """
    n = len(basis[0])
    signs = [(sum(1 << i for i, x in enumerate(u) if x > 0),
              sum(1 << i for i, x in enumerate(u) if x < 0)) for u in basis]
    full = 0
    for plus, minus in signs:
        full |= plus | minus
    sigma = 0
    core = _balanced_core(full, signs)
    while core:
        i = min((i for i in range(n) if core >> i & 1),
                key=lambda i: bin(_balanced_core(core & ~(1 << i), signs)).count("1"))
        sigma |= 1 << i
        core = _balanced_core(core & ~(1 << i), signs)
    for i in range(n):
        bit = 1 << i
        if sigma & bit and not _balanced_core(full & ~(sigma & ~bit), signs):
            sigma &= ~bit
    return [i for i in range(n) if sigma >> i & 1]


def toric_ideal(A: IntMatrix, names: Sequence[str]) -> Ideal:
    """Prime binomial ideal of the saturated kernel lattice of A.

    Built from the kernel-basis binomials x^(u+) - x^(u-) of the basis B,
    whose ideal I_B is saturated by the variables of a set sigma that meets
    every balanced set of variables occurring in B (`_saturation_variables`).
    Call a nonempty set tau of variables balanced when, for every u in B,
    supp(u+) meets tau exactly when supp(u-) does.  Homogeneous for every
    row of A; carries the standard grading when the all-ones vector lies in
    the row space.  The saturations take the graded route under that
    grading, or else under the first strictly positive row of A, for which
    every binomial is homogeneous as the row is orthogonal to ker A, or
    else through I^h (`groebner.saturate`); the result keeps the standard
    grading or none.

    Why sigma suffices.  Let P be an associated prime of I_B and tau(P) the
    set of variables in P.  If supp(u+) meets tau(P) then x^(u+) lies in P,
    so x^(u-) = x^(u+) - (x^(u+) - x^(u-)) does too, and as P is prime some
    variable of supp(u-) lies in P; symmetrically the other way.  So tau(P)
    is empty or balanced (Eisenbud & Sturmfels 1996, Binomial ideals).  It
    also holds only variables that occur in B: I_B is extended from the
    polynomial ring in those, and so are its associated primes.
    Saturating by the product x_sigma keeps exactly the primary components
    of I_B whose prime contains no variable of sigma, that is, whose tau(P)
    misses sigma; as sigma meets every such tau(P) that is not empty, these
    are the components with tau(P) empty, the same ones that saturating by
    all the variables keeps.  Hence I_B : x_sigma^infinity = I_B : (x_1...x_n)^infinity,
    which is the ideal of the lattice spanned by B, saturated here because
    B spans a kernel (Hosten & Sturmfels 1995, GRIN, reduced saturation
    sets).  The successive saturations by each x_i in sigma give the
    saturation by their product.  When no balanced set exists, sigma is
    empty and I_B is already the toric ideal.
    """
    names = tuple(names)
    if len(names) != A.cols:
        raise DimensionMismatch("one name per matrix column required")
    basis = kernel_lattice(A)
    # standard grading is legitimate exactly when the all-ones functional is
    # a rational combination of the rows, i.e. orthogonal to the kernel
    grading = Grading.standard(len(names)) \
        if all(sum(u) == 0 for u in basis) else None
    if not basis:
        return Ideal([], names, grading=grading)
    gens = []
    for u in basis:
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        gens.append(Polynomial.monomial(names, plus)
                    - Polynomial.monomial(names, minus))
    sigma = [names[i] for i in _saturation_variables(basis)]
    positive = next((Grading(r) for r in A.entries if all(x > 0 for x in r)), None)
    T = saturate_by_variables(Ideal(gens, names, grading=grading or positive), sigma)
    return _with_basis(reduced_basis(T), names, grading)


def delta_polytope(S: Semigroup) -> PolytopeQ:
    """Convex hull of the degree-normalized value vectors a_i / n_i.

    For finitely generated graded input this is always a polytope; with
    degree-one generators it is the hull of the value vectors themselves.
    """
    values = S.value_parts()
    degs = S.degrees()
    pts = [tuple(Fraction(x, n * S.degree_scale) for x in a)
           for a, n in zip(values, degs)]
    verts = hull_vertices(pts)
    return PolytopeQ(verts, len(pts[0]))


def veronese(S: Semigroup, n: int) -> Semigroup:
    """Subsemigroup generated by the elements of degree exactly n, re-graded
    by 1/n.

    Generators: all sums of generators with total degree exactly n (for a
    degree-one generated semigroup, all n-fold sums), with the degree
    coordinate divided by n.  The normalized value polytope stays put when
    this is the whole Veronese (all elements of degree divisible by n), as
    for degree-one generators; else it can move: veronese of <(2, 0), (3, 1)>
    at n = 2 is <(1, 0)>, with polytope {0}, while S's is [0, 1/3].
    """
    n = exact_int(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return S
    # by_degree[d]: the sums of generators of total degree d, each grown from
    # a sum of lower degree by one generator
    by_degree = [{(0,) * S.ambient_dim}]
    for d in range(1, n + 1):
        by_degree.append({tuple(a + b for a, b in zip(s, g))
                          for g in S.gens if g[0] <= d
                          for s in by_degree[d - g[0]]})
    sums = by_degree[n]
    if not sums:
        raise ValueError(f"no semigroup elements of degree {n}")
    out = [(s[0] // n,) + s[1:] for s in sorted(sums)]
    return Semigroup(out, degree_scale=S.degree_scale * n)


def embed_semigroup(S: Semigroup):
    """(N, images) for the embedding (1, a) -> (N - sum a, a) into the orthant.

    Requires degree-one generators with nonnegative value entries.  N is the
    maximum total value degree (at least 1); `images` holds one image vector
    per generator, in generator order, each summing to N.
    """
    if any(n != 1 for n in S.degrees()):
        raise NotDegreeOneGenerated("apply veronese first")
    values = S.value_parts()
    for a in values:
        if any(x < 0 for x in a):
            raise ValueError(
                f"value vector {a} has negative entries; translate first")
    N = max((sum(a) for a in values), default=0)
    if N == 0:
        N = 1
    return N, tuple((N - sum(a),) + a for a in values)


def torus_point(A: IntMatrix, t: Sequence[Fraction]):
    """Projective point [chi^(a_0)(t) : ... : chi^(a_r)(t)], exact.

    Column j maps to prod_i t_i^(A[i][j]); the result is normalized so the
    first nonzero coordinate is 1, and satisfies every binomial of the toric
    ideal of A identically.
    """
    ts = [Fraction(x) for x in t]
    if len(ts) != A.rows:
        raise DimensionMismatch("one parameter per matrix row required")
    if any(x == 0 for x in ts):
        raise ZeroParameter("torus parameters must be nonzero")
    coords = []
    for j in range(A.cols):
        val = Fraction(1)
        for i in range(A.rows):
            e = A.entries[i][j]
            if e:
                val *= ts[i] ** e
        coords.append(val)
    scale = next((c for c in coords if c != 0), None)
    if scale is None:
        raise ZeroParameter("torus point collapsed to zero")
    return tuple(c / scale for c in coords)
