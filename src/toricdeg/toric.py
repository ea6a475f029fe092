"""Toric ideals of integer matrices, graded semigroups and their polytopes,
the degree-one embedding into the positive orthant, and exact torus-orbit
points.

Polytopes are kept as vertex lists over exact rationals.  In ambient
dimension above three no facet enumeration is attempted: vertex and
membership queries are answered by exact linear feasibility (Gaussian
elimination plus Fourier-Motzkin on the few remaining free variables).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .groebner import Ideal, saturate_by_variables
from .intlat import IntMatrix, in_row_space, kernel_lattice, embed_degree_one_vector
from .polycore import DimensionMismatch, Grading, Polynomial


class NotDegreeOneGenerated(ValueError):
    """Semigroup has a generator of degree other than one."""


class ZeroParameter(ValueError):
    """Torus parameters must be nonzero."""


class Semigroup:
    """Finitely generated subsemigroup of Z^(1+r), given by its generators.

    `degree_coord` marks the grading coordinate (entries there must be
    positive); pass None for an ungraded generator set (e.g. images of the
    orthant embedding, which are graded by total degree instead).
    `degree_scale` records how many original degree units one unit of the
    degree coordinate stands for; Veronese re-gradings set it so normalized
    value polytopes stay put.
    """

    __slots__ = ("gens", "degree_coord", "labels", "degree_scale")

    def __init__(self, gens: Sequence[Sequence[int]], degree_coord: int | None = 0,
                 labels: Sequence[str] | None = None, degree_scale: int = 1):
        seen = []
        kept_labels = []
        labels_in = list(labels) if labels is not None else None
        for k, g in enumerate(gens):
            t = tuple(int(x) for x in g)
            if t not in seen:
                seen.append(t)
                if labels_in is not None:
                    kept_labels.append(labels_in[k])
        if not seen:
            raise ValueError("semigroup needs at least one generator")
        n = len(seen[0])
        if any(len(g) != n for g in seen):
            raise DimensionMismatch("generators of unequal length")
        if degree_coord is not None:
            if not 0 <= degree_coord < n:
                raise ValueError("degree coordinate out of range")
            for g in seen:
                if g[degree_coord] <= 0:
                    raise ValueError(
                        f"generator {g} has nonpositive degree entry")
        self.gens = tuple(seen)
        self.degree_coord = degree_coord
        self.labels = tuple(kept_labels) if labels_in is not None else None
        if degree_scale < 1:
            raise ValueError("degree_scale must be positive")
        self.degree_scale = int(degree_scale)

    @property
    def ambient_dim(self) -> int:
        return len(self.gens[0])

    def degrees(self):
        return tuple(g[self.degree_coord] for g in self.gens)

    def value_parts(self):
        """Generators with the degree coordinate removed."""
        d = self.degree_coord
        return tuple(tuple(x for i, x in enumerate(g) if i != d) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, Semigroup) and set(self.gens) == set(other.gens)
                and self.degree_coord == other.degree_coord
                and self.degree_scale == other.degree_scale)

    def __repr__(self):
        return f"Semigroup({list(self.gens)}, degree_coord={self.degree_coord})"


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
# exact linear feasibility (Gaussian elimination + Fourier-Motzkin)


def _gauss_solve(eqs, nvars):
    """Row-reduce equalities; returns (particular, null_basis) or None.

    eqs: list of (coeffs, rhs) for sum c_i x_i = rhs, over Fractions.
    """
    rows = [[Fraction(c) for c in co] + [Fraction(r)] for co, r in eqs]
    pivots = []
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][nvars] != 0 and all(x == 0 for x in rows[i][:nvars]):
            return None
    free = [c for c in range(nvars) if c not in pivots]
    particular = [Fraction(0)] * nvars
    for i, c in enumerate(pivots):
        particular[c] = rows[i][nvars]
    null_basis = []
    for fvar in free:
        v = [Fraction(0)] * nvars
        v[fvar] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][fvar]
        null_basis.append(v)
    return particular, null_basis


def _fourier_motzkin_feasible(ineqs, nvars) -> bool:
    """Feasibility of sum c_i t_i <= rhs systems by variable elimination."""
    system = [([Fraction(c) for c in co], Fraction(r)) for co, r in ineqs]
    for v in range(nvars):
        lower, upper, rest = [], [], []
        for co, r in system:
            c = co[v]
            if c > 0:
                upper.append((co, r))
            elif c < 0:
                lower.append((co, r))
            else:
                rest.append((co, r))
        new = rest
        for co_l, r_l in lower:
            for co_u, r_u in upper:
                a, b = -co_l[v], co_u[v]
                co = [a * cu + b * cl for cl, cu in zip(co_l, co_u)]
                new.append((co, a * r_u + b * r_l))
        system = new
    return all(r >= 0 for co, r in system)


def _in_hull(point, points, slack: Fraction = Fraction(0)) -> bool:
    """Exact test: point within slack (sup-norm) of conv(points).

    Variables lambda_1..lambda_q >= 0.  sum lambda = 1 is an equality; so is
    each coordinate sum lambda * p = point without slack, while with slack
    the coordinate sums are boxed by two inequalities each.
    """
    q = len(points)
    coords = [([Fraction(p[i]) for p in points], Fraction(x))
              for i, x in enumerate(point)]
    eqs = [([Fraction(1)] * q, Fraction(1))]
    if slack == 0:
        eqs += coords
    sol = _gauss_solve(eqs, q)
    if sol is None:
        return False
    particular, null_basis = sol
    ineqs = []
    for j in range(q):  # lambda_j >= 0
        co = [-nb[j] for nb in null_basis]
        ineqs.append((co, particular[j]))
    if slack != 0:
        for coeffs, x in coords:
            base = sum(c * particular[j] for j, c in enumerate(coeffs))
            row = [sum(c * nb[j] for j, c in enumerate(coeffs)) for nb in null_basis]
            # sum lambda p_i <= point_i + slack
            ineqs.append((row, x + slack - base))
            # -(sum lambda p_i) <= -point_i + slack
            ineqs.append(([-v for v in row], slack - x + base))
    return _fourier_motzkin_feasible(ineqs, len(null_basis))


def hull_vertices(points):
    """Irredundant subset: points not in the hull of the others."""
    uniq = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    return [p for p in uniq if is_vertex(p, uniq)]


def is_vertex(point, points) -> bool:
    """True if `point` lies outside the hull of the remaining points."""
    p = tuple(Fraction(x) for x in point)
    others = [q for q in (tuple(Fraction(x) for x in q) for q in points) if q != p]
    if not others:
        return True
    return not _in_hull(p, others)


def point_in_polytope(point, P: PolytopeQ, slack: Fraction = Fraction(0)) -> bool:
    return _in_hull([Fraction(x) for x in point], P.vertices, slack)


# ---------------------------------------------------------------------------
# operations


def toric_ideal(A: IntMatrix, names: Sequence[str]) -> Ideal:
    """Prime binomial ideal of the saturated kernel lattice of A.

    Built from the kernel-basis binomials x^(u+) - x^(u-) and saturated
    successively by each variable.  Homogeneous for every row of A; carries
    the standard grading when the all-ones vector lies in the row space.
    """
    names = tuple(names)
    if len(names) != A.cols:
        raise DimensionMismatch("one name per matrix column required")
    basis = kernel_lattice(A)
    # standard grading is legitimate exactly when the all-ones functional is
    # a rational combination of the rows
    grading = Grading.standard(len(names)) \
        if in_row_space(A, [1] * A.cols) else None
    if not basis:
        return Ideal([], names, grading=grading)
    gens = []
    for u in basis:
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        gens.append(Polynomial.monomial(names, plus)
                    - Polynomial.monomial(names, minus))
    return saturate_by_variables(Ideal(gens, names, grading=grading), names)


def delta_polytope(S: Semigroup) -> PolytopeQ:
    """Convex hull of the degree-normalized value vectors a_i / n_i.

    For finitely generated graded input this is always a polytope; with
    degree-one generators it is the hull of the value vectors themselves.
    """
    if S.degree_coord is None:
        raise ValueError("semigroup has no degree coordinate")
    values = S.value_parts()
    degs = S.degrees()
    pts = [tuple(Fraction(x, n * S.degree_scale) for x in a)
           for a, n in zip(values, degs)]
    verts = hull_vertices(pts)
    return PolytopeQ(verts, len(pts[0]))


def veronese(S: Semigroup, n: int) -> Semigroup:
    """Subsemigroup of elements of degree divisible by n, re-graded by 1/n.

    Generators: all sums of generators with total degree exactly n (for a
    degree-one generated semigroup, all n-fold sums), with the degree
    coordinate divided by n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if S.degree_coord is None:
        raise ValueError("semigroup has no degree coordinate")
    if n == 1:
        return S
    d = S.degree_coord
    sums = set()

    def rec(start, total, acc):
        if total == n:
            sums.add(tuple(acc))
            return
        for i in range(start, len(S.gens)):
            g = S.gens[i]
            if total + g[d] <= n:
                rec(i, total + g[d], tuple(a + b for a, b in zip(acc, g)))

    rec(0, 0, (0,) * S.ambient_dim)
    if not sums:
        raise ValueError(f"no semigroup elements of degree {n}")
    out = []
    for s in sorted(sums):
        v = list(s)
        v[d] //= n
        out.append(tuple(v))
    return Semigroup(out, degree_coord=d, degree_scale=S.degree_scale * n)


def embed_semigroup(S: Semigroup):
    """(N, image) for the embedding (1, a) -> (N - sum a, a) into the orthant.

    Requires degree-one generators with nonnegative value entries.  N is the
    maximum total value degree (at least 1); images are graded by total
    degree, each summing to N.
    """
    if S.degree_coord is None:
        raise ValueError("semigroup has no degree coordinate")
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
    images = []
    d = S.degree_coord
    for g in S.gens:
        v = (g[d],) + tuple(x for i, x in enumerate(g) if i != d)
        images.append(embed_degree_one_vector(N, v))
    image = Semigroup(images, degree_coord=None, labels=S.labels)
    return N, image


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
