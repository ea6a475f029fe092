"""One-parameter Groebner families, their fibers, the valuation-matrix
verification pipeline, the value-semigroup embedding with all of its checks,
and degeneration-by-projection decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groebner import (
    GroebnerBasis,
    Ideal,
    _distinct,
    _eliminated,
    _graded_dimensions,
    _known,
    _weight_basis,
    _with_basis,
    buchberger,
    canonical,
    homogeneous_grading,
    reduced_basis,
    same_ideal,
    saturate_by_variables,
)
from .intlat import IntMatrix, homogenize_matrix, pivot_columns, weight_from_matrix
from .polycore import (
    MAX_EXPONENT,
    MIN,
    MAX,
    DegreeOverflow,
    DimensionMismatch,
    Polynomial,
    WeightOrder,
    dot,
    exact_int,
    to_min,
)
from .toric import (
    Semigroup,
    embed_semigroup,
    is_vertex,
    toric_ideal,
)


class NoIndependentSubset(RuntimeError):
    """No admissible set of host variables exists without a coordinate change."""


class VerificationFailed(RuntimeError):
    def __init__(self, clause: str, detail: str = ""):
        super().__init__(f"verification failed: {clause}" + (f" ({detail})" if detail else ""))
        self.clause = clause


# ---------------------------------------------------------------------------
# one-parameter families

T_NAME = "t"


@dataclass(frozen=True)
class FamilyIdeal:
    """Ideal in k[t][x...] interpolating the base ideal (t=1) and its
    weight-initial ideal (t=0); generators are t-primitive.  base_ideal is
    the input ideal as given, whose grading and cached degrevlex basis the
    fibers use."""

    gens: tuple
    vars: tuple  # base variables plus the parameter, parameter last
    base_ideal: Ideal
    w: tuple
    convention: str = MIN


def family_ideal(J: Ideal, w: Sequence[int], convention: str = MIN) -> FamilyIdeal:
    """t-interpolating family: each term of a weight-adapted reduced basis is
    scaled by t^(w.alpha - min w.beta), so t=1 gives back J and t=0 the
    initial ideal.

    The weight-adapted basis is computed with J's degrevlex leads as its
    Hilbert target, counted in J's grading: they are the leads of a Groebner
    basis of J itself, so their Hilbert function is J's.  That degrevlex
    basis is cached on J, where `fiber` reads it.
    """
    w = tuple(exact_int(x, "weight") for x in w)
    (w_min,) = to_min([w], convention)
    if len(w) != len(J.vars):
        raise DimensionMismatch("weight length does not match variables")
    homogeneous_grading(J)  # NotHomogeneous before any Groebner work
    if T_NAME in J.vars:
        raise ValueError(f"base ring already contains a variable named {T_NAME!r}")
    G = buchberger(J, WeightOrder([w_min]), hilbert=reduced_basis(J).leads)
    big = J.vars + (T_NAME,)
    gens = []
    for g in G.elements:
        weights = {e: dot(w_min, e) for e in g.terms}
        m = min(weights.values())
        if max(weights.values()) - m > MAX_EXPONENT:
            raise DegreeOverflow(f"exponent of {T_NAME} exceeds {MAX_EXPONENT}")
        terms = {}
        for e, c in g.terms.items():
            terms[e + (weights[e] - m,)] = c
        gens.append(Polynomial._trusted(big, terms))
    return FamilyIdeal(tuple(gens), big, J, w, convention)


def fiber(F: FamilyIdeal, t0) -> Ideal:
    """The fiber of the family at t = t0, in canonical form.

    At t0 = 0 each family generator is restricted to J's variables, the ring
    map that sends t to 0.  That leaves the initial forms of the weight
    basis, and the result is canonicalized: one Buchberger call.  It takes
    no Hilbert target, though J's leads would be one: over the `families`
    catalogue the canonicalizations take 0.25 s CPU with it against 0.12 s
    without, as the Hilbert counts, though kept lead by lead on packed
    exponents, still cost more than the cheap zero reductions of initial
    forms they save.

    At t0 != 0 no Groebner basis is computed.  With the min weight w, the
    family generator made from g in the weight basis is, at t0,
    t0^(-m) g(t0^(w_1) x_1, ..., t0^(w_n) x_n).  The weight basis generates
    J = F.base_ideal, so the fiber is phi(J) for the automorphism
    phi: x_i -> t0^(w_i) x_i of k[x].  phi multiplies each monomial x^e by
    the nonzero scalar t0^(w.e), so phi(f) has the monomials of f and keeps
    every leading term.  Hence in(phi(J)) = in(J), and for the reduced basis
    G of J the phi(g) are a Groebner basis of phi(J) whose tails, on the
    monomials of G's tails, hold no lead: the monic phi(g) are the reduced
    basis of phi(J), which is unique, with G's leads.  G is J's cached
    degrevlex basis.
    """
    t0 = Fraction(t0)
    J = F.base_ideal
    if t0 == 0:
        return canonical(Ideal([g.restrict(J.vars) for g in F.gens], J.vars,
                               grading=J.grading))
    (w,) = to_min([F.w], F.convention)
    G = reduced_basis(J)
    if t0 != 1:  # phi is the identity at t0 = 1
        elements = []
        for g, lead in zip(G.elements, G.leads):
            top = dot(w, lead)
            elements.append(Polynomial._trusted(J.vars, {
                e: c * t0 ** (dot(w, e) - top) for e, c in g.terms.items()}))
        G = GroebnerBasis(elements, G.order, G.leads)
    return _with_basis(G, J.vars, J.grading)


# ---------------------------------------------------------------------------
# valuation pipeline


@dataclass
class PipelineReport:
    w: tuple                 # certified weight, in the caller's convention
    convention: str
    flipped: bool            # True when a max-style input was negated
    weight_min: tuple        # the internal min-convention weight
    init: Ideal
    semigroup: Semigroup | None
    toric: Ideal
    binomial_prime: bool


def valuation_pipeline(J: Ideal, M: IntMatrix, convention: str = MIN) -> PipelineReport:
    """Verify that the matrix of values induces a binomial-prime degeneration.

    Computes a certified weight w with in_w(J) = in_M(J), the initial ideal,
    the column semigroup, and compares the initial ideal against the toric
    ideal of M, homogenized (which changes nothing when the all-ones vector
    already lies in M's row space).  J must be homogeneous: the weight orders
    used here need not be well-orders otherwise, and their Buchberger runs
    need not end.
    """
    rows_min = to_min(M.rows_list(), convention)
    if M.cols != len(J.vars):
        raise DimensionMismatch("one matrix column per variable required")
    w_min, init = weight_from_matrix(J, IntMatrix(rows_min))
    w_min = tuple(w_min)
    (w,) = to_min([w_min], convention)

    semigroup = None
    if all(x > 0 for x in M.entries[0]):
        semigroup = Semigroup(M.columns(), labels=J.vars)

    # When the all-ones vector lies in M's row space, every u in ker M has
    # sum(u) = 0, so the added row (c - s_j) is orthogonal to ker M and
    # ker homogenize_matrix(M) = ker M: the toric ideal is the same either way
    T = toric_ideal(homogenize_matrix(M), J.vars)
    prime = same_ideal(init, T)
    return PipelineReport(tuple(w), convention, convention == MAX, w_min, init,
                          semigroup, T, prime)


# ---------------------------------------------------------------------------
# value-semigroup embedding


@dataclass
class EmbeddingReport:
    independent_vars: tuple          # indices of the host variables, ascending
    hosts: tuple                     # hosts[j] = variable index carrying image coordinate j
    N: int
    images: dict                     # generator label -> exponent tuple over J.vars
    kernel_check: Ideal              # kernel of the induced ring map, over fresh vars
    dims_checked: tuple              # (m, dim R_m, dim of image algebra in degree N*m)
    finiteness_certified: bool
    pipeline: PipelineReport         # the verified valuation pipeline it ran on


def embed_value_semigroup(J: Ideal, M: IntMatrix, convention: str = MIN,
                          degree_bound: int = 5) -> EmbeddingReport:
    """Realize the value semigroup algebra as a monomial subalgebra of k[x]/J.

    Steps: embed the column semigroup into the positive orthant; pick host
    variables T with independent value columns, taking the first such T in
    the order (not all of T vertex columns, T), so a T over which the
    quotient is finite wins when one exists (step 8); map each generator to
    the monomial with its embedded exponent, which is standard for the
    tie-broken cone of any such T (step 9); verify that graded dimensions
    match degree by degree.  T is read off the pivot columns of one
    echelon form per column list scanned, with no subset search (step
    10).  The report carries the pipeline report it ran and verified, so a
    caller needs no second run.

    The dims table is hilbert_witness(pipe.init, pipe.toric, 0..degree_bound),
    with no Groebner basis of J: in_M(J) has J's Hilbert function in J's
    grading (Sturmfels 1996, Groebner Bases and Convex Polytopes, ch. 1),
    and the kernel below is pipe.toric renamed, read in the standard
    grading.  The pipeline has verified in_M(J) = pipe.toric, so the dims
    clause fails only when J's grading is not the standard one, as for
    the elliptic cubic graded 2,2,2 (degree 1: 0 != 3).

    The kernel of the induced ring map is the pipeline's toric ideal over
    fresh variable names, with no elimination and no second toric ideal:
    1. The pipeline has verified in_M(J) = I_M; with an all-ones degree row,
       A_hat = M.
    2. The host columns T are independent (step 10), so distinct
       monomials of k[x_T] have distinct M-degrees.  I_M is M-graded and
       contains no monomial, so I_M meets k[x_T] only in 0.
    3. J is homogeneous, which the pipeline checks (weight_from_matrix
       raises NotHomogeneous otherwise).  So a nonzero f in J with all its
       terms in k[x_T] would have a nonzero initial form in I_M, again in
       k[x_T], which step 2 rules out.  Hence k[x_T] -> k[x]/J is injective.
    4. Every image is a monomial in the hosts, so the kernel is the toric
       ideal of the image exponents, which is toric_ideal(cvecs): the unused
       coordinates are zero rows.  Each cvec is (N - sum a, a) = E (1, a)
       for the square matrix E with first row (N, -1, ..., -1) above the
       identity, and det E = N is nonzero.  So the matrix of cvecs is E M,
       whose integer kernel is ker M, the kernel of homogenize_matrix(M)
       (valuation_pipeline).  A toric ideal is the ideal of its saturated
       kernel lattice, and its reduced basis depends only on that lattice
       and the order of the variables, so toric_ideal(cvecs) is pipe.toric
       with each variable renamed, position for position, to its fresh
       source name.

    finiteness_certified says k[x]/in_M(J) is finite over k[x_T], with no
    Groebner basis:
    5. k[x]/I_M is the semigroup ring k[x_i -> t^(a_i)] of M's columns a_i.
       It is finite over k[x_T] exactly when every a_i lies in cone(a_j :
       j in T) (Miller & Sturmfels 2005, Combinatorial Commutative Algebra,
       ch. 7): a monomial is integral over a monomial subalgebra exactly when
       a power of it lies there.
    6. With the all-ones degree row a_i = (1, p_i), and (1, p) lies in that
       cone exactly when p lies in conv(p_j : j in T).  So finite(T) holds
       exactly when conv(p_T) is the value polytope conv(p), that is when
       every vertex of conv(p), an extreme point, is some p_j with j in T: T
       meets every vertex class, the columns sharing one vertex point.
    7. Row operations keep the rank of every leading block of columns, so
       the pivot columns of an echelon form of M's columns in a list are
       those independent of the columns before them in the list
       (intlat.pivot_columns), and their number is the rank of the list.
       A list with fewer than |used| pivots holds no independent T of size
       |used|; when that list is all the columns, rank(M) < |used| and
       NoIndependentSubset is raised.
    8. Let T have independent columns.  Columns in one vertex class are
       equal, so T holds at most one column of each class.  With the
       all-ones degree row, rank(M) is one more than the dimension d of the
       value polytope, which has at least d + 1 vertices, so
       |T| <= rank(M) <= #classes.  If T meets every class, it holds one
       column of each, so |T| = #classes and T holds vertex columns only;
       the converse holds as T holds at most one column of each class.  So
       finite(T) is "#classes = |T| and T holds vertex columns only", and
       the order (not finite(T), not all of T vertex columns, T) ranks
       these T as (not all of T vertex columns, T) does: the first
       admissible T is the same.  The first T holds vertex columns only
       exactly when the scan over the vertex columns finds it (step 10),
       so finiteness_certified is "that scan found T and #classes =
       |used|", with no further test of T.

    Every T with independent columns gives standard images, and the first
    such T is a greedy choice:
    9. Take the lex order with every non-host variable above every host,
       which eliminates the non-hosts; the cone's initial ideal is
       initial_ideal(report.pipeline.init, that order).  pipe.init is I_M
       (step 1), so an element of its reduced basis whose lead uses only
       hosts would lie in k[x_T] and in I_M, which meet only in 0 (step 2).
       So every lead of that basis holds a non-host variable, and none
       divides an image, a monomial in the hosts.
    10. Independent column sets form a matroid.  Scan a list of columns in
       index order and keep each one independent of those kept before it:
       a column is kept exactly when it is independent of all the columns
       before it, whose span the kept ones span, so the kept set is the
       list's pivot columns (step 7), read off one echelon form.  Its first
       |used| columns are componentwise no larger than any independent set
       of that size drawn from the list (Gale 1968, Optimal assignments in
       an ordered set), so they are the first such set in lexicographic
       order.  If the vertex columns have |used| pivots, their first |used|
       are the first admissible T.  Otherwise no independent T holds vertex
       columns only, and the first T is the first |used| pivots over all
       columns, or NoIndependentSubset is raised (step 7).  An embed thus
       computes at most two echelon forms.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be nonnegative")
    pipe = valuation_pipeline(J, M, convention)
    if not pipe.binomial_prime:
        raise VerificationFailed("binomial_prime",
                                 "initial ideal is not the toric ideal")
    if any(x != 1 for x in M.entries[0]):
        raise VerificationFailed("degree_one",
                                 "degree row must be all ones; apply veronese first")
    N, orthant = embed_semigroup(pipe.semigroup)
    # one image vector per variable (the semigroup deduplicates, columns may not)
    image_of = dict(zip(pipe.semigroup.gens, orthant))
    cvecs = [image_of[col] for col in M.columns()]
    r_plus_1 = len(cvecs[0])
    used = tuple(sorted({j for c in cvecs for j in range(r_plus_1) if c[j] > 0}))

    vertex_classes = _vertex_classes(M)
    k = len(used)
    T = _first_independent(M, sorted(set().union(*vertex_classes)), k)
    finite = T is not None and len(vertex_classes) == k
    T = T or _first_independent(M, range(len(J.vars)), k)
    if T is None:
        raise NoIndependentSubset(
            "no host subset with independent columns and standard images; "
            "a linear change of coordinates would be required")
    hosts = _assign_hosts(T, used, cvecs)
    images_exp = _image_exponents(cvecs, hosts, used, len(J.vars))

    source_vars = _fresh_source_names(J.vars)
    toric_basis = reduced_basis(pipe.toric)
    G = GroebnerBasis([Polynomial._trusted(source_vars, g.terms)
                       for g in toric_basis.elements],
                      toric_basis.order, toric_basis.leads)
    # reported without a grading, as the kernel of a map into k[x]/J
    kernel = _with_basis(G, source_vars, None)
    dims = hilbert_witness(pipe.init, pipe.toric, range(degree_bound + 1))
    for m, dR, dS in dims:
        if dR != dS:
            raise VerificationFailed("dims", f"degree {m}: {dR} != {dS}")
    images = dict(zip(J.vars, images_exp))
    return EmbeddingReport(T, tuple(hosts), N, images, kernel,
                           tuple(dims), finite, pipe)


def _vertex_classes(M: IntMatrix) -> list:
    """For each vertex of the value polytope, the set of columns whose value
    point (the column below the degree row) is that vertex."""
    classes = {}
    for i, col in enumerate(M.columns()):
        classes.setdefault(col[1:], set()).add(i)
    points = list(classes)
    return [c for p, c in classes.items() if is_vertex(p, points)]


def _first_independent(M: IntMatrix, cols, k):
    """The greedy k columns of `cols`, in the order given: the first k pivot
    columns of M restricted to `cols` (step 10 of embed_value_semigroup).
    None when there are fewer than k."""
    cols = list(cols)
    kept = pivot_columns(IntMatrix._trusted([[r[i] for i in cols] for r in M.entries]))
    return tuple([cols[j] for j in kept[:k]]) if len(kept) >= k else None


def _assign_hosts(T, used, cvecs):
    """hosts[j] for j in `used`: the subset variable with the largest own
    image exponent in coordinate j; ties to the smaller variable index."""
    remaining = list(T)
    hosts = {}
    for j in used:
        best = max(remaining, key=lambda i: (cvecs[i][j], -i))
        hosts[j] = best
        remaining.remove(best)
    return tuple(hosts[j] for j in used)


def _image_exponents(cvecs, hosts, used, nvars):
    out = []
    for c in cvecs:
        e = [0] * nvars
        for j, host in zip(used, hosts):
            e[host] = c[j]
        out.append(tuple(e))
    return out


def _fresh_source_names(vars):
    """One new name v_<var> per variable, lengthened by leading v's until it
    clashes with no variable and no name made before it."""
    out = []
    for var in vars:
        name = f"v_{var}"
        while name in vars or name in out:
            name = "v" + name
        out.append(name)
    return tuple(out)


# ---------------------------------------------------------------------------
# degeneration by projection


@dataclass
class ProjectionReport:
    limit: Ideal       # weight-initial ideal for 0 on kept, -1 on dropped
    cone_part: Ideal   # (limit : product of dropped vars ^ infinity)
    closure: Ideal     # I intersected with k[kept]
    scheme_check: bool  # limit restricted to the kept plane equals the closure:
                        # always True, proved in `projection_limit`
    kept: tuple
    dropped: tuple
    w: tuple


def projection_limit(I: Ideal, kept: Sequence[str]) -> ProjectionReport:
    """Split a coordinate projection's flat limit into cone part and closure.

    The limit is the initial ideal for weights w = 0 on kept and -1 on
    dropped variables (min convention); the closure of the projected image
    is the elimination ideal I intersected with k[kept].  The scheme-level
    check compares the closure with the limit on the kept coordinate plane,
    its image under the ring map that sends the dropped variables to 0.

    One Groebner basis G of I, under w refined by degrevlex, gives both:
    its initial forms are a degrevlex Groebner basis of the limit
    (`groebner._weight_basis`), and the order eliminates the dropped
    variables, so its elements free of them are a Groebner basis of the
    closure (`groebner._eliminated`), under degrevlex when `kept` is in
    ring order.  Each such degrevlex basis is made canonical by
    interreduction alone, with no second pair loop.  The names are checked
    before any Groebner work.

    The same G proves the scheme check, so it is not computed.
    - The closure lies in the restricted limit: f in I free of dropped
      variables has w-weight 0 on every term, so in_w(f) = f is in the
      limit, and restricting f gives f back.
    - The restricted limit lies in the closure.  The weight of a term is
      minus its degree in the dropped variables, so for g in G, in_w(g) is
      the part of g with the largest dropped degree.  If that degree is
      positive, sending the dropped variables to 0 kills in_w(g).  If it
      is 0, then in_w(g) = g, which is free of the dropped variables and
      lies in I intersected with k[kept].  The in_w(g) generate the limit,
      and restriction is a ring map onto k[kept], so the images of the
      in_w(g) generate the restricted limit, and each lies in the closure.

    The cone part saturates the limit by the dropped variables
    (`groebner.saturate`), starting from the limit's installed degrevlex
    basis.  With one dropped variable x and I homogeneous in the standard
    grading, that is a case of the one rule of `groebner._keeps_leads`,
    with no pair loop at all: the limit is graded by the x-degree, as w is
    -1 on x alone, so each element of its reduced basis has a single
    x-exponent, and then keeps its degrevlex lead under the step's order,
    which breaks a tie in degree by the x-exponent and then as degrevlex
    does.  So the installed basis serves the step, its elements divided
    by their x-content install as the cone part's degrevlex basis, and the
    weight basis is the projection's only run.

    The weight basis takes no Hilbert target, though I's leads would be one
    when I is standard-homogeneous: over the `lattices` catalogue the
    weight bases take 0.28 s CPU with it against 0.20 s without, as the
    Hilbert counts, though kept lead by lead on packed exponents, cost
    more than the few zero reductions of binomial bases.
    """
    kept = _distinct(_known(I.vars, kept))
    if not kept or len(kept) == len(I.vars):
        raise ValueError("kept variables must be a nonempty proper subset")
    dropped = tuple(v for v in I.vars if v not in kept)
    w = tuple(0 if v in kept else -1 for v in I.vars)
    G, limit = _weight_basis(I, [w])
    cone_part = saturate_by_variables(limit, dropped)
    closure = _eliminated(I, G, kept)
    return ProjectionReport(limit, cone_part, closure, True, kept, dropped, w)


def hilbert_witness(I: Ideal, Jlimit: Ideal, degrees: Sequence[int]):
    """Per-degree graded dimensions of two homogeneous ideals, side by side."""
    if I.vars != Jlimit.vars:
        raise DimensionMismatch("ideals must share one ring")
    degrees = list(degrees)
    if not degrees:
        return []
    return list(zip(degrees, _graded_dimensions(I, degrees),
                    _graded_dimensions(Jlimit, degrees)))
