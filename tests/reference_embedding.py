"""Reference routes for the value-semigroup embedding, kept as test oracles.

`_finite_over` decides finiteness of k[x]/init over the host variables from
the leads of one reduced basis, `_all_standard` tests that the images are
standard monomials for a host set's cone, the initial ideal under
`_cone_order`, and `reference_search` is the host search that tries every
subset of variables with both tests, all as toricdeg shipped them.
`embed_value_semigroup` reads finiteness off the value polytope, proves
standardness and picks its hosts greedily instead; the tests compare the
two.  `_finite` is finiteness as embed read it off the vertex classes for
a given host set, and `rank` and `_columns_independent` are the rank tests
it ran once per scanned column, before it read both off the pivot columns
of one echelon form per scan.  `reference_kernel` is the kernel as embed
built it before it renamed the pipeline's toric ideal: a second toric
ideal, of the embedded columns.

Also here: the Gr(2,n) Pluecker ideal with its caterpillar-tree matrix, the
orthant image (N - sum a, a) of a degree-one column (1, a), kept apart from
`toricdeg.toric.embed_semigroup`, and the graded embedding matrix that
applies it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from reference_groebner import exp_divides

from toricdeg.degeneration import (
    NoIndependentSubset,
    VerificationFailed,
    _assign_hosts,
    _image_exponents,
    valuation_pipeline,
)
from toricdeg.groebner import Ideal, initial_ideal, reduced_basis
from toricdeg.intlat import IntMatrix, hermite_normal_form, pivot_columns
from toricdeg.polycore import MIN, Grading, Lex, Polynomial, parse_polynomial
from toricdeg.toric import Semigroup, embed_semigroup, is_vertex, toric_ideal


def rank(M: IntMatrix) -> int:
    """The number of nonzero rows of M's Hermite normal form."""
    H, _ = hermite_normal_form(M)
    return sum(1 for r in H.entries if any(r))


def _columns_independent(M: IntMatrix, T) -> bool:
    return rank(IntMatrix([M.column(i) for i in T])) == len(T)


def _finite(vertex_classes, T) -> bool:
    """k[x]/I_M is finite over the variables T: T meets every vertex class
    (steps 5-6 of embed_value_semigroup)."""
    return all(not c.isdisjoint(T) for c in vertex_classes)


def _orthant_image(N: int, col) -> tuple:
    """(N - sum a, a) for the degree-one column (1, a)."""
    a = tuple(col[1:])
    return (N - sum(a),) + a


def _finite_over(init: Ideal, T) -> bool:
    """k[x]/(init + host variables) is finite-dimensional: the leads of its
    reduced basis hold a pure power of every non-host variable (a constant
    lead, the unit ideal, counts for each).  For the homogeneous initial
    ideal this says the radical holds every variable."""
    vars = init.vars
    gens = list(init.gens) + [Polynomial.variable(vars, vars[i]) for i in T]
    powers = set()
    for e in reduced_basis(Ideal(gens, vars)).leads:
        support = [j for j, k in enumerate(e) if k]
        if not support:
            return True
        if len(support) == 1:
            powers.add(support[0])
    return all(i in powers for i in range(len(vars)) if i not in T)


def _cone_order(T, nvars) -> Lex:
    """Lex order of the tie-broken cone: non-host variables most significant,
    each block from the last variable to the first."""
    non_sel = [i for i in range(nvars - 1, -1, -1) if i not in T]
    sel = [i for i in range(nvars - 1, -1, -1) if i in T]
    return Lex(tuple(non_sel + sel))


def _all_standard(images_exp, cone: Ideal) -> bool:
    """No generator of the monomial ideal `cone` divides any image."""
    leads = [next(iter(g.terms)) for g in cone.gens]
    return all(not any(exp_divides(l, e) for l in leads) for e in images_exp)


def reference_search(J: Ideal, M: IntMatrix, convention: str = MIN) -> dict:
    """The host search by enumeration: the first admissible subset that is
    finite by `_finite_over`, in the order (not all vertex columns, T), or
    else the first admissible subset.  Returns the report fields it fixes."""
    pipe = valuation_pipeline(J, M, convention)
    if not pipe.binomial_prime:
        raise VerificationFailed("binomial_prime",
                                 "initial ideal is not the toric ideal")
    if any(x != 1 for x in M.entries[0]):
        raise VerificationFailed("degree_one",
                                 "degree row must be all ones; apply veronese first")
    S = Semigroup(M.columns(), labels=J.vars)
    N, _ = embed_semigroup(S)
    cvecs = [_orthant_image(N, col) for col in M.columns()]
    r_plus_1 = len(cvecs[0])
    used = tuple(sorted({j for c in cvecs for j in range(r_plus_1) if c[j] > 0}))

    value_pts = [tuple(Fraction(x) for x in col[1:]) for col in M.columns()]
    vertex_cols = {i for i, p in enumerate(value_pts) if is_vertex(p, value_pts)}
    nvars = len(J.vars)
    subsets = list(itertools.combinations(range(nvars), len(used)))
    subsets.sort(key=lambda T: (not all(i in vertex_cols for i in T), T))

    init = pipe.init
    chosen = None
    fallback = None
    for T in subsets:
        if not _columns_independent(M, T):
            continue
        hosts = _assign_hosts(T, used, cvecs)
        images_exp = _image_exponents(cvecs, hosts, used, nvars)
        cone = initial_ideal(init, _cone_order(T, nvars))
        if not _all_standard(images_exp, cone):
            continue
        if _finite_over(init, T):
            chosen = (T, hosts, images_exp, True)
            break
        if fallback is None:
            fallback = (T, hosts, images_exp, False)
    if chosen is None:
        chosen = fallback
    if chosen is None:
        raise NoIndependentSubset(
            "no host subset with independent columns and standard images; "
            "a linear change of coordinates would be required")
    T, hosts, images_exp, finite_ok = chosen
    return {
        "independent_vars": tuple(sorted(T)),
        "hosts": tuple(hosts),
        "images": dict(zip(J.vars, images_exp)),
        "finiteness_certified": finite_ok,
    }


def reference_kernel(M: IntMatrix, N: int, names) -> Ideal:
    """toric_ideal of the columns (N - sum a, a) of the degree-one matrix M,
    over `names`."""
    cvecs = [_orthant_image(N, col) for col in M.columns()]
    return toric_ideal(IntMatrix.from_columns(cvecs), names)


def plucker_ideal(n: int) -> Ideal:
    """Gr(2,n) in its Pluecker embedding: variables p_ij for i < j in
    lexicographic order, one relation p_ij p_kl - p_ik p_jl + p_il p_jk for
    each i < j < k < l."""
    vars = tuple(f"p{i}{j}" for i, j in itertools.combinations(range(1, n + 1), 2))
    gens = [parse_polynomial(f"p{i}{j}*p{k}{l} - p{i}{k}*p{j}{l} + p{i}{l}*p{j}{k}",
                             vars)
            for i, j, k, l in itertools.combinations(range(1, n + 1), 4)]
    return Ideal(gens, vars, grading=Grading.standard(len(vars)))


def caterpillar_matrix(n: int, independent: bool = True) -> IntMatrix:
    """Values of the Pluecker coordinates under the caterpillar tree with
    leaves 1..n (Speyer & Sturmfels 2004), for the max convention.

    An all-ones row, then one row per edge: the leaf edges 1..n, then the
    inner edges, the m-th of which splits leaves 1..m+1 from the rest.  An
    edge's row holds 1 at p_ij when the edge lies on the path from leaf i to
    leaf j.  With `independent`, only rows independent of the rows above
    them are kept: the leaf rows sum to twice the all-ones row.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rows = [[1] * len(pairs)]
    rows += [[int(k in p) for p in pairs] for k in range(1, n + 1)]
    rows += [[int(i <= m + 1 < j) for i, j in pairs] for m in range(1, n - 2)]
    M = IntMatrix(rows)
    if not independent:
        return M
    return IntMatrix([rows[i] for i in pivot_columns(M.transpose())])


def graded_embedding_matrix(N: int, r: int) -> IntMatrix:
    """(r+1)x(r+1) matrix with first row (N, -1, ..., -1) and the identity
    below.  Applied to (1, a_1, ..., a_r) it yields (N - sum a_j, a), whose
    entries are nonnegative and sum to N whenever N bounds the total degree.
    The determinant equals N; on the lattice generated by degree-one values
    the map is an isomorphism onto its image.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if N < 1:
        raise ValueError("N must be positive")
    rows = [[N] + [-1] * r]
    for i in range(r):
        rows.append([0] * (i + 1) + [1] + [0] * (r - i - 1))
    return IntMatrix(rows)
