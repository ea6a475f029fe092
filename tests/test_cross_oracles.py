"""Dual-route and third-party oracle checks.

Where an operation has two independent computation paths (variable-wise
content saturation vs elimination, ring-map kernels vs lattice ideals,
the embedding's kernel vs ring-map kernels, its host search vs enumeration
with a Groebner finiteness test, certified weights vs matrix refinements
and vs the weight selection verified by a second basis, elimination and
ring-map kernels vs the two-block elimination order)
the routes are compared on random inputs; sympy supplies an
outside implementation for Groebner bases and Hermite normal forms.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_elimination import reference_eliminate, reference_ring_map_kernel
from reference_embedding import (
    _all_standard,
    _columns_independent,
    _cone_order,
    _finite,
    _finite_over,
    _orthant_image,
    caterpillar_matrix,
    plucker_ideal,
    reference_search,
)
from reference_groebner import monic
from reference_hull import reference_feasible
from reference_saturation import saturate as reference_saturate
from reference_weight import reference_weight_from_matrix
from sympy import symbols
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from toricdeg import fixtures as fx
from toricdeg import groebner, toric
from toricdeg.degeneration import (
    NoIndependentSubset,
    _assign_hosts,
    _first_independent,
    _image_exponents,
    _vertex_classes,
    embed_value_semigroup,
    projection_limit,
    valuation_pipeline,
)
from toricdeg.groebner import (
    Ideal,
    buchberger,
    canonical,
    eliminate,
    initial_ideal,
    reduced_basis,
    ring_map_kernel,
    same_ideal,
    saturate_by_variables,
)
from toricdeg.intlat import (
    IntMatrix,
    hermite_normal_form,
    homogenize_matrix,
    kernel_lattice,
    weight_from_matrix,
)
from toricdeg.polycore import (
    MAX,
    MIN,
    Grading,
    Lex,
    Polynomial,
    dot,
    format_polynomial,
    parse_polynomial,
    to_min,
)
from toricdeg.toric import embed_semigroup, toric_ideal


def _random_binomial_ideal(rng, nvars, count):
    vars = tuple(f"x{i}" for i in range(nvars))
    gens = []
    for _ in range(count):
        e1 = tuple(rng.randint(0, 2) for _ in range(nvars))
        e2 = tuple(rng.randint(0, 2) for _ in range(nvars))
        if e1 == e2:
            continue
        gens.append(Polynomial.monomial(vars, e1) - Polynomial.monomial(vars, e2))
    return Ideal(gens, vars)


def _kernel_binomials(A, vars):
    gens = []
    for u in kernel_lattice(A):
        plus = tuple(x if x > 0 else 0 for x in u)
        minus = tuple(-x if x < 0 else 0 for x in u)
        gens.append(Polynomial.monomial(vars, plus)
                    - Polynomial.monomial(vars, minus))
    return gens


def _saturate_each(I, names):
    """I saturated by each named variable in turn, by the elimination oracle."""
    for v in names:
        I = reference_saturate(I, Polynomial.variable(I.vars, v))
    return I


def test_saturation_routes_agree_on_lattice_ideals():
    rng = random.Random(314)
    for _ in range(12):
        A = IntMatrix([[rng.randint(0, 3) for _ in range(4)] for _ in range(2)])
        vars = tuple(f"x{i}" for i in range(4))
        gens = _kernel_binomials(A, vars)
        if not gens:
            continue
        I = Ideal(gens, vars)
        fast = saturate_by_variables(I, vars)
        assert same_ideal(fast, canonical(_saturate_each(I, vars)))


def test_graded_saturation_route_agrees_with_saturate(monkeypatch):
    # an all-ones row makes every kernel binomial standard-homogeneous, so
    # saturate_by_variables takes the graded route, one variable at a time
    graded = []
    original = groebner._saturate_variable_graded

    def spy(I, name, w):
        graded.append(name)
        return original(I, name, w)

    monkeypatch.setattr(groebner, "_saturate_variable_graded", spy)
    rng = random.Random(2718)
    vars = tuple(f"x{i}" for i in range(5))
    enlarged = 0
    for k in range(12):
        A = IntMatrix([[1] * 5, [rng.randint(0, 3) for _ in range(5)]])
        gens = _kernel_binomials(A, vars)
        grading = Grading.standard(5) if k % 2 else None
        I = Ideal(gens, vars, grading=grading)
        graded.clear()
        fast = saturate_by_variables(I, vars)
        assert graded == list(vars)
        assert fast.grading == grading
        slow = canonical(_saturate_each(I, vars))
        assert fast.gens == slow.gens
        enlarged += not same_ideal(fast, canonical(I))
    assert enlarged >= 3


def _pair_loops(monkeypatch) -> list:
    """The order of every Buchberger call made from now on, None for the
    default degrevlex."""
    orders, original = [], groebner.buchberger

    def spy(I, order=None, hilbert=None):
        orders.append(order)
        return original(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    return orders


def test_saturate_last_by_the_last_variable_makes_no_canonical_run(monkeypatch):
    # under the standard grading, the graded-last order for the ring's last
    # variable is degrevlex, so its run leaves the canonical basis: the
    # last step is the last pair loop
    rng = random.Random(4041)
    vars = tuple(f"x{i}" for i in range(5))
    degrevlex = groebner._degrevlex(5).rows
    for _ in range(8):
        A = IntMatrix([[1] * 5, [rng.randint(0, 3) for _ in range(5)]])
        gens = _kernel_binomials(A, vars)
        if not gens:
            continue
        I = Ideal(gens, vars, grading=Grading.standard(5))
        for names in (["x4"], ["x1", "x4"]):
            orders = _pair_loops(monkeypatch)
            got = saturate_by_variables(I, names)
            monkeypatch.undo()
            assert len(orders) <= len(names)
            assert orders[-1].rows == degrevlex
            assert got.gens == canonical(_saturate_each(I, names)).gens
            assert got.grading == I.grading


def test_saturate_starts_from_an_installed_basis(monkeypatch):
    # a canonical ideal's degrevlex basis is where each step starts, and it
    # serves the step when its elements keep their leads under the step's
    # order: saturating by the last variable makes no pair loop.  Neither
    # does saturating an ideal graded by the x-degree, whose basis elements
    # each have one x-degree
    rng = random.Random(4042)
    vars = tuple(f"x{i}" for i in range(4))
    for k in range(16):
        A = IntMatrix([[1] * 4, [rng.randint(0, 3) for _ in range(4)]])
        I = canonical(Ideal(_kernel_binomials(A, vars), vars))
        name = vars[k // 2 % 4]
        if k % 2:  # the initial ideal for the weight -1 on x, graded by x-degree
            I = initial_ideal(I, [-1 if v == name else 0 for v in vars])
        f = Polynomial.variable(vars, name)
        orders = _pair_loops(monkeypatch)
        got = groebner.saturate(I, f)
        monkeypatch.undo()
        assert got.gens == canonical(reference_saturate(I, f)).gens
        if k % 2 or name == vars[-1]:
            assert orders == []
    # a projection's limit with two dropped variables, x1 and x3, is not
    # graded by the x1-degree alone, yet every element of its basis keeps
    # its lead under the graded-last order for x1: the basis serves that
    # step, and the divided elements keep their leads under degrevlex
    A = IntMatrix([[1] * 7, [3, 0, 2, 0, 1, 1, 1], [0, 0, 0, 2, 2, 1, 3]])
    vars = tuple(f"x{i}" for i in range(7))
    L = projection_limit(toric_ideal(A, vars), [v for v in vars if v not in ("x1", "x3")]).limit
    assert len(L.gens) == 11
    f = Polynomial.variable(vars, "x1")
    orders = _pair_loops(monkeypatch)
    got = groebner.saturate(L, f)
    monkeypatch.undo()
    assert orders == []
    assert got.gens == canonical(reference_saturate(L, f)).gens


@st.composite
def _saturation_inputs(draw):
    """An ideal in 3-4 variables, one of them possibly named h, with no
    positive grading, homogeneous in the standard grading, or carrying a
    drawn grading, perhaps holding 1; and a monomial c*x^a over 0-3 of its
    variables."""
    vars = draw(st.sampled_from([("x", "y", "z"), ("x", "y", "z", "w"),
                                 ("x", "h", "z"), ("h", "x", "y", "z")]))
    n = len(vars)
    kind = draw(st.sampled_from(["none", "none", "standard", "attached"]))
    w = [1] * n
    if kind == "attached":
        w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pad = draw(st.integers(0, n - 1))  # a variable of weight 1
    w[pad] = 1
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    coefficients = st.integers(-2, 2).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
        if kind == "none" and not gens:  # a term of another degree
            d, e = sum(next(iter(terms))), draw(exponents)
            terms[e if sum(e) != d else (e[0] + 1,) + e[1:]] = draw(coefficients)
        elif kind != "none":  # each term times a power of x_pad, to one degree
            top = max(dot(w, e) for e in terms)
            terms = {e[:pad] + (e[pad] + top - dot(w, e),) + e[pad + 1:]: c
                     for e, c in terms.items()}
        gens.append(Polynomial(vars, terms))
    if kind != "standard" and draw(st.integers(0, 3)) == 0:
        gens.append(Polynomial.monomial(vars, (0,) * n, draw(coefficients)))
    I = Ideal(gens, vars, grading=Grading(w) if kind == "attached" else None)
    support = draw(st.lists(st.sampled_from(range(n)), max_size=3, unique=True))
    a = [draw(st.integers(1, 2)) if i in support else 0 for i in range(n)]
    c = Fraction(draw(coefficients), draw(st.integers(1, 3)))
    return I, Polynomial.monomial(vars, a, c)


@settings(max_examples=100, deadline=None)
@given(case=_saturation_inputs())
# no positive grading, saturated through I^h in a ring that has an h already
@example(case=(Ideal([parse_polynomial("x*h - h*z^2 - z", ("x", "h", "z"))], ("x", "h", "z")),
               parse_polynomial("3*h", ("x", "h", "z"))))
# the ideal holds 1 and has no positive grading
@example(case=(Ideal([parse_polynomial("x*y - 1", ("x", "y", "z")),
                      parse_polynomial("x", ("x", "y", "z"))], ("x", "y", "z")),
               parse_polynomial("y*z", ("x", "y", "z"))))
def test_saturate_matches_elimination_oracle(case):
    I, f = case
    got = groebner.saturate(I, f)
    want = reference_saturate(I, f)
    assert got.gens == want.gens
    assert got.grading == want.grading == I.grading


def _all_variables_toric_oracle(A, vars):
    """The toric ideal saturated by every variable, as before hitting sets."""
    basis = kernel_lattice(A)
    grading = Grading.standard(len(vars)) if all(sum(u) == 0 for u in basis) else None
    return saturate_by_variables(Ideal(_kernel_binomials(A, vars), vars, grading=grading), vars)


@st.composite
def _small_matrices(draw):
    """1-3 rows over 3-7 columns, entries in -1..2, the first row all ones
    or not."""
    n = draw(st.integers(3, 7))
    rows = draw(st.lists(st.lists(st.integers(-1, 2), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        rows[0] = [1] * n
    return IntMatrix(rows)


@settings(max_examples=40, deadline=None)
@given(A=_small_matrices())
# kernel (1, 1, 0): no balanced set, so sigma is empty
@example(A=IntMatrix([[1, -1, 0], [0, 0, 1]]))
# not positively graded, sigma = {x2}: saturated through I^h
@example(A=IntMatrix([[1, -2, -1, -2], [0, 2, 2, 2]]))
def test_toric_ideal_matches_all_variables_saturation(A):
    vars = tuple(f"x{i}" for i in range(A.cols))
    T = toric_ideal(A, vars)
    if not kernel_lattice(A):
        assert T.is_zero()
        return
    oracle = _all_variables_toric_oracle(A, vars)
    assert T.gens == oracle.gens
    assert T.grading == oracle.grading


def test_rational_normal_curve_saturates_by_fewer_than_all_variables(monkeypatch):
    A = IntMatrix([[1] * 8, list(range(8))])
    names = tuple(f"x{i}" for i in range(8))
    steps = []
    original = groebner._saturate_variable_graded

    def spy(I, name, w):
        steps.append(name)
        return original(I, name, w)

    monkeypatch.setattr(groebner, "_saturate_variable_graded", spy)
    T = toric_ideal(A, names)
    assert 0 < len(steps) < 8
    monkeypatch.setattr(groebner, "_saturate_variable_graded", original)
    oracle = _all_variables_toric_oracle(A, names)
    assert T.gens == oracle.gens and T.grading == oracle.grading


def test_toric_ideal_saturates_through_homogenization(monkeypatch):
    # the second example above: no positive grading, sigma = {x2}; the one
    # saturation is a graded-last run on I^h over x0..x3 and h, and no ring
    # gains the auxiliary variable of the elimination route
    rings = []
    original = groebner.buchberger

    def spy(I, order=None, hilbert=None):
        rings.append((I.vars, order))
        return original(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    A = IntMatrix([[1, -2, -1, -2], [0, 2, 2, 2]])
    names = ("x0", "x1", "x2", "x3")
    T = toric_ideal(A, names)
    monkeypatch.undo()
    graded_last = groebner._graded_last((1,) * 5, 2).rows
    assert [vars for vars, order in rings
            if order is not None and order.rows == graded_last] == [names + ("h",)]
    assert not any("ysat" in vars for vars, _ in rings)
    assert [format_polynomial(g) for g in T.gens] == ["x0*x3 - x2", "x1 - x3"]
    oracle = reference_saturate(Ideal(_kernel_binomials(A, names), names),
                                Polynomial.variable(names, "x2"))
    assert T.gens == canonical(oracle).gens


def test_dropping_a_hitting_set_variable_changes_some_toric_ideal():
    # every sigma is inclusion-minimal; dropping one element leaves some
    # balanced set unsaturated, which shows as a wrong ideal on some draw
    rng = random.Random(1729)
    wrong = 0
    for _ in range(20):
        n = rng.randint(4, 6)
        A = IntMatrix([[1] * n, [rng.randint(0, 4) for _ in range(n)]])
        basis = kernel_lattice(A)
        if not basis:
            continue
        vars = tuple(f"x{i}" for i in range(n))
        I = Ideal(_kernel_binomials(A, vars), vars, grading=Grading.standard(n))
        sigma = toric._saturation_variables(basis)
        want = _all_variables_toric_oracle(A, vars)
        for k in range(len(sigma)):
            mutated = [vars[i] for i in sigma[:k] + sigma[k + 1:]]
            wrong += saturate_by_variables(I, mutated).gens != want.gens
    assert wrong >= 1


def _random_projection_input(rng, vars, homogeneous):
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = [0] * len(vars)
            for _ in range(d if homogeneous else rng.randint(0, d)):
                e[rng.randrange(len(vars))] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-2, 2)
        p = Polynomial(vars, terms)
        if not p.is_zero():
            gens.append(p)
    return Ideal(gens, vars)


def test_projection_cone_part_matches_saturation_by_product():
    rng = random.Random(161)
    vars = ("x", "y", "z", "w")
    cases = [(fx.twisted_cubic_ideal(), ("u3", "u2", "u0")),
             (fx.hyperbola_ideal(), ("x", "z"))]
    for homogeneous in (True, False):
        for _ in range(6):
            cases.append((_random_projection_input(rng, vars, homogeneous),
                          ("x", "y")))
    routes = set()
    for I, kept in cases:
        pr = projection_limit(I, kept)
        prod = Polynomial.monomial(I.vars, (0,) * len(I.vars))
        for v in pr.dropped:
            prod = prod * Polynomial.variable(I.vars, v)
        want = reference_saturate(pr.limit, prod)
        assert pr.cone_part.gens == want.gens
        assert pr.cone_part.grading == want.grading
        try:
            groebner.homogeneous_grading(pr.limit)
            routes.add(True)
        except groebner.NotHomogeneous:
            routes.add(False)
    assert routes == {True, False}


def _finite_by_saturation(init, T):
    """The radical of init + (x_T) holds every variable."""
    vars = init.vars
    K = Ideal(list(init.gens) + [Polynomial.variable(vars, vars[i]) for i in T],
              vars)
    return all(reference_saturate(K, Polynomial.variable(vars, vars[i])).contains_one()
               for i in range(len(vars)) if i not in T)


def test_finite_over_matches_radical_definition():
    rng = random.Random(99)
    vars = ("a", "b", "c", "d")
    inits = [
        valuation_pipeline(fx.elliptic_ideal(), fx.elliptic_matrix()).init,
        valuation_pipeline(fx.twisted_cubic_ideal(),
                           fx.twisted_cubic_matrix()).init,
        valuation_pipeline(fx.gr24_ideal(), fx.gr24_gvector_matrix()).init,
        Ideal([Polynomial.monomial(vars, (0,) * len(vars))], vars),
    ]
    for _ in range(4):
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            e1, e2 = [0] * 4, [0] * 4
            for _ in range(d):
                e1[rng.randrange(4)] += 1
                e2[rng.randrange(4)] += 1
            gens.append(Polynomial.monomial(vars, tuple(e1))
                        - Polynomial.monomial(vars, tuple(e2)))
        inits.append(Ideal(gens, vars, grading=Grading.standard(4)))
    seen = set()
    for init in inits:
        n = len(init.vars)
        for r in range(n + 1):
            for T in itertools.combinations(range(n), r):
                finite = _finite_over(init, T)
                assert finite == _finite_by_saturation(init, T)
                seen.add(finite)
    assert seen == {True, False}


@pytest.mark.parametrize("images, kernel", [(["x", "y"], "a^2 - b"),
                                            (["x^2", "x*y"], "a^3 - b^2")])
def test_ring_map_kernel_into_a_non_homogeneous_quotient(images, kernel):
    # k[x, y]/(y - x^2) has no grading for the graph ideal to extend, so
    # the kernel is eliminated from the ungraded graph ideal
    target = Ideal([parse_polynomial("y - x^2", ("x", "y"))], ("x", "y"))
    images = [parse_polynomial(p, target.vars) for p in images]
    assert groebner._graph_grading(target, images) is None
    K = ring_map_kernel(("a", "b"), images, target)
    assert K.gens == reference_ring_map_kernel(("a", "b"), images, target).gens
    assert [format_polynomial(g) for g in K.gens] == [kernel] and K.grading is None


def _assert_kernel_matches_ring_map(J, M):
    """embed's kernel_check against the elimination route on the same images
    and target: same variables, no grading, same reduced basis."""
    rep = embed_value_semigroup(J, M, MIN, degree_bound=2)
    images = [Polynomial.monomial(J.vars, rep.images[v]) for v in J.vars]
    K = ring_map_kernel(rep.kernel_check.vars, images, J)
    assert rep.kernel_check.vars == K.vars
    assert rep.kernel_check.grading is None and K.grading is None
    assert reduced_basis(rep.kernel_check).elements == reduced_basis(K).elements


def _embedding_fixtures():
    """(J, M) pairs that embed under the min convention."""
    vars3 = ("x0", "x1", "x2")
    dup = ("a", "b", "c")
    return [
        (fx.elliptic_ideal(), fx.elliptic_matrix()),
        (fx.gr24_ideal(), fx.gr24_gvector_matrix()),
        (fx.gr24_ideal(), fx.gr24_plabic_matrix()),
        (Ideal([], vars3, grading=Grading.standard(3)),
         IntMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])),
        (Ideal([Polynomial.variable(dup, "a") - Polynomial.variable(dup, "b")],
               dup, grading=Grading.standard(3)),
         IntMatrix([[1, 1, 1], [0, 0, 2]])),
    ]


def test_embed_kernel_matches_ring_map_kernel_on_fixtures():
    for J, M in _embedding_fixtures():
        _assert_kernel_matches_ring_map(J, M)


@st.composite
def _degree_one_matrices(draw, unique=True):
    """An all-ones row over 4-6 columns, distinct when `unique`, plus 1-2
    rows in 0..3."""
    extra = draw(st.integers(1, 2))
    cols = draw(st.lists(st.tuples(*[st.integers(0, 3)] * extra),
                         min_size=4, max_size=6, unique=unique))
    return IntMatrix([[1] * len(cols)] + [[c[k] for c in cols] for k in range(extra)])


@settings(max_examples=20, deadline=None)
@given(M=_degree_one_matrices(unique=False))
def test_vertex_classes_decide_finiteness_over_every_subset(M):
    # embed reads finiteness of k[x]/I_M over k[x_T] off the value polytope;
    # the oracle reads it off a reduced basis of I_M + (x_T).  Over T with
    # independent columns it is also "one column at each vertex", which is
    # why embed may try the vertex-column subsets first
    vars = tuple(f"x{i}" for i in range(M.cols))
    init = toric_ideal(M, vars)
    classes = _vertex_classes(M)
    vertex_cols = set().union(*classes)
    for r in range(M.cols + 1):
        for T in itertools.combinations(range(M.cols), r):
            finite = _finite_over(init, T)
            assert _finite(classes, T) == finite
            if T and _columns_independent(M, T):
                assert finite == (len(classes) == len(T) and set(T) <= vertex_cols)


@pytest.mark.parametrize("n", [7, 8])
def test_vertex_classes_match_rational_tableau_on_caterpillars(n, monkeypatch):
    # the value polytope's vertex classes from fraction-free pivots against
    # the same queries pivoted over Fractions
    M = caterpillar_matrix(n)
    got = _vertex_classes(M)
    monkeypatch.setattr(toric, "_feasible", reference_feasible)
    assert got == _vertex_classes(M)


def _assert_embedding_matches_reference(J, M, convention=MIN):
    """embed against the enumeration search: the same report fields, or the
    same exception."""
    try:
        want = reference_search(J, M, convention)
    except NoIndependentSubset:
        with pytest.raises(NoIndependentSubset):
            embed_value_semigroup(J, M, convention, degree_bound=1)
        return
    rep = embed_value_semigroup(J, M, convention, degree_bound=1)
    assert rep.independent_vars == want["independent_vars"]
    assert rep.hosts == want["hosts"]
    assert rep.images == want["images"]
    assert rep.finiteness_certified == want["finiteness_certified"]


@st.composite
def _embedding_matrices(draw):
    """Degree-one matrices, with repeated columns or an appended row that
    is the sum of two rows above it."""
    M = draw(_degree_one_matrices(unique=draw(st.booleans())))
    if draw(st.booleans()):
        rows = M.rows_list()
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                             max_size=2))
        M = IntMatrix(rows + [[a + b for a, b in zip(rows[i], rows[j])]])
    return M


def _finiteness_matches_vertex_classes(J, M, convention) -> bool:
    """embed's finiteness_certified, read off its vertex-column scan, against
    its hosts meeting every vertex class; returns the flag."""
    rep = embed_value_semigroup(J, M, convention, degree_bound=0)
    assert rep.finiteness_certified == _finite(_vertex_classes(M),
                                               rep.independent_vars)
    return rep.finiteness_certified


@settings(max_examples=30, deadline=None)
@given(M=_embedding_matrices())
def test_finiteness_certified_is_the_vertex_class_test(M):
    # step 8 of embed_value_semigroup: the vertex-column scan finding the
    # hosts, with one vertex class per host, is the hosts meeting every class
    vars = tuple(f"x{i}" for i in range(M.cols))
    try:
        _finiteness_matches_vertex_classes(toric_ideal(M, vars), M, MIN)
    except NoIndependentSubset:
        pass


def test_finiteness_certified_is_the_vertex_class_test_on_fixtures_and_caterpillars():
    cases = [(J, M, MIN) for J, M in _embedding_fixtures()]
    cases += [(plucker_ideal(n), caterpillar_matrix(n), MAX) for n in range(4, 8)]
    flags = [_finiteness_matches_vertex_classes(*case) for case in cases]
    assert set(flags) == {True, False} and not any(flags[-4:])


@settings(max_examples=25, deadline=None)
@given(M=_embedding_matrices())
def test_embed_matches_reference_search(M):
    vars = tuple(f"x{i}" for i in range(M.cols))
    _assert_embedding_matches_reference(toric_ideal(M, vars), M)


def test_embed_matches_reference_search_on_fixtures_and_grassmannians():
    cases = [(J, M, MIN) for J, M in _embedding_fixtures()]
    for n in (4, 5):
        for independent in (True, False):
            cases.append((plucker_ideal(n), caterpillar_matrix(n, independent), MAX))
    for J, M, convention in cases:
        _assert_embedding_matches_reference(J, M, convention)


def test_every_independent_host_set_gives_standard_images():
    # embed drops the standard-monomial test: no host set with independent
    # columns fails it (step 9 of embed_value_semigroup)
    cases = [(J, M, MIN) for J, M in _embedding_fixtures()[:3]]
    cases.append((plucker_ideal(5), caterpillar_matrix(5), MAX))
    counts = []
    for J, M, convention in cases:
        init = valuation_pipeline(J, M, convention).init
        N, _ = embed_semigroup(toric.Semigroup(M.columns()))
        cvecs = [_orthant_image(N, col) for col in M.columns()]
        used = tuple(sorted({j for c in cvecs for j, x in enumerate(c) if x > 0}))
        nvars = M.cols
        independent = [T for T in itertools.combinations(range(nvars), len(used))
                       if _columns_independent(M, T)]
        for T in independent:
            hosts = _assign_hosts(T, used, cvecs)
            images = _image_exponents(cvecs, hosts, used, nvars)
            assert _all_standard(images, initial_ideal(init, _cone_order(T, nvars)))
        counts.append(len(independent))
    assert counts == [3, 4, 4, 36]


@settings(max_examples=50, deadline=None)
@given(M=_embedding_matrices(), cols=st.sets(st.integers(0, 5)), k=st.integers(1, 4))
@example(M=IntMatrix([[1, 1, 1], [0, 0, 1]]), cols={0, 1, 2}, k=2)
def test_greedy_columns_are_the_first_independent_subset(M, cols, k):
    # step 10 of embed_value_semigroup: the greedy scan keeps the first
    # independent k-subset of the scanned columns in combinations order
    cols = sorted(c for c in cols if c < M.cols)
    first = next((T for T in itertools.combinations(cols, k)
                  if _columns_independent(M, T)), None)
    assert _first_independent(M, cols, k) == first


@settings(max_examples=25, deadline=None)
@given(M=_degree_one_matrices())
def test_embed_kernel_matches_ring_map_kernel_on_toric_ideals(M):
    vars = tuple(f"x{i}" for i in range(M.cols))
    J = toric_ideal(M, vars)
    try:
        _assert_kernel_matches_ring_map(J, M)
    except NoIndependentSubset:
        pass


@settings(max_examples=20, deadline=None)
@given(M=_degree_one_matrices())
def test_homogenizing_keeps_the_toric_ideal_when_ones_are_in_the_row_space(M):
    # valuation_pipeline homogenizes every matrix; with the all-ones row the
    # kernel, and hence the toric ideal, must not change
    vars = tuple(f"x{i}" for i in range(M.cols))
    T = toric_ideal(M, vars)
    H = toric_ideal(homogenize_matrix(M), vars)
    assert T.gens == H.gens and T.grading == H.grading


def _to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        m = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            m *= s ** k
        expr += m
    return expr


def _from_sympy(expr, vars, syms):
    poly = sympy.Poly(expr, *syms)
    out = {}
    for mon, c in poly.terms():
        q = sympy.Rational(c)
        out[tuple(int(x) for x in mon)] = Fraction(int(q.p), int(q.q))
    return Polynomial(vars, out)


def test_lex_bases_match_sympy():
    rng = random.Random(2718)
    for _ in range(10):
        n = rng.randint(2, 3)
        vars = tuple(f"x{i}" for i in range(n))
        syms = symbols(vars)
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        order = Lex(tuple(range(n)))
        G = buchberger(Ideal(gens, vars), order)
        sg = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="lex")
        mine = sorted(format_polynomial(g, order) for g in G.elements)
        theirs = sorted(
            format_polynomial(monic(_from_sympy(e, vars, syms), order), order)
            for e in sg.exprs if e != 0)
        assert mine == theirs


def test_stalling_inhomogeneous_ideal_matches_sympy_lex():
    # drawn by test_projection_closure_matches_eliminate: run directly, the
    # pair loop under the projection's weight order, and under the
    # two-block elimination order, went past 120 s on it, building
    # coefficients far larger than the 6-element lex basis needs
    vars = ("x0", "x1", "x2")
    syms = symbols(vars)
    gens = [parse_polynomial(t, vars) for t in (
        "x1^2*x2^2 - 2*x0*x1*x2 + 2*x1*x2^2",
        "-2*x0*x1^2*x2^2 + 3*x0*x1^2*x2 + x0^2*x2 - 2*x1^2",
        "x0^2*x1^2*x2^2 - 3*x0^2*x1^2 + x1^2")]
    I = Ideal(gens, vars)
    order = Lex((0, 1, 2))
    mine = sorted(format_polynomial(g, order) for g in buchberger(I, order).elements)
    sg = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="lex")
    theirs = sorted(format_polynomial(monic(_from_sympy(e, vars, syms), order), order)
                    for e in sg.exprs if e != 0)
    assert mine == theirs
    # no element of the lex basis is free of x0 and x1
    assert all(e.free_symbols - {syms[2]} for e in sg.exprs)
    pr = projection_limit(I, ("x2",))
    assert pr.closure.is_zero() and eliminate(I, ("x2",)).is_zero()


def test_eliminate_matches_sympy_lex():
    # the lex basis of I meets k[keep] in the lex basis of I & k[keep], so
    # sympy's lex basis, cut to the kept variables, checks the
    # weight-then-degrevlex elimination behind eliminate()
    rng = random.Random(1618)
    for _ in range(10):
        n = rng.randint(3, 4)
        vars = tuple(f"x{i}" for i in range(n))
        syms = symbols(vars)
        ndrop = rng.randint(1, n - 2)
        keep = vars[ndrop:]
        gens = []
        for _ in range(rng.randint(2, 3)):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(n))
                terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        E = eliminate(Ideal(gens, vars), keep)
        order = Lex(tuple(range(len(keep))))
        mine = sorted(format_polynomial(g, order)
                      for g in buchberger(E, order).elements)
        sg = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="lex")
        dropped = set(syms[:ndrop])
        theirs = sorted(
            format_polynomial(monic(_from_sympy(e, keep, syms[ndrop:]), order), order)
            for e in sg.exprs if e != 0 and not (e.free_symbols & dropped))
        assert mine == theirs


def _random_polynomial(rng, vars, degree=None):
    """Up to three terms with exponents 0-2 and coefficients -3..3, all of
    total degree `degree` when it is given."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [rng.randint(0, 2) for _ in vars]
        if degree is not None:
            e = [0] * len(vars)
            for _ in range(degree):
                e[rng.randrange(len(vars))] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
    return Polynomial(vars, terms)


def test_eliminate_and_ring_map_kernel_match_the_block_order_route():
    # eliminate reads I & k[keep] off the basis under the weight -1 on the
    # dropped variables refined by degrevlex; the BlockOrder route it
    # replaced must give the same canonical ideal, on inhomogeneous and on
    # graded ideals, with the kept variables in and out of ring order.  Run
    # directly, the BlockOrder pair loop was the slow one on some
    # inhomogeneous draws (14 s on the first draw of seed 1729, over 60 s on
    # a ring-map kernel of seed 3, where eliminate took 0.003 s and 0.3 s),
    # so the seed is one on which the oracle finished even then
    rng = random.Random(4)
    out_of_order = graded = 0
    for k in range(24):
        n = rng.randint(3, 4)
        vars = tuple(f"x{i}" for i in range(n))
        degree = rng.randint(1, 3) if k % 2 else None
        gens = [p for p in (_random_polynomial(rng, vars, degree)
                            for _ in range(rng.randint(2, 3))) if not p.is_zero()]
        I = Ideal(gens, vars, grading=Grading.standard(n) if degree else None)
        keep = tuple(rng.sample(vars, rng.randint(1, n - 1)))
        out_of_order += list(keep) != sorted(keep)
        graded += degree is not None
        E, want = eliminate(I, keep), reference_eliminate(I, keep)
        assert (E.vars, E.gens, E.grading) == (want.vars, want.gens, want.grading)
    assert out_of_order and graded
    for k in range(8):
        target_vars = ("y0", "y1", "y2")
        target = Ideal([_random_polynomial(rng, target_vars, 2)] if k % 2 else [],
                       target_vars)
        images = [_random_polynomial(rng, target_vars) for _ in range(rng.randint(2, 3))]
        source = tuple(f"s{i}" for i in range(len(images)))
        assert (ring_map_kernel(source, images, target).gens
                == reference_ring_map_kernel(source, images, target).gens)
    J = fx.gr24_ideal()
    rep = embed_value_semigroup(J, fx.gr24_gvector_matrix(), MIN, degree_bound=1)
    images = [Polynomial.monomial(J.vars, rep.images[v]) for v in J.vars]
    source = rep.kernel_check.vars
    assert (ring_map_kernel(source, images, J).gens
            == reference_ring_map_kernel(source, images, J).gens)


def test_hnf_lattice_agrees_with_sympy():
    # sympy's column-style HNF of A^T is an independently reduced basis of
    # the row lattice of A; canonicalizing both through our row HNF must
    # give identical matrices.
    rng = random.Random(161)
    for _ in range(15):
        n = rng.randint(2, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        M = IntMatrix(A)
        if sympy.Matrix(A).det() == 0:
            continue
        H, U = hermite_normal_form(M)
        assert sympy.Matrix(U.rows_list()) * sympy.Matrix(A) == sympy.Matrix(H.rows_list())
        S = sympy_hnf(sympy.Matrix(A).T)
        reduced = IntMatrix([[int(S[i, j]) for i in range(S.rows)]
                             for j in range(S.cols)])
        H2, _ = hermite_normal_form(reduced)
        assert H == H2


def test_hnf_invariant_under_unimodular_row_changes():
    rng = random.Random(653)
    for _ in range(15):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        A = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        H, _ = hermite_normal_form(A)
        rows = [list(r) for r in A.entries]
        for _ in range(6):  # random elementary row operations
            i, j = rng.randrange(m), rng.randrange(m)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        H2, _ = hermite_normal_form(IntMatrix(rows))
        assert H == H2


def test_weight_certificates_on_random_matrices():
    rng = random.Random(99)
    vars = ("x", "y", "z", "w")
    done = 0
    while done < 8:
        gens = []
        for _ in range(2):
            d = rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(2, 3)):
                e = [0, 0, 0, 0]
                for _ in range(d):
                    e[rng.randrange(4)] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        J = Ideal(gens, vars)
        M = IntMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
        w, init_M = weight_from_matrix(J, M)
        # the contract: certified equality of the two initial ideals
        assert same_ideal(initial_ideal(J, w), initial_ideal(J, M))
        assert same_ideal(init_M, initial_ideal(J, M))
        _assert_weight_matches_reference(J, M)
        done += 1


def _assert_weight_matches_reference(J, M):
    """The split-only selection returns the w and the canonical initial
    ideal of the selection that also verified each w by a second basis."""
    w, init = weight_from_matrix(J, M)
    w_ref, init_ref = reference_weight_from_matrix(J, M)
    assert w == w_ref
    assert init.gens == init_ref.gens and init.grading == init_ref.grading


def test_weight_certificates_match_the_verified_selection_on_fixtures():
    cases = [
        (fx.elliptic_ideal(), fx.elliptic_matrix(), MIN),
        (fx.twisted_cubic_ideal(), fx.twisted_cubic_matrix(), MIN),
        (fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN),
        (fx.gr24_ideal(), fx.gr24_plabic_matrix(), MIN),
        (fx.gr25_ideal(), fx.gr25_matrix(), fx.GR25_CONVENTION),
    ]
    for J, M, convention in cases:
        _assert_weight_matches_reference(
            J, IntMatrix(to_min(M.rows_list(), convention)))
