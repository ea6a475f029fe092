"""Dual-route and third-party oracle checks.

Where an operation has two independent computation paths (variable-wise
content saturation vs elimination, ring-map kernels vs lattice ideals,
the embedding's kernel vs ring-map kernels, certified weights vs matrix
refinements) the routes are compared on random inputs; sympy supplies an
outside implementation for Groebner bases and Hermite normal forms.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import symbols
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from toricdeg import fixtures as fx
from toricdeg import groebner
from toricdeg.degeneration import (
    NoIndependentSubset,
    _finite_over,
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
    saturate,
    saturate_by_variables,
)
from toricdeg.intlat import IntMatrix, hermite_normal_form, kernel_lattice, weight_from_matrix
from toricdeg.polycore import (
    MIN,
    Grading,
    Lex,
    Polynomial,
    format_polynomial,
)
from toricdeg.toric import toric_ideal


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
    for v in names:
        I = saturate(I, Polynomial.variable(I.vars, v))
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
        prod = Polynomial.constant(I.vars, 1)
        for v in pr.dropped:
            prod = prod * Polynomial.variable(I.vars, v)
        want = saturate(pr.limit, prod)
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
    return all(saturate(K, Polynomial.variable(vars, vars[i])).contains_one()
               for i in range(len(vars)) if i not in T)


def test_finite_over_matches_radical_definition():
    rng = random.Random(99)
    vars = ("a", "b", "c", "d")
    inits = [
        valuation_pipeline(fx.elliptic_ideal(), fx.elliptic_matrix()).init,
        valuation_pipeline(fx.twisted_cubic_ideal(),
                           fx.twisted_cubic_matrix()).init,
        valuation_pipeline(fx.gr24_ideal(), fx.gr24_gvector_matrix()).init,
        Ideal([Polynomial.constant(vars, 1)], vars),
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


def _assert_kernel_matches_ring_map(J, M):
    """embed's kernel_check against the elimination route on the same images
    and target: same variables, no grading, same reduced basis."""
    rep = embed_value_semigroup(J, M, MIN, degree_bound=2)
    images = [Polynomial.monomial(J.vars, rep.images[v]) for v in J.vars]
    K = ring_map_kernel(rep.kernel_check.vars, images, J)
    assert rep.kernel_check.vars == K.vars
    assert rep.kernel_check.grading is None and K.grading is None
    assert reduced_basis(rep.kernel_check).elements == reduced_basis(K).elements


def test_embed_kernel_matches_ring_map_kernel_on_fixtures():
    vars3 = ("x0", "x1", "x2")
    dup = ("a", "b", "c")
    cases = [
        (fx.elliptic_ideal(), fx.elliptic_matrix()),
        (fx.gr24_ideal(), fx.gr24_gvector_matrix()),
        (fx.gr24_ideal(), fx.gr24_plabic_matrix()),
        (Ideal([], vars3, grading=Grading.standard(3)),
         IntMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])),
        (Ideal([Polynomial.variable(dup, "a") - Polynomial.variable(dup, "b")],
               dup, grading=Grading.standard(3)),
         IntMatrix([[1, 1, 1], [0, 0, 2]])),
    ]
    for J, M in cases:
        _assert_kernel_matches_ring_map(J, M)


@st.composite
def _degree_one_matrices(draw):
    """An all-ones row over 4-6 distinct columns, plus 1-2 rows in 0..3."""
    extra = draw(st.integers(1, 2))
    cols = draw(st.lists(st.tuples(*[st.integers(0, 3)] * extra),
                         min_size=4, max_size=6, unique=True))
    return IntMatrix([[1] * len(cols)] + [[c[k] for c in cols] for k in range(extra)])


@settings(max_examples=25, deadline=None)
@given(M=_degree_one_matrices())
def test_embed_kernel_matches_ring_map_kernel_on_toric_ideals(M):
    vars = tuple(f"x{i}" for i in range(M.cols))
    J = toric_ideal(M, vars)
    try:
        _assert_kernel_matches_ring_map(J, M)
    except NoIndependentSubset:
        pass


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
            format_polynomial(_from_sympy(e, vars, syms).monic(order), order)
            for e in sg.exprs if e != 0)
        assert mine == theirs


def test_eliminate_matches_sympy_lex():
    # the lex basis of I meets k[keep] in the lex basis of I & k[keep], so
    # sympy's lex basis, cut to the kept variables, checks the BlockOrder
    # elimination behind eliminate()
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
            format_polynomial(_from_sympy(e, keep, syms[ndrop:]).monic(order), order)
            for e in sg.exprs if e != 0 and not (e.free_symbols & dropped))
        assert mine == theirs


def test_hnf_lattice_agrees_with_sympy():
    # sympy's column-style HNF of A^T is an independently reduced basis of
    # the row lattice of A; canonicalizing both through our row HNF must
    # give identical matrices.
    rng = random.Random(161)
    for _ in range(15):
        n = rng.randint(2, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        M = IntMatrix(A)
        if M.det() == 0:
            continue
        H, U = hermite_normal_form(M)
        assert U.mul(M) == H
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
        w = weight_from_matrix(J, M)
        # the contract: certified equality of the two initial ideals
        assert same_ideal(initial_ideal(J, w), initial_ideal(J, M))
        done += 1
