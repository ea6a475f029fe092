"""Groebner engine tests.

Random reduced bases are cross-checked against sympy's groebner (an
independent implementation); the worked examples use hand-derived values
noted inline.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
import sympy
from sympy import symbols

from reference_groebner import lead, monic
from reference_hilbert import standard_monomials
from toricdeg import groebner
from toricdeg.groebner import (
    Ideal,
    NotHomogeneous,
    buchberger,
    canonical,
    eliminate,
    graded_dimension,
    ideal_contains,
    initial_ideal,
    normal_form,
    reduced_basis,
    ring_map_kernel,
    same_ideal,
    saturate,
)
from toricdeg.polycore import (
    DegRevLex,
    DimensionMismatch,
    Grading,
    Lex,
    Polynomial,
    UnknownVariable,
    format_polynomial,
    parse_polynomial,
)

PLUECKER = ("p12", "p13", "p14", "p23", "p24", "p34")


def _ideal(vars, *texts, grading=None):
    return Ideal([parse_polynomial(t, vars) for t in texts], vars, grading=grading)


def _pluecker_ideal():
    return _ideal(PLUECKER, "p12*p34 - p13*p24 + p14*p23",
                  grading=Grading.standard(6))


# ---------------------------------------------------------------------------
# buchberger


def test_principal_monomial_ideal():
    I = _ideal(("x", "y"), "x")
    G = buchberger(I)
    assert [format_polynomial(g) for g in G.elements] == ["x"]


def test_lex_example_two_generators():
    # S(xy-1, y^2-1) = x - y by hand; both inputs then reduce away
    I = _ideal(("x", "y"), "x*y - 1", "y^2 - 1")
    G = buchberger(I, Lex((0, 1)))
    got = sorted(format_polynomial(g, G.order) for g in G.elements)
    assert got == ["x - y", "y^2 - 1"]


def test_pluecker_is_its_own_basis():
    I = _pluecker_ideal()
    G = buchberger(I)
    assert len(G.elements) == 1
    assert lead(G.elements[0], G.order)[1] == 1


def test_empty_ideal():
    G = buchberger(Ideal([], ("x", "y")))
    assert len(G.elements) == 0


def test_basis_properties_reduced():
    I = _ideal(("x", "y", "z"), "x^2 + y*z", "x*z - y^2", "y^3 + x*y")
    G = buchberger(I)
    leads = G.leads
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(li, lj))
    for g in G.elements:
        assert lead(g, G.order)[1] == 1
        # fully reduced: no term divisible by another lead
        others = [l for l in leads if l != lead(g, G.order)[0]]
        for e in g.terms:
            assert not any(all(a <= b for a, b in zip(l, e)) for l in others)


def test_membership_soundness():
    I = _ideal(("x", "y", "z"), "x^2*y - z", "y^2 - x", "x*z - y^3")
    G = buchberger(I)
    for g in I.gens:
        assert normal_form(g, G).is_zero()


def test_uniqueness_under_shuffles():
    rng = random.Random(5)
    I = _ideal(("x", "y", "z"), "x^2 - y*z", "x*y - z^2", "y^2*z - x")
    G0 = buchberger(I)
    base = [format_polynomial(g, G0.order) for g in G0.elements]
    gens = list(I.gens)
    for _ in range(20):
        rng.shuffle(gens)
        G = buchberger(Ideal(gens, I.vars))
        assert [format_polynomial(g, G.order) for g in G.elements] == base


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
    terms = {}
    for mon, c in poly.terms():
        q = sympy.Rational(c)
        terms[tuple(int(x) for x in mon)] = Fraction(int(q.p), int(q.q))
    return Polynomial(vars, terms)


def test_cross_check_against_sympy():
    """Independent oracle: sympy grevlex bases match ours up to monic scaling."""
    rng = random.Random(42)
    for _ in range(12):
        n = rng.randint(2, 3)
        vars = tuple(f"x{i}" for i in range(n))
        syms = symbols(vars)
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = Ideal(gens, vars)
        G = buchberger(I)
        sg = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                            order="grevlex")
        order = G.order
        mine = sorted(format_polynomial(g, order) for g in G.elements)
        theirs = sorted(
            format_polynomial(monic(_from_sympy(e, vars, syms), order), order)
            for e in sg.exprs if e != 0)
        assert mine == theirs


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_pluecker_division():
    I = _pluecker_ideal()
    # order the relation so p13*p24 leads: dividing p13*p24 leaves the
    # complementary two terms
    order = Lex((1, 4, 0, 2, 3, 5))  # p13 > p24 > rest
    G = buchberger(I, order)
    p = parse_polynomial("p13*p24", PLUECKER)
    r = normal_form(p, G)
    assert r == parse_polynomial("p12*p34 + p14*p23", PLUECKER)


def test_normal_form_zero_and_member():
    I = _ideal(("x", "y"), "x^2 - y")
    G = buchberger(I)
    assert normal_form(Polynomial(("x", "y")), G).is_zero()
    assert normal_form(I.gens[0], G).is_zero()


# ---------------------------------------------------------------------------
# initial ideals


def test_initial_ideal_gvector_weight():
    I = _pluecker_ideal()
    # min-convention weight from the translated value rows
    w = [79, 71, 67, 65, 61, 64]
    init = initial_ideal(I, w)
    want = canonical(_ideal(PLUECKER, "p13*p24 - p14*p23"))
    assert same_ideal(init, want)


def test_initial_ideal_elliptic():
    vars = ("x", "y", "z")
    I = _ideal(vars, "y^2*z - x^3 + x*z^2", grading=Grading.standard(3))
    init = initial_ideal(I, (1, 0, 3))
    assert same_ideal(init, canonical(_ideal(vars, "y^2*z - x^3")))


def test_initial_ideal_zero_weight():
    I = _ideal(("x", "y"), "x^2 - y^2 + x*y")
    assert same_ideal(initial_ideal(I, (0, 0)), canonical(I))


def test_initial_ideal_term_order_gives_monomials():
    I = _ideal(("x", "y"), "x^2 - y^3")
    init = initial_ideal(I, DegRevLex(2))
    assert all(len(g) == 1 for g in init.gens)


def test_initial_ideal_term_order_runs_one_buchberger_call(monkeypatch):
    # the leads of the reduced basis under the order are its initial ideal's
    # degrevlex reduced basis already: no second pair loop canonicalizes them
    I = _ideal(("x", "y", "z", "w"), "x*z - y^2", "y*w - z^2", "x*w - y*z",
               grading=Grading.standard(4))
    G = buchberger(I, Lex((0, 1, 2, 3)))
    want = canonical(Ideal([Polynomial.monomial(I.vars, e) for e in G.leads], I.vars,
                           grading=I.grading))
    calls = []
    bb = groebner.buchberger

    def spy(*args, **kwargs):
        calls.append(args)
        return bb(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    init = initial_ideal(I, Lex((0, 1, 2, 3)))
    assert len(calls) == 1
    assert init.gens == want.gens
    assert init.grading == want.grading
    assert reduced_basis(init).elements == reduced_basis(want).elements


def test_ideal_refuses_names_outside_the_grammar():
    # every name must read back through the polynomial parser
    x = Polynomial.variable(("x",), "x")
    assert Ideal([x], ("x",)).vars == ("x",)
    assert Ideal([], ("a_1", "B2")).vars == ("a_1", "B2")
    for names in [("x*y", "z"), ("1x",), ("", "z"), ("x y",), ("_x",), ("x'",)]:
        with pytest.raises(ValueError, match="is not of the form"):
            Ideal([], names)


def test_initial_ideal_refuses_fractional_weights():
    # (1.5, 1, 2) would truncate to (1, 1, 2) and keep only x^2; integral
    # floats pass as the integers they equal
    vars = ("x", "y", "z")
    I = _ideal(vars, "x^2 - y*z")
    with pytest.raises(ValueError, match="not an integer"):
        initial_ideal(I, (1.5, 1, 2))
    with pytest.raises(ValueError, match="not an integer"):
        initial_ideal(I, [(1, 1, 1), (0, 0.5, 0)])
    assert same_ideal(initial_ideal(I, (3.0, 2, 4)), canonical(I))


def test_initial_ideal_accepts_matrix_spec():
    from toricdeg.intlat import IntMatrix
    vars = ("x", "y", "z")
    I = _ideal(vars, "y^2*z - x^3 + x*z^2", grading=Grading.standard(3))
    init = initial_ideal(I, IntMatrix([[1, 1, 1], [1, 0, 3]]))
    assert same_ideal(init, canonical(_ideal(vars, "y^2*z - x^3")))


# ---------------------------------------------------------------------------
# elimination and saturation


def test_eliminate_hyperbola():
    I = _ideal(("x", "y", "z"), "x*y - z^2")
    E = eliminate(I, ("x", "z"))
    assert E.is_zero()


def test_eliminate_twisted_cubic():
    vars = ("u3", "u2", "u1", "u0")
    I = _ideal(vars, "u2^2 - u3*u1", "u1^2 - u2*u0", "u2*u1 - u3*u0")
    E = eliminate(I, ("u3", "u2", "u0"))
    want = canonical(_ideal(("u3", "u2", "u0"), "u2^3 - u3^2*u0"))
    assert same_ideal(E, want)


def test_eliminate_nothing():
    I = _ideal(("x", "y"), "x - y")
    assert same_ideal(eliminate(I, ("x", "y")), canonical(I))


def test_eliminate_over_a_reordering_of_all_variables():
    # the result lives over `keep`, with the grading permuted to match
    I = _ideal(("x", "y"), "x^2 - y", grading=Grading((1, 2)))
    E = eliminate(I, ("y", "x"))
    assert E.vars == ("y", "x")
    assert E.grading == Grading((2, 1))
    assert [format_polynomial(g) for g in E.gens] == ["x^2 - y"]


def test_eliminate_idempotent_and_supported():
    I = _ideal(("x", "y", "z"), "x*y - z^2", "y^2 - x*z")
    E1 = eliminate(I, ("x", "z"))
    E2 = eliminate(E1, ("x", "z"))
    assert same_ideal(E1, E2)
    assert E1.vars == E2.vars == ("x", "z")
    assert all(g.vars == ("x", "z") for g in E1.gens)


def test_variable_names_are_checked_before_any_groebner_work(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("Groebner work before the names were checked")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    graded = _ideal(("x", "y", "z"), "x*y - z^2")
    inhomogeneous = _ideal(("x", "y", "z"), "x*y - z")
    # the graded route and the route through I^h name the same error
    for I in (graded, inhomogeneous):
        with pytest.raises(UnknownVariable) as exc:
            groebner.saturate_by_variables(I, ["q"])
        assert exc.value.name == "q"
        with pytest.raises(UnknownVariable):
            eliminate(I, ["x", "q"])
        with pytest.raises(ValueError, match="named twice"):
            eliminate(I, ["x", "x"])
    assert calls == []


def test_saturate_hyperbola_cone():
    vars = ("x", "y", "z")
    I = _ideal(vars, "x*y")
    S = saturate(I, parse_polynomial("y", vars))
    assert same_ideal(S, canonical(_ideal(vars, "x")))


def test_saturate_to_unit():
    vars = ("u3", "u2", "u1", "u0")
    I = _ideal(vars, "u3*u1", "u1^2", "u2*u1", "u2^3 - u3^2*u0")
    S = saturate(I, parse_polynomial("u1", vars))
    assert S.contains_one()
    I2 = _ideal(("x",), "x^2", "x")
    assert saturate(I2, parse_polynomial("x", ("x",))).contains_one()


def test_saturate_takes_only_a_monomial_from_its_own_ring():
    vars = ("x", "y", "z")
    I = _ideal(vars, "x*y - z")
    for f in ("x + y", "x*y - 1", "y + 1"):
        with pytest.raises(ValueError, match="monomial"):
            saturate(I, parse_polynomial(f, vars))
    with pytest.raises(ValueError, match="by 0"):
        saturate(I, Polynomial(vars))
    with pytest.raises(DimensionMismatch):
        saturate(I, parse_polynomial("x", ("x", "y")))
    with pytest.raises(DimensionMismatch):
        saturate(I, parse_polynomial("x", ("x", "z", "y")))


def test_graded_saturation_one_buchberger_call_per_variable(monkeypatch):
    # the twisted cubic's two adjacent binomials; saturating adds x0*x3 - x1*x2
    vars = ("x0", "x1", "x2", "x3")
    I = _ideal(vars, "x0*x2 - x1^2", "x1*x3 - x2^2")
    calls = []
    original = groebner.buchberger

    def spy(J, order=None):
        calls.append(order)
        return original(J, order)

    monkeypatch.setattr(groebner, "buchberger", spy)
    J = I
    for v in vars:
        calls.clear()
        J = groebner._saturate_variable_graded(J, v, (1, 1, 1, 1))
        assert len(calls) == 1
    monkeypatch.undo()
    assert same_ideal(J, canonical(_ideal(vars, "x0*x2 - x1^2", "x1*x3 - x2^2",
                                          "x0*x3 - x1*x2")))


def test_saturate_regrading_runs_no_buchberger(monkeypatch):
    # a graded and an ungraded copy of one ideal make the same Buchberger
    # calls and the same basis
    vars = ("x", "y", "z")
    f = parse_polynomial("y", vars)
    calls = []
    original = groebner.buchberger

    def spy(J, order=None, hilbert=None):
        calls.append(order)
        return original(J, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    graded = saturate(_ideal(vars, "x*y^2 - y*z^2", grading=Grading.standard(3)), f)
    n_graded = len(calls)
    calls.clear()
    plain = saturate(_ideal(vars, "x*y^2 - y*z^2"), f)
    assert n_graded == len(calls)
    assert graded.grading == Grading.standard(3) and plain.grading is None
    assert graded.gens == plain.gens
    assert [format_polynomial(g) for g in graded.gens] == ["x*y - z^2"]


def test_saturate_idempotent_and_certified():
    vars = ("x", "y", "z")
    I = _ideal(vars, "x^2*y - z^2*y", "y^2*z")
    f = parse_polynomial("y", vars)
    S1 = saturate(I, f)
    S2 = saturate(S1, f)
    assert same_ideal(S1, S2)
    assert ideal_contains(S1, I)
    # certificate: some power of f times each new generator falls into I
    G = reduced_basis(I)
    for g in S1.gens:
        h = g
        for _ in range(8):
            if normal_form(h, G).is_zero():
                break
            h = h * f
        else:
            raise AssertionError("no saturation certificate found")


# ---------------------------------------------------------------------------
# ring map kernels


def test_ring_map_kernel_identity():
    vars = ("x", "y")
    target = Ideal([], vars)
    images = [Polynomial.variable(vars, v) for v in vars]
    K = ring_map_kernel(("a", "b"), images, target)
    assert K.is_zero()


def test_ring_map_kernel_elliptic_cubics():
    vars = ("x", "y", "z")
    target = _ideal(vars, "y^2*z - x^3 + x*z^2", grading=Grading.standard(3))
    images = [parse_polynomial(s, vars) for s in ("y^3", "y^2*z", "z^3")]
    K = ring_map_kernel(("A", "B", "C"), images, target)
    want = canonical(_ideal(("A", "B", "C"), "B^3 - A^2*C"))
    assert same_ideal(K, want)
    # cross-oracle: the toric ideal of the exponent columns (3,0),(2,1),(0,3)
    from toricdeg.intlat import IntMatrix
    from toricdeg.toric import toric_ideal
    T = toric_ideal(IntMatrix([[3, 2, 0], [0, 1, 3]]), ("A", "B", "C"))
    assert same_ideal(K, T)


# ---------------------------------------------------------------------------
# standard monomials and graded dimension


def test_standard_monomials_gr24():
    I = canonical(_ideal(PLUECKER, "p13*p24 - p14*p23"))
    # cone order with p13*p24 leading, as in the cluster-chart degeneration
    G = buchberger(I, Lex((1, 4, 0, 2, 3, 5)))
    grading = Grading.standard(6)
    assert len(standard_monomials(G, grading, 0)) == 1
    assert len(standard_monomials(G, grading, 1)) == 6
    deg2 = standard_monomials(G, grading, 2)
    assert len(deg2) == 20
    assert (0, 1, 0, 0, 1, 0) not in deg2  # p13*p24 itself is excluded


def test_graded_dimension_leaves_no_reference_cycles():
    I = _pluecker_ideal()
    reduced_basis(I)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            graded_dimension(I, 3)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_graded_dimension_pluecker():
    I = _pluecker_ideal()
    assert graded_dimension(I, 1) == 6
    assert graded_dimension(I, 2) == 20


def test_graded_dimension_zero_ideal():
    I = Ideal([], ("x", "y", "z"), grading=Grading.standard(3))
    assert graded_dimension(I, 2) == 6


def test_graded_dimension_not_homogeneous():
    I = _ideal(("x", "y"), "x^2 + y")
    with pytest.raises(NotHomogeneous):
        graded_dimension(I, 2)


def test_graded_dimension_cap():
    I = Ideal([], ("x",), grading=Grading.standard(1))
    assert graded_dimension(I, 9) == 1


def test_graded_dimension_high_degree():
    # twisted cubic: 3m + 1; Gr(2,4): (m+1)(m+2)^2(m+3)/12
    tc = _ideal(("u3", "u2", "u1", "u0"), "u2^2 - u3*u1", "u1^2 - u2*u0",
                "u2*u1 - u3*u0")
    assert graded_dimension(tc, 200) == 601
    assert graded_dimension(_pluecker_ideal(), 50) == 609076


def test_homogeneity_checked_on_construction():
    with pytest.raises(NotHomogeneous):
        _ideal(("x", "y"), "x + y^2", grading=Grading.standard(2))


def test_graded_dimension_order_independent():
    I = _pluecker_ideal()
    n1 = graded_dimension(I, 3)
    J = Ideal(list(buchberger(I, Lex((5, 4, 3, 2, 1, 0))).elements), I.vars,
              grading=I.grading)
    assert graded_dimension(J, 3) == n1


def test_initial_ideal_preserves_hilbert_function():
    """Flatness: in_w(I) and I have equal graded dimensions, random w."""
    rng = random.Random(314159)
    I = _pluecker_ideal()
    dims = [graded_dimension(I, m) for m in range(5)]
    for _ in range(6):
        w = [rng.randint(-4, 4) for _ in range(6)]
        J = initial_ideal(I, w)
        J = Ideal(J.gens, J.vars, grading=I.grading)
        assert [graded_dimension(J, m) for m in range(5)] == dims
