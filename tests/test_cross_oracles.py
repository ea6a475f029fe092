"""Dual-route and third-party oracle checks.

Where an operation has two independent computation paths (variable-wise
content saturation vs elimination, ring-map kernels vs lattice ideals,
certified weights vs matrix refinements) the routes are compared on random
inputs; sympy supplies an outside implementation for Groebner bases and
Hermite normal forms.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy
from sympy import symbols
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

from toricdeg.groebner import (
    Ideal,
    buchberger,
    canonical,
    eliminate,
    initial_ideal,
    same_ideal,
    saturate,
    saturate_by_variables,
)
from toricdeg.intlat import IntMatrix, hermite_normal_form, kernel_lattice, weight_from_matrix
from toricdeg.polycore import (
    MIN,
    Lex,
    Polynomial,
    format_polynomial,
)


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


def test_saturation_routes_agree_on_lattice_ideals():
    rng = random.Random(314)
    for _ in range(12):
        A = IntMatrix([[rng.randint(0, 3) for _ in range(4)] for _ in range(2)])
        basis = kernel_lattice(A)
        if not basis:
            continue
        vars = tuple(f"x{i}" for i in range(4))
        gens = []
        for u in basis:
            plus = tuple(x if x > 0 else 0 for x in u)
            minus = tuple(-x if x < 0 else 0 for x in u)
            gens.append(Polynomial.monomial(vars, plus)
                        - Polynomial.monomial(vars, minus))
        I = Ideal(gens, vars)
        fast = saturate_by_variables(I, vars)
        slow = I
        for v in vars:
            slow = saturate(slow, Polynomial.variable(vars, v))
        assert same_ideal(fast, canonical(slow))


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
        w = weight_from_matrix(J, M, MIN)
        # the contract: certified equality of the two initial ideals
        assert same_ideal(initial_ideal(J, w, MIN), initial_ideal(J, M, MIN))
        done += 1
