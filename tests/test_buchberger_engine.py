"""The Buchberger engine against its predecessor, and its pair criteria at
work.

`reference_groebner.buchberger` is the engine toricdeg used before the
Gebauer-Moller rewrite, reducing over `Fraction` on tuple exponents.
Reduced bases are unique, so on every ideal and order the two engines must
return identical bases, and `normal_form` must return the reference's exact
remainder.  The engine's packed exponents are checked against the tuple
definitions, at every field width and across a field's largest entry.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_groebner
import reference_hilbert
import reference_orders as ref
from toricdeg import degeneration, fixtures, groebner
from toricdeg.degeneration import embed_value_semigroup, family_ideal
from toricdeg.groebner import (
    Ideal,
    NotHomogeneous,
    _graded_last,
    buchberger,
    normal_form,
    ring_map_kernel,
)
from toricdeg.intlat import IntMatrix, kernel_lattice
from toricdeg.ioformats import parse_ideal_text
from toricdeg.polycore import (
    MAX,
    MAX_EXPONENT,
    MIN,
    BlockOrder,
    DegreeOverflow,
    DegRevLex,
    DimensionMismatch,
    Grading,
    Lex,
    Polynomial,
    WeightOrder,
    exp_add,
    parse_polynomial,
    to_min,
)
from toricdeg.toric import toric_ideal

ORDER_KINDS = ("degrevlex", "weight-min", "weight-max", "block", "graded-last")

# small integers, which cancel often, and rationals with numerators and
# denominators up to about 10^30
_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


@st.composite
def _ideals(draw, homogeneous=None):
    """(ideal, homogeneous?) with 2-4 variables, up to 3 generators of at
    most 4 terms each, exponents of total degree at most 3 and `_COEFFS`
    coefficients; homogeneous in the standard grading when asked."""
    n = draw(st.integers(2, 4))
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    vars = tuple(f"x{i}" for i in range(n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            if homogeneous:
                cuts = sorted(draw(st.lists(st.integers(0, degree),
                                            min_size=n - 1, max_size=n - 1)))
                e = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
            else:
                e = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
                if sum(e) > 3:
                    continue
            terms[e] = terms.get(e, 0) + draw(_COEFFS)
        gens.append(Polynomial(vars, terms))
    return Ideal(gens, vars), homogeneous


def _order(draw, kind: str, n: int, homogeneous: bool):
    if kind == "degrevlex":
        return DegRevLex(n)
    if kind in ("weight-min", "weight-max"):
        # a weight order must be a well-order on inhomogeneous input: the
        # preferred direction of each weight has to raise the degree
        if homogeneous:
            lo, hi = -3, 3
        else:
            lo, hi = (-3, 0) if kind == "weight-min" else (0, 3)
        rows = [draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
                for _ in range(draw(st.integers(1, 2)))]
        return WeightOrder(to_min(rows, MIN if kind == "weight-min" else MAX))
    if kind == "block":
        first = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        return BlockOrder(sorted(first), [i for i in range(n) if i not in first])
    w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return _graded_last(w, draw(st.integers(0, n - 1)))


@pytest.mark.parametrize("kind", ORDER_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_reference(kind, data):
    I, homogeneous = data.draw(_ideals())
    order = _order(data.draw, kind, len(I.vars), homogeneous)
    new = buchberger(I, order)
    old = reference_groebner.buchberger(I, order)
    assert new.elements == old.elements
    assert new.leads == old.leads
    for g, l in zip(new.elements, new.leads):
        assert all(type(c) is Fraction for c in g.terms.values())
        assert g.terms[l] == 1


@pytest.mark.parametrize("kind", ORDER_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_with_hilbert_target_matches_reference(kind, data):
    # the target: the reference's degrevlex leads of the same ideal, whose
    # Hilbert function the engine counts in the ideal's grading, standard or
    # weighting the variables unequally
    I, _ = data.draw(st.one_of(_ideals(homogeneous=True), _graded_ideals()))
    order = _order(data.draw, kind, len(I.vars), True)
    target = reference_groebner.buchberger(I, DegRevLex(len(I.vars))).leads
    new = buchberger(I, order, hilbert=target)
    old = reference_groebner.buchberger(I, order)
    assert new.elements == old.elements
    assert new.leads == old.leads


@st.composite
def _graded_ideals(draw):
    """(ideal, w): an ideal over 3-4 variables, homogeneous for the positive
    weights w, standard or drawn, and carrying w as its grading or, when w
    is standard, perhaps none.  It is generated by the kernel binomials of
    a matrix whose first row is w, or by up to 3 drawn polynomials, each
    term raised to one w-degree by a power of a variable of weight 1."""
    n = draw(st.integers(3, 4))
    vars = tuple(f"x{i}" for i in range(n))
    w = [1] * n
    if draw(st.booleans()):
        w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    pad = draw(st.integers(0, n - 1))
    w[pad] = 1
    if draw(st.booleans()):
        A = IntMatrix([w, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))])
        gens = [Polynomial.monomial(vars, tuple(max(x, 0) for x in u))
                - Polynomial.monomial(vars, tuple(max(-x, 0) for x in u))
                for u in kernel_lattice(A)]
    else:
        exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            terms = draw(st.dictionaries(exponents, st.integers(-2, 2).filter(bool),
                                         min_size=1, max_size=4))
            degree = [sum(map(operator.mul, w, e)) for e in terms]
            gens.append(Polynomial(vars, {
                e[:pad] + (e[pad] + max(degree) - d,) + e[pad + 1:]: c
                for (e, c), d in zip(terms.items(), degree)}))
    standard = w == [1] * n
    grading = None if standard and draw(st.booleans()) else Grading(w)
    return Ideal(gens, vars, grading=grading), tuple(w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_basis_that_keeps_its_leads_is_a_basis_under_the_graded_last_order(data):
    # the rule by which saturation reuses a basis: where every element of
    # the degrevlex basis keeps its lead under `_graded_last(w, i)`, its
    # interreduction under that order is the order's reduced basis
    I, w = data.draw(_graded_ideals())
    B = groebner.reduced_basis(I)
    for i in range(len(I.vars)):
        order = _graded_last(w, i)
        if groebner._keeps_leads(B.elements, B.leads, order):
            G = groebner._interreduced(B.elements, B.leads, I.vars, order)
            H = buchberger(I, order)
            assert (G.elements, G.leads) == (H.elements, H.leads)


def _zero_reductions(monkeypatch, I, order, hilbert):
    """(basis, zero reductions) of one Buchberger run."""
    nf, zeros = groebner._normal_form, []

    def counting_nf(*args):
        r = nf(*args)
        zeros.append(not r[0])
        return r

    monkeypatch.setattr(groebner, "_normal_form", counting_nf)
    G = buchberger(I, order, hilbert=hilbert)
    monkeypatch.setattr(groebner, "_normal_form", nf)
    return G, sum(zeros)


def test_hilbert_target_drops_zero_reductions(monkeypatch):
    # the Plucker quadrics of Gr(2,5) under a weight order: once the leads
    # fill a degree, its remaining pairs are dropped unreduced
    J = fixtures.gr25_ideal()
    order = WeightOrder([(0, 1, 2, 3, 1, 2, 3, 3, 4, 5)])
    plain, plain_zeros = _zero_reductions(monkeypatch, J, order, None)
    target = groebner.reduced_basis(J).leads
    driven, driven_zeros = _zero_reductions(monkeypatch, J, order, target)
    assert driven.elements == plain.elements
    assert driven_zeros < plain_zeros


def test_hilbert_target_counts_in_the_attached_grading(monkeypatch):
    # homogeneous for the grading (1, 2, 3), not for the standard one: the
    # target is counted in the attached weights, drops every zero reduction
    # of this run, and leaves the basis found with no target
    vars = ("x", "y", "z")
    I = Ideal([parse_polynomial(t, vars) for t in ("x^2 - y", "x*y - z", "y^2 - x*z")],
              vars, grading=Grading([1, 2, 3]))
    order = WeightOrder([(0, 1, 2)])
    plain, plain_zeros = _zero_reductions(monkeypatch, I, order, None)
    target = groebner.reduced_basis(I).leads
    driven, driven_zeros = _zero_reductions(monkeypatch, I, order, target)
    assert driven.elements == plain.elements
    assert (plain_zeros, driven_zeros) == (3, 0)


def test_hilbert_target_needs_homogeneous_input():
    # x^2 - y carries no grading and is not homogeneous in the standard one
    vars = ("x", "y")
    I = Ideal([Polynomial(vars, {(2, 0): 1, (0, 1): -1})], vars)
    with pytest.raises(NotHomogeneous):
        buchberger(I, hilbert=[(2, 0)])


def test_hilbert_target_too_large_is_rejected():
    # (x^2, x*y) holds all of degree 3 but y^3; the zero ideal's target
    # claims all four monomials are missing
    vars = ("x", "y")
    I = Ideal([Polynomial(vars, {(2, 0): 1}), Polynomial(vars, {(1, 1): 1})], vars)
    with pytest.raises(ValueError, match="Hilbert target"):
        buchberger(I, hilbert=[])


def _cubic_pair() -> Ideal:
    """(x^2 - y*z, x*y - z^2) in k[x, y, z], whose degrevlex basis adds
    y^2*z - x*z^2 in degree 3."""
    vars = ("x", "y", "z")
    return Ideal([parse_polynomial(t, vars) for t in ("x^2 - y*z", "x*y - z^2")], vars)


@pytest.mark.parametrize("target, error", [
    ([(2, 0)], DimensionMismatch),
    ([(2, 0, 0), (1, 1, 0, 0)], DimensionMismatch),
    ([(-1, 0, 0)], ValueError),
    ([(1.5, 0, 0)], ValueError),
    ([(True, 0, 0)], ValueError),
    ([(MAX_EXPONENT + 1, 0, 0)], DegreeOverflow),
])
def test_hilbert_target_is_checked_before_any_groebner_work(monkeypatch, target, error):
    def no_pair_loop(*args):
        raise AssertionError("pair loop ran")

    monkeypatch.setattr(groebner, "_pair_loop", no_pair_loop)
    with pytest.raises(error):
        buchberger(_cubic_pair(), hilbert=target)


def test_hilbert_target_larger_than_the_ideals_is_not_detected():
    # (x^2, x*y) claims y^2*z is standard in degree 3: the degree's pairs
    # are dropped before the third element is found, as documented
    I = _cubic_pair()
    assert len(buchberger(I)) == 3
    assert buchberger(I, hilbert=[(2, 0, 0), (1, 1, 0)]).leads == ((2, 0, 0), (1, 1, 0))


def _checked_lead_counts(monkeypatch) -> list:
    """Every count of the pair loops' `_LeadCounts` from now on, checked
    against a from-scratch count of the current leads: the list of (degree,
    leads counted lead by lead) in turn, 0 leads for a recount."""
    at, seen = groebner._LeadCounts.at, []

    def spy(self, deg, leads):
        before = self.seen if deg < len(self.values) else len(leads)
        h = at(self, deg, leads)
        exps = [self.packing.unpack(l) for l in leads]
        assert h == groebner._hilbert_function(exps, self.weights, deg)[deg]
        assert h == reference_hilbert.standard_count(exps, self.weights, deg)
        seen.append((deg, len(leads) - before))
        return h

    monkeypatch.setattr(groebner._LeadCounts, "at", spy)
    return seen


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_incremental_lead_counts_match_counts_from_scratch(data):
    I, _ = data.draw(st.one_of(_ideals(homogeneous=True), _graded_ideals()))
    order = _order(data.draw, data.draw(st.sampled_from(ORDER_KINDS)), len(I.vars), True)
    target = reference_groebner.buchberger(I, DegRevLex(len(I.vars))).leads
    with pytest.MonkeyPatch.context() as m:
        _checked_lead_counts(m)
        G = buchberger(I, order, hilbert=target)
    assert G.elements == reference_groebner.buchberger(I, order).elements


def test_lead_counts_are_kept_lead_by_lead(monkeypatch):
    # the family run of `test_pair_criteria_counters_are_pinned`: the first
    # count, in degree 3, is from scratch to degree 6, and each later degree
    # takes in the one lead found since, with no recount
    text = ("vars: x0,x1,x2,x3,x4\n- 2*x0*x1 - 2*x1^2 + 3*x2*x3\n"
            "1*x0*x4 + 1*x3^2 - 2*x4^2\n"
            "2*x0*x3*x4 + 3*x1*x3^2 - 3*x2*x3^2 - 1*x2*x3*x4\n")
    seen = _checked_lead_counts(monkeypatch)
    family_ideal(parse_ideal_text(text), (0, 1, 0, 3, 2))
    assert seen == [(3, 0), (4, 1), (5, 1), (6, 1)]


def _reference_normal_form(p, G):
    return reference_groebner._normal_form(
        p, G.elements, G.leads, reference_groebner._cached_key(G.order))


@pytest.mark.parametrize("kind", ORDER_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_is_exact_remainder(kind, data):
    I, homogeneous = data.draw(_ideals())
    G = buchberger(I, _order(data.draw, kind, len(I.vars), homogeneous))
    n = len(I.vars)
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        e = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        terms[e] = terms.get(e, 0) + data.draw(_COEFFS)
    p = Polynomial(I.vars, terms)
    r = normal_form(p, G)
    assert r == _reference_normal_form(p, G)
    assert all(type(c) is Fraction for c in r.terms.values())


def test_normal_form_divides_out_the_multiplier(monkeypatch):
    # p = x/3 + 1 is cleared to x + 3; the lead coefficient 2 of the cleared
    # element 2*x - y scales its reduction by 2, which ends at y + 6, so the
    # remainder is (y + 6)/(3*2) = y/6 + 1
    vars = ("x", "y")
    G = buchberger(Ideal([Polynomial(vars, {(1, 0): 1, (0, 1): Fraction(-1, 2)})], vars))
    p = Polynomial(vars, {(1, 0): Fraction(1, 3), (0, 0): 1})
    nf, multipliers = groebner._normal_form, []

    def recording_nf(*args):
        r, m = nf(*args)
        multipliers.append(m)
        return r, m

    monkeypatch.setattr(groebner, "_normal_form", recording_nf)
    r = normal_form(p, G)
    assert multipliers == [2]
    assert r == Polynomial(vars, {(0, 1): Fraction(1, 6), (0, 0): 1})
    assert r == _reference_normal_form(p, G)


def test_gr24_elimination_zero_reductions(monkeypatch):
    """The 12-variable elimination that computes the ring-map kernel of the
    gr24 g-vector embedding, under the weight -1 on the six target variables
    refined by degrevlex: the old engine reduced 3111 of its S-polynomials
    to zero under BlockOrder, with 173 basis elements."""
    J = fixtures.gr24_ideal()
    rep = embed_value_semigroup(J, fixtures.gr24_gvector_matrix(), MIN,
                                degree_bound=3)
    images = [Polynomial.monomial(J.vars, rep.images[v]) for v in J.vars]
    nf, bb = groebner._normal_form, groebner.buchberger
    counts = []  # [zero reductions] of each open buchberger call
    calls = []  # (zero reductions, basis size) of each 12-variable elimination
    eliminating = groebner._weight_order([[-1] * 6 + [0] * 6], 12)

    def counting_nf(*args):
        r = nf(*args)
        if counts and not r[0]:
            counts[-1] += 1
        return r

    def counting_bb(I, order=None):
        counts.append(0)
        try:
            G = bb(I, order)
        finally:
            zeros = counts.pop()
        if order is not None and order.rows == eliminating.rows:
            calls.append((zeros, len(G)))
        return G

    monkeypatch.setattr(groebner, "_normal_form", counting_nf)
    monkeypatch.setattr(groebner, "buchberger", counting_bb)
    ring_map_kernel(rep.kernel_check.vars, images, J)
    assert len(calls) == 1
    zeros, size = calls[0]
    assert size == 106
    assert zeros <= 700


def _engine_counters(monkeypatch, run) -> list:
    """(order, Hilbert target given, normal forms, zero reductions, basis
    size) of each Buchberger call that run() makes, in the order the calls
    end; the order is None for the default degrevlex."""
    nf, bb = groebner._normal_form, groebner.buchberger
    open_calls, ended = [], []

    def counting_nf(*args):
        r = nf(*args)
        if open_calls:
            open_calls[-1][0] += 1
            open_calls[-1][1] += not r[0]
        return r

    def counting_bb(I, order=None, hilbert=None):
        open_calls.append([0, 0])
        try:
            G = bb(I, order, hilbert)
        finally:
            forms, zeros = open_calls.pop()
        ended.append((order, hilbert is not None, forms, zeros, len(G)))
        return G

    monkeypatch.setattr(groebner, "_normal_form", counting_nf)
    monkeypatch.setattr(groebner, "buchberger", counting_bb)
    monkeypatch.setattr(degeneration, "buchberger", counting_bb)
    try:
        run()
    finally:
        monkeypatch.undo()
    return ended


def test_pair_criteria_counters_are_pinned(monkeypatch):
    """Each run's normal forms, zero reductions and basis size, pinned: a
    change to the term key or to the pair bookkeeping that keeps every
    decision of the criteria keeps these counts.  The runs are the gr24
    12-variable elimination, the `toric_ideal` runs of the first
    `lattices` benchmark entry and the weight basis of the first
    `families` benchmark entry."""
    J = fixtures.gr24_ideal()
    rep = embed_value_semigroup(J, fixtures.gr24_gvector_matrix(), MIN, degree_bound=3)
    images = [Polynomial.monomial(J.vars, rep.images[v]) for v in J.vars]
    runs = _engine_counters(
        monkeypatch, lambda: ring_map_kernel(rep.kernel_check.vars, images, J))
    eliminating = groebner._weight_order([[-1] * 6 + [0] * 6], 12).rows
    assert [run[2:] for run in runs if run[0] is not None
            and run[0].rows == eliminating] == [(824, 606, 106)]

    A = IntMatrix([[1, 1, 1, 1, 1, 1], [2, 0, 0, 3, 0, 3], [1, 0, 1, 2, 3, 0]])
    names = tuple(f"x{i}" for i in range(6))
    runs = _engine_counters(monkeypatch, lambda: toric_ideal(A, names))
    assert [(None if order is None else order.rows, *rest) for order, *rest in runs] == [
        (_graded_last((1,) * 6, 0).rows, False, 25, 9, 8),
        (None, False, 10, 2, 4)]

    text = ("vars: x0,x1,x2,x3,x4\n- 2*x0*x1 - 2*x1^2 + 3*x2*x3\n"
            "1*x0*x4 + 1*x3^2 - 2*x4^2\n"
            "2*x0*x3*x4 + 3*x1*x3^2 - 3*x2*x3^2 - 1*x2*x3*x4\n")
    runs = _engine_counters(
        monkeypatch, lambda: family_ideal(parse_ideal_text(text), (0, 1, 0, 3, 2)))
    assert [(None if order is None else order.rows, *rest) for order, *rest in runs] == [
        (None, False, 9, 1, 4),
        (WeightOrder([(0, 1, 0, 3, 2)]).rows, True, 13, 1, 6)]


# ---------------------------------------------------------------------------
# packed exponents


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packed_divisibility_and_lcm_match_tuples(data):
    # drawn at every field width, with 0 and the largest entry a field holds
    # drawn often
    n = data.draw(st.integers(1, 6))
    packing = groebner._Packing(n, data.draw(st.sampled_from(groebner._WIDTHS)), DegRevLex(n))
    entry = st.one_of(st.just(0), st.just(packing.cap), st.integers(0, packing.cap))
    a, b = (tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a
    guard = packing.guard  # the divisibility test the engine inlines
    assert (((pa | guard) - pb) & guard == guard) == reference_groebner.exp_divides(b, a)
    assert packing.unpack(packing.lcm(pa, pb)) == reference_groebner.exp_lcm(a, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_words_sort_and_add_as_their_exponents(data):
    # the word (key << S) | fields of `_Packing`: words compare as the
    # order's keys do, and add and subtract as exponents, for every kind of
    # order, negative keys included, at every field width
    n = data.draw(st.integers(1, 5))
    order, _ = data.draw(_engine_orders(n))
    packing = groebner._Packing(n, data.draw(st.sampled_from(groebner._WIDTHS)), order)
    entry = st.one_of(st.just(0), st.just(packing.cap // 2), st.integers(0, packing.cap // 2))
    a, b = (tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
    word, key = packing.pack, order.key
    assert (word(a) > word(b)) - (word(a) < word(b)) == (key(a) > key(b)) - (key(a) < key(b))
    assert packing.key(word(a)) == sum(map(operator.mul, order.weights(packing.cap), a))
    ab = tuple(map(operator.add, a, b))
    assert word(a) + word(b) == word(ab)
    assert word(ab) - word(b) == word(a)
    assert packing.unpack(word(a)) == a


def test_words_of_a_weight_order_that_is_not_a_well_order_go_negative():
    # -x is the first form, so x's key is negative, and its word still sorts
    # below 1's and adds as its exponent
    order = WeightOrder([(1, 0)])
    packing = groebner._Packing(2, 8, order)
    x, y = packing.pack((1, 0)), packing.pack((0, 1))
    assert packing.key(x) < 0 < packing.key(y)
    assert x < packing.pack((0, 0)) < y
    assert x + y == packing.pack((1, 1)) and packing.pack((2, 1)) - x == packing.pack((1, 1))


@st.composite
def _engine_orders(draw, n: int):
    """(order, reference): an order of every kind the engine builds over n
    variables, and the same order from `reference_orders`.  The kinds are the
    order classes, with weights that may be zero or negative, `_weight_order`,
    `_graded_last` for each variable, and `_lifted` of an order of these
    kinds over n - 1 variables."""
    weights = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["degrevlex", "lex", "weight", "block", "weight-rows",
                                 "graded-last", "lifted"]))
    if kind == "degrevlex":
        return DegRevLex(n), ref.DegRevLex(n)
    if kind == "lex":
        priority = draw(st.permutations(range(n)))
        return Lex(priority), ref.Lex(priority)
    if kind == "weight":
        rows = draw(st.lists(weights, min_size=1, max_size=2))
        return WeightOrder(rows), ref.WeightOrder(rows)
    if kind == "block":
        first = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
        second = [i for i in range(n) if i not in first]
        return BlockOrder(first, second), ref.BlockOrder(first, second)
    if kind == "weight-rows":
        rows = draw(st.lists(weights, max_size=2))
        return groebner._weight_order(rows, n), ref.WeightRows(rows, n)
    if kind == "graded-last":
        w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        i = draw(st.integers(0, n - 1))
        return _graded_last(w, i), ref.GradedRevLexLast(w, i)
    if n == 1:
        return groebner._lifted(DegRevLex(0)), ref.Lifted(ref.DegRevLex(0))
    order, old = draw(_engine_orders(n - 1))
    return groebner._lifted(order), ref.Lifted(old)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_key_sorts_as_the_tuple_key(data):
    # at every field width: the sign of packing.key(a) - packing.key(b) is
    # that of comparing the reference's tuple keys.  Checked on every pair
    # of exponents whose entries are 0, 1, cap - 1 or cap, the largest entry
    # a field holds, where the tuples tie in their first entries and then
    # differ by the least while later entries differ by the most: sorted by
    # the tuple key, their int keys rise exactly where the tuples do.  Then
    # on one drawn pair.
    n = data.draw(st.integers(1, 5))
    order, old = data.draw(_engine_orders(n))
    packing = groebner._Packing(n, data.draw(st.sampled_from(groebner._WIDTHS)), order)
    cap = packing.cap
    grid = sorted(itertools.product([0, 1, cap - 1, cap], repeat=n), key=old.key)
    keys = [packing.key(packing.pack(e)) for e in grid]
    for a, b, ka, kb in zip(grid, grid[1:], keys, keys[1:]):
        assert ka < kb if old.key(a) < old.key(b) else ka == kb
    entry = st.integers(0, cap)
    a, b = (tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
    ka, kb = packing.key(packing.pack(a)), packing.key(packing.pack(b))
    ta, tb = old.key(a), old.key(b)
    assert (ka > kb) - (ka < kb) == (ta > tb) - (ta < tb)


@pytest.mark.parametrize("kind", ORDER_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_engine_matches_reference_past_the_first_field_width(kind, data):
    # x_i -> x_i^s_i turns a small ideal into one whose exponents pass the
    # narrowest field's largest entry, 127, as do those of its S-pairs
    I, _ = data.draw(_ideals(homogeneous=False))
    n = len(I.vars)
    scale = data.draw(st.lists(st.sampled_from([1, 100, 2**20]), min_size=n, max_size=n))
    gens = [Polynomial(I.vars, {tuple(map(operator.mul, scale, e)): c
                                for e, c in g.terms.items()}) for g in I.gens]
    I = Ideal(gens, I.vars)
    order = _order(data.draw, kind, n, False)
    new = buchberger(I, order)
    old = reference_groebner.buchberger(I, order)
    assert new.elements == old.elements
    assert new.leads == old.leads


def _widths_used(monkeypatch) -> list:
    """The field widths of every packing made from now on, in turn."""
    widths, packing = [], groebner._Packing

    def spy(n, width, order):
        widths.append(width)
        return packing(n, width, order)

    monkeypatch.setattr(groebner, "_Packing", spy)
    return widths


def test_overflowing_field_reruns_wider(monkeypatch):
    # y - x^31 and y^5 - 1 under lex with y first: the input fits 8-bit
    # fields, and reducing y^5 gives x^155, which does not.  The input is not
    # homogeneous, so lex takes the homogenized route: I's degrevlex basis
    # fits 8 bits, the run on I^h overflows them and reruns at 16, and the
    # final interreduction starts at 16, as x^155 needs
    vars = ("x", "y")
    I = Ideal([Polynomial(vars, {(0, 1): 1, (31, 0): -1}),
               Polynomial(vars, {(0, 5): 1, (0, 0): -1})], vars)
    widths = _widths_used(monkeypatch)
    G = buchberger(I, Lex([1, 0]))
    assert widths == [8, 8, 16, 16]
    assert G.leads == ((0, 1), (155, 0))
    assert G.elements == reference_groebner.buchberger(I, Lex([1, 0])).elements


def test_only_inhomogeneous_input_under_a_non_graded_order_is_homogenized(monkeypatch):
    calls = []
    route = groebner._via_homogenization

    def spy(I, order):
        calls.append(I.vars)
        return route(I, order)

    monkeypatch.setattr(groebner, "_via_homogenization", spy)
    vars = ("x", "y")
    I = Ideal([Polynomial(vars, {(0, 1): 1, (2, 0): -1})], vars)  # y - x^2
    buchberger(I, DegRevLex(2))
    assert calls == []
    assert (buchberger(I, Lex([1, 0])).elements
            == reference_groebner.buchberger(I, Lex([1, 0])).elements)
    assert calls == [vars]
    # homogeneous for its attached grading: the pair loop runs directly
    buchberger(Ideal(I.gens, vars, grading=Grading([1, 2])), Lex([1, 0]))
    assert calls == [vars]
    # the graph of homogeneous images is graded by their degrees, and the
    # kernel comes back without a grading
    x, y = (Polynomial.variable(vars, v) for v in vars)
    K = ring_map_kernel(("s", "t", "u"), [x * x, x * y, y * y], Ideal([], vars))
    assert calls == [vars] and K.grading is None
    assert K.gens == (Polynomial(("s", "t", "u"), {(0, 2, 0): 1, (1, 0, 1): -1}),)
    ring_map_kernel(("s",), [x + Polynomial.monomial(vars, (0,) * len(vars))], Ideal([], vars))
    assert calls == [vars, vars + ("s",)]


def _lex_basis(k: int) -> groebner.GroebnerBasis:
    """The basis y - x^k under lex with y first."""
    vars = ("x", "y")
    return buchberger(Ideal([Polynomial(vars, {(0, 1): 1, (k, 0): -1})], vars), Lex([1, 0]))


def test_products_past_max_exponent_raise_degree_overflow():
    # y^2 reduces to x^(2k) by y - x^k: 2k = MAX_EXPONENT is kept, one past
    # it raises, as exp_add does
    vars = ("x", "y")
    y2 = Polynomial(vars, {(0, 2): 1})
    half = MAX_EXPONENT // 2
    assert normal_form(y2, _lex_basis(half)) == Polynomial(vars, {(MAX_EXPONENT, 0): 1})
    G = buchberger(Ideal([*_lex_basis(half).elements, y2], vars), Lex([1, 0]))
    assert G.leads == ((0, 1), (MAX_EXPONENT, 0))
    with pytest.raises(DegreeOverflow):
        exp_add((half + 1, 0), (half, 0))
    with pytest.raises(DegreeOverflow):
        normal_form(y2, _lex_basis(half + 1))
    with pytest.raises(DegreeOverflow):
        buchberger(Ideal([*_lex_basis(half + 1).elements, y2], vars), Lex([1, 0]))
