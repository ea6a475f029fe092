"""Polynomial core: parsing, printing, arithmetic laws, orders, initial forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_orders as ref
import reference_parse
from toricdeg import polycore
from toricdeg.groebner import Ideal, _graded_last, buchberger
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
    ParseError,
    Polynomial,
    UnknownVariable,
    WeightOrder,
    ZeroPolynomialError,
    dot,
    format_polynomial,
    initial_form,
    parse_polynomial,
    to_min,
)

PLUECKER = ("p12", "p13", "p14", "p23", "p24", "p34")


def _random_poly(rng, vars, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in vars)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Polynomial(vars, terms)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_three_term_pluecker_relation():
    p = parse_polynomial("p12*p34 - p13*p24 + p14*p23", PLUECKER)
    assert len(p) == 3
    e1 = (1, 0, 0, 0, 0, 1)
    assert p.terms[e1] == 1
    assert p.terms[(0, 1, 0, 0, 1, 0)] == -1
    assert p.terms[(0, 0, 1, 1, 0, 0)] == 1


def test_parse_zero():
    assert parse_polynomial("0", ("x",)).is_zero()


def test_parse_merges_like_terms():
    # 3/2*x0^2*x1 - x1 + 3/2*x0^2*x1 collapses to 3*x0^2*x1 - x1
    p = parse_polynomial("3/2*x0^2*x1 - x1 + 3/2*x0^2*x1", ("x0", "x1"))
    assert p.terms == {(2, 1): Fraction(3), (0, 1): Fraction(-1)}


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable) as exc:
        parse_polynomial("x + q", ("x",))
    assert exc.value.name == "q"


def test_parse_error_carries_position():
    # an illegal character anywhere is reported before an unknown name ("q")
    cases = [("x + + y", 4, "ident"),
             ("2*3", 2, "ident"),
             ("x y", 2, "'+', '-' or end of input"),
             ("x $", 1, "number, identifier or operator"),
             ("1/0*x", 2, "nonzero denominator"),
             ("x^", 2, "num"),
             ("", 0, "ident"),
             ("x(", 1, "'+', '-' or end of input"),
             ("q + $", 3, "number, identifier or operator"),
             ("x^2^3", 3, "'+', '-' or end of input")]
    for text, position, expected in cases:
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, ("x", "y"))
        assert (exc.value.position, exc.value.expected) == (position, expected), text


_PARSE_PIECES = ("x y z1 w_2 q + - * / ^ ( ) 0 2 3 12 1/2 1/0 x^2 3*".split()
                 + [" ", "\t", "98765432109876543210"])


def _parse_outcome(parse, text):
    try:
        return parse(text, ("x", "y", "z1", "w_2"))
    except ParseError as e:
        return ParseError, e.position, e.expected
    except UnknownVariable as e:
        return UnknownVariable, e.name
    except DegreeOverflow as e:
        return DegreeOverflow, str(e)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(_PARSE_PIECES + ["$", ".", ",", "_", "é", "٣"]),
                max_size=12))
def test_parse_matches_reference_reader(pieces):
    """Same polynomial, or the same error at the same place, as the
    recursive-descent reader in `reference_parse`."""
    text = "".join(pieces)
    assert _parse_outcome(parse_polynomial, text) == _parse_outcome(reference_parse.parse_polynomial, text)


def test_format_zero():
    assert format_polynomial(Polynomial(("x",))) == "0"


def test_format_under_lex():
    p = parse_polynomial("y^2*z - x^3 + x*z^2", ("x", "y", "z"))
    assert format_polynomial(p, Lex((0, 1, 2))) == "-x^3 + x*z^2 + y^2*z"


def test_format_single_variable():
    p = Polynomial.variable(("x0",), "x0")
    assert format_polynomial(p) == "x0"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_format_roundtrip(data):
    vars = ("a", "b", "c")
    n_terms = data.draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(data.draw(st.integers(0, 4)) for _ in vars)
        num = data.draw(st.integers(-20, 20))
        den = data.draw(st.integers(1, 12))
        terms[e] = terms.get(e, 0) + Fraction(num, den)
    p = Polynomial(vars, terms)
    assert parse_polynomial(format_polynomial(p), vars) == p


# ---------------------------------------------------------------------------
# arithmetic laws


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_laws(seed):
    rng = random.Random(seed)
    vars = tuple("xyzuv"[: rng.randint(1, 5)])
    f = _random_poly(rng, vars)
    g = _random_poly(rng, vars)
    h = _random_poly(rng, vars)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_additive_inverse():
    rng = random.Random(7)
    p = _random_poly(rng, ("x", "y"))
    assert (p + (-p)).is_zero()


def test_mul_difference_of_squares():
    vars = ("x", "y")
    f = parse_polynomial("x - y", vars)
    g = parse_polynomial("x + y", vars)
    assert f * g == parse_polynomial("x^2 - y^2", vars)


def test_like_terms_merge_in_place():
    # a sum keeps the left operand's terms where they were, drops those that
    # cancel and appends the new ones; zero coefficients never enter
    vars = ("x", "y", "z")
    a = parse_polynomial("x^2 + 2*y - z", vars)
    b = parse_polynomial("z + y + x*y", vars)
    assert list((a + b).terms.items()) == [
        ((2, 0, 0), 1), ((0, 1, 0), 3), ((1, 1, 0), 1)]
    assert list((a - a).terms) == []
    p = Polynomial(vars, {(1, 0, 0): 0, (0, 1, 0): 2, (0, 0, 1): Fraction(1, 2)})
    assert list(p.terms) == [(0, 1, 0), (0, 0, 1)]
    assert (p * p).terms == {(0, 2, 0): 4, (0, 1, 1): 2, (0, 0, 2): Fraction(1, 4)}


def test_restrict_sends_other_variables_to_zero():
    vars = ("x", "y", "z")
    p = parse_polynomial("x^2*z - 3*y*z + 2*x*y - z^3 + 5", vars)
    assert p.restrict(("y", "x")) == parse_polynomial("2*x*y + 5", ("y", "x"))
    assert p.restrict(("z",)) == parse_polynomial("-z^3 + 5", ("z",))
    assert parse_polynomial("x*y", vars).restrict(("x", "z")).is_zero()
    assert p.restrict(vars) == p


def test_restrict_unknown_variable():
    p = parse_polynomial("x + y", ("x", "y"))
    with pytest.raises(ValueError, match="'w'"):
        p.restrict(("x", "w"))


def test_polynomial_refuses_fractional_exponents():
    with pytest.raises(ValueError, match="not an integer"):
        Polynomial(("x", "y"), {(1.5, 0): 1})
    p = Polynomial(("x", "y"), {(2.0, 0): 1})
    assert p == parse_polynomial("x^2", ("x", "y"))
    assert all(type(x) is int for x in next(iter(p.terms)))


def test_mixed_rings_rejected():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(("x",), "x") + Polynomial.variable(("y",), "y")


# ---------------------------------------------------------------------------
# term orders


def test_lex_basic():
    order = Lex((0, 1))
    assert order.key((1, 0)) > order.key((0, 5))


def test_weight_tie_defers_to_tiebreak():
    order = WeightOrder([(1, 0, 3)])
    reversed_lex = Lex((2, 1, 0))  # the last variable is the biggest
    # y^2 z and x^3 both have weight 3: the tie-break decides
    assert dot((1, 0, 3), (0, 2, 1)) == dot((1, 0, 3), (3, 0, 0)) == 3
    assert order.key((0, 2, 1)) > order.key((3, 0, 0))
    assert reversed_lex.key((0, 2, 1)) > reversed_lex.key((3, 0, 0))
    # x z^2 (weight 7) loses to y^2 z (weight 3) though reversed lex ranks
    # it higher: the tie-break applies only to ties
    assert order.key((1, 0, 2)) < order.key((0, 2, 1))
    assert reversed_lex.key((1, 0, 2)) > reversed_lex.key((0, 2, 1))


def test_weight_min_prefers_smaller_weight():
    order = WeightOrder([(1, 0, 3)])
    # x z^2 has weight 7, y^2 z has weight 3; min convention selects y^2 z
    assert order.key((1, 0, 2)) < order.key((0, 2, 1))


def test_weight_max_prefers_larger_weight():
    order = WeightOrder(to_min([(1, 0, 3)], MAX))
    assert order.key((1, 0, 2)) > order.key((0, 2, 1))


def test_to_min_negates_only_max():
    assert to_min([(1, 0, -3)], MIN) == [[1, 0, -3]]
    assert to_min([(1, 0, -3), (2, 2, 0)], MAX) == [[-1, 0, 3], [-2, -2, 0]]
    with pytest.raises(ValueError, match="convention"):
        to_min([(1,)], "median")


def test_weight_order_refuses_fractional_weights():
    with pytest.raises(ValueError, match="not an integer"):
        WeightOrder([(1.5, 1, 2)])
    assert WeightOrder([(3.0, 2, 4)]).rows[0] == ((0, -3), (1, -2), (2, -4))


def test_canonical_order_is_built_once_per_arity(monkeypatch):
    # printing and the default Buchberger order share one DegRevLex per arity
    built = []
    init = DegRevLex.__init__

    def spy(self, nvars):
        built.append(nvars)
        init(self, nvars)

    monkeypatch.setattr(DegRevLex, "__init__", spy)
    vars = ("x", "y", "z", "u", "v", "w", "s", "t")
    p = parse_polynomial("x*y - z^2 + 3/2*t", vars)
    text = format_polynomial(p)
    buchberger(Ideal([p], vars))
    built.clear()
    orders = set()
    for _ in range(3):
        assert format_polynomial(p) == text
        orders.add(id(buchberger(Ideal([p], vars)).order))
    assert built == []
    assert orders == {id(polycore._degrevlex(8))}


def test_weight_order_well_ordered():
    # well-ordered exactly when 1 < x_i for every variable
    for rows in ([(-1, -2)], [(0, -1), (-5, 3)], [(0, 0)], [(0, -1), (0, 7)]):
        order = WeightOrder(rows)
        assert order.well_ordered
        assert all(order.key(e) > order.key((0, 0)) for e in ((1, 0), (0, 1)))
    for rows in ([(1, 1)], [(0, -1), (1, 0)], [(-1, 0), (0, 0), (2, 2)]):
        order = WeightOrder(rows)
        assert not order.well_ordered
        assert any(order.key(e) < order.key((0, 0)) for e in ((1, 0), (0, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_order_laws(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    orders = [
        DegRevLex(n),
        Lex(tuple(rng.sample(range(n), n))),
        WeightOrder(to_min([[rng.randint(-3, 3) for _ in range(n)]],
                           rng.choice([MIN, MAX]))),
    ]
    exps = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(6)]
    shift = tuple(rng.randint(0, 3) for _ in range(n))
    for order in orders:
        for a in exps:
            for b in exps:
                ka, kb = order.key(a), order.key(b)
                # antisymmetric and total: exactly one of a < b, a = b, b < a
                assert (ka < kb) + (ka == kb) + (kb < ka) == 1
                assert (ka == kb) == (a == b)
                # multiplicative: order is invariant under a common shift
                sa = tuple(x + s for x, s in zip(a, shift))
                sb = tuple(x + s for x, s in zip(b, shift))
                ksa, ksb = order.key(sa), order.key(sb)
                assert (ksa < ksb) == (ka < kb) and (ksa == ksb) == (ka == kb)
        # transitivity via sorting consistency
        key_sorted = sorted(exps, key=order.key)
        for i in range(len(key_sorted) - 1):
            assert order.key(key_sorted[i]) <= order.key(key_sorted[i + 1])


ORDER_KINDS = ("degrevlex", "lex", "weight", "block", "graded-last")


@st.composite
def _order_and_reference(draw, kind):
    """A random order of `kind` on 1-6 variables and the same order built
    from the keys toricdeg used before the block orders."""
    n = draw(st.integers(1, 6))
    if kind == "degrevlex":
        return DegRevLex(n), ref.DegRevLex(n)
    if kind == "lex":
        priority = draw(st.permutations(range(n)))
        return Lex(priority), ref.Lex(priority)
    if kind == "weight":
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=1, max_size=3))
        return WeightOrder(rows), ref.WeightOrder(rows)
    if kind == "block":
        first = draw(st.lists(st.integers(0, n - 1), unique=True))
        second = draw(st.permutations([i for i in range(n) if i not in first]))
        return BlockOrder(first, second), ref.BlockOrder(first, second)
    w = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    return _graded_last(w, i), ref.GradedRevLexLast(w, i)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


@pytest.mark.parametrize("kind", ORDER_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_orders_rank_as_the_reference_keys(kind, data):
    # entries small, where the forms tie often, or up to MAX_EXPONENT, the
    # largest entry for which the one int key is exact
    order, old = data.draw(_order_and_reference(kind))
    entry = st.one_of(st.integers(0, 5), st.just(MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
    exps = st.lists(entry, min_size=order.nvars, max_size=order.nvars).map(tuple)
    for _ in range(10):
        a, b = data.draw(exps), data.draw(exps)
        ka, kb = old.key(a), old.key(b)
        assert _sign(order.key(a), order.key(b)) == _sign(ka, kb)
    assert order.well_ordered == getattr(old, "well_ordered", True)


# ---------------------------------------------------------------------------
# initial forms


def test_initial_form_elliptic_weights():
    vars = ("x", "y", "z")
    p = parse_polynomial("y^2*z - x^3 + x*z^2", vars)
    init = initial_form(p, (1, 0, 3))
    assert init == parse_polynomial("y^2*z - x^3", vars)


def test_initial_form_zero_weight_is_identity():
    vars = ("x", "y")
    p = parse_polynomial("x^2 + y - 3", vars)
    assert initial_form(p, (0, 0)) == p


def test_initial_form_gvector_weight_on_pluecker():
    p = parse_polynomial("p12*p34 - p13*p24 + p14*p23", PLUECKER)
    # second row of the translated value matrix separates p12*p34 off
    w = (2, 1, 1, 1, 1, 1)
    init = initial_form(p, w)
    assert init == parse_polynomial("-p13*p24 + p14*p23", PLUECKER)


def test_initial_form_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        initial_form(Polynomial(("x",)), (1,))


def test_initial_form_idempotent():
    rng = random.Random(3)
    vars = ("x", "y", "z")
    for _ in range(50):
        p = _random_poly(rng, vars)
        if p.is_zero():
            continue
        w = tuple(rng.randint(-4, 4) for _ in vars)
        i1 = initial_form(p, w)
        assert initial_form(i1, w) == i1


def test_initial_form_multiplicative_200_pairs():
    rng = random.Random(11)
    vars = ("x", "y", "z")
    checked = 0
    while checked < 200:
        f = _random_poly(rng, vars)
        g = _random_poly(rng, vars)
        if f.is_zero() or g.is_zero():
            continue
        w = tuple(rng.randint(-5, 5) for _ in vars)
        lhs = initial_form(f * g, w)
        rhs = initial_form(f, w) * initial_form(g, w)
        assert lhs == rhs
        checked += 1


# ---------------------------------------------------------------------------
# grading


def test_exponent_overflow_guard():
    from toricdeg.polycore import MAX_EXPONENT, DegreeOverflow
    big = Polynomial.monomial(("x",), (MAX_EXPONENT,))
    with pytest.raises(DegreeOverflow):
        big * Polynomial.variable(("x",), "x")


def test_grading_requires_positive_weights():
    with pytest.raises(ValueError):
        Grading((1, 0))


def test_grading_homogeneity():
    g = Grading((1, 1, 1))
    p = parse_polynomial("y^2*z - x^3 + x*z^2", ("x", "y", "z"))
    assert g.is_homogeneous(p)
    assert not g.is_homogeneous(parse_polynomial("x + x^2", ("x", "y", "z")))
