"""Graded dimensions from the packed Hilbert-series numerator against the
routes they replaced.

`reference_hilbert.graded_dimension` counts the monomials of the degree
outside the leading-term ideal one by one, up to degree 8, and
`reference_hilbert.hilbert_numerator` is the numerator on tuple exponents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hilbert
from toricdeg import fixtures as fx
from toricdeg import groebner
from toricdeg.degeneration import projection_limit, valuation_pipeline
from toricdeg.groebner import Ideal, graded_dimension
from toricdeg.polycore import MIN, Grading, Polynomial

DEGREES = range(9)


def _dims(route, I):
    return [route(I, d) for d in DEGREES]


@st.composite
def _monomial_ideals(draw):
    """Monomial ideal in 1-5 variables with weights in {1, 2, 3}: up to six
    generators with exponents at most 3."""
    n = draw(st.integers(1, 5))
    vars = tuple(f"x{i}" for i in range(n))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    exps = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                         max_size=6))
    gens = [Polynomial.monomial(vars, tuple(e)) for e in exps]
    return Ideal(gens, vars, grading=Grading(weights))


@settings(max_examples=150, deadline=None)
@given(I=_monomial_ideals())
def test_random_lead_sets_match_enumeration(I):
    want = _dims(reference_hilbert.graded_dimension, I)
    assert _dims(graded_dimension, I) == want


@pytest.mark.parametrize("weights", [(1,), (1, 1, 1), (2, 3), (1, 2, 3, 1)])
@pytest.mark.parametrize("unit", [False, True])
def test_zero_and_unit_ideal_match_enumeration(weights, unit):
    vars = tuple(f"x{i}" for i in range(len(weights)))
    gens = [Polynomial.monomial(vars, (0,) * len(vars))] if unit else []
    I = Ideal(gens, vars, grading=Grading(weights))
    dims = _dims(graded_dimension, I)
    assert dims == _dims(reference_hilbert.graded_dimension, I)
    assert (sum(dims) == 0) == unit


def _fixture_ideals():
    base = [fx.gr24_ideal(), fx.gr25_ideal(), fx.elliptic_ideal(),
            fx.twisted_cubic_ideal(), fx.hyperbola_ideal(), fx.elliptic_p9_ideal()]
    out = list(base)
    gr24, gr25, elliptic, cubic, hyperbola, elliptic_p9 = base
    for I, M in [(gr24, fx.gr24_gvector_matrix()), (gr24, fx.gr24_plabic_matrix()),
                 (gr25, fx.gr25_matrix()), (elliptic, fx.elliptic_matrix()),
                 (cubic, fx.twisted_cubic_matrix())]:
        pipe = valuation_pipeline(I, M, MIN)
        out += [pipe.init, pipe.toric]
    for I, kept in [(hyperbola, ("x", "z")), (cubic, ("u3", "u2", "u0")),
                    (elliptic_p9, fx.ELLIPTIC_P9_KEPT)]:
        pr = projection_limit(I, kept)
        out += [pr.limit, pr.cone_part, pr.closure]
    return out


def test_fixture_ideals_match_enumeration():
    for I in _fixture_ideals():
        want = _dims(reference_hilbert.graded_dimension, I)
        assert _dims(graded_dimension, I) == want, I


def _numerator_matches_references(leads, weights, top, width, counted=None):
    """The packed numerator at `width` to t^top against the tuple numerator,
    and the Hilbert function at the narrowest width against the
    enumeration, to degree `counted`, `top` by default."""
    counted = top if counted is None else counted
    packing = groebner._Packing(len(weights), width, groebner._degrevlex(len(weights)))
    num = groebner._hilbert_numerator([packing.fields(e) for e in leads], weights, top, packing)
    assert num == reference_hilbert.hilbert_numerator(groebner._minimal(leads), weights, top)
    assert groebner._hilbert_function(leads, weights, counted) == [
        reference_hilbert.standard_count(leads, weights, d) for d in range(counted + 1)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packed_numerator_matches_the_references(data):
    # drawn weighted gradings and lead sets, not necessarily minimal, packed
    # at every width that holds them
    n = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    leads = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple),
                               max_size=8))
    _numerator_matches_references(leads, weights, data.draw(st.integers(0, 10)),
                                  data.draw(st.sampled_from(groebner._WIDTHS)))


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_packed_numerator_counts_past_a_fields_capacity(data):
    # x0*y_j for m >= 256 variables y_j of weight 2 or 3, at 8-bit fields:
    # x0 is shared by m generators, more than a field holds, and every other
    # variable by at most one.  x0 comes first, before a variable u that no
    # generator holds, or last.  A count that carried out of x0's field
    # would read at most 1 for x0 and u at m = 256 or 257, and the
    # generators would pass as coprime, which the numerator shows from t^5
    # on, in the terms of pairs of generators.  The enumeration counts to
    # degree 3, where a monomial holds at most one y_j, so it stays small
    m = data.draw(st.sampled_from([256, 257]))
    ys = data.draw(st.lists(st.integers(2, 3), min_size=m, max_size=m))
    first = data.draw(st.booleans())
    weights = [1, 1, *ys] if first else [1, *ys, 1]
    n = len(weights)
    at, y0 = (0, 2) if first else (n - 1, 1)
    leads = [tuple(1 if i in (at, y0 + j) else 0 for i in range(n)) for j in range(m)]
    _numerator_matches_references(leads, weights, 7, 8, counted=3)
