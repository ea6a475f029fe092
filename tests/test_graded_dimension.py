"""Graded dimensions from the Hilbert-series numerator against the
enumeration route they replaced.

`reference_hilbert.graded_dimension` counts the monomials of the degree
outside the leading-term ideal one by one, up to degree 8.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_hilbert
from toricdeg import fixtures as fx
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
