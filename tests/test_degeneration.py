"""Families, fibers, the verification pipeline, embeddings, projections."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_embedding import (
    _cone_order,
    caterpillar_matrix,
    plucker_ideal,
    rank,
    reference_kernel,
)
from reference_elimination import restricted_limit
from reference_groebner import exp_divides
from reference_saturation import saturate as reference_saturate
from reference_weight import reference_initial_ideal

from toricdeg import fixtures as fx
from toricdeg.degeneration import (
    NoIndependentSubset,
    VerificationFailed,
    embed_value_semigroup,
    family_ideal,
    fiber,
    hilbert_witness,
    projection_limit,
    valuation_pipeline,
)
from toricdeg.groebner import (
    Ideal,
    NotHomogeneous,
    canonical,
    eliminate,
    graded_dimension,
    initial_ideal,
    reduced_basis,
    same_ideal,
)
from toricdeg.intlat import IntMatrix
from toricdeg.polycore import (
    MAX,
    MAX_EXPONENT,
    MIN,
    BlockOrder,
    DegreeOverflow,
    DegRevLex,
    Grading,
    Lex,
    Polynomial,
    UnknownVariable,
    WeightOrder,
    format_polynomial,
    parse_polynomial,
    to_min,
)
from toricdeg.toric import toric_ideal


def _ideal(vars, *texts, grading=None):
    return Ideal([parse_polynomial(t, vars) for t in texts], vars, grading=grading)


# ---------------------------------------------------------------------------
# families and fibers


def test_family_elliptic_exact_generator():
    J = fx.elliptic_ideal()
    F = family_ideal(J, (1, 0, 3))
    want = parse_polynomial("y^2*z - x^3 + t^4*x*z^2", J.vars + ("t",))
    assert list(F.gens) == [want]


def test_family_exponent_past_the_bound_raises():
    # on the elliptic cubic with w = (1, 0, W), the family generator's
    # t-exponents are 0, W - 3 and 2W - 2: at most MAX_EXPONENT, the bound
    # every exponent keeps, for W = 2^61 + 1, and past it for one more
    J = fx.elliptic_ideal()
    W = 2**61 + 1
    (g,) = family_ideal(J, (1, 0, W)).gens
    assert max(e[-1] for e in g.terms) == 2 * W - 2 == MAX_EXPONENT
    with pytest.raises(DegreeOverflow, match="exponent of t exceeds"):
        family_ideal(J, (1, 0, W + 1))
    with pytest.raises(DegreeOverflow):
        family_ideal(J, (1, 0, 10**20))


def test_family_zero_weight_has_no_parameter():
    J = fx.elliptic_ideal()
    F = family_ideal(J, (0, 0, 0))
    for g in F.gens:
        assert all(e[-1] == 0 for e in g.terms)
    assert same_ideal(fiber(F, 7), canonical(J))


def test_family_and_fibers_run_three_buchbergers(monkeypatch):
    # J's degrevlex basis, the weight-order basis with J's leads as its
    # Hilbert target, and the t = 0 fiber; a fiber at t != 0 needs none
    from toricdeg import degeneration, groebner
    calls = []
    bb = groebner.buchberger

    def spy(I, order=None, hilbert=None):
        calls.append((order, hilbert))
        return bb(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    J = fx.elliptic_ideal()
    F = family_ideal(J, (1, 0, 3))
    assert F.base_ideal is J
    assert len(calls) == 2 and calls[0] == (None, None)
    assert isinstance(calls[1][0], WeightOrder)
    assert calls[1][1] == reduced_basis(J).leads
    f1 = fiber(F, 1)
    fiber(F, Fraction(-2, 3))
    assert len(calls) == 2
    fiber(F, 0)
    assert len(calls) == 3 and calls[2] == (None, None)
    assert same_ideal(f1, J)


def _substituted_fiber(F, t0):
    """The fiber by substituting t0 for the parameter, the last variable, in
    the family generators and canonicalizing: the route `fiber` took at every
    t0 before it used the torus action, kept here as its oracle."""
    base, t0 = F.vars[:-1], Fraction(t0)
    gens = []
    for g in F.gens:
        terms = {}
        for e, c in g.terms.items():
            terms[e[:-1]] = terms.get(e[:-1], 0) + c * t0 ** e[-1]
        gens.append(Polynomial(base, terms))
    return canonical(Ideal(gens, base, grading=F.base_ideal.grading))


@st.composite
def _homogeneous_ideals(draw):
    """Standard-homogeneous ideals in 2-4 variables: 1-3 generators of degree
    1-3 with up to 4 terms and small integer coefficients."""
    n = draw(st.integers(2, 4))
    vars = tuple(f"x{i}" for i in range(n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            cuts = sorted(draw(st.lists(st.integers(0, degree),
                                        min_size=n - 1, max_size=n - 1)))
            e = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
            terms[e] = terms.get(e, 0) + draw(st.integers(-3, 3))
        gens.append(Polynomial(vars, terms))
    return Ideal(gens, vars, grading=draw(st.sampled_from([None, Grading.standard(n)])))


@settings(max_examples=60, deadline=None)
@given(J=_homogeneous_ideals(), data=st.data())
def test_fiber_matches_substituted_fiber(J, data):
    n = len(J.vars)
    w = data.draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
    convention = data.draw(st.sampled_from([MIN, MAX]))
    t0 = data.draw(st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 7)))
    F = family_ideal(J, w, convention)
    got, want = fiber(F, t0), _substituted_fiber(F, t0)
    assert got.gens == want.gens
    assert got.grading == want.grading
    assert reduced_basis(got).elements == reduced_basis(want).elements
    assert reduced_basis(got).leads == reduced_basis(want).leads
    assert fiber(F, 0).gens == _substituted_fiber(F, 0).gens


def test_family_refuses_fractional_weights():
    J = fx.elliptic_ideal()
    with pytest.raises(ValueError, match="not an integer"):
        family_ideal(J, [1.5, 0, 3])
    assert family_ideal(J, [1.0, 0, 3.0]).gens == family_ideal(J, (1, 0, 3)).gens


def test_family_generators_t_primitive():
    J = fx.gr25_ideal()
    w = valuation_pipeline(J, fx.gr25_matrix(), MAX).w
    F = family_ideal(J, w, MAX)
    for g in F.gens:
        assert min(e[-1] for e in g.terms) == 0


def test_family_requires_homogeneous():
    I = _ideal(("x", "y"), "x^2 + y")
    with pytest.raises(NotHomogeneous):
        family_ideal(I, (1, 1))


def test_fiber_endpoints_on_random_ideals():
    rng = random.Random(31)
    vars = ("x", "y", "z")
    for _ in range(15):
        gens = []
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(0, d)
                b = rng.randint(0, d - a)
                e = (a, b, d - a - b)
                terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        J = Ideal(gens, vars, grading=Grading.standard(3))
        w = tuple(rng.randint(-3, 3) for _ in vars)
        F = family_ideal(J, w)
        assert same_ideal(fiber(F, 1), canonical(J))
        assert same_ideal(fiber(F, 0), initial_ideal(J, list(w)))


def test_flatness_proxy_all_families():
    cases = [
        (fx.elliptic_ideal(), (1, 0, 3), MIN),
        (fx.gr24_ideal(), valuation_pipeline(fx.gr24_ideal(),
                                             fx.gr24_gvector_matrix(), MIN).w, MIN),
        (fx.gr25_ideal(), valuation_pipeline(fx.gr25_ideal(),
                                             fx.gr25_matrix(), MAX).w, MAX),
    ]
    for J, w, conv in cases:
        F = family_ideal(J, w, conv)
        f0, f1 = fiber(F, 0), fiber(F, 1)
        for m in range(7):
            assert graded_dimension(f0, m) == graded_dimension(f1, m)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_gr24_gvector():
    rep = valuation_pipeline(fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN)
    want = canonical(_ideal(fx.PLUECKER24_VARS, "p13*p24 - p14*p23"))
    assert rep.binomial_prime
    assert same_ideal(rep.init, want)
    assert not rep.flipped
    assert rep.semigroup is not None and len(rep.semigroup.gens) == 6


def test_pipeline_gr24_plabic_same_init():
    rep = valuation_pipeline(fx.gr24_ideal(), fx.gr24_plabic_matrix(), MIN)
    want = canonical(_ideal(fx.PLUECKER24_VARS, "p13*p24 - p14*p23"))
    assert rep.binomial_prime and same_ideal(rep.init, want)


def test_pipeline_max_convention_flips():
    rep = valuation_pipeline(fx.gr25_ideal(), fx.gr25_matrix(), MAX)
    assert rep.flipped
    assert rep.weight_min == tuple(-x for x in rep.w)
    assert rep.binomial_prime


def test_pipeline_zero_matrix_trivial():
    vars = ("x", "y")
    J = _ideal(vars, "x^2 - y^2", grading=Grading.standard(2))
    rep = valuation_pipeline(J, IntMatrix([[0, 0]]), MIN)
    assert same_ideal(rep.init, canonical(J))
    assert rep.semigroup is None
    assert not rep.binomial_prime


# ---------------------------------------------------------------------------
# embedding


def test_embed_elliptic_full_report():
    J = fx.elliptic_ideal()
    rep = embed_value_semigroup(J, fx.elliptic_matrix(), MIN, degree_bound=5)
    assert rep.N == 3
    assert rep.independent_vars == (1, 2)  # y and z host the embedding
    imgs = {lab: format_polynomial(Polynomial.monomial(J.vars, e))
            for lab, e in rep.images.items()}
    assert imgs == {"y": "y^3", "x": "y^2*z", "z": "z^3"}
    assert rep.finiteness_certified
    assert all(a == b for _, a, b in rep.dims_checked)
    assert len(rep.dims_checked) == 6
    want = canonical(_ideal(("v_x", "v_y", "v_z"), "v_y^2*v_z - v_x^3"))
    assert same_ideal(rep.kernel_check, want)


def test_embed_kernel_names_avoid_the_ring_names():
    # the elliptic cubic with y renamed v_x: the fresh name for x would be
    # v_x, so it takes one more prefix, and the others keep clear of it
    J = _ideal(("x", "v_x", "z"), "v_x^2*z - x^3 + x*z^2", grading=Grading.standard(3))
    rep = embed_value_semigroup(J, fx.elliptic_matrix(), MIN, degree_bound=5)
    assert rep.kernel_check.vars == ("vv_x", "v_v_x", "v_z")
    assert [format_polynomial(g) for g in rep.kernel_check.gens] == ["vv_x^3 - v_v_x^2*v_z"]


def test_embed_kernel_runs_no_buchberger_of_its_own(monkeypatch):
    # the reported kernel is the pipeline's toric ideal renamed, so embed
    # runs no Buchberger over the kernel's ring, and the kernel equals the
    # toric ideal of the embedded columns
    from toricdeg import degeneration, groebner
    rings = []
    bb = groebner.buchberger

    def spy(I, order=None, hilbert=None):
        rings.append(I.vars)
        return bb(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    M = fx.elliptic_matrix()
    rep = embed_value_semigroup(fx.elliptic_ideal(), M, MIN, degree_bound=5)
    source = rep.kernel_check.vars
    assert source not in rings
    K = reference_kernel(M, rep.N, source)
    assert rep.kernel_check.gens == K.gens and rep.kernel_check.grading is None


def test_embed_builds_one_toric_ideal(monkeypatch):
    # the pipeline's toric ideal is the only one: embed renames it
    from toricdeg import degeneration
    calls = []
    toric_ideal = degeneration.toric_ideal

    def spy(A, names):
        calls.append(names)
        return toric_ideal(A, names)

    monkeypatch.setattr(degeneration, "toric_ideal", spy)
    for J, M, convention in [(fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN),
                             (plucker_ideal(5), caterpillar_matrix(5), MAX)]:
        calls.clear()
        embed_value_semigroup(J, M, convention, degree_bound=2)
        assert calls == [J.vars]


def test_embed_identity_map():
    vars = ("x0", "x1", "x2")
    J = Ideal([], vars, grading=Grading.standard(3))
    M = IntMatrix([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    rep = embed_value_semigroup(J, M, MIN, degree_bound=3)
    assert rep.N == 1
    assert rep.kernel_check.is_zero()
    exps = sorted(rep.images.values())
    assert exps == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_embed_gr24_falls_back_to_standard_certificate():
    rep = embed_value_semigroup(fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN,
                                degree_bound=3)
    # no host subset is finite here; the standard-monomial route certifies
    assert not rep.finiteness_certified
    assert rep.independent_vars == (0, 1, 2, 3, 5)
    assert len(rep.kernel_check.gens) == 1


def test_embed_plabic_matrix_uniform_degree():
    """The orthant embedding also applies to the plabic values: images of
    uniform degree N = 5, the same principal kernel, matching dimensions."""
    rep = embed_value_semigroup(fx.gr24_ideal(), fx.gr24_plabic_matrix(), MIN,
                                degree_bound=3)
    assert rep.N == 5
    degs = {sum(e) for e in rep.images.values()}
    assert degs == {5}
    assert len(rep.kernel_check.gens) == 1 and len(rep.kernel_check.gens[0]) == 2
    assert [d for _, d, _ in rep.dims_checked] == [1, 6, 20, 50]


def test_embed_duplicate_value_columns():
    # two variables sharing one value: both map to the same monomial and the
    # kernel picks up their difference
    vars = ("a", "b", "c")
    M = IntMatrix([[1, 1, 1], [0, 0, 2]])
    J = _ideal(vars, "a - b", grading=Grading.standard(3))
    rep = embed_value_semigroup(J, M, MIN, degree_bound=3)
    assert rep.images["a"] == rep.images["b"]
    ker = rep.kernel_check
    diff = parse_polynomial("v_a - v_b", ker.vars)
    from toricdeg.groebner import normal_form, reduced_basis
    assert normal_form(diff, reduced_basis(ker)).is_zero()
    assert all(x == y for _, x, y in rep.dims_checked)


def test_embed_no_independent_subset():
    vars = ("x", "y", "z")
    M = IntMatrix([[1, 1, 1], [1, 2, 3], [1, 2, 3]])
    from toricdeg.toric import toric_ideal
    J = Ideal(list(toric_ideal(M, vars).gens), vars, grading=Grading.standard(3))
    with pytest.raises(NoIndependentSubset):
        embed_value_semigroup(J, M, MIN, degree_bound=2)


def test_grassmannian_caterpillar_values_are_binomial_prime_under_max():
    for n in range(4, 8):
        J, M = plucker_ideal(n), caterpillar_matrix(n)
        assert M.rows == rank(M) == 2 * n - 3
        assert valuation_pipeline(J, M, MAX).binomial_prime
        assert not valuation_pipeline(J, M, MIN).binomial_prime


# the first admissible host subsets; no value polytope here is a simplex
_CATERPILLAR_HOSTS = {
    6: (0, 1, 2, 3, 4, 5, 9, 12, 14),
    7: (0, 1, 2, 3, 4, 5, 6, 11, 15, 18, 20),
    8: (0, 1, 2, 3, 4, 5, 6, 7, 13, 18, 22, 25, 27),
}


@pytest.mark.parametrize("n", sorted(_CATERPILLAR_HOSTS))
def test_embed_gr2n_caterpillar_hosts(n):
    M = caterpillar_matrix(n)
    rep = embed_value_semigroup(plucker_ideal(n), M, MAX, degree_bound=2)
    assert rep.independent_vars == _CATERPILLAR_HOSTS[n]
    assert not rep.finiteness_certified
    K = reference_kernel(M, rep.N, rep.kernel_check.vars)
    assert rep.kernel_check.gens == K.gens


def _spy_pivot_columns(monkeypatch):
    """The column lists embed computes an echelon form of, one per call."""
    from toricdeg import degeneration
    scanned = []
    pivot_columns = degeneration.pivot_columns

    def spy(A):
        scanned.append(A.cols)
        return pivot_columns(A)

    monkeypatch.setattr(degeneration, "pivot_columns", spy)
    return scanned


def test_embed_gr28_checks_each_column_at_most_twice(monkeypatch):
    # two greedy scans over the 28 columns, each one echelon form, not a
    # walk over 13-subsets
    scanned = _spy_pivot_columns(monkeypatch)
    rep = embed_value_semigroup(plucker_ideal(8), caterpillar_matrix(8), MAX,
                                degree_bound=0)
    assert rep.independent_vars == _CATERPILLAR_HOSTS[8]
    assert len(scanned) <= 2 and sum(scanned) <= 2 * 28


def test_embed_caterpillar_with_dependent_rows_has_no_independent_subset(
        monkeypatch):
    # the leaf rows sum to twice the degree row: the embedded values use more
    # coordinates than the matrix has rank, so the scan over all columns
    # keeps too few, after at most two echelon forms
    scanned = _spy_pivot_columns(monkeypatch)
    for n in range(4, 8):
        scanned.clear()
        M = caterpillar_matrix(n, independent=False)
        assert rank(M) < M.rows
        with pytest.raises(NoIndependentSubset):
            embed_value_semigroup(plucker_ideal(n), M, MAX, degree_bound=1)
        assert scanned[-1] == M.cols and len(scanned) <= 2


def test_embed_decides_finiteness_without_a_groebner_basis(monkeypatch):
    # no basis of an ideal holding host variables, which a Groebner
    # finiteness test would need
    from toricdeg import degeneration, groebner
    inputs = []
    bb = groebner.buchberger

    def spy(I, order=None, hilbert=None):
        inputs.append((I, order))
        return bb(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    J = plucker_ideal(5)
    embed_value_semigroup(J, caterpillar_matrix(5), MAX, degree_bound=2)
    for I, _ in inputs:
        assert not any(len(g.terms) == 1 and sum(next(iter(g.terms))) == 1
                       for g in I.gens)


def test_embed_runs_one_pipeline_and_no_lex_basis(monkeypatch):
    # the report carries the pipeline embed verified, and the images are
    # standard by proof (step 9), so no cone basis is computed
    from toricdeg import degeneration, groebner
    pipelines, orders = [], []
    bb, vp = groebner.buchberger, degeneration.valuation_pipeline

    def bb_spy(I, order=None, hilbert=None):
        orders.append(order)
        return bb(I, order, hilbert)

    def vp_spy(*args):
        pipelines.append(vp(*args))
        return pipelines[-1]

    monkeypatch.setattr(groebner, "buchberger", bb_spy)
    monkeypatch.setattr(degeneration, "buchberger", bb_spy)
    monkeypatch.setattr(degeneration, "valuation_pipeline", vp_spy)
    for J, M, convention in [(fx.elliptic_ideal(), fx.elliptic_matrix(), MIN),
                             (plucker_ideal(5), caterpillar_matrix(5), MAX)]:
        pipelines.clear()
        rep = embed_value_semigroup(J, M, convention, degree_bound=2)
        assert len(pipelines) == 1 and rep.pipeline is pipelines[0]
        assert rep.pipeline.binomial_prime
    assert orders and not any(isinstance(order, Lex) for order in orders)


def test_embed_rejects_non_binomial_prime():
    vars = ("x", "y")
    J = _ideal(vars, "x^2 - x*y + y^2", grading=Grading.standard(2))
    with pytest.raises(VerificationFailed) as exc:
        embed_value_semigroup(J, IntMatrix([[1, 1], [0, 0]]), MIN)
    assert exc.value.clause == "binomial_prime"


def test_embed_images_multiply_into_standard_monomials():
    # products of images reduce to the image of the sum: dimension equalities
    # make the embedded algebra multiplicatively closed on standard monomials
    # of the hosts' cone, the initial ideal of the pipeline's in_M(J) under
    # the lex order with the non-hosts first
    J = fx.elliptic_ideal()
    rep = embed_value_semigroup(J, fx.elliptic_matrix(), MIN, degree_bound=4)
    from toricdeg.groebner import buchberger, normal_form
    imgs = {lab: Polynomial.monomial(J.vars, e) for lab, e in rep.images.items()}
    # y^2*z * z^3 is the image of (1,1)+(1,3) = (2,4); so is (y^3)(y z^4)...
    prod = imgs["x"] * imgs["z"]
    G = buchberger(canonical(J))
    r = normal_form(prod, G)
    cone = initial_ideal(rep.pipeline.init,
                         _cone_order(rep.independent_vars, len(J.vars)))
    leads = [next(iter(g.terms)) for g in cone.gens]
    assert leads
    for e in list(r.terms) + list(rep.images.values()):
        assert not any(exp_divides(l, e) for l in leads)


# ---------------------------------------------------------------------------
# projections


def test_projection_hyperbola():
    pr = projection_limit(fx.hyperbola_ideal(), ("x", "z"))
    vars = ("x", "y", "z")
    assert same_ideal(pr.limit, canonical(_ideal(vars, "x*y")))
    assert same_ideal(pr.cone_part, canonical(_ideal(vars, "x")))
    assert pr.closure.is_zero()
    assert pr.scheme_check
    assert pr.w == (0, -1, 0)


def test_projection_twisted_cubic():
    pr = projection_limit(fx.twisted_cubic_ideal(), ("u3", "u2", "u0"))
    vars = ("u3", "u2", "u1", "u0")
    want = canonical(_ideal(vars, "u3*u1", "u1^2", "u2*u1", "u2^3 - u3^2*u0"))
    assert same_ideal(pr.limit, want)
    assert pr.cone_part.contains_one()
    assert same_ideal(pr.closure,
                      canonical(_ideal(("u3", "u2", "u0"), "u2^3 - u3^2*u0")))
    assert pr.scheme_check


def test_projection_trivial_when_contained():
    vars = ("x", "y", "z")
    I = _ideal(vars, "x^2 - z^2")
    pr = projection_limit(I, ("x", "z"))
    assert same_ideal(pr.limit, canonical(I))
    assert pr.scheme_check


def test_projection_closure_contained_in_restricted_limit():
    rng = random.Random(17)
    vars = ("x", "y", "z", "w")
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(1, 2)):
            d = rng.randint(1, 2)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = [0, 0, 0, 0]
                for _ in range(d):
                    e[rng.randrange(4)] += 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-2, 2)
            p = Polynomial(vars, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        I = Ideal(gens, vars, grading=Grading.standard(4))
        pr = projection_limit(I, ("x", "y"))
        from toricdeg.groebner import ideal_contains, reduced_basis
        # each limit element with the dropped variables set to 0
        kept = [vars.index(v) for v in pr.kept]
        restricted = [Polynomial(pr.kept, {tuple(e[i] for i in kept): c
                                           for e, c in g.terms.items()
                                           if sum(e) == sum(e[i] for i in kept)})
                      for g in reduced_basis(pr.limit).elements]
        R = canonical(Ideal(restricted, pr.kept))
        assert ideal_contains(R, pr.closure)


def test_projection_validates_kept(monkeypatch):
    # every check comes before the first Buchberger run
    from toricdeg import groebner
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("Groebner work before the names were checked")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    I = fx.hyperbola_ideal()
    with pytest.raises(ValueError):
        projection_limit(I, ())
    with pytest.raises(ValueError):
        projection_limit(I, ("x", "y", "z"))
    with pytest.raises(ValueError, match="named twice"):
        projection_limit(I, ("x", "x"))
    with pytest.raises(UnknownVariable):
        projection_limit(I, ("x", "q"))
    assert calls == []


def test_projection_makes_no_block_order_call(monkeypatch):
    # the limit and the closure are read off one basis under the order led
    # by w: no second basis under an elimination order, and no degrevlex
    # basis outside the cone part's saturations, except the closure's when
    # the kept variables are out of ring order
    from toricdeg import degeneration, groebner
    I = fx.elliptic_p9_ideal()
    calls = []  # (order, inside a saturation) of each Buchberger call
    saturating = []
    bb, sat = groebner.buchberger, degeneration.saturate_by_variables

    def spy(I, order=None, hilbert=None):
        calls.append((order, bool(saturating)))
        return bb(I, order, hilbert)

    def sat_spy(*args):
        saturating.append(True)
        try:
            return sat(*args)
        finally:
            saturating.pop()

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    monkeypatch.setattr(degeneration, "saturate_by_variables", sat_spy)
    in_ring_order = tuple(v for v in I.vars if v in fx.ELLIPTIC_P9_KEPT)
    assert in_ring_order != fx.ELLIPTIC_P9_KEPT
    for kept, closure_calls in [(in_ring_order, 0), (fx.ELLIPTIC_P9_KEPT, 1)]:
        calls.clear()
        pr = projection_limit(I, kept)
        assert pr.scheme_check
        assert not any(isinstance(order, BlockOrder) for order, _ in calls)
        led_by_w = tuple((i, -x) for i, x in enumerate(pr.w) if x)
        assert sum(order is not None and order.rows[0] == led_by_w
                   for order, _ in calls) == 1
        assert sum(order is None or isinstance(order, DegRevLex)
                   for order, saturating in calls if not saturating) == closure_calls


def test_projection_with_one_dropped_variable_makes_one_pair_loop(monkeypatch):
    # the weight basis is the only run: the limit is graded by the dropped
    # variable's degree, so each element of its installed basis has one
    # x-degree, and the cone part is those elements divided by their
    # x-content, installed with no pair loop
    from toricdeg import degeneration, groebner
    calls = []
    bb = groebner.buchberger

    def spy(J, order=None, hilbert=None):
        calls.append(order)
        return bb(J, order, hilbert)

    names = tuple(f"x{i}" for i in range(5))
    T = toric_ideal(IntMatrix([[1] * 5, [0, 1, 3, 4, 6]]), names)
    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    for I in (T, fx.twisted_cubic_ideal(), fx.elliptic_ideal()):
        for dropped in I.vars:
            calls.clear()
            pr = projection_limit(I, [v for v in I.vars if v != dropped])
            assert len(calls) == 1
            want = reference_saturate(pr.limit, Polynomial.variable(I.vars, dropped))
            assert pr.cone_part.gens == canonical(want).gens


def test_projection_computes_no_containment(monkeypatch):
    # the scheme check is proved from the weight basis: no normal form and
    # no containment test runs inside projection_limit
    from toricdeg import groebner
    calls = []

    def spy(name):
        real = getattr(groebner, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("normal_form", "ideal_contains"):
        monkeypatch.setattr(groebner, name, spy(name))
    I = fx.elliptic_p9_ideal()
    in_ring_order = tuple(v for v in I.vars if v in fx.ELLIPTIC_P9_KEPT)
    for J, kept in [(fx.hyperbola_ideal(), ("z", "x")),
                    (fx.twisted_cubic_ideal(), ("u3", "u2", "u0")),
                    (I, in_ring_order), (I, fx.ELLIPTIC_P9_KEPT)]:
        assert projection_limit(J, kept).scheme_check is True
    assert calls == []


@st.composite
def _toric_ideals(draw):
    """Toric ideals of an all-ones row over 4-6 distinct columns of a second
    row with entries 0-7, standard-graded, and a kept set of variables in any
    order."""
    n = draw(st.integers(4, 6))
    row = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n, unique=True))
    names = tuple(f"x{i}" for i in range(n))
    T = toric_ideal(IntMatrix([[1] * n, row]), names)
    kept = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n - 1, unique=True))
    return T, tuple(kept)


@settings(max_examples=40, deadline=None)
@given(case=_toric_ideals())
def test_projection_scheme_check_matches_same_ideal(case):
    # the scheme check is proved, not computed: both containments follow
    # from the one weight basis; the oracle restricts the limit's basis and
    # compares reduced bases
    T, kept = case
    pr = projection_limit(T, kept)
    assert pr.scheme_check is True
    assert same_ideal(restricted_limit(pr.limit, kept), pr.closure)
    assert same_ideal(pr.limit, initial_ideal(T, pr.w))
    assert same_ideal(pr.closure, eliminate(T, kept))


@st.composite
def _inhomogeneous_ideals(draw):
    """Ideals in 2-4 variables: 1-3 generators with up to 4 terms of
    exponents at most 2 and small integer coefficients."""
    n = draw(st.integers(2, 4))
    vars = tuple(f"x{i}" for i in range(n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            e = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
            terms[e] = terms.get(e, 0) + draw(st.integers(-3, 3))
        gens.append(Polynomial(vars, terms))
    return Ideal(gens, vars)


@settings(max_examples=60, deadline=None)
@given(I=st.one_of(_homogeneous_ideals(), _inhomogeneous_ideals()), data=st.data())
def test_projection_closure_matches_eliminate(I, data):
    kept = data.draw(st.lists(st.sampled_from(I.vars), min_size=1,
                              max_size=len(I.vars) - 1, unique=True))
    pr = projection_limit(I, kept)
    got, want = pr.closure, eliminate(I, kept)
    assert got.vars == want.vars
    assert got.gens == want.gens
    assert got.grading == want.grading
    # the proved scheme check, against restricting the limit, with `kept`
    # in ring order or not
    assert pr.scheme_check is True
    assert same_ideal(restricted_limit(pr.limit, kept), pr.closure)


# ---------------------------------------------------------------------------
# hilbert witness


def test_hilbert_witness_identical_ideals():
    I = fx.twisted_cubic_ideal()
    wit = hilbert_witness(I, I, [0, 1, 2, 3])
    assert all(a == b for _, a, b in wit)


def test_hilbert_witness_twisted_cubic_values():
    # limit grows like 3m + 1, the cuspidal plane cubic like 3m
    pr = projection_limit(fx.twisted_cubic_ideal(), ("u3", "u2", "u0"))
    vars = fx.twisted_cubic_ideal().vars
    W = canonical(Ideal([g.extend(vars) for g in pr.closure.gens]
                        + [Polynomial.variable(vars, "u1")], vars,
                        grading=Grading.standard(4)))
    wit = hilbert_witness(W, pr.limit, [0, 1, 2, 3])
    assert wit == [(0, 1, 1), (1, 3, 4), (2, 6, 7), (3, 9, 10)]


@pytest.fixture
def numerator_tops(monkeypatch):
    """The `top` degree of every Hilbert numerator computed, in call order."""
    from toricdeg import groebner
    tops = []
    numerator = groebner._hilbert_numerator

    def spy(gens, weights, top, packing):
        tops.append(top)
        return numerator(gens, weights, top, packing)

    monkeypatch.setattr(groebner, "_hilbert_numerator", spy)
    return tops


def test_hilbert_witness_one_numerator_per_ideal(numerator_tops):
    pr = projection_limit(fx.twisted_cubic_ideal(), ("u3", "u2", "u0"))
    wit = hilbert_witness(fx.twisted_cubic_ideal(), pr.limit, range(9))
    assert numerator_tops == [8, 8]
    assert wit == [(m, 3 * m + 1, 3 * m + 1) for m in range(9)]


def test_embed_dims_one_numerator_per_ideal(numerator_tops):
    rep = embed_value_semigroup(fx.elliptic_ideal(), fx.elliptic_matrix(), MIN,
                                degree_bound=5)
    assert numerator_tops == [5, 5]
    assert rep.dims_checked == tuple((m, 3 * m if m else 1, 3 * m if m else 1)
                                     for m in range(6))


def test_embed_runs_no_degrevlex_basis_of_J(monkeypatch):
    # the dims table reads J's Hilbert function off in_M(J), which the
    # pipeline has verified, so the only basis of J is the pipeline's basis
    # under M's rows refined by degrevlex
    from toricdeg import degeneration, groebner
    orders = []
    bb = groebner.buchberger

    def spy(I, order=None, hilbert=None):
        if I.gens == J.gens:
            orders.append(order)
        return bb(I, order, hilbert)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "buchberger", spy)
    for J, M, convention in [(fx.elliptic_ideal(), fx.elliptic_matrix(), MIN),
                             (fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN),
                             (plucker_ideal(5), caterpillar_matrix(5), MAX)]:
        orders.clear()
        embed_value_semigroup(J, M, convention, degree_bound=3)
        want = groebner._weight_order(to_min(M.rows_list(), convention), len(J.vars))
        assert len(orders) == 1 and orders[0].rows == want.rows


def test_pipeline_one_matrix_order_basis(monkeypatch):
    # weight_from_matrix returns in_M(J) with w, so the gr25 pipeline runs
    # its basis under M's rows refined by degrevlex once
    from toricdeg import groebner
    J, M = fx.gr25_ideal(), fx.gr25_matrix()
    want = groebner._weight_order(to_min(M.rows_list(), MAX), len(J.vars))
    bb = groebner.buchberger
    matrix_order = []

    def spy(I, order=None, **kwargs):
        if order is not None and order.rows == want.rows:
            matrix_order.append(I)
        return bb(I, order, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    rep = valuation_pipeline(J, M, MAX)
    assert rep.binomial_prime
    assert len(matrix_order) == 1 and matrix_order[0].gens == J.gens


def test_weight_initial_ideals_run_no_degrevlex_basis(monkeypatch):
    # the initial forms of the weight basis are a degrevlex Groebner basis,
    # made canonical by interreduction alone: outside toric_ideal, neither
    # initial_ideal nor the pipeline runs a degrevlex Buchberger
    from toricdeg import degeneration, groebner
    bb, toric = groebner.buchberger, degeneration.toric_ideal
    degrevlex, in_toric = [], []

    def spy(I, order=None, **kwargs):
        if not in_toric and (order is None or isinstance(order, DegRevLex)):
            degrevlex.append(I)
        return bb(I, order, **kwargs)

    def toric_spy(*args):
        in_toric.append(True)
        try:
            return toric(*args)
        finally:
            in_toric.pop()

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(degeneration, "toric_ideal", toric_spy)
    J, M = fx.gr25_ideal(), fx.gr25_matrix()
    rows = to_min(M.rows_list(), MAX)
    init = initial_ideal(J, rows)
    assert valuation_pipeline(J, M, MAX).binomial_prime
    assert initial_ideal(fx.elliptic_ideal(), (1, 0, 3)).gens
    assert degrevlex == []
    monkeypatch.setattr(groebner, "buchberger", bb)
    assert same_ideal(init, reference_initial_ideal(J, rows))


def test_pipeline_rejects_non_homogeneous_before_buchberger(monkeypatch):
    from toricdeg import groebner

    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger ran on non-homogeneous input")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    J = _ideal(("x", "y", "z"), "2*x^2*y*z - x^3 + y^2*z",
               "x^2*y^3 - x^3*z + y^2*z^2 + y^2 - y*z")
    with pytest.raises(NotHomogeneous):
        valuation_pipeline(J, fx.elliptic_matrix(), MIN)
    with pytest.raises(NotHomogeneous):
        embed_value_semigroup(J, fx.elliptic_matrix(), MIN)


def test_hilbert_witness_requires_same_ring():
    I = fx.twisted_cubic_ideal()
    J = fx.hyperbola_ideal()
    from toricdeg.polycore import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        hilbert_witness(I, J, [1])
