"""Acceptance suite: every headline identity of the worked examples, exact,
plus the property batteries.  Each test prints one PASS line on success.

A1  Gr(2,4) cluster-chart degeneration: initial ideal and binomial primality.
A2  Gr(2,4) plabic-graph degeneration: same initial ideal; lifted-semigroup
    toric ideal equals the monomial ring-map kernel.
A3  Elliptic cubic: family, special fiber, orthant embedding, dimensions.
A4  Hyperbola projection: limit (x*y), cone part (x), closure (0).
A5  Twisted cubic projection: limit, empty cone part, cuspidal closure,
    scheme-level agreement.
A6  Moment image of the cuspidal cubic: 2000 seeded samples fill [0, 3].
A7  Gr(2,5): five-trinomial family between the Pluecker ideal and the prime
    binomial special fiber; all ten value vectors are polytope vertices.
A8  Re-embedded elliptic curve: the projection limit and the projected
    cuspidal cubic have different graded dimensions by degree 4.
P1  Property batteries: reduced-basis uniqueness under shuffles, flatness of
    families, vanishing on torus points, initial-form multiplicativity,
    sampling determinism.
"""

from __future__ import annotations

import random
from fractions import Fraction

from toricdeg import fixtures as fx
from toricdeg.degeneration import (
    embed_value_semigroup,
    family_ideal,
    fiber,
    hilbert_witness,
    projection_limit,
    valuation_pipeline,
)
from toricdeg.groebner import (
    Ideal,
    buchberger,
    canonical,
    graded_dimension,
    same_ideal,
)
from toricdeg.intlat import IntMatrix
from toricdeg.momentmap import image_vs_polytope, sample_moment_image
from toricdeg.polycore import (
    MAX,
    MIN,
    Grading,
    Polynomial,
    format_polynomial,
    initial_form,
    parse_polynomial,
)
from toricdeg.toric import Semigroup, delta_polytope, is_vertex, torus_point


def _ok(tag: str, detail: str = ""):
    print(f"[PASS] {tag}" + (f": {detail}" if detail else ""))


def _canon(vars, *texts):
    return canonical(Ideal([parse_polynomial(t, vars) for t in texts], vars))


def test_A1_gr24_gvector_degeneration():
    J = fx.gr24_ideal()
    rep = valuation_pipeline(J, fx.gr24_gvector_matrix(), MIN)
    want = _canon(J.vars, "p13*p24 - p14*p23")
    assert same_ideal(rep.init, want), "initial ideal mismatch"
    assert rep.binomial_prime, "initial ideal is not the matrix toric ideal"
    _ok("A1", "init = (p13*p24 - p14*p23), binomial prime, exact")


def test_A2_gr24_plabic_degeneration():
    J = fx.gr24_ideal()
    M = fx.gr24_plabic_matrix()
    rep = valuation_pipeline(J, M, MIN)
    want = _canon(J.vars, "p13*p24 - p14*p23")
    assert same_ideal(rep.init, want)
    report = fx.run_gr24_plabic()
    assert report.passed, [c.name for c in report.checks if not c.passed]
    _ok("A2", "plabic initial ideal agrees; toric = ring-map kernel, exact")


def test_A3_elliptic_curve():
    J = fx.elliptic_ideal()
    F = family_ideal(J, (1, 0, 3))
    want_family = parse_polynomial("y^2*z - x^3 + t^4*x*z^2", J.vars + ("t",))
    assert list(F.gens) == [want_family], "family generator differs"
    assert same_ideal(fiber(F, 0), _canon(J.vars, "y^2*z - x^3"))
    emb = embed_value_semigroup(J, fx.elliptic_matrix(), MIN, degree_bound=5)
    imgs = {lab: format_polynomial(Polynomial.monomial(J.vars, e))
            for lab, e in emb.images.items()}
    assert imgs == {"y": "y^3", "x": "y^2*z", "z": "z^3"}
    from toricdeg.toric import embed_semigroup
    _, images = embed_semigroup(Semigroup(fx.elliptic_matrix().columns()))
    assert images == ((2, 1), (3, 0), (0, 3))
    assert len(emb.dims_checked) == 6
    assert all(a == b for _, a, b in emb.dims_checked)
    _ok("A3", "family, fiber, images {y^3, y^2*z, z^3}, dims equal to degree 5")


def test_A4_hyperbola_projection():
    pr = projection_limit(fx.hyperbola_ideal(), ("x", "z"))
    vars = ("x", "y", "z")
    assert same_ideal(pr.limit, _canon(vars, "x*y"))
    assert same_ideal(pr.cone_part, _canon(vars, "x"))
    assert pr.closure.is_zero()
    _ok("A4", "limit (x*y), cone part (x), closure (0), exact")


def test_A5_twisted_cubic_projection():
    pr = projection_limit(fx.twisted_cubic_ideal(), ("u3", "u2", "u0"))
    vars = ("u3", "u2", "u1", "u0")
    want = _canon(vars, "u3*u1", "u1^2", "u2*u1", "u2^3 - u3^2*u0")
    assert same_ideal(pr.limit, want)
    assert pr.cone_part.contains_one()
    assert same_ideal(pr.closure, _canon(("u3", "u2", "u0"), "u2^3 - u3^2*u0"))
    assert pr.scheme_check
    _ok("A5", "limit, cone part (1), closure (u2^3 - u3^2*u0), scheme check")


def test_A6_moment_image():
    samples = sample_moment_image(IntMatrix([[1, 0, 3]]), 2000, seed=42)
    D = delta_polytope(Semigroup([(1, 0), (1, 1), (1, 3)]))
    res = image_vs_polytope(samples, D, 1e-9)
    assert res["inside_fraction"] == 1.0, res
    assert res["coverage_gap"] < 0.2, res
    _ok("A6", f"2000 samples inside [0,3] (eps 1e-9), "
              f"gap {res['coverage_gap']:.4f} < 0.2")


def test_A7_gr25_family():
    J = fx.gr25_ideal()
    rep = valuation_pipeline(J, fx.gr25_matrix(), MAX)
    assert rep.binomial_prime, "special fiber is not the matrix toric ideal"
    F = family_ideal(J, rep.w, MAX)
    assert len(F.gens) == 5 and all(len(g) == 3 for g in F.gens)
    assert same_ideal(fiber(F, 1), canonical(J))
    assert same_ideal(fiber(F, 0), rep.toric)
    pts = [tuple(Fraction(x) for x in a) for a in rep.semigroup.value_parts()]
    assert all(is_vertex(p, pts) for p in pts)
    _ok("A7", "five trinomials; fibers match; all 10 values are vertices")


def test_A8_nonreduced_projection_witness():
    I = fx.elliptic_p9_ideal()
    pr = projection_limit(I, fx.ELLIPTIC_P9_KEPT)
    W = canonical(Ideal(
        [g.extend(I.vars) for g in pr.closure.gens]
        + [Polynomial.variable(I.vars, d) for d in pr.dropped], I.vars,
        grading=Grading.standard(10)))
    wit = hilbert_witness(W, pr.limit, [0, 1, 2, 3, 4])
    assert any(a != b for m, a, b in wit if m <= 4), wit
    _ok("A8", f"graded dimensions differ: {wit}")


# ---------------------------------------------------------------------------
# P1 property batteries


def test_P1_reduced_basis_uniqueness_under_shuffles():
    rng = random.Random(1234)
    cases = [fx.gr24_ideal(), fx.gr25_ideal(), fx.twisted_cubic_ideal(),
             fx.hyperbola_ideal(), fx.elliptic_ideal()]
    for I in cases:
        G0 = buchberger(I)
        want = [format_polynomial(g, G0.order) for g in G0.elements]
        gens = list(I.gens)
        for _ in range(20):
            rng.shuffle(gens)
            G = buchberger(Ideal(gens, I.vars))
            assert [format_polynomial(g, G.order) for g in G.elements] == want
    _ok("P1.uniqueness", "20 shuffles per fixture ideal")


def test_P1_flatness_of_every_family():
    cases = [
        (fx.elliptic_ideal(), (1, 0, 3), MIN),
        (fx.gr24_ideal(),
         valuation_pipeline(fx.gr24_ideal(), fx.gr24_gvector_matrix(), MIN).w,
         MIN),
        (fx.gr24_ideal(),
         valuation_pipeline(fx.gr24_ideal(), fx.gr24_plabic_matrix(), MIN).w,
         MIN),
        (fx.gr25_ideal(),
         valuation_pipeline(fx.gr25_ideal(), fx.gr25_matrix(), MAX).w, MAX),
        (fx.twisted_cubic_ideal(), (0, 0, -1, 0), MIN),
        (fx.hyperbola_ideal(), (0, -1, 0), MIN),
    ]
    for J, w, conv in cases:
        F = family_ideal(J, w, conv)
        f0, f1 = fiber(F, 0), fiber(F, 1)
        for m in range(7):
            assert graded_dimension(f0, m) == graded_dimension(f1, m), (w, m)
    _ok("P1.flatness", "equal Hilbert functions at t=0 and t=1, degrees <= 6")


def test_P1_toric_vanishing_on_torus_points():
    rng = random.Random(77)
    matrices = [fx.twisted_cubic_matrix(), fx.elliptic_matrix(),
                fx.gr24_gvector_matrix(), fx.gr25_matrix()]
    from toricdeg.toric import toric_ideal
    for A in matrices:
        names = tuple(f"x{i}" for i in range(A.cols))
        T = toric_ideal(A, names)
        for _ in range(50):
            t = [Fraction(rng.choice([x for x in range(-9, 10) if x]),
                          rng.randint(1, 9)) for _ in range(A.rows)]
            pt = torus_point(A, t)
            for g in T.gens:
                assert g.evaluate(pt) == 0
    _ok("P1.torus_points", "50 exact points per matrix annihilate the ideal")


def test_P1_initial_form_multiplicative():
    rng = random.Random(4321)
    vars = ("x", "y", "z")
    done = 0
    while done < 200:
        f = fx_random_poly(rng, vars)
        g = fx_random_poly(rng, vars)
        if f.is_zero() or g.is_zero():
            continue
        w = tuple(rng.randint(-6, 6) for _ in vars)
        assert initial_form(f * g, w) == initial_form(f, w) * initial_form(g, w)
        done += 1
    _ok("P1.initial_form", "multiplicative on 200 random pairs")


def fx_random_poly(rng, vars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 4) for _ in vars)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(vars, terms)


def test_P1_sampling_determinism():
    A = IntMatrix([[1, 0, 3]])
    runs = [sample_moment_image(A, 128, seed=2024) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    _ok("P1.sampling", "identical seed gives identical samples")


def test_fixture_registry_all_green():
    for name in fx.FIXTURE_NAMES:
        report = fx.run_fixture(name)
        bad = [c.name for c in report.checks if not c.passed]
        assert report.passed, f"{name}: {bad}"
    _ok("fixtures", f"all {len(fx.FIXTURE_NAMES)} fixtures green")


def test_embedding_fixtures_run_the_pipeline_once(monkeypatch):
    # their pipeline checks read the report embed_value_semigroup verified
    from toricdeg import degeneration
    calls = []
    pipeline = degeneration.valuation_pipeline

    def spy(*args):
        calls.append(args)
        return pipeline(*args)

    monkeypatch.setattr(degeneration, "valuation_pipeline", spy)
    monkeypatch.setattr(fx, "valuation_pipeline", spy)
    for run in (fx.run_elliptic, fx.run_gr24_gvector):
        calls.clear()
        assert run().passed
        assert len(calls) == 1


def test_gr25_fixture_solves_each_vertex_lp_once(monkeypatch):
    calls = []
    vertex = fx.is_vertex

    def spy(p, pts):
        calls.append(p)
        return vertex(p, pts)

    monkeypatch.setattr(fx, "is_vertex", spy)
    rep = fx.run_gr25()
    check = next(c for c in rep.checks if c.name == "delta.all_values_are_vertices")
    assert check.passed and check.computed == "10/10"
    assert len(calls) == 10
