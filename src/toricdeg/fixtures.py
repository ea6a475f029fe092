"""Registry of the bundled worked examples and their expected values.

Each expectation carries a source tag:

* ``worked-example`` -- the value appears in the classical worked example the
  fixture encodes (Grassmannian cluster degenerations, the elliptic cubic,
  the twisted cubic, the hyperbola);
* ``derived`` -- the value was recomputed here with an independent oracle
  (kernel lattices, enumeration, cross-route ideal computations) and frozen;
* ``definition`` -- forced directly by a definition.

``run_fixture`` executes every check of one fixture and reports pass/fail
per check; the full registry is the hermetic acceptance suite behind
``toricdeg fixtures run all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .degeneration import (
    ProjectionReport,
    embed_value_semigroup,
    family_ideal,
    fiber,
    hilbert_witness,
    projection_limit,
    valuation_pipeline,
)
from .groebner import (
    Ideal,
    canonical,
    graded_dimension,
    ideal_contains,
    reduced_basis,
    ring_map_kernel,
    same_ideal,
)
from .intlat import IntMatrix
from .momentmap import image_vs_polytope, sample_moment_image
from .polycore import (
    MAX,
    MIN,
    Grading,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .toric import (
    Semigroup,
    delta_polytope,
    embed_semigroup,
    is_vertex,
    toric_ideal,
    torus_point,
)

WORKED = "worked-example"
DERIVED = "derived"
DEFINITION = "definition"


@dataclass
class Check:
    name: str
    passed: bool
    source: str
    expected: str
    computed: str


@dataclass
class FixtureReport:
    fixture: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, source, expected, computed=""):
        self.checks.append(Check(name, bool(passed), source, str(expected), str(computed)))


def _canonical_ideal(texts, vars) -> Ideal:
    """The canonical ideal generated by the polynomial texts over `vars`."""
    return canonical(Ideal([parse_polynomial(s, vars) for s in texts], vars))


def _closure_and_dropped(pr: ProjectionReport) -> Ideal:
    """The closure of a projection, over all variables, plus the dropped
    variables: the closure's ideal inside the kept coordinate plane."""
    vars = pr.limit.vars
    return canonical(Ideal([g.extend(vars) for g in pr.closure.gens]
                           + [Polynomial.variable(vars, d) for d in pr.dropped], vars))


def _ideal_str(I: Ideal) -> str:
    if I.is_zero():
        return "(0)"
    return "(" + ", ".join(format_polynomial(g) for g in reduced_basis(I).elements) + ")"


# ---------------------------------------------------------------------------
# fixture data


PLUECKER24_VARS = ("p12", "p13", "p14", "p23", "p24", "p34")


def gr24_ideal() -> Ideal:
    f = parse_polynomial("p12*p34 - p13*p24 + p14*p23", PLUECKER24_VARS)
    return Ideal([f], PLUECKER24_VARS, grading=Grading.standard(6))


def gr24_gvector_matrix() -> IntMatrix:
    # cluster-chart values translated into the nonnegative orthant, one
    # column per Pluecker coordinate, degree row on top
    return IntMatrix([
        [1, 1, 1, 1, 1, 1],
        [2, 1, 1, 1, 1, 1],
        [1, 2, 1, 1, 0, 1],
        [1, 1, 2, 1, 2, 1],
        [1, 1, 1, 2, 2, 1],
        [1, 1, 1, 1, 1, 2],
    ])


# plabic-graph values over the basis (e13, e14, e23, e24); the p23 value is
# not listed in the source table and is derived from the kernel requirement
# ker(f) = (x13x24 - x14x23), which forces value(p23) = e14 + e23
GR24_PLABIC_VALUES = {
    "p12": (0, 0, 0, 0),
    "p13": (0, 0, 1, 0),
    "p14": (0, 0, 1, 1),
    "p23": (0, 1, 1, 0),   # derived
    "p24": (0, 1, 1, 1),
    "p34": (1, 1, 2, 1),
}


def gr24_plabic_matrix() -> IntMatrix:
    rows = [[1] * 6]
    for i in range(4):
        rows.append([GR24_PLABIC_VALUES[v][i] for v in PLUECKER24_VARS])
    return IntMatrix(rows)


PLUECKER25_VARS = ("p12", "p13", "p14", "p15", "p23",
                   "p24", "p25", "p34", "p35", "p45")

# value table over coordinates (13, 14, 12, 15, 23, 34, 45)
GR25_VALUES = {
    "p13": (1, 0, 0, 0, 0, 0, 0),
    "p14": (0, 1, 0, 0, 0, 0, 0),
    "p12": (0, 0, 1, 0, 0, 0, 0),
    "p15": (0, 0, 0, 1, 0, 0, 0),
    "p23": (0, 0, 0, 0, 1, 0, 0),
    "p34": (0, 0, 0, 0, 0, 1, 0),
    "p45": (0, 0, 0, 0, 0, 0, 1),
    "p24": (-1, 0, 1, 0, 0, 1, 0),
    "p25": (0, -1, 1, 0, 0, 0, 1),
    "p35": (1, -1, 0, 0, 0, 0, 1),
}


def gr25_ideal() -> Ideal:
    rels = [
        "p12*p34 - p13*p24 + p14*p23",
        "p12*p35 - p13*p25 + p15*p23",
        "p12*p45 - p14*p25 + p15*p24",
        "p13*p45 - p14*p35 + p15*p34",
        "p23*p45 - p24*p35 + p25*p34",
    ]
    gens = [parse_polynomial(s, PLUECKER25_VARS) for s in rels]
    return Ideal(gens, PLUECKER25_VARS, grading=Grading.standard(10))


def gr25_matrix() -> IntMatrix:
    """Degree row plus the value rows in reversed table order.

    The printed one-parameter family pins down which terms survive at the
    special fiber; among the four readings (row order x min/max) only the
    reversed rows under the max convention reproduce that split, so the
    fixture uses it (a derived choice, not a printed one).
    """
    rows = [[1] * 10]
    for i in reversed(range(7)):
        rows.append([GR25_VALUES[v][i] for v in PLUECKER25_VARS])
    return IntMatrix(rows)


GR25_CONVENTION = MAX


def elliptic_ideal() -> Ideal:
    vars = ("x", "y", "z")
    f = parse_polynomial("y^2*z - x^3 + x*z^2", vars)
    return Ideal([f], vars, grading=Grading.standard(3))


def elliptic_matrix() -> IntMatrix:
    # columns = (degree, order of vanishing) for x, y, z
    return IntMatrix([[1, 1, 1], [1, 0, 3]])


ELLIPTIC_W = (1, 0, 3)
ELLIPTIC_DEGREE_BOUND = 5


def twisted_cubic_ideal() -> Ideal:
    vars = ("u3", "u2", "u1", "u0")
    gens = [parse_polynomial(s, vars) for s in
            ("u2^2 - u3*u1", "u1^2 - u2*u0", "u2*u1 - u3*u0")]
    return Ideal(gens, vars, grading=Grading.standard(4))


def twisted_cubic_matrix() -> IntMatrix:
    return IntMatrix([[1, 1, 1, 1], [3, 2, 1, 0]])


def hyperbola_ideal() -> Ideal:
    vars = ("x", "y", "z")
    return Ideal([parse_polynomial("x*y - z^2", vars)], vars,
                 grading=Grading.standard(3))


def veronese3_coordinates():
    """The ten cubic monomials in (x, y, z) and their coordinate names."""
    mons = []
    for ex in range(3, -1, -1):
        for ey in range(3 - ex, -1, -1):
            mons.append((ex, ey, 3 - ex - ey))

    def name(m):
        parts = []
        for v, k in zip("xyz", m):
            if k == 1:
                parts.append(v)
            elif k > 1:
                parts.append(f"{v}{k}")
        return "u_" + "".join(parts)

    return mons, tuple(name(m) for m in mons)


def elliptic_p9_ideal() -> Ideal:
    """The elliptic cubic re-embedded by all degree-3 monomials.

    Generated by the kernel of the monomial parametrization (the toric ideal
    of the exponent matrix) together with the single linear relation
    u_y2z - u_x3 + u_xz2.
    """
    mons, uv = veronese3_coordinates()
    T = toric_ideal(IntMatrix.from_columns(mons), uv)
    lin = parse_polynomial("u_y2z - u_x3 + u_xz2", uv)
    return canonical(Ideal(list(T.gens) + [lin], uv, grading=Grading.standard(10)))


ELLIPTIC_P9_KEPT = ("u_y2z", "u_y3", "u_z3")


# ---------------------------------------------------------------------------
# runners


def run_elliptic() -> FixtureReport:
    rep = FixtureReport("elliptic")
    J = elliptic_ideal()
    vars = J.vars

    F = family_ideal(J, ELLIPTIC_W)
    expected_family = parse_polynomial("y^2*z - x^3 + t^4*x*z^2", vars + ("t",))
    rep.add("family.generator", list(F.gens) == [expected_family], WORKED,
            "y^2*z - x^3 + t^4*x*z^2",
            ", ".join(format_polynomial(g) for g in F.gens))

    f0 = fiber(F, 0)
    want0 = _canonical_ideal(["y^2*z - x^3"], vars)
    rep.add("fiber.t0", same_ideal(f0, want0), WORKED, "(y^2*z - x^3)", _ideal_str(f0))
    f1 = fiber(F, 1)
    rep.add("fiber.t1", same_ideal(f1, J), DEFINITION, "base ideal", _ideal_str(f1))

    emb = embed_value_semigroup(J, elliptic_matrix(), MIN,
                                degree_bound=ELLIPTIC_DEGREE_BOUND)
    pipe = emb.pipeline
    rep.add("pipeline.binomial_prime", pipe.binomial_prime, WORKED,
            "True", pipe.binomial_prime)
    rep.add("pipeline.init", same_ideal(pipe.init, want0), WORKED,
            "(y^2*z - x^3)", _ideal_str(pipe.init))

    got_images = {lab: format_polynomial(Polynomial.monomial(vars, e))
                  for lab, e in emb.images.items()}
    want_images = {"y": "y^3", "x": "y^2*z", "z": "z^3"}
    rep.add("embed.images", got_images == want_images, WORKED,
            str(want_images), str(got_images))
    rep.add("embed.N", emb.N == 3, WORKED, "3", emb.N)
    _, images = embed_semigroup(Semigroup(elliptic_matrix().columns()))
    rep.add("embed.image_semigroup",
            set(images) == {(3, 0), (2, 1), (0, 3)}, WORKED,
            "{(3,0), (2,1), (0,3)}", set(images))
    dims_equal = all(a == b for _, a, b in emb.dims_checked)
    rep.add("embed.dims", dims_equal and len(emb.dims_checked) >= ELLIPTIC_DEGREE_BOUND + 1,
            WORKED, f"equal graded dimensions through degree {ELLIPTIC_DEGREE_BOUND}",
            str(emb.dims_checked))

    samples = sample_moment_image(IntMatrix([list(ELLIPTIC_W)]), 2000, seed=42)
    D = delta_polytope(Semigroup([(1, 0), (1, 1), (1, 3)]))
    rep.add("moment.delta", set(D.vertices) == {(Fraction(0),), (Fraction(3),)},
            WORKED, "[0, 3]", set(D.vertices))
    res = image_vs_polytope(samples, D, 1e-9)
    vals = [s.value[0] for s in samples]
    rep.add("moment.inside_fraction", res["inside_fraction"] == 1.0, WORKED,
            "1.0", res["inside_fraction"])
    rep.add("moment.min", min(vals) <= 0.05, WORKED, "<= 0.05", min(vals))
    rep.add("moment.max", max(vals) >= 2.95, WORKED, ">= 2.95", max(vals))
    rep.add("moment.coverage_gap", res["coverage_gap"] < 0.2, DERIVED,
            "< 0.2", res["coverage_gap"])
    return rep


def run_gr24_gvector() -> FixtureReport:
    rep = FixtureReport("gr24_gvector")
    J = gr24_ideal()
    M = gr24_gvector_matrix()
    want = _canonical_ideal(["p13*p24 - p14*p23"], J.vars)

    emb = embed_value_semigroup(J, M, MIN, degree_bound=3)
    pipe = emb.pipeline
    rep.add("pipeline.init", same_ideal(pipe.init, want), WORKED,
            "(p13*p24 - p14*p23)", _ideal_str(pipe.init))
    rep.add("pipeline.binomial_prime", pipe.binomial_prime, WORKED,
            "True", pipe.binomial_prime)

    want_images = {
        "p12": "p12^2*p13*p14*p23*p34",
        "p13": "p12*p13^2*p14*p23*p34",
        "p14": "p12*p13*p14^2*p23*p34",
        "p23": "p12*p13*p14*p23^2*p34",
        "p24": "p12*p14^2*p23^2*p34",
        "p34": "p12*p13*p14*p23*p34^2",
    }
    got_images = {lab: format_polynomial(Polynomial.monomial(J.vars, e))
                  for lab, e in emb.images.items()}
    rep.add("embed.images", got_images == want_images, WORKED,
            str(want_images), str(got_images))
    want_ker = "(x13*x24 - x14*x23)-type binomial on the embedded coordinates"
    ker_ok = (len(emb.kernel_check.gens) == 1
              and len(emb.kernel_check.gens[0]) == 2)
    rep.add("embed.kernel", ker_ok, WORKED, want_ker, _ideal_str(emb.kernel_check))

    d1 = graded_dimension(pipe.init, 1)
    rep.add("standard_monomials.deg1", d1 == 6, WORKED, "6", d1)
    d2 = graded_dimension(pipe.init, 2)
    rep.add("standard_monomials.deg2", d2 == 20, DERIVED,
            "20 (21 monomials minus the one divisible lead)", d2)
    return rep


def run_gr24_plabic() -> FixtureReport:
    rep = FixtureReport("gr24_plabic")
    J = gr24_ideal()
    M = gr24_plabic_matrix()
    want = _canonical_ideal(["p13*p24 - p14*p23"], J.vars)

    pipe = valuation_pipeline(J, M, MIN)
    rep.add("pipeline.init", same_ideal(pipe.init, want), WORKED,
            "(p13*p24 - p14*p23)", _ideal_str(pipe.init))
    rep.add("pipeline.binomial_prime", pipe.binomial_prime, WORKED,
            "True", pipe.binomial_prime)

    xv = ("x12", "x13", "x14", "x23", "x24", "x34")
    basis = ("p13", "p14", "p23", "p24")
    images = []
    for x, p in zip(xv, PLUECKER24_VARS):
        e = [0] * 6
        e[0] = 1  # times p12^deg, all coordinates have degree one
        for name, k in zip(basis, GR24_PLABIC_VALUES[p]):
            e[PLUECKER24_VARS.index(name)] += k
        images.append(Polynomial.monomial(PLUECKER24_VARS, tuple(e)))
    T = toric_ideal(M, xv)
    K_poly = ring_map_kernel(xv, images, Ideal([], PLUECKER24_VARS))
    K_quot = ring_map_kernel(xv, images, J)
    rep.add("kernel.toric_equals_map_kernel", same_ideal(T, K_poly), WORKED,
            "(x13*x24 - x14*x23)", _ideal_str(K_poly))
    rep.add("kernel.quotient_agrees", same_ideal(T, K_quot), WORKED,
            "same kernel through the quotient", _ideal_str(K_quot))
    return rep


def run_gr25() -> FixtureReport:
    rep = FixtureReport("gr25_family")
    J = gr25_ideal()
    M = gr25_matrix()

    pipe = valuation_pipeline(J, M, GR25_CONVENTION)
    rep.add("pipeline.binomial_prime", pipe.binomial_prime, DERIVED,
            "True (initial ideal equals the toric ideal of the value matrix)",
            pipe.binomial_prime)
    want_init = _canonical_ideal([
        "p13*p24 - p12*p34", "p13*p25 - p12*p35", "p14*p25 - p12*p45",
        "p14*p35 - p13*p45", "p24*p35 - p25*p34"], J.vars)
    rep.add("pipeline.init", same_ideal(pipe.init, want_init), DERIVED,
            "five quadratic binomials (recomputed family at t=0)",
            _ideal_str(pipe.init))

    F = family_ideal(J, pipe.w, GR25_CONVENTION)
    trinomial = all(len(g) == 3 for g in F.gens)
    rep.add("family.five_trinomials", len(F.gens) == 5 and trinomial, DERIVED,
            "5 generators, 3 terms each", f"{len(F.gens)} gens")
    tless = [sum(1 for e in g.terms if e[-1] == 0) for g in F.gens]
    rep.add("family.t_on_noninitial_terms", all(k == 2 for k in tless), DERIVED,
            "exactly the two surviving terms are t-free per generator", tless)
    f1 = fiber(F, 1)
    rep.add("family.fiber_t1", same_ideal(f1, J), WORKED,
            "the five three-term quadratic relations", _ideal_str(f1))
    f0 = fiber(F, 0)
    rep.add("family.fiber_t0", same_ideal(f0, pipe.toric), WORKED,
            "toric ideal of the homogenized value matrix", _ideal_str(f0))

    S = pipe.semigroup
    pts = [tuple(Fraction(x) for x in a) for a in S.value_parts()]
    vertex_flags = [is_vertex(p, pts) for p in pts]
    rep.add("delta.all_values_are_vertices", all(vertex_flags), WORKED,
            "all 10 value vectors are vertices", f"{sum(vertex_flags)}/{len(pts)}")
    return rep


def run_hyperbola() -> FixtureReport:
    rep = FixtureReport("hyperbola")
    I = hyperbola_ideal()
    pr = projection_limit(I, ("x", "z"))
    vars = I.vars
    want_limit = _canonical_ideal(["x*y"], vars)
    want_cone = _canonical_ideal(["x"], vars)
    rep.add("limit", same_ideal(pr.limit, want_limit), WORKED, "(x*y)",
            _ideal_str(pr.limit))
    rep.add("cone_part", same_ideal(pr.cone_part, want_cone), WORKED, "(x)",
            _ideal_str(pr.cone_part))
    rep.add("closure", pr.closure.is_zero(), WORKED, "(0)", _ideal_str(pr.closure))
    rep.add("scheme_check", pr.scheme_check, WORKED, "True", pr.scheme_check)

    # set-wise decomposition: V(limit) = V(cone_part) union V(dropped + closure)
    dropped_plane = _closure_and_dropped(pr)
    prod_in = ideal_contains(pr.limit, Ideal(
        [a * b for a in pr.cone_part.gens for b in dropped_plane.gens], vars))
    rep.add("set_decomposition",
            prod_in and ideal_contains(pr.cone_part, pr.limit)
            and ideal_contains(dropped_plane, pr.limit),
            WORKED, "V(x*y) = V(x) u V(y)", prod_in)
    return rep


def run_twisted_cubic() -> FixtureReport:
    rep = FixtureReport("twisted_cubic")
    I = twisted_cubic_ideal()
    vars = I.vars
    A = twisted_cubic_matrix()

    T = toric_ideal(A, vars)
    rep.add("toric.three_quadrics", same_ideal(T, I), WORKED,
            "(u2^2 - u3*u1, u1^2 - u2*u0, u2*u1 - u3*u0)", _ideal_str(T))

    pr = projection_limit(I, ("u3", "u2", "u0"))
    want_limit = _canonical_ideal(["u3*u1", "u1^2", "u2*u1", "u2^3 - u3^2*u0"], vars)
    rep.add("limit", same_ideal(pr.limit, want_limit), WORKED,
            "(u3*u1, u1^2, u2*u1, u2^3 - u3^2*u0)", _ideal_str(pr.limit))
    rep.add("cone_part_is_unit", pr.cone_part.contains_one(), WORKED, "(1)",
            _ideal_str(pr.cone_part))
    want_closure = _canonical_ideal(["u2^3 - u3^2*u0"], pr.kept)
    rep.add("closure", same_ideal(pr.closure, want_closure), WORKED,
            "(u2^3 - u3^2*u0)", _ideal_str(pr.closure))
    rep.add("scheme_check", pr.scheme_check, WORKED, "True", pr.scheme_check)

    pt = torus_point(A, (Fraction(2), Fraction(3)))
    vanish = all(g.evaluate(pt) == 0 for g in I.gens)
    rep.add("torus_point_on_curve", vanish, WORKED,
            "[s^3 : s^2 u : s u^2 : u^3] satisfies the quadrics", str(pt))

    wit = hilbert_witness(_closure_and_dropped(pr), pr.limit, [0, 1, 2, 3])
    # cuspidal plane cubic grows like 3m, the flat limit like 3m + 1
    expected = [(0, 1, 1), (1, 3, 4), (2, 6, 7), (3, 9, 10)]
    rep.add("hilbert.witness", wit == expected, DERIVED, str(expected), str(wit))
    return rep


def run_elliptic_projection() -> FixtureReport:
    rep = FixtureReport("elliptic_projection")
    pr = projection_limit(elliptic_p9_ideal(), ELLIPTIC_P9_KEPT)

    want_closure = _canonical_ideal(["u_y2z^3 - u_y3^2*u_z3"], pr.kept)
    rep.add("closure.cuspidal_cubic", same_ideal(pr.closure, want_closure),
            WORKED, "(u_y2z^3 - u_y3^2*u_z3)", _ideal_str(pr.closure))
    rep.add("scheme_check", pr.scheme_check, WORKED, "True", pr.scheme_check)

    wit = hilbert_witness(_closure_and_dropped(pr), pr.limit, [0, 1, 2, 3, 4])
    differs = any(a != b for _, a, b in wit)
    rep.add("hilbert.differs_by_degree_4", differs, WORKED,
            "strict inequality at some degree <= 4", str(wit))
    # the flat limit keeps the Hilbert function of the re-embedded curve: 9m
    limit_ok = all(b == (9 * m if m else 1) for m, _, b in wit)
    rep.add("hilbert.limit_is_flat", limit_ok, DERIVED,
            "limit dimensions 1, 9, 18, 27, 36", str([b for _, _, b in wit]))
    return rep


RUNNERS = {
    "elliptic": run_elliptic,
    "gr24_gvector": run_gr24_gvector,
    "gr24_plabic": run_gr24_plabic,
    "gr25_family": run_gr25,
    "hyperbola": run_hyperbola,
    "twisted_cubic": run_twisted_cubic,
    "elliptic_projection": run_elliptic_projection,
}

FIXTURE_NAMES = tuple(RUNNERS)


def run_fixture(name: str) -> FixtureReport:
    if name not in RUNNERS:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    return RUNNERS[name]()
