"""Moment map evaluation, sampling determinism, polytope comparison, SVG."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_moment
from toricdeg import momentmap
from toricdeg.intlat import IntMatrix
from toricdeg.momentmap import (
    LOG_MODULUS_RANGE,
    MomentSample,
    ZeroVector,
    emit_svg,
    image_vs_polytope,
    moment,
    sample_moment_image,
)
from toricdeg.toric import PolytopeQ, Semigroup, delta_polytope, hull_vertices

ELLIPTIC_A = IntMatrix([[1, 0, 3]])
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_moment_coordinate_point_hits_weight():
    A = IntMatrix([[1, 0, 3], [0, 2, 1]])
    for j in range(3):
        z = [0.0, 0.0, 0.0]
        z[j] = 1.0
        assert moment(A, z) == tuple(float(A.entries[i][j]) for i in range(2))


def test_moment_all_ones_average():
    val = moment(ELLIPTIC_A, [1.0, 1.0, 1.0])
    assert abs(val[0] - 4.0 / 3.0) < 1e-12


def test_moment_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        moment(ELLIPTIC_A, [0.0, 0.0, 0.0])


def test_moment_convex_combination_bounds():
    rng = random.Random(4)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(2, 5)
        A = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)]
                       for _ in range(rows)])
        z = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(cols)]
        if all(abs(x) < 1e-9 for x in z):
            continue
        mu = moment(A, z)
        for i in range(rows):
            lo = min(A.entries[i])
            hi = max(A.entries[i])
            assert lo - 1e-9 <= mu[i] <= hi + 1e-9


def test_moment_scaling_invariance():
    rng = random.Random(8)
    A = IntMatrix([[1, 0, 3], [2, 1, 0]])
    for _ in range(50):
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        if all(abs(x) < 1e-6 for x in z):
            continue
        lam = complex(rng.uniform(0.1, 2), rng.uniform(-1, 1))
        a = moment(A, z)
        b = moment(A, [lam * x for x in z])
        assert max(abs(p - q) for p, q in zip(a, b)) < 1e-12
    # the moduli are divided by the largest before squaring, so squares
    # that would underflow to 0 or overflow to inf do neither
    for scale in (1e-200, 1e200):
        assert moment(ELLIPTIC_A, [scale] * 3) == moment(ELLIPTIC_A, [1, 1, 1])


def _orbit_point(A: IntMatrix, t):
    """z_j = prod_i t_i^A[i][j], scaled so that the largest modulus is 1."""
    z = []
    for j in range(A.cols):
        val = complex(1.0)
        for i in range(A.rows):
            if A.entries[i][j]:
                val *= t[i] ** A.entries[i][j]
        z.append(val)
    top = max(abs(x) for x in z)
    return [x / top for x in z]


def _reference_parameters(A: IntMatrix, n: int, seed: int):
    """The per-sample draws of the orbit route: each torus parameter t drawn
    separately as a complex number, its log-moduli from the sampler's stream
    and its phases from a stream of their own, which mu must ignore."""
    moduli = random.Random(seed)
    phases = random.Random(f"phases {seed}")
    out = []
    for _ in range(n):
        u = [moduli.uniform(-LOG_MODULUS_RANGE, LOG_MODULUS_RANGE) for _ in range(A.rows)]
        phase = [phases.uniform(0.0, 2.0 * math.pi) for _ in range(A.rows)]
        out.append(tuple(math.exp(ui) * complex(math.cos(pi), math.sin(pi))
                         for ui, pi in zip(u, phase)))
    return out


@pytest.mark.parametrize("rows", [
    [[1, 0, 3]],
    [[3, 2, 1, 0]],
    [[1, 0, 3], [0, 2, 1]],
    [[0, 1, 3, 4, 4, 2, 0], [1, 0, 0, 1, 3, 4, 3]],
    [[-2, 5, 0, 1], [1, 1, 1, 1], [0, -1, 4, 2]],
])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_sampler_matches_per_sample_orbit_route(rows, seed):
    A = IntMatrix(rows)
    new = sample_moment_image(A, 40, seed)
    ref = _reference_parameters(A, 40, seed)
    for s, t in zip(new, ref, strict=True):
        # complex powers of t at the orbit point, then moment()
        at_orbit = moment(A, _orbit_point(A, t))
        assert max(abs(a - b) for a, b in zip(s.value, at_orbit)) < 1e-12


def test_sampler_large_entries_stay_finite():
    # |t|^400 overflows a double, the log-domain evaluation does not
    for rows in ([[0, 400, 1], [1, 0, 2]], [[-400, 0, 1]]):
        A = IntMatrix(rows)
        for s in sample_moment_image(A, 200, seed=1):
            assert all(math.isfinite(x) for x in s.value)
            for i, x in enumerate(s.value):
                assert min(rows[i]) - 1e-9 <= x <= max(rows[i]) + 1e-9


def test_sampling_seed_determinism():
    s1 = sample_moment_image(ELLIPTIC_A, 64, seed=123)
    s2 = sample_moment_image(ELLIPTIC_A, 64, seed=123)
    assert s1 == s2
    s3 = sample_moment_image(ELLIPTIC_A, 64, seed=124)
    assert s1 != s3


def test_sampling_seed_determinism_across_processes():
    code = ("import sys; from toricdeg.intlat import IntMatrix; "
            "from toricdeg.momentmap import sample_moment_image; "
            "print([s.value for s in sample_moment_image(IntMatrix([[1, 0, 3]]), 64, 123)])")
    env = dict(os.environ, PYTHONPATH=str(Path(momentmap.__file__).resolve().parents[1]))
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout for _ in range(2)]
    here = [s.value for s in sample_moment_image(ELLIPTIC_A, 64, seed=123)]
    assert runs[0] == runs[1] == f"{here}\n"


def test_negative_seed_is_rejected():
    # random.Random(-1) would draw the same numbers as seed 1
    with pytest.raises(ValueError, match="nonnegative"):
        sample_moment_image(ELLIPTIC_A, 5, seed=-1)


def test_elliptic_image_fills_interval():
    samples = sample_moment_image(ELLIPTIC_A, 2000, seed=42)
    D = delta_polytope(Semigroup([(1, 0), (1, 1), (1, 3)]))
    res = image_vs_polytope(samples, D, 1e-9)
    assert res["inside_fraction"] == 1.0
    assert res["coverage_gap"] < 0.2
    vals = [s.value[0] for s in samples]
    assert min(vals) <= 0.05 and max(vals) >= 2.95


def test_twisted_cubic_samples_within_segment():
    A = IntMatrix([[3, 2, 1, 0]])
    samples = sample_moment_image(A, 500, seed=9)
    P = PolytopeQ([(Fraction(0),), (Fraction(3),)], 1)
    res = image_vs_polytope(samples, P, 1e-9)
    assert res["inside_fraction"] == 1.0


def test_image_vs_polytope_point_case():
    P = PolytopeQ([(Fraction(2), Fraction(5))], 2)
    samples = [MomentSample((2.0, 5.0))] * 3
    res = image_vs_polytope(samples, P, 1e-9)
    assert res == {"inside_fraction": 1.0, "coverage_gap": 0.0}


def test_image_vs_polytope_flags_outsider():
    P = PolytopeQ([(Fraction(0),), (Fraction(3),)], 1)
    samples = [MomentSample((1.0,)), MomentSample((4.0,))]
    res = image_vs_polytope(samples, P, 1e-9)
    assert res["inside_fraction"] == 0.5


def test_image_vs_polytope_2d_exact_path():
    P = PolytopeQ([(0, 0), (2, 0), (0, 2)], 2)
    inside = MomentSample((0.5, 0.5))
    outside = MomentSample((3.0, 3.0))
    res = image_vs_polytope([inside, outside], P, 1e-9)
    assert res["inside_fraction"] == 0.5


HEPTAGON = IntMatrix([[0, 1, 3, 4, 4, 2, 0], [1, 0, 0, 1, 3, 4, 3]])


def _hull(A: IntMatrix, drop=()):
    """PolytopeQ of the hull of A's columns, without the vertices at the
    indices in `drop` of the hull's vertex list."""
    verts = hull_vertices(A.columns())
    return PolytopeQ([v for k, v in enumerate(verts) if k not in drop], A.rows)


@st.composite
def _certificate_cases(draw):
    """(A, P, eps, seed): a 2- or 3-row matrix of 3-7 columns with entries of
    either sign, P its columns' hull or that hull without one vertex, so
    that a column lies outside P."""
    rows = draw(st.integers(2, 3))
    cols = draw(st.integers(3, 7))
    A = IntMatrix([[draw(st.integers(-3, 4)) for _ in range(cols)]
                   for _ in range(rows)])
    verts = hull_vertices(A.columns())
    drop = (draw(st.integers(0, len(verts) - 1)),) \
        if len(verts) > 1 and draw(st.booleans()) else ()
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]))
    return A, _hull(A, drop), eps, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(_certificate_cases())
def test_certificate_matches_lp_oracle(case):
    A, P, eps, seed = case
    samples = sample_moment_image(A, 12, seed)
    res = image_vs_polytope(samples, P, eps)
    assert res["inside_fraction"] == reference_moment.inside_fraction_by_lp(samples, P, eps)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_certificate_matches_lp_oracle_without_a_vertex(eps):
    # a vertex column outside P: samples near it are outside, and the
    # certificate must not vouch for them
    samples = sample_moment_image(HEPTAGON, 300, seed=11)
    P = _hull(HEPTAGON, drop=(0,))
    res = image_vs_polytope(samples, P, eps)
    assert res["inside_fraction"] < 1.0
    assert res["inside_fraction"] == reference_moment.inside_fraction_by_lp(samples, P, eps)


def _spy_slacks(monkeypatch):
    """The slack of every point_in_polytope call image_vs_polytope makes."""
    slacks = []
    real = momentmap.point_in_polytope

    def spy(point, P, slack=Fraction(0)):
        slacks.append(slack)
        return real(point, P, slack)

    monkeypatch.setattr(momentmap, "point_in_polytope", spy)
    return slacks


def test_certified_samples_take_no_slacked_lp(monkeypatch):
    samples = sample_moment_image(HEPTAGON, 200, seed=3)
    slacks = _spy_slacks(monkeypatch)
    res = image_vs_polytope(samples, _hull(HEPTAGON), 1e-9)
    assert res["inside_fraction"] == 1.0
    assert not any(slacks)


def test_eps_zero_takes_one_lp_per_sample(monkeypatch):
    samples = sample_moment_image(HEPTAGON, 50, seed=3)
    P = _hull(HEPTAGON)
    slacks = _spy_slacks(monkeypatch)
    res = image_vs_polytope(samples, P, 0.0)
    assert len(slacks) == 50
    assert res["inside_fraction"] == reference_moment.inside_fraction_by_lp(samples, P, 0.0)


@pytest.mark.parametrize("value,weights,columns,vertices", [
    # one per guard: a negative weight, no weight, more weights than
    # columns, a column of the wrong dimension; every value lies outside P
    ((-2.0, 0.0), (2.0, -1.0), ((0, 0), (2, 0)), [(0, 0), (2, 0), (0, 2)]),
    ((4.0, 4.0), (0.0, 0.0), ((0, 0), (2, 0)), [(0, 0), (2, 0), (0, 2)]),
    ((2.0, 0.0), (1.0, 1.0), ((4, 0),), [(3, 0), (4, 0), (4, 1)]),
    ((4.0, 4.0), (1.0,), ((5, 5, 5),), [(0, 0), (2, 0), (0, 2)]),
])
def test_malformed_certificate_falls_back_to_lp(value, weights, columns, vertices):
    s = MomentSample(value, weights, columns)
    P = PolytopeQ(vertices, 2)
    assert image_vs_polytope([s], P, 1e-9)["inside_fraction"] == 0.0


@pytest.mark.parametrize("call", [
    lambda A: sample_moment_image(A, 5, seed=1),
    lambda A: moment(A, []),
])
def test_matrix_without_columns_is_rejected(call):
    with pytest.raises(ValueError, match="at least one column"):
        call(IntMatrix([[]]))


def test_svg_outline_only(tmp_path: Path):
    P = PolytopeQ([(Fraction(0),), (Fraction(3),)], 1)
    out = tmp_path / "strip.svg"
    emit_svg([], P, (0, 0), str(out))
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<circle" not in text
    assert text.count("<line") >= 3  # axis plus a tick per vertex


def test_svg_deterministic_bytes(tmp_path: Path):
    samples = sample_moment_image(ELLIPTIC_A, 50, seed=5)
    D = delta_polytope(Semigroup([(1, 0), (1, 1), (1, 3)]))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(samples, D, (0, 0), str(p1))
    emit_svg(samples, D, (0, 0), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == (GOLDEN / "elliptic_strip.svg").read_bytes()


def test_svg_planar_projection(tmp_path: Path):
    # project the six translated cluster values to their first two coordinates
    gens = [(1, 2, 1, 1, 1, 1), (1, 1, 2, 1, 1, 1), (1, 1, 1, 2, 1, 1),
            (1, 1, 1, 1, 2, 1), (1, 1, 0, 2, 2, 1), (1, 1, 1, 1, 1, 2)]
    S = Semigroup(gens)
    D = delta_polytope(S)
    A = IntMatrix.from_columns([g[1:] for g in gens])
    samples = sample_moment_image(A, 200, seed=3)
    out = tmp_path / "planar.svg"
    emit_svg(samples, D, (0, 1), str(out))
    text = out.read_text()
    assert "<polygon" in text and text.count("<circle") == 200
    assert out.read_bytes() == (GOLDEN / "gr24_proj01.svg").read_bytes()
