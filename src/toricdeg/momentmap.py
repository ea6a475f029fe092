"""Floating-point moment-map evaluation, torus-orbit sampling, comparison of
sampled images against exact polytopes, and SVG scatter output.

This is the only module that leaves exact arithmetic: the map
mu([z]) = sum |z_j|^2 a_j / |z|^2 is real-analytic, so samples are doubles.
A sample keeps the convex weights it was computed from, and its containment
in an exact polytope of dimension >= 2 is proved from those weights in exact
arithmetic; the interval test in dimension 1 and the coverage gap are made
in floats.
Sampling uses only the standard library: `random.Random(seed).random()`,
whose sequence Python keeps the same for an integer seed across versions,
so a seed draws the same log-moduli everywhere and gives the same samples
in every process.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .intlat import IntMatrix
from .polycore import DimensionMismatch
from .toric import PolytopeQ, point_in_polytope

LOG_MODULUS_RANGE = 3.0


class ZeroVector(ValueError):
    """Projective points need a nonzero representative."""


@dataclass(frozen=True)
class MomentSample:
    """One moment value.  It keeps no torus parameter: mu depends on |t|
    only, and the weights and columns certify the value's containment."""

    value: tuple      # mu in R^r
    weights: tuple = ()   # unnormalized nonnegative weights, one per column
    columns: tuple = ()   # A's integer columns, shared by a draw's samples


def _float_rows(A: IntMatrix) -> list:
    """A's rows as floats, for entries small enough that no sum the sampler
    forms overflows (ValueError otherwise): each exponent 2 <u, a_j> is at
    most 2 * LOG_MODULUS_RANGE * rows * max |entry|, and the weighted sum of
    the columns at most cols * max |entry|."""
    if not A.cols:
        raise ValueError("the weight matrix needs at least one column")
    bound = sys.float_info.max / (2 * LOG_MODULUS_RANGE * A.rows * A.cols)
    if any(abs(x) > bound for r in A.entries for x in r):
        raise ValueError(f"matrix entries must be at most {bound:.3g} in "
                         "absolute value for floating-point sampling")
    return [[float(x) for x in r] for r in A.entries]


def moment(A: IntMatrix, z: Sequence[complex]):
    """mu([z]) = (1/|z|^2) * sum_j |z_j|^2 a_j, columns of A as weights.

    Every |z_j| is divided by the largest before squaring, so neither tiny
    nor huge coordinates underflow or overflow the squares."""
    rows = _float_rows(A)
    if len(z) != A.cols:
        raise DimensionMismatch("one coordinate per weight column required")
    moduli = [abs(x) for x in z]
    top = max(moduli)
    if top == 0.0:
        raise ZeroVector("zero projective vector")
    norms = [(m / top) ** 2 for m in moduli]
    return _convex_value(rows, norms)


def _convex_value(rows: list, norms: list) -> tuple:
    """sum_j norms_j a_j / sum_j norms_j for float rows of A."""
    total = sum(norms)
    return tuple([sum(map(mul, r, norms)) / total for r in rows])


def sample_moment_image(A: IntMatrix, n: int, seed: int):
    """n moment values of torus points t with log-moduli u uniform in
    [-LOG_MODULUS_RANGE, LOG_MODULUS_RANGE), deterministic for a fixed seed.

    Sample k takes the next A.rows values of `random.Random(seed).random()`,
    each scaled to a log-modulus; Python keeps that sequence for an integer
    seed across versions.  A negative seed is rejected, since
    `random.Random` would draw the same numbers as its absolute value.

    The orbit point z_j = prod_i t_i^A[i][j] has |z_j|^2 = exp(2 <u, a_j>),
    so mu = A softmax(2 u A) depends on |t| only, and no phase is drawn.  It
    is evaluated in the log domain, shifted by each sample's largest
    exponent, so no matrix entry overflows it.  Each sample carries its
    shifted exponentials as `weights` and A's columns as `columns`: mu is
    their convex combination, which `image_vs_polytope` uses as its
    containment certificate.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError(f"the seed must be nonnegative, not {seed}")
    rows = _float_rows(A)
    float_columns = list(zip(*rows))
    columns = tuple(A.columns())
    rng = random.Random(seed)
    samples = []
    for _ in range(n):
        u = [rng.uniform(-LOG_MODULUS_RANGE, LOG_MODULUS_RANGE) for _ in rows]
        log_norms = [2.0 * sum(map(mul, u, c)) for c in float_columns]
        top = max(log_norms)
        norms = [math.exp(x - top) for x in log_norms]
        samples.append(MomentSample(_convex_value(rows, norms), tuple(norms), columns))
    return samples


def _certified(s: MomentSample, slack: Fraction) -> bool:
    """Do the sample's own weights put its value within slack (sup-norm) of
    conv(s.columns)?  With n_j = Fraction(weights[j]) >= 0 and
    N = sum n_j > 0 the check is |sum_j n_j c_j - N mu|_inf <= N slack,
    made exactly in integers: n_j = m_j / D over the weights' least common
    denominator D, mu_i = p_i / q_i and slack = a / b, so multiplying by
    D q_i b > 0 gives b |q_i sum_j m_j c_ji - M p_i| <= M q_i a, M = sum m_j.
    """
    ratios = [w.as_integer_ratio() for w in s.weights]
    den = math.lcm(*(d for _, d in ratios))
    m = [k * (den // d) for k, d in ratios]
    total = sum(m)
    if len(m) != len(s.columns) or total <= 0 or min(m) < 0:
        return False
    a, b = slack.numerator, slack.denominator
    for i, x in enumerate(s.value):
        p, q = x.as_integer_ratio()
        acc = sum(mj * c[i] for mj, c in zip(m, s.columns))
        if b * abs(q * acc - total * p) > total * q * a:
            return False
    return True


def image_vs_polytope(samples: Sequence[MomentSample], P: PolytopeQ, eps: float):
    """Containment and coverage of a sample cloud against an exact polytope.

    inside_fraction: fraction of samples within eps of P, decided exactly on
    the rationalized sample (in dimension 1, by a float interval test).
    coverage_gap: the largest distance from a vertex of P to its nearest
    sample, by `math.dist`, which does not overflow where the squared
    distance would.

    In dimension >= 2 a sample from `sample_moment_image` carries its own
    certificate.  Every column c_j of A is decided in P once per call (a
    vertex lookup, else one exact LP).  When all are, and the sample's
    weights n_j >= 0 with N = sum n_j > 0 satisfy
    |sum_j n_j c_j - N mu|_inf <= N slack exactly, then lambda = n / N is
    >= 0 and sums to 1, so A lambda lies in conv(columns) inside P, and mu
    lies within slack of A lambda, hence of P.  The LP `point_in_polytope`
    would accept it, so the certificate changes no answer.  Every other
    sample (one without weights, eps = 0, a column outside P, or a check
    that fails) goes to that LP.
    """
    if not samples:
        raise ValueError("no samples")
    if not math.isfinite(eps) or eps < 0:
        raise ValueError(f"eps must be a finite nonnegative distance, not {eps}")
    dim = len(samples[0].value)
    if dim != P.dim_ambient:
        raise DimensionMismatch("sample and polytope dimensions differ")
    inside = 0
    slack = Fraction(eps).limit_denominator(10**15) if eps else Fraction(0)
    if dim == 1:
        lo = min(v[0] for v in P.vertices)
        hi = max(v[0] for v in P.vertices)
        flo, fhi = float(lo), float(hi)
        for s in samples:
            if flo - eps <= s.value[0] <= fhi + eps:
                inside += 1
    else:
        vertices = set(P.vertices)
        columns_in_P = {}
        for s in samples:
            if slack and s.columns:
                if s.columns not in columns_in_P:
                    columns_in_P[s.columns] = all(
                        len(c) == dim and (c in vertices or point_in_polytope(c, P))
                        for c in s.columns)
                if columns_in_P[s.columns] and _certified(s, slack):
                    inside += 1
                    continue
            if point_in_polytope([Fraction(x) for x in s.value], P, slack):
                inside += 1
    gap = 0.0
    for v in P.vertices:
        vf = [float(x) for x in v]
        best = min(math.dist(vf, s.value) for s in samples)
        gap = max(gap, best)
    return {"inside_fraction": inside / len(samples), "coverage_gap": gap}


# ---------------------------------------------------------------------------
# SVG output

_W, _H, _PAD = 640, 420, 40


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def emit_svg(samples: Sequence[MomentSample], P: PolytopeQ,
             proj: tuple, path: str) -> None:
    """Scatter plot of projected samples over the projected polytope outline.

    1-dimensional projections render as a horizontal strip with tick marks.
    Output bytes are deterministic for fixed inputs.
    """
    i, j = proj
    if i >= P.dim_ambient or (P.dim_ambient > 1 and j >= P.dim_ambient):
        raise IndexError("projection index out of range")
    one_dim = P.dim_ambient == 1 or i == j
    pv = [(float(v[i]), 0.0 if one_dim else float(v[j])) for v in P.vertices]
    pts = [(s.value[i], 0.0 if one_dim else s.value[j]) for s in samples]
    xs = [p[0] for p in pv + pts] or [0.0]
    ys = [p[1] for p in pv + pts] or [0.0]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def to_px(p):
        x = _PAD + (p[0] - xmin) / xspan * (_W - 2 * _PAD)
        y = _H - _PAD - (p[1] - ymin) / yspan * (_H - 2 * _PAD)
        return x, y

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if one_dim:
        y0 = _H / 2
        x0, _ = to_px((xmin, 0.0))
        x1, _ = to_px((xmax, 0.0))
        lines.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                     f'y2="{_fmt(y0)}" stroke="black" stroke-width="2"/>')
        for v in sorted(set(p[0] for p in pv)):
            x, _ = to_px((v, 0.0))
            lines.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y0 - 8)}" x2="{_fmt(x)}" '
                         f'y2="{_fmt(y0 + 8)}" stroke="black" stroke-width="2"/>')
            lines.append(f'<text x="{_fmt(x)}" y="{_fmt(y0 + 24)}" font-size="12" '
                         f'text-anchor="middle">{v:g}</text>')
        for p in pts:
            x, _ = to_px((p[0], 0.0))
            lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y0)}" r="2" '
                         f'fill="steelblue" fill-opacity="0.5"/>')
    else:
        hull = _planar_hull(pv)
        if hull:
            d = " ".join(f"{_fmt(to_px(p)[0])},{_fmt(to_px(p)[1])}" for p in hull)
            lines.append(f'<polygon points="{d}" fill="none" stroke="black" '
                         f'stroke-width="2"/>')
        for p in pts:
            x, y = to_px(p)
            lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2" '
                         f'fill="steelblue" fill-opacity="0.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _planar_hull(points):
    """Monotone-chain hull of 2D float points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]
