"""Floating-point moment-map evaluation, torus-orbit sampling, comparison of
sampled images against exact polytopes, and SVG scatter output.

This is the only module that leaves exact arithmetic: the map
mu([z]) = sum |z_j|^2 a_j / |z|^2 is real-analytic, so samples are doubles
and polytopes are evaluated in floats only at the comparison boundary.
Sampling uses numpy's PCG64 generator; the contract is bit-for-bit
determinism for a fixed seed within one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlat import IntMatrix
from .polycore import DimensionMismatch
from .toric import PolytopeQ, point_in_polytope

LOG_MODULUS_RANGE = 3.0


class ZeroVector(ValueError):
    """Projective points need a nonzero representative."""


@dataclass(frozen=True)
class MomentSample:
    value: tuple      # mu in R^r
    source_t: tuple   # the torus parameter (complex numbers) that produced it


def moment(A: IntMatrix, z: Sequence[complex]):
    """mu([z]) = (1/|z|^2) * sum_j |z_j|^2 a_j, columns of A as weights."""
    import numpy as np

    if len(z) != A.cols:
        raise DimensionMismatch("one coordinate per weight column required")
    zz = np.asarray(z, dtype=complex)
    norms = np.abs(zz) ** 2
    total = norms.sum()
    if total == 0.0:
        raise ZeroVector("zero projective vector")
    weights = np.array([[A.entries[i][j] for j in range(A.cols)]
                        for i in range(A.rows)], dtype=float)
    return tuple(float(x) for x in (weights @ norms) / total)


def moment_of_torus_parameter(A: IntMatrix, t: Sequence[complex]):
    """mu of the dense-orbit point with coordinates prod t_i^(A[i][j])."""
    import numpy as np

    if len(t) != A.rows:
        raise DimensionMismatch("one parameter per matrix row required")
    if any(x == 0 for x in t):
        raise ZeroVector("torus parameters must be nonzero")
    coords = []
    for j in range(A.cols):
        val = complex(1.0)
        for i in range(A.rows):
            e = A.entries[i][j]
            if e:
                val *= complex(t[i]) ** e
        coords.append(val)
    z = np.asarray(coords)
    # normalize the largest modulus to 1 before evaluating
    top = np.abs(z).max()
    if top == 0.0:
        raise ZeroVector("orbit point collapsed to zero")
    return moment(A, tuple(z / top))


def sample_moment_image(A: IntMatrix, n: int, seed: int):
    """n moment values of torus points: log-moduli uniform in
    [-LOG_MODULUS_RANGE, LOG_MODULUS_RANGE], phases uniform, deterministic
    for a fixed seed (PCG64)."""
    import numpy as np

    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        u = rng.uniform(-LOG_MODULUS_RANGE, LOG_MODULUS_RANGE, size=A.rows)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=A.rows)
        t = tuple(math.exp(ui) * complex(math.cos(pi), math.sin(pi))
                  for ui, pi in zip(u, phase))
        samples.append(MomentSample(moment_of_torus_parameter(A, t), t))
    return samples


def image_vs_polytope(samples: Sequence[MomentSample], P: PolytopeQ, eps: float):
    """Containment and coverage of a sample cloud against an exact polytope.

    inside_fraction: fraction of samples within eps of P (exact feasibility
    on the rationalized sample).  coverage_gap: the largest distance from a
    vertex of P to its nearest sample.
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
        for s in samples:
            pt = [Fraction(x) for x in s.value]
            if point_in_polytope(pt, P, slack):
                inside += 1
    gap = 0.0
    for v in P.vertices:
        vf = [float(x) for x in v]
        best = min(
            math.sqrt(sum((a - b) ** 2 for a, b in zip(vf, s.value)))
            for s in samples)
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
