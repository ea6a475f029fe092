"""The containment route `toricdeg.momentmap.image_vs_polytope` took in
dimension >= 2 before samples carried their convex weights: one exact
phase-one LP (`point_in_polytope`) per sample.  Kept as a test-only
reference; tests compare `inside_fraction` with it.
"""

from __future__ import annotations

from fractions import Fraction

from toricdeg.toric import point_in_polytope


def inside_fraction_by_lp(samples, P, eps: float) -> float:
    """Fraction of samples within eps (sup-norm) of P, one LP per sample."""
    slack = Fraction(eps).limit_denominator(10**15) if eps else Fraction(0)
    inside = sum(point_in_polytope([Fraction(x) for x in s.value], P, slack)
                 for s in samples)
    return inside / len(samples)
