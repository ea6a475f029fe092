"""The graded-dimension route toricdeg shipped before the Hilbert-series
numerator: every exponent of the degree is enumerated and tested against the
leads of the reduced basis.  Kept verbatim as a test-only reference; tests
compare its counts with `toricdeg.groebner.graded_dimension`.
"""

from __future__ import annotations

from typing import Sequence

from toricdeg.groebner import (
    GroebnerBasis,
    Ideal,
    NotHomogeneous,
    reduced_basis,
)
from reference_groebner import exp_divides

from toricdeg.polycore import Grading

DEFAULT_DEGREE_CAP = 8


def _weighted_exponents(weights: Sequence[int], degree: int):
    """All exponent tuples with the given weighted degree, grown one
    coordinate at a time from a stack of (prefix, remaining degree)."""
    if degree < 0:
        return
    *head, last = weights
    stack = [((), degree)]
    push = stack.append
    while stack:
        e, r = stack.pop()
        if len(e) == len(head):
            if r % last == 0:
                yield e + (r // last,)
            continue
        w = head[len(e)]
        for k in range(r // w + 1):
            push((e + (k,), r - k * w))


def standard_monomials(G: GroebnerBasis, grading: Grading, degree: int):
    """Exponents of the given graded degree outside the leading-term ideal."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    leads = G.leads
    out = []
    for e in _weighted_exponents(grading.weights, degree):
        if not any(exp_divides(l, e) for l in leads):
            out.append(e)
    out.sort(key=G.order.key, reverse=True)
    return out


def graded_dimension(I: Ideal, degree: int, *, max_degree: int | None = None) -> int:
    """dim_k of (k[vars]/I) in the given degree; order-independent."""
    grading = I.grading
    if grading is None:
        grading = Grading.standard(len(I.vars))
        for g in I.gens:
            if not grading.is_homogeneous(g):
                raise NotHomogeneous("ideal is not homogeneous")
    cap = DEFAULT_DEGREE_CAP if max_degree is None else max_degree
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the cap {cap}; raise max_degree")
    G = reduced_basis(I)
    return len(standard_monomials(G, grading, degree))
