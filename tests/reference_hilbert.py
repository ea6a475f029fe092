"""The graded-dimension routes toricdeg shipped before its packed Hilbert
numerator, kept as test-only references:
- the enumeration: every exponent of the degree is enumerated and tested
  against the leads of the reduced basis; tests compare its counts with
  `toricdeg.groebner.graded_dimension`, and `standard_count` with the
  engine's Hilbert functions;
- `hilbert_numerator`, the numerator on tuple exponents, kept verbatim;
  tests compare it with `toricdeg.groebner._hilbert_numerator`.
"""

from __future__ import annotations

import operator
from typing import Sequence

from toricdeg.groebner import (
    GroebnerBasis,
    Ideal,
    NotHomogeneous,
    _minimal,
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


def standard_count(leads: Sequence[tuple], weights: Sequence[int], degree: int) -> int:
    """The number of exponents of the given weighted degree that no lead
    divides."""
    return sum(1 for e in _weighted_exponents(weights, degree)
               if not any(exp_divides(l, e) for l in leads))


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


def hilbert_numerator(leads: Sequence[tuple], weights: Sequence[int], top: int) -> list:
    """Coefficients of t^0..t^top in the numerator N(t) of the Hilbert series
    N(t) / prod(1 - t^w_i) of k[x] / (x^a : a in leads), for minimal `leads`.

    Pivots on p = x_i^k, for a variable x_i that two minimal generators share
    and its least positive exponent k: N(I) = N(I + p) + t^deg(p) N(I : p)
    (Bayer & Stillman 1992; Bigatti 1997).  Pairwise coprime generators give
    prod (1 - t^deg a).  The terms of t^deg(p) N(I : p) start at t^deg(p), so
    a pending ideal whose shift exceeds `top` is dropped.
    """
    num = [0] * (top + 1)
    stack = [(0, list(leads))]
    while stack:
        shift, gens = stack.pop()
        if shift > top:
            continue
        counts = [sum(map(bool, col)) for col in zip(*gens)]
        if not counts or max(counts) < 2:
            part = [0] * (top + 1)
            part[shift] = 1
            for a in gens:
                d = sum(map(operator.mul, weights, a))
                for j in range(top, d - 1, -1):  # times (1 - t^d)
                    part[j] -= part[j - d]
            num = list(map(operator.add, num, part))
            continue
        i = counts.index(max(counts))
        k = min(g[i] for g in gens if g[i])
        # every generator with x_i is a multiple of p
        p = (0,) * i + (k,) + (0,) * (len(weights) - i - 1)
        stack.append((shift, [g for g in gens if not g[i]] + [p]))
        colon = _minimal({g[:i] + (max(g[i] - k, 0),) + g[i + 1:] for g in gens})
        stack.append((shift + k * weights[i], colon))
    return num
