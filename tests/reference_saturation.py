"""Saturation as toricdeg computed it for ideals with no positive grading
before every saturation went through Sturmfels' Lemma 12.1, kept as a test
oracle: (I : f^infinity) is I + (1 - y*f) in k[x, y], with y a new
variable, intersected with k[x].  It takes any nonzero f, not only a
monomial.  Tests compare it with `toricdeg.groebner.saturate` and
`toricdeg.groebner.saturate_by_variables`, and use it where a saturation by
a route independent of the library's is wanted.
"""

from __future__ import annotations

from toricdeg.groebner import Ideal, _fresh_name, _with_basis, eliminate, reduced_basis
from toricdeg.polycore import DimensionMismatch, Polynomial


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^infinity), via the extra variable y and the relation 1 - y*f."""
    if f.is_zero():
        raise ValueError("cannot saturate by 0")
    if f.vars != I.vars:
        raise DimensionMismatch("polynomial in a different ring")
    aux = _fresh_name("ysat", I.vars)
    big = I.vars + (aux,)
    gens = [g.extend(big) for g in I.gens]
    one = Polynomial.monomial(big, (0,) * len(big))
    gens.append(one - Polynomial.variable(big, aux) * f.extend(big))
    out = eliminate(Ideal(gens, big), I.vars)
    if I.grading is not None and I.grading.is_homogeneous(f):
        out = _with_basis(reduced_basis(out), I.vars, I.grading)
    return out
