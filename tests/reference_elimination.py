"""Elimination as toricdeg computed it before it read eliminations off the
weight-then-degrevlex basis, kept as a test oracle: one Groebner basis under
the two-block order BlockOrder(dropped, kept), whose elements free of the
dropped variables generate the elimination ideal, made canonical by a
second Buchberger run.  Tests compare it with `toricdeg.groebner.eliminate`
and `toricdeg.groebner.ring_map_kernel`.

Also the projection limit on the kept coordinate plane, as toricdeg built it
before `projection_limit` proved its scheme check instead of testing it:
tests compare it with the projection's closure.
"""

from __future__ import annotations

from typing import Sequence

from toricdeg.groebner import Ideal, buchberger, canonical, reduced_basis
from toricdeg.polycore import BlockOrder, Grading, Polynomial


def reference_eliminate(I: Ideal, keep: Sequence[str]) -> Ideal:
    """I intersected with k[keep], over `keep` in its given order."""
    keep = tuple(keep)
    drop_idx = [i for i, v in enumerate(I.vars) if v not in keep]
    keep_idx = [i for i, v in enumerate(I.vars) if v in keep]
    G = buchberger(I, BlockOrder(drop_idx, keep_idx))
    gens = [g.restrict(keep) for g in G.elements
            if not any(e[i] for e in g.terms for i in drop_idx)]
    grading = None
    if I.grading is not None:
        grading = Grading([I.grading.weights[I.vars.index(v)] for v in keep])
    return canonical(Ideal(gens, keep, grading=grading))


def restricted_limit(limit: Ideal, kept: Sequence[str]) -> Ideal:
    """The image of `limit` under the ring map to k[kept] that sends every
    other variable to 0, over `kept` in its given order: the restrictions of
    the limit's reduced basis generate it."""
    kept = tuple(kept)
    return Ideal([g.restrict(kept) for g in reduced_basis(limit).elements], kept)


def reference_ring_map_kernel(source_vars: Sequence[str], images: Sequence[Polynomial],
                              target: Ideal) -> Ideal:
    """Kernel of k[source_vars] -> k[target.vars]/target, x_i -> image_i,
    from the graph ideal (x_i - image_i) + target."""
    big = target.vars + tuple(source_vars)
    gens = [Polynomial.variable(big, name) - img.extend(big)
            for name, img in zip(source_vars, images)]
    gens += [g.extend(big) for g in target.gens]
    return reference_eliminate(Ideal(gens, big), source_vars)
