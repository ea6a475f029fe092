"""The weight selection toricdeg shipped before it certified the weight from
the split check alone, kept as a test oracle: each candidate w whose splits
agree with the rows' on the WeightOrder(M) basis is also verified outright,
by a second Buchberger run under w and a reduced-basis comparison of the two
initial ideals, within a budget of doublings.  Tests compare its (w, init)
with those of `toricdeg.intlat.weight_from_matrix`.

Its initial ideals are computed the old way too: from the basis under
WeightOrder, whose tie-break is lex, the initial forms generate the initial
ideal but are not a degrevlex basis of it, so a degrevlex Buchberger run
makes them canonical.
"""

from __future__ import annotations

from toricdeg import groebner
from toricdeg.intlat import IntMatrix, _splits_agree
from toricdeg.polycore import DimensionMismatch, WeightOrder, initial_form_rows


def _reference_weight_basis(J: groebner.Ideal, rows) -> tuple:
    """(G, in_rows(J)): J's reduced basis under WeightOrder(rows), and the
    ideal of G's initial forms, canonicalized by a degrevlex Buchberger."""
    G = groebner.buchberger(J, WeightOrder(rows))
    gens = [initial_form_rows(g, rows) for g in G.elements]
    return G, groebner.canonical(groebner.Ideal(gens, J.vars, grading=J.grading))


def reference_initial_ideal(J: groebner.Ideal, rows) -> groebner.Ideal:
    """The initial ideal of J for the min-convention weight rows."""
    return _reference_weight_basis(J, rows)[1]


def reference_weight_from_matrix(J: groebner.Ideal, M: IntMatrix,
                                 max_doublings: int = 40):
    """(w, in_M(J)) for the first B in 2, 4, 8, ... whose
    w = sum_k B^(d-1-k) * row_k splits the basis as the rows do and gives
    in_w(J) = in_M(J); RuntimeError after `max_doublings` candidates."""
    if M.cols != len(J.vars):
        raise DimensionMismatch("one matrix column per ideal variable required")
    rows = M.rows_list()
    d = len(rows)
    G, init_M = _reference_weight_basis(J, rows)
    if d == 1:
        return rows[0], init_M
    B = 2
    for _ in range(max_doublings):
        w = [sum(B ** (d - 1 - k) * rows[k][j] for k in range(d))
             for j in range(M.cols)]
        if _splits_agree(G, rows, w):
            init_w = reference_initial_ideal(J, [w])
            if groebner.same_ideal(init_w, init_M):
                return w, init_M
        B *= 2
    raise RuntimeError(f"no certified weight within {max_doublings} doublings")
