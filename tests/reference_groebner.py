"""The Buchberger engine toricdeg shipped before the Gebauer-Moller rewrite,
kept verbatim as a test-only reference: normal selection by total degree of
the lcm, a two-stage chain check and a `max`-driven normal form.  Tests compare
its reduced bases with those of `toricdeg.groebner.buchberger`.

Its leading terms, monic scaling, term multiplication and divisibility test
are its own, and so are its exponent quotients and lcms, so the oracle
shares no polynomial arithmetic with the engine beyond `Polynomial`'s ring
operations; other tests use `lead`, `monic`, `exp_divides` and `exp_lcm`
from here.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from toricdeg.groebner import GroebnerBasis, Ideal
from toricdeg.polycore import (
    DegRevLex,
    DimensionMismatch,
    Exponent,
    Polynomial,
    TermOrder,
    exp_add,
)


def lead(p: Polynomial, order: TermOrder) -> tuple:
    """(exponent, coefficient) of the leading term of nonzero p under `order`."""
    e = max(p.terms, key=order.key)
    return e, p.terms[e]


def monic(p: Polynomial, order: TermOrder) -> Polynomial:
    """Nonzero p divided by its leading coefficient."""
    c = lead(p, order)[1]
    return Polynomial._trusted(p.vars, {e: x / c for e, x in p.terms.items()})


def _term_mul(p: Polynomial, e: Exponent, c: Fraction) -> Polynomial:
    """p times the single term c * x^e, for nonzero c."""
    return Polynomial._trusted(p.vars, {exp_add(e0, e): c0 * c for e0, c0 in p.terms.items()})


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x if x > y else y for x, y in zip(a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True if x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def exp_coprime(a: Exponent, b: Exponent) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _cached_key(order: TermOrder):
    cache: dict = {}
    key = order.key

    def k(e):
        v = cache.get(e)
        if v is None:
            v = key(e)
            cache[e] = v
        return v

    return k


def _normal_form(p: Polynomial, basis: Sequence[Polynomial],
                 leads: Sequence[Exponent], key) -> Polynomial:
    """Full normal form: no term of the result is divisible by any lead."""
    if p.is_zero() or not basis:
        return p
    work = dict(p.terms)
    out: dict = {}
    nb = len(basis)
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        hit = -1
        for i in range(nb):
            if exp_divides(leads[i], e):
                hit = i
                break
        if hit < 0:
            out[e] = c
            continue
        g = basis[hit]
        shift = exp_sub(e, leads[hit])
        glead_c = g.terms[leads[hit]]
        factor = c / glead_c
        for eg, cg in g.terms.items():
            if eg == leads[hit]:
                continue
            et = tuple(a + b for a, b in zip(eg, shift))
            c0 = work.get(et)
            if c0 is None:
                work[et] = -factor * cg
            else:
                c0 = c0 - factor * cg
                if c0 == 0:
                    del work[et]
                else:
                    work[et] = c0
    return Polynomial._trusted(p.vars, out)


def _spoly(f: Polynomial, g: Polynomial, ef: Exponent, eg: Exponent) -> Polynomial:
    l = exp_lcm(ef, eg)
    cf = f.terms[ef]
    cg = g.terms[eg]
    return _term_mul(f, exp_sub(l, ef), Fraction(1) / cf) - \
        _term_mul(g, exp_sub(l, eg), Fraction(1) / cg)


def _interreduce(polys: list, order: TermOrder) -> list:
    """Minimalize and tail-reduce to the unique reduced basis."""
    key = _cached_key(order)
    polys = [p for p in polys if not p.is_zero()]
    leads = [lead(p, order)[0] for p in polys]
    # minimalize: drop any element whose lead is divisible by another lead
    keep = []
    for i, li in enumerate(leads):
        redundant = False
        for j, lj in enumerate(leads):
            if i != j and exp_divides(lj, li):
                if lj != li or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(i)
    polys = [polys[i] for i in keep]
    leads = [leads[i] for i in keep]
    # tail-reduce each against the others
    reduced = []
    for i, p in enumerate(polys):
        others = polys[:i] + polys[i + 1:]
        other_leads = leads[:i] + leads[i + 1:]
        r = _normal_form(p, others, other_leads, key)
        if not r.is_zero():
            reduced.append(monic(r, order))
    reduced.sort(key=lambda q: key(lead(q, order)[0]), reverse=True)
    return reduced


def buchberger(I: Ideal, order: TermOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of I under `order` (default degrevlex).

    Normal pair selection (smallest lcm first) with the coprime and chain
    criteria; the output is the unique reduced basis, independent of the
    generator order.
    """
    if order is None:
        order = DegRevLex(len(I.vars))
    if order.nvars != len(I.vars):
        raise DimensionMismatch("order does not match the ideal's ring")
    key = _cached_key(order)

    basis: list[Polynomial] = []
    leads: list[Exponent] = []
    pairs: list = []  # heap of (degree, key(lcm), i, j)
    entry_count = 0

    def push_pairs(j: int):
        nonlocal entry_count
        ej = leads[j]
        fresh = []
        for i in range(j):
            l = exp_lcm(leads[i], ej)
            fresh.append((i, l))
        # chain criterion within the new pairs: drop (i, j) when another new
        # pair's lcm properly divides its lcm
        kept = []
        for i, l in fresh:
            if exp_coprime(leads[i], ej):
                continue
            dominated = False
            for i2, l2 in fresh:
                if i2 != i and l2 != l and exp_divides(l2, l):
                    dominated = True
                    break
            if dominated:
                continue
            kept.append((i, l))
        for i, l in kept:
            heapq.heappush(pairs, (sum(l), key(l), entry_count, i, j, l))
            entry_count += 1

    # seed with successive normal forms of the generators; unlike the final
    # interreduction this never drops ideal content
    for g in I.gens:
        r = _normal_form(g, basis, leads, key)
        if r.is_zero():
            continue
        r = monic(r, order)
        basis.append(r)
        leads.append(lead(r, order)[0])
        push_pairs(len(basis) - 1)

    while pairs:
        _, _, _, i, j, l = heapq.heappop(pairs)
        # chain criterion against the current basis: skip when some other
        # lead divides the lcm strictly between the two
        skip = False
        for k2 in range(len(basis)):
            if k2 in (i, j):
                continue
            if exp_divides(leads[k2], l):
                l_ik = exp_lcm(leads[i], leads[k2])
                l_jk = exp_lcm(leads[j], leads[k2])
                if l_ik != l and l_jk != l:
                    skip = True
                    break
        if skip:
            continue
        s = _spoly(basis[i], basis[j], leads[i], leads[j])
        r = _normal_form(s, basis, leads, key)
        if r.is_zero():
            continue
        r = monic(r, order)
        basis.append(r)
        leads.append(lead(r, order)[0])
        push_pairs(len(basis) - 1)

    reduced = _interreduce(basis, order)
    return GroebnerBasis(reduced, order, [lead(g, order)[0] for g in reduced])
