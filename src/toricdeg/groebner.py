"""Buchberger's algorithm with reduced bases, plus the ideal toolbox built on
top of it: initial ideals, elimination, saturation, ring-map kernels and
graded dimensions.

Every returned ideal is canonicalized as its reduced Groebner basis under a
deterministic default order (degrevlex on the declared variables), so outputs
are diffable and ideal equality is structural equality of those bases.
"""

from __future__ import annotations

import heapq
import operator
import sys
from array import array
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polycore import (
    MAX_EXPONENT,
    DegreeOverflow,
    DimensionMismatch,
    Exponent,
    Grading,
    Polynomial,
    TermOrder,
    UnknownVariable,
    _IDENT,
    _degrevlex,
    _form,
    exact_int,
    format_polynomial,
    initial_form_rows,
)


class NotHomogeneous(ValueError):
    """Ideal is not homogeneous for the grading in effect."""


class Ideal:
    """A finitely generated ideal in k[vars] with an optional grading.

    Variable names must be distinct.  When a grading is supplied, every
    generator must be homogeneous for it; both are checked on construction.
    """

    __slots__ = ("vars", "gens", "grading", "_rgb_cache")

    def __init__(self, gens: Iterable[Polynomial], vars: Sequence[str],
                 grading: Grading | None = None):
        self.vars = _distinct(vars)
        cleaned = []
        for g in gens:
            if g.vars != self.vars:
                raise DimensionMismatch("generator in a different ring")
            if not g.is_zero():
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self.grading = grading
        if grading is not None:
            if len(grading.weights) != len(self.vars):
                raise DimensionMismatch("grading length does not match variables")
            homogeneous_grading(self)
        self._rgb_cache = None

    def is_zero(self) -> bool:
        return not self.gens

    def contains_one(self) -> bool:
        G = reduced_basis(self)
        return any(len(g) == 1 and sum(next(iter(g.terms))) == 0 for g in G.elements)

    def __repr__(self):
        gs = ", ".join(format_polynomial(g) for g in self.gens)
        return f"Ideal([{gs}] in k[{', '.join(self.vars)}])"


def _distinct(names: Iterable[str]) -> tuple:
    """`names` as a tuple, each an identifier of the polynomial grammar
    ([A-Za-z][A-Za-z0-9_]*) and none of them repeated (ValueError
    otherwise)."""
    names = tuple(names)
    for i, v in enumerate(names):
        if not _IDENT.fullmatch(v):
            raise ValueError(f"variable name {v!r} is not of the form {_IDENT.pattern}")
        if v in names[:i]:
            raise ValueError(f"variable {v!r} named twice")
    return names


def _known(vars: Sequence[str], names: Iterable[str]) -> tuple:
    """`names` as a tuple, each of them one of `vars` (UnknownVariable
    otherwise)."""
    names = tuple(names)
    for v in names:
        if v not in vars:
            raise UnknownVariable(v)
    return names


def homogeneous_grading(I: Ideal) -> Grading:
    """The grading in effect for I, standard when it carries none, after
    checking that every generator is homogeneous for it (NotHomogeneous)."""
    grading = I.grading if I.grading is not None else Grading.standard(len(I.vars))
    for g in I.gens:
        if not grading.is_homogeneous(g):
            raise NotHomogeneous(f"generator {format_polynomial(g)} is not homogeneous")
    return grading


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading term.
    `leads` are the elements' lead exponents under `order`, in turn."""

    __slots__ = ("elements", "order", "leads")

    def __init__(self, elements: Sequence[Polynomial], order: TermOrder,
                 leads: Sequence[Exponent]):
        self.elements = tuple(elements)
        self.order = order
        self.leads = tuple(leads)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        gs = ", ".join(format_polynomial(g, self.order) for g in self.elements)
        return f"GroebnerBasis([{gs}])"


# ---------------------------------------------------------------------------
# packed exponents

# array and memoryview item codes by item width in bits: the field widths
_CODES = {8 * array(code).itemsize: code for code in "BHIQ"}
_WIDTHS = sorted(_CODES)
# the first width tried holds this many times the largest input exponent
_HEADROOM = 4


class _FieldOverflow(Exception):
    """A product's exponent outgrew its packed field."""


class _Packing:
    """Exponents of n entries packed into one int, a word, for the engine's
    inner loops (Monagan & Pearce 2011, Sparse polynomial division using a
    heap, whose packed monomials compare as the monomial order does).

    The word of e is (key << S) | fields, S = n*width: entry i sits in bits
    [width*i, width*(i+1)) of `fields`, and key = sum of e_i*V_i for V =
    `order.weights(cap)`.  The top bit of each field is a guard bit, clear
    in every exponent the engine keeps, so a field holds 0..cap with cap =
    2^(width-1) - 1, or MAX_EXPONENT at 64 bits.  A word is the int
    key*2^S + fields, also when the key is negative, as it is under a
    weight order that is not a well-order.  For kept exponents a and b:
    - words sort as the order does: the key sorts exactly as the order on
      every exponent whose fields are at most cap (see `TermOrder`), so
      distinct exponents have distinct keys, and fields in [0, 2^S) cannot
      undo a key difference of at least 2^S;
    - x^a * x^b is word(a) + word(b): the key is linear, and each field's
      sum, below 2^width, carries into no other field, so the fields add
      to those of a + b below 2^S; likewise x^a / x^b is word(a) - word(b)
      when x^b divides x^a, as no field borrows;
    - x^b divides x^a exactly when ((a | guard) - b) & guard == guard: each
      field of a | guard is a_i + 2^(width-1), from which b_i subtracts
      without a borrow, and its guard bit stays set exactly when b_i <= a_i;
      no borrow leaves the fields either, so the test reads their bits
      alone, on words as on plain fields;
    - the lcm takes a's field where that guard bit is set, b's elsewhere,
      and b's key bits (`lcm`).
    A sum of two kept exponents holds each field's sum exactly, so its field
    has outgrown cap exactly when (sum + bias) & guard is nonzero; `bias` is
    0 except at 64 bits, where it lowers the guard's threshold from 2^63 to
    MAX_EXPONENT + 1.  An exponent is never compared with one of another
    packing, so V may change with the width.

    `key` and `unpack` read a word's high and low bits; `mask` keeps the
    low bits, the plain fields that pair bookkeeping and Hilbert counts
    work on.
    """

    __slots__ = ("width", "cap", "guard", "bias", "shift", "mask", "weights", "_code",
                 "unpack")

    def __init__(self, n: int, width: int, order: TermOrder):
        self.width = width
        self._code = code = _CODES[width]
        ones = int.from_bytes(array(code, [1] * n).tobytes(), sys.byteorder)
        top = 1 << (width - 1)
        self.cap = cap = min(top - 1, MAX_EXPONENT)  # the largest entry a field holds
        self.guard = ones * top
        self.bias = ones * (top - 1 - cap)
        self.shift = n * width
        self.mask = mask = (1 << self.shift) - 1
        self.weights = order.weights(cap)
        size = n * width // 8
        byteorder = sys.byteorder

        def unpack(p: int) -> Exponent:
            return tuple(memoryview((p & mask).to_bytes(size, byteorder)).cast(code))

        self.unpack = unpack

    def fields(self, e: Exponent) -> int:
        """The plain fields of e, with no key."""
        return int.from_bytes(array(self._code, e).tobytes(), sys.byteorder)

    def pack(self, e: Exponent) -> int:
        return (sum(map(operator.mul, self.weights, e)) << self.shift) | self.fields(e)

    def key(self, p: int) -> int:
        return p >> self.shift

    def packed(self, terms: dict) -> dict:
        """`terms` with packed exponents."""
        return {self.pack(e): c for e, c in terms.items()}

    def lcm(self, a: int, b: int) -> int:
        d = ((a | self.guard) - b) & self.guard  # guard bits where a_i >= b_i
        return b ^ ((a ^ b) & (d - (d >> (self.width - 1))))


def _widening(n: int, top: int, order: TermOrder, run):
    """run(packing) for exponents of n entries under `order`: first at the
    narrowest width whose fields hold _HEADROOM times `top`, the largest
    input exponent entry, then at each wider width while a field overflows.
    A 64-bit field overflows only past MAX_EXPONENT, so the widest width's
    overflow raises DegreeOverflow, as `exp_add` does."""
    for width in _WIDTHS:
        if width != _WIDTHS[-1] and (1 << (width - 1)) <= _HEADROOM * top:
            continue
        try:
            return run(_Packing(n, width, order))
        except _FieldOverflow:
            pass
    raise DegreeOverflow(f"exponent exceeds {MAX_EXPONENT}")


def _top(polys: Iterable[Polynomial]) -> int:
    """The largest exponent entry of the polynomials, 0 if none."""
    return max((x for p in polys for e in p.terms for x in e), default=0)


# ---------------------------------------------------------------------------
# core algorithms


def _cleared(p: Polynomial) -> tuple:
    """(terms, d): p's coefficients times their least common denominator d,
    as ints."""
    d = lcm(*[c.denominator for c in p.terms.values()])
    return {e: c.numerator * (d // c.denominator) for e, c in p.terms.items()}, d


def _primitive(terms: dict) -> dict:
    """`terms`, whose first term is the lead, divided by its integer content
    and signed so that the lead coefficient is positive."""
    k = gcd(*terms.values())
    if next(iter(terms.values())) < 0:
        k = -k
    if k == 1:
        return terms
    return {e: c // k for e, c in terms.items()}


def _normal_form(terms: dict, divisors: list, packing: _Packing) -> tuple:
    """Fraction-free full normal form of the integer polynomial `terms`.

    `divisors` are (lead, integer polynomial) pairs whose lead coefficients
    are positive; every exponent is packed by `packing`.  Returns (r, m): the
    integer polynomial r = m*terms - (a combination of divisors), with no
    term divisible by any lead, and the positive multiplier m, so r/m is the
    normal form of `terms`.  r lists its terms largest first.

    A term c*x^e with lead l of g dividing e is removed by terms := (a/k)*terms
    - (c/k)*x^(e-l)*g, where a is g's lead coefficient and k = gcd(a, c): the
    factor a/k scales both the terms still to be reduced and those already in
    r, and multiplies m.  Terms are taken largest first from a heap of
    negated words, whose smallest entry is the largest term, as words sort
    as the order does (`_Packing`).  A term that cancels stays in the heap
    and is skipped when popped: every term a reduction step adds is smaller
    than the one it removes, so a popped exponent never comes back.  A new
    term whose exponent outgrows its field raises _FieldOverflow.
    """
    guard, bias = packing.guard, packing.bias
    work = dict(terms)
    heap = [-e for e in work]
    heapq.heapify(heap)
    out: dict = {}
    mult = 1
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        e = -pop(heap)
        c = work.pop(e, None)
        if c is None:
            continue
        eg = e | guard
        for l, g in divisors:
            if (eg - l) & guard == guard:  # x^l divides x^e
                break
        else:
            out[e] = c
            continue
        shift = e - l
        a = g[l]
        k = gcd(a, c)
        a //= k
        c //= k
        if a != 1:
            mult *= a
            work = {x: y * a for x, y in work.items()}
            out = {x: y * a for x, y in out.items()}
        for x, cg in g.items():
            if x == l:
                continue
            et = x + shift
            c0 = work.get(et)
            if c0 is None:
                if (et + bias) & guard:
                    raise _FieldOverflow
                work[et] = -c * cg
                push(heap, -et)
            else:
                c0 -= c * cg
                if c0:
                    work[et] = c0
                else:
                    del work[et]
    return out, mult


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """The remainder of p on division by G, with no term divisible by a lead
    of G: exact, and unique because G is a Groebner basis.

    Computed fraction-free (see `_normal_form`): p and each element of G are
    cleared of denominators and packed, and the remainder is divided by p's
    common denominator and the multiplier the reduction tracked.
    """
    if p.vars and G.elements and p.vars != G.elements[0].vars:
        raise DimensionMismatch("polynomial and basis in different rings")
    if not p.terms or not G.elements:
        return p
    terms, d = _cleared(p)

    def run(packing):
        divisors = [(packing.pack(l), packing.packed(_cleared(g)[0]))
                    for l, g in zip(G.leads, G.elements)]
        r, m = _normal_form(packing.packed(terms), divisors, packing)
        return {packing.unpack(e): c for e, c in r.items()}, m

    r, m = _widening(len(p.vars), _top([p, *G.elements]), G.order, run)
    d *= m
    return Polynomial._trusted(p.vars, {e: Fraction(c, d) for e, c in r.items()})


def _spoly(f: dict, g: dict, l: int, packing: _Packing) -> dict:
    """Integer S-polynomial (b/k)*x^sf*f - (a/k)*x^sg*g of f and g, whose
    first terms are their leads ef and eg, with lead coefficients a and b,
    k = gcd(a, b), and x^sf*ef = x^sg*eg = l the lcm of the leads, which
    cancels; exponents are packed words, and one that outgrows its field
    raises _FieldOverflow."""
    ef, eg = next(iter(f)), next(iter(g))
    a, b = f[ef], g[eg]
    k = gcd(a, b)
    a //= k
    b //= k
    sf, sg = l - ef, l - eg
    terms = {e + sf: b * c for e, c in f.items() if e != ef}
    for e, c in g.items():
        if e != eg:
            e += sg
            c = terms.pop(e, 0) - a * c
            if c:
                terms[e] = c
    guard, bias = packing.guard, packing.bias
    if any((e + bias) & guard for e in terms):
        raise _FieldOverflow
    return terms


def _interreduce(divisors: list, vars: tuple, packing: _Packing) -> tuple:
    """(elements, leads) of the unique reduced basis: monic Fraction
    polynomials sorted by lead, and their leads, with unpacked exponents.

    `divisors` are packed (lead, integer polynomial) pairs with positive lead
    coefficients, such as the active pairs of `buchberger`: no lead divides
    another, so each element keeps its lead when its tail is reduced by the
    others.  The exponents are unpacked here, once per output term.
    """
    unpack = packing.unpack
    reduced = []
    for i, (l, g) in enumerate(divisors):
        r, _ = _normal_form(g, divisors[:i] + divisors[i + 1:], packing)
        lc = r[l]
        reduced.append((-l, unpack(l), Polynomial._trusted(
            vars, {unpack(e): Fraction(c, lc) for e, c in r.items()})))
    reduced.sort(key=operator.itemgetter(0))
    return [p for _, _, p in reduced], [l for _, l, _ in reduced]


def buchberger(I: Ideal, order: TermOrder | None = None,
               hilbert: Sequence[Exponent] | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of I under `order` (default degrevlex).

    Pairs are kept by the Gebauer-Moller update.  A new element is paired
    only with the basis elements whose lead no later lead divides, and the
    new pairs are pruned by three criteria: M (another new pair's lcm
    properly divides the lcm), F (of several new pairs with one lcm, one
    survives) and B (a pair whose leads are coprime is dropped, and so is
    every new pair with the same lcm).  An old pair is dropped when the new
    lead divides its lcm and both lcms with the new lead differ from it.
    Pairs are taken degree by degree: smallest (degree of the lcm, lcm)
    first, the degree in I's grading, or the standard one when I carries
    none.  For I homogeneous in that grading a pair's S-polynomial and its
    normal form lie in the lcm's degree, so the basis grows degree by
    degree; on other input, under a total-degree-first order, this is
    Buchberger's normal strategy.  The output is the unique reduced basis,
    independent of the generator order.

    The arithmetic is fraction-free (Geddes, Czapor & Labahn 1992): the
    generators are cleared of denominators once, S-polynomials and normal
    forms are integer combinations (`_spoly`, `_normal_form`), and every
    element joins the basis as a primitive integer polynomial, its content
    divided out.  `Fraction` appears only in the final interreduction, which
    makes each element monic.

    Inside, each exponent is one int, a word, that holds the order's key
    above a fixed-width field per variable (`_Packing`), so that ints
    compare as the order does: the generators are packed on entry,
    products, quotients, comparisons, divisibility tests and lcms are a
    few int operations, and the final interreduction unpacks.  The width is the narrowest that holds
    _HEADROOM times the largest input exponent; when a product outgrows a
    field, the whole computation reruns at the next width, and past
    MAX_EXPONENT it raises DegreeOverflow.

    An order that is not a well-order needs I homogeneous for its grading
    (NotHomogeneous otherwise): then every reduction stays in one degree,
    among finitely many monomials, and the algorithm ends.  I not
    homogeneous for its grading, under a well-order whose first row is not
    the total degree (lex, elimination and weight orders), goes through
    `_via_homogenization`.

    `hilbert`, when given, is the lead exponents of a Groebner basis, under
    any order, of an ideal with the Hilbert function of I; I must then be
    homogeneous for its grading (NotHomogeneous otherwise), so that pairs
    come degree by degree, each degree counted in that grading's weights.
    Each exponent is checked before any Groebner work: DimensionMismatch
    for a wrong length, ValueError for an entry that is negative or not an
    integer, DegreeOverflow for one past MAX_EXPONENT.  At the first pair
    of degree d the engine reads h = dim (k[x]/L)_d for the ideal L of the
    current leads (one of higher degree divides no monomial of degree d,
    so none is filtered out), and lowers h by one for each new lead of
    degree d (a normal form's lead lies outside L).  L is inside in(I),
    whose Hilbert function is that of I, so h is never below the target's
    value (ValueError if it is: the target is not I's); once it reaches
    it, L and in(I) agree in degree d, every pair left in that degree
    reduces to zero, and those pairs are dropped (Traverso 1996, Hilbert
    functions and the Buchberger algorithm).  The result does not change.
    The counts of L are kept in one table over the degrees up to twice
    the degree of its first count, updated lead by lead through colon
    ideals and recounted past its top (`_LeadCounts`); every count is one
    packed Hilbert numerator (`_hilbert_numerator`).

    A target whose Hilbert function is larger than I's in some degree is
    caught only where it is also larger than h; otherwise the pairs of
    that degree are dropped too early, and the result is wrong with no
    error.  On (x^2 - y*z, x*y - z^2) in k[x, y, z] the target
    [(2, 0, 0), (1, 1, 0)] claims one standard monomial too many in degree
    3, and two elements come back where the basis has three.
    """
    if order is None:
        order = _degrevlex(len(I.vars))
    if order.nvars != len(I.vars):
        raise DimensionMismatch("order does not match the ideal's ring")
    if hilbert is not None:
        hilbert = [_target_exponent(e, len(I.vars)) for e in hilbert]
    if hilbert is not None or not order.well_ordered:
        homogeneous_grading(I)
    elif (I.grading is None and I.vars and order.rows[0] != _degrevlex(len(I.vars)).rows[0]
          and not all(map(Grading.standard(len(I.vars)).is_homogeneous, I.gens))):
        return _via_homogenization(I, order)  # an attached grading was checked
    return _widening(len(I.vars), _top(I.gens), order,
                     lambda packing: _pair_loop(I, order, hilbert, packing))


def _target_exponent(e, n: int) -> Exponent:
    """One exponent of a Hilbert target, checked: n entries (DimensionMismatch
    otherwise), each an integer (ValueError otherwise) from 0 to
    MAX_EXPONENT (ValueError below, DegreeOverflow above)."""
    e = tuple(exact_int(x, "Hilbert target entry") for x in e)
    if len(e) != n:
        raise DimensionMismatch("Hilbert target exponent length does not match variables")
    if any(x < 0 for x in e):
        raise ValueError(f"Hilbert target exponent {e} has a negative entry")
    if any(x > MAX_EXPONENT for x in e):
        raise DegreeOverflow(f"exponent exceeds {MAX_EXPONENT}")
    return e


def _via_homogenization(I: Ideal, order: TermOrder) -> GroebnerBasis:
    """`buchberger` for I not homogeneous in its grading, under a well-order
    whose first row is not the total degree.  Run directly, such an order
    lets the pair loop build coefficients far larger than the answer's.

    I^h (`_homogenized`) is homogeneous, and its basis is taken under total
    degree, then `order` with h weighted 0: within one degree the x-part of
    a monomial fixes its h-part, so that order restricted to a degree is
    `order` on the x-part.  Hence, for f in I, the lead of f^h is the lead
    of f times a power of h, and a lead of the basis divides it: setting
    h = 1 in the basis gives a Groebner basis of I under `order`.  The
    elements whose leads are minimal are interreduced into the unique
    reduced basis."""
    n = len(I.vars)
    Gh = buchberger(_homogenized(I), _lifted(order))
    found = {}  # x-part of a lead -> its element with h = 1
    for g, l in zip(Gh.elements, Gh.leads):
        found.setdefault(l[:n], _at_h_one(g, I.vars))
    leads = _minimal(found)
    return _interreduced([found[l] for l in leads], leads, I.vars, order)


def _lifted(order: TermOrder) -> TermOrder:
    """The order of `_via_homogenization` on k[vars, h]: total degree, then
    `order` with h weighted 0."""
    n = order.nvars
    return TermOrder(n + 1, [_form((1,) * (n + 1)), *order.rows])


def _homogenized(I: Ideal) -> Ideal:
    """I^h in k[vars, h], h a new last variable, with no grading attached:
    the homogenizations g^h of I's degrevlex reduced basis generate it
    (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, §8.4, Thm. 4),
    and it is homogeneous in the standard grading."""
    big = I.vars + (_fresh_name("h", I.vars),)
    gens = []
    for g in reduced_basis(I).elements:
        d = max(map(sum, g.terms))
        gens.append(Polynomial._trusted(big, {e + (d - sum(e),): c
                                              for e, c in g.terms.items()}))
    return Ideal(gens, big)


def _at_h_one(g: Polynomial, vars: tuple) -> Polynomial:
    """g over `vars` plus a last variable h, homogeneous, with h set to 1:
    distinct terms of one degree differ off h, so no two terms merge."""
    return Polynomial._trusted(vars, {e[:-1]: c for e, c in g.terms.items()})


def _pair_loop(I: Ideal, order: TermOrder, hilbert, packing: _Packing) -> GroebnerBasis:
    """`buchberger` on exponents packed by `packing`.  Pair bookkeeping
    works on the leads' plain fields.  Pairs pop by the lcm's degree in I's
    grading (standard when I carries none), then by its key, both read off
    the unpacked lcm when the pair is made; the popped key rebuilds the
    lcm's word for `_spoly`."""
    unpack, shift, mask = packing.unpack, packing.shift, packing.mask
    guard, high = packing.guard, packing.width - 1
    weights = (I.grading or Grading.standard(len(I.vars))).weights
    V = packing.weights
    mul = operator.mul
    target: list = []  # the Hilbert function of `hilbert`, extended on demand
    counts = None if hilbert is None else _LeadCounts(weights, packing)

    basis: list[dict] = []  # primitive integer polynomials, lead first
    leads: list[int] = []  # their leads' plain fields
    active: list[int] = []  # elements whose lead no later lead divides
    reducers: list = []  # (lead word, element) of the active elements
    pairs: dict = {}  # (i, j) -> lcm; heap entries of missing pairs are stale
    heap: list = []  # (degree(lcm), key(lcm), i, j)

    # the packed tests of `_Packing`'s docstring, inlined below: x^b divides
    # x^a when ((a | guard) - b) & guard == guard, and with d that guard
    # word for a and b, the lcm is b ^ ((a ^ b) & (d - (d >> high))), as in
    # `_Packing.lcm`
    def add(r: dict):
        r = _primitive(r)
        j = len(basis)
        ej = next(iter(r)) & mask
        basis.append(r)
        leads.append(ej)
        # new pairs, by packed lcm: a proper divisor of an lcm is a smaller
        # int, so criterion M looks only at the lcms kept before it
        new = []
        for i in active:
            a = leads[i]
            d = ((a | guard) - ej) & guard
            new.append((ej ^ ((a ^ ej) & (d - (d >> high))), i))
        new.sort()
        kept: list = []  # [lcm, i, coprime]
        for l, i in new:
            coprime = l == leads[i] + ej  # the lcm is the product
            if kept and kept[-1][0] == l:
                kept[-1][2] = kept[-1][2] or coprime
                continue
            lg = l | guard
            for k in kept:
                if (lg - k[0]) & guard == guard:
                    break
            else:
                kept.append([l, i, coprime])
        # the old-pair rule: ej divides l, and lcm(a, ej) != l != lcm(b, ej)
        for p, l in list(pairs.items()):
            if ((l | guard) - ej) & guard == guard:
                a, b = leads[p[0]], leads[p[1]]
                d = ((a | guard) - ej) & guard
                if ej ^ ((a ^ ej) & (d - (d >> high))) != l:
                    d = ((b | guard) - ej) & guard
                    if ej ^ ((b ^ ej) & (d - (d >> high))) != l:
                        del pairs[p]
        for l, i, coprime in kept:
            if not coprime:
                pairs[i, j] = l
                e = unpack(l)
                heapq.heappush(heap, (sum(map(mul, weights, e)), sum(map(mul, V, e)), i, j))
        active[:] = [i for i in active if ((leads[i] | guard) - ej) & guard != guard]
        active.append(j)
        reducers[:] = [(next(iter(basis[i])), basis[i]) for i in active]

    # seed with successive normal forms of the generators; unlike the final
    # interreduction this never drops ideal content
    for g in I.gens:
        r = _normal_form(packing.packed(_cleared(g)[0]), reducers, packing)[0]
        if r:
            add(r)

    deg = gap = -1  # with a target: h minus the target's value in degree deg
    while heap:
        d, k, i, j = heapq.heappop(heap)
        l = pairs.pop((i, j), None)
        if l is None:
            continue
        if counts is not None:
            if d != deg:
                deg = d
                if deg >= len(target):
                    target = _hilbert_function(hilbert, weights, 2 * deg)
                gap = counts.at(deg, leads) - target[deg]
                if gap < 0:
                    raise ValueError("the Hilbert target exceeds the ideal's "
                                     f"Hilbert function in degree {deg}")
            if not gap:
                continue
        r = _normal_form(_spoly(basis[i], basis[j], (k << shift) | l, packing),
                         reducers, packing)[0]
        if r:
            add(r)
            gap -= 1

    elements, leads = _interreduce(reducers, I.vars, packing)
    return GroebnerBasis(elements, order, leads)


class _LeadCounts:
    """dim_k (k[x]/L)_D in the degrees D = 0..top, for L generated by the
    leads a pair loop has found, kept up to date one lead at a time.

    For a monomial m of degree d in the grading, multiplying by m makes
    0 -> (k[x]/(L : m))(-d) -> k[x]/L -> k[x]/(L + m) -> 0 exact, so
    HF(L + m)(D) = HF(L)(D) - HF(L : m)(D - d), and L : m is generated by
    lcm(l, m) - m, in packed fields, for the generators l of L.  The table
    is counted from scratch, to twice the degree asked, at the first count
    and at every count past its top degree.
    """

    __slots__ = ("weights", "packing", "values", "gens", "seen")

    def __init__(self, weights: Sequence[int], packing: _Packing):
        self.weights = weights
        self.packing = packing
        self.values: list = []  # HF(k[x]/L) in the degrees 0..top
        self.gens: list = []  # L's minimal generators, plain fields
        self.seen = 0  # the leads counted into L

    def at(self, deg: int, leads: list) -> int:
        """dim_k (k[x]/L)_deg for L generated by `leads`, the plain fields
        of the loop's leads, of which those counted before come first."""
        weights, packing = self.weights, self.packing
        top = len(self.values) - 1
        if deg > top:
            self.values = _packed_hilbert_function(leads, weights, 2 * deg, packing)
            self.gens = _minimal_fields(leads, packing.guard)
        else:
            values, lcm, guard = self.values, packing.lcm, packing.guard
            for m in leads[self.seen:]:
                d = sum(map(operator.mul, weights, packing.unpack(m)))
                if d <= top:
                    colon = [lcm(l, m) - m for l in self.gens]
                    for D, h in enumerate(_packed_hilbert_function(colon, weights, top - d,
                                                                   packing), d):
                        values[D] -= h
                self.gens = [g for g in self.gens if ((g | guard) - m) & guard != guard]
                self.gens.append(m)
        self.seen = len(leads)
        return self.values[deg]


def reduced_basis(I: Ideal) -> GroebnerBasis:
    """Degrevlex reduced basis, cached on the ideal."""
    if I._rgb_cache is None:
        I._rgb_cache = buchberger(I)
    return I._rgb_cache


def canonical(I: Ideal) -> Ideal:
    """The ideal regenerated by its degrevlex reduced basis."""
    return _with_basis(reduced_basis(I), I.vars, I.grading)


def _with_basis(G: GroebnerBasis, vars: Sequence[str],
                grading: Grading | None) -> Ideal:
    """The ideal generated by G, a degrevlex reduced basis over `vars`, with
    G installed as its cached basis: the one place a basis computed
    elsewhere is installed.  The reduced basis does not depend on the grading, so any grading for
    which G is homogeneous may be attached."""
    I = Ideal(G.elements, vars, grading=grading)
    I._rgb_cache = G
    return I


def _from_degrevlex_basis(elements: Sequence[Polynomial], leads: Sequence[Exponent],
                          vars: Sequence[str], grading: Grading | None) -> Ideal:
    """The ideal generated by `elements`, a degrevlex Groebner basis over
    `vars` as `_interreduced` takes it, in canonical form with no pair loop."""
    vars = tuple(vars)
    return _with_basis(_interreduced(elements, leads, vars, _degrevlex(len(vars))),
                       vars, grading)


def _interreduced(elements: Sequence[Polynomial], leads: Sequence[Exponent],
                  vars: tuple, order: TermOrder) -> GroebnerBasis:
    """The reduced basis under `order` of the ideal generated by `elements`,
    a Groebner basis under it over `vars` whose leads `leads` do not divide
    one another, as in a reduced basis: `buchberger`'s final interreduction
    turns them into it, with no pair loop."""
    def run(packing):
        return _interreduce([(packing.pack(l), packing.packed(_cleared(g)[0]))
                             for l, g in zip(leads, elements)], vars, packing)

    basis, leads = _widening(len(vars), _top(elements), order, run)
    return GroebnerBasis(basis, order, leads)


def same_ideal(I: Ideal, J: Ideal) -> bool:
    if I.vars != J.vars:
        return False
    return list(reduced_basis(I).elements) == list(reduced_basis(J).elements)


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True if J is a subset of I."""
    G = reduced_basis(I)
    return all(normal_form(g, G).is_zero() for g in J.gens)


# ---------------------------------------------------------------------------
# initial ideals


def initial_ideal(I: Ideal, spec) -> Ideal:
    """Initial ideal of I.

    `spec` is either a TermOrder (result: the monomial ideal of leading
    terms), a single weight vector, or a sequence of weight rows applied
    lexicographically, in the min convention.  For a TermOrder the leads of
    I's reduced basis under it do not divide one another, so as monomials
    they are already a degrevlex reduced basis, installed with no second
    pair loop.  For weights the result is
    generated by the initial forms of I's reduced basis under the rows
    refined by degrevlex, and is made canonical by interreduction alone
    (`_weight_basis`).
    """
    if isinstance(spec, TermOrder):
        G = buchberger(I, spec)
        gens = [Polynomial.monomial(I.vars, e) for e in G.leads]
        return _from_degrevlex_basis(gens, G.leads, I.vars, I.grading)
    return _weight_basis(I, _weight_rows(spec, len(I.vars)))[1]


def _weight_order(rows, nvars: int) -> TermOrder:
    """The weight rows in the min convention, the smaller weight being the
    bigger monomial row by row, with the remaining ties broken by degrevlex.
    A well-order exactly when the first nonzero entry of every column is
    negative, or the column is zero."""
    return TermOrder(nvars, [*[_form(-x for x in r) for r in rows], *_degrevlex(nvars).rows])


def _weight_basis(I: Ideal, rows) -> tuple:
    """(G, in_rows(I)): I's reduced basis G under `_weight_order(rows)`, and
    the initial ideal of I for the rows, in canonical form, read off G's
    initial forms with no pair loop.

    Why the initial forms are a degrevlex Groebner basis of in_rows(I), with
    G's leads (Sturmfels 1996, Groebner Bases and Convex Polytopes, Cor.
    1.9).  Write in(f) for the initial form of f under the rows: its terms
    are those of f whose vector of row weights is lexicographically least.
    - For any f, the lead of f under the order is the degrevlex lead of
      in(f), as the order compares the row weights first.
    - Let h be in in_rows(I), the ideal of the in(f) for f in I:
      h = sum c_i m_i in(f_i) with monomials m_i.  Group the sum by the
      row-weight vector D of m_i in(f_i).  The part at D is h_D, h's terms
      of row weight D.  F = sum over that group of c_i m_i f_i lies in I,
      its terms of weight D sum to h_D and all others are of larger
      weight, so in(F) = h_D when h_D is nonzero.
    - The degrevlex lead of h is that of some h_D, which is the lead of F
      under the order, and so divisible by a lead of G.
    So the degrevlex leads of in(g), g in G, generate the degrevlex initial
    ideal of in_rows(I), which the in(g) lie in.  They are monic with G's
    leads, none dividing another, so `_from_degrevlex_basis` interreduces
    them into the reduced basis.  Nothing here needs I homogeneous; only
    `buchberger` does, when the order is not a well-order.
    """
    G = buchberger(I, _weight_order(rows, len(I.vars)))
    init = _from_degrevlex_basis([initial_form_rows(g, rows) for g in G.elements],
                                 G.leads, I.vars, I.grading)
    return G, init


def _weight_rows(spec, nvars: int) -> tuple:
    """Normalize a weight spec (vector, row list, or matrix-like) to rows."""
    if hasattr(spec, "rows_list"):
        rows = spec.rows_list()
    else:
        spec = list(spec)
        if spec and isinstance(spec[0], (list, tuple)):
            rows = [tuple(r) for r in spec]
        else:
            rows = [tuple(spec)]
    rows = tuple(tuple(exact_int(x, "weight") for x in r) for r in rows)
    for r in rows:
        if len(r) != nvars:
            raise DimensionMismatch("weight row length does not match variables")
    return rows


# ---------------------------------------------------------------------------
# elimination, saturation, kernels


def eliminate(I: Ideal, keep: Sequence[str]) -> Ideal:
    """I intersected with k[keep], over `keep` in its given order, from I's
    basis under the weight -1 on the other variables and 0 on `keep`, then
    degrevlex (`_weight_order`), which eliminates the other variables.
    The names are checked before any Groebner work."""
    keep = _distinct(_known(I.vars, keep))
    w = [0 if v in keep else -1 for v in I.vars]
    return _eliminated(I, buchberger(I, _weight_order([w], len(I.vars))), keep)


def _eliminated(I: Ideal, G: GroebnerBasis, keep: tuple) -> Ideal:
    """I intersected with k[keep], in canonical form and with the grading of
    I restricted to `keep`, from I's basis G under `_weight_order` for the
    weight -1 on the other variables and 0 on `keep`.

    The order's first key entry is the total degree in the other
    variables, so a monomial holding one of them beats every monomial free
    of them: the order eliminates them, and is a well-order.  For f in I
    free of them, some lead of G divides f's lead, so that lead is free of
    them; it is its element's largest term, so the whole element is.
    Hence G's elements whose leads are free of the other variables,
    restricted to `keep`, are a Groebner basis of the intersection, under
    degrevlex when `keep` is in ring order.  Then `_from_degrevlex_basis`
    makes it canonical; otherwise Buchberger does.
    """
    idx = [I.vars.index(v) for v in keep]
    drop = set(range(len(I.vars))).difference(idx)
    found = [(g.restrict(keep), tuple(l[i] for i in idx))
             for g, l in zip(G.elements, G.leads) if not any(l[i] for i in drop)]
    restricted = [g for g, _ in found]
    grading = None
    if I.grading is not None:
        grading = Grading([I.grading.weights[i] for i in idx])
    if idx == sorted(idx):
        return _from_degrevlex_basis(restricted, [l for _, l in found], keep, grading)
    return canonical(Ideal(restricted, keep, grading=grading))


def _fresh_name(base: str, used: Sequence[str]) -> str:
    name = base
    k = 0
    while name in used:
        name = f"{base}{k}"
        k += 1
    return name


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^infinity) for a monomial f = c*x^a, c nonzero (ValueError for
    any other f), in canonical form and with the grading of I.

    It is the successive saturation by each x_i in supp(a), one
    `_saturate_variable_graded` step each (Sturmfels, Lemma 12.1), under
    the grading in effect for I (`homogeneous_grading`) when I is
    homogeneous for it; otherwise on I^h (`_homogenized`), under the
    standard grading, and then h is set to 1.  A step makes at most one
    pair loop: none when the elements of I's installed degrevlex basis
    keep their leads under the step's order, by the one rule of
    `_keeps_leads`.  When the last step's result keeps its leads under
    degrevlex, it is installed, and the final `canonical` makes no pair
    loop either.  For a monomial m in the x variables, (I^h : m^infinity)
    at h = 1 is I : m^infinity:
    - inside: setting h = 1 is a ring map that sends I^h onto I, so
      m^k*g in I^h gives m^k*g(x, 1) in I;
    - onto: m^k*g in I gives m^k*g^h = (m^k*g)^h in I^h, as homogenization
      is multiplicative, and g^h at h = 1 is g; a ring map onto k[x] sends
      the generators of an ideal to generators of its image.
    Every basis of I^h and of its saturations is homogeneous, so setting
    h = 1 merges no terms (`_at_h_one`).
    """
    if f.is_zero():
        raise ValueError("cannot saturate by 0")
    if f.vars != I.vars:
        raise DimensionMismatch("polynomial in a different ring")
    if len(f.terms) != 1:
        raise ValueError(f"can only saturate by a monomial, not {format_polynomial(f)}")
    (a,) = f.terms
    names = [v for v, k in zip(I.vars, a) if k]
    if not names:
        return canonical(I)
    try:
        J, w = I, homogeneous_grading(I).weights
    except NotHomogeneous:
        J, w = _homogenized(I), (1,) * (len(I.vars) + 1)
    for name in names:
        J = _saturate_variable_graded(J, name, w)
    if J.vars != I.vars:
        J = Ideal([_at_h_one(g, I.vars) for g in J.gens], I.vars)
    return canonical(J)


def saturate_by_variables(I: Ideal, var_names: Sequence[str]) -> Ideal:
    """(I : x^infinity) for the product x of the named variables, in
    canonical form and with the grading of I, by one `saturate`.  The
    names are checked before any Groebner work."""
    a = [0] * len(I.vars)
    for name in _known(I.vars, var_names):
        a[I.vars.index(name)] = 1
    return saturate(I, Polynomial.monomial(I.vars, a))


def _graded_last(w: Sequence[int], i: int) -> TermOrder:
    """The w-graded order whose leading term minimizes the exponent of x_i:
    w.e first, then -e[i], then reversed lex on the other variables.

    For a w-homogeneous polynomial the leading term has minimal degree in
    x_i; hence x_i divides the lead only when it divides every term, which
    is what makes content-division compute (I : x_i^infinity).
    """
    rest = [j for j in reversed(range(len(w))) if j != i]
    return TermOrder(len(w), [_form(w), ((i, -1),), *[((j, -1),) for j in rest]])


def _saturate_variable_graded(I: Ideal, name: str, w: Sequence[int]) -> Ideal:
    """(I : x^infinity) for the w-homogeneous I, with the grading of I.

    It divides each element of a Groebner basis B of I under
    `_graded_last(w, i)` by its x-content.  The lead of a w-homogeneous
    element under that order has the least x-exponent of its terms, so the
    divided elements are a Groebner basis of the saturation under that
    order, whose leads are B's with x removed (Sturmfels, Lemma 12.1).
    B is I's installed degrevlex basis when its elements keep their leads
    under that order (`_keeps_leads`), and otherwise one run under it.
    The divided elements are cut to those with minimal leads, which still
    generate the initial ideal.  When these keep their leads under
    degrevlex, the same rule makes them a degrevlex basis, installed by
    `_from_degrevlex_basis`, so the next step and `canonical` start from it
    with no pair loop; otherwise they are returned as generators.
    """
    i = I.vars.index(name)
    order = _graded_last(w, i)
    B = I._rgb_cache
    if B is None or not _keeps_leads(B.elements, B.leads, order):
        B = buchberger(I, order)
    found = {}  # divided lead -> the first divided element with it
    for g, l in zip(B.elements, B.leads):
        found.setdefault(l[:i] + (0,) + l[i + 1:], _divided(g, i))
    leads = _minimal(found)
    divided = [found[l] for l in leads]
    if _keeps_leads(divided, leads, _degrevlex(len(I.vars))):
        return _from_degrevlex_basis(divided, leads, I.vars, I.grading)
    return Ideal(divided, I.vars, grading=I.grading)


def _keeps_leads(elements: Sequence[Polynomial], leads: Sequence[Exponent],
                 order: TermOrder) -> bool:
    """Whether each element's lead under `order` is its entry of `leads`.

    The one rule by which a Groebner basis serves a second order: let I be
    homogeneous for a positive grading and G a Groebner basis of I under a
    term order <1, with leads `leads`.  If every element of G keeps its lead
    under a term order <2, G is a Groebner basis of I under <2.  The leads
    lie in in_<2(I) and generate in_<1(I), and both initial ideals have I's
    Hilbert function, so the inclusion is an equality in every degree.
    """
    return all(max(g.terms, key=order.key) == l for g, l in zip(elements, leads))


def _divided(g: Polynomial, i: int) -> Polynomial:
    """g divided by its x_i-content, the least exponent of x_i in its
    terms."""
    m = min(e[i] for e in g.terms)
    if not m:
        return g
    return Polynomial._trusted(g.vars, {e[:i] + (e[i] - m,) + e[i + 1:]: c
                                        for e, c in g.terms.items()})


def ring_map_kernel(source_vars: Sequence[str], images: Sequence[Polynomial],
                    target: Ideal) -> Ideal:
    """Kernel of k[source_vars] -> k[target.vars]/target, x_i -> image_i.

    Computed from the graph ideal (x_i - image_i) + target by eliminating the
    target variables.  When the target is homogeneous and each image is
    homogeneous of positive degree for its grading, the graph ideal is
    graded by giving x_i the degree of image_i, so `buchberger` runs on it
    directly rather than through homogenization, which is slower on such
    ideals.  The kernel is returned without a grading either way.
    """
    source_vars = tuple(source_vars)
    if len(source_vars) != len(images):
        raise DimensionMismatch("one image per source variable required")
    if set(source_vars) & set(target.vars):
        raise ValueError("source and target variable names must be disjoint")
    big = target.vars + source_vars
    gens = []
    for name, img in zip(source_vars, images):
        if img.vars != target.vars:
            raise DimensionMismatch("images must live in the target ring")
        gens.append(Polynomial.variable(big, name) - img.extend(big))
    gens.extend(g.extend(big) for g in target.gens)
    K = eliminate(Ideal(gens, big, grading=_graph_grading(target, images)), source_vars)
    return _with_basis(reduced_basis(K), source_vars, None)


def _graph_grading(target: Ideal, images: Sequence[Polynomial]) -> Grading | None:
    """The target's grading extended by the degree of each image, or None
    when the target or an image is not homogeneous or an image's degree is
    not positive."""
    try:
        grading = homogeneous_grading(target)
    except NotHomogeneous:
        return None
    degrees = []
    for img in images:
        d = {grading.degree(e) for e in img.terms}
        if len(d) != 1 or 0 in d:
            return None
        degrees.append(d.pop())
    return Grading(grading.weights + tuple(degrees))


# ---------------------------------------------------------------------------
# graded dimensions


def _hilbert_numerator(gens: list, weights: Sequence[int], top: int,
                       packing: _Packing) -> list:
    """Coefficients of t^0..t^top in the numerator N(t) of the Hilbert series
    N(t) / prod(1 - t^w_i) of k[x] / (x^a : a in gens), for `gens` the plain
    fields of exponents packed by `packing`.

    Pivots on p = x_i^k, for the variable x_i that the most minimal
    generators share and its least positive exponent k:
    N(I) = N(I + p) + t^deg(p) N(I : p) (Bayer & Stillman 1992; Bigatti
    1997).  Pairwise coprime generators give prod (1 - t^deg a).  The terms
    of t^deg(p) N(I : p) start at t^deg(p), so a pending ideal whose shift
    exceeds `top` is dropped.  The generators holding each variable are
    counted at once, as a sum of their fields' nonzero flags, in chunks of
    at most 2^width - 1 generators, so that no field's count carries into
    the next.
    """
    width, guard, unpack = packing.width, packing.guard, packing.unpack
    ones = guard >> (width - 1)
    field = (1 << width) - 1
    mul = operator.mul
    num = [0] * (top + 1)
    stack = [(0, _minimal_fields(gens, guard))]
    while stack:
        shift, gens = stack.pop()
        if shift > top:
            continue
        # the guard bit of (g | guard) - ones stays set where g's field is
        # positive
        counts = [0] * len(weights)
        for c in range(0, len(gens), field):
            flags = sum([((g | guard) - ones) & guard for g in gens[c:c + field]])
            counts = list(map(operator.add, counts, unpack(flags >> (width - 1))))
        most = max(counts, default=0)
        if most < 2:
            part = [0] * (top + 1)
            part[shift] = 1
            for a in gens:
                d = sum(map(mul, weights, unpack(a)))
                for j in range(top, d - 1, -1):  # times (1 - t^d)
                    part[j] -= part[j - d]
            num = list(map(operator.add, num, part))
            continue
        i = counts.index(most)
        at = i * width
        xs = [(g >> at) & field for g in gens]
        k = min(x for x in xs if x)
        p = k << at  # every generator with x_i is a multiple of p
        stack.append((shift, [g for g, x in zip(gens, xs) if not x] + [p]))
        colon = [g - (min(x, k) << at) for g, x in zip(gens, xs)]
        stack.append((shift + k * weights[i], _minimal_fields(colon, guard)))
    return num


def _minimal_fields(gens: Iterable[int], guard: int) -> list:
    """The minimal ones of `gens`, plain packed fields with guard bits
    `guard`, under divisibility, without repeats, in increasing order: a
    proper divisor is a smaller int."""
    out: list = []
    for g in sorted(set(gens)):
        g_guard = g | guard
        for h in out:
            if (g_guard - h) & guard == guard:
                break
        else:
            out.append(g)
    return out


def _minimal(exps) -> list:
    """The minimal exponents of `exps` under divisibility, without repeats;
    a proper divisor has smaller total degree."""
    le = operator.le
    out: list = []
    for g in sorted(set(exps), key=sum):
        if not any(all(map(le, h, g)) for h in out):
            out.append(g)
    return out


def _packed_hilbert_function(gens: list, weights: Sequence[int], top: int,
                             packing: _Packing) -> list:
    """dim_k of k[x] / (x^a : a in gens) in the degrees 0..top, for `gens`
    the plain fields of exponents packed by `packing`: the Hilbert numerator
    divided by each (1 - t^w)."""
    series = _hilbert_numerator(gens, weights, top, packing)
    for w in weights:  # divide by (1 - t^w), in place, up to t^top
        for d in range(w, top + 1):
            series[d] += series[d - w]
    return series


def _hilbert_function(leads: Sequence[Exponent], weights: Sequence[int],
                      top: int) -> list:
    """dim_k of k[x] / (x^a : a in leads) in the degrees 0..top, with the
    leads packed at the narrowest width that holds their largest entry:
    minimal generators, colons and pivots only lower entries.  The
    packing's order is never read."""
    n = len(weights)
    big = max((x for e in leads for x in e), default=0)
    width = next(w for w in _WIDTHS if big < 1 << (w - 1))
    packing = _Packing(n, width, _degrevlex(n))
    return _packed_hilbert_function([packing.fields(e) for e in leads], weights, top,
                                    packing)


def _graded_dimensions(I: Ideal, degrees: Sequence[int]) -> list:
    """dim_k of (k[vars]/I) in each of the given degrees; order-independent.

    Read off the Hilbert function, up to the top degree, of the degrevlex
    leading-term ideal, which has the Hilbert function of I.
    """
    weights = homogeneous_grading(I).weights
    if any(m < 0 for m in degrees):
        raise ValueError("degree must be nonnegative")
    series = _hilbert_function(reduced_basis(I).leads, weights, max(degrees, default=0))
    return [series[m] for m in degrees]


def graded_dimension(I: Ideal, degree: int) -> int:
    """dim_k of (k[vars]/I) in the given degree; order-independent."""
    return _graded_dimensions(I, [degree])[0]
