"""Exact sparse multivariate polynomial arithmetic, term orders, and text I/O.

Polynomials live over a fixed ordered tuple of variable names.  Coefficients
are `fractions.Fraction` (always stored in lowest terms), exponents are tuples
of nonnegative ints.  Everything is immutable after construction, so values
are safe to share freely.

Weights are taken in one convention everywhere: "min", i.e.
`initial_form(p, w)` keeps the terms of *minimal* w-weight, and `WeightOrder`
breaks weight ties by reversed lex.  Max-style weight data is negated once,
by `to_min`, at the entry points that accept it.
"""

from __future__ import annotations

import numbers
import operator
import re
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

Exponent = tuple  # tuple[int, ...]

# exponents beyond this are almost certainly a runaway computation
MAX_EXPONENT = 2**62

MIN = "min"
MAX = "max"


class DimensionMismatch(ValueError):
    """Vector/exponent lengths do not agree."""


class ZeroPolynomialError(ValueError):
    """Operation undefined on the zero polynomial."""


class DegreeOverflow(OverflowError):
    """An exponent exceeded MAX_EXPONENT."""


class ParseError(ValueError):
    def __init__(self, position: int, expected: str):
        super().__init__(f"parse error at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


class UnknownVariable(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unknown variable {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# exponent helpers


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    c = tuple(map(operator.add, a, b))
    if max(c, default=0) > MAX_EXPONENT:
        raise DegreeOverflow(f"exponent exceeds {MAX_EXPONENT}")
    return c


def exact_int(x, what: str) -> int:
    """`x` as an int; ValueError unless it is a real number of integral value.

    Refuses bools and strings, and anything `int()` would truncate."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            i = int(x)
        except (OverflowError, ValueError):
            pass
        else:
            if i == x:
                return i
    raise ValueError(f"{what} {x!r} is not an integer")


def dot(w: Sequence[int], e: Exponent) -> int:
    return sum(wi * ei for wi, ei in zip(w, e))


# ---------------------------------------------------------------------------
# term orders

class TermOrder:
    """Total order on exponents of a fixed length, as a matrix order
    (Robbiano 1985, Term orderings on the polynomial ring).

    `rows` are integer linear forms, each a tuple of the pairs (i, c) of its
    nonzero coefficients, standing for the sum of c*e[i].  Exponents compare
    by the first form on which they differ, the bigger value being the
    bigger monomial, and leading terms are maxima.  `well_ordered` says
    whether 1 < x_i for every i, that is, whether the first nonzero
    coefficient of every e[i] is positive; if not, Buchberger's algorithm
    need not end on non-homogeneous input.

    `weights(cap)` is one int V_i per variable such that sum of e_i*V_i
    sorts exactly as the forms do on every exponent whose entries are at
    most cap.  Each form is one digit, of radix R = 2*b + 1 with b = sum of
    |c|*cap, and V_i is the sum, over the forms, of the form's coefficient
    of e[i] times the product of the radices of the forms after it.
    - each form's value on such an exponent lies in [-b, b], a balanced
      digit of radix R;
    - the digits after form k, as a balanced number, lie strictly between
      -P/2 and P/2, with P the product of their radices: the largest is
      sum over j > k of b_j times the radices after j, which telescopes
      to (P - 1)/2;
    - so where two exponents first differ, at form k by at least 1, the ints
      differ there by at least P, which the later digits' difference, at
      most P - 1, cannot cancel: the ints compare as the forms do.
    `key(e)` is that int for cap = MAX_EXPONENT, the largest entry an
    exponent holds: bigger key, bigger monomial.
    """

    def __init__(self, nvars: int, rows):
        self.nvars = nvars
        self.rows = tuple(rows)
        first = [0] * nvars  # the first nonzero coefficient of each e[i]
        for form in self.rows:
            for i, c in form:
                first[i] = first[i] or c
        self.well_ordered = all(c > 0 for c in first)
        self._key_weights = self.weights(MAX_EXPONENT)

    def weights(self, cap: int) -> tuple:
        V = [0] * self.nvars
        place = 1  # the product of the radices of the later forms
        for form in reversed(self.rows):
            for i, c in form:
                V[i] += c * place
            place *= 2 * cap * sum(abs(c) for _, c in form) + 1
        return tuple(V)

    def key(self, e: Exponent) -> int:
        return sum(map(operator.mul, self._key_weights, e))

    def __repr__(self):
        return f"TermOrder({self.nvars}, {self.rows})"


def _form(row) -> tuple:
    """The linear form sum of row[i]*e[i], as the pairs (i, row[i]) of its
    nonzero coefficients."""
    return tuple((i, c) for i, c in enumerate(row) if c)


class DegRevLex(TermOrder):
    """Graded reverse lexicographic on the declared variable sequence: the
    total degree, then -e[i] for i from last to first."""

    def __init__(self, nvars: int):
        super().__init__(nvars, [_form((1,) * nvars),
                                 *[((i, -1),) for i in reversed(range(nvars))]])


class Lex(TermOrder):
    """Lexicographic with an explicit variable priority.

    `priority` lists variable indices from most to least significant.
    """

    def __init__(self, priority: Sequence[int]):
        priority = tuple(priority)
        n = len(priority)
        if sorted(priority) != list(range(n)):
            raise ValueError("priority must be a permutation of all variable indices")
        super().__init__(n, [((i, 1),) for i in priority])


class WeightOrder(TermOrder):
    """Min-convention weight rows refined by reversed lex.

    Rows are compared in sequence, and the monomial of smaller weight is the
    bigger one, so leading terms have minimal weight: each row enters the
    order negated.  Ties go to lex with the last variable biggest.  This is
    a well-order exactly when the first nonzero entry of every column is
    negative, or the column is zero: then 1 < x_i for every i.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = [[exact_int(x, "weight") for x in r] for r in rows]
        if not rows:
            raise ValueError("need at least one weight row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("weight rows of unequal length")
        super().__init__(n, [*[_form(-x for x in r) for r in rows],
                             *[((i, 1),) for i in reversed(range(n))]])


class BlockOrder(TermOrder):
    """Two-block elimination order: degrevlex on `first`, then on `second`.

    Any monomial containing a `first` variable beats every monomial free of
    them, so a Groebner basis under this order computes the elimination
    ideal for the `second` block.
    """

    def __init__(self, first: Sequence[int], second: Sequence[int]):
        first, second = tuple(first), tuple(second)
        n = len(first) + len(second)
        if sorted(first + second) != list(range(n)):
            raise ValueError("blocks must partition the variable indices")
        rows = []
        for block in (first, second):
            rows.append(tuple((i, 1) for i in sorted(block)))
            rows += [((i, -1),) for i in reversed(block)]
        super().__init__(n, rows)


@cache
def _degrevlex(nvars: int) -> DegRevLex:
    """The canonical order on `nvars` variables, built once per arity."""
    return DegRevLex(nvars)


# ---------------------------------------------------------------------------
# grading


class Grading:
    """Positive integer weight per variable; default weight 1 everywhere."""

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(exact_int(w, "grading weight") for w in weights)
        if any(w <= 0 for w in self.weights):
            raise ValueError("grading weights must be positive")

    @classmethod
    def standard(cls, nvars: int) -> "Grading":
        return cls((1,) * nvars)

    def degree(self, e: Exponent) -> int:
        return dot(self.weights, e)

    def is_homogeneous(self, p: "Polynomial") -> bool:
        degs = {self.degree(e) for e in p.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return isinstance(other, Grading) and self.weights == other.weights

    def __repr__(self):
        return f"Grading({self.weights})"


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse polynomial: dict exponent -> nonzero Fraction, over named vars.

    `vars` and `terms` are set only at construction, by `__init__` (which
    checks and merges its input) or by `_trusted`; no operation mutates them.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Exponent, object] | None = None):
        self.vars = tuple(vars)
        n = len(self.vars)
        checked = []
        for e, c in (terms or {}).items():
            if len(e) != n:
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, expected {n}")
            e = tuple(exact_int(x, "exponent") for x in e)
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            if any(x > MAX_EXPONENT for x in e):
                raise DegreeOverflow(f"exponent exceeds {MAX_EXPONENT}")
            checked.append((e, Fraction(c)))
        self.terms = _add_terms({}, checked)

    # -- constructors

    @classmethod
    def _trusted(cls, vars: tuple, terms: dict) -> "Polynomial":
        """Adopt `terms` without checks or copy: the caller guarantees tuple
        exponents of the right length and nonzero Fraction coefficients, and
        hands the dict over."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def monomial(cls, vars: Sequence[str], e: Exponent, c=1) -> "Polynomial":
        return cls(vars, {tuple(e): Fraction(c)})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Polynomial":
        try:
            i = list(vars).index(name)
        except ValueError:
            raise UnknownVariable(name) from None
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): Fraction(1)})

    # -- predicates / views

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    # -- arithmetic

    def _check_same_ring(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise DimensionMismatch(
                f"mixed variable lists {self.vars} vs {other.vars}")

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.vars == other.vars
                and self.terms == other.terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial._trusted(self.vars, _add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial._trusted(self.vars, _add_terms({}, (
            (exp_add(e1, e2), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())))

    # -- ring-change helpers

    def extend(self, new_vars: Sequence[str]) -> "Polynomial":
        """Reinterpret in a larger ring; `new_vars` must contain all vars."""
        new_vars = tuple(new_vars)
        pos = []
        for v in self.vars:
            try:
                pos.append(new_vars.index(v))
            except ValueError:
                raise UnknownVariable(v) from None
        n = len(new_vars)
        res = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, x in enumerate(e):
                ne[pos[i]] = x
            res[tuple(ne)] = c
        return Polynomial._trusted(new_vars, res)

    def restrict(self, new_vars: Sequence[str]) -> "Polynomial":
        """The image under the ring map k[vars] -> k[new_vars] that keeps the
        variables of `new_vars` and sends every other variable to 0: the
        terms free of the other variables."""
        new_vars = tuple(new_vars)
        keep = []
        for v in new_vars:
            try:
                keep.append(self.vars.index(v))
            except ValueError:
                raise UnknownVariable(v) from None
        drop = [i for i in range(len(self.vars)) if i not in keep]
        return Polynomial._trusted(new_vars, {
            tuple(e[i] for i in keep): c for e, c in self.terms.items()
            if not any(e[i] for i in drop)})

    def evaluate(self, point: Sequence[object]) -> Fraction:
        """Exact evaluation at a full rational point."""
        if len(point) != len(self.vars):
            raise DimensionMismatch("point length does not match variables")
        vals = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = c
            for x, k in zip(vals, e):
                if k:
                    prod *= x ** k
            total += prod
        return total

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))


def _add_terms(out: dict, pairs) -> dict:
    """Add the (exponent, coefficient) pairs into `out` in place, keeping
    only nonzero sums, and return it.  An exponent already in `out` keeps
    its place."""
    for e, c in pairs:
        c0 = out.get(e)
        if c0 is not None:
            c += c0
        if c:
            out[e] = c
        elif c0 is not None:
            del out[e]
    return out


def to_min(rows: Sequence[Sequence[int]], convention: str) -> list:
    """Weight rows in the min convention: as given for "min", negated for
    "max".  The one place where max-style weights are negated."""
    if convention not in (MIN, MAX):
        raise ValueError(f"convention must be {MIN!r} or {MAX!r}, got {convention!r}")
    s = 1 if convention == MIN else -1
    return [[s * x for x in r] for r in rows]


def initial_form(p: Polynomial, w: Sequence[int]) -> Polynomial:
    """Sub-sum of terms of least w-weight (the t -> 0 limit of the
    one-parameter family built from w)."""
    if p.is_zero():
        raise ZeroPolynomialError("initial form of 0 undefined")
    if len(w) != len(p.vars):
        raise DimensionMismatch("weight length does not match variables")
    weights = {e: dot(w, e) for e in p.terms}
    target = min(weights.values())
    return Polynomial._trusted(
        p.vars, {e: c for e, c in p.terms.items() if weights[e] == target})


def initial_form_rows(p: Polynomial, rows: Sequence[Sequence[int]]) -> Polynomial:
    """Initial form for a weight matrix: rows applied in order, ties carried."""
    q = p
    for r in rows:
        q = initial_form(q, r)
        if len(q) == 1:
            break
    return q


# ---------------------------------------------------------------------------
# parsing / printing
#
# poly   := ['+'|'-'] term (('+'|'-') term)*
# term   := coeff | [coeff '*'] factor ('*' factor)*
# factor := ident ['^' uint]
# coeff  := uint ['/' uint]
# ident  := [A-Za-z][A-Za-z0-9_]*
# '(' and ')' are tokens that no rule takes: they are grammar errors.

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<ident>{_IDENT.pattern})|(?P<op>[+\-*/^()]))")


def _tokenize(text: str):
    """(kind, text, position) for every token, then ("end", "", len(text)).
    The whole text is read first, so an illegal character anywhere is the
    error, ahead of any grammar error or unknown name."""
    pos, stop, out = 0, len(text.rstrip()), []
    while pos < stop:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(pos, "number, identifier or operator")
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def parse_polynomial(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse ASCII polynomial text over the given variable list, one token ahead."""
    vars = tuple(vars)
    index = {v: i for i, v in enumerate(vars)}
    toks = _tokenize(text)
    pos = 0

    def take(kind, values=None):
        # the next token's text, consumed, if it has this kind (and value)
        nonlocal pos
        k, v, _ = toks[pos]
        if k != kind or values is not None and v not in values:
            return None
        pos += 1
        return v

    def need(kind):
        v = take(kind)
        if v is None:
            raise ParseError(toks[pos][2], kind)
        return v

    pairs = []
    sign = take("op", "+-")
    while True:
        coeff, exp = Fraction(-1 if sign == "-" else 1), [0] * len(vars)
        num = take("num")
        if num:
            coeff *= int(num)
            if take("op", "/"):
                den = int(need("num"))
                if not den:
                    raise ParseError(toks[pos - 1][2], "nonzero denominator")
                coeff /= den
        if not num or take("op", "*"):
            while True:
                name = need("ident")
                if name not in index:
                    raise UnknownVariable(name)
                i = index[name]
                exp[i] += int(need("num")) if take("op", "^") else 1
                if exp[i] > MAX_EXPONENT:
                    raise DegreeOverflow(f"exponent exceeds {MAX_EXPONENT}")
                if not take("op", "*"):
                    break
        pairs.append((tuple(exp), coeff))
        sign = take("op", "+-")
        if not sign:
            break
    if toks[pos][0] != "end":
        raise ParseError(toks[pos][2], "'+', '-' or end of input")
    # exponents come from checked tokens and are bounded factor by factor
    return Polynomial._trusted(vars, _add_terms({}, pairs))


def _format_term(vars, e, c, leading: bool) -> str:
    factors = []
    for v, k in zip(vars, e):
        if k == 1:
            factors.append(v)
        elif k > 1:
            factors.append(f"{v}^{k}")
    mono = "*".join(factors)
    a = abs(c)
    if not mono:
        body = str(a)
    elif a == 1:
        body = mono
    else:
        body = f"{a}*{mono}"
    if leading:
        return body if c > 0 else f"-{body}"
    return f" + {body}" if c > 0 else f" - {body}"


def format_polynomial(p: Polynomial, order: TermOrder | None = None) -> str:
    """Print with terms in descending order; inverse of parse_polynomial."""
    if p.is_zero():
        return "0"
    if order is None:
        order = _degrevlex(len(p.vars))
    if order.nvars != len(p.vars):
        raise DimensionMismatch("order does not match variable count")
    exps = sorted(p.terms, key=order.key, reverse=True)
    parts = [_format_term(p.vars, e, p.terms[e], i == 0) for i, e in enumerate(exps)]
    return "".join(parts)
