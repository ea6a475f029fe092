"""Polynomial text as toricdeg read it before `polycore.parse_polynomial`
read it in one pass with one token of lookahead, kept as a test oracle: a
whole-text tokenizer, then recursive descent through one closure per
grammar rule.  Tests compare the two on drawn strings, legal and not: the
same polynomial, or the same exception with the same `position` and
`expected` (`ParseError`) or `name` (`UnknownVariable`).

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff | [coeff '*'] factor ('*' factor)*
    factor := ident ['^' uint]
    coeff  := uint ['/' uint]
    ident  := [A-Za-z][A-Za-z0-9_]*
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from toricdeg.polycore import (
    Exponent,
    ParseError,
    Polynomial,
    UnknownVariable,
    _add_terms,
    exp_add,
)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(?P<num>\d+)|(?P<ident>{_IDENT.pattern})|(?P<op>[+\-*/^()]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(pos, "number, identifier or operator")
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def parse_polynomial(text: str, vars: Sequence[str]) -> Polynomial:
    """Parse ASCII polynomial text over the given variable list."""
    vars = tuple(vars)
    index = {v: i for i, v in enumerate(vars)}
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind):
        nonlocal pos
        if toks[pos][0] != kind:
            raise ParseError(toks[pos][2], kind)
        tok = toks[pos]
        pos += 1
        return tok

    def parse_coeff() -> Fraction:
        num = int(take("num")[1])
        if peek()[0] == "op" and peek()[1] == "/":
            take("op")
            den_tok = take("num")
            den = int(den_tok[1])
            if den == 0:
                raise ParseError(den_tok[2], "nonzero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor() -> Exponent:
        tok = take("ident")
        if tok[1] not in index:
            raise UnknownVariable(tok[1])
        e = [0] * len(vars)
        k = 1
        if peek()[0] == "op" and peek()[1] == "^":
            take("op")
            k = int(take("num")[1])
        e[index[tok[1]]] = k
        return tuple(e)

    def parse_term() -> tuple:
        coeff = Fraction(1)
        exp = (0,) * len(vars)
        saw_factor = False
        if peek()[0] == "num":
            coeff = parse_coeff()
            if peek()[0] == "op" and peek()[1] == "*":
                take("op")
            else:
                return coeff, exp
        while True:
            exp = exp_add(exp, parse_factor())
            saw_factor = True
            if peek()[0] == "op" and peek()[1] == "*":
                take("op")
                continue
            break
        if not saw_factor:
            raise ParseError(peek()[2], "factor")
        return coeff, exp

    pairs = []
    sign = 1
    if peek()[0] == "op" and peek()[1] in "+-":
        sign = -1 if take("op")[1] == "-" else 1
    while True:
        c, e = parse_term()
        pairs.append((e, c * sign))
        if peek()[0] == "op" and peek()[1] in "+-":
            sign = -1 if take("op")[1] == "-" else 1
            continue
        break
    end = peek()
    if end[0] != "end":
        raise ParseError(end[2], "'+', '-' or end of input")
    # exponents come from checked tokens, and exp_add bounds them
    return Polynomial._trusted(vars, _add_terms({}, pairs))
