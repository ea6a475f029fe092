"""Readers and writers for the on-disk formats.

Ideal files: a `vars:` header line, an optional `grading:` line, then one
polynomial per line in the ASCII grammar.  Matrices are JSON arrays of arrays
(row-major).  Semigroups are JSON objects with gens, degree_coord (always
0: the degree is the first coordinate) and optional labels.
"""

from __future__ import annotations

import json

from .groebner import Ideal, _distinct
from .intlat import IntMatrix
from .polycore import Grading, format_polynomial, parse_polynomial
from .toric import Semigroup


def parse_ideal_text(text: str) -> Ideal:
    vars = None
    grading = None
    gens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vars:"):
            vars = _distinct(v.strip() for v in line[len("vars:"):].split(",") if v.strip())
            continue
        if line.startswith("grading:"):
            grading = Grading([int(x) for x in line[len("grading:"):].split(",")])
            continue
        if vars is None:
            raise ValueError("ideal file must declare vars before polynomials")
        gens.append(parse_polynomial(line, vars))
    if vars is None:
        raise ValueError("ideal file has no vars header")
    return Ideal(gens, vars, grading=grading)


def read_ideal(path: str) -> Ideal:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        obj = json.loads(text)
        try:
            return ideal_from_json(obj)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    return parse_ideal_text(text)


def ideal_to_text(I: Ideal) -> str:
    lines = [f"vars: {','.join(I.vars)}"]
    if I.grading is not None:
        lines.append(f"grading: {','.join(str(w) for w in I.grading.weights)}")
    for g in I.gens:
        lines.append(format_polynomial(g))
    return "\n".join(lines) + "\n"


def ideal_to_json(I: Ideal) -> dict:
    out = {"vars": list(I.vars),
           "gens": [format_polynomial(g) for g in I.gens]}
    if I.grading is not None:
        out["grading"] = list(I.grading.weights)
    return out


def ideal_from_json(obj: dict) -> Ideal:
    if not isinstance(obj, dict):
        raise ValueError("an ideal in JSON is an object with vars and gens")
    if "vars" not in obj:
        raise ValueError("ideal JSON has no 'vars' field")
    vars, gens = obj["vars"], obj.get("gens", [])
    if not (isinstance(vars, list) and all(isinstance(v, str) for v in vars)):
        raise ValueError("ideal vars must be a list of strings")
    if not (isinstance(gens, list) and all(isinstance(s, str) for s in gens)):
        raise ValueError("ideal gens must be a list of polynomial strings")
    grading = obj.get("grading")
    if grading is not None and not isinstance(grading, list):
        raise ValueError("ideal grading must be a list of integers")
    vars = _distinct(vars)
    grading = Grading(grading) if grading is not None else None
    return Ideal([parse_polynomial(s, vars) for s in gens], vars, grading=grading)


def read_matrix(path: str) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return IntMatrix(data)


def semigroup_to_json(S: Semigroup) -> dict:
    out = {"degree_coord": 0, "gens": [list(g) for g in S.gens]}
    if S.labels is not None:
        out["labels"] = list(S.labels)
    if S.degree_scale != 1:
        out["degree_scale"] = S.degree_scale
    return out

