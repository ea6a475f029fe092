"""On-disk format roundtrips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from toricdeg.groebner import same_ideal
from toricdeg.ioformats import (
    ideal_from_json,
    ideal_to_json,
    ideal_to_text,
    parse_ideal_text,
    read_ideal,
    read_matrix,
    semigroup_to_json,
)
from toricdeg.toric import Semigroup
from toricdeg import fixtures as fx


def test_ideal_text_roundtrip():
    I = fx.twisted_cubic_ideal()
    J = parse_ideal_text(ideal_to_text(I))
    assert J.vars == I.vars
    assert same_ideal(I, J)
    assert J.grading == I.grading


def test_ideal_json_roundtrip():
    I = fx.elliptic_ideal()
    J = ideal_from_json(ideal_to_json(I))
    assert same_ideal(I, J)


def test_ideal_file_roundtrip(tmp_path: Path):
    I = fx.gr24_ideal()
    for name, text in (("a.ideal", ideal_to_text(I)),
                       ("a.json", json.dumps(ideal_to_json(I)))):
        path = tmp_path / name
        path.write_text(text)
        assert same_ideal(read_ideal(str(path)), I)


def test_ideal_json_requires_vars():
    with pytest.raises(ValueError, match="'vars'"):
        ideal_from_json({"gens": ["x"]})


def test_ideal_text_requires_header():
    with pytest.raises(ValueError):
        parse_ideal_text("x + y\n")


def test_ideal_text_comments_and_blanks():
    I = parse_ideal_text("# a comment\nvars: x,y\n\nx^2 - y\n")
    assert len(I.gens) == 1


def test_matrix_roundtrip(tmp_path: Path):
    A = fx.gr25_matrix()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(A.rows_list()))
    assert read_matrix(str(path)) == A


def test_semigroup_json_roundtrip():
    S = Semigroup([(1, 0), (1, 1), (1, 3)],
                  labels=("y", "x", "z"))
    assert semigroup_to_json(S) == {
        "degree_coord": 0, "gens": [[1, 0], [1, 1], [1, 3]],
        "labels": ["y", "x", "z"]}
    V = Semigroup([(1, 0), (1, 9)], degree_scale=3)
    assert semigroup_to_json(V) == {
        "degree_coord": 0, "gens": [[1, 0], [1, 9]], "degree_scale": 3}
