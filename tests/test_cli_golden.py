"""Byte-exact stdout of the CLI commands whose output depends on a term
order and its tie-break, run on the fixture inputs.

The other CLI tests check exit codes and schemas; these compare the printed
bases with texts captured from the code at commit 97cf6db, before the term
orders became one class.  Reduced bases are unique, so a change to the order
code that alters any byte here has changed an order.

`python tests/test_cli_golden.py` rewrites `golden/cli_outputs.json` from the
current code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from toricdeg import cli
from toricdeg import fixtures as fx
from toricdeg.groebner import Ideal
from toricdeg.intlat import IntMatrix
from toricdeg.ioformats import ideal_to_text
from toricdeg.polycore import parse_polynomial


def _no_grading_ideal():
    """Its projection limit to k[x, z], y*z^2 - x*y, has no positive grading."""
    vars = ("x", "y", "z")
    return Ideal([parse_polynomial("x*y - y*z^2 - z", vars)], vars)


def _no_grading_matrix():
    """Its kernel binomials have no positive grading; toric_ideal saturates x2."""
    return IntMatrix([[1, -2, -1, -2], [0, 2, 2, 2]])


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"

IDEALS = {
    "elliptic": fx.elliptic_ideal,
    "twisted": fx.twisted_cubic_ideal,
    "hyperbola": fx.hyperbola_ideal,
    "gr24": fx.gr24_ideal,
    "gr25": fx.gr25_ideal,
    "elliptic_p9": fx.elliptic_p9_ideal,
    "no_grading": _no_grading_ideal,
}

MATRICES = {
    "elliptic_m": fx.elliptic_matrix,
    "twisted_m": fx.twisted_cubic_matrix,
    "gr24_gvector_m": fx.gr24_gvector_matrix,
    "gr24_plabic_m": fx.gr24_plabic_matrix,
    "gr25_m": fx.gr25_matrix,
    "no_grading_m": _no_grading_matrix,
}

# {name} stands for the file of IDEALS[name] or MATRICES[name]
CASES = {
    "gb-degrevlex-twisted": "gb --in {twisted}",
    "gb-degrevlex-gr25": "gb --in {gr25} --json",
    "gb-degrevlex-no-grading": "gb --in {no_grading}",
    "gb-lex-elliptic": "gb --in {elliptic} --order lex",
    "gb-lex-twisted": "gb --in {twisted} --order lex",
    "gb-lex-gr24": "gb --in {gr24} --order lex --json",
    "gb-lex-no-grading": "gb --in {no_grading} --order lex",
    "gb-weight-min-elliptic": "gb --in {elliptic} --order weight --w 1,0,3",
    "gb-weight-max-elliptic": "gb --in {elliptic} --order weight --w 1,0,3 --convention max",
    "gb-weight-min-twisted": "gb --in {twisted} --order weight --w 3,2,1,0",
    "gb-weight-max-twisted": "gb --in {twisted} --order weight --w 3,2,1,0 --convention max",
    "gb-weight-min-gr25": "gb --in {gr25} --order weight --w 0,1,0,2,1,0,3,2,1,0",
    "gb-weight-max-gr25": "gb --in {gr25} --order weight --w 0,1,0,2,1,0,3,2,1,0 --convention max",
    "initial-w-min-elliptic": "initial --in {elliptic} --w 1,0,3",
    "initial-w-max-elliptic": "initial --in {elliptic} --w 1,0,3 --convention max",
    "initial-w-max-twisted": "initial --in {twisted} --w 3,2,1,0 --convention max --json",
    "initial-matrix-elliptic": "initial --in {elliptic} --matrix {elliptic_m}",
    "initial-matrix-twisted": "initial --in {twisted} --matrix {twisted_m} --convention max",
    "initial-matrix-gr24": "initial --in {gr24} --matrix {gr24_gvector_m}",
    "initial-matrix-gr25": "initial --in {gr25} --matrix {gr25_m} --convention max --json",
    "family-min-elliptic": "family --in {elliptic} --w 1,0,3",
    "family-max-elliptic": "family --in {elliptic} --w 1,0,3 --convention max",
    "family-min-twisted": "family --in {twisted} --w 3,2,1,0",
    "family-max-twisted": "family --in {twisted} --w 3,2,1,0 --convention max --json",
    "fiber-0-elliptic": "fiber --in {elliptic} --w 1,0,3 --t0 0",
    "fiber-half-elliptic": "fiber --in {elliptic} --w 1,0,3 --t0 1/2",
    "fiber-0-max-twisted": "fiber --in {twisted} --w 3,2,1,0 --t0 0 --convention max",
    "fiber-half-max-twisted": "fiber --in {twisted} --w 3,2,1,0 --t0 1/2 --convention max",
    "fiber-half-gr25": "fiber --in {gr25} --w 0,1,0,2,1,0,3,2,1,0 --t0 1/2 --json",
    "project-hyperbola": "project --in {hyperbola} --keep x,y",
    "project-twisted": "project --in {twisted} --keep u3,u2,u0",
    "project-elliptic-p9": "project --in {elliptic_p9} --keep u_y2z,u_y3,u_z3",
    "project-no-grading": "project --in {no_grading} --keep x,z",
    "toric-twisted": "toric --matrix {twisted_m} --names u3,u2,u1,u0",
    "toric-gr24-gvector": "toric --matrix {gr24_gvector_m} --names p12,p13,p14,p23,p24,p34 --json",
    "toric-gr24-plabic": "toric --matrix {gr24_plabic_m} --names p12,p13,p14,p23,p24,p34",
    "toric-no-grading": "toric --matrix {no_grading_m} --names a,b,c,d",
}


def _write_inputs(directory: Path) -> dict:
    paths = {}
    for name, make in IDEALS.items():
        path = directory / f"{name}.ideal"
        path.write_text(ideal_to_text(make()))
        paths[name] = path
    for name, make in MATRICES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(make().rows_list()))
        paths[name] = path
    return paths


def _argv(case: str, paths: dict) -> list:
    return [word.format(**paths) for word in CASES[case].split()]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, inputs, capsys):
    assert cli.main(_argv(case, inputs)) == 0
    assert capsys.readouterr().out == json.loads(GOLDEN.read_text())[case]


def _capture(directory: Path) -> dict:
    import contextlib
    import io

    paths = _write_inputs(directory)
    out = {}
    for case in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(_argv(case, paths))
        if code != 0:
            raise SystemExit(f"{case}: exit code {code}")
        out[case] = buf.getvalue()
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        captured = _capture(Path(tmp))
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
