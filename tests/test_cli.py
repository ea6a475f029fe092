"""Command-line behavior: happy paths, exit codes, schema-valid JSON."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from toricdeg import cli
from toricdeg import fixtures as fx
from toricdeg.fixtures import FixtureReport

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text())


def _write_elliptic(tmp_path: Path):
    ideal = tmp_path / "elliptic.ideal"
    ideal.write_text("vars: x,y,z\ngrading: 1,1,1\ny^2*z - x^3 + x*z^2\n")
    matrix = tmp_path / "elliptic.json"
    matrix.write_text("[[1,1,1],[1,0,3]]\n")
    return str(ideal), str(matrix)


def test_gb_empty_ideal(tmp_path, capsys):
    f = tmp_path / "empty.ideal"
    f.write_text("vars: x,y\n")
    assert cli.main(["gb", "--in", str(f)]) == 0
    out = capsys.readouterr().out
    assert "0 generators" in out


def test_gb_json_matches_schema(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["gb", "--in", ideal, "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[-1])
    jsonschema.validate(payload, _schema("ideal.schema.json"))


def test_initial_weight(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["initial", "--in", ideal, "--w", "1,0,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("ideal.schema.json"))
    assert payload["gens"] == ["x^3 - y^2*z"]


def test_family_and_fiber(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["family", "--in", ideal, "--w", "1,0,3"]) == 0
    out = capsys.readouterr().out
    assert "t^4" in out
    assert cli.main(["fiber", "--in", ideal, "--w", "1,0,3", "--t0", "0"]) == 0
    out = capsys.readouterr().out
    assert "x^3 - y^2*z" in out


def test_toric_command(tmp_path, capsys):
    m = tmp_path / "tc.json"
    m.write_text("[[1,1,1,1],[3,2,1,0]]\n")
    assert cli.main(["toric", "--matrix", str(m),
                     "--names", "u3,u2,u1,u0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("ideal.schema.json"))
    assert len(payload["gens"]) == 3


def test_pipeline_json_schema(tmp_path, capsys):
    ideal, matrix = _write_elliptic(tmp_path)
    assert cli.main(["pipeline", "--in", ideal, "--matrix", matrix]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("pipeline.schema.json"))
    assert payload["binomial_prime"] is True


def test_degenerate_alias(tmp_path, capsys):
    ideal, matrix = _write_elliptic(tmp_path)
    assert cli.main(["degenerate", "--in", ideal, "--matrix", matrix]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["binomial_prime"] is True


def test_embed_json_schema(tmp_path, capsys):
    ideal, matrix = _write_elliptic(tmp_path)
    assert cli.main(["embed", "--in", ideal, "--matrix", matrix,
                     "--degree-bound", "4"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("embedding.schema.json"))
    assert payload["N"] == 3


def test_project_twisted_cubic(tmp_path, capsys):
    f = tmp_path / "tc.ideal"
    f.write_text("vars: u3,u2,u1,u0\ngrading: 1,1,1,1\n"
                 "u2^2 - u3*u1\nu1^2 - u2*u0\nu2*u1 - u3*u0\n")
    assert cli.main(["project", "--in", str(f), "--keep", "u3,u2,u0"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("projection.schema.json"))
    assert payload["cone_part"]["gens"] == ["1"]
    assert payload["scheme_check"] is True


def test_moment_json_and_svg(tmp_path, capsys):
    m = tmp_path / "w.json"
    m.write_text("[[1,0,3]]\n")
    svg = tmp_path / "out.svg"
    assert cli.main(["moment", "--matrix", str(m), "--samples", "20",
                     "--seed", "7", "--svg", str(svg)]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    jsonschema.validate(payload, _schema("samples.schema.json"))
    assert len(payload["samples"]) == 20
    assert svg.exists() and svg.read_text().startswith("<?xml")


def test_moment_projection_out_of_range_exit_1(tmp_path, capsys):
    m = tmp_path / "w.json"
    m.write_text("[[1,0,3],[0,2,1]]\n")
    svg = tmp_path / "out.svg"
    assert cli.main(["moment", "--matrix", str(m), "--project", "0,7",
                     "--svg", str(svg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not svg.exists()


def test_fixture_run_single(capsys):
    assert cli.main(["fixtures", "run", "hyperbola", "--json"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] hyperbola:limit" in out
    payload = json.loads(out.strip().splitlines()[-1])
    jsonschema.validate(payload, _schema("fixture_report.schema.json"))


def test_fixtures_run_all_hermetic(capsys):
    # the complete acceptance registry, through the real entry point
    assert cli.main(["fixtures", "run", "all"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    for name in fx.FIXTURE_NAMES:
        assert f"[PASS] {name}:" in out


def test_unknown_fixture_exit_1(capsys):
    assert cli.main(["fixtures", "run", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown fixture 'nope'; choose from (")
    assert len(captured.err.splitlines()) == 1
    assert '"' not in captured.err


def test_fixture_failure_exits_2(monkeypatch, capsys):
    def fake_runner():
        rep = FixtureReport("doomed")
        rep.add("always_fails", False, "derived", "0", "1")
        return rep

    monkeypatch.setitem(fx.RUNNERS, "doomed", fake_runner)
    assert cli.main(["fixtures", "run", "doomed"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] doomed:always_fails" in out


def test_embed_no_host_subset_exit_2(tmp_path, capsys):
    # the embedded values use three coordinates, but the matrix has rank 2,
    # so no three columns are independent hosts
    ideal = tmp_path / "conic.ideal"
    ideal.write_text("vars: x,y,z\ngrading: 1,1,1\nx*z - y^2\n")
    matrix = tmp_path / "repeated.json"
    matrix.write_text("[[1,1,1],[1,2,3],[1,2,3]]\n")
    assert cli.main(["embed", "--in", str(ideal), "--matrix", str(matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failure:")
    assert len(captured.err.splitlines()) == 1


def test_usage_error_exit_1(capsys):
    assert cli.main(["gb"]) == 1


def test_missing_file_exit_1(capsys):
    assert cli.main(["gb", "--in", "/definitely/not/here.ideal"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["gb", "--in", "{dir}"], id="gb-in"),
    pytest.param(["pipeline", "--in", "{ideal}", "--matrix", "{dir}"], id="pipeline-matrix"),
    pytest.param(["moment", "--matrix", "{matrix}", "--samples", "5", "--svg", "{dir}"],
                 id="moment-svg"),
])
def test_directory_path_exit_1(tmp_path, argv):
    # reading or writing a directory fails like a missing file: one error line
    ideal, matrix = _write_elliptic(tmp_path)
    argv = [a.format(dir=tmp_path, ideal=ideal, matrix=matrix) for a in argv]
    res = _run_cli(argv, timeout=60)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1


def test_exponent_overflow_exit_1(tmp_path, capsys):
    f = tmp_path / "huge.ideal"
    f.write_text("vars: x,y\nx^99999999999999999999 - y\n")
    assert cli.main(["gb", "--in", str(f)]) == 1
    assert "error:" in capsys.readouterr().err


def _run_cli(argv, timeout):
    """The CLI in a fresh interpreter, so that a hang fails after `timeout`
    seconds instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "toricdeg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    pytest.param(["pipeline", "--matrix", None], id="pipeline"),
    pytest.param(["embed", "--matrix", None], id="embed"),
    pytest.param(["initial", "--matrix", None], id="initial-matrix"),
    pytest.param(["initial", "--w", "1,1,1"], id="initial-w"),
    pytest.param(["gb", "--order", "weight", "--w", "1,1,1"], id="gb-weight"),
])
def test_pipeline_non_homogeneous_exit_1(tmp_path, argv):
    # these min-convention weight orders are no well-orders, so Buchberger's
    # algorithm would not end on this input
    ideal = tmp_path / "inhom.ideal"
    ideal.write_text("vars: x,y,z\n2*x^2*y*z - x^3 + y^2*z\n"
                     "x^2*y^3 - x^3*z + y^2*z^2 + y^2 - y*z\n")
    _, matrix = _write_elliptic(tmp_path)
    argv = [matrix if a is None else a for a in argv]
    res = _run_cli([argv[0], "--in", str(ideal), *argv[1:]], timeout=60)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    assert "not homogeneous" in res.stderr


@pytest.mark.parametrize("argv", [
    pytest.param(["gb", "--order", "weight", "--w={w}"], id="gb-weight"),
    pytest.param(["initial", "--w={w}"], id="initial-w"),
    pytest.param(["initial", "--matrix", "{matrix}"], id="initial-matrix"),
])
def test_max_convention_is_negated_min(tmp_path, capsys, argv):
    ideal = tmp_path / "tc.ideal"
    ideal.write_text("vars: a,b,c,d\na*c - b^2\nb*d - c^2\na*d - b*c\n")
    rows = [[1, 1, 1, 1], [3, 0, 2, 1]]
    outputs = {}
    for conv, sign in (("max", 1), ("min", -1), ("min", 1)):
        matrix = tmp_path / f"{conv}{sign}.json"
        matrix.write_text(json.dumps([[sign * x for x in r] for r in rows]))
        w = ",".join(str(sign * x) for x in rows[1])
        args = [a.format(w=w, matrix=matrix) for a in argv]
        assert cli.main([args[0], "--in", str(ideal), *args[1:],
                         "--convention", conv]) == 0
        outputs[conv, sign] = capsys.readouterr().out
    assert outputs["max", 1] == outputs["min", -1]
    assert outputs["max", 1] != outputs["min", 1]


def test_embed_large_degree_bound(tmp_path):
    # graded dimensions up to the bound take time linear in it
    ideal, matrix = _write_elliptic(tmp_path)
    res = _run_cli(["embed", "--in", ideal, "--matrix", matrix,
                    "--degree-bound", "10000"], timeout=30)
    assert res.returncode == 0, res.stderr
    dims = json.loads(res.stdout)["dims_checked"]
    assert len(dims) == 10001
    assert dims[-1] == [10000, 30000, 30000]


def test_moment_heptagon(tmp_path):
    m = tmp_path / "heptagon.json"
    m.write_text("[[0,1,3,4,4,2,0],[1,0,0,1,3,4,3]]\n")
    res = _run_cli(["moment", "--matrix", str(m), "--samples", "50"], timeout=60)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert len(payload["polytope"]["vertices"]) == 7
    assert payload["stats"]["inside_fraction"] == 1.0


@pytest.mark.parametrize("rows", ["[[0,400,1],[1,0,2]]", "[[-400,0,1]]"])
def test_moment_large_entries_finite(tmp_path, rows):
    # complex powers of the torus parameter would overflow at these entries
    m = tmp_path / "big.json"
    m.write_text(rows + "\n")
    res = _run_cli(["moment", "--matrix", str(m), "--samples", "50"], timeout=60)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    samples = json.loads(res.stdout)["samples"]
    assert len(samples) == 50
    assert all(math.isfinite(x) for s in samples for x in s)


@pytest.mark.parametrize("exponent", [300, 400])
def test_moment_huge_entries_no_traceback(tmp_path, exponent):
    # 10^300 fits a float and exits 0; 10^400 does not and exits 1
    m = tmp_path / "huge.json"
    m.write_text(f"[[1, {10 ** exponent}]]\n")
    res = _run_cli(["moment", "--matrix", str(m), "--samples", "20"], timeout=60)
    assert "Traceback" not in res.stderr
    assert res.returncode == (0 if exponent == 300 else 1), res.stderr
    if res.returncode:
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
    else:
        assert json.loads(res.stdout)["stats"]["coverage_gap"] >= 0


def test_toric_matrix_not_rows_exit_1(tmp_path, capsys):
    m = tmp_path / "flat.json"
    m.write_text("[1,2]\n")
    assert cli.main(["toric", "--matrix", str(m), "--names", "a,b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("payload", [
    '{"vars":["x"],"gens":[1]}',
    '{"vars":["x","y"],"gens":["x - y"],"grading":[1.5,1]}',
])
def test_gb_json_malformed_exit_1(tmp_path, capsys, payload):
    f = tmp_path / "bad.json"
    f.write_text(payload + "\n")
    assert cli.main(["gb", "--in", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_gb_json_missing_vars_names_field_and_file(tmp_path, capsys):
    f = tmp_path / "novars.json"
    f.write_text('{"gens":["x"]}\n')
    assert cli.main(["gb", "--in", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "'vars'" in err and str(f) in err and "Traceback" not in err


def test_toric_non_integer_entry_exit_1(tmp_path, capsys):
    m = tmp_path / "frac.json"
    m.write_text("[[1.7,2],[1,1]]\n")
    assert cli.main(["toric", "--matrix", str(m), "--names", "a,b", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "1.7" in captured.err


def test_pipeline_non_integer_entry_exit_1(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    m = tmp_path / "frac.json"
    m.write_text("[[1,1,1],[1,0,3.5]]\n")
    assert cli.main(["pipeline", "--in", ideal, "--matrix", str(m)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "3.5" in captured.err


@pytest.mark.parametrize("argv", [
    ["toric", "--matrix", "{matrix}", "--names", "a,a,b"],
    ["project", "--in", "{ideal}", "--keep", "x,z,z"],
    ["gb", "--in", "{repeated}"],
])
def test_repeated_variable_name_exit_1(tmp_path, capsys, argv):
    ideal, _ = _write_elliptic(tmp_path)
    matrix = tmp_path / "tc.json"
    matrix.write_text("[[1,1,1],[0,1,2]]\n")
    repeated = tmp_path / "repeated.ideal"
    repeated.write_text("vars: x,x\nx^2\n")
    paths = {"ideal": ideal, "matrix": str(matrix), "repeated": str(repeated)}
    assert cli.main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["toric", "--matrix", "{matrix}", "--names", "x*y,z,w"], id="toric-product"),
    pytest.param(["gb", "--in", "{digit}"], id="gb-leading-digit"),
    pytest.param(["gb", "--in", "{empty}"], id="gb-json-empty-name"),
])
def test_variable_name_outside_grammar_exit_1(tmp_path, capsys, argv):
    # a name the polynomial grammar cannot read back is refused, before any
    # polynomial line is parsed, so no output is printed that `gb --in`
    # would then fail on
    matrix = tmp_path / "tc.json"
    matrix.write_text("[[1,1,1],[0,1,2]]\n")
    digit = tmp_path / "digit.ideal"
    digit.write_text("vars: 1x,y\n1x^2 - y\n")
    empty = tmp_path / "empty.json"
    empty.write_text('{"vars": ["", "z"], "gens": ["z"]}\n')
    paths = {"matrix": str(matrix), "digit": str(digit), "empty": str(empty)}
    assert cli.main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "is not of the form [A-Za-z][A-Za-z0-9_]*" in captured.err


def test_embed_negative_degree_bound_exit_1(tmp_path, capsys):
    # the second bound overflows a C ssize_t in the degree table
    ideal, matrix = _write_elliptic(tmp_path)
    for bound in ("-3", "100000000000000000000"):
        assert cli.main(["embed", "--in", ideal, "--matrix", matrix,
                         "--degree-bound", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_embed_out_of_memory_exit_1(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "embed_value_semigroup", exhausted)
    ideal, matrix = _write_elliptic(tmp_path)
    assert cli.main(["embed", "--in", ideal, "--matrix", matrix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert "out of memory" in captured.err


def _assert_one_line_error(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("eps", ["inf", "1e400", "-1"])
def test_moment_eps_not_a_distance_exit_1(tmp_path, capsys, eps):
    m = tmp_path / "w.json"
    m.write_text("[[1,0,3],[0,2,1]]\n")
    assert cli.main(["moment", "--matrix", str(m), "--samples", "5",
                     "--eps", eps]) == 1
    _assert_one_line_error(capsys, "error:")


def test_moment_negative_seed_exit_1(tmp_path, capsys):
    # random.Random(-1) would draw what seed 1 draws
    m = tmp_path / "w.json"
    m.write_text("[[1,0,3]]\n")
    assert cli.main(["moment", "--matrix", str(m), "--samples", "5",
                     "--seed", "-1"]) == 1
    _assert_one_line_error(capsys, "error:")


def test_moment_matrix_without_columns_exit_1(tmp_path, capsys):
    m = tmp_path / "empty.json"
    m.write_text("[[]]\n")
    assert cli.main(["moment", "--matrix", str(m)]) == 1
    _assert_one_line_error(capsys, "error:")


def test_fiber_zero_denominator_exit_1(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["fiber", "--in", ideal, "--w", "1,0,3", "--t0", "1/0"]) == 1
    _assert_one_line_error(capsys, "error:")


def test_pipeline_certifies_weights_with_large_entries(tmp_path, capsys):
    # the weight's B reaches 2^50, past any fixed budget of forty doublings
    ideal = tmp_path / "line.ideal"
    ideal.write_text("vars: x,y\nx - y\n")
    matrix = tmp_path / "huge.json"
    matrix.write_text("[[0,1],[1000000000000000,0]]\n")
    assert cli.main(["pipeline", "--in", str(ideal), "--matrix", str(matrix)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["w"] == [10**15, 2**50]


def test_weight_order_requires_w(tmp_path, capsys):
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["gb", "--in", ideal, "--order", "weight"]) == 1
    err = capsys.readouterr().err
    assert "synopsis" in err


@pytest.mark.parametrize("order", [[], ["--order", "lex"]])
def test_gb_rejects_w_without_weight_order(tmp_path, capsys, order):
    # the weight would be dropped: the basis printed is the order's own
    ideal, _ = _write_elliptic(tmp_path)
    assert cli.main(["gb", "--in", ideal, "--w", "0,0,1", *order]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --w requires --order weight")


@pytest.mark.parametrize("argv", [
    pytest.param(["initial", "--w", "0,0,1", "--matrix", "{matrix}"], id="initial-both"),
    pytest.param(["initial"], id="initial-neither"),
    pytest.param(["family"], id="family-no-w"),
    pytest.param(["fiber", "--t0", "1"], id="fiber-no-w"),
])
def test_weight_flags_checked_by_the_parser(tmp_path, capsys, argv):
    ideal, matrix = _write_elliptic(tmp_path)
    argv = [argv[0], "--in", ideal, *(a.format(matrix=matrix) for a in argv[1:])]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: toricdeg " + argv[0])
    assert "error:" in captured.err.splitlines()[-1]


def test_embed_dims_fail_for_a_non_standard_grading(tmp_path, capsys):
    # in_M(J) is read in J's grading, where it has no linear forms, and the
    # toric ideal in the standard grading
    ideal = tmp_path / "elliptic222.ideal"
    ideal.write_text("vars: x,y,z\ngrading: 2,2,2\ny^2*z - x^3 + x*z^2\n")
    _, matrix = _write_elliptic(tmp_path)
    assert cli.main(["embed", "--in", str(ideal), "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failure: verification failed: "
                            "dims (degree 1: 0 != 3)\n")


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["gb", "--in", "{before}"], 1, "declare vars before polynomials",
                 id="polynomial-before-vars"),
    pytest.param(["gb", "--in", "{json_list}"], 1, "an object with vars and gens",
                 id="ideal-json-list"),
    pytest.param(["gb", "--in", "{json_vars}"], 1, "vars must be a list of strings",
                 id="ideal-json-vars-not-strings"),
    pytest.param(["gb", "--in", "{json_grading}"], 1, "grading must be a list of integers",
                 id="ideal-json-grading-not-a-list"),
    pytest.param(["toric", "--matrix", "{no_rows}", "--names", "a"], 1,
                 "at least one row", id="matrix-no-rows"),
    pytest.param(["toric", "--matrix", "{ragged}", "--names", "a,b"], 1, "ragged rows",
                 id="matrix-ragged"),
    pytest.param(["family", "--in", "{ideal}", "--w", "1,2"], 1,
                 "weight length does not match", id="family-short-weight"),
    pytest.param(["family", "--in", "{with_t}", "--w", "1,1,1"], 1,
                 "already contains a variable named 't'", id="family-ring-has-t"),
    pytest.param(["pipeline", "--in", "{ideal}", "--matrix", "{two_columns}"], 1,
                 "one matrix column per variable", id="pipeline-two-columns"),
    pytest.param(["gb", "--in", "{ideal}", "--order", "weight", "--w", "1,2"], 1,
                 "order does not match", id="gb-short-weight"),
    pytest.param(["embed", "--in", "{ideal}", "--matrix", "{no_degree_row}"], 2,
                 "degree_one", id="embed-no-degree-row"),
])
def test_input_errors_print_one_line(tmp_path, capsys, argv, code, message):
    ideal, _ = _write_elliptic(tmp_path)
    files = {
        "before": "x + y\nvars: x,y\n",
        "json_list": "[]\n",
        "json_vars": '{"vars": [1], "gens": []}\n',
        "json_grading": '{"vars": ["x"], "gens": ["x"], "grading": 1}\n',
        "no_rows": "[]\n",
        "ragged": "[[1,2],[3]]\n",
        "with_t": "vars: x,y,t\nx*y - t^2\n",
        "two_columns": "[[1,2],[3,4]]\n",
        "no_degree_row": "[[2,2,2],[1,0,3]]\n",
    }
    paths = {"ideal": ideal}
    for name, text in files.items():
        suffix = ".json" if text[0] in "[{" else ".ideal"
        path = tmp_path / (name + suffix)
        path.write_text(text)
        paths[name] = str(path)
    assert cli.main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err
    assert captured.err.startswith("error: " if code == 1 else "verification failure: ")


@pytest.mark.parametrize("command", [["family"], ["fiber", "--t0", "1/2"]])
def test_family_exponent_past_the_bound_exit_1(tmp_path, command):
    # the weight basis's t-exponent 2*10^20 - 2 passes MAX_EXPONENT, so
    # `family` prints nothing that `gb --in` could not read back, and `fiber`
    # stops in `family_ideal`, before it would raise t0 to that power
    ideal, _ = _write_elliptic(tmp_path)
    res = _run_cli([command[0], "--in", ideal, "--w", "1,0,100000000000000000000",
                    *command[1:]], timeout=60)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "error: exponent of t exceeds 4611686018427387904\n"
