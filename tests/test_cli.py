import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matpencil as mp
from matpencil import jsonio
from matpencil.cli import main

from helpers import rand_mono


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mandelbrot_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "--out", str(tmp_path), "mandelbrot", "3")
    assert code == 0
    assert "[-1  0 -1]" in out
    assert "corner of inverse: -1" in out
    assert (tmp_path / "m3.csv").read_text().splitlines()[0] == "-1,0,-1"
    report = json.loads((tmp_path / "m3_report.json").read_text())
    assert report["charpoly_identity"] and report["height1"]


def test_eig_subcommand(capsys, tmp_path):
    pencil = mp.Pencil(np.eye(3), np.diag([1.0, 2.0, 3.0]))
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(jsonio.pencil_to_json(pencil)))
    code, out, _ = run(capsys, "eig", str(path))
    assert code == 0
    finite = sorted(z[0] for z in json.loads(out)["finite"])
    np.testing.assert_allclose(finite, [1, 2, 3], atol=1e-10)


def test_eig_with_poly_fills_the_residual_column(capsys, tmp_path):
    a = rand_mono(np.random.default_rng(2), 2, 2)
    t = mp.frobenius_triple(a)
    (tmp_path / "pencil.json").write_text(json.dumps(jsonio.pencil_to_json(t.pencil)))
    (tmp_path / "poly.json").write_text(json.dumps(jsonio.matpoly_to_json(a)))
    code, out, _ = run(capsys, "--emit", "csv", "--out", str(tmp_path), "eig",
                       str(tmp_path / "pencil.json"), "--poly", str(tmp_path / "poly.json"))
    assert code == 0
    report = json.loads(out)
    assert len(report["residuals"]) == len(report["finite"]) == 4
    assert max(report["residuals"]) < 1e-10
    rows = (tmp_path / "eig.csv").read_text().splitlines()
    assert rows[0] == "re,im,residual" and len(rows) == 5
    assert all(float(row.split(",")[2]) < 1e-10 for row in rows[1:])


def test_emit_without_out_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--emit", "csv", "quintic"])
    assert info.value.code == 1
    assert "--emit needs --out" in capsys.readouterr().err


def test_verify_subcommand_pass_and_fail(capsys, tmp_path):
    rng = np.random.default_rng(0)
    a = rand_mono(rng, 2, 2)
    expr = {"op": "shift_left",
            "a": {"frobenius": jsonio.matpoly_to_json(a)},
            "d0": jsonio.matrix_to_json(np.eye(2)),
            "c0": jsonio.matrix_to_json(np.eye(2))}
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(expr))
    code, out, _ = run(capsys, "verify", "--expr", str(path))
    assert code == 0 and "pass" in out

    t = mp.frobenius_triple(a)
    bad = mp.StandardTriple(t.X, t.pencil, -t.Y, grade=t.grade)
    (tmp_path / "triple.json").write_text(json.dumps(jsonio.triple_to_json(bad)))
    (tmp_path / "poly.json").write_text(json.dumps(jsonio.matpoly_to_json(a)))
    code, out, _ = run(capsys, "verify", "--triple", str(tmp_path / "triple.json"),
                       "--poly", str(tmp_path / "poly.json"))
    assert code == 2


def test_height_subcommand(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("-1,0\n0,-1\n")
    code, out, _ = run(capsys, "height", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["height"] == 1 and rep["is_bohemian_01"]


def test_family_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "--emit", "csv", "--out", str(tmp_path), "family", "--kmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,dim")
    assert lines[1].split(",")[1] == "4" and lines[3].split(",")[1] == "28"
    csv = (tmp_path / "family_k3.csv").read_text().splitlines()
    assert csv[0] == "re,im,residual" and len(csv) == 29


def test_build_subcommand(capsys, tmp_path):
    rng = np.random.default_rng(1)
    a = rand_mono(rng, 1, 1)
    expr = {"frobenius": jsonio.matpoly_to_json(a)}
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps(expr))
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    triple = jsonio.triple_from_json(json.loads(out))
    assert triple.N == 1


def test_build_subcommand_writes_the_triple_to_out(capsys, tmp_path):
    a = rand_mono(np.random.default_rng(1), 1, 1)
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps({"frobenius": jsonio.matpoly_to_json(a)}))
    code, printed, _ = run(capsys, "build", str(path))
    code_out, out, _ = run(capsys, "--out", str(tmp_path / "art"), "build", str(path))
    assert code == code_out == 0 and out == ""
    assert (tmp_path / "art" / "triple.json").read_text() == printed


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 1


def test_malformed_json_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    # the same path as every other input error: one line on stderr, exit 1
    err = _one_line_error(capsys, "eig", str(path))
    assert err == f"error: {path}: malformed JSON at line 1 column 2\n"


def _zero_poly_json():
    return jsonio.matpoly_to_json(mp.MatPoly.monomial_poly(np.zeros((2, 1, 1))))


def test_expression_missing_key_exit_code(capsys, tmp_path):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({"op": "product", "a": {"frobenius": _zero_poly_json()}}))
    code, _, err = run(capsys, "build", str(path))
    assert code == 1
    assert err.startswith("error:") and "'b'" in err and len(err.splitlines()) == 1


def test_eig_singular_pencil_exit_code(capsys, tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(jsonio.pencil_to_json(mp.Pencil(np.zeros((1, 1)),
                                                               np.zeros((1, 1))))))
    code, _, err = run(capsys, "eig", str(path))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_zero_polynomial_exit_code(capsys, tmp_path):
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps({"frobenius": _zero_poly_json()}))
    code, _, err = run(capsys, "verify", "--expr", str(path))
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_build_zero_polynomial_is_a_valid_linearization(capsys, tmp_path):
    # zD - A = [0] for a(z) = 0: singular, yet the identities hold trivially
    path = tmp_path / "leaf.json"
    path.write_text(json.dumps({"frobenius": _zero_poly_json()}))
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    triple = jsonio.triple_from_json(json.loads(out))
    assert triple.N == 1 and not triple.pencil.D.any() and not triple.pencil.A.any()


def _one_line_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    return err


def test_eig_top_level_array_exit_code(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    _one_line_error(capsys, "eig", str(path))


def test_eig_reads_pencil_of_triple_file(capsys, tmp_path):
    t = mp.frobenius_triple(mp.MatPoly.monomial_poly([2.0, 1.0]))  # z + 2
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(jsonio.triple_to_json(t)))
    code, out, _ = run(capsys, "eig", str(path))
    assert code == 0
    np.testing.assert_allclose(json.loads(out)["finite"], [[-2.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("weighted, code", [(True, 1), (False, 1), (None, 2), ("yes", 1)],
                         ids=["true", "false", "absent", "string"])
def test_verify_reads_weighted_triple_file(capsys, tmp_path, weighted, code):
    # a(z) = 2z + 1; the file's resolvent 0.5 / (2z + 1) fails the check, and a
    # "weighted" key, whatever its value, is malformed input
    triple = {"X": [[1]], "pencil": {"D": [[2]], "A": [[-1]]}, "Y": [[0.5]], "grade": 1}
    if weighted is not None:
        triple["weighted"] = weighted
    poly = {"basis": "monomial", "dim": 1, "grade": 1, "data": [[[1]], [[2]]]}
    (tmp_path / "t.json").write_text(json.dumps(triple))
    (tmp_path / "p.json").write_text(json.dumps(poly))
    argv = ["verify", "--triple", str(tmp_path / "t.json"), "--poly", str(tmp_path / "p.json")]
    if code == 1:
        assert "weighted" in _one_line_error(capsys, *argv)
    else:
        assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("grade, code", [(1, 0), ("x", 1), (1.5, 1), (True, 1)],
                         ids=["integer", "string", "float", "boolean"])
def test_verify_triple_file_grade_exit_code(capsys, tmp_path, grade, code):
    triple = {"X": [[1]], "pencil": {"D": [[2]], "A": [[-1]]}, "Y": [[1]], "grade": grade}
    poly = {"basis": "monomial", "dim": 1, "grade": 1, "data": [[[1]], [[2]]]}
    (tmp_path / "t.json").write_text(json.dumps(triple))
    (tmp_path / "p.json").write_text(json.dumps(poly))
    argv = ["verify", "--triple", str(tmp_path / "t.json"), "--poly", str(tmp_path / "p.json")]
    if code == 1:
        assert "grade" in _one_line_error(capsys, *argv)
    else:
        assert run(capsys, *argv)[0] == code


_Z_PLUS_1 = {"basis": "monomial", "dim": 1, "grade": 1, "data": [[[1]], [[1]]]}


@pytest.mark.parametrize("argv, text, word", [
    (["verify", "--expr"], {"frobenius": {**_Z_PLUS_1, "data": [[[True]], [[1]]]}}, "number"),
    (["verify", "--expr"], {"frobenius": {**_Z_PLUS_1, "data": [[[[1, False]]], [[1]]]}},
     "number"),
    (["eig"], {"D": [[1]], "A": [[-1]], "N": 7}, "N is 7"),
    (["eig"], {"D": [[1]], "A": [[-1]], "block_meta": 5}, "block_meta"),
    (["eig"], {"X": [[1]], "pencil": {"D": [[1]], "A": [[-1]], "block_meta": {"blocks": [5]}},
               "Y": [[1]]}, "block_meta"),
], ids=["boolean_cell", "boolean_pair_part", "pencil_N", "block_meta", "triple_blocks"])
def test_boolean_cell_or_malformed_pencil_exit_code(capsys, tmp_path, argv, text, word):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(text))
    assert word in _one_line_error(capsys, *argv, str(path))


def test_height_non_integer_csv_cell_exit_code(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n")
    assert "CSV" in _one_line_error(capsys, "height", str(path))


@pytest.mark.parametrize("text", ["1, 2\n3, 4\n", "1,2\r\n3,4\r\n", "\n1,2\n\n 3 ,4 \n\n"],
                         ids=["space_after_comma", "crlf", "blank_lines"])
def test_height_csv_rows_split_on_line_breaks(capsys, tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    code, out, _ = run(capsys, "height", str(path))
    assert code == 0
    rep = json.loads(out)
    assert (rep["height"], rep["t_metric"]) == (4.0, 0.25)


def test_height_space_separated_csv_cells_exit_code(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1 2\n3 4\n")  # "1 2" is one cell, and not an integer
    assert "CSV" in _one_line_error(capsys, "height", str(path))


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_height_cell_beyond_float_range_exit_code(capsys, tmp_path, suffix):
    big = "1" + "0" * 399
    row = "%s,-1\n0,1\n" if suffix == ".csv" else "[[%s, -1], [0, 1]]"
    path = tmp_path / f"m{suffix}"
    path.write_text(row % big)
    assert "float64's range" in _one_line_error(capsys, "height", str(path))
    path.write_text(row % ("1" + "0" * 4999))  # past Python's 4300-digit limit for str -> int
    assert "float64's range" in _one_line_error(capsys, "height", str(path))
    path.write_text(row % big[:25])  # 25 digits: beyond int64, within float64
    code, out, _ = run(capsys, "height", str(path))
    assert code == 0 and json.loads(out)["height"] == 1e24


@pytest.mark.parametrize("text", ["[[ [1] ]]", "[[null]]", "[[1, 2], [3]]", "[1, 2]",
                                  '[["x"]]'],
                         ids=["short_pair", "null", "ragged", "not_rows", "string"])
def test_height_malformed_json_matrix_exit_code(capsys, tmp_path, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    _one_line_error(capsys, "height", str(path))


def test_eig_null_entry_exit_code(capsys, tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"D": [[1]], "A": [[None]]}))
    _one_line_error(capsys, "eig", str(path))


_POLY_Z_PLUS_2 = '{"basis": "monomial", "dim": 1, "grade": 1, "data": [[[%s]], [[1]]]}'
_TRIPLE_Z_PLUS_2 = json.dumps(jsonio.triple_to_json(
    mp.frobenius_triple(mp.MatPoly.monomial_poly([2.0, 1.0]))))


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("argv, texts", [
    (["eig", 0], ['{"D": [[1, 0], [0, 1]], "A": [[%s, 0], [0, 1]]}']),
    (["eig", 0], ['{"D": [[2, 0], [0, 1]], "A": [[%s, 0], [0, 1]]}']),
    (["eig", 0], ['{"D": [[%s, 0], [0, 1]], "A": [[1, 0], [0, 1]]}']),
    (["eig", 0, "--poly", 1], ['{"D": [[1]], "A": [[-2]]}', _POLY_Z_PLUS_2]),
    (["height", 0], ["[[%s, 1], [0, 1]]"]),
    (["build", 0], ['{"frobenius": %s}' % _POLY_Z_PLUS_2]),
    (["verify", "--triple", 0, "--poly", 1], [_TRIPLE_Z_PLUS_2, _POLY_Z_PLUS_2]),
], ids=["D_identity", "D_not_identity", "in_D", "eig_poly", "height", "build", "verify"])
def test_eig_non_finite_entry_exit_code(capsys, tmp_path, argv, texts, value):
    # Python's json reads NaN and Infinity as floats; argv's ints name the
    # files written from texts, with the number put in for %s
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"in{i}.json")
        paths[-1].write_text(text.replace("%s", value))
    argv = [str(paths[a]) if isinstance(a, int) else a for a in argv]
    assert "non-finite" in _one_line_error(capsys, *argv)


def _add_chain(depth: int) -> dict:
    """`depth` nested add nodes over the companion of z^2 + 2."""
    node = {"frobenius": {"basis": "monomial", "dim": 1, "grade": 2,
                          "data": [[[2]], [[0]], [[1]]]}}
    for _ in range(depth):
        node = {"op": "add", "a": node,
                "c": {"basis": "monomial", "dim": 1, "grade": 0, "data": [[[1]]]}}
    return node


@pytest.mark.parametrize("argv, text", [
    (["eig"], "[" * 100000 + "]" * 100000),
    (["verify", "--expr"], json.dumps(_add_chain(400))),
], ids=["json", "expression"])
def test_deep_nesting_exit_code(capsys, tmp_path, argv, text):
    # json.loads, or the nested evaluation of a deep expression, runs past
    # Python's recursion limit: one line and exit 1, no traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert _one_line_error(capsys, *argv, str(path)) == "error: the input is nested too deeply\n"
    if argv[0] == "verify":  # the same file builds: only its evaluation is too deep
        assert run(capsys, "build", str(path))[0] == 0


def test_eig_reads_poly_before_it_solves(capsys, tmp_path, monkeypatch):
    from matpencil import cli
    solves = []
    monkeypatch.setattr(cli, "generalized_eigen",
                        lambda *a, **k: solves.append(a) or mp.generalized_eigen(*a, **k))
    pencil, poly = tmp_path / "pencil.json", tmp_path / "poly.json"
    pencil.write_text('{"D": [[2]], "A": [[-4]]}')
    poly.write_text(_POLY_Z_PLUS_2.replace("%s", "NaN"))
    assert "non-finite" in _one_line_error(capsys, "eig", str(pencil), "--poly", str(poly))
    assert solves == []


def test_readme_cli_examples_parse(monkeypatch):
    from matpencil import cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI")[1].split("```sh")[1].split("```")[0]
    lines = [line.split("#")[0].split()[1:] for line in block.splitlines()
             if line.startswith("matpencil ")]
    assert len(lines) == 8
    # the CLI column of the "Reproducing the paper" table, whose files exist
    table = readme.split("## Reproducing the paper")[1].split("\n## ")[0]
    rows = [line.split("`matpencil ")[1].split("`")[0].split() for line in table.splitlines()
            if "`matpencil " in line]
    assert len(rows) == 9
    root = Path(__file__).resolve().parents[1]
    assert all((root / arg).is_file() for argv in rows for arg in argv if arg.endswith(".json"))
    lines += rows
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    for argv in lines:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("option", [["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
                                    ["--tol", "inf"], ["--points", "-3"], ["--points", "0"]],
                         ids=["tol_zero", "tol_negative", "tol_nan", "tol_inf",
                              "points_negative", "points_zero"])
def test_verify_bad_sampling_option_exit_code(capsys, tmp_path, option):
    # the global options are checked for every subcommand, not only verify
    a = rand_mono(np.random.default_rng(0), 2, 2)
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({"frobenius": jsonio.matpoly_to_json(a)}))
    for argv in (["verify", "--expr", str(path)], ["mandelbrot", "3"]):
        assert run(capsys, *argv)[0] == 0
        _one_line_error(capsys, *option, *argv)


@pytest.mark.parametrize("argv", [["verify", "--expr", "expr.json"], ["eig", "pencil.json"],
                                  ["family"], ["quintic"], ["mixed"]],
                         ids=["verify", "eig", "family", "quintic", "mixed"])
def test_negative_seed_exit_code(capsys, tmp_path, argv):
    # each of these seeds np.random.default_rng, which rejects a negative seed;
    # the parser rejects it first, with one error line and exit 1
    a = rand_mono(np.random.default_rng(0), 2, 2)
    (tmp_path / "expr.json").write_text(json.dumps({"frobenius": jsonio.matpoly_to_json(a)}))
    (tmp_path / "pencil.json").write_text(
        json.dumps(jsonio.pencil_to_json(mp.frobenius_triple(a).pencil)))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    with pytest.raises(SystemExit) as info:
        main(["--seed", "-1", *argv])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: --seed must be a non-negative integer, not -1"]


@pytest.mark.parametrize("argv", [["height", "missing.csv"], ["height", "missing.json"],
                                  ["eig", "missing.json"], ["verify", "--expr", "missing.json"]],
                         ids=["height_csv", "height_json", "eig", "verify_expr"])
def test_missing_input_file_exit_code(capsys, tmp_path, argv):
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert "No such file" in _one_line_error(capsys, *argv)


@pytest.mark.parametrize("argv", [["eig", "in.json"], ["build", "in.json"],
                                  ["verify", "--expr", "in.json"], ["height", "in.json"],
                                  ["height", "in.csv"]],
                         ids=["eig", "build", "verify_expr", "height_json", "height_csv"])
def test_non_utf8_input_file_exit_code(capsys, tmp_path, argv):
    path = tmp_path / argv[-1]
    path.write_bytes(b"\xff\xfe\x00[1]")  # a UTF-16 byte-order mark, no UTF-8
    err = _one_line_error(capsys, *argv[:-1], str(path))
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("argv, strerror", [
    (["--out", "{file}", "mandelbrot", "3"], "File exists"),
    (["--out", "{file}/sub", "build", "{expr}"], "Not a directory"),
    (["--emit", "json", "--out", "{file}", "eig", "{pencil}"], "File exists"),
    (["--emit", "json", "--out", "{file}", "family", "--kmax", "8"], "File exists"),
    (["--emit", "json", "--out", "{file}", "quintic"], "File exists"),
], ids=["mandelbrot_out_is_a_file", "build_out_below_a_file", "eig_emit_out_is_a_file",
        "family_emit_out_is_a_file", "quintic_emit_out_is_a_file"])
def test_out_that_cannot_be_a_directory_exit_code(capsys, tmp_path, argv, strerror):
    paths = {"file": tmp_path / "file.txt", "expr": tmp_path / "expr.json",
             "pencil": tmp_path / "pencil.json"}
    paths["file"].write_text("not a directory\n")
    a = rand_mono(np.random.default_rng(1), 1, 1)
    paths["expr"].write_text(json.dumps({"frobenius": jsonio.matpoly_to_json(a)}))
    paths["pencil"].write_text(json.dumps(jsonio.pencil_to_json(mp.frobenius_triple(a).pencil)))
    err = _one_line_error(capsys, *(arg.format(**paths) for arg in argv))
    assert strerror in err and "file.txt" in err
    assert paths["file"].read_text() == "not a directory\n"


def test_mandelbrot_level12_end_to_end(capsys):
    code, out, _ = run(capsys, "mandelbrot", "12")
    assert code == 0
    assert "M_12: dim 2047" in out
    assert ("corner of inverse: -1; inverse height 1: True; zero block: True; "
            "charpoly identity on -3..3: True") in out


def test_mandelbrot_builds_no_dense_level_matrix(capsys):
    import tracemalloc
    dim = mp.mandelbrot_matrix(12).dim
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "mandelbrot", "12")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and "M_12: dim 2047" in out
    # Hyman's big integers (0.3 dim^2): M_12 and its inverse stay nonzeros
    # above the print size, and a dense int8 copy of either would add 1 dim^2
    assert peak <= 0.5 * dim ** 2


def test_mandelbrot_out_writes_m_above_the_print_size(capsys, tmp_path):
    code, out, _ = run(capsys, "--out", str(tmp_path), "mandelbrot", "7")
    assert code == 0 and "M_7: dim 63" in out
    for name, want in (("m7.csv", mp.mandelbrot_matrix(7).entries.toarray()),
                       ("m7_inverse.csv", mp.inverse_structure(7).inverse.toarray())):
        got = np.loadtxt(tmp_path / name, delimiter=",", dtype=np.int64)
        assert np.array_equal(got, want)
    assert json.loads((tmp_path / "m7_report.json").read_text())["dim"] == 63


def test_mandelbrot_out_csv_is_the_text_of_the_dense_rows(capsys, tmp_path):
    for n in range(2, 9):
        code, _, _ = run(capsys, "--out", str(tmp_path), "mandelbrot", str(n))
        assert code == 0
        for name, held in ((f"m{n}.csv", mp.mandelbrot_matrix(n).entries),
                           (f"m{n}_inverse.csv", mp.inverse_structure(n).inverse)):
            want = "\n".join(",".join(str(int(v)) for v in row) for row in held.toarray())
            assert (tmp_path / name).read_bytes() == (want + "\n").encode(), name


def test_mandelbrot_out_builds_no_dense_matrix_or_text(capsys, tmp_path):
    import tracemalloc
    dim = mp.mandelbrot_matrix(12).dim
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "--out", str(tmp_path), "mandelbrot", "12")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and (tmp_path / "m12_inverse.csv").stat().st_size > 2 * dim ** 2
    # as without --out: Hyman's big integers; a dense int8 copy would add
    # dim^2 and the text of one file 2 dim^2
    assert peak <= 0.5 * dim ** 2


def test_quintic_reports_residual_dtype(capsys, tmp_path):
    from matpencil import experiments
    wide = np.dtype(experiments._WIDE).name
    code, out, _ = run(capsys, "--emit", "json", "--out", str(tmp_path), "quintic")
    assert code == 0
    assert f"residuals evaluated in:              {wide}" in out
    for stem in ("quintic_glued", "quintic_expanded"):
        assert json.loads((tmp_path / f"{stem}.json").read_text())["residual_dtype"] == wide


def test_quintic_artifacts_byte_identical_across_same_seed_runs(capsys, tmp_path):
    outs = []
    for name in ("one", "two"):
        d = tmp_path / name
        code, _, _ = run(capsys, "--seed", "7", "--emit", "csv", "--emit", "json",
                         "--emit", "svg", "--out", str(d), "quintic")
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert len(outs[0]) == 6
    assert outs[0] == outs[1]


def test_family_artifacts_byte_identical_across_same_seed_runs_and_layouts(
        capsys, tmp_path, monkeypatch):
    # two runs on one solver thread, then two on two: the worker count reads
    # the BLAS thread cap and the usable CPUs, both set here
    from matpencil import experiments
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outs = []
    for run_no, blas, workers in ((0, "2", 1), (1, "2", 1), (2, "1", 2), (3, "1", 2)):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        assert experiments._family_workers(5) == workers
        d = tmp_path / str(run_no)
        code, _, _ = run(capsys, "--seed", "3", "--emit", "csv", "--emit", "svg",
                         "--emit", "json", "--out", str(d), "family", "--kmax", "5")
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert len(outs[0]) == 15
    assert all(out == outs[0] for out in outs[1:])


def test_module_entry_point_exit_codes(tmp_path):
    # the [project.scripts] entry runs cli.main; run it as its own process, so
    # the exit status and stderr are the ones a shell sees
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "zero.json").write_text(json.dumps(jsonio.pencil_to_json(
        mp.Pencil(np.zeros((1, 1)), np.zeros((1, 1))))))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, code, word in ((["mandelbrot", "3"], 0, None),
                             (["eig", "missing.json"], 1, "No such file"),
                             (["eig", "bad.json"], 1, "not UTF-8"),
                             (["eig", "zero.json"], 2, "admissible shift")):
        proc = subprocess.run([sys.executable, "-m", "matpencil.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == [] if word is None else (len(errors) == 1 and word in errors[0])


def test_mixed_subcommand_end_to_end(capsys, tmp_path):
    outs = []
    for name in ("one", "two"):
        d = tmp_path / name
        code, out, _ = run(capsys, "--seed", "5", "--emit", "csv", "--emit", "json",
                           "--emit", "svg", "--out", str(d), "mixed")
        assert code == 0
        assert "mixed-basis pencil: dim 27, blocks [15, 3, 9]" in out
        assert "finite 21, infinite 6" in out
        error = float(out.split("max forward error vs oracle roots: ")[1].split()[0])
        assert error <= 1e-10
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert sorted(outs[0]) == ["mixed.csv", "mixed.json", "mixed.svg"]
    assert outs[0] == outs[1]


def _real_lagrange_files(tmp_path):
    """A real Lagrange pencil (D singular) written as plain numbers and as
    [re, im] pairs, and its polynomial."""
    nodes = np.cos(np.pi * (np.arange(4) + 0.5) / 4)
    p = mp.MatPoly.lagrange_poly(nodes, mp.barycentric_weights(nodes),
                                 np.random.default_rng(8).standard_normal((4, 2, 2)))
    pencil = mp.lagrange_triple(p).pencil
    paths = {name: tmp_path / f"{name}.json" for name in ("real", "complex", "poly")}
    paths["real"].write_text(json.dumps(jsonio.pencil_to_json(pencil)))
    paths["complex"].write_text(json.dumps(jsonio.pencil_to_json(
        mp.Pencil(pencil.D.astype(complex), pencil.A.astype(complex)))))
    paths["poly"].write_text(json.dumps(jsonio.matpoly_to_json(p)))
    return paths


def test_eig_on_a_real_pencil_file_matches_the_complex_one(capsys, tmp_path):
    paths = _real_lagrange_files(tmp_path)
    assert isinstance(json.loads(paths["real"].read_text())["A"][0][0], float)
    reports = {}
    for kind in ("real", "complex"):
        code, out, _ = run(capsys, "--seed", "3", "eig", str(paths[kind]),
                           "--poly", str(paths["poly"]))
        assert code == 0
        reports[kind] = json.loads(out)
        assert max(reports[kind]["residuals"]) < 1e-10
    real, cplx = (np.array([complex(*z) for z in reports[k]["finite"]]) for k in reports)
    assert reports["real"]["infinite_count"] == reports["complex"]["infinite_count"] == 4
    assert real.size == cplx.size == 6
    assert mp.match_roots(real, cplx).max_error < 1e-10
    key = lambda z: (z.real, z.imag)  # noqa: E731
    assert sorted(real.tolist(), key=key) == sorted(real.conj().tolist(), key=key)
    assert reports["real"]["shift"][1] == 0.0


def test_eig_artifacts_byte_identical_across_same_seed_runs(capsys, tmp_path):
    paths = _real_lagrange_files(tmp_path)
    for run_dir in ("a", "b"):
        code, _, _ = run(capsys, "--seed", "4", "--emit", "csv", "--emit", "svg", "--emit",
                         "json", "--out", str(tmp_path / run_dir), "eig", str(paths["real"]),
                         "--poly", str(paths["poly"]))
        assert code == 0
    for name in ("eig.csv", "eig.svg", "eig.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
