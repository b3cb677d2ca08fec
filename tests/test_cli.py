import json
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
    code, _, err = run(capsys, *argv)
    assert code == 1
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


@pytest.mark.parametrize("weighted, code", [(True, 0), (False, 2), (None, 2), ("yes", 1)],
                         ids=["true", "false", "absent", "string"])
def test_verify_reads_weighted_triple_file(capsys, tmp_path, weighted, code):
    # a(z) = 2z + 1; with "weighted": true the file's resolvent is
    # X (zD - A)^-1 D Y = 1 / (2z + 1), without it 0.5 / (2z + 1)
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


def test_height_non_integer_csv_cell_exit_code(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n")
    assert "CSV" in _one_line_error(capsys, "height", str(path))


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


@pytest.mark.parametrize("argv", [["height", "missing.csv"], ["height", "missing.json"],
                                  ["eig", "missing.json"], ["verify", "--expr", "missing.json"]],
                         ids=["height_csv", "height_json", "eig", "verify_expr"])
def test_missing_input_file_exit_code(capsys, tmp_path, argv):
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert "No such file" in _one_line_error(capsys, *argv)


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
