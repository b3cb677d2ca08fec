import json
import re

import numpy as np
import pytest

import matpencil as mp
from matpencil import jsonio
from matpencil import fixtures

from helpers import rand_mat, rand_mono


def test_matpoly_roundtrip_all_bases():
    rng = np.random.default_rng(1)
    polys = [
        rand_mono(rng, 2, 2),
        mp.MatPoly.chebyshev_poly(np.stack([rand_mat(rng, 2) for _ in range(3)])),
        fixtures.mixed_lagrange_poly(),
    ]
    for p in polys:
        back = jsonio.matpoly_from_json(json.loads(json.dumps(jsonio.matpoly_to_json(p))))
        assert back.kind == p.kind
        assert back.dim == p.dim and back.grade == p.grade
        np.testing.assert_array_equal(back.data, p.data.astype(complex))
        if p.kind == "lagrange":
            np.testing.assert_array_equal(back.nodes, p.nodes)
            np.testing.assert_array_equal(back.weights, p.weights)


def test_pencil_and_triple_roundtrip():
    rng = np.random.default_rng(2)
    t = mp.frobenius_triple(rand_mono(rng, 2, 2))
    back = jsonio.triple_from_json(json.loads(json.dumps(jsonio.triple_to_json(t))))
    np.testing.assert_array_equal(back.pencil.A, t.pencil.A)
    np.testing.assert_array_equal(back.pencil.D, t.pencil.D)
    np.testing.assert_array_equal(back.X, t.X)
    np.testing.assert_array_equal(back.Y, t.Y)
    assert back.grade == t.grade
    assert set(jsonio.triple_to_json(t)) == {"X", "pencil", "Y", "grade"}


def _scalar_triple_json(weighted):
    # a(z) = 2z: pencil (2, 0) with X = Y = 1 reads 1 / (2z)
    obj = {"X": [[1]], "pencil": {"D": [[2]], "A": [[0]]}, "Y": [[1]], "grade": 1}
    return obj if weighted is None else {**obj, "weighted": weighted}


@pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
def test_weighted_key_is_malformed_input(value):
    # older files' "weighted": true meant X (zD - A)^-1 D Y; the reader no
    # longer folds D into Y, and says so
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError, match='"weighted".*fold D into Y'):
        jsonio.triple_from_json(_scalar_triple_json(value))
    t = jsonio.triple_from_json(_scalar_triple_json(None))
    assert mp.resolvent_eval(t, 1.0)[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("value", ["yes", 1, None, [True]],
                         ids=["string", "integer", "null", "list"])
def test_weighted_must_be_a_boolean(value):
    # the old boolean check's cases; a boolean is rejected too (above)
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError):
        jsonio.triple_from_json({**_scalar_triple_json(None), "weighted": value})


@pytest.mark.parametrize("value", ["x", 1.0, True, None],
                         ids=["string", "float", "boolean", "null"])
def test_triple_grade_must_be_an_integer(value):
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError, match="grade"):
        jsonio.triple_from_json({**_scalar_triple_json(None), "grade": value})
    obj = _scalar_triple_json(None)
    assert jsonio.triple_from_json(obj).grade == 1
    del obj["grade"]
    assert jsonio.triple_from_json(obj).grade is None


def test_eigenreport_schema():
    rep = mp.generalized_eigen(mp.Pencil(np.eye(2), np.diag([1.0, 2.0])), rng=0)
    obj = jsonio.eigenreport_to_json(rep)
    assert set(obj) == {"finite", "infinite_count", "residuals", "shift", "backend"}
    assert all(len(z) == 2 for z in obj["finite"])
    assert obj["infinite_count"] == 0


def test_expression_leaf_and_composite():
    rng = np.random.default_rng(3)
    a, b = rand_mono(rng, 2, 1), rand_mono(rng, 2, 2)
    node = {
        "op": "composite",
        "a": {"frobenius": jsonio.matpoly_to_json(a)},
        "b": {"frobenius": jsonio.matpoly_to_json(b)},
        "d0": jsonio.matrix_to_json(np.eye(2)),
        "c0": jsonio.matrix_to_json(rand_mat(rng, 2)),
    }
    triple, poly = jsonio.build_expression(node)
    assert triple.N == a.grade * 2 + 2 + b.grade * 2
    assert poly.grade == a.grade + b.grade + 1
    assert mp.verify_triple(triple, poly, rng=4).passed


def test_expression_product_shift_add():
    rng = np.random.default_rng(5)
    a = rand_mono(rng, 1, 2)
    base = {"frobenius": jsonio.matpoly_to_json(a)}
    eye = jsonio.matrix_to_json(np.eye(1))

    t, p = jsonio.build_expression({"op": "product", "a": base, "b": base, "variant": "F1"})
    assert mp.verify_triple(t, p, rng=6).passed

    t, p = jsonio.build_expression({"op": "shift_left", "a": base, "d0": eye, "c0": eye})
    assert mp.verify_triple(t, p, rng=7).passed

    t, p = jsonio.build_expression({"op": "shift_right", "a": base, "d0": eye, "c0": eye})
    assert mp.verify_triple(t, p, rng=8).passed

    c = rand_mono(rng, 1, 1)
    t, p = jsonio.build_expression({"op": "add", "a": base, "c": jsonio.matpoly_to_json(c)})
    assert mp.verify_triple(t, p, rng=9).passed


def test_expression_mixed_basis_leaves():
    node = {
        "op": "composite",
        "a": {"lagrange": jsonio.matpoly_to_json(fixtures.mixed_lagrange_poly())},
        "b": {"chebyshev": jsonio.matpoly_to_json(fixtures.mixed_chebyshev_poly())},
        "d0": jsonio.matrix_to_json(np.eye(3)),
        "c0": jsonio.matrix_to_json(np.eye(3)),
    }
    triple, poly = jsonio.build_expression(node)
    assert triple.N == 27
    assert mp.verify_triple(triple, poly, rng=10).passed


@pytest.mark.parametrize("value", ["x", [1], [1, 2, 3], None, ["1", 0], {"re": 1},
                                   True, [True, 1], [1, False]],
                         ids=["string", "short_pair", "long_pair", "null", "string_part",
                              "object", "boolean", "boolean_re", "boolean_im"])
def test_malformed_number_is_structural_error(value):
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError):
        jsonio.number_from_json(value)
    with pytest.raises(StructuralError):
        jsonio.matrix_from_json([[value]])
    with pytest.raises(StructuralError):
        jsonio.vector_from_json([value])


_PENCIL_2 = {"D": [[1, 0], [0, 1]], "A": [[0, 1], [1, 0]], "N": 2,
             "block_meta": {"blocks": [1, 1]}}
_ABSENT = object()


def _pencil_with(patch):
    obj = {**_PENCIL_2, **patch}
    return {key: value for key, value in obj.items() if value is not _ABSENT}


@pytest.mark.parametrize("patch", [
    {}, {"N": _ABSENT}, {"block_meta": _ABSENT}, {"block_meta": {}},
    {"block_meta": {"blocks": [2], "note": "x"}}, {"block_meta": {"note": "x"}},
], ids=["both", "no_N", "no_block_meta", "empty_block_meta", "one_block", "no_blocks"])
def test_pencil_n_and_block_meta_are_optional_and_kept(patch):
    obj = _pencil_with(patch)
    p = jsonio.pencil_from_json(obj)
    assert p.N == 2 and p.block_meta == obj.get("block_meta")


@pytest.mark.parametrize("patch, message", [
    ({"N": 7}, "N is 7, but D is 2x2"), ({"N": 2.0}, "N must be an integer"),
    ({"N": True}, "N must be an integer"), ({"N": "2"}, "N must be an integer"),
    ({"block_meta": 5}, "block_meta must be an object"),
    ({"block_meta": None}, "block_meta must be an object"),
    ({"block_meta": [1, 1]}, "block_meta must be an object"),
    ({"block_meta": {"blocks": [5, "x"]}}, "blocks must be positive integers"),
    ({"block_meta": {"blocks": 2}}, "blocks must be positive integers"),
    ({"block_meta": {"blocks": [3]}}, "blocks must be positive integers that sum to N = 2"),
    ({"block_meta": {"blocks": [1, 0, 1]}}, "blocks must be positive integers"),
    ({"block_meta": {"blocks": [-1, 3]}}, "blocks must be positive integers"),
    ({"block_meta": {"blocks": [1.0, 1.0]}}, "blocks must be positive integers"),
    ({"block_meta": {"blocks": [True, 1]}}, "blocks must be positive integers"),
], ids=["N_disagrees", "N_float", "N_bool", "N_string", "meta_number", "meta_null",
        "meta_list", "blocks_string", "blocks_number", "blocks_sum", "blocks_zero",
        "blocks_negative", "blocks_float", "blocks_bool"])
def test_malformed_pencil_n_or_block_meta_is_structural_error(patch, message):
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError, match=re.escape(message)):
        jsonio.pencil_from_json(_pencil_with(patch))
    with pytest.raises(StructuralError, match=re.escape(message)):  # inside a triple too
        jsonio.triple_from_json({"X": [[1, 0]], "pencil": _pencil_with(patch), "Y": [[1], [0]]})


_LAGRANGE_3 = {"lagrange": {"nodes": [0, 1, 2], "weights": [0.5, -1, 0.5]}}


@pytest.mark.parametrize("patch, message", [
    ({"dim": "x"}, None), ({"grade": None}, None), ({"data": 5}, None), ({"data": []}, None),
    ({"data": [[[1]], [[1, 0], [0, 1]]]}, None),
    ({"grade": 2.7, "data": [[[1]], [[1]], [[1]]]}, None), ({"dim": True}, None),
    # a single fault in dim, grade or the node count, with the reader's message
    ({"dim": 2}, "data must be a stack of 2x2 matrices, got (2, 1, 1)"),
    ({"grade": 2}, "grade 2 needs 3 matrices, got 2"),
    ({"data": [[[1, 0]], [[1, 0]]]}, "data must be a stack of 1x1 matrices, got (2, 1, 2)"),
    ({"basis": _LAGRANGE_3}, "lagrange node count must be grade + 1"),
], ids=["dim", "grade", "data_number", "data_empty", "data_shapes", "grade_float", "dim_bool",
        "dim_disagrees", "grade_disagrees", "cells_not_square", "node_count"])
def test_malformed_matpoly_is_structural_error(patch, message):
    from matpencil.errors import StructuralError
    obj = {"basis": "monomial", "dim": 1, "grade": 1, "data": [[[1]], [[1]]]}
    assert jsonio.matpoly_from_json(obj).grade == 1
    with pytest.raises(StructuralError, match=message and f"^{re.escape(message)}$"):
        jsonio.matpoly_from_json({**obj, **patch})


@pytest.mark.parametrize("op", ["shift_left", "shift_right", "add", "product", "composite"])
def test_expression_poly_evaluates_a_stack_of_points(op):
    rng = np.random.default_rng(13)
    a, b, c = rand_mono(rng, 2, 2), rand_mono(rng, 2, 1), rand_mono(rng, 2, 1)
    node = {"op": op, "a": {"frobenius": jsonio.matpoly_to_json(a)},
            "b": {"chebyshev": jsonio.matpoly_to_json(mp.MatPoly.chebyshev_poly(b.data))},
            "c": jsonio.matpoly_to_json(c),
            "d0": jsonio.matrix_to_json(rand_mat(rng, 2)),
            "c0": jsonio.matrix_to_json(rand_mat(rng, 2))}
    _, poly = jsonio.build_expression(node)
    z = np.concatenate([2.0 * np.exp(2j * np.pi * rng.random(5)), [0.0, 1.5]])
    want = np.stack([mp.eval_at(poly, complex(x)) for x in z])
    got = mp.eval_at(poly, z)
    assert got.shape == (z.size, 2, 2)
    # same arithmetic, possibly through a vectorized loop: equal up to rounding
    tol = 64 * np.finfo(float).eps * np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    np.testing.assert_array_equal(mp.eval_at(poly, z[0]), mp.eval_at(poly, complex(z[0])))


@pytest.mark.parametrize("rows, dtype", [
    ([[1, 2.5], [-3, 0]], np.float64),
    ([[[1, 0], [2.5, 0]], [[-3, 0], [0, 1]]], np.complex128),
    ([[1, [0, 1]], [2.5, -3]], np.complex128),
], ids=["plain", "pairs", "mixed"])
def test_json_round_trip_keeps_the_dtype(rows, dtype):
    # plain numbers read as float64 and are written back as plain numbers; a
    # pair anywhere makes the matrix complex128, written back as pairs
    mat = jsonio.matrix_from_json(rows)
    assert mat.dtype == dtype
    text = json.dumps(jsonio.matrix_to_json(mat))
    back = jsonio.matrix_from_json(json.loads(text))
    assert back.dtype == dtype
    np.testing.assert_array_equal(back, mat)
    cells = [x for row in json.loads(text) for x in row]
    if dtype == np.float64:
        assert all(isinstance(x, float) for x in cells)
    else:
        assert all(isinstance(x, list) and len(x) == 2 for x in cells)


def test_real_polynomial_and_triple_files_round_trip_as_float64():
    p = fixtures.mixed_lagrange_poly()  # real nodes, weights and samples
    obj = json.loads(json.dumps(jsonio.matpoly_to_json(p)))
    assert isinstance(obj["basis"]["lagrange"]["nodes"][0], float)
    back = jsonio.matpoly_from_json(obj)
    for got, want in ((back.data, p.data), (back.nodes, p.nodes),
                      (back.weights, p.weights)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
    t = mp.lagrange_triple(back)
    assert t.pencil.A.dtype == np.float64
    t2 = jsonio.triple_from_json(json.loads(json.dumps(jsonio.triple_to_json(t))))
    for got, want in ((t2.X, t.X), (t2.pencil.D, t.pencil.D), (t2.pencil.A, t.pencil.A),
                      (t2.Y, t.Y)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
