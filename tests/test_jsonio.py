import json

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
        assert back.basis.kind == p.basis.kind
        assert back.dim == p.dim and back.grade == p.grade
        np.testing.assert_array_equal(back.data, p.data.astype(complex))
        if p.basis.kind == "lagrange":
            np.testing.assert_array_equal(back.basis.nodes, p.basis.nodes)
            np.testing.assert_array_equal(back.basis.weights, p.basis.weights)


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


def test_weighted_triple_file_folds_d_into_y():
    # "weighted": true means X (zD - A)^-1 D Y, read as Y <- D Y
    t = jsonio.triple_from_json(_scalar_triple_json(True))
    np.testing.assert_array_equal(t.Y, [[2]])
    assert mp.resolvent_eval(t, 1.0)[0, 0] == pytest.approx(1.0)
    for weighted in (False, None):
        t = jsonio.triple_from_json(_scalar_triple_json(weighted))
        assert mp.resolvent_eval(t, 1.0)[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("value", ["yes", 1, None, [True]],
                         ids=["string", "integer", "null", "list"])
def test_weighted_must_be_a_boolean(value):
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError):
        jsonio.triple_from_json({**_scalar_triple_json(None), "weighted": value})


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


@pytest.mark.parametrize("value", ["x", [1], [1, 2, 3], None, ["1", 0], {"re": 1}],
                         ids=["string", "short_pair", "long_pair", "null", "string_part",
                              "object"])
def test_malformed_number_is_structural_error(value):
    from matpencil.errors import StructuralError
    with pytest.raises(StructuralError):
        jsonio.complex_from_json(value)
    with pytest.raises(StructuralError):
        jsonio.matrix_from_json([[value]])
    with pytest.raises(StructuralError):
        jsonio.vector_from_json([value])


@pytest.mark.parametrize("patch", [{"dim": "x"}, {"grade": None}, {"data": 5}, {"data": []},
                                   {"data": [[[1]], [[1, 0], [0, 1]]]},
                                   {"grade": 2.7, "data": [[[1]], [[1]], [[1]]]},
                                   {"dim": True}],
                         ids=["dim", "grade", "data_number", "data_empty", "data_shapes",
                              "grade_float", "dim_bool"])
def test_malformed_matpoly_is_structural_error(patch):
    from matpencil.errors import StructuralError
    obj = {"basis": "monomial", "dim": 1, "grade": 1, "data": [[[1]], [[1]]]}
    assert jsonio.matpoly_from_json(obj).grade == 1
    with pytest.raises(StructuralError):
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
