"""Command line interface: construction, solving, verification, and the three
experiment drivers, with CSV/SVG/JSON artifact emission.

Exit codes: 0 success, 1 malformed input or usage error, 2 numerical check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, jsonio, mandelbrot
from .eigensolve import generalized_eigen, residuals
from .errors import (ContractError, DegenerateInputError, ResourceLimitError, SpectrumError,
                     StructuralError, VerificationError)
from .matpoly import height_report
from .oracle import det_equality
from .pencil import _check_sampling, verify_triple


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path) -> str:
    """The file's text; a missing or unreadable file is malformed input."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise StructuralError(f"{path}: {exc.strerror or exc}") from None


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}") from None


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def eigen_csv(report) -> str:
    rows = ["re,im,residual"]
    res = report.residuals if report.residuals is not None else [float("nan")] * len(report.finite)
    order = np.lexsort((np.asarray(report.finite).imag, np.asarray(report.finite).real))
    for i in order:
        z = report.finite[i]
        rows.append(f"{_fmt(z.real)},{_fmt(z.imag)},{_fmt(res[i])}")
    return "\n".join(rows) + "\n"


_SVG_SIZE = 640


def eigen_svg(report) -> str:
    """Minimal scatter plot of the finite eigenvalues."""
    pts = np.asarray(report.finite)
    if pts.size:
        lo = min(pts.real.min(), pts.imag.min()) - 0.2
        hi = max(pts.real.max(), pts.imag.max()) + 0.2
    else:
        lo, hi = -1.0, 1.0
    span = hi - lo or 1.0

    def sx(v):
        return (v - lo) / span * _SVG_SIZE

    def sy(v):
        return _SVG_SIZE - (v - lo) / span * _SVG_SIZE

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
             f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
             f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
             f'<line x1="0" y1="{sy(0):.2f}" x2="{_SVG_SIZE}" y2="{sy(0):.2f}" stroke="#999"/>',
             f'<line x1="{sx(0):.2f}" y1="0" x2="{sx(0):.2f}" y2="{_SVG_SIZE}" stroke="#999"/>']
    order = np.lexsort((pts.imag, pts.real)) if pts.size else []
    for i in order:
        parts.append(f'<circle cx="{sx(pts[i].real):.3f}" cy="{sy(pts[i].imag):.3f}" '
                     f'r="2" fill="#1133aa"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _emit(args, stem: str, report, **fields):
    """Write the requested artifacts; `fields` are extra keys of the JSON one."""
    if not args.emit:
        return
    out = _outdir(args)
    if "csv" in args.emit:
        (out / f"{stem}.csv").write_text(eigen_csv(report))
    if "svg" in args.emit:
        (out / f"{stem}.svg").write_text(eigen_svg(report))
    if "json" in args.emit:
        (out / f"{stem}.json").write_text(
            jsonio.dumps({**jsonio.eigenreport_to_json(report), **fields}))


def cmd_mandelbrot(args) -> int:
    rep = mandelbrot.inverse_structure(args.n)
    ok = mandelbrot.charpoly_identity(args.n, range(-3, 4))
    dim = rep.inverse.shape[0]
    # M_n and its inverse are held as their nonzeros; each is made dense only
    # where it is shown (dim <= 31), and --out writes them from the nonzeros
    m = mandelbrot.mandelbrot_matrix(args.n).entries if dim <= 31 or args.out else None
    if dim <= 31:
        print(f"M_{args.n} ({dim}x{dim}):")
        for row in m.toarray():
            print("  [" + " ".join(f"{int(v):2d}" for v in row) + "]")
        print("inverse:")
        for row in rep.inverse.toarray():
            print("  [" + " ".join(f"{int(v):2d}" for v in row) + "]")
    else:
        print(f"M_{args.n}: dim {dim}")
    print(f"corner of inverse: {rep.corner_value}; inverse height 1: {rep.height1}; "
          f"zero block: {rep.zero_block_ok}; charpoly identity on -3..3: {ok}")
    if args.out:
        out = _outdir(args)
        for name, mat in ((f"m{args.n}.csv", m), (f"m{args.n}_inverse.csv", rep.inverse)):
            _write_csv(out / name, mat)
        (out / f"m{args.n}_report.json").write_text(jsonio.dumps({
            "n": rep.n, "dim": dim, "corner_value": rep.corner_value,
            "zero_block_ok": rep.zero_block_ok, "height1": rep.height1,
            "charpoly_identity": bool(ok),
        }))
    return 0 if ok and rep.height1 and rep.corner_value == -1 else 2


def _write_csv(path: Path, mat: mandelbrot.NonzeroMatrix) -> None:
    """Write an integer matrix held as its nonzeros as CSV, one row at a time:
    each row is the text of a zero row with the row's nonzeros spliced in, so
    neither a dense array nor the whole text is held in memory."""
    nrows, ncols = mat.shape
    zeros = "0," * ncols
    rows, cols = np.divmod(mat.keys, ncols)
    bounds = np.searchsorted(rows, np.arange(nrows + 1)).tolist()
    cols, vals = cols.tolist(), mat.values.tolist()
    with open(path, "w") as f:
        for i in range(nrows):
            parts, at = [], 0
            for k in range(bounds[i], bounds[i + 1]):
                parts += (zeros[:2 * (cols[k] - at)], f"{vals[k]},")
                at = cols[k] + 1
            parts.append(zeros[:2 * (ncols - at)])
            f.write("".join(parts)[:-1] + "\n")


def cmd_build(args) -> int:
    expr = _load_json(args.expr)
    triple, _ = jsonio.build_expression(expr)
    payload = jsonio.dumps(jsonio.triple_to_json(triple))
    if args.out:
        (_outdir(args) / "triple.json").write_text(payload)
    else:
        print(payload, end="")
    return 0


def cmd_eig(args) -> int:
    obj = _load_json(args.pencil)
    if isinstance(obj, dict) and "pencil" in obj:  # a triple file holds its pencil
        obj = obj["pencil"]
    pencil = jsonio.pencil_from_json(obj)
    p = jsonio.matpoly_from_json(_load_json(args.poly)) if args.poly else None
    rng = np.random.default_rng(args.seed)
    report = generalized_eigen(pencil, rng=rng)
    if p is not None:
        report.residuals = residuals(p, report.finite)
    print(jsonio.dumps(jsonio.eigenreport_to_json(report)), end="")
    _emit(args, "eig", report)
    return 0


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.expr:
        triple, poly = jsonio.build_expression(_load_json(args.expr))
    else:
        triple = jsonio.triple_from_json(_load_json(args.triple))
        poly = jsonio.matpoly_from_json(_load_json(args.poly))
    det = det_equality(triple.pencil, poly, n_points=args.points, tol=args.tol)
    rep = verify_triple(triple, poly, n_points=min(det.points, 8), tol=args.tol, rng=rng)
    ok = det.ok and rep.passed
    print(f"det identity: {'pass' if det.ok else 'FAIL'} "
          f"(max deviation {det.max_deviation:.3e} over {det.points} points)")
    print(str(rep))
    return 0 if ok else 2


def cmd_height(args) -> int:
    path = Path(args.matrix)
    if path.suffix == ".csv":
        text = _read_text(path)
        try:
            mat = np.array([[int(v) for v in line.split(",")]
                            for line in text.split() if line])
        except ValueError:
            raise StructuralError(f"{path}: CSV cells must be integers in rows of one length")
    else:
        mat = jsonio.matrix_from_json(_load_json(args.matrix))
    rep = height_report(mat)
    print(jsonio.dumps({
        "height": rep.height, "t_metric": rep.t_metric,
        "is_bohemian_01": rep.is_bohemian_01, "is_height1_integer": rep.is_height1_integer,
    }), end="")
    return 0


def cmd_family(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports = experiments.run_family(args.kmax, rng=rng)
    print("k,dim,finite,infinite,max_residual,height,t_metric,seconds")
    for rep in reports:
        print(f"{rep.k},{rep.dim},{rep.n_finite},{rep.n_infinite},"
              f"{rep.max_residual:.3e},{_fmt(rep.pencil_height)},"
              f"{_fmt(rep.pencil_t_metric)},{rep.solve_seconds:.3f}")
        _emit(args, f"family_k{rep.k}", rep.eigen)
    return 0


def cmd_quintic(args) -> int:
    rng = np.random.default_rng(args.seed)
    rep = experiments.run_random_quintic(rng=rng)
    print(f"glued linearization max residual:    {rep.algebraic_max_residual:.3e} "
          f"(finite {rep.algebraic_counts[0]}, infinite {rep.algebraic_counts[1]})")
    print(f"expanded companion max residual:     {rep.frobenius_max_residual:.3e} "
          f"(finite {rep.frobenius_counts[0]}, infinite {rep.frobenius_counts[1]})")
    print(f"ratio (expanded / glued):            {rep.ratio:.1f}x")
    print(f"residuals evaluated in:              {rep.residual_dtype}")
    _emit(args, "quintic_glued", rep.algebraic_eigen, residual_dtype=rep.residual_dtype)
    _emit(args, "quintic_expanded", rep.frobenius_eigen, residual_dtype=rep.residual_dtype)
    return 0


def cmd_mixed(args) -> int:
    rng = np.random.default_rng(args.seed)
    rep = experiments.run_mixed_basis(rng=rng)
    print(f"mixed-basis pencil: dim {rep.dim}, blocks {rep.blocks}")
    print(f"finite {rep.n_finite}, infinite {rep.n_infinite} (discarded; "
          f"zero D-block bookkeeping), oracle degree {rep.oracle_degree}")
    print(f"max forward error vs oracle roots: {rep.max_forward_error:.3e}")
    print(f"note: {rep.c0_note}")
    _emit(args, "mixed", rep.eigen)
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="matpencil",
                     description="companion-pencil linearizations of matrix polynomials")
    parser.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--points", type=int, default=None, help="verification point count")
    parser.add_argument("--emit", action="append", choices=["csv", "svg", "json"], default=None)
    parser.add_argument("--out", default=None, help="artifact output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("mandelbrot", help="build M_n, its exact inverse, and check the charpoly")
    s.add_argument("n", type=int)
    s.set_defaults(fn=cmd_mandelbrot)

    s = sub.add_parser("build", help="build a pencil from a composition-expression JSON")
    s.add_argument("expr")
    s.set_defaults(fn=cmd_build)

    s = sub.add_parser("eig", help="solve a pencil JSON file")
    s.add_argument("pencil")
    s.add_argument("--poly", default=None, help="matpoly JSON for residuals")
    s.set_defaults(fn=cmd_eig)

    s = sub.add_parser("verify", help="check a triple against its polynomial")
    s.add_argument("--triple", default=None)
    s.add_argument("--poly", default=None)
    s.add_argument("--expr", default=None, help="composition expression to build and verify")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("height", help="entry-height report for a matrix file (.json or .csv)")
    s.add_argument("matrix")
    s.set_defaults(fn=cmd_height)

    s = sub.add_parser("family", help="recursive 4x4 family experiment")
    s.add_argument("--kmax", type=int, default=6)
    s.set_defaults(fn=cmd_family)

    s = sub.add_parser("quintic", help="glued vs expanded linearization comparison")
    s.set_defaults(fn=cmd_quintic)

    s = sub.add_parser("mixed", help="mixed Lagrange x Chebyshev experiment")
    s.set_defaults(fn=cmd_mixed)

    args = parser.parse_args(argv)
    if args.command == "verify" and not args.expr and not (args.triple and args.poly):
        parser.error("verify needs --expr or both --triple and --poly")
    if args.emit and not args.out:
        parser.error("--emit needs --out")
    try:
        _check_sampling(1 if args.points is None else args.points, args.tol)
        return args.fn(args)
    except (ContractError, StructuralError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpectrumError, DegenerateInputError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
