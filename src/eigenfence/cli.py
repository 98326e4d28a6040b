"""Command-line front end.

Subcommands: locate, refine, bound, obr, render, eig, validate.  All take
the JSON problem format (matrix plus optional eigenpair); ``eig`` also
accepts the plain-text matrix form.  Exit codes: 0 success, 1 math-module
failure, 2 parse/validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds, cassini, discs, oracle, refine, render, similarity
from .core import (
    DEFAULT_TOL,
    EigenfenceError,
    Eigenpair,
    InputError,
    check_eigenpair,
    parse_matrix,
    parse_problem,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_problem(path: str):
    matrix, pair = parse_problem(_read(path))
    if pair is None:
        raise InputError(
            "this command needs an eigenpair in the problem file; "
            "run `eigenfence eig` on the matrix to discover one")
    if matrix.shape[0] < 3:
        raise InputError(f"this command needs n >= 3, got n = {matrix.shape[0]}")
    return matrix, pair


def _resolve_zero_free(matrix, pair: Eigenpair, tol: float):
    """Desingularize transparently when the eigenvector has zero components."""
    if np.any(np.abs(pair.vector) <= similarity.zero_tolerance(pair.vector)):
        d = similarity.desingularize(matrix, pair, tol)
        print(f"note: eigenvector has {d.k} zero component(s); "
              "continuing on the desingularized similar matrix", file=sys.stderr)
        return d.C, Eigenpair(pair.value, d.w)
    return matrix, pair


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_locate(args) -> int:
    matrix, pair = _load_problem(args.problem)
    resolved, rpair = _resolve_zero_free(matrix, pair, args.tol)
    region = discs.eigenpair_region(resolved, rpair, args.tol)
    if args.classic:
        _emit({
            "second_type": region.to_json(),
            "classic_columns": discs.classic_discs(matrix, "columns").to_json(),
            "classic_rows": discs.classic_discs(matrix, "rows").to_json(),
        })
    else:
        _emit(region.to_json())
    return EXIT_OK


def _cmd_refine(args) -> int:
    matrix, pair = _load_problem(args.problem)
    matrix, pair = _resolve_zero_free(matrix, pair, args.tol)
    b = similarity.diag_similar(matrix, pair, args.tol).B
    doc = {"row_sum": pair.value}
    if b.shape[0] % 2 == 0:
        ref = refine.refine_even(b)
        doc["F"] = ref.F.tolist()
        doc["shifts"] = ref.shifts.tolist()
    else:
        ref = refine.refine_odd(b)
        doc["F"] = ref.F.tolist()
        doc["G"] = ref.G.tolist()
        doc["f_shifts"] = ref.f_shifts.tolist()
        doc["g_shifts"] = ref.g_shifts.tolist()
    doc["region"] = refine.refined_region(b).to_json()
    _emit(doc)
    return EXIT_OK


def _cmd_bound(args) -> int:
    matrix, pair = _load_problem(args.problem)
    matrix, pair = _resolve_zero_free(matrix, pair, args.tol)
    if args.norm == "1":
        kinds = (bounds.SemiNorm.L1,)
    elif args.norm == "inf":
        kinds = (bounds.SemiNorm.LINF,)
    else:
        kinds = (bounds.SemiNorm.L1, bounds.SemiNorm.LINF)
    ks = tuple(range(1, args.k + 1))
    reports = bounds.standard_reports(matrix, pair, ks=ks, kinds=kinds,
                                      include_det=args.det, tol=args.tol)
    known = abs(pair.value)
    _emit([r.to_json() | {"improves_on_known": r.value < known} for r in reports])
    return EXIT_OK


def _cmd_obr(args) -> int:
    matrix, pair = _load_problem(args.problem)
    matrix, pair = _resolve_zero_free(matrix, pair, args.tol)
    region = cassini.cassini_intersection_region(matrix, pair, args.tol)
    _emit(region.to_json())
    return EXIT_OK


def _cmd_render(args) -> int:
    matrix, pair = _load_problem(args.problem)
    layer_names = [s.strip() for s in args.layers.split(",") if s.strip()]
    layers = []
    for name in layer_names:
        if name == "classic":
            layers.append((discs.classic_discs(matrix, "columns"), render.GRAY, 1.0))
        elif name == "second":
            layers.append((discs.eigenpair_region(matrix, pair, args.tol), render.BLUE, 1.0))
        elif name == "refined":
            m, p = _resolve_zero_free(matrix, pair, args.tol)
            b = similarity.diag_similar(m, p, args.tol).B
            layers.append((refine.refined_region(b), render.TURQUOISE, 1.0))
        else:
            raise InputError(f"unknown layer {name!r} (choose from classic,second,refined)")
    points = []
    if args.eigs:
        spectrum = oracle.eigenvalues(matrix)
        points = [(complex(z), render.BLACK) for z in spectrum.values]
    svg = render.render_svg(render.Scene(layers=tuple(layers), points=tuple(points)))
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
    return EXIT_OK


def _format_eigenvalue(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _cmd_eig(args) -> int:
    matrix = parse_matrix(_read(args.matrix))
    spectrum = oracle.eigenvalues(matrix)
    for z in spectrum.values:
        print(_format_eigenvalue(complex(z)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    matrix, pair = _load_problem(args.problem)
    residual = check_eigenpair(matrix, pair, args.tol)
    valid = residual <= args.tol
    _emit({"residual": residual, "tol": args.tol, "valid": valid})
    return EXIT_OK if valid else EXIT_INPUT


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenfence",
        description="Inclusion regions and bounds for the eigenvalues of a real "
                    "matrix other than one known eigenpair.")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="eigenpair residual tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locate", help="second-type disc inclusion region")
    p.add_argument("problem")
    p.add_argument("--classic", action="store_true",
                   help="include the classic Gershgorin disc lists")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("refine", help="column-shift refinement matrices and region")
    p.add_argument("problem")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("bound", help="upper bounds on the largest remaining eigenvalue")
    p.add_argument("problem")
    p.add_argument("--k", type=int, default=1, help="largest matrix power to try")
    p.add_argument("--norm", choices=["1", "inf", "both"], default="both",
                   help="semi-norm to use (only 1 and inf have closed forms)")
    p.add_argument("--det", action="store_true", help="include determinant bounds")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("obr", help="intersection of Ostrowski-Brauer sets")
    p.add_argument("problem")
    p.set_defaults(func=_cmd_obr)

    p = sub.add_parser("render", help="draw regions to SVG")
    p.add_argument("problem")
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.add_argument("--layers", default="classic,second",
                   help="comma list from classic,second,refined")
    p.add_argument("--eigs", action="store_true",
                   help="overlay the dense-solver eigenvalues")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("eig", help="dense-solver spectrum of a matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("validate", help="check the eigenpair residual")
    p.add_argument("problem")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EigenfenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
