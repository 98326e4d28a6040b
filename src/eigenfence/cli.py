"""Command-line front end.

Subcommands: locate, refine, bound, obr, render, eig, validate.  All take
the JSON problem format (matrix plus optional eigenpair); ``eig`` also
accepts the plain-text matrix form.  Exit codes: 0 success; 2 for an
:class:`~eigenfence.core.InputError` (bad text, JSON or numbers, n < 3, a
``--tol`` that is not a finite positive number, an eigenpair whose
residual is not finite or that puts B above the float range, a
``bound --k`` below 1, a ``render`` with no layer and no ``--eigs``, an
input that is not UTF-8) or an ``OSError`` (an input that cannot be read,
an ``--out`` that cannot be written); 1 for any other
:class:`~eigenfence.core.EigenfenceError` (B's row sums not constant, a
size outside an operation's range, a degenerate viewport) or an
``OverflowError`` (a bound value, a refinement entry or a region above
the float range).

Every JSON command writes what ``json.dumps(doc, indent=2)`` would, byte
for byte, through :func:`eigenfence.geometry.iterencode`: the commands put
region objects and numpy arrays in the document, and their tables go to
stdout a chunk of rows at a time, with no dict per row and no copy of the
whole text.  Everything a command computes is built before the first byte
is written, so a refusal prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bounds, cassini, discs, oracle, refine, render, similarity
from .core import (
    DEFAULT_TOL,
    EigenfenceError,
    InputError,
    check_eigenpair,
    parse_matrix,
    parse_problem,
)
from .geometry import iterencode

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _load_problem(path: str):
    matrix, pair = parse_problem(_read(path))
    if pair is None:
        raise InputError(
            "this command needs an eigenpair in the problem file; "
            "run `eigenfence eig` on the matrix to discover one")
    if matrix.shape[0] < 3:
        raise InputError(f"this command needs n >= 3, got n = {matrix.shape[0]}")
    return matrix, pair


def _prepare(matrix, pair, tol: float) -> similarity.SimilarityResult:
    """B for the command, with a note on stderr when the shear path ran."""
    sim = similarity.prepare(matrix, pair, tol)
    if sim.k:
        print(f"note: eigenvector has {sim.k} zero component(s); "
              "continuing on the desingularized similar matrix", file=sys.stderr)
    return sim


def _emit(doc) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to stdout, piece by
    piece; regions and arrays in ``doc`` are written from their tables."""
    write = sys.stdout.write
    for piece in iterencode(doc):
        write(piece)
    write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_locate(args) -> int:
    matrix, pair = _load_problem(args.problem)
    region = discs.second_type_discs_of_transpose(_prepare(matrix, pair, args.tol).B)
    if args.classic:
        _emit({
            "second_type": region,
            "classic_columns": discs.classic_discs(matrix, "columns"),
            "classic_rows": discs.classic_discs(matrix, "rows"),
        })
    else:
        _emit(region)
    return EXIT_OK


def _cmd_refine(args) -> int:
    matrix, pair = _load_problem(args.problem)
    ref = refine.refinement(_prepare(matrix, pair, args.tol).B)
    off = ref.offsets   # the even "shifts" are subtracted from B, the odd ones added
    shifts = {"f_shifts": off["F"], "g_shifts": off["G"]} if "G" in off else {"shifts": -off["F"]}
    _emit({"row_sum": pair.value, **ref.matrices, **shifts, "region": ref.region()})
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.k < 1:
        raise InputError(f"--k must be a positive integer, got {args.k}")
    matrix, pair = _load_problem(args.problem)
    kinds = tuple(bounds.SemiNorm) if args.norm == "both" else (bounds.SemiNorm(args.norm),)
    ks = tuple(range(1, args.k + 1))
    reports = bounds.prepared_reports(_prepare(matrix, pair, args.tol), ks=ks, kinds=kinds,
                                      include_det=args.det)
    known = abs(pair.value)
    _emit([r.to_json() | {"improves_on_known": r.value < known} for r in reports])
    return EXIT_OK


def _cmd_obr(args) -> int:
    matrix, pair = _load_problem(args.problem)
    _emit(cassini.obr_intersection(_prepare(matrix, pair, args.tol).B))
    return EXIT_OK


def _cmd_render(args) -> int:
    matrix, pair = _load_problem(args.problem)
    layer_names = [s.strip() for s in args.layers.split(",") if s.strip()]
    b = _prepare(matrix, pair, args.tol).B if {"second", "refined"} & set(layer_names) else None
    build = {"classic": lambda: (discs.classic_discs(matrix, "columns"), render.GRAY),
             "second": lambda: (discs.second_type_discs_of_transpose(b, split), render.BLUE),
             "refined": lambda: (refine.refinement(b, split).region(), render.TURQUOISE)}
    for name in layer_names:
        if name not in build:
            raise InputError(f"unknown layer {name!r} (choose from {','.join(build)})")
    if not layer_names and not args.eigs:
        raise InputError("nothing to draw: --layers names no layer and --eigs is off")
    split = None if b is None else discs.split_columns(b)   # one split serves both layers
    layers = [(*build[name](), 1.0) for name in layer_names]
    points = []
    if args.eigs:
        points = [(complex(z), render.BLACK) for z in oracle.eigenvalues(matrix)]
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
    for z in oracle.eigenvalues(matrix):
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
                        help="eigenpair residual tolerance, a positive number (default 1e-9)")
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


#: One parser per process: nothing in it depends on the call, and argparse
#: looks up ``sys.stdout``/``sys.stderr`` only when it prints.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        # NaN or inf: no residual exceeds it, so every pair would pass
        if not 0 < args.tol < math.inf:
            raise InputError(f"--tol must be a positive number, got {args.tol!r}")
        return args.func(args)
    # OSError: an input that cannot be read, an --out that cannot be written
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EigenfenceError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
