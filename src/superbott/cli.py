"""Command-line front end: character computations and verifications in batch.

Exit codes: 0 on success, 2 when a mathematical precondition fails or a
shape has too many rows (about 990) for the partition enumerations, which
recurse once per row (with a JSON error object on stderr), 1 on malformed
input.  LR products are expanded strip by strip, skew shapes cell by cell
in a loop, so a long row is no error.  All JSON output is canonical
(sorted keys, no whitespace, no floats) so that parse + re-emit is
byte-identical; dimensions are decimal strings since they overflow 64-bit
integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .characters import GradedCharacter, VirtualCharacter, lr_coefficient, weyl_dim
from .cohomology import (
    BundleSpec,
    FlagSpec,
    VerifyReport,
    e1_page,
    hypothesis_case,
    main_theorem_char,
    structure_sheaf_hilbert,
    verify_main_theorem,
)
from .errors import PreconditionError
from .partitions import Partition
from .qseries import HilbertSeries, ci_codim, flag_poincare
from .superschur import SuperDim, rational_schur_char, super_schur_decompose


class _Parser(argparse.ArgumentParser):
    """Argparse with exit code 1 (not 2) for malformed input."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers: {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers: {text!r}") from exc


def _emit_json(obj, file=None) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")), file=file)


def _weight_str(w: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _json_obj(result) -> dict:
    """The canonical JSON object of one result."""
    if isinstance(result, (VirtualCharacter, GradedCharacter)):
        key = "terms" if isinstance(result, VirtualCharacter) else "degrees"
        dim = str(result.total_dim())
        return {"m": result.m, "n": result.n, key: result.to_json_obj(), "total_dim": dim}
    if isinstance(result, HilbertSeries):
        coeffs = {str(deg): coeff for deg, coeff in result.coeffs.items()}
        return {"coeffs": coeffs, "rank": str(result.eval(1))}
    if isinstance(result, VerifyReport):
        diffs = {str(deg): vc.to_json_obj() for deg, vc in result.diffs.items()}
        return {"matches": result.matches, "diffs": diffs}
    return {"value": result}


def _print_table(result) -> None:
    """Print one result as a human-readable table."""
    if isinstance(result, VirtualCharacter):
        total = 0
        for (w0, w1), mult in result.sorted_terms():
            dim = mult * weyl_dim(w0) * weyl_dim(w1)
            total += dim
            print(f"{mult:>4}  {_weight_str(w0)} | {_weight_str(w1)}  dim {dim}")
        print(f"total dim {total}")
    elif isinstance(result, GradedCharacter) and result.is_zero():
        print("zero")
    elif isinstance(result, GradedCharacter):
        for deg in result.degrees():
            print(f"degree {deg}:")
            for (w0, w1), mult in result.degree(deg).sorted_terms():
                print(f"  {mult:>4}  {_weight_str(w0)} | {_weight_str(w1)}")
        print(f"total dim {result.total_dim()}")
    elif isinstance(result, VerifyReport):
        print("verified" if result.matches else "MISMATCH")
        for deg in sorted(result.diffs):
            print(f"degree {deg} diff:")
            _print_table(result.diffs[deg])
    else:
        print(result)


def _emit(args, *results, **extra) -> None:
    """Print the results as one JSON object (with ``extra`` keys) or as tables."""
    if args.output == "json":
        obj = dict(extra)
        for result in results:
            obj.update(_json_obj(result))
        _emit_json(obj)
    else:
        for result in results:
            _print_table(result)


def _show(args) -> int:
    _emit(args, args.compute(args))
    return 0


def _bundle(args) -> BundleSpec:
    p, q = args.grass
    return BundleSpec(p=p, q=q, d=SuperDim(*args.dim), alpha=args.alpha, beta=args.beta)


def _cohom(args) -> int:
    spec = _bundle(args)
    if not args.verify:
        _emit(args, main_theorem_char(spec))
        return 0
    report = verify_main_theorem(spec)
    if not report.matches:
        _emit(args, report)
        return 2
    _emit(args, report, main_theorem_char(spec))
    return 0


def _verify(args) -> int:
    report = verify_main_theorem(_bundle(args))
    _emit(args, report)
    return 0 if report.matches else 2


def _e1(args) -> int:
    spec = _bundle(args)
    gc = e1_page(spec)
    odd = gc.has_odd_support()
    _emit(args, gc, case=hypothesis_case(spec).value, possibly_nondegenerate=odd)
    if odd and args.output == "table":
        print("warning: odd-degree terms, spectral sequence possibly nondegenerate")
    return 0


def _hilbert_grass(args) -> HilbertSeries:
    if not 0 <= args.q <= args.n:
        raise ValueError("need 0 <= q <= n")
    return flag_poincare((args.q, args.n - args.q))


def _add_bundle_args(sub: argparse.ArgumentParser, handler) -> None:
    sub.add_argument("--grass", type=_int_pair, required=True, metavar="P,Q")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")
    sub.add_argument("--alpha", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--beta", type=_partition, default=Partition(), metavar="[..]")
    sub.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superbott", description=__doc__.splitlines()[0])
    parser.add_argument("--output", choices=("table", "json"), default="table")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("char-rational", help="rational Schur functor character")
    sub.add_argument("--alpha", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--beta", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")
    sub.set_defaults(
        handler=_show, compute=lambda a: rational_schur_char(a.alpha, a.beta, SuperDim(*a.dim))
    )

    sub = subs.add_parser("char-super", help="Schur functor of a super space")
    sub.add_argument("--shape", type=_partition, required=True, metavar="[..]")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")
    sub.set_defaults(
        handler=_show, compute=lambda a: super_schur_decompose(a.shape, SuperDim(*a.dim))
    )

    sub = subs.add_parser("cohom", help="cohomology via the closed form")
    _add_bundle_args(sub, _cohom)
    sub.add_argument("--verify", action="store_true", help="cross-check against the first page")

    sub = subs.add_parser("verify", help="cross-check the two pipelines")
    _add_bundle_args(sub, _verify)

    sub = subs.add_parser("e1", help="first page of the filtration spectral sequence")
    _add_bundle_args(sub, _e1)

    sub = subs.add_parser("hilbert-grass", help="structure-sheaf Hilbert series, Grassmannian")
    sub.add_argument("q", type=int)
    sub.add_argument("n", type=int)
    sub.set_defaults(handler=_show, compute=_hilbert_grass)

    sub = subs.add_parser("hilbert-flag", help="structure-sheaf Hilbert series, partial flag")
    sub.add_argument("--steps", type=_int_pair, nargs="+", required=True, metavar="P,Q")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")
    sub.set_defaults(
        handler=_show,
        compute=lambda a: structure_sheaf_hilbert(FlagSpec(a.steps, SuperDim(*a.dim))),
    )

    sub = subs.add_parser("lr", help="Littlewood-Richardson coefficient")
    sub.add_argument("lam", type=_partition)
    sub.add_argument("mu", type=_partition)
    sub.add_argument("nu", type=_partition)
    sub.set_defaults(handler=_show, compute=lambda a: lr_coefficient(a.lam, a.mu, a.nu))

    sub = subs.add_parser("codim", help="codimension of the composition-vanishing locus")
    for name in ("a1", "a2", "b", "c1", "c2"):
        sub.add_argument(name, type=int)
    sub.set_defaults(handler=_show, compute=lambda a: ci_codim(a.a1, a.a2, a.b, a.c1, a.c2))

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (PreconditionError, RecursionError) as exc:
        _emit_json({"error": str(exc), "type": type(exc).__name__}, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
