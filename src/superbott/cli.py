"""Command-line front end: character computations and verifications in batch.

Exit codes: 0 on success, 2 when a mathematical precondition fails (with a
JSON error object on stderr), 1 on malformed input.  All JSON output is
canonical (sorted keys, no whitespace, no floats) so that parse + re-emit
is byte-identical; dimensions are decimal strings since they overflow
64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .characters import GradedCharacter, VirtualCharacter, weyl_dim
from .cohomology import (
    BundleSpec,
    FlagSpec,
    e1_page,
    hypothesis_case,
    main_theorem_char,
    partial_flag_char,
    partial_flag_hilbert,
    structure_sheaf_hilbert,
    verify_main_theorem,
)
from .errors import PreconditionError
from .partitions import Partition
from .qseries import HilbertSeries, flag_poincare
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


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _weight_str(w: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _char_json(char: VirtualCharacter) -> dict:
    return {
        "m": char.m,
        "n": char.n,
        "terms": char.to_json_obj(),
        "total_dim": str(char.total_dim()),
    }


def _graded_json(gc: GradedCharacter) -> dict:
    return {
        "m": gc.m,
        "n": gc.n,
        "degrees": gc.to_json_obj(),
        "total_dim": str(gc.total_dim()),
    }


def _series_json(series: HilbertSeries) -> dict:
    return {
        "coeffs": {str(deg): series.coeffs[deg] for deg in sorted(series.coeffs)},
        "rank": str(series.eval(1)),
    }


def _print_char_table(char: VirtualCharacter) -> None:
    for (w0, w1), mult in char.sorted_terms():
        dim = mult * weyl_dim(w0) * weyl_dim(w1)
        print(f"{mult:>4}  {_weight_str(w0)} | {_weight_str(w1)}  dim {dim}")
    print(f"total dim {char.total_dim()}")


def _print_graded_table(gc: GradedCharacter) -> None:
    if gc.is_zero():
        print("zero")
        return
    for deg in gc.degrees():
        print(f"degree {deg}:")
        for (w0, w1), mult in gc.degree(deg).sorted_terms():
            print(f"  {mult:>4}  {_weight_str(w0)} | {_weight_str(w1)}")
    print(f"total dim {gc.total_dim()}")


def _print_series(series: HilbertSeries, as_json: bool) -> None:
    if as_json:
        _emit_json(_series_json(series))
    else:
        print(series)


def _bundle_from_args(args) -> BundleSpec:
    p, q = args.grass
    m, n = args.dim
    return BundleSpec(p=p, q=q, d=SuperDim(m, n), alpha=args.alpha, beta=args.beta)


def _add_bundle_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grass", type=_int_pair, required=True, metavar="P,Q")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")
    sub.add_argument("--alpha", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--beta", type=_partition, default=Partition(), metavar="[..]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superbott", description=__doc__.splitlines()[0])
    parser.add_argument("--output", choices=("table", "json"), default="table")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("char-rational", help="rational Schur functor character")
    sub.add_argument("--alpha", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--beta", type=_partition, default=Partition(), metavar="[..]")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")

    sub = subs.add_parser("char-super", help="Schur functor of a super space")
    sub.add_argument("--shape", type=_partition, required=True, metavar="[..]")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")

    sub = subs.add_parser("cohom", help="cohomology via the closed form")
    _add_bundle_args(sub)
    sub.add_argument("--verify", action="store_true", help="cross-check against the first page")

    sub = subs.add_parser("verify", help="cross-check the two pipelines")
    _add_bundle_args(sub)

    sub = subs.add_parser("e1", help="first page of the filtration spectral sequence")
    _add_bundle_args(sub)

    sub = subs.add_parser("hilbert-grass", help="structure-sheaf Hilbert series, Grassmannian")
    sub.add_argument("q", type=int)
    sub.add_argument("n", type=int)

    sub = subs.add_parser("hilbert-flag", help="structure-sheaf Hilbert series, partial flag")
    sub.add_argument("--steps", type=_int_pair, nargs="+", required=True, metavar="P,Q")
    sub.add_argument("--dim", type=_int_pair, required=True, metavar="M,N")

    sub = subs.add_parser("lr", help="Littlewood-Richardson coefficient")
    sub.add_argument("lam", type=_partition)
    sub.add_argument("mu", type=_partition)
    sub.add_argument("nu", type=_partition)

    sub = subs.add_parser("codim", help="codimension of the composition-vanishing locus")
    for name in ("a1", "a2", "b", "c1", "c2"):
        sub.add_argument(name, type=int)

    return parser


def _dispatch(args) -> int:
    as_json = args.output == "json"

    if args.command == "char-rational":
        m, n = args.dim
        char = rational_schur_char(args.alpha, args.beta, SuperDim(m, n))
        if as_json:
            _emit_json(_char_json(char))
        else:
            _print_char_table(char)
        return 0

    if args.command == "char-super":
        m, n = args.dim
        char = super_schur_decompose(args.shape, SuperDim(m, n))
        if as_json:
            _emit_json(_char_json(char))
        else:
            _print_char_table(char)
        return 0

    if args.command in ("cohom", "verify", "e1"):
        spec = _bundle_from_args(args)
        if args.command == "e1":
            gc = e1_page(spec)
            payload = _graded_json(gc)
            payload["case"] = hypothesis_case(spec).value
            payload["possibly_nondegenerate"] = gc.has_odd_support()
            if as_json:
                _emit_json(payload)
            else:
                _print_graded_table(gc)
                if gc.has_odd_support():
                    print("warning: odd-degree terms, spectral sequence possibly nondegenerate")
            return 0
        if args.command == "verify" or args.verify:
            report = verify_main_theorem(spec)
            if as_json:
                _emit_json(
                    {
                        "matches": report.matches,
                        "diffs": {str(d): vc.to_json_obj() for d, vc in sorted(report.diffs.items())},
                    }
                )
            else:
                print("verified" if report.matches else "MISMATCH")
                for deg in sorted(report.diffs):
                    print(f"degree {deg} diff:")
                    _print_char_table(report.diffs[deg])
            if args.command == "cohom" and report.matches:
                gc = main_theorem_char(spec)
                if as_json:
                    _emit_json(_graded_json(gc))
                else:
                    _print_graded_table(gc)
            return 0 if report.matches else 2
        gc = main_theorem_char(spec)
        if as_json:
            _emit_json(_graded_json(gc))
        else:
            _print_graded_table(gc)
        return 0

    if args.command == "hilbert-grass":
        if not 0 <= args.q <= args.n:
            raise ValueError("need 0 <= q <= n")
        _print_series(flag_poincare((args.q, args.n - args.q)), as_json)
        return 0

    if args.command == "hilbert-flag":
        m, n = args.dim
        flag = FlagSpec(steps=tuple(args.steps), d=SuperDim(m, n))
        _print_series(partial_flag_hilbert(flag), as_json)
        return 0

    if args.command == "lr":
        from .characters import lr_coefficient

        value = lr_coefficient(args.lam, args.mu, args.nu)
        if as_json:
            _emit_json({"value": value})
        else:
            print(value)
        return 0

    if args.command == "codim":
        from .qseries import ci_codim

        value = ci_codim(args.a1, args.a2, args.b, args.c1, args.c2)
        if as_json:
            _emit_json({"value": value})
        else:
            print(value)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except PreconditionError as exc:
        print(
            json.dumps(
                {"error": str(exc), "type": type(exc).__name__},
                sort_keys=True,
                separators=(",", ":"),
            ),
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
