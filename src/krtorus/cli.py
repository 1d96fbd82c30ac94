"""Command-line interface.

Exit codes: 0 on success, 1 when a verification suite reports a failed
check (the witness is printed), 2 on usage or validation errors, 141
(128 + SIGPIPE, as a shell reports a command that a closed pipe ended)
when standard output is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .cartan import build_frame, parse_orientation
from .cluster import initial_seed, mutate_sequence
from .cuspidal import (
    CuspidalRecursion,
    cuspidal_value,
    standard_seed_minors,
    weight_sum,
    weight_sum_size,
)
from .errors import InvalidInputError
from .field.rational import form_str
from .suites import SUITES, run_suite
from .torusmap import TorusMorphism, parse_monomial

__all__ = ["main"]

# Size limits, chosen so that every accepted input finishes within
# seconds: on a 2-core VM, in process, ctilde up to m = 10000 takes 0.04 s
# on A14, D14 and E8 (it reads one stored period of the table); a seed on
# a window of 1000 takes 0.02-0.36 s and verify --tmax 1000 0.01-0.36 s
# for properties and periodicity on A2, A14, D14 and E8 (linear in the
# window or tmax); verify --count 100 takes 1.1-3.1 s for flagminors on
# A14, E8 and D14 and 0.8 s for schurweyl on A14 (linear in the count).
# For dbar-weights, see ``weight_sum_size``: at its bounds a search over
# shuffled and interval words in A2-A14, D4-D14 and E6-E8 took at most
# 2.0 s.  dtilde-y reads depth modulo h.
MAX_MMAX = 10000
MAX_WINDOW = 1000
MAX_RANK = 14
MAX_TMAX = 1000
MAX_COUNT = 100
MAX_WEIGHT_DEGREE = 64
MAX_WEIGHT_TERMS = 50000


def _add_frame_args(cmd):
    cmd.add_argument("--type", dest="family", default="A", choices=("A", "D", "E"))
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument(
        "--orientation",
        default=None,
        help="comma-separated arrows 'a>b' (default: monotonic)",
    )
    cmd.add_argument(
        "--anchor",
        default=None,
        help="height anchor 'vertex:value' (default: max height 0)",
    )


def _add_format_arg(cmd):
    cmd.add_argument("--format", default="text", choices=("text", "json"))


def _frame_from(args):
    if args.rank > MAX_RANK:
        raise InvalidInputError(f"rank must be at most {MAX_RANK}, got {args.rank}")
    anchor = None
    if args.anchor:
        try:
            v, val = args.anchor.split(":")
            anchor = (int(v), int(val))
        except ValueError as exc:
            raise InvalidInputError(f"bad anchor {args.anchor!r}: {exc}") from exc
    orientation = (
        parse_orientation(args.orientation) if args.orientation else None
    )
    return build_frame(args.family, args.rank, orientation, anchor)


def _parse_csv_ints(text, what):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad {what} {text!r}: {exc}") from exc


def _emit_value(value, fmt):
    if fmt == "json":
        print(json.dumps(value.to_json_dict()))
    else:
        print(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krtorus",
        description="Exact values of the torus morphism on Kirillov-Reshetikhin "
        "classes, dual-root-vector values, and cluster mutation over the "
        "rational-function field of the root variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("info", help="frame summary")
    _add_frame_args(cmd)
    _add_format_arg(cmd)

    cmd = sub.add_parser("ctilde", help="inverse quantum Cartan coefficients")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("i", type=int)
    cmd.add_argument("j", type=int)
    cmd.add_argument("mmax", type=int)

    cmd = sub.add_parser("dtilde-y", help="value of one torus variable")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("i", type=int)
    cmd.add_argument("p", type=int)

    cmd = sub.add_parser("dtilde-kr", help="value of one KR class")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("i", type=int)
    cmd.add_argument("p", type=int)
    cmd.add_argument("k", type=int)

    cmd = sub.add_parser("dtilde-monomial", help="value of a Laurent monomial")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("monomial", help="e.g. 'Y[1,-1]*Y[2,-2]^-1'")

    cmd = sub.add_parser("dbar-cuspidal", help="cuspidal value of a positive root")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--beta", required=True, help="root coordinates 'c1,c2,...'")
    cmd.add_argument(
        "--via-pair",
        action="store_true",
        help="use the minimal-pair recursion instead of the closed formula",
    )

    cmd = sub.add_parser("dbar-flag", help="flag-minor products along a word")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--word", default=None, help="reduced word '2,1,3,...'")

    cmd = sub.add_parser("dbar-weights", help="weight-data value from a JSON file")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--file", required=True, help="path or '-' for stdin")

    cmd = sub.add_parser("seed", help="initial seed on a window")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--window", type=int, required=True)
    cmd.add_argument("--quotient", action="store_true")
    cmd.add_argument("--print", dest="print_seed", action="store_true")

    cmd = sub.add_parser("mutate", help="mutate the initial seed")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--window", type=int, required=True)
    cmd.add_argument("--quotient", action="store_true")
    cmd.add_argument("--seq", required=True, help="vertices '4,5,6'")

    cmd = sub.add_parser("verify", help="run a verification suite")
    _add_frame_args(cmd)
    _add_format_arg(cmd)
    cmd.add_argument("--suite", required=True, choices=sorted(SUITES))
    cmd.add_argument(
        "--tmax",
        type=int,
        default=None,
        help="check word positions up to TMAX (at most 1000; default 2N for "
        "properties, N for periodicity); values repeat with period 2N, so "
        "positions past 2N repeat the checks at t - 2N",
    )
    cmd.add_argument("--count", type=int, default=None)
    cmd.add_argument("--seed", type=int, default=None)
    return parser


def _run(args) -> int:
    frame = _frame_from(args)
    fmt = args.format

    if args.command == "info":
        info = frame.describe()
        if fmt == "json":
            print(json.dumps(info))
        else:
            for key, val in info.items():
                print(f"{key}: {val}")
        return 0

    if args.command == "ctilde":
        if args.mmax < 1:
            raise InvalidInputError(f"mmax must be at least 1, got {args.mmax}")
        if args.mmax > MAX_MMAX:
            raise InvalidInputError(f"mmax must be at most {MAX_MMAX}, got {args.mmax}")
        table = frame.datum.qcartan
        rows = [
            {"i": args.i, "j": args.j, "m": m, "value": table.coeff(args.i, args.j, m)}
            for m in range(1, args.mmax + 1)
        ]
        if fmt == "json":
            print(json.dumps(rows))
        else:
            for row in rows:
                print(f"m={row['m']:>3}  {row['value']}")
        return 0

    if args.command == "dtilde-y":
        _emit_value(TorusMorphism(frame).y_value(args.i, args.p), fmt)
        return 0

    if args.command == "dtilde-kr":
        _emit_value(TorusMorphism(frame).kr_value(args.i, args.p, args.k), fmt)
        return 0

    if args.command == "dtilde-monomial":
        mono = parse_monomial(args.monomial)
        for (i, p) in mono:
            frame.check_point(i, p)
        _emit_value(TorusMorphism(frame).monomial_value(mono), fmt)
        return 0

    if args.command == "dbar-cuspidal":
        beta = tuple(_parse_csv_ints(args.beta, "root"))
        if len(beta) != frame.datum.rank:
            raise InvalidInputError(
                f"root has {len(beta)} coordinates, expected {frame.datum.rank}"
            )
        if args.via_pair:
            value = CuspidalRecursion(frame).value(beta)
            if value is None:
                if fmt == "json":
                    print(json.dumps({"inapplicable": True, "root": list(beta)}))
                else:
                    print(
                        f"inapplicable: no dominant-minuscule route to {form_str(beta)}"
                    )
                return 0
        else:
            value = cuspidal_value(frame, beta)
        _emit_value(value, fmt)
        return 0

    if args.command == "dbar-flag":
        word = (
            tuple(_parse_csv_ints(args.word, "word")) if args.word else frame.base_word
        )
        table = standard_seed_minors(frame, word)
        if fmt == "json":
            print(
                json.dumps(
                    [
                        {"j": j, "product": p.to_json_dict()}
                        for j, p in enumerate(table.products, 1)
                    ]
                )
            )
        else:
            for j, p in enumerate(table.products, 1):
                print(f"P_{j} = {p}")
        return 0

    if args.command == "dbar-weights":
        try:
            if args.file == "-":
                raw = sys.stdin.read()
            else:
                with open(args.file) as fh:
                    raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read weight data: {exc}") from exc
        try:
            entries = [(tuple(e["word"]), int(e["dim"])) for e in json.loads(raw)]
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad weight data: {exc}") from exc
        degree, terms = weight_sum_size(frame, (word for word, _ in entries))
        if degree > MAX_WEIGHT_DEGREE or terms > MAX_WEIGHT_TERMS:
            raise InvalidInputError(
                f"weight data too large: the sum expands to degree {degree} "
                f"(at most {MAX_WEIGHT_DEGREE}) and writes up to {terms} monomials "
                f"(at most {MAX_WEIGHT_TERMS})"
            )
        _emit_value(weight_sum(frame, entries), fmt)
        return 0

    if args.command in ("seed", "mutate"):
        if args.window > MAX_WINDOW:
            raise InvalidInputError(f"window must be at most {MAX_WINDOW}, got {args.window}")
        calc = TorusMorphism(frame)
        seed = initial_seed(calc, args.window, specialize_frozen=args.quotient)
        if args.command == "mutate":
            seed = mutate_sequence(seed, _parse_csv_ints(args.seq, "sequence"))
        if fmt == "json":
            payload = {
                "frozen": sorted(seed.quiver.frozen),
                "arrows": [list(a) for a in seed.quiver.arrows],
                "values": [
                    {"vertex": v, "value": seed.values[v].to_json_dict()}
                    for v in seed.quiver.vertices
                ],
            }
            print(json.dumps(payload))
        else:
            if args.command == "seed" and args.print_seed:
                for a, b, m in seed.quiver.arrows:
                    tag = " (x%d)" % m if m > 1 else ""
                    print(f"{a} -> {b}{tag}")
            for v in seed.quiver.vertices:
                mark = "*" if v in seed.quiver.frozen else " "
                print(f"{mark}{v}: {seed.values[v]}")
        return 0

    if args.command == "verify":
        for key, bound in (("tmax", MAX_TMAX), ("count", MAX_COUNT)):
            value = getattr(args, key)
            if value is not None and value > bound:
                raise InvalidInputError(f"{key} must be at most {bound}, got {value}")
        kwargs = {}
        if args.tmax is not None:
            kwargs["tmax"] = args.tmax
        if args.count is not None:
            kwargs["count"] = args.count
        if args.seed is not None:
            kwargs["seed"] = args.seed
        result = run_suite(args.suite, frame, **kwargs)
        if fmt == "json":
            print(
                json.dumps(
                    {
                        "suite": result.name,
                        "ok": result.ok,
                        "lines": result.lines,
                        "witnesses": result.witnesses,
                    }
                )
            )
        else:
            for line in result.lines:
                print(line)
            for w in result.witnesses:
                print(f"witness: {w}")
        return 0 if result.ok else 1

    raise InvalidInputError(f"unknown command {args.command}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    try:
        code = _run(_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed standard output, as ``| head`` does.  Point the
        # descriptor at devnull so that the flush at exit cannot fail again
        # (the advice of the Python documentation on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
