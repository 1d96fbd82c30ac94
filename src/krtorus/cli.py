"""Command-line interface.

Each subcommand names its handler in the parser (``set_defaults``).
``_run`` checks every bounded argument against ``LIMITS``, builds the
frame, calls the handler and prints the value it returns; a handler that
prints its own output through ``_print`` returns the exit code instead.

Exit codes: 0 on success, 1 when a verification suite reports a failed
check (the witness is printed), 2 on usage or validation errors, 141
(128 + SIGPIPE, as a shell reports a command that a closed pipe ended)
when standard output is closed before the output is written.
"""

from __future__ import annotations

import argparse
import inspect
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
# ``LIMITS`` maps each bounded argument to (least, most), None where
# another check owns the least value (``build_frame`` for rank,
# ``initial_seed`` for window); ``_run`` checks them all, in this order,
# before it builds the frame.  For dbar-weights, see ``weight_sum_size``:
# at its bounds a search over shuffled and interval words in A2-A14,
# D4-D14 and E6-E8 took at most 2.0 s.  dtilde-y reads depth modulo h.
MAX_MMAX = 10000
MAX_WINDOW = 1000
MAX_RANK = 14
MAX_TMAX = 1000
MAX_COUNT = 100
MAX_WEIGHT_DEGREE = 64
MAX_WEIGHT_TERMS = 50000
LIMITS = {
    "rank": (None, MAX_RANK),
    "mmax": (1, MAX_MMAX),
    "window": (None, MAX_WINDOW),
    "tmax": (1, MAX_TMAX),
    "count": (1, MAX_COUNT),
}


def _frame_from(args):
    anchor = None
    if args.anchor:
        try:
            v, val = args.anchor.split(":")
            anchor = (int(v), int(val))
        except ValueError as exc:
            raise InvalidInputError(f"bad anchor {args.anchor!r}: {exc}") from exc
    orientation = parse_orientation(args.orientation) if args.orientation else None
    return build_frame(args.family, args.rank, orientation, anchor)


def _parse_csv_ints(text, what):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad {what} {text!r}: {exc}") from exc


def _print(fmt, payload, lines):
    """Print ``payload()`` as one JSON line, or each of ``lines()`` as
    text; only the side that is printed is built."""
    if fmt == "json":
        print(json.dumps(payload()))
    else:
        for line in lines():
            print(line)


def _info(args, frame):
    info = frame.describe()
    _print(args.format, lambda: info, lambda: (f"{k}: {v}" for k, v in info.items()))
    return 0


def _ctilde(args, frame):
    table = frame.datum.qcartan
    rows = [
        {"i": args.i, "j": args.j, "m": m, "value": table.coeff(args.i, args.j, m)}
        for m in range(1, args.mmax + 1)
    ]
    _print(args.format, lambda: rows, lambda: (f"m={r['m']:>3}  {r['value']}" for r in rows))
    return 0


def _dtilde_y(args, frame):
    return TorusMorphism(frame).y_value(args.i, args.p)


def _dtilde_kr(args, frame):
    return TorusMorphism(frame).kr_value(args.i, args.p, args.k)


def _dtilde_monomial(args, frame):
    mono = parse_monomial(args.monomial)
    for (i, p) in mono:
        frame.check_point(i, p)
    return TorusMorphism(frame).monomial_value(mono)


def _dbar_cuspidal(args, frame):
    beta = tuple(_parse_csv_ints(args.beta, "root"))
    if len(beta) != frame.datum.rank:
        raise InvalidInputError(
            f"root has {len(beta)} coordinates, expected {frame.datum.rank}"
        )
    if not args.via_pair:
        return cuspidal_value(frame, beta)
    value = CuspidalRecursion(frame).value(beta)
    if value is not None:
        return value
    _print(
        args.format,
        lambda: {"inapplicable": True, "root": list(beta)},
        lambda: [f"inapplicable: no dominant-minuscule route to {form_str(beta)}"],
    )
    return 0


def _dbar_flag(args, frame):
    word = tuple(_parse_csv_ints(args.word, "word")) if args.word else frame.base_word
    products = list(enumerate(standard_seed_minors(frame, word).products, 1))
    _print(
        args.format,
        lambda: [{"j": j, "product": p.to_json_dict()} for j, p in products],
        lambda: (f"P_{j} = {p}" for j, p in products),
    )
    return 0


def _dbar_weights(args, frame):
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
    return weight_sum(frame, entries)


def _seed(args, frame):
    """``seed`` and ``mutate``: the initial seed, walked along ``--seq``."""
    seed = initial_seed(TorusMorphism(frame), args.window, specialize_frozen=args.quotient)
    if args.command == "mutate":
        seed = mutate_sequence(seed, _parse_csv_ints(args.seq, "sequence"))
    quiver = seed.quiver

    def lines():
        if getattr(args, "print_seed", False):
            for a, b, m in quiver.arrows:
                tag = " (x%d)" % m if m > 1 else ""
                yield f"{a} -> {b}{tag}"
        for v in quiver.vertices:
            yield f"{'*' if v in quiver.frozen else ' '}{v}: {seed.values[v]}"

    _print(
        args.format,
        lambda: {
            "frozen": sorted(quiver.frozen),
            "arrows": [list(a) for a in quiver.arrows],
            "values": [
                {"vertex": v, "value": seed.values[v].to_json_dict()}
                for v in quiver.vertices
            ],
        },
        lines,
    )
    return 0


def _verify(args, frame):
    reads = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {}
    for key in ("tmax", "count", "seed"):
        value = getattr(args, key)
        if value is not None:
            if key not in reads:
                raise InvalidInputError(f"suite {args.suite} takes no --{key}")
            kwargs[key] = value
    result = run_suite(args.suite, frame, **kwargs)
    _print(
        args.format,
        lambda: {
            "suite": result.name,
            "ok": result.ok,
            "lines": result.lines,
            "witnesses": result.witnesses,
        },
        lambda: [*result.lines, *(f"witness: {w}" for w in result.witnesses)],
    )
    return 0 if result.ok else 1


def _command(sub, name, handler, summary):
    """A subcommand that runs ``handler``, with the frame and format options."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--type", dest="family", default="A", choices=("A", "D", "E"))
    cmd.add_argument("--rank", type=int, required=True)
    cmd.add_argument(
        "--orientation", help="comma-separated arrows 'a>b' (default: monotonic)"
    )
    cmd.add_argument("--anchor", help="height anchor 'vertex:value' (default: max height 0)")
    cmd.add_argument("--format", default="text", choices=("text", "json"))
    cmd.set_defaults(handler=handler)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krtorus",
        description="Exact values of the torus morphism on Kirillov-Reshetikhin "
        "classes, dual-root-vector values, and cluster mutation over the "
        "rational-function field of the root variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "info", _info, "frame summary")

    cmd = _command(sub, "ctilde", _ctilde, "inverse quantum Cartan coefficients")
    cmd.add_argument("i", type=int)
    cmd.add_argument("j", type=int)
    cmd.add_argument("mmax", type=int)

    cmd = _command(sub, "dtilde-y", _dtilde_y, "value of one torus variable")
    cmd.add_argument("i", type=int)
    cmd.add_argument("p", type=int)

    cmd = _command(sub, "dtilde-kr", _dtilde_kr, "value of one KR class")
    cmd.add_argument("i", type=int)
    cmd.add_argument("p", type=int)
    cmd.add_argument("k", type=int)

    cmd = _command(sub, "dtilde-monomial", _dtilde_monomial, "value of a Laurent monomial")
    cmd.add_argument("monomial", help="e.g. 'Y[1,-1]*Y[2,-2]^-1'")

    cmd = _command(sub, "dbar-cuspidal", _dbar_cuspidal, "cuspidal value of a positive root")
    cmd.add_argument("--beta", required=True, help="root coordinates 'c1,c2,...'")
    cmd.add_argument(
        "--via-pair",
        action="store_true",
        help="use the minimal-pair recursion instead of the closed formula",
    )

    cmd = _command(sub, "dbar-flag", _dbar_flag, "flag-minor products along a word")
    cmd.add_argument("--word", default=None, help="reduced word '2,1,3,...'")

    cmd = _command(sub, "dbar-weights", _dbar_weights, "weight-data value from a JSON file")
    cmd.add_argument("--file", required=True, help="path or '-' for stdin")

    cmd = _command(sub, "seed", _seed, "initial seed on a window")
    cmd.add_argument("--window", type=int, required=True)
    cmd.add_argument("--quotient", action="store_true")
    cmd.add_argument("--print", dest="print_seed", action="store_true")

    cmd = _command(sub, "mutate", _seed, "mutate the initial seed")
    cmd.add_argument("--window", type=int, required=True)
    cmd.add_argument("--quotient", action="store_true")
    cmd.add_argument("--seq", required=True, help="vertices '4,5,6'")

    cmd = _command(sub, "verify", _verify, "run a verification suite")
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
    for key, (least, most) in LIMITS.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if least is not None and value < least:
            raise InvalidInputError(f"{key} must be at least {least}, got {value}")
        if value > most:
            raise InvalidInputError(f"{key} must be at most {most}, got {value}")
    out = args.handler(args, _frame_from(args))
    if isinstance(out, int):
        return out
    _print(args.format, out.to_json_dict, lambda: [out])
    return 0


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
