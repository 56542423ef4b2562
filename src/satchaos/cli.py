"""Command-line driver: solve, trace, verify and sweep.

Exit codes are fixed for CI use: 0 success, 1 input error, 2 guard refusal,
3 verification findings, 4 internal invariant break (an ``ArithmeticError``
or ``RuntimeError`` such as norm drift or a stuck machine). Reports are JSON,
exactly the text of ``json.dumps(report, indent=2, sort_keys=True)``; traces
and sweeps are CSV. Input files are read as UTF-8 whatever the locale.
``solve --deterministic`` drops the wall-clock timings, so identical flags
give byte-identical reports; the other commands emit no timings. Only
``verify`` loads :mod:`satchaos.verify`, and numpy with it, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import satchaos

from .amplifier import LogisticParams, sweep_crossing_bounds
from .config import (
    DEFAULT_LOGISTIC_A,
    DEFAULT_SEED,
    DEFAULT_THRESHOLD,
    GuardExceeded,
    VERIFY_SUITES,
)
from .pipeline import BACKENDS, solve
from .sat import DimacsError, count_models, parse_dimacs

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GUARD = 2
EXIT_FINDINGS = 3
EXIT_INTERNAL = 4


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None
    if bounds[0] > bounds[1] or bounds[0] < 1:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return bounds


def _int_at_least(lo: int):
    """An argparse type: an int no smaller than ``lo``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own 2 is the guard-refusal code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", help="DIMACS CNF file")
    sub.add_argument("--backend", choices=BACKENDS, default="circuit")
    sub.add_argument("--a", type=float, default=DEFAULT_LOGISTIC_A,
                     help="logistic parameter (default %(default)s)")
    sub.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                     help="detection threshold (default %(default)s)")


@functools.cache  # built on first use, then reused by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satchaos",
        description="Chaos-amplified SAT: circuit and machine backends, "
                    "logistic detection, verification suites.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="decide one instance, emit a JSON report")
    _add_run_flags(solve)
    solve.add_argument("--deterministic", action="store_true",
                       help="omit timings so identical flags give identical bytes")
    solve.add_argument("--json", metavar="PATH", help="write the report here instead of stdout")

    trace = commands.add_parser("trace", help="emit the amplifier trace as CSV")
    _add_run_flags(trace)
    trace.add_argument("--csv", metavar="PATH", help="write the trace here instead of stdout")

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    verify.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED)
    verify.add_argument("--count", type=_int_at_least(0), default=100,
                        help="random instances for the oracle suite")
    verify.add_argument("--max-n", type=_int_at_least(1), default=10,
                        help="largest variable count for random instances")
    verify.add_argument("--n", type=_parse_range, default=(2, 40), metavar="LO..HI",
                        help="variable range for the bounds suite")
    verify.add_argument("--json", metavar="PATH")

    sweep = commands.add_parser("sweep", help="crossing-index sweep as CSV")
    sweep.add_argument("--n", type=_parse_range, default=(2, 40), metavar="LO..HI")
    sweep.add_argument("--r", default="1",
                       help="comma-separated seeds r for x0 = r/2^n (default 1)")
    sweep.add_argument("--a", type=float, default=DEFAULT_LOGISTIC_A)
    sweep.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    sweep.add_argument("--csv", metavar="PATH")
    return parser


def _emit(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc.strerror}") from exc


_READ_CHUNK = 1 << 16
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # no line-end translation


def _load_instance(path: str):
    """Parse the DIMACS file at ``path``, read as bytes and decoded as UTF-8.

    The text goes to ``parse_dimacs`` as it is: a line ends at ``\\n``, with
    an optional ``\\r`` before it, and any other ``\\r`` is refused.
    """
    chunks = []
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            while chunk := os.read(fd, _READ_CHUNK):  # b"" only at the end
                chunks.append(chunk)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from exc
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DimacsError(
            "input is not UTF-8 text", data.count(b"\n", 0, exc.start) + 1
        ) from None
    return parse_dimacs(text)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
_INF = float("inf")
# Container items whose class is exactly one of these are written inline,
# without a call to _json_text; floats, subclasses and containers recurse.
_INLINE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _JSON_CONSTANTS.__getitem__,
    type(None): _JSON_CONSTANTS.__getitem__,
}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    json encodes with an indent in pure Python; this walks the value once,
    escapes strings with json's C escaper and writes numbers with the
    ``__repr__`` json uses. It raises ``TypeError`` on every value and key
    that json refuses. ``indent`` is the newline and indent of the enclosing
    level.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    inline = _INLINE.get
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            write = inline(type(item))
            items.append(write(item) if write else _json_text(item, inner))
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            write = inline(type(item))
            items.append(
                f"{encode_basestring_ascii(_json_key(key))}: "
                f"{write(item) if write else _json_text(item, inner)}"
            )
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: str, int, float, bool and None only."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def cmd_solve(args) -> int:
    inst = _load_instance(args.path)
    report = solve(inst, args.backend, LogisticParams(args.a, args.threshold)).to_dict()
    report["r_oracle"] = count_models(inst)
    if args.deterministic:
        report["timings"] = None
    _emit(_json_text(report) + "\n", args.json)
    return EXIT_OK


def cmd_trace(args) -> int:
    report = solve(_load_instance(args.path), args.backend,
                   LogisticParams(args.a, args.threshold))
    _emit(report.trace.to_csv(), args.csv)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = satchaos.verify.SUITES  # read at call time: imports verify on first use
    names = sorted(suites) if args.suite == "all" else [args.suite]
    kwargs = {
        "oracle": {"count": args.count, "max_n": args.max_n, "seed": args.seed},
        "bounds": {"n_lo": args.n[0], "n_hi": args.n[1]},
    }
    results = [suites[name](**kwargs.get(name, {"seed": args.seed})) for name in names]
    report = {
        "ok": all(r.ok for r in results),
        "suites": [
            {
                "suite": r.suite,
                "ok": r.ok,
                "checks": r.checks,
                "findings": list(r.findings),
                "warnings": list(r.warnings),
                "seed": r.seed,
            }
            for r in results
        ],
    }
    if args.json:
        _emit(_json_text(report) + "\n", args.json)
    for r in results:
        print(r.summary())
        for finding in r.findings:
            print(f"  FINDING: {finding}")
        for warning in r.warnings:
            print(f"  warning: {warning}")
    return EXIT_OK if report["ok"] else EXIT_FINDINGS


def cmd_sweep(args) -> int:
    try:
        r_values = tuple(int(tok) for tok in args.r.split(","))
    except ValueError:
        print(f"error: --r expects comma-separated integers, got {args.r!r}",
              file=sys.stderr)
        return EXIT_INPUT
    if any(r < 1 for r in r_values):
        print("error: --r seeds must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    params = LogisticParams(args.a, args.threshold)
    rows = sweep_crossing_bounds(range(args.n[0], args.n[1] + 1), r_values, params)
    lines = ["n,r,x0,k_star,k_low,k_high,exists_within_2n,within_upper,meets_lower"]
    for row in rows:
        k_star = "" if row.first_crossing is None else row.first_crossing
        lines.append(
            f"{row.n},{row.r},{row.x0!r},{k_star},{row.k_low},{row.k_high},"
            f"{int(row.exists_within_2n)},{int(row.within_upper)},{int(row.meets_lower)}"
        )
    _emit("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GuardExceeded as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # DimacsError, bad parameters, unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, RuntimeError) as exc:  # GuardExceeded is caught above
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
