"""
Batch command-line interface.

Subcommands operate on the JSON exchange formats documented in the
README; input comes from stdin or ``--file``.  Only ``verify-cell``
draws random samples, from its ``--seed``; the other subcommands are
deterministic functions of their input and flags.  ``AFFSCHUR_MAX_WINDOW``
(default 64) caps ``member``, ``psi`` and ``verify-cell``'s ``--window``.

Exit codes: 0 success, 1 verification failure / non-membership,
2 invalid input, 3 undecided (window exhausted, or a block whose rank
peeling leaves it undecided), 4 internal error (any other exception,
in one line, no traceback), 141 output pipe closed by its reader (as in
``affschur verify-cell | head``; 128 + SIGPIPE, the status a shell
reports for a process that SIGPIPE ended); :func:`run` alone maps errors
to them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .cellular import (
    LEFT_BASIS,
    MembershipResult,
    RIGHT_BASIS,
    corner_to_laurent,
    decompose_left,
    decompose_right,
    ideal_membership,
    max_window_cap,
    UndecidedError,
)
from .core import (
    element_from_json,
    element_to_json,
    grade,
)
from .hecke import HeckeElement, hecke_embed, quotient_image
from .multiplication import multiply
from .verify import verify_cell_chain

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


def _emit(payload: dict[str, Any], pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _read_payload(args: argparse.Namespace) -> Any:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per level
        raise ValueError("input JSON is nested too deeply") from None


def _cmd_mult(args: argparse.Namespace) -> int:
    data = _read_payload(args)
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise ValueError("mult expects an object with 'a' and 'b' elements")
    x = element_from_json(data["a"])
    y = element_from_json(data["b"])
    _emit(element_to_json(multiply(x, y)), args.pretty)
    return EXIT_OK


def _cmd_canon(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    _emit(element_to_json(x), args.pretty)
    return EXIT_OK


def _cmd_grade(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    term_grades = []
    for matrix, _ in x.sorted_terms():
        term_grades.append(grade(matrix))
    homogeneous = len(set(term_grades)) <= 1
    _emit(
        {
            "homogeneous": homogeneous,
            "grade": term_grades[0] if homogeneous and term_grades else None,
            "term_grades": term_grades,
        },
        args.pretty,
    )
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    if args.side == "left":
        vector = decompose_left(x)
        basis = LEFT_BASIS
    else:
        vector = decompose_right(x)
        basis = RIGHT_BASIS
    payload = vector.to_json()
    payload["basis"] = [
        [[i, j, a] for i, j, a in matrix.entries] for matrix in basis
    ]
    _emit(payload, args.pretty)
    return EXIT_OK


def _cmd_psi(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    poly = corner_to_laurent(x)
    _emit(poly.to_json(), args.pretty)
    return EXIT_OK


def _cmd_quotient(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    _emit(quotient_image(x).to_json(), args.pretty)
    return EXIT_OK


def _cmd_hecke_embed(args: argparse.Namespace) -> int:
    h = HeckeElement.from_json(_read_payload(args))
    _emit(element_to_json(hecke_embed(h)), args.pretty)
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    x = element_from_json(_read_payload(args))
    result = ideal_membership(x, window=args.window)
    payload: dict[str, Any] = {"verdict": result.status, "window": result.window}
    if result.tensor is not None:
        payload["tensor"] = result.tensor.to_json()
    _emit(payload, args.pretty)
    if result.status == MembershipResult.MEMBER:
        return EXIT_OK
    if result.status == MembershipResult.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_FAILURE


def _cmd_verify_cell(args: argparse.Namespace) -> int:
    if args.window > (cap := max_window_cap()):
        raise ValueError(f"window {args.window} exceeds AFFSCHUR_MAX_WINDOW ({cap})")
    report = verify_cell_chain(
        window=args.window, seed=args.seed, samples=args.samples
    )
    if args.pretty:
        print(report.render_text())
    else:
        _emit(report.to_json(), pretty=False)
    return report.exit_code()


def _discard_stdout() -> None:
    """Point stdout's file descriptor at devnull, so that the flush at exit
    writes what is still buffered nowhere instead of raising again (the
    note on SIGPIPE in the documentation of Python's ``signal`` module).
    A stdout with no file descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affschur",
        description=(
            "Exact computations in the q=1 affine Schur algebra and "
            "certification of its cell-ideal structure at n = r = 2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--file", help="read input JSON from this file")
        cmd.add_argument(
            "--pretty", action="store_true", help="human-readable output"
        )
        cmd.set_defaults(handler=handler)
        return cmd

    add("mult", _cmd_mult, "multiply two elements ({'a':…,'b':…})")
    add("canon", _cmd_canon, "normalize an element to canonical form")
    add("grade", _cmd_grade, "grades of the triangular terms of an element")
    decompose = add(
        "decompose",
        _cmd_decompose,
        "coordinates over the four-element module basis",
    )
    decompose.add_argument(
        "--side", choices=("left", "right"), required=True
    )
    add("psi", _cmd_psi, "Laurent polynomial of a corner element")
    add("quotient", _cmd_quotient, "image in the Laurent quotient ring")
    add("hecke-embed", _cmd_hecke_embed, "embed a Hecke element")
    member = add("member", _cmd_member, "ideal membership with certificate")
    member.add_argument(
        "--window",
        type=int,
        default=None,
        help="starting column-support window (at least 1)",
    )
    verify = sub.add_parser(
        "verify-cell", help="run the cell-structure certification battery"
    )
    verify.add_argument("--window", type=int, default=12)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--pretty", action="store_true")
    verify.set_defaults(handler=_cmd_verify_cell)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches our invalid-input code
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed output pipe shows here
        return code
    except BrokenPipeError:
        # the reader of stdout went away: neither invalid input nor a fault
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UndecidedError as exc:
        # support beyond the window cap, or a block that does not peel whole
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ArithmeticError as exc:
        # a rank-deficient block or a certificate that does not contract back
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # a fault of the program: internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())
