"""Inputs, operations and correctness checks of the three workloads.

Every input is drawn by the benchmark from its own ``random.Random`` in
the package's JSON exchange formats, so the program receives only the
generated inputs.  An operation is split into a timed ``call`` and an
untimed ``check`` of its result, which runs after the measured loop.

* ``queries`` — a stream of ``member`` and ``psi`` requests through
  ``affschur.cli.run`` in one warm process.
* ``algebra`` — products at several (n, r), module decompositions and the
  quotient/Hecke maps; nothing here reaches the linear solver.
* ``certify`` — one cold ``verify-cell`` run, checked against a stored
  report.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from affschur import cli
from affschur.cellular import (
    CellTensor,
    decompose_left,
    decompose_right,
    laurent_to_corner,
    tensor_to_ideal,
)
from affschur.core import element_from_json, element_to_json
from affschur.hecke import (
    HeckeElement,
    hecke_embed,
    hecke_preimage,
    laurent_lift,
    quotient_image,
)
from affschur.laurent import LaurentPoly1, LaurentPoly2
from affschur.multiplication import doublecoset_product, multiply
from affschur.weyl import matrix_to_pair

BENCH_DIR = Path(__file__).resolve().parent

# The documented window cap of the query stream.
QUERY_MAX_WINDOW = 24
# verify-cell parameters of the certify workload.
CERTIFY_WINDOW = 24
CERTIFY_SAMPLES = 100
CERTIFY_EXPECTED = BENCH_DIR / "expected" / "certify-w24-n100.json"
# (n, r) of the algebra products.
ALGEBRA_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 4))
# Pairs per shape that the algebra workload multiplies over and over.
REPEATED_POOL = 4
# Share of algebra products recomputed by the double-coset engine.
PRODUCT_CHECK_SHARE = 0.25


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------------------
# random inputs in the JSON exchange formats


def _coeff(rng: random.Random) -> str:
    num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    den = rng.randint(1, 3)
    return str(Fraction(num, den))


def _element_json(
    n: int, r: int, terms: list[tuple[list[int], list[int]]], rng: random.Random
) -> dict:
    """Element with one term per (rows, cols) index-tuple pair."""
    return {
        "n": n,
        "r": r,
        "terms": [
            {
                "coeff": _coeff(rng),
                "entries": [[i, j, 1] for i, j in zip(rows, cols)],
            }
            for rows, cols in terms
        ],
    }


def _random_rows(rng: random.Random, n: int, r: int) -> list[int]:
    return sorted(rng.randint(1, n) for _ in range(r))


def _random_element(
    rng: random.Random, n: int, r: int, col_lo: int, col_hi: int, count: int
):
    terms = [
        (_random_rows(rng, n, r), [rng.randint(col_lo, col_hi) for _ in range(r)])
        for _ in range(count)
    ]
    return element_from_json(_element_json(n, r, terms, rng))


def _random_poly1(rng: random.Random) -> LaurentPoly1:
    poly = {
        str(rng.randint(-3, 3)): _coeff(rng) for _ in range(rng.randint(1, 3))
    }
    return LaurentPoly1.from_json({"poly": poly})


def _random_poly2(rng: random.Random) -> LaurentPoly2:
    poly = {
        f"{rng.randint(0, 2)},{rng.randint(-2, 2)}": _coeff(rng)
        for _ in range(rng.randint(1, 3))
    }
    return LaurentPoly2.from_json({"poly": poly})


def _random_hecke(rng: random.Random) -> HeckeElement:
    terms = []
    for _ in range(rng.randint(1, 3)):
        sigma = rng.choice([[1, 2], [2, 1]])
        eps = [rng.randint(-2, 2), rng.randint(-2, 2)]
        terms.append({"coeff": _coeff(rng), "sigma": sigma, "eps": eps})
    return HeckeElement.from_json(terms)


# ---------------------------------------------------------------------------
# queries


def _member(rng: random.Random, count: int):
    """x - lift(quotient(x)) for x with ``count`` terms: a nonzero ideal member."""
    while True:
        x = _random_element(rng, 2, 2, -4, 5, count)
        member = x - laurent_lift(quotient_image(x))
        if not member.is_zero():
            return member


def _cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue() or err.getvalue()

    return call


def _member_check(x) -> Callable[[tuple[int, str]], str | None]:
    def check(result: tuple[int, str]) -> str | None:
        code, text = result
        payload = json.loads(text)
        if code != 0 or payload.get("verdict") != "member":
            return f"member reported as {payload.get('verdict')} (exit {code})"
        tensor = CellTensor.from_json(payload["tensor"])
        if tensor_to_ideal(tensor) != x:
            return "member certificate does not contract to its input"
        return None

    return check


def _nonmember_check(result: tuple[int, str]) -> str | None:
    code, text = result
    payload = json.loads(text)
    if code != 1 or payload.get("verdict") != "not-member-within-window":
        return f"non-member reported as {payload.get('verdict')} (exit {code})"
    if payload.get("window") != QUERY_MAX_WINDOW or "tensor" in payload:
        return f"non-member verdict at window {payload.get('window')}"
    return None


def _psi_check(p: LaurentPoly2) -> Callable[[tuple[int, str]], str | None]:
    def check(result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0:
            return f"psi exited {code}: {text.strip()[:80]}"
        if LaurentPoly2.from_json(json.loads(text)) != p:
            return "psi did not return the generating polynomial"
        return None

    return check


class Queries:
    """member/psi request stream through the CLI entry point.

    Each cycle holds twelve members, three psi inputs and one non-member.
    A non-member climbs the whole window ladder to the cap, so it costs
    about a hundred times a member; the mix puts the median among the
    members and the throughput on the non-members.  Member latencies
    vary severalfold with the input, so a cycle holds many of them for a
    steady median.  Inputs are built from elements of 1, 2 or 3 terms in
    turn, so every run holds the same shares of each size.
    """

    CYCLE = ("member", "member", "member", "member", "psi") * 3 + ("nonmember",)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        os.environ["AFFSCHUR_MAX_WINDOW"] = str(QUERY_MAX_WINDOW)

    def _write(self, name: str, element) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(element_to_json(element)), encoding="utf-8")
        return str(path)

    def cycle(self, index: int) -> list[Op]:
        rng = random.Random(f"queries:{self.seed}:{index}")
        ops = []
        for k, kind in enumerate(self.CYCLE):
            name = f"q{index}-{k}"
            count = 1 + (index + k) % 3
            if kind == "member":
                x = _member(rng, count)
                argv = ["member", "--file", self._write(name, x)]
                ops.append(Op(kind, _cli_call(argv), _member_check(x)))
            elif kind == "nonmember":
                x = _member(rng, count) + laurent_lift(_random_poly1(rng))
                argv = ["member", "--file", self._write(name, x)]
                ops.append(Op(kind, _cli_call(argv), _nonmember_check))
            else:
                p = _random_poly2(rng)
                argv = ["psi", "--file", self._write(name, laurent_to_corner(p))]
                ops.append(Op(kind, _cli_call(argv), _psi_check(p)))
        return ops


# ---------------------------------------------------------------------------
# algebra


def _product_pair(rng: random.Random, n: int, r: int, shift: int):
    """Factors x, y with col(x) = row(y), so the product reaches the table.

    Shifting the columns of x by a multiple of n keeps the structure
    constants but gives a new table key.
    """
    residues = _random_rows(rng, n, r)

    def cols_with(res: list[int]) -> list[int]:
        cols = [i + n * rng.randint(-2, 2) for i in res]
        rng.shuffle(cols)
        return cols

    x_terms = [
        (_random_rows(rng, n, r), [c + n * shift for c in cols_with(residues)])
        for _ in range(rng.randint(1, 2))
    ]
    y_terms = [
        (residues, [rng.randint(-n, 2 * n) for _ in range(r)])
        for _ in range(rng.randint(1, 2))
    ]
    x = element_from_json(_element_json(n, r, x_terms, rng))
    y = element_from_json(_element_json(n, r, y_terms, rng))
    return x, y


def _product_check(x, y, checked: bool) -> Callable[[Any], str | None]:
    def check(got) -> str | None:
        if not checked:
            return None
        expected = x.scaled(0)
        for a, ca in x.terms.items():
            for b, cb in y.terms.items():
                if a.col_vector() != b.row_vector():
                    continue
                expected = expected + doublecoset_product(
                    matrix_to_pair(a), matrix_to_pair(b), a.n
                ).scaled(ca * cb)
        if got != expected:
            return f"product at (n, r) = ({x.n}, {x.r}) disagrees with double cosets"
        return None

    return check


def _equals(expected, label: str) -> Callable[[Any], str | None]:
    def check(got) -> str | None:
        return None if got == expected else f"{label} round trip failed"

    return check


class Algebra:
    """Products, decompositions and quotient/Hecke maps; no linear algebra.

    Per cycle: one first-time product (a table fill) and one product
    from a fixed pool (a table hit after its first use) at each (n, r),
    a left and a right decomposition round trip, two quotients of lifts
    and a Hecke embedding.  Ordered by cost, the two quotients sit in the
    middle of the 13 operations, so the median does not fall into the
    gap between two kinds.  A round is a fixed number of cycles run in a
    fresh process, so the table starts empty and its size does not
    depend on how fast the program is.
    """

    def __init__(self, seed: int, round_index: int) -> None:
        self.seed = seed
        self.round = round_index
        rng = random.Random(f"algebra-pool:{seed}:{round_index}")
        self.pool = {
            shape: [_product_pair(rng, *shape, 0) for _ in range(REPEATED_POOL)]
            for shape in ALGEBRA_SHAPES
        }

    def cycle(self, index: int) -> list[Op]:
        rng = random.Random(f"algebra:{self.seed}:{self.round}:{index}")
        ops = []
        for shape in ALGEBRA_SHAPES:
            shift = rng.randint(-10**6, 10**6)
            x, y = _product_pair(rng, *shape, shift)
            checked = rng.random() < PRODUCT_CHECK_SHARE
            ops.append(
                Op("fill", lambda x=x, y=y: multiply(x, y), _product_check(x, y, checked))
            )
            x, y = rng.choice(self.pool[shape])
            checked = rng.random() < PRODUCT_CHECK_SHARE
            ops.append(
                Op("hit", lambda x=x, y=y: multiply(x, y), _product_check(x, y, checked))
            )
        left = element_from_json(
            _element_json(
                2,
                2,
                [([1, 1], [rng.randint(-6, 6), rng.randint(-6, 6)])
                 for _ in range(rng.randint(1, 3))],
                rng,
            )
        )
        ops.append(
            Op(
                "decompose",
                lambda: decompose_left(left).to_element(),
                _equals(left, "decompose_left"),
            )
        )
        right = element_from_json(
            _element_json(
                2,
                2,
                [(_random_rows(rng, 2, 2), [2 * rng.randint(-3, 3) + 1 for _ in range(2)])
                 for _ in range(rng.randint(1, 3))],
                rng,
            )
        )
        ops.append(
            Op(
                "decompose",
                lambda: decompose_right(right).to_element(),
                _equals(right, "decompose_right"),
            )
        )
        for p in (_random_poly1(rng), _random_poly1(rng)):
            ops.append(
                Op(
                    "quotient",
                    lambda p=p: quotient_image(laurent_lift(p)),
                    _equals(p, "quotient_image(laurent_lift)"),
                )
            )
        h = _random_hecke(rng)
        ops.append(
            Op(
                "hecke",
                lambda: hecke_embed(h),
                lambda got: None
                if hecke_preimage(got) == h
                else "hecke_embed round trip failed",
            )
        )
        return ops


# ---------------------------------------------------------------------------
# certify


def strip_timing(report: dict) -> dict:
    """The report without its timing fields."""
    out = dict(report)
    out["checks"] = [
        {k: v for k, v in check.items() if k != "millis"}
        for check in report["checks"]
    ]
    out["params"] = {
        k: v for k, v in report["params"].items() if k != "total_millis"
    }
    return out


def check_certify(text: str, code: int, seed: int) -> str | None:
    """Compare a verify-cell report with the stored expectation.

    Every check passes at (W, samples) = (24, 100), and the detail
    strings of passing checks do not depend on the seed, so one stored
    report serves every seed once its ``params.seed`` is set.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"verify-cell printed no JSON report (exit {code})"
    expected = json.loads(CERTIFY_EXPECTED.read_text(encoding="utf-8"))
    expected["params"]["seed"] = seed
    if code != 0:
        return f"verify-cell exited {code}"
    if strip_timing(report) != expected:
        return "verify-cell report differs from the stored expectation"
    return None


class Certify:
    """One cold verify-cell run per cycle, in the process that runs it."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def cycle(self, index: int) -> list[Op]:
        seed = self.seed + index
        call = _cli_call(
            ["verify-cell", "--window", str(CERTIFY_WINDOW), "--seed", str(seed),
             "--samples", str(CERTIFY_SAMPLES)]
        )
        return [
            Op("certify", call, lambda result: check_certify(result[1], result[0], seed))
        ]
