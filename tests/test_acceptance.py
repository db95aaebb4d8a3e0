"""
End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single pass/fail
line; every comparison is exact (rational arithmetic, tolerance zero).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random

import pytest

from affschur import (
    AlgebraElement,
    Composition,
    HeckeElement,
    LEFT_BASIS,
    T1,
    T2,
    TRHO,
    TRHO_INV,
    chevalley_left,
    chevalley_right,
    compositions,
    decompose_left,
    diag_matrix,
    doublecoset_product,
    grade,
    hecke_embed,
    identity_element,
    idempotent_11,
    idempotent_20,
    loop_left,
    matrix_to_pair,
    monomial_image,
    multiply,
    multiply_oracle,
    pair_to_matrix,
    verify_cell_chain,
)
from affschur.cellular import GEN_X1, GEN_X2, GEN_X2_INV
from affschur.cli import run as cli_run
from affschur.linalg import SolveResult, solve_many

from conftest import basis, mat


def report(num: int, description: str, failures: list) -> None:
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}; failures: {failures[:5]}"


def random_basis(rng, n, r, lo=-4, hi=5):
    rows = tuple(sorted(rng.randint(1, n) for _ in range(r)))
    cols = tuple(rng.randint(lo, hi) for _ in range(r))
    return pair_to_matrix(rows, cols, n)


def with_row(rng, comp, n, lo=-4, hi=5):
    rows = []
    for idx, p in enumerate(comp.parts, start=1):
        rows.extend([idx] * p)
    cols = tuple(rng.randint(lo, hi) for _ in range(comp.r))
    return pair_to_matrix(tuple(rows), cols, n)


def test_criterion_1_golden_identities(e_lam, e_mu, e_nu):
    t1 = hecke_embed(HeckeElement.group(T1))
    t2 = hecke_embed(HeckeElement.group(T2))
    trho = hecke_embed(HeckeElement.group(TRHO))
    trho_inv = hecke_embed(HeckeElement.group(TRHO_INV))
    failures = []
    cases = [
        ("doubled loops compose to the column idempotent",
         multiply(basis(2, (2, 1, 2)), basis(2, (1, 2, 2))), e_mu),
        ("two-term product",
         multiply(basis(2, (1, 1, 1), (2, 1, 1)), basis(2, (1, 1, 1), (1, 2, 1))),
         basis(2, (1, 2, 1), (2, 1, 1)) + e_nu),
        ("compression to four times the row idempotent",
         multiply(multiply(basis(2, (1, 1, 1), (1, 2, 1)), t1 + e_nu),
                  basis(2, (1, 1, 1), (2, 1, 1))),
         e_lam.scaled(4)),
        ("reflection squares to the corner unit", multiply(t1, t1), e_nu),
        ("rotation conjugate",
         multiply(multiply(trho_inv, t1 + e_nu), trho), t2 + e_nu),
    ]
    for label, got, expected in cases:
        if got != expected:
            failures.append(f"{label}: got {got!r}")
    report(1, "golden identities hold exactly", failures)


GENERATOR_SIZES = [(2, 2), (2, 3), (3, 3)]


def _left_generator(sign, comp, h, m):
    base = diag_matrix(comp)
    if sign == "up":
        return base.shifted_by([(h, h + 1, m), (h + 1, h + 1, -m)])
    return base.shifted_by([(h, h, -m), (h + 1, h, m)])


def _right_generator(sign, comp, h, m):
    base = diag_matrix(comp)
    if sign == "up":
        return base.shifted_by([(h, h + 1, m), (h, h, -m)])
    return base.shifted_by([(h + 1, h + 1, -m), (h + 1, h, m)])


def test_criterion_2_oracle_formula_equivalence():
    failures = []
    counts = {"chevalley_left": 0, "chevalley_right": 0, "loop_left": 0,
              "doublecoset": 0}
    for n, r in GENERATOR_SIZES:
        rng = random.Random(9100 + 10 * n + r)
        while counts_incomplete(counts, n, r):
            a = random_basis(rng, n, r)
            h = rng.randint(1, n)
            m = rng.randint(1, 2)
            sign = rng.choice(["up", "down"])
            lam = a.row_vector()
            need = lam.part(h + 1) if sign == "up" else lam.part(h)
            if need >= m and counts["chevalley_left"] < target(n, r):
                gen = _left_generator(sign, lam, h, m)
                if chevalley_left(h, m, sign, a) != multiply_oracle(
                    matrix_to_pair(gen), matrix_to_pair(a), n
                ):
                    failures.append(f"chevalley_left {n},{r},{h},{m},{sign},{a!r}")
                counts["chevalley_left"] += 1
            mu = a.col_vector()
            need = mu.part(h) if sign == "up" else mu.part(h + 1)
            if need >= m and counts["chevalley_right"] < target(n, r):
                gen = _right_generator(sign, mu, h, m)
                if chevalley_right(h, m, sign, a) != multiply_oracle(
                    matrix_to_pair(a), matrix_to_pair(gen), n
                ):
                    failures.append(f"chevalley_right {n},{r},{h},{m},{sign},{a!r}")
                counts["chevalley_right"] += 1
            if lam.part(h) >= 1 and counts["loop_left"] < target(n, r):
                loop_m = rng.choice([-2, -1, 1, 2])
                gen = diag_matrix(lam).shifted_by(
                    [(h, h, -1), (h, h + loop_m * n, 1)]
                )
                if loop_left(h, loop_m, a) != multiply_oracle(
                    matrix_to_pair(gen), matrix_to_pair(a), n
                ):
                    failures.append(f"loop_left {n},{r},{h},{loop_m},{a!r}")
                counts["loop_left"] += 1
            if counts["doublecoset"] < target(n, r):
                b = with_row(rng, a.col_vector(), n)
                p1, p2 = matrix_to_pair(a), matrix_to_pair(b)
                if doublecoset_product(p1, p2, n) != multiply_oracle(p1, p2, n):
                    failures.append(f"doublecoset {n},{r},{a!r},{b!r}")
                counts["doublecoset"] += 1
    assert all(v >= 201 for v in counts.values()), counts
    report(2, "four closed-form engines match the counting product on "
              f"{min(counts.values())}+ instances each", failures)


def target(n, r):
    # 67 applicable instances per engine per size gives > 200 overall
    base = {(2, 2): 67, (2, 3): 134, (3, 3): 201}
    return base[(n, r)]


def counts_incomplete(counts, n, r):
    return any(v < target(n, r) for v in counts.values())


def test_criterion_3_associativity_and_unit():
    failures = []
    total = 0
    for n, r in [(2, 2), (2, 3)]:
        rng = random.Random(9300 + 10 * n + r)
        for _ in range(100):
            a = random_basis(rng, n, r)
            b = with_row(rng, a.col_vector(), n)
            c = with_row(rng, b.col_vector(), n)
            ea, eb, ec = map(AlgebraElement.basis, (a, b, c))
            if multiply(multiply(ea, eb), ec) != multiply(ea, multiply(eb, ec)):
                failures.append(f"associativity {n},{r},{a!r},{b!r},{c!r}")
            total += 1
        one = identity_element(n, r)
        for _ in range(20):
            x = AlgebraElement.basis(random_basis(rng, n, r))
            if multiply(one, x) != x or multiply(x, one) != x:
                failures.append(f"unit {n},{r}")
        # vanishing unless the middle weights agree
        for _ in range(40):
            a = random_basis(rng, n, r)
            b = random_basis(rng, n, r)
            product = multiply_oracle(matrix_to_pair(a), matrix_to_pair(b), n)
            if a.col_vector() != b.row_vector() and not product.is_zero():
                failures.append(f"no vanishing on mismatch {a!r} {b!r}")
        # diagonal orbits are left/right units on matching weights
        for _ in range(40):
            a = random_basis(rng, n, r)
            left = AlgebraElement.basis(diag_matrix(a.row_vector()))
            right = AlgebraElement.basis(diag_matrix(a.col_vector()))
            ea = AlgebraElement.basis(a)
            if multiply(left, ea) != ea or multiply(ea, right) != ea:
                failures.append(f"diagonal unit behavior {a!r}")
        # orthogonal idempotent decomposition of the identity
        diagonals = [
            AlgebraElement.basis(diag_matrix(comp))
            for comp in compositions(n, r)
        ]
        for i, di in enumerate(diagonals):
            for j, dj in enumerate(diagonals):
                expected = di if i == j else AlgebraElement.zero(n, r)
                if multiply(di, dj) != expected:
                    failures.append(f"idempotent orthogonality {n},{r},{i},{j}")
        if sum(diagonals, AlgebraElement.zero(n, r)) != one:
            failures.append(f"idempotents do not sum to the identity {n},{r}")
    assert total == 200
    report(3, "associativity on 200 triples plus unit and idempotent laws",
           failures)


def test_criterion_4_period_one_commutative():
    failures = []
    rng = random.Random(9400)
    for index in range(120):
        r = rng.randint(1, 3)
        a, b = random_basis(rng, 1, r), random_basis(rng, 1, r)
        ea, eb = AlgebraElement.basis(a), AlgebraElement.basis(b)
        if multiply(ea, eb) != multiply(eb, ea):
            failures.append(f"sample {index}: {a!r} {b!r}")
    report(4, "period-one products commute on 120 samples", failures)


def test_criterion_5_degrees_and_graded_additivity():
    failures = []
    left_grades = tuple(grade(matrix) for matrix in LEFT_BASIS)
    if left_grades != (1, 3, 0, 2):
        failures.append(f"module basis grades {left_grades}")
    gen_grades = (grade(GEN_X1), grade(GEN_X2), grade(GEN_X2_INV))
    if gen_grades != (2, 4, -4):
        failures.append(f"corner generator grades {gen_grades}")
    rng = random.Random(9500)
    checked = 0
    while checked < 100:
        n = 2
        r = rng.randint(1, 3)
        upper = rng.choice([True, False])
        rows = tuple(sorted(rng.randint(1, n) for _ in range(r)))
        offset = (lambda: rng.randint(0, 4)) if upper else (
            lambda: -rng.randint(0, 4)
        )
        a = pair_to_matrix(rows, tuple(v + offset() for v in rows), n)
        rows_b = []
        for idx, p in enumerate(a.col_vector().parts, start=1):
            rows_b.extend([idx] * p)
        b = pair_to_matrix(
            tuple(rows_b), tuple(v + offset() for v in rows_b), n
        )
        product = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
        total = grade(a) + grade(b)
        for matrix in product.terms:
            triangular = (
                matrix.is_upper_triangular()
                if upper
                else matrix.is_lower_triangular()
            )
            if not triangular or grade(matrix) != total:
                failures.append(f"graded additivity {a!r} {b!r}")
                break
        checked += 1
    report(5, "fixed grades (1,3,0,2)/(2,4,-4) and additivity on 100 products",
           failures)


def test_criterion_6_freeness_round_trip():
    failures = []
    window = 12
    # closed-form route: exact round trips
    inputs = []
    for i in range(-9, 10):
        for j in range(i, 10):
            x = basis(2, (1, i, 2)) if i == j else basis(2, (1, i, 1), (1, j, 1))
            inputs.append(((i, j), x))
            if decompose_left(x).to_element() != x:
                failures.append(f"round trip ({i},{j})")
    # solver route: unique solutions, never undecided
    cols = []
    entries = {}
    rows = set()
    for m in range(4):
        b = -(window + 1) // 2 - 1
        while 2 * b + 1 <= window:
            a = 0
            while 2 * a + 2 * b + 1 <= window:
                element = multiply(
                    monomial_image(a, b), AlgebraElement.basis(LEFT_BASIS[m])
                )
                support = [
                    j for matrix in element.terms for _, j, _ in matrix.entries
                ]
                if support and all(-window <= j <= window for j in support):
                    label = (m, a, b)
                    cols.append(label)
                    for matrix, coeff in element.terms.items():
                        entries[(matrix, label)] = coeff
                        rows.add(matrix)
                a += 1
            b += 1
    results = solve_many(
        cols,
        sorted(rows, key=lambda mx: mx.sort_key()),
        entries,
        [dict(x.terms) for _, x in inputs],
    )
    for ((i, j), x), result in zip(inputs, results):
        if result.status != SolveResult.UNIQUE:
            failures.append(f"solver {result.status} at ({i},{j})")
    report(6, f"freeness round trip and unique solver solutions on "
              f"{len(inputs)} spans", failures)


def test_criterion_7_certification_run(capsys):
    code = cli_run(
        ["verify-cell", "--window", "12", "--seed", "0", "--samples", "100"]
    )
    out = capsys.readouterr().out
    failures = [] if code == 0 else [f"exit code {code}; output {out[:400]}"]
    with capsys.disabled():
        report(7, "verify-cell --window 12 --seed 0 --samples 100 exits 0",
               failures)


def test_criterion_8_negative_controls(capsys):
    failures = []
    tampered_transpose = verify_cell_chain(
        window=6, seed=0, samples=15, transpose_fn=lambda x: x
    )
    statuses = {c.name: c.status for c in tampered_transpose.checks}
    if statuses["swap-diagram"] != "fail" or tampered_transpose.exit_code() != 1:
        failures.append("identity transpose was not rejected")
    tampered_involution = verify_cell_chain(
        window=6, seed=0, samples=15, involution_fn=lambda p: p
    )
    statuses = {c.name: c.status for c in tampered_involution.checks}
    if statuses["swap-diagram"] != "fail" or tampered_involution.exit_code() != 1:
        failures.append("identity involution was not rejected")
    code = cli_run(
        ["verify-cell", "--window", "1", "--seed", "0", "--samples", "15"]
    )
    capsys.readouterr()
    if code != 3:
        failures.append(f"starved window exited {code}, wanted 3")
    with capsys.disabled():
        report(8, "tampered structure maps fail; starved window is undecided",
               failures)
