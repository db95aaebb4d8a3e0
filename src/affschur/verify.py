"""
Machine certification of the ideal-chain structure at n = r = 2.

``verify_cell_chain`` runs a fixed battery of exact checks — ideal
generator certificates, transpose stability of the ideal, freeness of the
module bases, independence of the coordinate system, the swap diagram,
quotient-map homomorphism properties and the vector-space decomposition —
and returns a machine-readable report.  Every check is exact.  A check
appends its findings to the runner's lists of failures and undecided
findings and returns only its detail for a pass; the runner alone makes
each status from the lists.  A check that needs more column support
than the run's window, or a block whose rank peeling leaves undecided,
is undecided: never a pass, never a failure.  A rank-deficient block or
a certificate that does not contract back fails the check, after the
failures it had found before; the report is still returned.

The window W is both the starting and the maximal window of the run: a
fixed-budget statement about everything that fits in W.  One
:class:`~affschur.cellular.WindowBlocks` serves the whole run and is its
only solver, so each signature block is built and eliminated once for
every check that needs it; the freeness check's module system is the
three row-(2,0) blocks, whose coordinates it reads without certificates.
Where x2, the central shift by one period, carries a statement from one
element to its translates, a check makes it once per stem, base pair or
class of pairs and argues the move next to the check: the transpose and
freeness checks compare translation classes (shape, k), not elements,
and build no translate.  The transpose and corner-involution maps can be
overridden, for negative controls (see :func:`verify_cell_chain`).

The cyclic garbage collector is paused while the battery runs, and put
back as it was found, also when a check raises.  Pausing it loses
nothing: the battery leaves no cyclic garbage (its matrices, elements,
polynomials and block systems hold no reference cycles), so reference
counting frees each object when it is dropped, and a collection after a
run finds nothing unreachable.  A full collection would only traverse
every live container, most of them in the process-wide caches: about 7%
of a W=24 run and 11% of a W=48 run.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .core import AlgebraElement, PeriodicMatrix, _transposed_class
from .hecke import (
    HeckeElement,
    T1,
    T2,
    TRHO_INV,
    TRHO,
    group_quotient_image,
    hecke_embed,
    laurent_lift,
    quotient_image,
)
from .laurent import LaurentPoly2
from .multiplication import multiply
from .cellular import (
    CellTensor,
    MembershipResult,
    SIGNATURE_BLOCKS,
    UndecidedError,
    WEIGHT_20,
    WindowBlocks,
    _contract,
    _window_labels,
    corner_involution,
    decompose_left,
    decompose_right,
    idempotent_02,
    idempotent_11,
    idempotent_20,
    omega_element,
    tensor_to_ideal,
)
from .sampling import (
    random_element,
    random_hecke,
    random_poly1,
    random_tensor_cells,
)

__all__ = ["CheckResult", "CellReport", "verify_cell_chain"]

PASS = "pass"
FAIL = "fail"
UNDECIDED = "undecided"

@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    millis: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.status == PASS,
            "status": self.status,
            "detail": self.detail,
            "millis": round(self.millis, 3),
        }


@dataclass
class CellReport:
    checks: list[CheckResult] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    total_millis: float = 0.0

    @property
    def status(self) -> str:
        """The run's verdict: fail when a check failed, else undecided
        when a check is undecided, else pass."""
        statuses = {check.status for check in self.checks}
        if FAIL in statuses:
            return FAIL
        return UNDECIDED if UNDECIDED in statuses else PASS

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    @property
    def undecided(self) -> bool:
        return self.status == UNDECIDED

    def exit_code(self) -> int:
        return {PASS: 0, FAIL: 1, UNDECIDED: 3}[self.status]

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "checks": [check.to_json() for check in self.checks],
            "params": dict(self.params, total_millis=round(self.total_millis, 3)),
        }

    def render_text(self) -> str:
        lines = []
        for check in self.checks:
            lines.append(
                f"[{check.status.upper():9s}] {check.name} "
                f"({check.millis:.0f} ms): {check.detail}"
            )
        lines.append(
            f"overall: {self.status.upper()} "
            f"(window={self.params.get('window')}, seed={self.params.get('seed')}, "
            f"samples={self.params.get('samples')}, {self.total_millis:.0f} ms)"
        )
        return "\n".join(lines)


TransposeFn = Callable[[AlgebraElement], AlgebraElement]
InvolutionFn = Callable[[LaurentPoly2], LaurentPoly2]


def _moved_round_trips(trips: tuple[dict, dict], k: int) -> tuple[dict, dict]:
    """A base pair's left and right round trips, as classes, for the pair
    k periods on: the left moved up by k periods, the right down by k."""
    left, right = trips
    return (
        {(shape, s + k): c for (shape, s), c in left.items()},
        {(shape, s - k): c for (shape, s), c in right.items()},
    )


def _moved_solution(coords: dict, d: int) -> dict:
    """Solver coordinates {(l, m, a, b): value} moved d periods on."""
    return {(l, m, a, b + d): value for (l, m, a, b), value in coords.items()}


def verify_cell_chain(
    window: int = 12,
    seed: int = 0,
    samples: int = 100,
    transpose_fn: TransposeFn | None = None,
    involution_fn: InvolutionFn | None = None,
) -> CellReport:
    """Run the full certification battery and collect a report.

    ``transpose_fn`` and ``involution_fn`` default to the genuine
    structure maps; overriding either is meant for negative controls.
    ``transpose_fn`` reaches every transpose applied to an element: the 8
    re-solves, the swap diagram and the quotient's inversion.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if samples < 0:
        raise ValueError("sample count must be nonnegative")
    tau = transpose_fn if transpose_fn is not None else AlgebraElement.transpose
    sigma = involution_fn if involution_fn is not None else corner_involution
    rng = random.Random(seed)
    report = CellReport(
        params={"window": window, "seed": seed, "samples": samples}
    )
    start_total = time.perf_counter()

    def run(name: str, fn: Callable[[list[str], list[str]], str]) -> None:
        # the check's findings, kept here so that an error raised late in
        # the check does not erase those found before it
        start = time.perf_counter()
        failures: list[str] = []
        undecided: list[str] = []
        error: list[str] = []
        try:
            detail = fn(failures, undecided)
        except ArithmeticError as exc:
            # a rank-deficient block or a certificate that does not
            # contract back: the structure is wrong, so the check fails
            error = [str(exc)]
        except UndecidedError as exc:
            # a block whose rank peeling does not decide ends the check,
            # reported in place of its earlier undecided findings
            undecided = [str(exc)]
        if failures or error:
            status, detail = FAIL, "; ".join(failures[:5] + error)
        elif undecided:
            status, detail = UNDECIDED, "; ".join(undecided[:5])
        else:
            status = PASS
        report.checks.append(
            CheckResult(name, status, detail, (time.perf_counter() - start) * 1e3)
        )

    e_lam = idempotent_20()
    e_mu = idempotent_02()
    e_nu = idempotent_11()
    t1 = hecke_embed(HeckeElement.group(T1))
    t2 = hecke_embed(HeckeElement.group(T2))
    trho = hecke_embed(HeckeElement.group(TRHO))
    trho_inv = hecke_embed(HeckeElement.group(TRHO_INV))

    def basis(*entries: tuple[int, int, int]) -> AlgebraElement:
        return AlgebraElement.basis(PeriodicMatrix.from_entries(2, entries))

    # the ideal's signature blocks at the run's window, each built and
    # factored once for every check that asks about them
    blocks = WindowBlocks(window)

    def check_generator_certificates(failures: list[str], undecided: list[str]) -> str:
        identities = [
            (
                "column idempotent factors through the ideal",
                multiply(basis((2, 1, 2)), basis((1, 2, 2))),
                e_mu,
            ),
            (
                "reflection-plus-unit product",
                multiply(basis((1, 1, 1), (2, 1, 1)), basis((1, 1, 1), (1, 2, 1))),
                t1 + e_nu,
            ),
            (
                "reflection squares to the corner unit",
                multiply(t1, t1),
                e_nu,
            ),
            (
                "rotation conjugate of the first reflection",
                multiply(multiply(trho_inv, t1 + e_nu), trho),
                t2 + e_nu,
            ),
            (
                "compression to four times the idempotent",
                multiply(
                    multiply(basis((1, 1, 1), (1, 2, 1)), t1 + e_nu),
                    basis((1, 1, 1), (2, 1, 1)),
                ),
                e_lam.scaled(4),
            ),
        ]
        for label, got, expected in identities:
            if got != expected:
                failures.append(f"{label}: got {got!r}")
        members = [
            ("column idempotent", e_mu),
            ("first reflection plus unit", t1 + e_nu),
            ("second reflection plus unit", t2 + e_nu),
            ("row idempotent", e_lam),
        ]
        batch = blocks.membership([element for _, element in members])
        for (label, _), result in zip(members, batch):
            finding = f"{label}: {result.status} (window {result.window})"
            if result.status == MembershipResult.NOT_MEMBER:
                failures.append(finding)
            elif result.status == MembershipResult.UNDECIDED:
                undecided.append(finding)
        return "ok"

    def check_transpose_stability(failures: list[str], undecided: list[str]) -> str:
        # On the stems.  Transposing turns a move by b periods into one by
        # -b (_transposed_class: tau(T x) = T^-1 tau(x) for T the move by
        # one period), and the member (l, m, a, b) is its stem (l, m, a, 0)
        # moved by b periods (x2 is central, and the family is filled that
        # way), so its transpose is tau(stem) moved by -b periods: once
        # tau(stem) is the cell omega(m, l, a, -a), the transpose of every
        # member of that stem is omega(m, l, a, -a - b), and its columns
        # are tau(stem)'s moved by -2b, which says whether it fits the
        # window.  Each stem is transposed and compared once, as classes,
        # so nothing is built.  The premise is not taken on trust: the
        # independent route below transposes a few genuine members, built
        # as translates, and solves for their coordinates, which must be
        # the one member (m, l, a, -a - b) the comparison predicts, so a
        # transpose or a translate that broke the commutation shows there
        # as a failed or a wrong solve.
        # every spanning element's label, by cell (l, m), then b, then a
        labels = list(
            _window_labels(window, [(l, m) for l in range(4) for m in range(4)])
        )
        # stem -> column extent of its transpose, None when that is zero
        extents: dict[tuple[int, int, int], tuple[int, int] | None] = {}
        # the members whose transpose fits, for the independent route
        inside = []
        for label in labels:
            l, m, a, b = label
            if (l, m, a) not in extents:
                stem = _contract([(1, (l, m, a, 0))])
                transposed = {_transposed_class(2, *key): c for key, c in stem.items()}
                if len(failures) < 5 and transposed != _contract([(1, (m, l, a, -a))]):
                    failures.append(
                        f"transpose of cell ({l},{m},{a},0) left the spanning set"
                    )
                support = [j + 2 * k for shape, k in transposed for j in shape[1::3]]
                extents[(l, m, a)] = (min(support), max(support)) if support else None
            extent = extents[(l, m, a)]
            if extent and -window <= extent[0] - 2 * b and extent[1] - 2 * b <= window:
                inside.append(label)
        # independent route: solve for coordinates of a few transposes
        rng_local = random.Random(seed + 1)
        subsample = rng_local.sample(inside, min(8, len(inside)))
        solved = blocks.coordinates([tau(omega_element(*label)) for label in subsample])
        for label, coords in zip(subsample, solved):
            l, m, a, b = label
            if coords is None:
                failures.append(
                    f"transposed cell {label}: {MembershipResult.NOT_MEMBER}"
                )
            elif coords != {(m, l, a, -a - b): 1}:
                failures.append(f"transposed cell {label}: solved as {sorted(coords)}")
        return (
            f"{len(labels)} spanning elements transposed back; "
            f"{len(subsample)} re-solved"
        )

    def pair(i: int, j: int) -> PeriodicMatrix:
        # from_entries merges the two entries of {i, i} into (1, i, 2)
        return PeriodicMatrix.from_entries(2, [(1, i, 1), (1, j, 1)])

    def check_freeness(failures: list[str], undecided: list[str]) -> str:
        # Round trips per base pair.  The pair {i, j} (i <= j) is its base
        # pair {i - 2k, j - 2k}, smaller column in {1, 2}, moved by
        # k = (i - 1) // 2 periods, that is times the central x2^k.
        # decompose_left normalizes the smaller column by exactly that
        # power, so the pair's coordinates are the base coordinates times
        # x2^k, and to_element sends x2^k times a module element to the
        # element moved by k periods; so the left round trip of {i, j} is
        # the base pair's moved by k periods.  Transposing turns moved
        # columns into moved rows, which row normalization turns back into
        # columns moved by -k periods: the right round trip of the
        # transpose is the base one moved by -k.  Each base pair is
        # contracted once, as classes (stem terms moved by
        # _translate_shift(b), as in the block systems), and the classes
        # of every pair and of its transpose are compared with those of
        # its base round trips moved by k and -k periods, so no translate
        # is built.  The premise is not taken on trust: the solver
        # cross-check below decomposes every pair inside its margin itself,
        # so a decomposition that broke the translation shows there as a
        # disagreement.
        count = 0
        base_trips: dict[tuple[int, int], tuple[dict, dict]] = {}
        for i in range(-window, window + 1):
            k = (i - 1) // 2
            for j in range(i, window + 1):
                base = (i - 2 * k, j - 2 * k)
                trips = base_trips.get(base)
                if trips is None:
                    x0 = AlgebraElement.basis(pair(*base))
                    trips = base_trips[base] = (
                        decompose_left(x0).classes(),
                        decompose_right(x0.transpose()).classes(),
                    )
                left, right = _moved_round_trips(trips, k)
                shape, s = pair(i, j).translation_class()
                if left != {(shape, s): 1}:
                    failures.append(f"left round trip failed at ({i},{j})")
                if right != {_transposed_class(2, shape, s): 1}:
                    failures.append(f"right round trip failed at ({i},{j})")
                count += 1
        # independent solver route plus uniqueness, within a margin that
        # keeps every needed coordinate monomial inside the window; index 2
        # of the right basis is the corner unit, so the left module's span
        # is the ideal's row-(2,0) blocks, cells (2, m).  One pair per class
        # (column parity, width) is solved; every pair's decompose_left is
        # compared with that solution moved by its d periods.  That is as
        # strong as per-pair solves: the family and the block rows are
        # translation-equivariant by construction; the controls of
        # _translate_shift, the member move and the solution move test it.
        margin = 3
        module = [
            blocks.factorization(sig) for sig in SIGNATURE_BLOCKS if sig[0] == WEIGHT_20
        ]
        columns = sum(len(f.cols) for f in module)
        system_rank = sum(f.max_rank for f in module)
        if system_rank < columns:
            failures.append(
                f"module coordinate system rank at most {system_rank} < {columns}"
            )
        elif any(f.rank != len(f.cols) for f in module):
            undecided.append("module coordinate system rank undecided")
        bound = max(window - margin, 1)
        indices = [
            (i, j) for i in range(-bound, bound + 1) for j in range(i, bound + 1)
        ]
        # (column parity, width) -> the smaller column of its first pair
        firsts = {(i % 2, j - i): i for i, j in reversed(indices)}
        reps = [AlgebraElement.basis(pair(i, i + w)) for (_, w), i in firsts.items()]
        solutions = dict(zip(firsts, blocks.coordinates(reps)))
        solver_checked = 0
        for i, j in indices:
            key = (i % 2, j - i)
            if solutions[key] is None:
                failures.append("solver cross-check status inconsistent")
                continue
            moved = _moved_solution(solutions[key], (i - firsts[key]) // 2)
            coords = decompose_left(AlgebraElement.basis(pair(i, j))).coords
            expected = {
                (2, m, a, b): c
                for m, poly in enumerate(coords)
                for (a, b), c in poly.terms.items()
            }
            if moved != expected:
                failures.append("solver and closed-form coordinates disagree")
            solver_checked += 1
        return (
            f"{count} round trips, {solver_checked} solver cross-checks, "
            f"coordinate rank {system_rank}/{columns}"
        )

    def check_independence(failures: list[str], undecided: list[str]) -> str:
        block_dims = []
        for signature in sorted(
            SIGNATURE_BLOCKS, key=lambda sig: (sig[0].parts, sig[1].parts)
        ):
            factorization = blocks.factorization(signature)
            columns = len(factorization.cols)
            if not columns:
                continue
            block_dims.append(f"{columns}")
            block = f"block {signature[0].parts}/{signature[1].parts}"
            if factorization.max_rank < columns:
                failures.append(
                    f"{block}: rank at most {factorization.max_rank} < {columns}"
                )
            elif factorization.rank != columns:
                undecided.append(f"{block}: does not peel whole, rank undecided")
        return "full column rank on blocks of sizes " + ", ".join(block_dims)

    def check_diagram(failures: list[str], undecided: list[str]) -> str:
        zero = LaurentPoly2.zero()
        for index in range(samples):
            grid = [[zero] * 4 for _ in range(4)]
            for l, m, poly in random_tensor_cells(rng):
                grid[l][m] = grid[l][m] + poly
            swap = [[sigma(grid[m][l]) for m in range(4)] for l in range(4)]
            tensor, swapped = (CellTensor(tuple(map(tuple, g))) for g in (grid, swap))
            if tau(tensor_to_ideal(tensor)) != tensor_to_ideal(swapped):
                failures.append(f"diagram broke on sample {index}")
                if len(failures) > 4:
                    break
        return f"transpose commutes with the swap on {samples} tensors"

    def check_quotient(failures: list[str], undecided: list[str]) -> str:
        for index in range(samples):
            x = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            y = random_element(rng, 2, 2, col_lo=-3, col_hi=4)
            if quotient_image(multiply(x, y)) != quotient_image(
                x
            ) * quotient_image(y):
                failures.append(f"multiplicativity broke on sample {index}")
            ideal_elt = multiply(multiply(x, e_lam), y)
            if not quotient_image(ideal_elt).is_zero():
                failures.append(f"ideal element survived on sample {index}")
            p = random_poly1(rng)
            if quotient_image(laurent_lift(p)) != p:
                failures.append(f"lift section broke on sample {index}")
            h = random_hecke(rng)
            embedded = hecke_embed(h)
            if quotient_image(embedded) != group_quotient_image(embedded):
                failures.append(f"group route disagreed on sample {index}")
            if quotient_image(tau(embedded)) != quotient_image(
                embedded
            ).invert_variable():
                failures.append(
                    f"transpose/inversion compatibility broke on sample {index}"
                )
            if len(failures) > 4:
                break
        return f"homomorphism, kernel, section and inversion on {samples} samples"

    def check_direct_sum(failures: list[str], undecided: list[str]) -> str:
        lo = -max(2, window // 4)
        hi = max(3, window // 4)
        differences = []
        for _ in range(samples):
            x = random_element(rng, 2, 2, col_lo=lo, col_hi=hi)
            differences.append(x - laurent_lift(quotient_image(x)))
        for index, result in enumerate(blocks.membership(differences)):
            if result.status == MembershipResult.NOT_MEMBER:
                failures.append(f"complement escaped the ideal on sample {index}")
            elif result.status == MembershipResult.UNDECIDED:
                undecided.append(f"sample {index} undecided at window {window}")
        return f"quotient lift complements the ideal on {samples} samples"

    # the collector is paused through the battery (module docstring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run("ideal-generator-certificates", check_generator_certificates)
        run("transpose-ideal-stability", check_transpose_stability)
        run("module-basis-freeness", check_freeness)
        run("coordinate-independence", check_independence)
        run("swap-diagram", check_diagram)
        run("quotient-homomorphism", check_quotient)
        run("vector-space-decomposition", check_direct_sum)
    finally:
        if enabled:
            gc.enable()

    report.total_millis = (time.perf_counter() - start_total) * 1e3
    return report
