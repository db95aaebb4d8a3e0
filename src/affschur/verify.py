"""
Machine certification of the ideal-chain structure at n = r = 2.

``verify_cell_chain`` runs a fixed battery of exact checks — ideal
generator certificates, transpose stability of the ideal, freeness of the
module bases, independence of the coordinate system, the swap diagram,
quotient-map homomorphism properties and the vector-space decomposition —
and returns a machine-readable report.  Every check is exact; checks that
need more column support than the run's window report "undecided" rather
than failing.  A check that finds a block rank deficient, or a
certificate that does not contract back, fails with that finding in its
detail, after the failures it had found before; the report is still
returned.  A check that needs a block whose rank peeling leaves
undecided reports "undecided": never a pass, never a failure.

The window parameter is both the starting and the maximal window of the
run: a certification at window W is a fixed-budget statement about
everything that fits in W.  One :class:`~affschur.cellular.WindowBlocks`
serves the whole run and is its only solver, so each signature block of
the ideal's spanning set is built and eliminated once for every check
that needs it; the freeness check's module system is the three
row-(2,0) blocks, whose coordinates it reads without certificates.
Where x2, the central shift by one period, carries a statement from one
element to its translates, a check makes it once per stem or base pair
and argues the move next to the check: the freeness check contracts
each base pair once and moves its round trips by whole periods, and the
transpose check compares the stems' transposes only, since transposing
turns a move by b periods into one by -b.  The transpose and
corner-involution maps can be overridden, which is used by
negative-control tests to show that the battery actually rejects wrong
structure maps.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .core import AlgebraElement, PeriodicMatrix
from .hecke import (
    HeckeElement,
    T1,
    T2,
    TRHO_INV,
    TRHO,
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

# pairs solved together in the freeness check's solver cross-check: one
# batch's right-hand sides and solutions are held at a time, and each
# batch sweeps only the factorization steps its values reach
_FREENESS_BATCH = 4096


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
    def passed(self) -> bool:
        return all(check.status == PASS for check in self.checks)

    @property
    def failed(self) -> bool:
        return any(check.status == FAIL for check in self.checks)

    @property
    def undecided(self) -> bool:
        return not self.failed and any(
            check.status == UNDECIDED for check in self.checks
        )

    def exit_code(self) -> int:
        if self.failed:
            return 1
        if self.undecided:
            return 3
        return 0

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "checks": [check.to_json() for check in self.checks],
            "params": dict(self.params, total_millis=round(self.total_millis, 3)),
        }

    def render_text(self) -> str:
        lines = []
        for check in self.checks:
            mark = {PASS: "PASS", FAIL: "FAIL", UNDECIDED: "UNDECIDED"}[
                check.status
            ]
            lines.append(
                f"[{mark:9s}] {check.name} ({check.millis:.0f} ms): {check.detail}"
            )
        verdict = (
            "PASS" if self.passed else ("UNDECIDED" if self.undecided else "FAIL")
        )
        lines.append(
            f"overall: {verdict} "
            f"(window={self.params.get('window')}, seed={self.params.get('seed')}, "
            f"samples={self.params.get('samples')}, {self.total_millis:.0f} ms)"
        )
        return "\n".join(lines)


def _status_merge(failures: list[str], undecided: list[str]) -> tuple[str, str]:
    if failures:
        return FAIL, "; ".join(failures[:5])
    if undecided:
        return UNDECIDED, "; ".join(undecided[:5])
    return PASS, "ok"


TransposeFn = Callable[[AlgebraElement], AlgebraElement]
InvolutionFn = Callable[[LaurentPoly2], LaurentPoly2]


def _membership_detail(name: str, result: MembershipResult) -> str:
    return f"{name}: {result.status} (window {result.window})"


def _moved_round_trips(
    trips: tuple[AlgebraElement, AlgebraElement], k: int
) -> tuple[AlgebraElement, AlgebraElement]:
    """A base pair's left and right round trips for the pair k periods
    on: the left moved up by k periods, the right down by k."""
    left, right = trips
    return left.translated(k), right.translated(-k)


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

    def run(name: str, fn: Callable[[list[str]], tuple[str, str]]) -> None:
        start = time.perf_counter()
        # the check's failures, kept here so that an error raised late in
        # the check does not erase those found before it
        failures: list[str] = []
        try:
            status, detail = fn(failures)
        except ArithmeticError as exc:
            # a rank-deficient block or a certificate that does not
            # contract back: the structure is wrong, so the check fails
            status, detail = FAIL, "; ".join(failures[:5] + [str(exc)])
        except UndecidedError as exc:
            # a block whose rank peeling does not decide
            status, detail = _status_merge(failures, [str(exc)])
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

    def check_generator_certificates(failures: list[str]) -> tuple[str, str]:
        undecided: list[str] = []
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
            if result.status == MembershipResult.NOT_MEMBER:
                failures.append(_membership_detail(label, result))
            elif result.status == MembershipResult.UNDECIDED:
                undecided.append(_membership_detail(label, result))
        return _status_merge(failures, undecided)

    def check_transpose_stability(failures: list[str]) -> tuple[str, str]:
        # On the stems.  T, the move of every column by one period n,
        # sends the entry (i, j) to (i, j + n), which periodicity stores
        # as (i - n, j); transposed, that is (j, i - n), the transposed
        # entry with its column moved by -n.  So tau(T x) = T^-1 tau(x)
        # for every matrix, hence for every element.  The member
        # (l, m, a, b) is its stem (l, m, a, 0) moved by b periods (x2 is
        # central, and the family is filled that way), so its transpose
        # is tau(stem) moved by -b periods: once tau(stem) is the cell
        # omega(m, l, a, -a), the transpose of every member of that stem
        # is omega(m, l, a, -a - b), and its columns are tau(stem)'s
        # moved by -2b, which says whether it fits the window.  Each stem
        # is transposed and compared once.  The premise is not taken on
        # trust: the independent route below transposes a few genuine
        # members, built as translates, and solves for their coordinates,
        # so a transpose or a translate that broke the commutation shows
        # there as a failed solve.
        undecided: list[str] = []
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
                transposed = tau(omega_element(l, m, a, 0))
                if len(failures) < 5 and transposed != omega_element(m, l, a, -a):
                    failures.append(
                        f"transpose of cell ({l},{m},{a},0) left the spanning set"
                    )
                support = [j for matrix in transposed.terms for _, j, _ in matrix.entries]
                extents[(l, m, a)] = (min(support), max(support)) if support else None
            extent = extents[(l, m, a)]
            if extent and -window <= extent[0] - 2 * b and extent[1] - 2 * b <= window:
                inside.append(label)
        # independent route: solve for coordinates of a few transposes
        rng_local = random.Random(seed + 1)
        subsample = rng_local.sample(inside, min(8, len(inside)))
        if subsample:
            batch = blocks.membership(
                [tau(omega_element(*label)) for label in subsample]
            )
            for label, result in zip(subsample, batch):
                if result.status == MembershipResult.NOT_MEMBER:
                    failures.append(f"transposed cell {label}: {result.status}")
                elif result.status == MembershipResult.UNDECIDED:
                    undecided.append(f"transposed cell {label}: undecided")
        detail_ok = (
            f"{len(labels)} spanning elements transposed back; "
            f"{len(subsample)} re-solved"
        )
        status, detail = _status_merge(failures, undecided)
        return status, detail_ok if status == PASS else detail

    def pair(i: int, j: int) -> AlgebraElement:
        return basis((1, i, 2)) if i == j else basis((1, i, 1), (1, j, 1))

    def check_freeness(failures: list[str]) -> tuple[str, str]:
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
        # contracted once and every pair compared with its base round
        # trips moved by k and -k periods.  The premise is not taken on
        # trust: the solver cross-check below decomposes every pair
        # inside its margin itself and solves against module elements,
        # whose x2^b members are translates too, so a decomposition or
        # module element that broke the translation shows there as a
        # disagreement.
        count = 0
        base_trips: dict[
            tuple[int, int], tuple[AlgebraElement, AlgebraElement]
        ] = {}
        for i in range(-window, window + 1):
            k = (i - 1) // 2
            for j in range(i, window + 1):
                base = (i - 2 * k, j - 2 * k)
                trips = base_trips.get(base)
                if trips is None:
                    x0 = pair(*base)
                    trips = base_trips[base] = (
                        decompose_left(x0).to_element(),
                        decompose_right(x0.transpose()).to_element(),
                    )
                left, right = _moved_round_trips(trips, k)
                x = pair(i, j)
                if left != x:
                    failures.append(f"left round trip failed at ({i},{j})")
                if right != x.transpose():
                    failures.append(f"right round trip failed at ({i},{j})")
                count += 1
        # independent solver route plus uniqueness, within a margin that
        # keeps every needed coordinate monomial inside the window; index 2
        # of the right basis is the corner unit, so the left module's span
        # is the ideal's row-(2,0) blocks, cells (2, m)
        margin = 3
        module = [
            blocks.factorization(sig) for sig in SIGNATURE_BLOCKS if sig[0] == WEIGHT_20
        ]
        columns = sum(len(f.cols) for f in module)
        system_rank = sum(f.max_rank for f in module)
        undecided: list[str] = []
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
        solver_checked = 0
        for start in range(0, len(indices), _FREENESS_BATCH):
            pairs = [pair(i, j) for i, j in indices[start : start + _FREENESS_BATCH]]
            for x, coords in zip(pairs, blocks.coordinates(pairs)):
                if coords is None:
                    failures.append("solver cross-check status inconsistent")
                    continue
                solved: dict[tuple[int, int], dict] = {}
                for (l, m, a, b), value in coords.items():
                    solved.setdefault((l, m), {})[(a, b)] = value
                expected = {
                    (2, m): poly.terms
                    for m, poly in enumerate(decompose_left(x).coords)
                    if not poly.is_zero()
                }
                if solved != expected:
                    failures.append("solver and recurrence coordinates disagree")
                solver_checked += 1
        status, detail = _status_merge(failures, undecided)
        if status == PASS:
            detail = (
                f"{count} round trips, {solver_checked} solver cross-checks, "
                f"coordinate rank {system_rank}/{columns}"
            )
        return status, detail

    def check_independence(failures: list[str]) -> tuple[str, str]:
        undecided: list[str] = []
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
        status, detail = _status_merge(failures, undecided)
        if status == PASS:
            detail = "full column rank on blocks of sizes " + ", ".join(
                block_dims
            )
        return status, detail

    def check_diagram(failures: list[str]) -> tuple[str, str]:
        for index in range(samples):
            cells = random_tensor_cells(rng)
            tensor = CellTensor.zero()
            for l, m, poly in cells:
                tensor = tensor + CellTensor.unit(l, m, poly)
            swapped = CellTensor(
                tuple(
                    tuple(sigma(tensor.cell(m, l)) for m in range(4))
                    for l in range(4)
                )
            )
            if tau(tensor_to_ideal(tensor)) != tensor_to_ideal(swapped):
                failures.append(f"diagram broke on sample {index}")
                if len(failures) > 4:
                    break
        status, detail = _status_merge(failures, [])
        if status == PASS:
            detail = f"transpose commutes with the swap on {samples} tensors"
        return status, detail

    def check_quotient(failures: list[str]) -> tuple[str, str]:
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
            if quotient_image(tau(embedded)) != quotient_image(
                embedded
            ).invert_variable():
                failures.append(
                    f"transpose/inversion compatibility broke on sample {index}"
                )
            if len(failures) > 4:
                break
        status, detail = _status_merge(failures, [])
        if status == PASS:
            detail = f"homomorphism, kernel, section and inversion on {samples} samples"
        return status, detail

    def check_direct_sum(failures: list[str]) -> tuple[str, str]:
        undecided: list[str] = []
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
        status, detail = _status_merge(failures, undecided)
        if status == PASS:
            detail = f"quotient lift complements the ideal on {samples} samples"
        return status, detail

    run("ideal-generator-certificates", check_generator_certificates)
    run("transpose-ideal-stability", check_transpose_stability)
    run("module-basis-freeness", check_freeness)
    run("coordinate-independence", check_independence)
    run("swap-diagram", check_diagram)
    run("quotient-homomorphism", check_quotient)
    run("vector-space-decomposition", check_direct_sum)

    report.total_millis = (time.perf_counter() - start_total) * 1e3
    return report
