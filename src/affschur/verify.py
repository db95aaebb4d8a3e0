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
class of pairs and argues the move next to the check: the transpose check
compares translation classes (shape, k), not elements, and the freeness
check proves its round trips by induction on the width (Newton's
identity) over classes the stems already multiplied; neither builds a
translate.  The transpose and corner-involution maps can be
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

from .core import AlgebraElement, LinearCombination, PeriodicMatrix, _transposed_class
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
from .multiplication import multiply, multiply_classes
from .cellular import (
    CellTensor,
    GEN_X1,
    LEFT_BASIS,
    MembershipResult,
    SIGNATURE_BLOCKS,
    UndecidedError,
    WEIGHT_20,
    WindowBlocks,
    _contract,
    _pair_coords,
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


# Newton's step to p_2 reads p_0 as 2; the pair P_0 has coordinate 1
_P0_IN_NEWTON = 2


class _Classes(LinearCombination):
    """An element of S(2, 2) as {(shape, k): value}, multiplied in class
    space over the structure table (:func:`multiply_classes`)."""

    __slots__ = ()
    _checked_key = staticmethod(lambda key: key)

    @classmethod
    def of(cls, matrix: PeriodicMatrix) -> "_Classes":
        return cls({matrix.translation_class(): 1})

    def _product(self, other: "_Classes") -> "_Classes":
        xs, ys = ([(*key, c) for key, c in x.terms.items()] for x in (self, other))
        return self._like(multiply_classes(2, xs, ys))


def _x2(x: _Classes) -> _Classes:
    """x2 times x: x moved by one period."""
    return x._like({(shape, k + 1): c for (shape, k), c in x.terms.items()})


def _right_rule(p: LaurentPoly2) -> LaurentPoly2:
    """x1^a x2^b -> x1^a x2^(-a-b), check 2's rule for the transposes."""
    return p._like({(a, -a - b): c for (a, b), c in p.terms.items()})


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
                stem = _contract({(l, m, a, 0): 1})
                transposed = {_transposed_class(2, *key): c for key, c in stem.items()}
                if len(failures) < 5 and transposed != _contract({(m, l, a, -a): 1}):
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
        # Round trips by induction on the width.  Write P_n, R_n, Q_n, S_n
        # for the base pairs {1, 1+2n}, {2, 2+2n}, {1, 2+2n}, {2, 3+2n}, L_m
        # for left basis m and ev(f) for sum f_ab omega(2, 2, a, b).  The
        # stems are x1^a = x1^(a-1) x1 and omega(2, m, a, 0) = x1^a L_m,
        # products on the right, moved by b periods for x2^b; so by
        # construction to_element(c) = sum_m ev(c_m) L_m, ev(f x1) = ev(f) x1
        # and ev(x2 f) = x2 ev(f).  decompose_left must give P_n = p_n L_2,
        # R_n = p_n L_3, Q_n = h_n L_0 - h_(n-1) L_1, S_n = h_n L_1 -
        # x2 h_(n-1) L_0, where p, h take Newton's step c_(n+1) = x1 c_n -
        # x2 c_(n-1) (Macdonald, Symmetric Functions and Hall Polynomials,
        # ch. I §2) from c_-1 = 0, c_0 = 1, p_0 read as 2 in the step to p_2.
        # P_n (with 2 P_0) and H_n (H_0 = e) take the same step: ev(p_n) = P_n
        # and ev(h_n) = H_n, and each round trip holds once R_n = P_n L_3,
        # Q_n = H_n L_0 - H_(n-1) L_1 and S_n = H_n L_1 - x2 H_(n-1) L_0,
        # products of classes the stems filled.  Widths 0 to 3 are also
        # contracted.  By check 2's rule tau(omega(2, m, a, b)) = omega(m, 2,
        # a, -a-b), decompose_right(tau X) must be decompose_left(X) under
        # _right_rule.  The pair {i, j}, and so its coordinates
        # (_pair_coords), is its base pair moved by k = (i - 1) // 2 periods.
        for i in range(-window, window + 1):
            k = (i - 1) // 2
            for j in range(i, window + 1):
                coords, s = _pair_coords(i - 2 * k, j - 2 * k)
                if _pair_coords(i, j) != (coords, s + k):
                    failures.append(f"left round trip failed at ({i},{j})")
        zero, one = LaurentPoly2.zero(), LaurentPoly2.one()
        x1, x2 = LaurentPoly2.x1(), LaurentPoly2.x2()
        X1, (L0, L1, _, L3) = _Classes.of(GEN_X1), map(_Classes.of, LEFT_BASIS)
        p_prev, p, h_prev, h = zero, one, zero, one
        P_prev, P = H_prev, H = _Classes(), _Classes.of(pair(1, 1))
        for w in range(0, 2 * window + 1, 2):
            for column, width, expected, element in [
                (1, w, (zero, zero, p, zero), P),
                (2, w, (zero, zero, zero, p), P * L3),
                (1, w + 1, (h, -h_prev, zero, zero), H * L0 - H_prev * L1),
                (2, w + 1, (-x2 * h_prev, h, zero, zero), H * L1 - _x2(H_prev * L0)),
            ]:
                if width > 2 * window - (column + window) % 2:  # the widest pair
                    continue
                matrix = pair(column, column + width)
                left = decompose_left(AlgebraElement.basis(matrix))
                right = decompose_right(AlgebraElement.basis(matrix.transpose()))
                at = f"at ({column},{column + width})"
                if element != _Classes.of(matrix):
                    failures.append(f"Newton step failed {at}")
                if left.coords != expected:
                    failures.append(f"left round trip failed {at}")
                if right.coords != tuple(map(_right_rule, left.coords)):
                    failures.append(f"right round trip failed {at}")
                if width <= 3 and (
                    left.classes() != _Classes.of(matrix).terms
                    or right.classes() != _Classes.of(matrix.transpose()).terms
                ):
                    failures.append(f"base round trip failed {at}")
            seam = _P0_IN_NEWTON if w == 2 else 1
            p_prev, p = p, x1 * p - x2 * p_prev * seam
            h_prev, h = h, x1 * h - x2 * h_prev
            P_prev, P = P, P * X1 - _x2(P_prev).scaled(seam)
            H_prev, H = H, H * X1 - _x2(H_prev)
        # independent solver route plus uniqueness, within a margin that
        # keeps every needed coordinate monomial inside the window; index 2
        # of the right basis is the corner unit, so the left module's span
        # is the ideal's row-(2,0) blocks, cells (2, m).  One pair per class
        # (column parity, width) is solved and compared with its
        # decompose_left: the pairs of a class are one base pair moved
        # (above), and the family and the block rows are
        # translation-equivariant by construction; the controls of
        # _translate_shift and the member move test that.
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
        # per class (column parity, width), its pair with the smallest i
        reps = [
            AlgebraElement.basis(pair(i, i + w))
            for i in (-bound + 1, -bound)
            for w in range(bound - i + 1)
        ]
        for rep, solved in zip(reps, blocks.coordinates(reps)):
            coords = decompose_left(rep).coords
            expected = {
                (2, m, a, b): c
                for m, poly in enumerate(coords)
                for (a, b), c in poly.terms.items()
            }
            if solved is None:
                failures.append("solver cross-check status inconsistent")
            elif solved != expected:
                failures.append("solver and closed-form coordinates disagree")
        solver_checked = (2 * bound + 1) * (bound + 1)
        return (
            f"{(window + 1) * (2 * window + 1)} round trips, "
            f"{solver_checked} solver cross-checks, "
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
