import gc
import json
from pathlib import Path

import pytest

from affschur import (
    LaurentPoly1,
    cellular,
    core,
    hecke,
    multiplication,
    verify_cell_chain,
)
from affschur import verify as verify_module
from affschur.cellular import (
    SIGNATURE_BLOCKS,
    WEIGHT_11,
    WEIGHT_20,
    WindowBlocks,
    omega_candidates,
)
from affschur.linalg import Factorization
from affschur.multiplication import StructureTable
from affschur.weyl import matrix_to_pair

from conftest import tangle_block

GOLDEN_REPORT = Path(__file__).with_name("golden_verify_cell_w12_s0_n100.json")

CHECK_NAMES = [
    "ideal-generator-certificates",
    "transpose-ideal-stability",
    "module-basis-freeness",
    "coordinate-independence",
    "swap-diagram",
    "quotient-homomorphism",
    "vector-space-decomposition",
]


class TestVerifyPasses:
    def test_small_run_passes(self):
        report = verify_cell_chain(window=6, seed=1, samples=15)
        assert report.passed
        assert report.exit_code() == 0
        assert [c.name for c in report.checks] == CHECK_NAMES

    def test_deterministic_verdicts(self):
        a = verify_cell_chain(window=5, seed=7, samples=10)
        b = verify_cell_chain(window=5, seed=7, samples=10)
        assert [(c.name, c.status, c.detail) for c in a.checks] == [
            (c.name, c.status, c.detail) for c in b.checks
        ]


def test_each_block_factored_once_per_run(monkeypatch):
    """A run eliminates each nonempty signature block once, for all its
    checks; the freeness check's module system is the row-(2,0) blocks,
    not a system of its own."""
    factored = []
    init = Factorization.__init__

    def recording(self, cols, nrows, placements):
        factored.append(tuple(cols))
        init(self, cols, nrows, placements)

    monkeypatch.setattr(Factorization, "__init__", recording)
    assert verify_cell_chain(window=12, seed=0, samples=20).passed
    blocks = [
        tuple(label for label, _ in omega_candidates(12, pairs))
        for pairs in SIGNATURE_BLOCKS.values()
    ]
    assert sorted(factored) == sorted(cols for cols in blocks if cols)


def test_freeness_solves_one_pair_per_class(monkeypatch):
    """The freeness cross-check solves one pair per class (column parity,
    width) of its margin, 85 at window 24, and still compares all 946
    pairs with a solution."""
    solved = []
    coordinates = WindowBlocks.coordinates

    def recording(self, elements):
        solved.append(len(elements))
        return coordinates(self, elements)

    monkeypatch.setattr(WindowBlocks, "coordinates", recording)
    report = verify_cell_chain(window=24, seed=0, samples=0)
    assert report.passed
    assert "946 solver cross-checks" in report.checks[2].detail
    # the generator certificates solve 4 elements, the re-solves 8 and
    # the decomposition check, at no samples, none
    assert solved == [4, 8, 85, 0]


class TestNegativeControls:
    def test_identity_transpose_breaks_diagram(self):
        report = verify_cell_chain(
            window=6, seed=1, samples=10, transpose_fn=lambda x: x
        )
        by_name = {c.name: c.status for c in report.checks}
        assert by_name["swap-diagram"] == "fail"
        assert report.exit_code() == 1

    def test_identity_involution_breaks_diagram(self):
        report = verify_cell_chain(
            window=6, seed=1, samples=10, involution_fn=lambda p: p
        )
        by_name = {c.name: c.status for c in report.checks}
        assert by_name["swap-diagram"] == "fail"
        assert report.exit_code() == 1


class TestCollectorPause:
    """The battery runs with the cyclic collector paused.  That is sound
    only because a run leaves no cyclic garbage, and the collector's
    state must be put back however the run ends."""

    def test_run_leaves_no_cyclic_garbage(self):
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert verify_cell_chain(window=12, seed=0, samples=100).passed
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_put_back(self, enabled):
        was = gc.isenabled()
        seen = []

        def recording(x):
            seen.append(gc.isenabled())
            return x.transpose()

        def broken(x):
            raise RuntimeError("escapes the check")

        (gc.enable if enabled else gc.disable)()
        try:
            assert verify_cell_chain(6, 1, 10, transpose_fn=recording).passed
            assert gc.isenabled() is enabled
            assert seen and not any(seen)
            assert verify_cell_chain(6, 1, 10, transpose_fn=lambda x: x).failed
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="escapes the check"):
                verify_cell_chain(6, 1, 10, transpose_fn=broken)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Products, stems, omega elements, module coordinates and the class
    and transpose maps made under a broken premise would stay cached for
    later tests, so a control runs on empty caches of its own."""
    monkeypatch.setattr(cellular, "_OMEGA_CACHE", {})
    monkeypatch.setattr(cellular, "_STEMS", {})
    monkeypatch.setattr(cellular, "_BASE_COORDS", {})
    monkeypatch.setattr(multiplication, "structure_table", StructureTable())
    monkeypatch.setattr(core, "_CLASSES", {})
    monkeypatch.setattr(core, "_SHAPE_TRANSPOSES", {})


def _phi_sign_flipped(monkeypatch):
    monomial = hecke._corner_monomial

    def flipped(j1, j2):
        a, sign = monomial(j1, j2)
        return a, -sign

    monkeypatch.setattr(hecke, "_corner_monomial", flipped)


def _phi_exponent_off_by_one(monkeypatch):
    monomial = hecke._corner_monomial

    def raised(j1, j2):
        a, sign = monomial(j1, j2)
        return a + 1, sign

    monkeypatch.setattr(hecke, "_corner_monomial", raised)


def _lift_exponent_off_by_one(monkeypatch):
    lift = hecke.laurent_lift
    monkeypatch.setattr(verify_module, "laurent_lift", lambda p: lift(p * LaurentPoly1.x()))


def _phi_keeps_weight_20(monkeypatch):
    """phi also reads the terms of row and column weight (2,0), through
    their tuple pairs, as it reads a corner matrix."""
    quotient = hecke.quotient_image

    def keeping(x):
        kept = {}
        for matrix, coeff in x.terms.items():
            if matrix.row_vector() == WEIGHT_20 == matrix.col_vector():
                a, sign = hecke._corner_monomial(*matrix_to_pair(matrix)[1])
                kept[a] = kept.get(a, 0) + sign * coeff
        return quotient(x) + LaurentPoly1(kept)

    monkeypatch.setattr(verify_module, "quotient_image", keeping)


def _left_shift_off_by_one(monkeypatch):
    pair_coords = cellular._pair_coords

    def moved(i, j):
        base, s = pair_coords(i, j)
        return base, s + 1

    monkeypatch.setattr(cellular, "_pair_coords", moved)


# (mutation, check that must fail): each breaks one premise of the
# closed-form corner maps of the hecke module and of decompose_left
CORNER_MAP_MUTATIONS = [
    pytest.param(_phi_sign_flipped, "quotient-homomorphism", id="phi-sign-parity"),
    pytest.param(
        _phi_exponent_off_by_one, "quotient-homomorphism", id="phi-exponent"
    ),
    pytest.param(
        _lift_exponent_off_by_one, "quotient-homomorphism", id="lift-exponent"
    ),
    pytest.param(_phi_keeps_weight_20, "quotient-homomorphism", id="phi-keeps-(2,0)"),
    pytest.param(
        _left_shift_off_by_one, "module-basis-freeness", id="decompose-left-shift"
    ),
]


def _waring_sign_flipped(monkeypatch):
    power_sum = cellular._power_sum

    def flipped(n):
        p = power_sum(n)
        return p._like({(a, b): -c if b == 1 else c for (a, b), c in p.terms.items()})

    monkeypatch.setattr(cellular, "_power_sum", flipped)


def _complete_sum_index_raised(monkeypatch):
    complete_sum = cellular._complete_sum
    monkeypatch.setattr(cellular, "_complete_sum", lambda n: complete_sum(n + 1))


def _x2_exponent_raised(monkeypatch):
    """Both closed forms carry x2 once too often from n = 4 on."""
    for name in ("_power_sum", "_complete_sum"):
        closed_form = getattr(cellular, name)

        def raised(n, closed_form=closed_form):
            p = closed_form(n)
            if n < 4:
                return p
            return p._like({(a, b + 1): c for (a, b), c in p.terms.items()})

        monkeypatch.setattr(cellular, name, raised)


def _width_zero_is_p0(monkeypatch):
    """The pairs {1, 1} and {2, 2} read p_0 = 2, not 1."""
    base_coords = cellular._base_coords

    def doubled(column, width):
        coords = base_coords(column, width)
        return tuple(2 * p for p in coords) if width == 0 else coords

    monkeypatch.setattr(cellular, "_base_coords", doubled)


# (mutation, check that must fail): each breaks one premise of the closed
# forms for the module coordinates
CLOSED_FORM_MUTATIONS = [
    pytest.param(
        _waring_sign_flipped, "module-basis-freeness", id="waring-sign-k1"
    ),
    pytest.param(
        _complete_sum_index_raised, "module-basis-freeness", id="h-index-raised"
    ),
    pytest.param(
        _x2_exponent_raised, "module-basis-freeness", id="x2-exponent-from-n4"
    ),
    pytest.param(_width_zero_is_p0, "module-basis-freeness", id="width-zero-p0"),
]


def _class_index_off_far_out(monkeypatch):
    of_class = core._of_class

    def off(n, shape, k):
        return of_class(n, shape, k + 1 if abs(k) >= 4 else k)

    monkeypatch.setattr(core, "_of_class", off)


def _shape_transpose_moved_up(monkeypatch):
    """The class rule moves the transpose of (shape, k) by +k periods, in
    ``PeriodicMatrix.transpose`` and in check 2 alike."""
    transposed_class = core._transposed_class

    def moved_up(n, shape, k):
        t_shape, t_k = transposed_class(n, shape, 0)
        return t_shape, t_k + k

    monkeypatch.setattr(core, "_transposed_class", moved_up)
    monkeypatch.setattr(verify_module, "_transposed_class", moved_up)


def _solution_moved_off_far_out(monkeypatch):
    moved = verify_module._moved_solution

    def off(solved, d):
        return moved(solved, d + 1 if abs(d) >= 4 else d)

    monkeypatch.setattr(verify_module, "_moved_solution", off)


def _round_trip_shift_sign_flipped(monkeypatch):
    moved = verify_module._moved_round_trips
    monkeypatch.setattr(
        verify_module, "_moved_round_trips", lambda trips, k: moved(trips, -k)
    )


# (mutation, check that must fail): each breaks one premise of the moves
# and transposes by translation class and of check 3's class comparison
CLASS_MUTATIONS = [
    pytest.param(
        _class_index_off_far_out, "module-basis-freeness", id="class-index-off"
    ),
    pytest.param(
        _shape_transpose_moved_up,
        "transpose-ideal-stability",
        id="transpose-moved-up",
    ),
    pytest.param(
        _round_trip_shift_sign_flipped,
        "module-basis-freeness",
        id="round-trip-shift-sign",
    ),
    pytest.param(
        _solution_moved_off_far_out,
        "module-basis-freeness",
        id="solution-move-off",
    ),
]


def _x1_power_raised(monkeypatch):
    """The corner monomial x1^a is read as x1^(a+1) from a = 4 on, and
    every stem built from it inherits that."""
    stem_classes = cellular._stem_classes

    def raised(l, m, a):
        return stem_classes(l, m, a + 1 if (l, m) == (2, 2) and a >= 4 else a)

    monkeypatch.setattr(cellular, "_stem_classes", raised)


def _involution_sign_flipped(monkeypatch):
    """x1^a x2^b goes to x1^a x2^(-a+b), not x1^a x2^(-a-b)."""

    def flipped(p):
        return p._like({(a, -a + b): c for (a, b), c in p.terms.items()})

    monkeypatch.setattr(cellular, "corner_involution", flipped)
    monkeypatch.setattr(verify_module, "corner_involution", flipped)


def _stems_dropped(drop):
    """A mutation that drops translates from the window's spanning set:
    ``drop`` rewrites the (a, b_lo, b_hi) list of each cell's stems."""

    def mutate(monkeypatch):
        cell_stems = cellular._cell_stems
        monkeypatch.setattr(
            cellular, "_cell_stems", lambda l, m, window: drop(cell_stems(l, m, window))
        )

    return mutate


def _top_b_dropped(stems):
    return [(a, lo, hi - 1) for a, lo, hi in stems if lo < hi]


def _top_a_dropped(stems):
    return stems[:-1]


def _one_top_b_dropped(stems):
    return _top_b_dropped(stems[:1]) + stems[1:]


# (mutation, checks that must fail): each breaks one premise of the
# spanning family or of the corner involution; the dropped-translate rows
# that no check catches yet are strict xfails
FAMILY_MUTATIONS = [
    pytest.param(
        _x1_power_raised,
        ("transpose-ideal-stability", "module-basis-freeness"),
        id="x1-power-from-a4",
    ),
    pytest.param(
        _involution_sign_flipped,
        ("module-basis-freeness", "swap-diagram"),
        id="involution-sign",
    ),
    # caught only by the 8-sample random re-solve of the transpose check,
    # never by a certificate
    pytest.param(
        _stems_dropped(_top_b_dropped),
        ("transpose-ideal-stability",),
        id="top-b-of-every-stem",
    ),
    pytest.param(
        _stems_dropped(_top_a_dropped),
        (),
        id="top-a-of-every-cell",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"),
    ),
    pytest.param(
        _stems_dropped(_one_top_b_dropped),
        (),
        id="top-b-of-one-stem-per-cell",
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"),
    ),
]


class TestShortcutControls:
    """Each shortcut rests on a premise; breaking the premise must make the
    battery fail, in a returned report rather than an exception."""

    @staticmethod
    def failing_run():
        report = verify_cell_chain(window=12, seed=0, samples=20)
        assert report.exit_code() == 1
        assert any(c.status == "fail" and c.detail for c in report.checks)
        return {c.name: c for c in report.checks}

    def test_structure_table_moves_a_class_by_its_offset(
        self, monkeypatch, fresh_caches
    ):
        """Premise: the product of a translation class at offset s + t is
        its product at the filling offset k0 moved by s + t - k0 periods,
        which ``multiply_classes`` applies to the k of each stored term.
        The stems are built in class space, so every stem filled from a
        product read at another offset comes out one period off: the
        transpose check's stem comparison and the freeness round trips
        fail."""
        product_classes = multiplication.multiply_classes

        def one_period_too_far(n, xs, ys):
            acc = {}
            for x in xs:
                for y in ys:
                    got = product_classes(n, [x], [y])
                    found = multiplication.structure_table._classes.get((n, x[0], y[0]))
                    shift = 1 if found and found[0] != x[1] + y[1] else 0
                    for (shape, k), value in got.items():
                        acc[(shape, k + shift)] = acc.get((shape, k + shift), 0) + value
            return {key: value for key, value in acc.items() if value}

        monkeypatch.setattr(cellular, "multiply_classes", one_period_too_far)
        checks = self.failing_run()
        assert checks["transpose-ideal-stability"].status == "fail"
        assert checks["module-basis-freeness"].status == "fail"

    def test_translated_moves_by_whole_periods(self, monkeypatch, fresh_caches):
        """Premise: the member (l, m, a, b) that ``omega_element`` builds is
        its stem moved by b periods, for every b.  The blocks, the
        certificates and the stem comparisons read stems only, so the one
        route that builds members is the transpose check's re-solve: a
        member built one period too far out transposes to the neighbour of
        the predicted member, and its solve says so."""
        omega = cellular.omega_element

        def off_far_out(l, m, a, b):
            return omega(l, m, a, b + 1 if abs(b) >= 4 else b)

        monkeypatch.setattr(cellular, "omega_element", off_far_out)
        monkeypatch.setattr(verify_module, "omega_element", off_far_out)
        checks = self.failing_run()
        transpose = checks["transpose-ideal-stability"]
        assert transpose.status == "fail"
        assert all(
            " solved as " in finding for finding in transpose.detail.split("; ")
        )
        failed = {name for name, check in checks.items() if check.status == "fail"}
        assert failed == {"transpose-ideal-stability"}

    def test_block_row_of_a_translate_is_its_stem_row_moved(
        self, monkeypatch, fresh_caches
    ):
        """Premise: the stem term of class (shape, k) lies in translate b
        at class (shape, k + b), so a block system needs no translate."""
        shift = cellular._translate_shift

        def off_far_out(b):
            return shift(b + 1 if abs(b) >= 4 else b)

        monkeypatch.setattr(cellular, "_translate_shift", off_far_out)
        assert self.failing_run()["coordinate-independence"].status == "fail"

    def test_right_round_trip_steps_down(self, monkeypatch, fresh_caches):
        """Premise: transposing turns columns moved up into columns moved
        down, so the right round trip of the pair k periods from its base
        pair is the base one moved by -k periods."""
        moved = verify_module._moved_round_trips
        monkeypatch.setattr(
            verify_module,
            "_moved_round_trips",
            lambda trips, k: (moved(trips, k)[0], moved(trips, -k)[1]),
        )
        assert self.failing_run()["module-basis-freeness"].status == "fail"

    @pytest.mark.parametrize("mutate, check", CLASS_MUTATIONS)
    def test_class_premise(self, monkeypatch, fresh_caches, mutate, check):
        """Premises: the class index holds the shape moved by k periods
        at (shape, k); the transpose of (shape, k) is the shape's
        transpose moved by -k periods; a pair k periods from its base pair
        has the base round trips' classes moved by k and -k, and the
        solution of its class's representative moved by k."""
        mutate(monkeypatch)
        assert self.failing_run()[check].status == "fail"

    @pytest.mark.parametrize("mutate, checks", FAMILY_MUTATIONS)
    def test_family_premise(self, monkeypatch, fresh_caches, mutate, checks):
        """Premises: the corner monomial x1^a is the a-th power of x1; the
        involution sends x1^a x2^b to x1^a x2^(-a-b); the window's
        spanning set holds every member that fits."""
        mutate(monkeypatch)
        failed = self.failing_run()
        assert all(failed[check].status == "fail" for check in checks)

    @pytest.mark.parametrize("mutate, check", CORNER_MAP_MUTATIONS)
    def test_corner_map_premise(self, monkeypatch, fresh_caches, mutate, check):
        """Premises: a corner matrix storing (1, j1, 1) and (2, j2, 1) maps
        to sign(sigma) (-1)^a x^a with a = (j1 + j2 - 3)/2; x^a lifts to the
        matrix storing (1, 1 + a, 1) and (2, 2 + a, 1); phi keeps only the
        weight-(1,1) terms; a pair moved by s periods has its base pair's
        coordinates times x2^s."""
        mutate(monkeypatch)
        assert self.failing_run()[check].status == "fail"

    @pytest.mark.parametrize("mutate, check", CLOSED_FORM_MUTATIONS)
    def test_closed_form_premise(self, monkeypatch, fresh_caches, mutate, check):
        """Premises: the pairs {1, 1+2n} and {2, 2+2n} are p_n, by Waring's
        formula, times the basis elements {1, 1} and {2, 2}, which are
        themselves the pairs of width 0; the odd widths are h_n and
        h_(n-1) with their signs and x2 powers."""
        mutate(monkeypatch)
        assert self.failing_run()[check].status == "fail"


class TestUndecidedBlock:
    @pytest.mark.parametrize(
        "signature, module",
        [((WEIGHT_11, WEIGHT_11), False), ((WEIGHT_20, WEIGHT_20), True)],
        ids=["(1,1)/(1,1)", "module block (2,0)/(2,0)"],
    )
    def test_block_that_does_not_peel_whole_is_undecided(
        self, monkeypatch, signature, module
    ):
        """One block tangled (``tangle_block``): it keeps full column
        rank, but peeling leaves its rank undecided.  Independence is then
        undecided, and so is the run: never a pass, never a failure.  A
        module block leaves the freeness check's coordinate rank undecided
        too."""
        whole = WindowBlocks(12).factorization(signature)
        assert whole.rank == len(whole.cols)
        tangle_block(monkeypatch, signature)
        block = WindowBlocks(12).factorization(signature)
        assert block.rank is None and block.max_rank == len(block.cols)
        report = verify_cell_chain(window=12, seed=0, samples=20)
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["coordinate-independence"] == "undecided"
        if module:
            assert statuses["module-basis-freeness"] == "undecided"
        assert "fail" not in statuses.values()
        assert not report.passed and not report.failed
        assert report.exit_code() == 3


class TestWindowStarvation:
    def test_window_one_is_undecided_not_a_pass(self):
        report = verify_cell_chain(window=1, seed=0, samples=10)
        assert not report.passed
        assert not report.failed
        assert report.undecided
        assert report.exit_code() == 3
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["ideal-generator-certificates"] == "undecided"


class TestReportSchema:
    def test_json_shape(self):
        report = verify_cell_chain(window=4, seed=0, samples=5)
        data = report.to_json()
        assert set(data) == {"pass", "checks", "params"}
        assert isinstance(data["pass"], bool)
        for check in data["checks"]:
            assert {"name", "pass", "status", "detail", "millis"} <= set(check)
        assert data["params"]["window"] == 4
        assert data["params"]["seed"] == 0
        assert data["params"]["samples"] == 5
        json.dumps(data)  # serializable

    def test_report_matches_golden(self):
        """The window-12 report, timing fields aside, is byte-for-byte the
        one recorded in the golden file."""
        data = verify_cell_chain(window=12, seed=0, samples=100).to_json()
        for check in data["checks"]:
            del check["millis"]
        del data["params"]["total_millis"]
        expected = GOLDEN_REPORT.read_text(encoding="utf-8")
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == expected

    def test_render_text_mentions_every_check(self):
        report = verify_cell_chain(window=4, seed=0, samples=5)
        text = report.render_text()
        for name in CHECK_NAMES:
            assert name in text
