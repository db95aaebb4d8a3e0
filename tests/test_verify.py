import json
from pathlib import Path

import pytest

from affschur import cellular, multiplication, verify_cell_chain
from affschur import verify as verify_module
from affschur.cellular import (
    SIGNATURE_BLOCKS,
    WEIGHT_11,
    WEIGHT_20,
    WindowBlocks,
    omega_candidates,
)
from affschur.core import AlgebraElement
from affschur.linalg import Factorization
from affschur.multiplication import StructureTable

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


def test_freeness_batches_keep_the_report(monkeypatch):
    """The freeness cross-check solves its 190 pairs at window 12 in
    batches of at most ``_FREENESS_BATCH``; the batch size changes
    neither a verdict nor a detail string."""
    whole = verify_cell_chain(window=12, seed=0, samples=5)
    sizes = []
    solve = Factorization.solve

    def recording(self, rhs_list):
        sizes.append(len(rhs_list))
        return solve(self, rhs_list)

    monkeypatch.setattr(verify_module, "_FREENESS_BATCH", 10)
    monkeypatch.setattr(Factorization, "solve", recording)
    batched = verify_cell_chain(window=12, seed=0, samples=5)
    assert [(c.name, c.status, c.detail) for c in batched.checks] == [
        (c.name, c.status, c.detail) for c in whole.checks
    ]
    assert "190 solver cross-checks" in batched.checks[2].detail
    assert max(sizes) <= 10


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


@pytest.fixture
def fresh_caches(monkeypatch):
    """Products and omega elements made under a broken premise would stay
    cached for later tests, so a control runs on empty caches of its own."""
    monkeypatch.setattr(cellular, "_OMEGA_CACHE", {})
    monkeypatch.setattr(multiplication, "structure_table", StructureTable())


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
        its product at the filling offset k0 moved by s + t - k0 periods."""
        product = StructureTable.product

        def one_period_too_far(table, a, b):
            got = product(table, a, b)
            if a.col_vector() != b.row_vector():
                return got
            (shape_a, s), (shape_b, t) = a.translation_class(), b.translation_class()
            k0, _ = table._classes[(a.n, shape_a, shape_b)]
            return got if s + t == k0 else got.translated(1)

        monkeypatch.setattr(StructureTable, "product", one_period_too_far)
        self.failing_run()

    def test_translated_moves_by_whole_periods(self, monkeypatch, fresh_caches):
        """Premise: ``translated(k)`` is the central x2^k for every k.  The
        freeness round trips move base pairs by k periods, and the
        transpose check's target cells are filled by one move from b = 0;
        both rest on it.  The transpose check's certificate then fails to
        contract back, an error raised after its stem comparisons have
        failed: its detail keeps those failures and ends with the error."""
        translated = AlgebraElement.translated

        def off_far_out(element, periods):
            return translated(element, periods + 1 if abs(periods) >= 4 else periods)

        monkeypatch.setattr(AlgebraElement, "translated", off_far_out)
        checks = self.failing_run()
        assert checks["module-basis-freeness"].status == "fail"
        transpose = checks["transpose-ideal-stability"]
        assert transpose.status == "fail"
        *stems, last = transpose.detail.split("; ")
        assert last == "solved tensor fails to reproduce its element"
        assert stems and all(f.startswith("transpose of cell (") for f in stems)

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
        monkeypatch.setattr(
            verify_module,
            "_moved_round_trips",
            lambda trips, k: (trips[0].translated(k), trips[1].translated(k)),
        )
        assert self.failing_run()["module-basis-freeness"].status == "fail"


def _tangled(placements):
    """The first and the last column replaced by their sum and their
    difference, which must have disjoint rows."""
    first, last = (
        {base + shift: value for base, value in stem}
        for stem, shift in (placements[0], placements[-1])
    )
    assert not first.keys() & last.keys()
    total = [*first.items(), *last.items()]
    difference = [*first.items(), *((rid, -value) for rid, value in last.items())]
    return [(total, 0), *placements[1:-1], (difference, 0)]


class TestUndecidedBlock:
    @pytest.mark.parametrize(
        "signature, module",
        [((WEIGHT_11, WEIGHT_11), False), ((WEIGHT_20, WEIGHT_20), True)],
        ids=["(1,1)/(1,1)", "module block (2,0)/(2,0)"],
    )
    def test_block_that_does_not_peel_whole_is_undecided(
        self, monkeypatch, signature, module
    ):
        """One block tangled: its first and last columns, which meet
        disjoint rows, replaced by their sum and their difference.  That
        is an invertible column operation, so the block keeps full column
        rank, but every row meeting either new column meets both, so
        neither ever peels, and the peeling's bound cannot prove the
        block deficient.  Independence is then undecided, and so is the
        run: never a pass, never a failure.  A module block leaves the
        freeness check's coordinate rank undecided too."""
        stem_system = cellular.stem_system

        def tangled(window, pairs):
            cols, shape_rows, nrows, placements = stem_system(window, pairs)
            if pairs is SIGNATURE_BLOCKS[signature]:
                placements = _tangled(placements)
            return cols, shape_rows, nrows, placements

        whole = WindowBlocks(12).factorization(signature)
        assert whole.rank == len(whole.cols)
        monkeypatch.setattr(cellular, "stem_system", tangled)
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
