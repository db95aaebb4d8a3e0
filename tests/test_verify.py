import json
from pathlib import Path

from affschur import verify_cell_chain
from affschur.cellular import SIGNATURE_BLOCKS, omega_candidates
from affschur.linalg import Factorization

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

    def recording(self, cols, rows, entries):
        factored.append(tuple(cols))
        init(self, cols, rows, entries)

    monkeypatch.setattr(Factorization, "__init__", recording)
    assert verify_cell_chain(window=12, seed=0, samples=20).passed
    blocks = [
        tuple(label for label, _ in omega_candidates(12, pairs))
        for pairs in SIGNATURE_BLOCKS.values()
    ]
    assert sorted(factored) == sorted(cols for cols in blocks if cols)


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
