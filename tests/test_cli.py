import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affschur
from affschur import cellular
from affschur import cli as cli_module
from affschur.cellular import WEIGHT_20
from affschur.cli import run

from conftest import tangle_block


def invoke(capsys, args, stdin=None, monkeypatch=None, tmp_path=None):
    """Run the CLI via a temp file for stdin-style input."""
    if stdin is not None:
        path = tmp_path / "input.json"
        path.write_text(stdin)
        args = args + ["--file", str(path)]
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ELT_2E21 = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[2, 1, 2]]}]}
ELT_2E12 = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 2, 2]]}]}
ELT_EMU = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[2, 2, 2]]}]}
ELT_LAM = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 2]]}]}
ELT_ENU = {
    "n": 2,
    "r": 2,
    "terms": [{"coeff": "1", "entries": [[1, 1, 1], [2, 2, 1]]}],
}
ELT_ROTATION = {
    "n": 2,
    "r": 2,
    "terms": [{"coeff": "1", "entries": [[1, 2, 1], [2, 3, 1]]}],
}


class TestMult:
    def test_golden_product(self, capsys, tmp_path):
        payload = json.dumps({"a": ELT_2E21, "b": ELT_2E12})
        code, out, _ = invoke(capsys, ["mult"], payload, tmp_path=tmp_path)
        assert code == 0
        assert json.loads(out) == ELT_EMU

    def test_deterministic_bytes(self, capsys, tmp_path):
        payload = json.dumps({"a": ELT_2E21, "b": ELT_2E12})
        _, out1, _ = invoke(capsys, ["mult"], payload, tmp_path=tmp_path)
        _, out2, _ = invoke(capsys, ["mult"], payload, tmp_path=tmp_path)
        assert out1 == out2

    def test_missing_operand(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, ["mult"], json.dumps({"a": ELT_2E21}), tmp_path=tmp_path
        )
        assert code == 2
        assert "error" in err


class TestCanon:
    def test_normalizes_and_round_trips(self, capsys, tmp_path):
        sloppy = {
            "n": 2,
            "r": 2,
            "terms": [
                {"coeff": "1/2", "entries": [[3, 2, 1], [2, 1, 1]]},
                {"coeff": "1/2", "entries": [[1, 0, 1], [2, 1, 1]]},
            ],
        }
        code, out, _ = invoke(capsys, ["canon"], json.dumps(sloppy), tmp_path=tmp_path)
        assert code == 0
        canonical = json.loads(out)
        assert canonical == {
            "n": 2,
            "r": 2,
            "terms": [{"coeff": "1", "entries": [[1, 0, 1], [2, 1, 1]]}],
        }
        code, out2, _ = invoke(
            capsys, ["canon"], json.dumps(canonical), tmp_path=tmp_path
        )
        assert json.loads(out2) == canonical

    def test_invalid_json(self, capsys, tmp_path):
        code, _, err = invoke(capsys, ["canon"], "not json", tmp_path=tmp_path)
        assert code == 2


def _with(base, **changes):
    return {**base, **changes}


@pytest.mark.parametrize(
    "command, payload",
    [
        (["canon"], _with(ELT_LAM, n=2.9)),
        (["canon"], _with(ELT_LAM, n=True)),
        (["canon"], _with(ELT_LAM, n="2")),
        (["canon"], _with(ELT_LAM, r=2.0)),
        (["canon"], _with(ELT_LAM, n=0)),
        (
            ["canon"],
            _with(ELT_LAM, terms=[{"coeff": "1", "entries": [[1, 1, True], [1, 2, 1]]}]),
        ),
        (["hecke-embed"], [{"coeff": "1", "sigma": [2, True], "eps": [0, 1]}]),
        (["hecke-embed"], [{"coeff": "1", "sigma": [2, 1], "eps": [0, True]}]),
    ],
    ids=[
        "n-float", "n-true", "n-string", "r-float", "n-zero", "entry-true",
        "sigma-true", "eps-true",
    ],
)
def test_non_integer_numbers_are_invalid_input(capsys, tmp_path, command, payload):
    """n, r, matrix entries, sigma and eps must be JSON integers: a float,
    a boolean or a string is not read as one, and a period of 0 is
    rejected rather than divided by."""
    code, out, err = invoke(capsys, command, json.dumps(payload), tmp_path=tmp_path)
    assert code == 2
    assert out == ""
    assert "error" in err


class TestGrade:
    def test_homogeneous(self, capsys, tmp_path):
        elt = {
            "n": 2,
            "r": 2,
            "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 2, 1]]}],
        }
        code, out, _ = invoke(capsys, ["grade"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 0
        data = json.loads(out)
        assert data == {"homogeneous": True, "grade": 1, "term_grades": [1]}

    def test_mixed_triangularity_rejected(self, capsys, tmp_path):
        elt = {
            "n": 2,
            "r": 2,
            "terms": [{"coeff": "1", "entries": [[1, 2, 1], [2, 1, 1]]}],
        }
        code, _, err = invoke(capsys, ["grade"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 2


class TestDecompose:
    def test_left(self, capsys, tmp_path):
        elt = {
            "n": 2,
            "r": 2,
            "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 3, 1]]}],
        }
        code, out, _ = invoke(
            capsys, ["decompose", "--side", "left"], json.dumps(elt), tmp_path=tmp_path
        )
        assert code == 0
        data = json.loads(out)
        assert data["side"] == "left"
        assert data["coords"][2] == {"poly": {"1,0": "1"}}
        assert len(data["basis"]) == 4

    def test_right(self, capsys, tmp_path):
        elt = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[2, 1, 2]]}]}
        code, out, _ = invoke(
            capsys,
            ["decompose", "--side", "right"],
            json.dumps(elt),
            tmp_path=tmp_path,
        )
        assert code == 0
        assert json.loads(out)["coords"][3] == {"poly": {"0,0": "1"}}

    def test_wrong_row_weight(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys,
            ["decompose", "--side", "left"],
            json.dumps(ELT_ENU),
            tmp_path=tmp_path,
        )
        assert code == 2


@pytest.mark.parametrize(
    "command, opener", [(["canon"], "["), (["member"], '{"a":')], ids=["array", "object"]
)
def test_deeply_nested_json_is_invalid_input(capsys, tmp_path, command, opener):
    """The JSON decoder recurses once per level of nesting: input nested
    200,000 deep is invalid input, exit 2 with one error line, not a
    traceback with the exit code of a verification failure."""
    code, out, err = invoke(capsys, command, opener * 200_000, tmp_path=tmp_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_decompose_wide_pair_needs_no_recursion(tmp_path):
    """The module coordinates are closed forms: a pair 400 columns wide
    decomposes under a recursion limit of 120, in bounded time."""
    elt = {
        "n": 2,
        "r": 2,
        "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 401, 1]]}],
    }
    path = tmp_path / "input.json"
    path.write_text(json.dumps(elt))
    src = str(Path(affschur.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "from affschur.cli import run\n"
        "sys.setrecursionlimit(120)\n"
        f"sys.exit(run(['decompose', '--side', 'left', '--file', {str(path)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    expected = affschur.decompose_left(affschur.element_from_json(elt))
    assert json.loads(proc.stdout)["coords"] == expected.to_json()["coords"]


class TestPsiAndQuotient:
    def test_psi(self, capsys, tmp_path):
        elt = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[3, 1, 2]]}]}
        code, out, _ = invoke(capsys, ["psi"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 0
        assert json.loads(out) == {"poly": {"0,-1": "1"}}

    def test_psi_beyond_cap_exit_three(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFSCHUR_MAX_WINDOW", "8")
        # a corner element whose support needs window 9
        elt = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 1], [1, 9, 1]]}]}
        code, out, err = invoke(capsys, ["psi"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 3
        assert out == ""
        assert err == "undecided: no polynomial preimage within window 8\n"

    def test_quotient_of_rotation(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, ["quotient"], json.dumps(ELT_ROTATION), tmp_path=tmp_path
        )
        assert code == 0
        assert json.loads(out) == {"poly": {"1": "1"}}

    def test_quotient_kills_idempotent(self, capsys, tmp_path):
        elt = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 1, 2]]}]}
        code, out, _ = invoke(capsys, ["quotient"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 0
        assert json.loads(out) == {"poly": {}}

    @pytest.mark.parametrize(
        "elt",
        [
            {"n": 3, "r": 3, "terms": [{"coeff": "1", "entries": [[1, 1, 1], [2, 2, 1], [3, 3, 1]]}]},
            {"n": 2, "r": 3, "terms": [{"coeff": "1", "entries": [[1, 1, 2], [2, 2, 1]]}]},
        ],
        ids=["S(3,3)", "S(2,3)"],
    )
    def test_quotient_refuses_other_algebras(self, capsys, tmp_path, elt):
        """phi is defined on S(2, 2) only; an element of another algebra is
        invalid input, not an element that phi sends to 0."""
        code, out, err = invoke(capsys, ["quotient"], json.dumps(elt), tmp_path=tmp_path)
        assert code == 2
        assert out == ""
        assert err == "error: elements live in different algebras\n"


class TestHeckeEmbed:
    def test_rotation_generator(self, capsys, tmp_path):
        hecke = [{"coeff": "1", "sigma": [2, 1], "eps": [0, 1]}]
        code, out, _ = invoke(
            capsys, ["hecke-embed"], json.dumps(hecke), tmp_path=tmp_path
        )
        assert code == 0
        assert json.loads(out) == ELT_ROTATION


class TestMember:
    def test_member_exit_zero(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, ["member"], json.dumps(ELT_EMU), tmp_path=tmp_path
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "member"
        assert "tensor" in data

    def test_non_member_exit_one(self, capsys, tmp_path, monkeypatch):
        # non-members walk the window ladder up to the cap; keep it small
        monkeypatch.setenv("AFFSCHUR_MAX_WINDOW", "8")
        code, out, _ = invoke(
            capsys, ["member"], json.dumps(ELT_ENU), tmp_path=tmp_path
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "not-member-within-window"

    def test_starved_window_exit_three(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFSCHUR_MAX_WINDOW", "1")
        code, out, _ = invoke(
            capsys,
            ["member", "--window", "1"],
            json.dumps(ELT_EMU),
            tmp_path=tmp_path,
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "undecided"

    def test_block_that_does_not_peel_whole_exit_three(
        self, capsys, tmp_path, monkeypatch
    ):
        """A block whose rank peeling leaves undecided ends ``member`` in
        exit 3 with an ``undecided:`` line, as support beyond the cap ends
        ``psi``, not in a traceback."""
        tangle_block(monkeypatch, (WEIGHT_20, WEIGHT_20))
        monkeypatch.setenv("AFFSCHUR_MAX_WINDOW", "12")
        code, out, err = invoke(
            capsys, ["member", "--window", "12"], json.dumps(ELT_LAM), tmp_path=tmp_path
        )
        assert code == 3
        assert out == ""
        assert err == (
            "undecided: window tensor system does not peel whole; "
            "its rank is undecided\n"
        )

    def test_certificate_that_does_not_contract_back_exit_one(
        self, capsys, tmp_path, monkeypatch
    ):
        """A certificate tensor that does not contract back to its element
        is a failure, exit 1 with an ``error:`` line, not a traceback."""
        monkeypatch.setattr(
            cellular, "tensor_to_ideal", lambda tensor: affschur.AlgebraElement.zero(2, 2)
        )
        code, out, err = invoke(capsys, ["member"], json.dumps(ELT_LAM), tmp_path=tmp_path)
        assert code == 1
        assert out == ""
        assert err == "error: solved tensor fails to reproduce its element\n"


@pytest.mark.parametrize(
    "command, window",
    [("member", "0"), ("member", "-3"), ("psi", "0"), ("psi", "-2")],
)
def test_window_below_one_is_invalid_input(tmp_path, command, window):
    """The window ladder cannot grow from below 1: exit 2, in bounded time.
    ``psi`` grows no window and takes no ``--window``, which argparse
    refuses with the same exit code.

    Run in a child process so that a hang fails the test at the timeout.
    """
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ELT_2E21 if command == "member" else ELT_LAM))
    src = str(Path(affschur.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, AFFSCHUR_MAX_WINDOW="24")
    proc = subprocess.run(
        [sys.executable, "-m", "affschur", command, "--window", window,
         "--file", str(path)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    if command == "member":
        assert "window must be positive" in proc.stderr
    else:
        assert "unrecognized arguments: --window" in proc.stderr


@pytest.mark.parametrize("cap", ["6_4", " 24 ", "+24", "٢٤"])
def test_window_cap_must_be_ascii_digits(tmp_path, cap):
    """AFFSCHUR_MAX_WINDOW is read as ASCII digits only, not by int()'s
    wider rules: underscores, spaces, a sign or other scripts' digits are
    invalid input, exit 2."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ELT_EMU))
    src = str(Path(affschur.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, AFFSCHUR_MAX_WINDOW=cap)
    proc = subprocess.run(
        [sys.executable, "-m", "affschur", "member", "--file", str(path)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    assert "AFFSCHUR_MAX_WINDOW must be an integer" in proc.stderr
    assert proc.stdout == ""


class TestVerifyCell:
    def test_small_run(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "verify-cell",
                "--window",
                "4",
                "--seed",
                "0",
                "--samples",
                "5",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["params"]["window"] == 4

    def test_starved_window_exit_three(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["verify-cell", "--window", "1", "--seed", "0", "--samples", "5"],
        )
        assert code == 3

    def test_pretty_output(self, capsys):
        code, out, _ = invoke(
            capsys,
            [
                "verify-cell",
                "--window",
                "4",
                "--seed",
                "0",
                "--samples",
                "5",
                "--pretty",
            ],
        )
        assert code == 0
        assert "overall: PASS" in out


class TestBadUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["canon", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "error, line",
        [
            (RuntimeError("handler broke"), "RuntimeError: handler broke"),
            (IndexError(), "IndexError: "),
        ],
        ids=["runtime", "no-message"],
    )
    def test_internal_error_exit_four(self, capsys, tmp_path, monkeypatch, error, line):
        """An exception that no exit code names is an internal error: exit 4
        with one ``internal error:`` line and no traceback."""

        def broken(args):
            raise error

        monkeypatch.setattr(cli_module, "_cmd_canon", broken)
        code, out, err = invoke(capsys, ["canon"], json.dumps(ELT_LAM), tmp_path=tmp_path)
        assert code == 4
        assert out == ""
        assert err == f"internal error: {line}\n"

    def test_closed_output_pipe_exit_141(self, capsys, tmp_path, monkeypatch):
        """A stdout whose reader went away, so that writing raises
        BrokenPipeError, is neither invalid input nor an internal error:
        exit 141, with nothing on stderr."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        path = tmp_path / "input.json"
        path.write_text(json.dumps(ELT_LAM))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["canon", "--file", str(path)]) == 141
        argv = ["verify-cell", "--window", "4", "--samples", "1", "--pretty"]
        assert run(argv) == 141
        assert capsys.readouterr().err == ""

    def test_closed_output_pipe_in_a_child_process(self):
        """The same through a real pipe whose reader is closed before the
        report is written: exit 141, and the flush at exit raises nothing
        more."""
        src = str(Path(affschur.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "affschur", "verify-cell", "--window", "4",
             "--samples", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_keyboard_interrupt_is_not_caught(self, tmp_path, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_cmd_canon", interrupted)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(ELT_LAM))
        with pytest.raises(KeyboardInterrupt):
            run(["canon", "--file", str(path)])
