"""
Every function of the package is reached by the command line, or is
allowlisted here with its reason.

A child process installs ``sys.setprofile`` before ``import affschur``,
drives each of the nine CLI subcommands once on a small fixed input and
``verify-cell --window 12 --samples 5``, and prints the (file, first line)
of every code object of the package that was entered.  Each ``def`` under
``src/affschur``, found with ``ast``, must be among them or in
``ALLOWED``; an allowlist entry must name a ``def`` that exists and is
still unreached, and one kept for the benchmark must name a function that
``benchmarks/tracing.py`` or ``benchmarks/workloads.py`` binds.  Every
module's ``__all__`` must name attributes that exist.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affschur"
BENCHMARK_FILES = [ROOT / "benchmarks" / "tracing.py", ROOT / "benchmarks" / "workloads.py"]


def pinned(name):
    """The reason of a function kept because the benchmark reaches it
    through ``name``, a function the benchmark binds or imports."""
    return f"pinned by benchmarks/ through {name}"


ERROR_PATH = "error or broken-pipe path"
REPR_JSON = "repr/JSON API"
# a hook that Python calls for an operator or a dataclass constructor,
# which the command line does not use: ``x * y`` and ``k * x`` of
# elements, and a matrix built directly rather than interned
DATA_MODEL = "data-model hook"
REASONS = (ERROR_PATH, REPR_JSON, DATA_MODEL)

# "module.qualname" -> why nothing on the command line enters it
ALLOWED = {
    # kept while the benchmark binds them (ROADMAP item 1)
    "cellular.CellVector.to_element": pinned("to_element"),
    "cellular.laurent_to_corner": pinned("laurent_to_corner"),
    "cellular.monomial_image": pinned("monomial_image"),
    "cellular.omega_candidates": pinned("omega_candidates"),
    "linalg.factorize": pinned("solve_many"),
    "linalg.rank": pinned("rank"),
    "linalg.solve_many": pinned("solve_many"),
    "multiplication.StructureTable.__len__": pinned("table_wrapper"),
    "multiplication._double_cosets": pinned("doublecoset_product"),
    "multiplication.doublecoset_product": pinned("doublecoset_product"),
    "weyl.WeylElement.__mul__": pinned("doublecoset_product"),
    "cli._discard_stdout": ERROR_PATH,
    "cellular.CellTensor.from_json": REPR_JSON,
    "core.AlgebraElement.__repr__": REPR_JSON,
    "core.Composition.__repr__": REPR_JSON,
    "core.PeriodicMatrix.__repr__": REPR_JSON,
    "hecke.HeckeElement.__repr__": REPR_JSON,
    "hecke.HeckeElement.sorted_terms": REPR_JSON,
    "hecke.HeckeElement.to_json": REPR_JSON,
    "laurent.LaurentPoly1.__repr__": REPR_JSON,
    "laurent.LaurentPoly1.from_json": REPR_JSON,
    "laurent.LaurentPoly2.__repr__": REPR_JSON,
    "laurent.LaurentPoly2.from_json": REPR_JSON,
    "laurent._exponent_from_json": REPR_JSON,
    "verify.CellReport.render_text": REPR_JSON,
    "weyl.WeylElement.to_json": REPR_JSON,
    "core.AlgebraElement._product": DATA_MODEL,
    "core.LinearCombination.__rmul__": DATA_MODEL,
    "core.PeriodicMatrix.__post_init__": DATA_MODEL,
    "hecke.HeckeElement._key_product": DATA_MODEL,
}

# (subcommand and flags, input JSON), each of which exits 0; the cap
# keeps member's window ladder small
CORNER = {"n": 2, "r": 2, "terms": [{"coeff": "3/2", "entries": [[1, 1, 1], [1, 3, 1]]}]}
ROW_20 = {"n": 2, "r": 2, "terms": [{"coeff": "1", "entries": [[1, 2, 1], [1, 3, 1]]}]}
COMMANDS = [
    (["mult"], {"a": ROW_20, "b": {"n": 2, "r": 2, "terms": [
        {"coeff": "-2", "entries": [[1, 1, 1], [2, 3, 1]]}]}}),
    (["canon"], {"n": 2, "r": 2, "terms": [
        {"coeff": "1", "entries": [[3, 2, 1], [1, 1, 1]]}]}),
    (["grade"], {"n": 2, "r": 2, "terms": [
        {"coeff": "1", "entries": [[1, 3, 2]]}, {"coeff": "1", "entries": [[3, 1, 2]]}]}),
    (["decompose", "--side", "left"], ROW_20),
    (["psi"], CORNER),
    (["quotient"], {"n": 2, "r": 2, "terms": [
        {"coeff": "1", "entries": [[1, 2, 1], [2, 3, 1]]}]}),
    (["hecke-embed"], [{"coeff": "2", "sigma": [2, 1], "eps": [0, 1]}]),
    (["member"], CORNER),
    (["verify-cell", "--window", "12", "--samples", "5"], None),
]

CHILD = r"""
import contextlib, io, json, os, sys, tempfile

package = os.path.join(sys.argv[1], "")
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((os.path.relpath(code.co_filename, package), code.co_firstlineno))

sys.setprofile(profile)
from affschur import cli

codes = []
with tempfile.TemporaryDirectory() as tmp:
    for index, (argv, payload) in enumerate(json.loads(sys.argv[2])):
        if payload is not None:
            path = os.path.join(tmp, f"{index}.json")
            with open(path, "w") as handle:
                json.dump(payload, handle)
            argv = argv + ["--file", path]
        sys.argv = ["affschur", *argv]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main()
            except SystemExit as exc:
                codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _defs():
    """{"module.qualname": (file, first line)} of every def in the
    package, the first line being that of its first decorator, as in
    ``co_firstlineno``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{module}.{qualname}"] = (path.name, first)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _entered():
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(COMMANDS)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), AFFSCHUR_MAX_WINDOW="12"),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(run.stdout)
    assert result["codes"] == [0] * len(COMMANDS), result["codes"]
    return {tuple(pair) for pair in result["entered"]}


def test_every_function_is_reached_or_allowed():
    defs = _defs()
    entered = _entered()
    unreached = {name for name, where in defs.items() if where not in entered}
    assert sorted(unreached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - defs.keys()) == [], "allowlisted but gone"
    assert sorted(ALLOWED.keys() - unreached) == [], "allowlisted but reached"


def test_pinned_entries_name_what_the_benchmark_binds():
    bound = set()
    for path in BENCHMARK_FILES:
        bound |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    pattern = re.compile(re.escape(pinned("")) + r"(\w+)$")
    for name, reason in ALLOWED.items():
        match = pattern.match(reason)
        assert reason in REASONS or (match and match.group(1) in bound), (name, reason)


def test_no_stale_all_entries():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        name = "affschur" if path.stem == "__init__" else f"affschur.{path.stem}"
        module = importlib.import_module(name)
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], (name, missing)
