"""Golden-byte CLI tests: the stdout and exit code of each command, pinned byte for byte.

golden/cases.json maps each case name to its argv (input paths relative to
the repository root) and exit code; golden/<name>.out holds the exact
stdout.  The inputs are the files in data/ plus the small hand-made ones in
golden/inputs/.  No pinned output contains a file path.

After an intended output change, regenerate and review the diff:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from bihomalt import fileio
from bihomalt.cli import run
from bihomalt.cohomology import compatibility_witness
from bihomalt.representation import adjoint

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _cases() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text())


def _run(argv) -> tuple[int, str]:
    """Exit code and stdout of one CLI call, with input paths made absolute."""
    resolved = [str(ROOT / a) if "/" in a else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(resolved)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(_cases()))
def test_golden_output(name):
    case = _cases()[name]
    code, out = _run(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_golden_outputs_hold_no_paths():
    for name, case in _cases().items():
        text = (GOLDEN / f"{name}.out").read_text()
        for arg in case["argv"]:
            if "/" in arg:
                assert Path(arg).name not in text, (name, arg)


def test_golden_files_match_cases():
    outs = {p.stem for p in GOLDEN.glob("*.out")}
    assert outs == set(_cases())


def test_deform_precondition_scans_alpha_before_beta():
    """The deformation precondition reports the first α failure before any β one,
    while compatibility_witness gives the first tuple failing under either twist."""
    defm = fileio.load_deformation(str(GOLDEN / "inputs" / "z3_deformation.bhd"))
    assert compatibility_witness(defm.alg, adjoint(defm.alg), defm.terms[0]) == (0, 0)
    _, out = _run(_cases()["deform-check-z3-twist-order"]["argv"])
    assert json.loads(out)["diagnostics"] == [
        "deformation term 1 does not commute with the twists (fails at (0, 1))"
    ]


def _write():
    cases = _cases()
    for name, case in sorted(cases.items()):
        case["exit"], out = _run(case["argv"])
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"{case['exit']}  {name}")
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
