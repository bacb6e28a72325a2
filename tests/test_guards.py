"""Guards in the library are exceptions: no assert statement, no raised AssertionError.

An assert disappears under `python -O`, so a guard written that way silently
stops guarding.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bihomalt"


def _assert_guards(source: str, name: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((node.lineno, "raise AssertionError"))
    return [f"{name}:{line} {kind}" for line, kind in sorted(found)]


def test_library_has_no_assert_guards():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [hit for p in sources for hit in _assert_guards(p.read_text(), p.name)] == []


def test_the_scan_sees_every_form():
    probe = (
        "def f(x):\n"
        "    assert x\n"
        "    if x:\n"
        "        raise AssertionError('no')\n"
        "    raise AssertionError\n"
        "    raise ValueError('fine')\n"
    )
    assert _assert_guards(probe, "probe.py") == [
        "probe.py:2 assert",
        "probe.py:4 raise AssertionError",
        "probe.py:5 raise AssertionError",
    ]
