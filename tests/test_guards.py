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


def _imported_modules(source: str, name: str) -> set[str]:
    """The last dotted component of every module a source imports from."""
    found = set()
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, ast.ImportFrom):  # from . import module
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return found


def _pointwise_calls(source: str, name: str) -> list[str]:
    """Calls of a method named evaluate or from_function, by line."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("evaluate", "from_function"):
                found.append(f"{name}:{node.lineno} {node.func.attr}")
    return sorted(found)


DENSE_SOLVERS = ("solve", "matrix_rank", "rank_nullspace")


def _named_calls(source: str, name: str, callees) -> list[str]:
    """Calls of the given names, bare or as an attribute (exactnum.solve), and of
    their static methods (Matrix.zero), by line."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in callees:
            found.append((node.lineno, f"{func.value.id}.{func.attr}"))
        elif isinstance(func, ast.Name) and func.id in callees:
            found.append((node.lineno, func.id))
        elif isinstance(func, ast.Attribute) and func.attr in callees:
            found.append((node.lineno, func.attr))
    return [f"{name}:{line} {callee}" for line, callee in sorted(found)]


def test_the_cochain_complex_stays_sparse():
    # the restricted coboundaries reach the eliminator as sparse rows, never as a dense Matrix
    cohomology, deformation = ((SRC / n).read_text() for n in ("cohomology.py", "deformation.py"))
    assert _named_calls(cohomology, "cohomology.py", ("Matrix",) + DENSE_SOLVERS) == []
    assert _named_calls(deformation, "deformation.py", DENSE_SOLVERS) == []


def test_algebra_sits_below_cohomology_and_deformation():
    imported = _imported_modules((SRC / "algebra.py").read_text(), "algebra.py")
    assert imported and not imported & {"cohomology", "deformation"}


def test_no_pointwise_evaluation_in_the_kernel_paths():
    # Cochain.evaluate stays public API (twist_witness and the tests use it)
    names = ("algebra.py", "deformation.py", "extension.py")
    assert [hit for n in names for hit in _pointwise_calls((SRC / n).read_text(), n)] == []


def test_the_import_and_call_scans_see_every_form():
    probe = (
        "import bihomalt.cohomology\n"
        "from .deformation import gauge\n"
        "from . import exactnum\n"
        "x = t.evaluate(a, b)\n"
        "y = Cochain.from_function(2, n, n, f)\n"
        "z = evaluate(a)\n"
        "m = Matrix(rows)\n"
        "i = Matrix.identity(2)\n"
        "x = exactnum.solve(m, b) or solve_sparse_rows(rows, b, 2)\n"
        "r = matrix_rank(m) + rank_nullspace(m)[0]\n"
    )
    assert _imported_modules(probe, "probe.py") == {"cohomology", "deformation", "exactnum"}
    assert _pointwise_calls(probe, "probe.py") == ["probe.py:4 evaluate", "probe.py:5 from_function"]
    assert _named_calls(probe, "probe.py", ("Matrix",) + DENSE_SOLVERS) == [
        "probe.py:7 Matrix",
        "probe.py:8 Matrix.identity",
        "probe.py:9 solve",
        "probe.py:10 matrix_rank",
        "probe.py:10 rank_nullspace",
    ]
