"""Guards in the library are exceptions: no assert statement, no raised AssertionError.

An assert disappears under `python -O`, so a guard written that way silently
stops guarding.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import bihomalt
import bihomalt.algebra as algebra
import bihomalt.cohomology as cohomology
import bihomalt.deformation as deformation
import bihomalt.exactnum as exactnum
from bihomalt.algebra import BiHomAlgebra, validate
from bihomalt.cohomology import complex_report
from bihomalt.deformation import TruncatedDeformation, check_deformation, gauge, obstruction
from bihomalt.exactnum import Matrix, Subspace
from bihomalt.representation import adjoint, validate_representation

from conftest import make_d2, make_e1, make_twisted_octonions

SRC = Path(__file__).resolve().parents[1] / "src" / "bihomalt"
BENCH = SRC.parents[1] / "bench"


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


def _stdout_uses(source: str, name: str) -> list[str]:
    """Every call of print and every touch of sys.stdout (an attribute, or a name imported from sys), by line."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("stdout", "__stdout__", "*")]
    return [f"{name}:{line} {kind}" for line, kind in sorted(found)]


def test_only_the_cli_writes_to_stdout():
    # stdout is the byte-identical report: the library around the CLI prints nothing and holds no handle on it,
    # so anything else it records (timings, sizes) goes to stderr or a file
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    assert len(sources) >= 10
    assert [hit for p in sources for hit in _stdout_uses(p.read_text(), p.name)] == []
    assert _stdout_uses((SRC / "cli.py").read_text(), "cli.py") != []


def test_the_stdout_scan_sees_every_form():
    probe = (
        "import sys\n"
        "from sys import stdout\n"
        "def f(x):\n"
        "    print(x)\n"
        "    sys.stdout.write(x)\n"
        "    sys.stderr.write(x)\n"
        "    return sys.__stdout__\n"
    )
    assert _stdout_uses(probe, "probe.py") == [
        "probe.py:2 stdout",
        "probe.py:4 print",
        "probe.py:5 stdout",
        "probe.py:7 __stdout__",
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


def _import_roots(source: str, name: str) -> set[str]:
    """The top-level package of every module a source imports; a relative import counts as bihomalt."""
    found = set()
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.ImportFrom):
            found.add("bihomalt" if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_the_library_imports_the_standard_library_only():
    # pyproject.toml declares dependencies = []; this holds the sources to it
    roots = set().union(*(_import_roots(p.read_text(), p.name) for p in SRC.glob("*.py")))
    assert roots and sorted(roots - set(sys.stdlib_module_names) - {"bihomalt"}) == []


def _constant_bindings(source: str, names) -> list[str]:
    """The names among `names` that a source binds at module level: by assignment, or by an import from a
    module other than exactnum."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] != "exactnum":
            found += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in found if name in names]


def test_one_zero_and_one_one():
    # exactnum binds the shared ZERO and ONE and every other module imports them, so the zeros of a zero cochain
    # are the object that support() passes over by identity
    bound = {p.name: _constant_bindings(p.read_text(), ("ZERO", "ONE")) for p in SRC.glob("*.py")}
    assert {name: names for name, names in bound.items() if names} == {"exactnum.py": ["ZERO", "ONE"]}
    assert all(x is exactnum.ZERO for x in cohomology.Cochain.zero(2, 2, 2).data)


def test_the_constant_scan_sees_every_form():
    probe = (
        "from .exactnum import ZERO\n"
        "from fractions import Fraction as ONE\n"
        "import ZERO\n"
        "ZERO = Fraction(0)\n"
        "X, (ONE, Y) = 1, (2, 3)\n"
        "ZERO: Fraction = Fraction(0)\n"
        "ONE += 0\n"
        "def f():\n    ZERO = 1\n"
    )
    assert _constant_bindings(probe, ("ZERO", "ONE")) == ["ONE", "ZERO", "ZERO", "ONE", "ZERO", "ONE"]


ORACLE = SRC.parents[1] / "tests" / "oracle_naive.py"


def test_the_rank_certificate_imports_nothing_from_the_library():
    # the certificate is a second route to a rank: its checker reads no bihomalt code, and the oracle module
    # imports the standard library only at its top level
    source = ORACLE.read_text()
    top = [ast.get_source_segment(source, n) for n in ast.parse(source).body if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert top and _import_roots("\n".join(top), ORACLE.name) <= set(sys.stdlib_module_names)
    for name in ("rank_mod_p", "certified_rank"):
        assert _import_roots(_function_source(source, name), name) == set()


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
    # the pointwise evaluate and from_function live in tests/oracle_naive.py; the kernel paths call neither
    names = ("algebra.py", "cohomology.py", "deformation.py", "extension.py")
    assert [hit for n in names for hit in _pointwise_calls((SRC / n).read_text(), n)] == []


POINTWISE = ("product", "left_at", "right_at", "evaluate", "apply")


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _function_source(source: str, name: str) -> str:
    """The source of the top-level function of that name, or of the method Class.method, nested definitions included."""
    *owner, leaf = name.split(".")
    body = ast.parse(source).body
    if owner:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    node = next(n for n in body if isinstance(n, FUNCTIONS) and n.name == leaf)
    return textwrap.dedent(ast.get_source_segment(source, node, padded=True))


def test_operator_rows_and_twist_checks_read_integer_tables():
    # the rows, the twist checks and dual contract `transport` tables; nothing forms a product or an action point by point
    scanned = [
        ("genderiv.py", (SRC / "genderiv.py").read_text()),
        ("validate_representation", _function_source((SRC / "representation.py").read_text(), "validate_representation")),
        ("twist_witness", _function_source((SRC / "cohomology.py").read_text(), "twist_witness")),
        ("_intertwining_witness", _function_source((SRC / "algebra.py").read_text(), "_intertwining_witness")),
        ("dual", _function_source((SRC / "representation.py").read_text(), "dual")),
    ]
    assert [hit for name, source in scanned for hit in _named_calls(source, name, POINTWISE)] == []


FOOTPRINT_PROBE = """
import contextlib, io, json, sys
def package():
    return {m for m in sys.modules if m.partition('.')[0] == 'bihomalt'}
before = set(sys.modules)
import bihomalt.cli
steps = {'dataclasses': 'dataclasses' in set(sys.modules) - before, 'import': sorted(package())}
for argv in json.loads(sys.argv[1]):
    loaded = package()
    with contextlib.redirect_stdout(io.StringIO()):
        code = bihomalt.cli.run(argv)
    steps[argv[0]] = [code, sorted(package() - loaded)]
print(json.dumps(steps))
"""


def test_the_cli_starts_without_dataclasses():
    # dataclasses and the inspect module it pulls in cost about half of the import time of bihomalt.cli; the
    # CLI imports only what reading an algebra needs, and each command adds the modules of its verb
    e1 = str(SRC.parents[1] / "data" / "e1.bha")
    argvs = [["validate", e1], ["derivations", "--kind", "der", "--k", "0", "--l", "0", e1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    probe = [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(argvs)]
    out = subprocess.run(probe, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {
        "dataclasses": False,
        "import": ["bihomalt", "bihomalt.algebra", "bihomalt.cli", "bihomalt.errors", "bihomalt.exactnum", "bihomalt.fileio"],
        "validate": [0, []],
        "derivations": [0, ["bihomalt.genderiv"]],
    }


# what `bihomalt` exports, by defining module
PUBLIC_API = {
    "algebra": ("AlgebraReport", "BiHomAlgebra", "associator", "is_morphism", "validate", "yau_twist"),
    "cohomology": ("Cochain", "ComplexReport", "cochain_space", "complex_report", "delta"),
    "deformation": (
        "DeformationReport", "FormalIsomorphism", "TruncatedDeformation", "check_deformation", "check_equivalence",
        "diamond", "extend_one_order", "gauge", "obstruction", "trivialize",
    ),
    "errors": ("BihomError", "InputError", "InternalError", "MathCheckError", "PreconditionError"),
    "exactnum": ("Matrix", "Subspace", "rank_nullspace", "solve", "subspace_ops"),
    "extension": ("annihilator", "central_extension", "t_star_theta_extension", "t_theta_extension"),
    "genderiv": (
        "OperatorSpace", "bracket", "commutant", "derivation_space", "sgder_decompose", "space_of_kind",
    ),
    "representation": (
        "Representation", "RepresentationReport", "adjoint", "coadjoint", "dual", "semidirect",
        "validate_representation",
    ),
}


def test_the_public_api_is_unchanged():
    assert sorted(bihomalt.__all__) == sorted(name for names in PUBLIC_API.values() for name in names)
    assert set(bihomalt.__all__) <= set(dir(bihomalt))
    namespace = {}
    exec("from bihomalt import *", namespace)
    assert set(bihomalt.__all__) <= set(namespace)
    for module, names in PUBLIC_API.items():
        home = importlib.import_module(f"bihomalt.{module}")
        for name in names:
            assert getattr(bihomalt, name) is getattr(home, name) is namespace[name], name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bihomalt.no_such_name  # noqa: B018
    assert not hasattr(bihomalt, "_require_valid")


def test_every_export_is_defined_by_the_library():
    # an export that only re-binds an object of another package (an alias of Fraction, say) adds a name, not a value
    foreign = {name: getattr(bihomalt, name).__module__ for name in bihomalt.__all__}
    assert {name: module for name, module in foreign.items() if not module.startswith("bihomalt.")} == {}


EXIT_MACHINERY = {("gc", "freeze"), ("gc", "disable"), ("gc", "collect"), ("os", "_exit")}


def _exit_machinery(source: str) -> list[str]:
    """Each call of gc.freeze, gc.disable, gc.collect or os._exit, and each import of one of them by name,
    named by the top-level definition that holds it."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found += [f"{owner} {node.module}.{a.name}" for a in node.names if (node.module, a.name) in EXIT_MACHINERY]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                if (node.func.value.id, node.func.attr) in EXIT_MACHINERY:
                    found.append(f"{owner} {node.func.value.id}.{node.func.attr}")
    return found


def test_only_main_freezes_the_heap():
    # run() and the library never leave a frozen heap or a changed collector behind in their caller's process;
    # main() freezes it once, on the way out of a CLI process
    found = {p.name: _exit_machinery(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {"cli.py": ["main gc.freeze"]}
    probe = "from gc import collect\nimport os\ndef f(x):\n    x.collect()\n    gc.disable()\n    os._exit(0)\n"
    assert _exit_machinery(probe) == ["<module> gc.collect", "f gc.disable", "f os._exit"]


def _callers(source: str, callee: str) -> list[str]:
    """Each call of callee, named by the top-level definition that holds it ("<module>" outside any)."""
    found = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [name] * len(_named_calls(ast.get_source_segment(source, node), name, (callee,)))
    return found


def test_one_twist_check_and_one_twist_row_builder():
    # transports are compared only where two different tensors meet: is_morphism and check_equivalence
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    compared = sorted(name for source in sources.values() for name in _callers(source, "_same"))
    assert compared == ["check_equivalence", "is_morphism"]
    # one row builder: cochain_space and the commutant rows span their spaces with it, and the witness
    # of a given tensor reads the same rows, with no transport table of its own
    built = sorted(name for source in sources.values() for name in _callers(source, "_twist_rows"))
    assert built == ["_intertwining_witness", "_operator_rows", "cochain_space"]
    witness = _function_source(sources["algebra.py"], "_intertwining_witness")
    assert _named_calls(witness, "_intertwining_witness", ("transport",)) == []
    genderiv = sources["genderiv.py"]
    assert _named_calls(genderiv, "genderiv.py", ("_integer_columns",)) == []
    commutation = ast.parse(_function_source(genderiv, "_operator_rows"))
    assert not any(isinstance(node, ast.For) for node in ast.walk(commutation))


def test_one_row_builder_for_every_linear_condition():
    # twist compatibility, δ1–δ3 and the product rules of the operator spaces are (sign, action, arguments)
    # terms read by one row builder, the one reader of the multilinear expansion
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    expanded = sorted(name for source in sources.values() for name in _callers(source, "_expand"))
    assert expanded == ["_term_rows"]
    built = sorted(name for source in sources.values() for name in _callers(source, "_term_rows"))
    assert built == ["_coboundary", "_product_rule_rows", "_twist_rows"]


def test_one_law_pairing_for_validation_and_extensions(monkeypatch):
    # the alternative laws and the deformation equations are read off one pairing helper; the extensions
    # read their cocycle conditions off the laws of the algebra they return, with no coboundary operator of
    # their own, and the module axioms are the sectors of the laws of A⊕V
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    paired = sorted(name for source in sources.values() for name in _callers(source, "_pairing"))
    assert paired == ["_paired", "_walk"]
    # validate walks A and _walk_sum walks A⊕_θV for validate_representation, the extensions and the
    # precondition of cohomology and the dual, all named by the one classifier pair; twist_witness is a
    # reader of the twist rows with one name
    walks = sorted(name for source in sources.values() for name in _callers(source, "_walk"))
    assert walks == ["_walk_sum", "validate"]
    summed = sorted(name for source in sources.values() for name in _callers(source, "_walk_sum"))
    assert summed == ["_checked_extension", "_require_valid", "validate_representation"]
    rows = sorted(name for source in sources.values() for name in _callers(source, "_intertwining_witness"))
    assert rows == ["_walk", "twist_witness"]
    assert _named_calls(sources["extension.py"], "extension.py", ("_coboundary",)) == []
    # the right law is the left law of Aᵒᵖ on transposed tables of A: both laws read one rescaling of five
    # transports, with no second algebra and no second build
    walk = _function_source(sources["algebra.py"], "_walk")
    assert len(_named_calls(walk, "_walk", ("_common_denominator",))) == 1
    octonions = make_twisted_octonions()
    builds, transports = [], []
    real_denominator, real_transport = algebra._common_denominator, algebra.transport

    def counted_denominator(parts):
        builds.append(len(parts))
        return real_denominator(parts)

    def counted_transport(*args):
        transports.append(len(args))
        return real_transport(*args)

    monkeypatch.setattr(algebra, "_common_denominator", counted_denominator)
    monkeypatch.setattr(algebra, "transport", counted_transport)
    assert validate(octonions).ok
    assert builds == [5] and len(transports) == 5


def test_every_deformation_equation_is_one_pairing_of_the_series(monkeypatch):
    # check_deformation, obstruction and diamond read every order off one pairing of d_t = Σ t^i d_i, built by
    # the one series builder: no per-term tables, no per-order residual and no table cache
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    retired = ("_term_tables", "_pairing_sum", "_residual", "_check_orders")
    defined = [
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in retired
    ]
    assert defined == []
    built = sorted(name for source in sources.values() for name in _callers(source, "_series_tables"))
    assert set(built) == {"_paired"}
    series = _function_source(sources["algebra.py"], "_series_tables")
    assert len(_named_calls(series, "_series_tables", ("_common_denominator",))) == 1
    # at run time an order-m check is one pass over one build of 4(m+1) transports; the per-order
    # reading made (m+1)(m+2)/2 passes over m+1 builds
    passes, builds = [], []
    real_pairing, real_denominator = deformation._pairing, algebra._common_denominator

    def counted_pairing(*args):
        passes.append(1)
        return real_pairing(*args)

    def counted_denominator(parts):
        builds.append(len(parts))
        return real_denominator(parts)

    monkeypatch.setattr(deformation, "_pairing", counted_pairing)
    monkeypatch.setattr(algebra, "_common_denominator", counted_denominator)
    defm = gauge(TruncatedDeformation(make_d2(), ()), Matrix.diagonal([1, 2]), 1, 4)
    for m in range(5):
        del passes[:], builds[:]
        assert check_deformation(TruncatedDeformation(defm.alg, defm.terms[:m])).ok
        assert (len(passes), builds) == (1, [4 * (m + 1)])
    # the obstruction pairs d_0 ... d_min(order, m−1) through t^m, its precondition included
    for m in (1, 3, 5):
        del passes[:], builds[:]
        obstruction(defm, m)
        assert (len(passes), builds) == (1, [4 * min(defm.order + 1, m)])


def _walk_calls(source: str) -> list[ast.Call]:
    """Every call of `_walk` in a source, bare or as an attribute."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_walk"
    ]


def _passes_sectors(call: ast.Call) -> bool:
    """True iff the call is _walk(alg, *_sectors(...)): the one classifier pair, unpacked."""
    if len(call.args) != 2 or call.keywords or not isinstance(call.args[1], ast.Starred):
        return False
    pair = call.args[1].value
    return isinstance(pair, ast.Call) and getattr(pair.func, "id", None) == "_sectors"


def test_every_check_on_a_sum_algebra_reads_the_one_block_sum():
    # no second implementation of the intertwining relations, of theta's twist check or of the right law, and no
    # sector bounds: one classifier pair names every sector of one full walk, and each reader picks its fields
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    retired = (
        "_witnesses", "intertwining", "_twisted", "_law_failures", "opposite", "_alternative_witness",
        "_action_sectors", "_module_sectors",
    )
    defined = [
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in retired
    ]
    assert defined == []
    # no input bound on the pairing (the old `inputs`) and no output bound on a law classifier (the old `start`)
    algebra_source = sources["algebra.py"]
    params = {
        name: [arg.arg for arg in ast.parse(_function_source(algebra_source, name)).body[0].args.args]
        for name in ("_walk", "_intertwining_witness")
    }
    assert params == {"_walk": ["alg", "rows", "laws"], "_intertwining_witness": ["flat", "twists", "out", "classify"]}
    imported = {
        alias.name
        for node in ast.walk(ast.parse(sources["extension.py"]))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"twist_witness", "validate_representation"}
    # block_sum and _walk meet only in _walk_sum, every _walk call passes *_sectors(...), and the classifier
    # pair is defined once: no reader holds a classifier of its own, as a nested def or a lambda
    meets = [
        set(name for source in sources.values() for name in _callers(source, callee)) for callee in ("block_sum", "_walk")
    ]
    assert set.intersection(*meets) == {"_walk_sum"}
    calls = [call for source in sources.values() for call in _walk_calls(source)]
    assert len(calls) == 2 and all(_passes_sectors(call) for call in calls)
    assert sorted(name for source in sources.values() for name in _callers(source, "_sectors")) == ["_walk_sum", "validate"]
    readers = [
        ast.parse(_function_source(sources[module], name))
        for module, name in (
            ("algebra.py", "validate"),
            ("representation.py", "_walk_sum"),
            ("representation.py", "validate_representation"),
            ("representation.py", "_require_valid"),
            ("extension.py", "_checked_extension"),
        )
    ]
    nested = [node for tree in readers for node in ast.walk(tree) if isinstance(node, (ast.Lambda, ast.FunctionDef))]
    assert len(nested) == len(readers)  # each reader's own definition, nothing inside it
    # every extension builds its algebra through that one walk, and the T_theta precondition is the
    # RepresentationReport of the same walk
    assert _callers(sources["extension.py"], "block_sum") == []
    assert _callers(sources["extension.py"], "_walk_sum") == ["_checked_extension"]
    checked = _function_source(sources["extension.py"], "_checked_extension")
    assert _named_calls(checked, "_checked_extension", ("_reported",)) != []
    assert "RepresentationReport" in checked


def test_the_module_axioms_have_no_table_algebra_of_their_own():
    # no composition helpers for action tables, and validate_representation builds no transport table
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    defined = [
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in ("_then", "_at", "_add")
    ]
    assert defined == []
    checker = _function_source(sources["representation.py"], "validate_representation")
    assert _named_calls(checker, "validate_representation", ("transport", "_common_denominator")) == []


def test_coboundary_is_one_function_of_columns():
    # δ is kept nowhere and composed nowhere: no row stream, no separate restriction, and each caller builds
    # the one δ·columns map once
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    defined = [
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in ("_coboundary_rows", "_restrict", "_delta_terms", "_delta")
    ]
    assert defined == []
    callers = sorted(name for source in sources.values() for name in _callers(source, "_coboundary"))
    assert callers == ["_preimage", "complex_report", "delta"]


def test_each_degree_of_the_complex_is_set_up_in_one_stage():
    # the compatible space, its primitive columns, the walk of δ and the exactness guard of a degree are built
    # by _stage alone: complex_report reads two stages and _preimage one, with no cochain space of their own
    source = (SRC / "cohomology.py").read_text()
    assert _callers(source, "cochain_space") == ["_stage"]
    assert sorted(_callers(source, "_stage")) == ["_preimage", "complex_report", "complex_report"]
    assert "_primitive_columns" not in source
    stage = _function_source(source, "_stage")
    assert len(_named_calls(stage, "_stage", ("delta",))) == 1


def test_one_factor_table_for_every_coboundary_degree():
    # δ1–δ3 read one table of twisted actions, products and basis vectors, built by one rescaling call with
    # no converter of its own
    source = (SRC / "cohomology.py").read_text()
    factory = _function_source(source, "_coboundary")
    assert len(_named_calls(factory, "_coboundary", ("_common_denominator",))) == 1
    nested = [node.name for node in ast.walk(ast.parse(factory)) if isinstance(node, ast.FunctionDef)]
    assert nested == ["_coboundary", "delta"]
    # one way to twist a tensor: one transport by the composed twist, so no module defines a chaining helper
    defined = [node.name for p in SRC.glob("*.py") for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.FunctionDef)]
    assert "_twisted" not in defined


def test_one_series_coefficient_for_gauge_equivalence_and_trivialization():
    # phi_t ∘ d_t = d'_t ∘ (phi_t ⊗ phi_t) is read off one coefficient helper, and (id − t^level f)⁻¹ is never
    # formed: the gauge and the trivialization apply it by the recursion g_k = e_k + f·g_(k−level), with no
    # inverse series and no series loop of their own
    source = (SRC / "deformation.py").read_text()
    assert _callers(source, "transport") == ["_coefficient"]
    assert _callers(source, "_table_sum") == ["_coefficient"]
    defined = [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
    assert "_inverse" not in defined
    for name in ("gauge", "trivialize"):
        assert not any(isinstance(node, ast.While) for node in ast.walk(ast.parse(_function_source(source, name))))


def test_one_factored_solve_reads_the_stored_rows():
    # every coordinate read-out goes through exactnum._factor: outside the eliminator's own methods and the
    # factor nothing reads the stored rows, and a row is inserted without an augment column
    readers = sorted(
        node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == "pivot_rows"
    )
    assert readers and set(readers) <= {"_Eliminator", "_factor"}
    tree = ast.parse((SRC / "exactnum.py").read_text())
    eliminator = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Eliminator")
    args = next(n for n in eliminator.body if isinstance(n, ast.FunctionDef) and n.name == "insert").args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["self", "row"]
    assert args.vararg is None and args.kwarg is None


def _assigned_literal(source: str, name: str):
    """The literal value of a module-level assignment to name."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_the_names_bench_reaches_resolve():
    # bench/ wraps and imports library names by string or by import; a deletion there breaks the traced run only
    methods = _assigned_literal((BENCH / "spans.py").read_text(), "METHODS")
    assert methods
    for layer, cls_name, meth in methods:
        assert meth in vars(getattr(importlib.import_module(f"bihomalt.{layer}"), cls_name)), (layer, cls_name, meth)
    assert cohomology.rank_nullspace is exactnum.rank_nullspace
    imported = _bench_imports()
    assert len(imported) == 6
    for module, name in imported:
        # like the import statement, fall back to a submodule of that name
        assert hasattr(importlib.import_module(module), name) or importlib.import_module(f"{module}.{name}")


def _bench_imports() -> list[tuple[str, str]]:
    """(module, name) of each import from bihomalt in bench/test_bench.py."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse((BENCH / "test_bench.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bihomalt"
        for alias in node.names
    ]


def _unnamed_definitions(sources: dict[str, str], reached=()) -> list[str]:
    """Top-level functions and methods that no source names outside their own definition.

    A name counts wherever it is read, as an attribute or imported, and where
    __init__'s export table (_EXPORTS) lists it, so a function exported from
    __init__ is named there.  Dunder methods and the names in reached are skipped.
    """
    trees = {file: ast.parse(source) for file, source in sources.items()}
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    mentions = [
        (file, node.lineno, getattr(node, field[type(node)]))
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if type(node) in field
    ]
    exported = _assigned_literal(sources["__init__.py"], "_EXPORTS") if "__init__.py" in sources else {}
    mentions += [("__init__.py", 0, name) for names in exported.values() for name in names]
    found = []
    for file, tree in trees.items():
        defined = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defined += [(c.name, node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body if isinstance(node, ast.FunctionDef)]
        for owner, node in defined:
            if node.name.startswith("__") or node.name in reached:
                continue
            outside = (m for f, line, m in mentions if not (f == file and node.lineno <= line <= node.end_lineno))
            if node.name not in outside:
                found.append(f"{owner}.{node.name}" if owner else node.name)
    return sorted(found)


# functions that nothing in src/ names and that stay, each with the reason
KEPT_WITHOUT_A_CALLER = {
    "Cochain.first_nonzero": "exported with Cochain, documented in README and tested; the deformation checks read their witnesses off the pairing",
    "Matrix.diagonal": "the README example builds its twists with it",
    "Subspace.from_spanning": "bench/spans.py wraps it by name in METHODS",
}


def test_every_library_function_has_a_caller():
    # a function that nothing in src/ names, nothing exports and bench/ does not reach is dead code
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    reached = {name for _, name in _bench_imports()}
    assert _unnamed_definitions(sources, reached) == sorted(KEPT_WITHOUT_A_CALLER)


def _forwarding_functions(source: str, names) -> list[str]:
    """The top-level functions among names whose body, docstring aside, is one `return f(...)`.

    Each argument of the call, starred or keyword, is one of the function's own parameters or a literal.
    """
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name not in names:
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
            continue
        a = node.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None}
        call = body[0].value
        args = [x.value if isinstance(x, ast.Starred) else x for x in call.args] + [k.value for k in call.keywords]
        if all(isinstance(x, ast.Name) and x.id in params or _is_literal(x) for x in args):
            found.append(node.name)
    return found


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


# exports that only forward one call and stay, each with the reason
FORWARDS_KEPT = {
    "commutant": "U takes no exponents, so this is its one spelling without dummy ones",
    "derivation_space": "bench/test_bench.py imports it",
    "semidirect": "the paper's name for the extension at theta = 0; block_sum is not exported",
}


def test_no_export_only_forwards_to_another_call():
    # an export that restates one call its caller can make is a second spelling of that call
    exports = _assigned_literal((SRC / "__init__.py").read_text(), "_EXPORTS")
    sources = {module: (SRC / f"{module}.py").read_text() for module in exports}
    found = [name for module, names in exports.items() for name in _forwarding_functions(sources[module], names)]
    assert sorted(found) == sorted(FORWARDS_KEPT)


def test_the_forwarding_scan_sees_every_form():
    probe = (
        "def doc(alg, k):\n    \"\"\"A docstring.\"\"\"\n    return space(alg, 'Der', k, None, -1, ())\n"
        "def star(a, *rest, key, **opts):\n    return f(a, *rest, key=key, flag=True, **opts)\n"
        "def method(a):\n    return a.g(a)\n"
        "def bare():\n    return f()\n"
        "def computed(a):\n    return f(a + 1)\n"
        "def attribute(a):\n    return f(a.x)\n"
        "def nested(a):\n    return f(g(a))\n"
        "def outer(a):\n    return f(b)\n"
        "def two(a):\n    b = a\n    return f(b)\n"
        "def value(a):\n    return a\n"
        "def unlisted(a):\n    return f(a)\n"
        "class C:\n    def doc(self):\n        return f(self)\n"
    )
    names = {"doc", "star", "method", "bare", "computed", "attribute", "nested", "outer", "two", "value"}
    assert _forwarding_functions(probe, names) == ["doc", "star", "method", "bare"]


def test_fileio_reads_and_writes_rationals_in_one_place():
    # every nested rational array is read through _rationals and _scalars, and written through _literals
    source = (SRC / "fileio.py").read_text()
    assert _callers(source, "parse_rational") == ["_scalars"]
    assert _callers(source, "format_rational") == ["_literals"]


def test_reports_serialize_exactly_their_fields():
    # as_dict is the record itself: its fields as keys, in field order, with witness tuples as lists
    good = make_e1()
    bad = BiHomAlgebra(1, [[[1]]], Matrix([[2]]), Matrix([[1]]))  # α = (2) is not multiplicative
    reports = [validate(alg) for alg in (good, bad)]
    reports += [validate_representation(alg, adjoint(alg)) for alg in (good, bad)]
    reports.append(complex_report(good, adjoint(good), 2))
    assert {r.ok for r in reports[:4]} == {True, False}
    for report in reports:
        out = report.as_dict()
        assert list(out) == list(report.__slots__)
        assert all(isinstance(w, list) for w in out.get("witnesses", {}).values())


VALUE_PROTOCOL = {"__eq__", "__hash__"}


def _value_protocol_overrides(source: str) -> list[str]:
    """Each definition or assignment of __eq__ or __hash__ in a class with _Immutable among its bases, as "Class: source"."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and any(getattr(b, "id", getattr(b, "attr", None)) == "_Immutable" for b in cls.bases)):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            if names & VALUE_PROTOCOL:
                found.append(f"{cls.name}: {ast.get_source_segment(source, node).splitlines()[0]}")
    return found


def test_value_classes_compare_and_hash_by_their_slots_alone():
    # _Immutable is the one value protocol; Subspace alone opts out to identity, as its bases are not canonical
    found = [hit for p in sorted(SRC.glob("*.py")) for hit in _value_protocol_overrides(p.read_text())]
    assert found == ["Subspace: __eq__, __hash__ = object.__eq__, object.__hash__"]
    assert (Subspace.__eq__, Subspace.__hash__) == (object.__eq__, object.__hash__)


def test_the_value_protocol_scan_sees_every_form():
    probe = (
        "class A(_Immutable):\n    def __eq__(self, other):\n        return True\n"
        "class B(exactnum._Immutable):\n    __hash__ = None\n"
        "class C(_Immutable):\n    x: int = 0\n    __eq__: object = object.__eq__\n    def _key(self):\n        return 1\n"
        "class D:\n    def __eq__(self, other):\n        return False\n    def __hash__(self):\n        return 0\n"
        "def f():\n    class E(_Immutable):\n        (__eq__, y), __hash__ = (1, 2), 3\n    return E\n"
    )
    assert _value_protocol_overrides(probe) == [
        "A: def __eq__(self, other):",
        "B: __hash__ = None",
        "C: __eq__: object = object.__eq__",
        "E: (__eq__, y), __hash__ = (1, 2), 3",
    ]


RECORDS = (
    "AlgebraReport", "RepresentationReport", "ComplexReport", "DeformationReport", "FormalIsomorphism", "OperatorSpace",
)


def _tuple_records(source: str) -> list[str]:
    """Each use of NamedTuple or namedtuple, as a name, an attribute or an import, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", getattr(node, "attr", None))]
        found += [f"{node.lineno} {n}" for n in names if n and n.rpartition(".")[2] in ("NamedTuple", "namedtuple")]
    return found


def _records_of(source: str) -> set[str]:
    """The classes of source that subclass _Record, directly or through another class of source."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    bases = {c.name: {getattr(b, "id", getattr(b, "attr", None)) for b in c.bases} for c in classes}
    records = {"_Record"}
    while grown := {name for name, of in bases.items() if of & records} - records:
        records |= grown
    return records - {"_Record"}


def test_every_result_is_a_record_and_none_is_a_tuple():
    # the results compare by class and fields, as every value class does, and never like a tuple
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [f"{name}:{hit}" for name, source in sources.items() for hit in _tuple_records(source)] == []
    assert set(RECORDS) <= _records_of("\n".join(sources.values()))
    assert all(issubclass(getattr(bihomalt, name), exactnum._Record) for name in RECORDS)


def test_the_record_scans_see_every_form():
    probe = (
        "from typing import NamedTuple, Optional\n"
        "import collections.namedtuple\n"
        "class A(NamedTuple):\n    x: int\n"
        "B = collections.namedtuple('B', 'x')\n"
        "C = typing.NamedTuple('C', [])\n"
        "class _Report(exactnum._Record):\n    pass\n"
        "class D(_Report):\n    pass\n"
        "class E(_Immutable):\n    pass\n"
    )
    assert _tuple_records(probe) == ["1 NamedTuple", "2 collections.namedtuple", "3 NamedTuple", "5 namedtuple", "6 NamedTuple"]
    assert _records_of(probe) == {"_Report", "D"}


def _reads(node: ast.AST, attr: str) -> bool:
    """Whether node reads attr: as an attribute (x.attr) or through getattr(x, "attr")."""
    if isinstance(node, ast.Attribute):
        return node.attr == attr
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == attr for a in node.args[1:])
    )


def _attribute_readers(source: str, attr: str) -> list[str]:
    """The definitions that read attr, each once and in order: a function by its name, a method as
    Class.method, the rest of a class body as Class, and code outside any definition as "<module>"."""
    owners = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            owners += [(f"{node.name}.{sub.name}" if isinstance(sub, FUNCTIONS) else node.name, sub) for sub in node.body]
        else:
            owners.append((node.name if isinstance(node, FUNCTIONS) else "<module>", node))
    found = []
    for name, node in owners:
        if name not in found and any(_reads(sub, attr) for sub in ast.walk(node)):
            found.append(name)
    return found


def _for_statements(source: str) -> list[str]:
    """The first line of each for statement; a comprehension is no for statement."""
    return [ast.unparse(n).splitlines()[0] for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.For, ast.AsyncFor))]


# each site that once copied an arithmetic kernel, and the kernel it now calls instead
KERNEL_CALLS = {
    ("exactnum.py", "Matrix.__mul__"): "_integer_columns",
    ("exactnum.py", "Subspace.basis"): "_lift",
    ("algebra.py", "apply_bilinear"): "transport",
    ("cohomology.py", "_stage"): "_integer_row",
    ("cohomology.py", "delta"): "_lift",
}
LOOP_FREE = (
    ("exactnum.py", "Matrix.apply"), ("exactnum.py", "Subspace.basis"), ("algebra.py", "apply_bilinear"), ("cohomology.py", "_stage"),
    ("cohomology.py", "delta"),
)


def test_one_implementation_per_arithmetic_operation():
    # denominators are cleared in exactnum's kernels; outside them only the integer table of a tensor and the
    # integer data of a flat multilinear map are read off their denominators, and the point evaluations run no
    # loop of their own
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = sorted(
        f"{file[:-3]}.{name}"
        for file, source in sources.items()
        if file != "exactnum.py"
        for name in _attribute_readers(source, "denominator")
    )
    assert readers == ["algebra._intertwining_witness", "algebra.transport"]
    for (file, name), kernel in KERNEL_CALLS.items():
        assert _named_calls(_function_source(sources[file], name), name, (kernel,)), (name, kernel)
    apply = ast.parse(_function_source(sources["exactnum.py"], "Matrix.apply"))
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(apply))
    loops = {name: _for_statements(_function_source(sources[file], name)) for file, name in LOOP_FREE}
    assert loops == {name: [] for _, name in LOOP_FREE}


def test_the_kernel_scans_see_every_form():
    probe = (
        "d = Fraction(1, 2).denominator\n"
        "def f(x):\n    return lcm(*(v.denominator for v in x))\n"
        "def g(x):\n    return getattr(x, 'denominator', 1)\n"
        "def h(x):\n    return x.numerator, getattr(x, 'numerator')\n"
        "class C:\n    scale = staticmethod(lambda v: v.denominator)\n"
        "    def m(self):\n        for v in self.x:\n            yield v\n"
        "    async def a(self):\n        async for v in self.x:\n            yield v.denominator\n"
        "    def n(self):\n        return exactnum._lift(self.c, (1,), 2) + [t for t in self] + self * other\n"
        "    def k(self):\n        def inner():\n            for t in self:\n                pass\n        return inner\n"
    )
    assert _attribute_readers(probe, "denominator") == ["<module>", "f", "g", "C", "C.a"]
    assert _attribute_readers(probe, "numerator") == ["h"]
    assert _for_statements(_function_source(probe, "C.m")) == ["for v in self.x:"]
    assert _for_statements(_function_source(probe, "C.a")) == ["async for v in self.x:"]
    assert _for_statements(_function_source(probe, "C.n")) == []
    assert _for_statements(_function_source(probe, "C.k")) == ["for t in self:"]
    assert _for_statements(_function_source(probe, "g")) == []
    assert _named_calls(_function_source(probe, "C.n"), "C.n", ("_lift",)) == ["C.n:2 _lift"]
    assert _named_calls(_function_source(probe, "f"), "f", ("_lift",)) == []


def _no_dense_basis(space):
    raise AssertionError("a dense Subspace basis was built")


@pytest.mark.parametrize(
    "make, degree, dims",
    [(make_d2, 3, (4, 3, 2, 1)), (make_twisted_octonions, 2, (128, 14, 14, 0))],
    ids=["D2-H3", "twisted-O-H2"],
)
def test_complex_report_builds_no_dense_basis(monkeypatch, make, degree, dims):
    # cochain spaces reach the restriction and the exactness guard as the eliminator's sparse columns
    monkeypatch.setattr(Subspace, "basis", property(_no_dense_basis))
    alg = make()
    report = complex_report(alg, adjoint(alg), degree)
    assert (report.dim_C, report.dim_Z, report.dim_B, report.dim_H) == dims


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
    assert _import_roots(probe, "probe.py") == {"bihomalt"}
    assert _import_roots("import os.path, numpy as np\nfrom fractions import Fraction\n", "probe.py") == {
        "os",
        "numpy",
        "fractions",
    }
    assert _pointwise_calls(probe, "probe.py") == ["probe.py:4 evaluate", "probe.py:5 from_function"]
    assert _named_calls(probe, "probe.py", ("Matrix",) + DENSE_SOLVERS) == [
        "probe.py:7 Matrix",
        "probe.py:8 Matrix.identity",
        "probe.py:9 solve",
        "probe.py:10 matrix_rank",
        "probe.py:10 rank_nullspace",
    ]
    nested = "def f(x):\n    g = lambda v: x.apply(v)\n    return g\n\n\ndef h(alg):\n    return alg.product(a, b)\n"
    assert _named_calls(_function_source(nested, "f"), "f", POINTWISE) == ["f:2 apply"]
    assert _named_calls(probe, "probe.py", POINTWISE) == ["probe.py:4 evaluate", "probe.py:6 evaluate"]
    callers = (
        "x = parse_rational(a)\n"
        "\n\nclass C:\n    def f(self):\n        return format_rational(b)\n"
        "\n\ndef g(v):\n    return [parse_rational(e) for e in v] + [exactnum.parse_rational(v)]\n"
    )
    assert _callers(callers, "parse_rational") == ["<module>", "g", "g"]
    assert _callers(callers, "format_rational") == ["C"]
    dead = (
        "from .b import kept\n"
        "\n\ndef kept():\n    return 1\n"
        "\n\ndef loop(n):\n    return loop(n - 1)\n"
        "\n\nclass C:\n    def __eq__(self, other):\n        return self.read() is other.field\n"
        "\n    def read(self):\n        return 1\n"
        "\n    def field(self):\n        return 2\n"
        "\n    def reached(self):\n        return 3\n"
    )
    assert _unnamed_definitions({"probe.py": dead}, {"reached"}) == ["loop"]
    assert _unnamed_definitions({"probe.py": dead, "other.py": "x = loop"}) == ["C.reached"]
    assert _unnamed_definitions({"probe.py": dead, "__init__.py": "_EXPORTS = {'probe': ('loop',)}"}, {"reached"}) == []
