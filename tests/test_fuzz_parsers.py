"""Mutated .bha, .bhr, .bhd and .bhc documents through the CLI.

Whatever the file holds, `cli.run` prints exactly one JSON report and exits
0, 1 or 2 (never 3, the internal-error code), with nothing on stderr.  The
documents start from valid files and are then truncated, retyped, made ragged
or deeply nested, or given huge literals.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomalt import fileio
from bihomalt.cli import run
from bihomalt.cohomology import Cochain
from bihomalt.deformation import TruncatedDeformation
from bihomalt.representation import adjoint

from conftest import make_d2, make_e1

STATUS_BY_CODE = {0: "pass", 1: "fail", 2: "error"}

# placeholders replaced in the serialized text, for literals json.dumps cannot write
DEEP = "__deep_{}__"
HUGE = "__huge_{}__"


def _base_documents():
    d2, e1 = make_d2(), make_e1()
    defm = TruncatedDeformation(e1, [Cochain.from_nested(2, 1, 1, [[[3]]]), Cochain.from_nested(2, 1, 1, [[[-2]]])])
    return {
        "bha": fileio.algebra_to_json(d2),
        "bhr": fileio.representation_to_json(adjoint(d2)),
        "bhd": fileio.deformation_to_json(defm),
        "bhc": {"degree": 2, "alg_dim": 1, "mod_dim": 1, "target": "module", "tensor": [[["1"]]]},
    }


BASE = _base_documents()

# the command each document kind is read by; {} is the mutated file
COMMANDS = {
    "bha": [["validate", "{}"], ["rep", "semidirect", "{}"], ["cohomology", "--degree", "2", "{}"]],
    "bhr": [["rep", "validate", "d2.bha", "{}"], ["cohomology", "--degree", "2", "d2.bha", "{}"]],
    "bhd": [["deform", "check", "{}"], ["deform", "trivialize", "{}", "--max-order", "2"]],
    "bhc": [["extend", "ttheta", "e1.bha", "{}"], ["extend", "central", "e1.bha", "{}"]],
}


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replace(node, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replace(node[head], rest, new)}
    return [_replace(child, rest, new) if i == head else child for i, child in enumerate(node)]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


WRONG_TYPES = st.sampled_from(
    [None, True, False, 1.5, -0.0, "x", "1/0", "1.5", "", {}, [], -1, 0, 1, 2, 3, "-2/3", {"dim": 1}]
)


@st.composite
def mutation(draw, doc):
    """One mutation of doc at a random node."""
    path = draw(st.sampled_from(list(_paths(doc))))
    node = _get(doc, path)
    kind = draw(st.sampled_from(["wrong_type", "ragged", "deep", "huge", "drop_key"]))
    if kind == "wrong_type":
        return _replace(doc, path, draw(WRONG_TYPES))
    if kind == "ragged" and isinstance(node, list) and node:
        how = draw(st.sampled_from(["drop", "repeat", "extra"]))
        i = draw(st.integers(0, len(node) - 1))
        if how == "drop":
            new = node[:i] + node[i + 1 :]
        elif how == "repeat":
            new = node + [node[i]]
        else:
            new = node[:i] + [draw(WRONG_TYPES)] + node[i:]
        return _replace(doc, path, new)
    if kind == "deep":
        return _replace(doc, path, DEEP.format(draw(st.sampled_from([1, 2, 40, 3000]))))
    if kind == "huge":
        digits = draw(st.sampled_from([30, 400, 4200, 5000]))
        return _replace(doc, path, draw(st.sampled_from([HUGE.format(digits), "1/" + "7" * digits, "-" + "9" * digits])))
    if kind == "drop_key" and isinstance(node, dict) and node:
        key = draw(st.sampled_from(sorted(node)))
        return _replace(doc, path, {k: v for k, v in node.items() if k != key})
    return doc


@st.composite
def mutated_text(draw, kind):
    doc = BASE[kind]
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutation(doc))
    text = json.dumps(doc)
    for depth in (1, 2, 40, 3000):
        text = text.replace(json.dumps(DEEP.format(depth)), "[" * depth + "1" + "]" * depth)
    for digits in (30, 400, 4200, 5000):
        text = text.replace(json.dumps(HUGE.format(digits)), "1" + "0" * digits)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _run_on(kind, text, command):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "d2.bha").write_text(json.dumps(fileio.algebra_to_json(make_d2())))
        (tmp / "e1.bha").write_text(json.dumps(fileio.algebra_to_json(make_e1())))
        target = tmp / f"input.{kind}"
        target.write_text(text)
        argv = [str(target) if a == "{}" else str(tmp / a) if a.endswith(".bha") else a for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(kind, text, command):
    code, out, err = _run_on(kind, text, command)
    assert code in STATUS_BY_CODE, (code, out)
    report = json.loads(out)  # exactly one JSON document, nothing else
    assert isinstance(report, dict) and report["status"] == STATUS_BY_CODE[code]
    assert err == ""


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(st.data())
@FUZZ
def test_algebra_files(data):
    _check_contract("bha", data.draw(mutated_text("bha")), data.draw(st.sampled_from(COMMANDS["bha"])))


@given(st.data())
@FUZZ
def test_representation_files(data):
    _check_contract("bhr", data.draw(mutated_text("bhr")), data.draw(st.sampled_from(COMMANDS["bhr"])))


@given(st.data())
@FUZZ
def test_deformation_files(data):
    _check_contract("bhd", data.draw(mutated_text("bhd")), data.draw(st.sampled_from(COMMANDS["bhd"])))


@given(st.data())
@FUZZ
def test_cochain_files(data):
    _check_contract("bhc", data.draw(mutated_text("bhc")), data.draw(st.sampled_from(COMMANDS["bhc"])))


def test_unmutated_documents_pass():
    for kind, commands in COMMANDS.items():
        for command in commands:
            code, out, _ = _run_on(kind, json.dumps(BASE[kind]), command)
            assert (code, json.loads(out)["status"]) == (0, "pass"), (kind, command)
