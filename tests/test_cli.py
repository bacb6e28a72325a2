import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bihomalt import cli, fileio
from bihomalt.algebra import BiHomAlgebra
from bihomalt.cli import run
from bihomalt.errors import InternalError
from bihomalt.exactnum import Matrix
from bihomalt.representation import Representation, adjoint

from conftest import make_d2, make_e1, make_z1, make_zero1


@pytest.fixture
def files(tmp_path):
    """Corpus written out in the on-disk formats."""
    paths = {}
    for name, alg in (("z1", make_z1()), ("e1", make_e1()), ("d2", make_d2())):
        p = tmp_path / f"{name}.bha"
        p.write_text(json.dumps(fileio.algebra_to_json(alg)))
        paths[name] = str(p)
    broken = fileio.algebra_to_json(make_e1())
    broken["alpha"] = [["2"]]
    p = tmp_path / "broken.bha"
    p.write_text(json.dumps(broken))
    paths["broken"] = str(p)
    return paths


def run_cli(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_pass(files, capsys):
    code, report = run_cli(capsys, ["validate", files["e1"]])
    assert code == 0
    assert report["status"] == "pass"
    assert report["payload"]["report"]["left_alternative"] is True


def test_validate_fail_exit1(files, capsys):
    code, report = run_cli(capsys, ["validate", files["broken"]])
    assert code == 1
    assert report["status"] == "fail"
    assert report["payload"]["report"]["alpha_multiplicative"] is False
    assert any("alpha_multiplicative at (0, 0)" in d for d in report["diagnostics"])


def test_validate_unreadable_exit2(capsys, tmp_path):
    code, report = run_cli(capsys, ["validate", str(tmp_path / "missing.bha")])
    assert code == 2
    assert report["status"] == "error"


def test_validate_bad_rational_exit2(capsys, tmp_path):
    p = tmp_path / "bad.bha"
    p.write_text(json.dumps({"dim": 1, "mu": [[["1/0"]]], "alpha": [["1"]], "beta": [["1"]]}))
    code, report = run_cli(capsys, ["validate", str(p)])
    assert code == 2
    assert "mu[0][0][0]" in report["diagnostics"][0]


def test_cohomology_default_adjoint(files, capsys):
    code, report = run_cli(capsys, ["cohomology", "--degree", "2", files["e1"]])
    assert code == 0
    assert report["payload"] == {"degree": 2, "dim_C": 1, "dim_Z": 1, "dim_B": 1, "dim_H": 0}


@pytest.mark.parametrize("degree", ["2", "3"])
def test_cohomology_of_a_non_alternative_algebra_exit2(files, capsys, degree):
    # E1 with α = (2) is not multiplicative; degree 3 used to report 0/0/0/0 as a pass
    code, report = run_cli(capsys, ["cohomology", "--degree", degree, files["broken"]])
    assert code == 2
    assert report["status"] == "error" and report["payload"] == {}
    assert report["diagnostics"] == [
        "cohomology needs a BiHom-alternative algebra (fails alpha_multiplicative at (0, 0))"
    ]


@pytest.mark.parametrize("degree", ["2", "3"])
@pytest.mark.parametrize(
    "mod_dim, phi, psi",
    [(1, [[1]], [[1]]), (2, [[1, 1], [0, 1]], [[1, 0], [1, 1]])],
    ids=["unit", "noncommuting"],
)
def test_cohomology_with_an_invalid_representation_exit2(capsys, tmp_path, mod_dim, phi, psi, degree):
    # over the 1-dim zero algebra: l = r = (1) fails every module axiom, and the other twists do not commute
    act = [[1]] if mod_dim == 1 else [[0, 0], [0, 0]]
    rep = Representation(1, mod_dim, [Matrix(act)], [Matrix(act)], Matrix(phi), Matrix(psi))
    paths = {"alg": tmp_path / "zero1.bha", "rep": tmp_path / "bad.bhr"}
    paths["alg"].write_text(json.dumps(fileio.algebra_to_json(make_zero1())))
    paths["rep"].write_text(json.dumps(fileio.representation_to_json(rep)))
    code, report = run_cli(capsys, ["cohomology", "--degree", degree, str(paths["alg"]), str(paths["rep"])])
    assert code == 2 and report["status"] == "error" and report["payload"] == {}
    assert report["diagnostics"] == ["cohomology needs a valid representation"]


def test_rep_validate_with_explicit_file(files, capsys, tmp_path):
    from bihomalt.representation import adjoint

    rep = adjoint(make_d2())
    p = tmp_path / "d2.bhr"
    p.write_text(json.dumps(fileio.representation_to_json(rep)))
    code, report = run_cli(capsys, ["rep", "validate", files["d2"], str(p)])
    assert code == 0 and report["status"] == "pass"


def test_rep_semidirect_roundtrip(files, capsys, tmp_path):
    code, report = run_cli(capsys, ["rep", "semidirect", files["d2"]])
    assert code == 0
    emitted = report["payload"]["algebra"]
    p = tmp_path / "sd.bha"
    p.write_text(json.dumps(emitted))
    code2, report2 = run_cli(capsys, ["validate", str(p)])
    assert code2 == 0 and report2["status"] == "pass"


def test_rep_dual_and_coadjoint_roundtrip(files, capsys, tmp_path):
    code, report = run_cli(capsys, ["rep", "dual", files["d2"]])
    assert code == 0
    p = tmp_path / "dual.bhr"
    p.write_text(json.dumps(report["payload"]["representation"]))
    code2, report2 = run_cli(capsys, ["rep", "validate", files["d2"], str(p)])
    assert code2 == 0

    code3, report3 = run_cli(capsys, ["rep", "coadjoint", files["d2"]])
    assert code3 == 0
    assert report3["payload"]["representation"] == report["payload"]["representation"]


def test_deform_check_and_trivialize(files, capsys, tmp_path):
    defm = {
        "algebra": fileio.algebra_to_json(make_e1()),
        "terms": [[[["1"]]], [[["-2"]]]],
    }
    p = tmp_path / "defm.bhd"
    p.write_text(json.dumps(defm))
    code, report = run_cli(capsys, ["deform", "check", str(p)])
    assert code == 0
    assert report["payload"]["report"]["order_ok"] == [True, True, True]

    code2, report2 = run_cli(capsys, ["deform", "trivialize", str(p), "--max-order", "4"])
    assert code2 == 0
    assert report2["payload"]["trivial"] is True
    assert len(report2["payload"]["isomorphism"]["terms"]) == 4


def test_deform_extend(files, capsys, tmp_path):
    defm = {"algebra": fileio.algebra_to_json(make_e1()), "terms": [[[["1"]]]]}
    p = tmp_path / "defm.bhd"
    p.write_text(json.dumps(defm))
    code, report = run_cli(capsys, ["deform", "extend", str(p)])
    assert code == 0
    assert report["payload"]["extended"] is True
    assert len(report["payload"]["deformation"]["terms"]) == 2


def test_deform_trivialize_failure_exit1(capsys, tmp_path):
    zero1 = {"dim": 1, "mu": [[["0"]]], "alpha": [["1"]], "beta": [["1"]]}
    defm = {"algebra": zero1, "terms": [[[["1"]]]]}
    p = tmp_path / "defm.bhd"
    p.write_text(json.dumps(defm))
    code, report = run_cli(capsys, ["deform", "trivialize", str(p)])
    assert code == 1
    assert report["status"] == "fail"


def test_extend_central_pass_and_roundtrip(files, capsys, tmp_path):
    cocycle = {"degree": 2, "alg_dim": 1, "mod_dim": 1, "tensor": [[["1"]]]}
    p = tmp_path / "omega.bhc"
    p.write_text(json.dumps(cocycle))
    code, report = run_cli(capsys, ["extend", "central", files["e1"], str(p)])
    assert code == 0
    emitted = tmp_path / "central.bha"
    emitted.write_text(json.dumps(report["payload"]["algebra"]))
    code2, _ = run_cli(capsys, ["validate", str(emitted)])
    assert code2 == 0


def test_extend_central_bad_omega_exit1(files, capsys, tmp_path):
    cocycle = {"degree": 2, "alg_dim": 2, "mod_dim": 1,
               "tensor": [[["1"], ["0"]], [["0"], ["1"]]]}
    p = tmp_path / "omega.bhc"
    p.write_text(json.dumps(cocycle))
    code, report = run_cli(capsys, ["extend", "central", files["d2"], str(p)])
    assert code == 1
    assert report["payload"]["condition"] == "alpha_invariance"
    assert report["payload"]["witness"] == [1, 1]


def test_extend_ttheta_and_tstar(files, capsys, tmp_path):
    theta = {"degree": 2, "alg_dim": 1, "mod_dim": 1, "tensor": [[["1"]]]}
    p = tmp_path / "theta.bhc"
    p.write_text(json.dumps(theta))
    code, report = run_cli(capsys, ["extend", "ttheta", files["e1"], str(p)])
    assert code == 0

    theta_dual = dict(theta, target="dual")
    p2 = tmp_path / "theta_star.bhc"
    p2.write_text(json.dumps(theta_dual))
    code2, report2 = run_cli(capsys, ["extend", "tstar", files["e1"], str(p2)])
    assert code2 == 0
    emitted = tmp_path / "tstar.bha"
    emitted.write_text(json.dumps(report2["payload"]["algebra"]))
    code3, _ = run_cli(capsys, ["validate", str(emitted)])
    assert code3 == 0


def test_extend_tstar_requires_dual_target(files, capsys, tmp_path):
    theta = {"degree": 2, "alg_dim": 1, "mod_dim": 1, "tensor": [[["1"]]]}
    p = tmp_path / "theta.bhc"
    p.write_text(json.dumps(theta))
    code, report = run_cli(capsys, ["extend", "tstar", files["e1"], str(p)])
    assert code == 2
    assert report["diagnostics"] == [f"{p}: T* extension expects a cocycle with target 'dual'"]


@pytest.mark.parametrize("subverb, name", [("central", "central"), ("ttheta", "T")])
def test_extend_central_and_ttheta_reject_a_dual_target(files, capsys, tmp_path, subverb, name):
    # a V*-valued cocycle is not read as a V-valued one
    theta = {"degree": 2, "alg_dim": 1, "mod_dim": 1, "target": "dual", "tensor": [[["1"]]]}
    p = tmp_path / "theta.bhc"
    p.write_text(json.dumps(theta))
    code, report = run_cli(capsys, ["extend", subverb, files["e1"], str(p)])
    assert code == 2
    assert report["status"] == "error"
    assert report["diagnostics"] == [f"{p}: {name} extension expects a cocycle with target 'module'"]


@pytest.mark.parametrize(
    "argv, diagnostic",
    [
        (["extend", "central", "data/e1.bha", "data/e1_theta.bhc", "/nonexistent.bhr"], "representation"),
        (["rep", "coadjoint", "data/d2.bha", "/nonexistent.bhr"], "representation"),
        (["deform", "check", "data/e1_deformation.bhd", "--max-order", "3"], "--max-order"),
        (["deform", "extend", "data/e1_deformation.bhd", "--max-order", "3"], "--max-order"),
    ],
    ids=["extend-central", "rep-coadjoint", "deform-check", "deform-extend"],
)
def test_an_argument_the_command_does_not_read_exit2(capsys, monkeypatch, argv, diagnostic):
    # each of these used to pass and ignore the argument, even a file that does not exist
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code, report = run_cli(capsys, argv)
    assert code == 2 and report["status"] == "error" and report["payload"] == {}
    command = " ".join(argv[:2])
    assert report["diagnostics"] == [f"{command} takes no {diagnostic} argument (got {argv[-1]})"]


def test_rep_dual_of_an_invalid_representation_exit2(files, capsys, tmp_path):
    # l = (2) fails left_square and left_exchange at (0, 0) on E1; the dual used to be printed as a pass
    bad = Representation(1, 1, [Matrix([[2]])], [Matrix([[1]])], Matrix([[1]]), Matrix([[1]]))
    p = tmp_path / "bad.bhr"
    p.write_text(json.dumps(fileio.representation_to_json(bad)))
    code, report = run_cli(capsys, ["rep", "dual", files["e1"], str(p)])
    assert code == 2 and report["status"] == "error" and report["payload"] == {}
    assert report["diagnostics"] == ["the dual needs a valid representation"]


@pytest.mark.parametrize("subverb", ["dual", "coadjoint"])
def test_rep_dual_and_coadjoint_of_a_non_alternative_algebra_exit2(capsys, tmp_path, subverb):
    # e0·e0 = e0 + e1, e0·e1 = e1, e1·e0 = e0 with identity twists fails both laws at (0, 0, 0); both used to pass
    alg = BiHomAlgebra(2, [[[1, 1], [0, 1]], [[1, 0], [0, 0]]], Matrix.identity(2), Matrix.identity(2))
    p = tmp_path / "two.bha"
    p.write_text(json.dumps(fileio.algebra_to_json(alg)))
    code, report = run_cli(capsys, ["rep", subverb, str(p)])
    assert code == 2 and report["status"] == "error" and report["payload"] == {}
    assert report["diagnostics"] == ["the dual needs a BiHom-alternative algebra (fails left_alternative at (0, 0, 0))"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--degree", "2", "e1", "d2_ad"],
        ["cohomology", "--degree", "2", "d2", "e1_ad"],
        ["rep", "dual", "d2", "e1_ad"],
        ["rep", "dual", "e1", "d2_ad"],
        ["extend", "tstar", "e1", "theta", "d2_ad"],
    ],
    ids=["cohomology-e1-ad_d2", "cohomology-d2-ad_e1", "dual-d2-ad_e1", "dual-e1-ad_d2", "tstar-e1-ad_d2"],
)
def test_a_representation_over_another_dimension_exit2(files, capsys, tmp_path, argv):
    # these used to pass with dim_C 1 or a 1-dimensional dual, or exit 3 with an internal IndexError
    for name, alg in (("e1", make_e1()), ("d2", make_d2())):
        p = tmp_path / f"{name}_ad.bhr"
        p.write_text(json.dumps(fileio.representation_to_json(adjoint(alg))))
        files[f"{name}_ad"] = str(p)
    theta = tmp_path / "theta.bhc"
    theta.write_text(json.dumps({"degree": 2, "alg_dim": 1, "mod_dim": 2, "target": "dual", "tensor": [[["0", "0"]]]}))
    files["theta"] = str(theta)
    code, report = run_cli(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and report["status"] == "error" and report["payload"] == {}
    alg_dim, module_dim = (2, 1) if "e1_ad" in argv else (1, 2)
    assert report["diagnostics"] == [f"representation is over an algebra of dimension {module_dim}, not {alg_dim}"]


def test_derivations_report(files, capsys):
    code, report = run_cli(capsys, ["derivations", "--kind", "der", "--k", "0", "--l", "0", files["d2"]])
    assert code == 0
    assert report["payload"]["kind"] == "Der"
    assert report["payload"]["dim"] == 1

    code2, report2 = run_cli(capsys, ["derivations", "--kind", "cent", "--k", "0", "--l", "0", files["e1"]])
    assert code2 == 0
    assert report2["payload"]["dim"] == 1


def test_derivations_within_the_output_digit_limit(files, capsys):
    code, report = run_cli(capsys, ["derivations", "--kind", "qder", "--k", "5000", "--l", "0", files["d2"]])
    assert code == 0
    assert report["payload"]["dim"] == 2


def test_derivations_beyond_the_output_digit_limit_exit2(files, capsys):
    # d2 has α = diag(1, 2), so α^15000 gives an entry of 4516 digits, more than the default limit prints
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        report = _run_error(capsys, ["derivations", "--kind", "qder", "--k", "15000", "--l", "0", files["d2"]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert report["diagnostics"] == [
        "a result has an integer of 4516 digits, beyond the limit of 4300 digits for integer-string conversion"
    ]


SRC = Path(__file__).resolve().parents[1] / "src"


def _process_env():
    """This environment with the package's sources first on the import path of a child process."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("verb, name, code", [("validate", "d2", 0), ("validate", "broken", 1), ("rep semidirect", "d2", 0)])
def test_a_closed_stdout_keeps_the_exit_code_and_a_silent_stderr(files, unbuffered, verb, name, code):
    env = {k: v for k, v in _process_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read the report
    try:
        argv = [sys.executable, "-m", "bihomalt.cli", *verb.split(), files[name]]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize(
    "argv, code",
    [(["validate", "e1"], 0), (["validate", "broken"], 1), (["validate", "missing"], 2), (["cohomology", "--degree", "4"], 2)],
    ids=["pass", "fail", "unreadable", "usage"],
)
def test_a_process_reports_what_run_reports(files, tmp_path, capsys, argv, code):
    # python -m bihomalt.cli exits through main(): the exit code and stdout bytes are run()'s, and only
    # argparse's usage error writes to stderr
    paths = {**files, "missing": str(tmp_path / "missing.bha")}
    argv = [paths.get(arg, arg) for arg in argv]
    try:
        assert run(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    expected = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "bihomalt.cli", *argv], capture_output=True, env=_process_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out.encode(), expected.err.encode())
    usage = argv[0] == "cohomology"
    assert (proc.stdout == b"", proc.stderr != b"") == (usage, usage)


def test_main_freezes_the_heap_and_still_runs_exit_handlers(files):
    # the interpreter's exit then skips collecting every module's cycles; an exit handler registered before
    # main() runs after it and sees the frozen objects, which os._exit would have skipped
    probe = (
        "import atexit, gc, sys\n"
        "import bihomalt.cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['bihomalt', 'validate', sys.argv[1]]\n"
        "bihomalt.cli.main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, files["e1"]], capture_output=True, env=_process_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"frozen True\n")
    assert json.loads(proc.stdout)["status"] == "pass"


def test_determinism_byte_identical(files, capsys):
    outputs = []
    for _ in range(2):
        code = run(["cohomology", "--degree", "2", files["d2"]])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    assert outputs[0] == outputs[1]


def _run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(captured.out)
    assert code == 2
    assert report["status"] == "error"
    return report


def test_trivialize_negative_max_order_exit2(capsys, tmp_path):
    defm = {"algebra": fileio.algebra_to_json(make_e1()), "terms": [[[["1"]]]]}
    p = tmp_path / "defm.bhd"
    p.write_text(json.dumps(defm))
    report = _run_error(capsys, ["deform", "trivialize", str(p), "--max-order", "-3"])
    assert "order" in report["diagnostics"][0]


@pytest.mark.parametrize("literal", ["1" + "0" * 4400, "1/1" + "0" * 4400])
def test_overlong_rational_string_exit2(capsys, tmp_path, literal):
    p = tmp_path / "long.bha"
    p.write_text(json.dumps({"dim": 1, "mu": [[["1"]]], "alpha": [[literal]], "beta": [["1"]]}))
    report = _run_error(capsys, ["validate", str(p)])
    assert "alpha[0][0]" in report["diagnostics"][0]


def test_overlong_integer_literal_exit2(capsys, tmp_path):
    p = tmp_path / "long.bha"
    p.write_text('{"dim": 1, "mu": [[[1]]], "alpha": [[1' + "0" * 4400 + ']], "beta": [[1]]}')
    _run_error(capsys, ["validate", str(p)])


def test_deeply_nested_json_exit2(capsys, tmp_path):
    depth = 100_000
    p = tmp_path / "deep.bha"
    p.write_text('{"dim": 1, "mu": ' + "[" * depth + "]" * depth + "}")
    report = _run_error(capsys, ["validate", str(p)])
    assert "nested too deeply" in report["diagnostics"][0]


@pytest.mark.parametrize(
    "exc, diagnostic",
    [
        (InternalError("guard tripped"), "internal error: InternalError: guard tripped"),
        (RuntimeError("boom"), "internal error: RuntimeError: boom"),
    ],
)
def test_unexpected_exception_is_an_internal_error_report(files, capsys, monkeypatch, exc, diagnostic):
    def broken(alg):
        raise exc

    monkeypatch.setattr(cli, "validate", broken)
    code = run(["validate", files["e1"]])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert code == 3
    assert json.loads(captured.out) == {
        "status": "error",
        "command": "validate",
        "payload": {},
        "diagnostics": [diagnostic],
    }
