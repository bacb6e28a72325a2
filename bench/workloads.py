"""The three workloads: seeded input files plus the CLI job list that runs on them.

A job is one `bihomalt` command line run against the generated files, with the
exit code, report status and pinned payload values it must produce.  Pinned
values were taken at the commit that introduced the benchmark; every one is
invariant under the seeded change of basis, so one table serves every seed.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Optional

import gen

WORKLOADS = ("cli-corpus", "cochain-complex", "dim8-operators")

VERBS = ("validate", "rep", "cohomology", "deform", "extend", "derivations")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    exit: int
    status: Optional[str]  # None: argparse rejects the command line before any report
    values: dict = field(default_factory=dict)  # dotted payload path -> pinned value
    # a ROADMAP item-5 reproduction: the CLI contract asks for exit 2, the
    # parent commit does otherwise; it stays in the list and counts as failed
    known_defect: Optional[str] = None

    @property
    def verb(self) -> str:
        return self.argv[0]


def _cohom(c, z, b, h):
    return {"payload.dim_C": c, "payload.dim_Z": z, "payload.dim_B": b, "payload.dim_H": h}


def _dim(d):
    return {"payload.dim": d}


OK = {"payload.report.ok": True}  # stands for every flag of the report, see _check_report
ACCEPTED = {"payload.accepted": True, "payload.report.ok": True}


def _job(name, argv, values=None):
    return Job(name, tuple(argv), 0, "pass", dict(values or {}))


def _bad(name, argv, known_defect=None, status="error"):
    return Job(name, tuple(argv), 2, status, {}, known_defect)


# -- input files -------------------------------------------------------------------------


def _write_alg(d: Path, name, alg):
    gen.write_json(d / name, gen.algebra_doc(alg))


def _frame(rng: Random, n, dense=None):
    """(P, P^-1): a seeded signed permutation, applied after a fixed dense unimodular P0 when given.

    Only the signed permutation depends on the seed, so every seed sees inputs
    with the same entry sizes and sparsity, in another order and with other signs.
    """
    s, s_inv = gen.signed_permutation(rng, n)
    if dense is None:
        return s, s_inv
    p0, p0_inv = dense
    return gen.matmul(p0, s), gen.matmul(s_inv, p0_inv)


def _signed(rng, alg):
    return gen.change_basis(alg, *_frame(rng, len(alg[0])))


def _write_deformation(d: Path, name, alg, f, order, frame):
    """The gauge deformation of alg by f, written in the frame's basis."""
    terms = [gen.transform(t, *frame) for t in gen.gauge_deformation(alg, f, order)]
    gen.write_json(d / name, gen.deformation_doc(gen.change_basis(alg, *frame), terms))


def _write_theta(d: Path, name, alg, f, frame):
    """theta = delta1 f with adjoint coefficients, written in the frame's basis."""
    theta = gen.transform(gen.coboundary(alg, f), *frame)
    gen.write_json(d / name, gen.cochain_doc(theta, 2, len(alg[0]), len(alg[0])))


def _cli_corpus_inputs(d: Path, rng: Random, data_dir: Path):
    for src in sorted(data_dir.iterdir()):
        if src.suffix in (".bha", ".bhd", ".bhc"):
            shutil.copyfile(src, d / src.name)
    _write_alg(d, "sd_d2.bha", _signed(rng, gen.semidirect_adjoint(gen.d2())))
    singular = ([[[gen.ZERO] * 2] * 2] * 2, gen.diag([1, 0]), gen.identity(2))
    _write_alg(d, "singular.bha", singular)
    cube = [[[[gen.ONE]]]]
    gen.write_json(d / "degree3.bhc", gen.cochain_doc(cube, 3, 1, 1))
    (d / "truncated.bha").write_text('{"dim": 2, "mu": [[[1, 0], [0, 1]]')
    bad = gen.algebra_doc(gen.d2())
    gen.write_json(d / "dim0.bha", {**bad, "dim": 0})
    gen.write_json(d / "decimal.bha", {**bad, "alpha": [["1.5", "0"], ["0", "2"]]})
    gen.write_json(d / "ragged.bha", {**bad, "mu": bad["mu"][:1]})
    gen.write_json(d / "long_literal.bha", {**bad, "alpha": [["1" + "0" * 4400, "0"], ["0", "2"]]})
    depth = 100_000
    (d / "deep.bha").write_text('{"dim": 1, "mu": ' + "[" * depth + "]" * depth + "}")


def _cli_corpus_jobs():
    jobs = [
        _job("validate-d2", ["validate", "d2.bha"], OK),
        _job("validate-e1", ["validate", "e1.bha"], OK),
        _job("validate-z1", ["validate", "z1.bha"], OK),
        _job("validate-sd_d2", ["validate", "sd_d2.bha"], OK),
        _job("rep-validate-d2", ["rep", "validate", "d2.bha"], OK),
        _job("rep-validate-sd_d2", ["rep", "validate", "sd_d2.bha"], OK),
        _job("rep-dual-d2", ["rep", "dual", "d2.bha"]),
        _job("rep-coadjoint-d2", ["rep", "coadjoint", "d2.bha"]),
        _job("rep-semidirect-d2", ["rep", "semidirect", "d2.bha"], OK),
        _job("rep-semidirect-e1", ["rep", "semidirect", "e1.bha"], OK),
        _job("cohomology-2-e1", ["cohomology", "--degree", "2", "e1.bha"], _cohom(1, 1, 1, 0)),
        _job("cohomology-3-e1", ["cohomology", "--degree", "3", "e1.bha"], _cohom(1, 1, 0, 1)),
        _job("cohomology-2-z1", ["cohomology", "--degree", "2", "z1.bha"], _cohom(8, 8, 0, 8)),
        _job("cohomology-3-z1", ["cohomology", "--degree", "3", "z1.bha"], _cohom(16, 16, 0, 16)),
        _job("cohomology-2-d2", ["cohomology", "--degree", "2", "d2.bha"], _cohom(3, 1, 1, 0)),
        _job("cohomology-3-d2", ["cohomology", "--degree", "3", "d2.bha"], _cohom(4, 3, 2, 1)),
        _job("cohomology-2-sd_d2", ["cohomology", "--degree", "2", "sd_d2.bha"], _cohom(24, 8, 5, 3)),
        _job("deform-check-e1", ["deform", "check", "e1_deformation.bhd"], {"payload.report.ok": True}),
        _job("deform-extend-e1", ["deform", "extend", "e1_deformation.bhd"], {"payload.extended": True}),
        _job(
            "deform-trivialize-e1",
            ["deform", "trivialize", "e1_deformation.bhd", "--max-order", "3"],
            {"payload.trivial": True},
        ),
        _job("extend-central-e1", ["extend", "central", "e1.bha", "e1_theta.bhc"], ACCEPTED),
        _job("extend-ttheta-e1", ["extend", "ttheta", "e1.bha", "e1_theta.bhc"], ACCEPTED),
    ]
    for kind, dims in (
        ("der", (1, 1)),
        ("qder", (2, 2)),
        ("gder", (2, 2)),
        ("sgder", (2, 2)),
        ("cent", (1, 1)),
        ("qcent", (1, 1)),
    ):
        for (k, l), dim in zip(((0, 0), (1, -1)), dims):
            jobs.append(
                _job(f"derivations-{kind}-{k}{l}-d2", ["derivations", "--kind", kind, "--k", str(k), "--l", str(l), "d2.bha"], _dim(dim))
            )
    jobs += [
        _bad("bad-missing-file", ["validate", "missing.bha"]),
        _bad("bad-truncated-json", ["validate", "truncated.bha"]),
        _bad("bad-dim0", ["validate", "dim0.bha"]),
        _bad("bad-decimal-literal", ["validate", "decimal.bha"]),
        _bad("bad-ragged-mu", ["cohomology", "--degree", "2", "ragged.bha"]),
        _bad("bad-degree3-cocycle", ["extend", "ttheta", "e1.bha", "degree3.bhc"]),
        _bad("bad-singular-dual", ["rep", "dual", "singular.bha"]),
        _bad("bad-singular-exponent", ["derivations", "--kind", "der", "--k", "-1", "--l", "0", "singular.bha"]),
        _bad("bad-degree-choice", ["cohomology", "--degree", "4", "e1.bha"], status=None),
        _bad(
            "bad-negative-max-order",
            ["deform", "trivialize", "e1_deformation.bhd", "--max-order", "-3"],
            known_defect="vacuous pass: reports trivial=true with exit 0",
        ),
        _bad(
            "bad-long-literal",
            ["validate", "long_literal.bha"],
            known_defect="ValueError traceback with exit 1",
        ),
        _bad(
            "bad-deep-json",
            ["validate", "deep.bha"],
            known_defect="RecursionError traceback with exit 1",
        ),
    ]
    return jobs


def _cochain_complex_inputs(d: Path, rng: Random, fixed: Random):
    h = gen.quaternions()
    frame = _frame(rng, 4)
    _write_alg(d, "h.bha", gen.change_basis(h, *frame))
    _write_alg(d, "to.bha", _signed(rng, gen.twisted_octonions()))
    _write_deformation(d, "h_order3.bhd", h, gen.random_integer_matrix(fixed, 4), 3, frame)
    _write_theta(d, "h_theta.bhc", h, gen.random_integer_matrix(fixed, 4), frame)


def _cochain_complex_jobs():
    return [
        _job("cohomology-2-h", ["cohomology", "--degree", "2", "h.bha"], _cohom(64, 13, 13, 0)),
        _job("cohomology-2-to", ["cohomology", "--degree", "2", "to.bha"], _cohom(128, 14, 14, 0)),
        _job("deform-extend-h", ["deform", "extend", "h_order3.bhd"], {"payload.extended": True}),
        _job("extend-ttheta-h", ["extend", "ttheta", "h.bha", "h_theta.bhc"], ACCEPTED),
    ]


def _dim8_inputs(d: Path, rng: Random, fixed: Random):
    o, to, h = gen.octonions(), gen.twisted_octonions(), gen.quaternions()
    _write_alg(d, "o.bha", _signed(rng, o))
    _write_alg(d, "o_dense.bha", gen.change_basis(o, *_frame(rng, 8, gen.unimodular(fixed, 8))))
    _write_alg(d, "to.bha", _signed(rng, to))
    _write_alg(d, "sd_o.bha", _signed(rng, gen.semidirect_adjoint(o)))
    _write_deformation(d, "to_order4.bhd", to, gen.twist_commutant_element(fixed, to), 4, _frame(rng, 8))
    _write_deformation(d, "h_order8.bhd", h, gen.random_integer_matrix(fixed, 4), 8, _frame(rng, 4))


def _dim8_jobs():
    jobs = [
        _job("validate-sd_o", ["validate", "sd_o.bha"], OK),
        _job("validate-o_dense", ["validate", "o_dense.bha"], OK),
        _job("rep-validate-o", ["rep", "validate", "o.bha"], OK),
        _job("rep-semidirect-o", ["rep", "semidirect", "o.bha"], OK),
    ]
    for kind, dim in (("der", 14), ("gder", 29), ("sgder", 15), ("qcent", 1)):
        jobs.append(_job(f"derivations-{kind}-00-o_dense", ["derivations", "--kind", kind, "--k", "0", "--l", "0", "o_dense.bha"], _dim(dim)))
    for k, l in ((1, 0), (1, 1), (0, 1)):
        for kind, dim in (("der", 2), ("gder", 5), ("sgder", 3)):
            jobs.append(
                _job(f"derivations-{kind}-{k}{l}-to", ["derivations", "--kind", kind, "--k", str(k), "--l", str(l), "to.bha"], _dim(dim))
            )
    for kind, dim in (("der", 29), ("gder", 59), ("sgder", 31)):
        jobs.append(_job(f"derivations-{kind}-00-sd_o", ["derivations", "--kind", kind, "--k", "0", "--l", "0", "sd_o.bha"], _dim(dim)))
    jobs += [
        _job("deform-check-to4", ["deform", "check", "to_order4.bhd"], {"payload.report.ok": True}),
        _job("deform-trivialize-to4", ["deform", "trivialize", "to_order4.bhd", "--max-order", "4"], {"payload.trivial": True}),
        _job("deform-check-h8", ["deform", "check", "h_order8.bhd"], {"payload.report.ok": True}),
        _job("deform-trivialize-h8", ["deform", "trivialize", "h_order8.bhd", "--max-order", "8"], {"payload.trivial": True}),
    ]
    return jobs


def make_inputs(workload: str, seed: int, directory: Path, data_dir: Path):
    """Write the workload's input files for this seed into an empty directory."""
    # the seed draws only signed permutations; coefficients come from a fixed stream
    rng, fixed = Random(f"{workload}:{seed}"), Random(f"{workload}:fixed")
    if workload == "cli-corpus":
        _cli_corpus_inputs(directory, rng, data_dir)
    elif workload == "cochain-complex":
        _cochain_complex_inputs(directory, rng, fixed)
    elif workload == "dim8-operators":
        _dim8_inputs(directory, rng, fixed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def jobs_for(workload: str) -> list[Job]:
    table = {
        "cli-corpus": _cli_corpus_jobs,
        "cochain-complex": _cochain_complex_jobs,
        "dim8-operators": _dim8_jobs,
    }
    if workload not in table:
        raise ValueError(f"unknown workload {workload!r}")
    return table[workload]()


# -- output checks -------------------------------------------------------------------------


def _lookup(doc, path):
    node = doc
    for key in path.split("."):
        node = node[key]
    return node


def check(job: Job, exit_code: int, stdout: bytes) -> list[str]:
    """Every way the job's result departs from its expectation; empty when it is right."""
    problems = []
    if exit_code != job.exit:
        problems.append(f"exit {exit_code}, expected {job.exit}")
    if job.status is None:
        if stdout.strip():
            problems.append("expected no report on stdout")
        return problems
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    if not isinstance(doc, dict) or doc.get("status") != job.status:
        got = doc.get("status") if isinstance(doc, dict) else None
        problems.append(f"status {got!r}, expected {job.status!r}")
        return problems
    for path, want in job.values.items():
        if path == "payload.report.ok":
            problems += _check_report(doc)
            continue
        try:
            got = _lookup(doc, path)
        except (KeyError, TypeError):
            problems.append(f"{path} missing")
            continue
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems


def _check_report(doc) -> list[str]:
    report = doc.get("payload", {}).get("report")
    if not isinstance(report, dict):
        return ["payload.report missing"]
    flags = {k: v for k, v in report.items() if isinstance(v, (bool, list))}
    if not flags:
        return ["payload.report has no flags"]
    bad = [k for k, v in flags.items() if v is False or (isinstance(v, list) and not all(v))]
    if report.get("witnesses"):
        bad.append("witnesses")
    return [f"payload.report.{k} failed" for k in bad]
