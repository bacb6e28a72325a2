"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The pinned-value test replays every workload in-process on two seeds and
takes about three minutes; deselect it with `-k "not pinned"`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bihomalt import fileio  # noqa: E402
from bihomalt.algebra import validate  # noqa: E402
from bihomalt.deformation import check_deformation  # noqa: E402
from bihomalt.extension import t_theta_extension  # noqa: E402
from bihomalt.genderiv import derivation_space  # noqa: E402
from bihomalt.representation import adjoint  # noqa: E402


def _load(alg):
    return fileio.parse_algebra(gen.algebra_doc(alg))


@pytest.mark.parametrize(
    "make",
    [
        gen.quaternions,
        gen.octonions,
        gen.twisted_octonions,
        gen.d2,
        lambda: gen.semidirect_adjoint(gen.d2()),
        lambda: gen.change_basis(gen.octonions(), *gen.unimodular(Random(5), 8)),
        lambda: gen.change_basis(gen.twisted_octonions(), *gen.signed_permutation(Random(5), 8)),
    ],
)
def test_generated_algebras_validate(make):
    assert validate(_load(make())).ok


def test_octonion_derivations_are_g2():
    # independent of every benchmark pin: Der(O) is the 14-dimensional Lie algebra G2
    assert derivation_space(_load(gen.octonions()), 0, 0).dim == 14


def test_unimodular_pair_is_inverse():
    p, p_inv = gen.unimodular(Random(3), 6)
    assert gen.matmul(p, p_inv) == gen.identity(6)
    assert all(x.denominator == 1 for row in p + p_inv for x in row)


def test_gauge_deformations_satisfy_every_order():
    rng = Random(7)
    to = gen.twisted_octonions()
    f = gen.twist_commutant_element(rng, to)
    assert gen.matmul(f, to[1]) == gen.matmul(to[1], f) and gen.matmul(f, to[2]) == gen.matmul(to[2], f)
    h = gen.quaternions()
    doc = gen.deformation_doc(h, gen.gauge_deformation(h, gen.random_integer_matrix(rng, 4), 4))
    report = check_deformation(fileio.parse_deformation(doc))
    assert report.ok and len(report.order_ok) == 5


def test_coboundary_theta_is_accepted():
    h = gen.quaternions()
    theta = gen.coboundary(h, gen.random_integer_matrix(Random(2), 4))
    cochain, _ = fileio.parse_cochain(gen.cochain_doc(theta, 2, 4, 4))
    alg = _load(h)
    assert validate(t_theta_extension(alg, adjoint(alg), cochain)).ok


def test_span_self_times_sum_to_traced_wall(tmp_path):
    run.setup("cli-corpus", 1, tmp_path, warm=False)
    tracer = spans.Tracer()
    with tracer.installed():
        for job in workloads.jobs_for("cli-corpus")[:20]:
            tracer.job = job.name
            run.run_job_inprocess(job, tmp_path / "inputs")
    own = tracer.self_times()
    assert tracer.spans and min(own) > -1e-6
    assert sum(own) == pytest.approx(tracer.traced_wall(), abs=1e-6)
    layers = tracer.metrics()
    assert sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(tracer.traced_wall(), abs=1e-6)
    assert all(s.parent is None or s.parent < i for i, s in enumerate(tracer.spans))


def test_wrappers_are_removed_afterwards():
    import bihomalt.cohomology as cohomology
    import bihomalt.exactnum as exactnum

    before = (exactnum.rank_nullspace, cohomology.rank_nullspace, exactnum.Subspace.coefficients_of)
    with spans.Tracer().installed():
        assert exactnum.rank_nullspace is not before[0]
        assert cohomology.rank_nullspace is exactnum.rank_nullspace
    assert (exactnum.rank_nullspace, cohomology.rank_nullspace, exactnum.Subspace.coefficients_of) == before


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-corpus", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 3
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pinned_values_hold_on_two_seeds(workload, tmp_path):
    for seed in (11, 12):
        run.setup(workload, seed, tmp_path / str(seed), warm=False)
        outcomes = run.Outcomes()
        for job in workloads.jobs_for(workload):
            outcomes.add(job, *run.run_job_inprocess(job, tmp_path / str(seed) / "inputs"))
        assert outcomes.correct, outcomes.unexpected
        defects = sum(job.known_defect is not None for job in workloads.jobs_for(workload))
        assert outcomes.failed == defects
