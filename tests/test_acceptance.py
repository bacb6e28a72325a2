"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All checks are exact (rational equality), so there are no numeric tolerances
anywhere; randomized checks use fixed seeds and are deterministic.
"""

import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from bihomalt.algebra import validate
from bihomalt.cohomology import (
    Cochain,
    _coboundary,
    _preimage,
    cochain_space,
    complex_report,
    delta,
)
from bihomalt.deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    diamond,
    gauge,
    null_deformation,
    obstruction,
    trivialize,
)
from bihomalt.errors import MathCheckError
from bihomalt.exactnum import Matrix
from bihomalt.extension import (
    annihilator,
    central_extension,
    t_theta_extension,
)
from bihomalt.genderiv import (
    bracket,
    centroid_space,
    derivation_space,
    generalized_derivation_space,
    quasi_centroid_space,
    quasi_derivation_space,
    sgder_space,
)
from bihomalt.representation import (
    Representation,
    adjoint,
    block_sum,
    dual,
    semidirect,
    validate_representation,
)
from bihomalt.cli import run as cli_run
from bihomalt import fileio

from conftest import (
    base_corpus,
    cocycle_sector,
    make_d2,
    make_e1,
    make_zero1,
    perturb_representation,
    product_corpus,
    random_cocycle,
    random_fraction,
    random_valid_representation,
    trivial_representation,
    conjugate_representation,
    random_unimodular,
)
from conftest import Random as _Random  # noqa: F401  (kept for symmetry with conftest)
from oracle_naive import action_at, evaluate, from_function, naive_complex_dims


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def random_compatible_cochain(alg, rep, degree, rng):
    space = cochain_space(alg, rep, degree)
    data = [Fraction(0)] * space.ambient_dim
    for vec in space.basis:
        c = random_fraction(rng)
        if c != 0:
            data = [d + c * v for d, v in zip(data, vec)]
    return Cochain(degree, alg.dim, rep.mod_dim, data)


def small_random_rep(alg, rng):
    """Random valid representation, kept at mod_dim <= 2 for larger algebras."""
    if alg.dim <= 2:
        return random_valid_representation(alg, rng)
    base = trivial_representation(rng, alg.dim, 2)
    if rng.random() < 0.5:
        return conjugate_representation(base, random_unimodular(rng, 2))
    return base


def composed_is_zero(alg, rep, lower_degree):
    """Compose the restricted operators through the compatible bases and test for zero."""
    lower = cochain_space(alg, rep, lower_degree)
    upper = cochain_space(alg, rep, lower_degree + 1)
    if not lower.dim:
        return True
    delta = _coboundary(alg, rep)
    images = [[Fraction(0)] * upper.ambient_dim for _ in range(lower.dim)]
    for r, row in delta(lower_degree, list(lower.columns)).items():
        for j, a in row.items():
            images[j][r] = a
    if not upper.dim:
        return all(not any(img) for img in images)
    cols = []
    for img in images:
        coeffs = upper.coefficients_of(img)
        assert coeffs is not None, "image escaped the compatible cochain space"
        cols.append(coeffs)
    # every row of (upper restriction) · (image coordinates) must vanish
    upper_rows = delta(lower_degree + 1, list(upper.columns))
    return all(
        sum((a * coeffs[j] for j, a in row.items()), Fraction(0)) == 0
        for row in upper_rows.values()
        for coeffs in cols
    )


def test_criterion_01_complex_exactness():
    with criterion(1, "composed operators vanish: d2∘d1 = 0 and d3∘d2 = 0, exactly"):
        rng = Random(101)
        for name, alg in product_corpus():
            assert composed_is_zero(alg, adjoint(alg), 1), (name, "adjoint", 1)
            assert composed_is_zero(alg, adjoint(alg), 2), (name, "adjoint", 2)
            for _ in range(20):
                rep = small_random_rep(alg, rng)
                assert validate_representation(alg, rep).ok
                assert composed_is_zero(alg, rep, 1), (name, 1)
                assert composed_is_zero(alg, rep, 2), (name, 2)


def test_criterion_02_tau12_symmetry():
    with criterion(2, "degree-2 coboundaries are symmetric in their first two inputs"):
        rng = Random(102)
        for name, alg in product_corpus():
            rep = adjoint(alg)
            for _ in range(50):
                f = random_compatible_cochain(alg, rep, 2, rng)
                out = delta(alg, rep, f)
                for i, j, k in itertools.product(range(alg.dim), repeat=3):
                    assert out.value(i, j, k) == out.value(j, i, k), (name, i, j, k)


def test_criterion_03_hand_oracle_cohomology():
    with criterion(3, "cohomology dimensions match hand values and the naive assembly"):
        e1 = make_e1()
        rpt = complex_report(e1, adjoint(e1), 2)
        assert (rpt.dim_C, rpt.dim_Z, rpt.dim_B, rpt.dim_H) == (1, 1, 1, 0)
        zero1 = make_zero1()
        assert complex_report(zero1, adjoint(zero1), 2).dim_H == 1
        for name, alg in base_corpus():
            if alg.dim > 2:
                continue
            rep = adjoint(alg)
            for degree in (2, 3):
                rpt = complex_report(alg, rep, degree)
                assert (rpt.dim_C, rpt.dim_Z, rpt.dim_B, rpt.dim_H) == naive_complex_dims(
                    alg, rep, degree
                ), (name, degree)


def test_criterion_04_semidirect_iff():
    with criterion(4, "representation validity agrees exactly with semidirect validity"):
        rng = Random(104)
        for name, alg in base_corpus():
            for _ in range(20):
                rep = random_valid_representation(alg, rng)
                assert validate_representation(alg, rep).ok == validate(semidirect(alg, rep)).ok
                assert validate_representation(alg, rep).ok
            for _ in range(20):
                rep = perturb_representation(random_valid_representation(alg, rng), rng)
                assert validate_representation(alg, rep).ok == validate(semidirect(alg, rep)).ok, name


def test_criterion_05_dual_representation():
    with criterion(5, "duals validate; double dual equals the twist-corrected actions"):
        regular_reps = []
        for name, alg in base_corpus():
            regular_reps.append((name + " adjoint", alg, adjoint(alg)))
        d2 = make_d2()
        regular_reps.append(("D2 coadjoint", d2, dual(d2, adjoint(d2))))
        for name, alg, rep in regular_reps:
            d = dual(alg, rep)
            assert validate_representation(alg, d).ok, name
            # Iterated dual: the two argument corrections multiply to alpha beta,
            # and the twist corrections conjugate by phi psi, which the
            # intertwining relations undo, so the original actions come back.
            dd = dual(alg, d)
            ab = alg.alpha * alg.beta
            pp = rep.phi * rep.psi
            pp_inv = pp.inverse()
            for i in range(alg.dim):
                left = pp_inv * action_at(rep.l, ab.column(i)) * pp
                right = pp_inv * action_at(rep.r, ab.column(i)) * pp
                assert dd.l[i] == left == rep.l[i], (name, "left", i)
                assert dd.r[i] == right == rep.r[i], (name, "right", i)
            assert dd.phi == rep.phi and dd.psi == rep.psi, name
            # Same-type star applied twice (the l-to-r star on l twice, the
            # r-to-l star on r twice), got by feeding dual the first dual with
            # its actions swapped: here the argument corrections compound to
            # alpha^-3 beta^3 and alpha^3 beta^-3.
            ss = dual(alg, Representation(d.alg_dim, d.mod_dim, d.r, d.l, d.phi, d.psi))
            w_left = alg.alpha.power(-3) * alg.beta.power(3)
            w_right = alg.alpha.power(3) * alg.beta.power(-3)
            for i in range(alg.dim):
                assert ss.r[i] == action_at(rep.l, w_left.column(i)), (name, "l star twice", i)
                assert ss.l[i] == action_at(rep.r, w_right.column(i)), (name, "r star twice", i)


def test_criterion_06_obstructions_are_cocycles():
    with criterion(6, "first obstructions of order-1 deformations are degree-3 cocycles"):
        rng = Random(106)
        for name, alg in base_corpus():
            rep = adjoint(alg)
            for _ in range(20):
                d1 = random_cocycle(alg, rng)
                defm = TruncatedDeformation(alg, [d1])
                obs = obstruction(defm, 2)
                assert obs == diamond(alg, d1, d1)
                assert delta(alg, rep, obs).is_zero(), name


def test_criterion_07_order1_cocycle_condition():
    with criterion(7, "order-1 deformation equation holds iff the first term is a cocycle"):
        rng = Random(107)
        for name, alg in base_corpus():
            rep = adjoint(alg)
            seen_noncocycle = False
            for _ in range(30):
                d1 = random_compatible_cochain(alg, rep, 2, rng)
                defm = TruncatedDeformation(alg, [d1])
                report = check_deformation(defm)
                is_cocycle = delta(alg, rep, d1).is_zero()
                assert report.order_ok[1] == is_cocycle, name
                seen_noncocycle = seen_noncocycle or not is_cocycle
            if name == "D2":
                assert seen_noncocycle, "the sample must include non-cocycles"


def test_criterion_08_rigidity_procedure():
    with criterion(8, "trivialization succeeds at vanishing H2 and fails at nonzero H2"):
        rng = Random(108)
        e1 = make_e1()
        for _ in range(10):
            terms = [Cochain(2, 1, 1, (random_fraction(rng),)) for _ in range(5)]
            defm = TruncatedDeformation(e1, terms)
            assert check_deformation(defm).ok
            iso = trivialize(defm, 5)
            assert iso is not None
            assert check_equivalence(defm, null_deformation(e1).padded(5), iso, 5)
            gauged = _apply_isomorphism(defm, iso, 5)
            assert all(gauged.term(k).is_zero() for k in range(1, 6))
        zero1 = make_zero1()
        defm = TruncatedDeformation(zero1, [Cochain(2, 1, 1, (Fraction(1),))])
        assert trivialize(defm, 1) is None


def _apply_isomorphism(defm, iso, order):
    """d'_k from phi ∘ d_t = d'_t ∘ (phi ⊗ phi), via the power-series inverse of phi."""
    alg = defm.alg
    n = alg.dim
    phis = [iso.term(i, n) for i in range(order + 1)]
    inv = {0: Matrix.identity(n)}
    for k in range(1, order + 1):
        acc = Matrix.zero(n, n)
        for i in range(1, k + 1):
            acc = acc + phis[i] * inv[k - i]
        inv[k] = acc.scale(-1)
    padded = defm.padded(max(defm.order, order))
    terms = []
    for k in range(1, order + 1):
        acc = [Fraction(0)] * (n**3)
        for a in range(k + 1):
            for b in range(k - a + 1):
                if b > padded.order:
                    continue
                term = padded.term(b)
                for c in range(k - a - b + 1):
                    d_ord = k - a - b - c
                    piece = from_function(
                        2, n, n,
                        lambda i_, j_: phis[a].apply(
                            evaluate(term, inv[c].column(i_), inv[d_ord].column(j_))
                        ),
                    )
                    acc = [x + y for x, y in zip(acc, piece.data)]
        terms.append(Cochain(2, n, n, acc))
    return TruncatedDeformation(alg, terms)


def test_criterion_09_equivalence_implies_cohomologous():
    with criterion(9, "first terms of gauge-equivalent deformations differ by a coboundary"):
        rng = Random(109)
        for name, alg in base_corpus():
            rep = adjoint(alg)
            c1 = cochain_space(alg, rep, 1)
            if not c1.dim:
                continue
            preimage = _preimage(alg, rep, 1)
            for _ in range(8):
                d1 = random_cocycle(alg, rng)
                defm = TruncatedDeformation(alg, [d1])
                data = [Fraction(0)] * c1.ambient_dim
                for vec in c1.basis:
                    c = random_fraction(rng)
                    data = [d + c * v for d, v in zip(data, vec)]
                f_cochain = Cochain(1, alg.dim, alg.dim, data)
                f = Matrix(
                    [[f_cochain.value(j)[i] for j in range(alg.dim)] for i in range(alg.dim)]
                )
                gauged = gauge(defm, f, 1, 1)
                step = FormalIsomorphism((f,))
                assert check_equivalence(defm, gauged, step, 1), name
                difference = [
                    a - b for a, b in zip(defm.term(1).data, gauged.term(1).data)
                ]
                assert preimage(difference) is not None, name


def test_criterion_10_extensions():
    with criterion(10, "extension constructors validate, centralize, and match the coboundary"):
        rng = Random(110)
        e1, d2 = make_e1(), make_d2()
        # accepted central extensions validate and keep V inside the annihilator
        accepted = [
            (e1, 1, Cochain(2, 1, 1, (Fraction(0),))),
            (e1, 1, Cochain(2, 1, 1, (Fraction(1),))),
            (e1, 2, Cochain(2, 1, 2, (Fraction(1), Fraction(-2)))),
            (d2, 1, Cochain(2, 2, 1, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))),
        ]
        for alg, v_dim, omega in accepted:
            ext = central_extension(alg, v_dim, omega)
            assert validate(ext).ok
            ann = annihilator(ext)
            for c in range(v_dim):
                unit = tuple(
                    Fraction(int(p == alg.dim + c)) for p in range(alg.dim + v_dim)
                )
                assert ann.coefficients_of(unit) is not None
        # accepted T-extensions validate fully
        for alg in (e1, d2):
            rep = adjoint(alg)
            theta = Cochain.zero(2, alg.dim, alg.dim)
            assert validate(t_theta_extension(alg, rep, theta)).ok
        assert validate(t_theta_extension(e1, adjoint(e1), Cochain(2, 1, 1, (Fraction(1),)))).ok
        # the left cocycle condition, read off the left law of A⊕V, is the degree-2 coboundary, on 51 random thetas
        for name, alg in base_corpus():
            rep = adjoint(alg)
            for _ in range(17):
                theta = random_compatible_cochain(alg, rep, 2, rng)
                residual = delta(alg, rep, theta)
                sector = cocycle_sector(block_sum(alg, rep, theta), alg.dim, False)
                assert sector == {key: residual.value(*key) for key in sector}


def test_criterion_11_generalized_derivations():
    with criterion(11, "derivation-space dimensions, inclusions, brackets and the splitting"):
        e1, d2 = make_e1(), make_d2()
        assert derivation_space(e1, 0, 0).dim == 0
        assert centroid_space(e1, 0, 0).dim == 1
        assert derivation_space(d2, 0, 0).dim == 1
        grid = [(k, l) for k in (-1, 0, 1) for l in (-1, 0, 1)]
        for alg in (e1, d2):
            for k, l in grid:
                der = derivation_space(alg, k, l)
                qder = quasi_derivation_space(alg, k, l)
                sg = sgder_space(alg, k, l)
                gder = generalized_derivation_space(alg, k, l)
                cent = centroid_space(alg, k, l)
                qc = quasi_centroid_space(alg, k, l)
                s_der, s_qder = der.as_subspace(), qder.as_subspace()
                s_sg, s_gder = sg.as_subspace(), gder.as_subspace()
                assert s_qder.contains(s_der) and s_sg.contains(s_qder) and s_gder.contains(s_sg)
                assert qc.as_subspace().contains(cent.as_subspace())
                total = s_qder.sum(qc.as_subspace())
                assert total.contains(s_sg) and s_sg.contains(total)
            for (k, l), (s, t) in itertools.product([(0, 0), (1, 0), (0, 1)], repeat=2):
                der_a = derivation_space(alg, k, l)
                der_b = derivation_space(alg, s, t)
                target = derivation_space(alg, k + s, l + t)
                for a in der_a.basis:
                    for b in der_b.basis:
                        assert target.contains_matrix(bracket(a, b))
                for dmat in der_a.basis:
                    for theta in centroid_space(alg, s, t).basis:
                        assert centroid_space(alg, k + s, l + t).contains_matrix(
                            bracket(dmat, theta)
                        )
                for ta in quasi_centroid_space(alg, k, l).basis:
                    for tb in quasi_centroid_space(alg, s, t).basis:
                        assert quasi_derivation_space(alg, k + s, l + t).contains_matrix(
                            bracket(ta, tb)
                        )


def test_criterion_12_cli_determinism_roundtrip(tmp_path, capsys):
    with criterion(12, "CLI reports are byte-identical and emitted algebras re-validate"):
        paths = {}
        for name, alg in base_corpus():
            p = tmp_path / f"{name}.bha"
            p.write_text(json.dumps(fileio.algebra_to_json(alg)))
            paths[name] = str(p)
        theta = {"degree": 2, "alg_dim": 1, "mod_dim": 1, "tensor": [[["1"]]]}
        theta_path = tmp_path / "theta.bhc"
        theta_path.write_text(json.dumps(theta))
        theta_star = dict(theta, target="dual")
        theta_star_path = tmp_path / "theta_star.bhc"
        theta_star_path.write_text(json.dumps(theta_star))
        emitting = [
            ["rep", "semidirect", paths["E1"]],
            ["rep", "semidirect", paths["D2"]],
            ["extend", "central", paths["E1"], str(theta_path)],
            ["extend", "ttheta", paths["E1"], str(theta_path)],
            ["extend", "tstar", paths["E1"], str(theta_star_path)],
        ]
        for i, argv in enumerate(emitting):
            outputs = []
            for _ in range(2):
                code = cli_run(argv)
                outputs.append(capsys.readouterr().out)
                assert code == 0, argv
            assert outputs[0] == outputs[1], argv
            payload = json.loads(outputs[0])["payload"]
            emitted = tmp_path / f"emitted_{i}.bha"
            emitted.write_text(json.dumps(payload["algebra"]))
            code = cli_run(["validate", str(emitted)])
            capsys.readouterr()
            assert code == 0, argv
        for name in paths:
            outputs = []
            for _ in range(2):
                code = cli_run(["cohomology", "--degree", "2", paths[name]])
                outputs.append(capsys.readouterr().out)
                assert code == 0
            assert outputs[0] == outputs[1]
