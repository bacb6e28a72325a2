from fractions import Fraction
from random import Random

import pytest

from bihomalt import algebra, cohomology, representation
from bihomalt.algebra import AlgebraReport, BiHomAlgebra, _reported, validate
from bihomalt.cohomology import Cochain, cochain_space, complex_report
from bihomalt.errors import InputError, PreconditionError
from bihomalt.exactnum import Matrix
from bihomalt.extension import t_star_theta_extension, t_theta_extension
from bihomalt.representation import (
    Representation,
    RepresentationReport,
    _require_valid,
    _walk_sum,
    adjoint,
    coadjoint,
    dual,
    semidirect,
    validate_representation,
)

from conftest import (
    argument_twisted_adjoint,
    base_corpus,
    change_basis,
    conjugate_representation,
    make_d2,
    make_e1,
    make_octonions,
    make_quaternions,
    make_twisted_octonions,
    perturb_representation,
    random_noncommuting_algebra,
    random_noncommuting_representation,
    random_matrix,
    random_signed_permutation,
    random_unimodular,
    random_valid_representation,
    trivial_representation,
    twist_preserving_signed_permutation,
)
from oracle_naive import action_at, naive_module_sectors, naive_representation_report


def test_trivial_rep_over_z1_is_valid(z1):
    zero = Matrix.zero(1, 1)
    rep = Representation(2, 1, [zero, zero], [zero, zero], Matrix.identity(1), Matrix.identity(1))
    assert validate_representation(z1, rep).ok


def test_adjoint_e1_valid(e1):
    rep = adjoint(e1)
    assert rep.l == (Matrix([[1]]),)
    assert rep.r == (Matrix([[1]]),)
    assert validate_representation(e1, rep).ok


def test_adjoint_e1_perturbed_fails_exchange(e1):
    rep = adjoint(e1)
    bad = Representation(1, 1, rep.l, (Matrix([[2]]),), rep.phi, rep.psi)
    report = validate_representation(e1, bad)
    assert not report.ok
    assert not report.right_exchange


def test_adjoint_d2_matrices(d2):
    rep = adjoint(d2)
    assert rep.l[0] == Matrix.diagonal([1, 3])
    assert rep.r[0] == Matrix.diagonal([1, 2])
    assert rep.l[1] == Matrix([[0, 0], [2, 0]])
    assert rep.r[1] == Matrix([[0, 0], [3, 0]])
    assert rep.phi == d2.alpha and rep.psi == d2.beta
    assert validate_representation(d2, rep).ok


def test_adjoint_z1(z1):
    rep = adjoint(z1)
    assert all(m.is_zero() for m in rep.l + rep.r)
    assert rep.phi == Matrix.identity(2)


def test_semidirect_of_adjoint_is_valid(e1, d2):
    for alg in (e1, d2):
        sd = semidirect(alg, adjoint(alg))
        assert sd.dim == 2 * alg.dim
        assert validate(sd).ok


def test_semidirect_with_zero_rep(d2):
    rep = trivial_representation(Random(3), 2, 2)
    idrep = Representation(2, 2, rep.l, rep.r, Matrix.identity(2), Matrix.identity(2))
    sd = semidirect(d2, idrep)
    assert validate(sd).ok


def test_semidirect_detects_invalid_rep(e1):
    rep = adjoint(e1)
    bad = Representation(1, 1, rep.l, (Matrix([[2]]),), rep.phi, rep.psi)
    assert not validate(semidirect(e1, bad)).ok


@pytest.mark.parametrize("seed", range(6))
def test_semidirect_iff_random_reps(seed):
    rng = Random(seed)
    for _, alg in base_corpus():
        rep = random_valid_representation(alg, rng)
        assert validate_representation(alg, rep).ok
        assert validate(semidirect(alg, rep)).ok
        bad = perturb_representation(rep, rng)
        assert validate_representation(alg, bad).ok == validate(semidirect(alg, bad)).ok


def test_dual_of_e1_adjoint_is_itself(e1):
    d = dual(e1, adjoint(e1))
    assert d.l == (Matrix([[1]]),) and d.r == (Matrix([[1]]),)
    assert validate_representation(e1, d).ok


def test_dual_of_d2_adjoint_valid(d2):
    d = dual(d2, adjoint(d2))
    assert validate_representation(d2, d).ok


def test_dual_requires_invertible_twists(z1):
    rep = adjoint(z1)
    singular = Representation(2, 2, rep.l, rep.r, Matrix.zero(2, 2), rep.psi)
    with pytest.raises(PreconditionError):
        dual(z1, singular)


def test_dual_theorem_on_random_regular_reps():
    rng = Random(11)
    for _, alg in base_corpus():
        for _ in range(6):
            rep = random_valid_representation(alg, rng)
            try:
                d = dual(alg, rep)
            except PreconditionError:
                continue
            assert validate_representation(alg, d).ok


def _pointwise_dual(alg, rep):
    """dual's formula with each action formed at a vector: (φ⁻¹ψ⁻¹ r(α²β⁻¹eᵢ))ᵀ and (φ⁻¹ψ⁻¹ l(α⁻¹β²eᵢ))ᵀ."""
    phi_inv, psi_inv = rep.phi.inverse(), rep.psi.inverse()
    corr = phi_inv * psi_inv
    w_l, w_r = alg.alpha.power(2) * alg.beta.inverse(), alg.alpha.inverse() * alg.beta.power(2)
    l = [(corr * action_at(rep.r, w_l.column(i))).transpose() for i in range(alg.dim)]
    r = [(corr * action_at(rep.l, w_r.column(i))).transpose() for i in range(alg.dim)]
    return Representation(alg.dim, rep.mod_dim, l, r, phi_inv.transpose(), psi_inv.transpose())


def test_dual_pairing_consistency():
    """The composed-transpose construction agrees with the pairing-form matrices.

    Independent path: <L*(x)xi, u> = <xi, l(a^-2 b (x))(phi^-1 psi^-1 u)> pins
    the new right action as (l(a^-2 b x)·(phi psi)^-1)^T; similarly the new left
    action from r(a b^-2 x).
    """
    for _, alg in base_corpus():
        rep = adjoint(alg)
        d = dual(alg, rep)
        corr = rep.phi.inverse() * rep.psi.inverse()
        w_l = alg.alpha * alg.beta.inverse().power(2)
        w_r = alg.alpha.inverse().power(2) * alg.beta
        for i in range(alg.dim):
            left_pairing = (action_at(rep.r, w_l.column(i)) * corr).transpose()
            right_pairing = (action_at(rep.l, w_r.column(i)) * corr).transpose()
            assert d.l[i] == left_pairing
            assert d.r[i] == right_pairing
    # dual reads its actions off transports; rebuild them at vectors and compare, on inputs
    # whose twists are not diagonal or do not commute
    rng = Random(17)
    to = make_twisted_octonions()
    rational = Matrix([[2, Fraction(1, 3), 0, 0], [0, 1, 0, 0], [0, 0, Fraction(1, 2), 1], [0, 0, -1, 3]])
    moved = [
        ("twisted-O", change_basis(to, twist_preserving_signed_permutation(rng, to))),
        ("D2", change_basis(make_d2(), Matrix([[1, Fraction(1, 2)], [0, 2]]))),
        ("H", change_basis(make_quaternions(), rational)),
    ]
    for name, alg in moved:
        reps = [adjoint(alg), conjugate_representation(adjoint(alg), random_unimodular(rng, alg.dim).scale(3))]
        # rational actions under invertible twists with φψ ≠ ψφ: not a representation, but dual is a formula
        actions = [[random_matrix(rng, 2) for _ in range(alg.dim)] for _ in range(2)]
        reps.append(Representation(alg.dim, 2, *actions, Matrix([[1, 1], [0, 1]]), Matrix([[2, 0], [1, 1]])))
        for rep in reps:
            assert dual(alg, rep) == _pointwise_dual(alg, rep), name
        # the dual of a valid representation is valid, with the inverses taken for this basis
        assert validate_representation(alg, dual(alg, reps[0])).ok, name


def test_double_dual_returns_original_actions():
    """Applying the dual construction twice reproduces the original actions exactly."""
    for _, alg in base_corpus():
        rep = adjoint(alg)
        dd = dual(alg, dual(alg, rep))
        assert dd.l == rep.l
        assert dd.r == rep.r
        assert dd.phi == rep.phi and dd.psi == rep.psi


def test_coadjoint_e1(e1):
    co = coadjoint(e1)
    assert co.l == (Matrix([[1]]),) and co.r == (Matrix([[1]]),)
    assert validate_representation(e1, co).ok


def test_coadjoint_d2_valid(d2):
    co = coadjoint(d2)
    assert co.phi == d2.alpha.inverse().transpose()
    assert co.psi == d2.beta.inverse().transpose()
    assert validate_representation(d2, co).ok


def test_semidirect_with_coadjoint(e1, d2):
    for alg in (e1, d2):
        sd = semidirect(alg, coadjoint(alg))
        assert validate(sd).ok


def test_representation_shape_errors():
    with pytest.raises(InputError):
        Representation(2, 2, [Matrix.identity(2)], [Matrix.identity(2)] * 2,
                       Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(InputError):
        Representation(1, 2, [Matrix.identity(3)], [Matrix.identity(3)],
                       Matrix.identity(3), Matrix.identity(3))


# library entry points that take an algebra and a representation over it
ALGEBRA_AND_MODULE = {
    "validate_representation": validate_representation,
    "semidirect": semidirect,
    "dual": dual,
    "cochain_space": lambda alg, rep: cochain_space(alg, rep, 2),
    # the δ·columns factory checks its module when it is built
    "_coboundary": lambda alg, rep: cohomology._coboundary(alg, rep),
    "complex_report": lambda alg, rep: complex_report(alg, rep, 2),
    "t_theta_extension": lambda alg, rep: t_theta_extension(alg, rep, Cochain.zero(2, alg.dim, rep.mod_dim)),
    "t_star_theta_extension": lambda alg, rep: t_star_theta_extension(alg, rep, Cochain.zero(2, alg.dim, rep.mod_dim)),
}


@pytest.mark.parametrize("call", ALGEBRA_AND_MODULE.values(), ids=ALGEBRA_AND_MODULE.keys())
@pytest.mark.parametrize("alg_name, module_name", [("E1", "D2"), ("D2", "E1")])
def test_a_representation_over_another_dimension_is_refused(call, alg_name, module_name):
    # the cochain space of E1 in ad(D2) used to come out 1-dimensional, and dual(D2, ad(E1)) a 1-dimensional dual
    algebras = {"E1": make_e1(), "D2": make_d2()}
    alg, rep = algebras[alg_name], adjoint(algebras[module_name])
    message = f"^representation is over an algebra of dimension {rep.alg_dim}, not {alg.dim}$"
    with pytest.raises(InputError, match=message):
        call(alg, rep)


# -- the integer tables against the pointwise oracle ---------------------------------------

ORACLE_ALGEBRAS = [("D2", make_d2), ("H", make_quaternions), ("O", make_octonions), ("TO", make_twisted_octonions)]


def _oracle_representations(alg, rng):
    """The adjoint, the coadjoint, and the dual of the adjoint in another basis of V.

    The dim-8 basis change is a signed permutation, which keeps the pointwise oracle fast.
    """
    n = alg.dim
    s = random_unimodular(rng, n) if n < 8 else random_signed_permutation(rng, n)
    return [adjoint(alg), coadjoint(alg), dual(alg, conjugate_representation(adjoint(alg), s))]


def _assert_matches_oracle(alg, rep):
    report = validate_representation(alg, rep).as_dict()
    expected = naive_representation_report(alg, rep)
    assert report == expected
    assert list(report["witnesses"]) == list(expected["witnesses"])  # the JSON order
    return report


@pytest.mark.parametrize("name, build", ORACLE_ALGEBRAS)
def test_representation_checks_match_the_pointwise_oracle(name, build):
    alg = build()
    for rep in _oracle_representations(alg, Random(name)):
        assert _assert_matches_oracle(alg, rep)["witnesses"] == {}


@pytest.mark.parametrize("part", ["l", "r", "phi", "psi"])
@pytest.mark.parametrize("name, build", ORACLE_ALGEBRAS)
def test_corrupted_representations_fail_as_the_pointwise_oracle_does(name, build, part):
    rng = Random(f"{name}:{part}")
    alg = build()
    alg = change_basis(alg, twist_preserving_signed_permutation(rng, alg))
    failed = set()
    for rep in _oracle_representations(alg, rng):
        report = _assert_matches_oracle(alg, perturb_representation(rep, rng, part))
        failed.update(report["witnesses"])
    assert failed


def test_noncommuting_twists_match_the_pointwise_oracle():
    # with αβ ≠ βα and φψ ≠ ψφ, neither composed twist of the action tables can be swapped unseen
    for seed in range(20):
        rng = Random(seed)
        alg = random_noncommuting_algebra(rng)
        rep = random_noncommuting_representation(alg, rng)
        assert alg.alpha * alg.beta != alg.beta * alg.alpha and rep.phi * rep.psi != rep.psi * rep.phi
        _assert_matches_oracle(alg, rep)


MODULE_AXIOMS = ("left_square", "right_square", "right_exchange", "left_exchange")


def _module_flags(alg, rep):
    """(validate_representation's module-axiom flags, those of the pointwise sectors of A⊕V)."""
    report = validate_representation(alg, rep).as_dict()
    return {name: report[name] for name in MODULE_AXIOMS}, naive_module_sectors(alg, rep)


def test_noncommuting_module_axioms_are_the_sectors_of_the_semidirect_laws():
    # the twist order of each axiom is the one the laws of A⊕V compose, pinned apart from the pointwise formulas
    failed = set()
    for seed in range(20):
        rng = Random(seed)
        alg = random_noncommuting_algebra(rng)
        flags, sectors = _module_flags(alg, random_noncommuting_representation(alg, rng))
        assert flags == sectors, seed
        failed.update(name for name, ok in flags.items() if not ok)
    assert failed == set(MODULE_AXIOMS)


INTERTWINING = ("phi_left", "phi_right", "psi_left", "psi_right")


@pytest.mark.parametrize("part", ["l", "r", "phi", "psi"])
@pytest.mark.parametrize("name, build", ORACLE_ALGEBRAS[:2])
def test_perturbed_module_axioms_are_the_sectors_of_the_semidirect_laws(name, build, part):
    # the module axioms against the pointwise laws of A⊕V, and the intertwining relations, read off the
    # multiplicativity rows of A⊕V, against the pointwise matrix products (the corrupted-representation
    # test above compares whole reports on O and twisted O too)
    rng = Random(f"sectors:{name}:{part}")
    alg = build()
    for rep in _oracle_representations(alg, rng):
        bad = perturb_representation(rep, rng, part)
        flags, sectors = _module_flags(alg, bad)
        assert flags == sectors
        report, expected = validate_representation(alg, bad).as_dict(), naive_representation_report(alg, bad)
        for key in INTERTWINING:
            assert (report[key], report["witnesses"].get(key)) == (expected[key], expected["witnesses"].get(key))


# -- the precondition of cohomology and the dual: both reports off one walk of A⊕V --------------------


def _one_walk_cases():
    """(name, algebra, representation): the adjoint, a random valid and a perturbed module of E1, D2, H
    and twisted O; random algebras and modules with non-commuting twists; E1 with α = (2), which is not
    multiplicative."""
    rng = Random("one walk")
    cases = []
    for name, build in [("E1", make_e1), ("D2", make_d2), ("H", make_quaternions), ("TO", make_twisted_octonions)]:
        alg = build()
        valid = random_valid_representation(alg, rng)
        reps = {"adjoint": adjoint(alg), "valid": valid, "perturbed": perturb_representation(valid, rng)}
        cases += [(f"{name} {kind}", alg, rep) for kind, rep in reps.items()]
    for k in range(12):
        alg = random_noncommuting_algebra(rng)
        cases.append((f"noncommuting {k} adjoint", alg, adjoint(alg)))
        cases.append((f"noncommuting {k} module", alg, random_noncommuting_representation(alg, rng)))
    e1 = BiHomAlgebra(1, [[[1]]], Matrix([[2]]), Matrix.identity(1))
    cases += [("E1 α=2 adjoint", e1, adjoint(e1)), ("E1 α=2 trivial", e1, trivial_representation(rng, 1, 2))]
    return cases


def _two_walk_verdict(alg, rep):
    """The precondition's message as two walks give it: the algebra's failure first, then the module's."""
    report = validate(alg)
    if not report.ok:
        name, w = min(report.witnesses.items())
        return f"cohomology needs a BiHom-alternative algebra (fails {name} at {tuple(w)})"
    if rep != adjoint(alg) and not validate_representation(alg, rep).ok:
        return "cohomology needs a valid representation"
    return None


def test_the_precondition_reads_both_reports_off_one_walk_of_the_sum():
    # A's own sectors of A⊕V carry validate's names and witnesses, so the algebra's report and the
    # module's are one walk apart from the two separate checks, and the precondition says what they say
    verdicts = set()
    for name, alg, rep in _one_walk_cases():
        found = _walk_sum(alg, rep)[1]
        commuting = None if alg.alpha.commutes_with(alg.beta) else ()
        assert _reported(AlgebraReport, {**found, "commuting": commuting}) == validate(alg), name
        assert _reported(RepresentationReport, found) == validate_representation(alg, rep), name
        expected = _two_walk_verdict(alg, rep)
        try:
            _require_valid(alg, rep, "cohomology")
            verdict = None
        except PreconditionError as exc:
            verdict = str(exc)
        assert verdict == expected, name
        verdicts.add(expected.split(" (")[0] if expected else None)
    assert verdicts == {
        None,
        "cohomology needs a BiHom-alternative algebra",
        "cohomology needs a valid representation",
    }


@pytest.mark.parametrize("check", ["_require_valid", "complex_report"])
def test_a_module_other_than_the_adjoint_is_checked_in_one_walk(monkeypatch, check):
    d2 = make_d2()
    rep = argument_twisted_adjoint(d2, 1, 0)
    assert rep != adjoint(d2)
    walks = []
    real_walk = algebra._walk

    def counted_walk(*args):
        walks.append(args[0].dim)
        return real_walk(*args)

    monkeypatch.setattr(algebra, "_walk", counted_walk)
    monkeypatch.setattr(representation, "_walk", counted_walk)
    if check == "_require_valid":
        _require_valid(d2, rep, "cohomology")
    else:
        assert complex_report(d2, rep, 2).dim_C > 0
    assert walks == [4]  # A⊕V, never A alone


def test_a_module_over_another_dimension_is_refused_before_the_algebra_is_checked():
    # the shape of the module comes first, as at every other entry point: the walk of A⊕V needs it
    e1 = BiHomAlgebra(1, [[[1]]], Matrix([[2]]), Matrix.identity(1))
    assert not validate(e1).ok
    with pytest.raises(InputError, match="^representation is over an algebra of dimension 2, not 1$"):
        _require_valid(e1, adjoint(make_d2()), "cohomology")
