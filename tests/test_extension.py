from fractions import Fraction
from random import Random

import pytest

import bihomalt.algebra as algebra
import bihomalt.extension as extension
import bihomalt.representation as representation
from bihomalt.algebra import BiHomAlgebra, _walk, validate
from bihomalt.cohomology import Cochain, cochain_space, delta, twist_witness
from bihomalt.errors import InputError, MathCheckError, PreconditionError
from bihomalt.exactnum import Matrix
from bihomalt.extension import (
    annihilator,
    central_extension,
    t_star_theta_extension,
    t_theta_extension,
)
from bihomalt.representation import (
    Representation,
    adjoint,
    block_sum,
    coadjoint,
    dual,
    semidirect,
    validate_representation,
)

from conftest import (
    base_corpus,
    cocycle_sector,
    cocycle_space,
    make_d2,
    make_e1,
    make_p2,
    make_quaternions,
    perturb_representation,
    product_corpus,
    random_fraction,
    random_valid_representation,
    zero_bilinear,
)
from oracle_naive import evaluate, naive_right_cocycle_residual


def test_annihilator_of_zero_algebra(z1):
    assert annihilator(z1).dim == 2


def test_annihilator_of_e1(e1):
    assert annihilator(e1).dim == 0


def test_annihilator_of_central_extension(e1):
    ext = central_extension(e1, 1, [[[0]]])
    ann = annihilator(ext)
    assert ann.dim == 1
    assert ann.coefficients_of((0, 1)) is not None


def test_central_extension_zero_omega(e1):
    ext = central_extension(e1, 1, [[[0]]])
    assert ext.dim == 2
    assert validate(ext).ok


def test_central_extension_e1_nontrivial(e1):
    ext = central_extension(e1, 1, [[[1]]])
    assert validate(ext).ok
    # (e+u)(e+v) = e + 1: the A-part is idempotent, the V-part carries omega
    assert ext.product((1, 0), (1, 0)) == (1, 1)
    assert annihilator(ext).coefficients_of((0, 1)) is not None


def test_central_extension_d2_rejects_bad_omega(d2):
    omega = [[[1], [0]], [[0], [1]]]  # omega(x^, x^) = 1 breaks alpha-invariance
    with pytest.raises(MathCheckError) as err:
        central_extension(d2, 1, omega)
    assert err.value.condition == "alpha_invariance"
    assert err.value.witness == (1, 1)


def test_central_extension_d2_accepts_unit_supported_omega(d2):
    omega = [[[1], [0]], [[0], [0]]]
    ext = central_extension(d2, 1, omega)
    assert validate(ext).ok
    assert annihilator(ext).coefficients_of((0, 0, 1)) is not None


def test_central_conditions_match_trivial_coefficient_cocycles():
    """With V acted on trivially, the twist-invariance plus the left mixed condition
    are exactly membership in the degree-2 cocycle space with trivial coefficients."""
    rng = Random(71)
    for _, alg in base_corpus():
        n = alg.dim
        zero = Matrix.zero(1, 1)
        trivial = Representation(n, 1, [zero] * n, [zero] * n, Matrix.identity(1), Matrix.identity(1))
        space = cochain_space(alg, trivial, 2)
        for trial in range(12):
            data = [random_fraction(rng) for _ in range(n * n)]
            omega = Cochain(2, n, 1, data)
            compatible = all(
                evaluate(omega, alg.alpha.column(i), alg.alpha.column(j)) == omega.value(i, j)
                and evaluate(omega, alg.beta.column(i), alg.beta.column(j)) == omega.value(i, j)
                for i in range(n)
                for j in range(n)
            )
            in_z2 = compatible and delta(alg, trivial, omega).is_zero()
            left_family_passes = True
            try:
                central_extension(alg, 1, omega.nested())
            except MathCheckError as err:
                if err.condition in ("alpha_invariance", "beta_invariance", "left_condition"):
                    left_family_passes = False
            assert left_family_passes == in_z2


def test_t_theta_zero_theta_is_semidirect(d2):
    rep = adjoint(d2)
    theta = Cochain.zero(2, 2, 2)
    ext = t_theta_extension(d2, rep, theta)
    assert ext == semidirect(d2, rep)
    assert validate(ext).ok


def test_t_theta_coboundary_theta(e1):
    rep = adjoint(e1)
    g = Cochain(1, 1, 1, (Fraction(3),))
    theta = delta(e1, rep, g)
    ext = t_theta_extension(e1, rep, theta)
    assert validate(ext).ok


def test_the_cocycle_conditions_leave_the_base_algebras_failures_to_validate():
    # α = (2) is not multiplicative on E1, and both laws fail on A; the zero ω satisfies every condition on ω
    bad = BiHomAlgebra(1, [[[1]]], Matrix([[2]]), Matrix([[1]]))
    ext = central_extension(bad, 1, [[[0]]])
    assert ext.dim == 2
    report = validate(ext)
    assert not (report.alpha_multiplicative or report.left_alternative or report.right_alternative)
    # the A-output of the same law pairings: unfiltered, the left law would have raised left_condition
    def every_failure(right, x, y, z, val):
        return ("right" if right else "left", (x, y, z)) if any(val) else None

    assert _walk(ext, lambda twist, t, c: None, every_failure) == {"left": (0, 0, 0), "right": (0, 0, 0)}


def test_an_accepted_extension_has_the_validation_report_of_its_base():
    # no product with an input in V has an A-component and every V-output sector is checked by the
    # extension, so `extend` reports validate(A) for E_theta; failures included, at the same witnesses
    rng = Random(97)
    accepted = 0
    for _, alg in product_corpus() + [("H", make_quaternions())]:
        builds = (
            (lambda theta: central_extension(alg, 1, theta), _trivial(alg)),
            (lambda theta: t_theta_extension(alg, adjoint(alg), theta), adjoint(alg)),
            (lambda theta: t_star_theta_extension(alg, adjoint(alg), theta), coadjoint(alg)),
        )
        for build, rep in builds:
            cocycles = cocycle_space(alg, rep, 2)
            for _ in range(3):
                data = [Fraction(0)] * cocycles.ambient_dim
                for vec in cocycles.basis:
                    c = random_fraction(rng)
                    data = [d + c * v for d, v in zip(data, vec)]
                try:
                    ext = build(Cochain(2, alg.dim, rep.mod_dim, data))
                except MathCheckError:
                    continue  # a left cocycle may fail the right condition
                assert validate(ext).as_dict() == validate(alg).as_dict()
                accepted += 1
    assert accepted >= 60
    bad = BiHomAlgebra(1, [[[1]]], Matrix([[2]]), Matrix([[1]]))
    report = validate(central_extension(bad, 1, [[[0]]])).as_dict()
    assert report == validate(bad).as_dict()
    assert report["witnesses"]["left_alternative"] == report["witnesses"]["right_alternative"] == [0, 0, 0]


def test_t_theta_e1_hand_case(e1):
    rep = adjoint(e1)
    theta = Cochain(2, 1, 1, (Fraction(1),))
    ext = t_theta_extension(e1, rep, theta)
    assert validate(ext).ok
    # (e+0)∘(e+0) = e·e + theta(e,e) = e + 1
    assert ext.product((1, 0), (1, 0)) == (1, 1)


def test_t_theta_left_residual_equals_delta2():
    rng = Random(73)
    nonzero = 0
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        for _ in range(10):
            data = [Fraction(0)] * space.ambient_dim
            for vec in space.basis:
                c = random_fraction(rng)
                data = [d + c * v for d, v in zip(data, vec)]
            theta = Cochain(2, alg.dim, rep.mod_dim, data)
            residual = delta(alg, rep, theta)
            sector = cocycle_sector(block_sum(alg, rep, theta), alg.dim, False)
            assert sector == {key: residual.value(*key) for key in sector}
            nonzero += not residual.is_zero()
    assert nonzero >= 10


def test_right_residual_equals_the_pointwise_condition():
    """Any theta, valid or perturbed coefficients: no compatibility is assumed on either side.

    The right condition R at (z, x, y), symmetric in its last two inputs, is minus
    the V-output of the left law of opposite(A⊕V) at (x, y, z).
    """
    rng = Random(89)
    nonzero = 0
    for _, alg in product_corpus() + [("H", make_quaternions())]:
        for _ in range(3):
            rep = random_valid_representation(alg, rng)
            if rng.random() < 0.3:
                rep = perturb_representation(rep, rng)
            size = rep.mod_dim * alg.dim**2
            theta = Cochain(2, alg.dim, rep.mod_dim, [random_fraction(rng) for _ in range(size)])
            residual = naive_right_cocycle_residual(alg, rep, theta)
            sector = cocycle_sector(block_sum(alg, rep, theta), alg.dim, True)
            assert sector == {(x, y, z): tuple(-c for c in residual.value(z, x, y)) for x, y, z in sector}
            nonzero += not residual.is_zero()
    assert nonzero > 10


def test_t_theta_validity_equivalence():
    """Acceptance of (alg, rep, theta) coincides with full validation of the assembled algebra."""
    rng = Random(79)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        for _ in range(10):
            data = [Fraction(0)] * space.ambient_dim
            for vec in space.basis:
                c = random_fraction(rng)
                data = [d + c * v for d, v in zip(data, vec)]
            # randomly also break compatibility sometimes
            if rng.random() < 0.4 and data:
                idx = rng.randrange(len(data))
                data[idx] += Fraction(1)
            theta = Cochain(2, alg.dim, rep.mod_dim, data)
            accepted = True
            try:
                t_theta_extension(alg, rep, theta)
            except MathCheckError:
                accepted = False
            assembled_ok = validate(block_sum(alg, rep, theta)).ok
            assert accepted == assembled_ok


def test_t_theta_rejects_invalid_rep(e1):
    rep = adjoint(e1)
    bad = Representation(1, 1, rep.l, (Matrix([[2]]),), rep.phi, rep.psi)
    with pytest.raises(PreconditionError):
        t_theta_extension(e1, bad, Cochain.zero(2, 1, 1))


@pytest.mark.parametrize("part", ["l", "r", "phi", "psi"])
def test_the_t_theta_precondition_is_the_representation_verdict(part):
    # the precondition is read off the RepresentationReport of the one walk of E_theta, whatever theta is
    rng = Random(f"precondition:{part}")
    verdicts = set()
    draws = [(alg, random_valid_representation(alg, rng)) for _, alg in product_corpus() + [("H", make_quaternions())] for _ in range(2)]
    for alg, base in draws:
        for rep in (base, perturb_representation(base, rng, part)):
            valid = validate_representation(alg, rep).ok
            size = rep.mod_dim * alg.dim**2
            for theta in (Cochain.zero(2, alg.dim, rep.mod_dim), Cochain(2, alg.dim, rep.mod_dim, [random_fraction(rng) for _ in range(size)])):
                try:
                    t_theta_extension(alg, rep, theta)
                    rejected = False
                except PreconditionError:
                    rejected = True
                except MathCheckError:
                    rejected = False
                assert rejected == (not valid)
            verdicts.add(valid)
    assert verdicts == {True, False}


def test_t_star_zero_theta_is_coadjoint_semidirect(e1):
    ext = t_star_theta_extension(e1, adjoint(e1), Cochain.zero(2, 1, 1))
    assert ext == semidirect(e1, coadjoint(e1))
    assert validate(ext).ok


def test_t_star_e1_dual_basis_theta(e1):
    theta = Cochain(2, 1, 1, (Fraction(1),))
    ext = t_star_theta_extension(e1, adjoint(e1), theta)
    assert validate(ext).ok


def test_t_star_d2_zero_theta(d2):
    ext = t_star_theta_extension(d2, adjoint(d2), Cochain.zero(2, 2, 2))
    assert ext.dim == 4
    assert validate(ext).ok
    assert ext == semidirect(d2, dual(d2, adjoint(d2)))


def test_t_star_rejects_noninvertible_twists(z1):
    rep = adjoint(z1)
    singular = Representation(2, 2, rep.l, rep.r, Matrix.zero(2, 2), rep.psi)
    with pytest.raises(PreconditionError):
        t_star_theta_extension(z1, singular, Cochain.zero(2, 2, 2))


def test_central_extension_input_errors(e1):
    with pytest.raises(InputError):
        central_extension(e1, 0, [[[]]])


_CENTRAL_TO_T_THETA = {
    "alpha_invariance": "twist_compatibility",
    "beta_invariance": "twist_compatibility",
    "left_condition": "left_cocycle",
    "right_condition": "right_cocycle",
}


@pytest.mark.parametrize("v_dim", [1, 2])
def test_central_extension_is_t_theta_over_the_trivial_module(v_dim):
    """Same acceptance, witness and algebra as T_theta with l = r = 0 and identity twists.

    Beyond the product corpus, P2 and a left-unital algebra fail the left and
    right conditions, and a zero algebra with twists I, diag(1, −1) fails
    beta-invariance alone.
    """
    rng = Random(83 + v_dim)
    left_unital = BiHomAlgebra(2, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]], Matrix.identity(2), Matrix.identity(2))
    beta_only = BiHomAlgebra(2, zero_bilinear(2), Matrix.identity(2), Matrix.diagonal([1, -1]))
    for alg in [a for _, a in product_corpus()] + [make_p2(), left_unital, beta_only]:
        n = alg.dim
        zero, one = Matrix.zero(v_dim, v_dim), Matrix.identity(v_dim)
        trivial = Representation(n, v_dim, [zero] * n, [zero] * n, one, one)
        space = cochain_space(alg, trivial, 2)
        for _ in range(12):
            data = [Fraction(0)] * space.ambient_dim
            for vec in space.basis:
                c = random_fraction(rng)
                data = [d + c * v for d, v in zip(data, vec)]
            if rng.random() < 0.4:
                data[rng.randrange(len(data))] += Fraction(1)
            omega = Cochain(2, n, v_dim, data)
            try:
                central = central_extension(alg, v_dim, omega)
            except MathCheckError as err:
                with pytest.raises(MathCheckError) as t_err:
                    t_theta_extension(alg, trivial, omega)
                assert _CENTRAL_TO_T_THETA[err.condition] == t_err.value.condition
                assert err.witness == t_err.value.witness
            else:
                assert central == block_sum(alg, trivial, omega)
                assert central == t_theta_extension(alg, trivial, omega)


# -- the sectors of E_theta: theta's twist check, the precondition and the order of the failures -----------------

# a zero algebra whose twists flip e2 and e1: every product-free condition holds, so only the twists can fail
SIGNS = BiHomAlgebra(3, zero_bilinear(3), Matrix.diagonal([1, 1, -1]), Matrix.diagonal([1, -1, 1]))


def _trivial(alg, v_dim=1):
    zero, one = Matrix.zero(v_dim, v_dim), Matrix.identity(v_dim)
    return Representation(alg.dim, v_dim, [zero] * alg.dim, [zero] * alg.dim, one, one)


def _first_twist_failure(alg, rep, theta):
    """theta's first twist failure as the cochain check reads it: the smaller witness, φ first on a tie."""
    hits = [(twist_witness(theta, a, v), key) for key, a, v in (("phi", alg.alpha, rep.phi), ("psi", alg.beta, rep.psi))]
    return min((hit for hit in hits if hit[0] is not None), default=None)


def _failure(build, *args):
    try:
        build(*args)
    except MathCheckError as err:
        return err.condition, err.witness
    return None


@pytest.mark.parametrize(
    "entries, expected",
    [
        ({(1, 2): 1}, ("phi", (1, 2))),  # both fail at (1, 2): the tie goes to φ
        ({(0, 1): 1, (0, 2): 1}, ("psi", (0, 1))),  # φ fails at (0, 2), ψ at (0, 1)
        ({(0, 2): 1, (1, 2): 1}, ("phi", (0, 2))),  # φ fails at (0, 2), ψ at (1, 2)
    ],
)
def test_a_theta_failing_both_twists_reports_the_smaller_witness(entries, expected):
    rep = _trivial(SIGNS)
    theta = Cochain(2, 3, 1, [entries.get((i, j), 0) for i in range(3) for j in range(3)])
    assert _first_twist_failure(SIGNS, rep, theta)[::-1] == expected
    key, witness = expected
    central = {"phi": "alpha_invariance", "psi": "beta_invariance"}[key]
    assert _failure(central_extension, SIGNS, 1, theta) == (central, witness)
    assert _failure(t_theta_extension, SIGNS, rep, theta) == ("twist_compatibility", witness)


def test_random_thetas_fail_as_the_cochain_twist_check_and_the_cocycle_sectors_say():
    # the first failure of T_theta is theta's cochain twist check when it fails, else the V-output sectors of the laws
    rng = Random(97)
    seen = set()
    for alg in (SIGNS, make_d2(), make_quaternions()):
        rep = adjoint(alg) if alg is not SIGNS else _trivial(SIGNS, 2)
        for trial in range(8):
            data = [rng.choice([0, 0, 1, -1, Fraction(1, 2)]) if trial else 0 for _ in range(rep.mod_dim * alg.dim**2)]
            theta = Cochain(2, alg.dim, rep.mod_dim, data)
            failure = _failure(t_theta_extension, alg, rep, theta)
            twist = _first_twist_failure(alg, rep, theta)
            if twist is not None:
                assert failure == ("twist_compatibility", twist[0])
            else:
                ext = block_sum(alg, rep, theta)
                # a right-law witness is in the law's order (z, x, y)
                left = min((k for k, v in cocycle_sector(ext, alg.dim, False).items() if any(v)), default=None)
                right = min((k[2:] + k[:2] for k, v in cocycle_sector(ext, alg.dim, True).items() if any(v)), default=None)
                expected = ("left_cocycle", left) if left else ("right_cocycle", right) if right else None
                assert failure == expected
            seen.add(failure and failure[0])
    assert seen >= {"twist_compatibility", "left_cocycle", None}


@pytest.mark.parametrize(
    "rep",
    [
        # φψ ≠ ψφ with zero actions: only the commuting check fails
        Representation(3, 2, [Matrix.zero(2, 2)] * 3, [Matrix.zero(2, 2)] * 3, Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])),
        # l = r = I fails the intertwining relations at e1, e2 and every module axiom
        Representation(3, 1, [Matrix.identity(1)] * 3, [Matrix.identity(1)] * 3, Matrix.identity(1), Matrix.identity(1)),
    ],
    ids=["noncommuting", "identity-actions"],
)
def test_an_invalid_module_raises_the_precondition_before_any_theta_check(rep):
    assert not validate_representation(SIGNS, rep).ok
    theta = Cochain(2, 3, rep.mod_dim, [1] * (9 * rep.mod_dim))
    assert _failure(t_theta_extension, SIGNS, _trivial(SIGNS, rep.mod_dim), theta)[0] == "twist_compatibility"
    with pytest.raises(PreconditionError, match="^coefficients are not a valid representation$"):
        t_theta_extension(SIGNS, rep, theta)
    # E_theta needs theta, so a theta of the wrong shape is reported first
    with pytest.raises(InputError, match="^tensor axis length does not match the algebra dimension$"):
        t_theta_extension(SIGNS, rep, [[[0]]])


def test_t_theta_walks_one_algebra(monkeypatch):
    # one block_sum, one pass over its rows per twist and one over its pairing per law: the precondition is
    # read off the same passes, with no second algebra and no per-action or per-cochain twist check; the
    # extension builds E_theta only through the walk of representation._walk_sum
    assert not hasattr(extension, "block_sum")
    counts = {"block_sum": 0, "_twist_rows": 0, "_pairing": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((representation, "block_sum"), (algebra, "_twist_rows"), (algebra, "_pairing")):
        counted(module, name)
    h = make_quaternions()
    t_theta_extension(h, adjoint(h), Cochain.zero(2, 4, 4))
    assert counts == {"block_sum": 1, "_twist_rows": 2, "_pairing": 2}
