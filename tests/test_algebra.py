from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihomalt.algebra import (
    BiHomAlgebra,
    apply_bilinear,
    associator,
    is_morphism,
    transport,
    validate,
    yau_twist,
)
from bihomalt.cohomology import Cochain
from bihomalt.errors import InputError, MathCheckError
from bihomalt.exactnum import Matrix, unit_vector
from bihomalt.representation import adjoint, semidirect

from conftest import (
    change_basis,
    make_d2,
    make_octonions,
    make_p2,
    make_twisted_octonions,
    random_commuting_invertible_pair,
    random_fraction,
    random_matrix,
    random_noncommuting_algebra,
    random_signed_permutation,
)
from oracle_naive import evaluate, naive_alternative_witnesses, naive_twist_witness


def test_associator_vanishes_on_zero_algebra(z1):
    x, y, z = (1, 2), (3, 4), (5, 6)
    assert associator(z1, x, y, z) == (0, 0)


def test_associator_e1_idempotent(e1):
    e = (1,)
    assert associator(e1, e, e, e) == (0,)


def test_associator_d2_nilpotent(d2):
    xhat = (0, 1)
    one = (1, 0)
    assert associator(d2, xhat, xhat, one) == (0, 0)


def test_associator_dimension_mismatch(e1):
    with pytest.raises(InputError):
        associator(e1, (1, 0), (1,), (1,))


def test_associator_is_trilinear(d2):
    rng = Random(7)
    for _ in range(20):
        x = tuple(random_fraction(rng) for _ in range(2))
        xp = tuple(random_fraction(rng) for _ in range(2))
        y = tuple(random_fraction(rng) for _ in range(2))
        z = tuple(random_fraction(rng) for _ in range(2))
        left = associator(d2, tuple(a + b for a, b in zip(x, xp)), y, z)
        split = tuple(a + b for a, b in zip(associator(d2, x, y, z), associator(d2, xp, y, z)))
        assert left == split


def test_validate_zero_algebra(z1):
    assert validate(z1).ok


def test_validate_e1(e1):
    report = validate(e1)
    assert report.ok and report.witnesses == {}


def test_validate_detects_nonmultiplicative_alpha(e1):
    broken = BiHomAlgebra(1, e1.mu, Matrix([[2]]), e1.beta)
    report = validate(broken)
    assert not report.alpha_multiplicative
    assert report.witnesses["alpha_multiplicative"] == (0, 0)
    assert report.commuting and report.beta_multiplicative


@pytest.mark.parametrize(
    "make",
    [lambda: change_basis(make_d2(), Matrix([[1, Fraction(1, 2)], [0, 2]])), make_twisted_octonions],
    ids=["D2-rational-basis", "twisted-O"],
)
def test_multiplicativity_witnesses_match_the_pointwise_oracle(make):
    # μ read as a degree-2 cochain with twists (α, α) or (β, β); one twist entry perturbed per seed
    alg = make()
    n = alg.dim
    mu = Cochain(2, n, n, [x for row in alg.mu for cell in row for x in cell])
    seen = set()
    for seed in range(6):
        rng = Random(seed)
        twists = [alg.alpha, alg.beta]
        which, i, j = rng.randrange(2), rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in twists[which].rows]
        rows[i][j] += rng.choice([Fraction(1), Fraction(-1), Fraction(1, 3)])
        twists[which] = Matrix(rows)
        for broken in (alg, BiHomAlgebra(n, alg.mu, *twists)):
            witnesses = validate(broken).witnesses
            for name, twist in (("alpha_multiplicative", broken.alpha), ("beta_multiplicative", broken.beta)):
                w = witnesses.get(name)
                assert w == naive_twist_witness(mu, twist, twist)
                seen.add(w is None)
    assert seen == {True, False}


def test_validate_passes_under_basis_permutation(d2):
    # conjugating mu, alpha, beta by a permutation is still a valid algebra
    perm = Matrix([[0, 1], [1, 0]])
    perm_inv = perm.inverse()
    n = d2.dim
    mu = [
        [perm.apply(d2.product(perm_inv.column(i), perm_inv.column(j))) for j in range(n)]
        for i in range(n)
    ]
    permuted = BiHomAlgebra(n, mu, perm * d2.alpha * perm_inv, perm * d2.beta * perm_inv)
    assert validate(permuted).ok


def _quadratic_left_form_vanishes(alg):
    """The left identity as a quadratic form, evaluated on all sums e_i + e_j."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            v = tuple(a + b for a, b in zip(unit_vector(n, i), unit_vector(n, j)))
            for k in range(n):
                w = unit_vector(n, k)
                quad = associator(alg, alg.beta.apply(v), alg.alpha.apply(v), w)
                if any(quad):
                    return False
    return True


def test_polarized_left_identity_matches_quadratic_form(d2):
    # flag from polarized basis pairs == flag from the quadratic form, both directions
    assert validate(d2).left_alternative
    assert _quadratic_left_form_vanishes(d2)
    broken = BiHomAlgebra(
        2,
        [[[0, 1], [0, 0]], [[1, 0], [0, 0]]],
        Matrix.identity(2),
        Matrix.identity(2),
    )
    assert not validate(broken).left_alternative
    assert not _quadratic_left_form_vanishes(broken)


def test_identity_map_is_morphism(d2):
    assert is_morphism(Matrix.identity(2), d2, d2)


def test_zero_map_is_morphism_on_e1(e1):
    assert is_morphism(Matrix([[0]]), e1, e1)


def test_nonmorphism_e1_to_z1(e1, z1):
    assert not is_morphism(Matrix([[1], [0]]), e1, z1)


def test_yau_twist_identity_is_identity(e1):
    twisted = yau_twist(e1, Matrix.identity(1), Matrix.identity(1))
    assert twisted == e1


def test_yau_twist_d2_structure(d2):
    # twist of Q[x]/(x^2) by diag(1,2), diag(1,3)
    assert d2.mu[0][0] == (1, 0)
    assert d2.mu[0][1] == (0, 3)
    assert d2.mu[1][0] == (0, 2)
    assert d2.mu[1][1] == (0, 0)
    assert d2.alpha == Matrix.diagonal([1, 2])
    assert d2.beta == Matrix.diagonal([1, 3])
    assert validate(d2).ok


def test_yau_twist_rejects_nonmultiplicative_map():
    # dim-2 algebra with two orthogonal idempotents; diag(2,1) is not multiplicative
    mu = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    alg = BiHomAlgebra(2, mu, Matrix.identity(2), Matrix.identity(2))
    assert validate(alg).ok
    with pytest.raises(MathCheckError) as err:
        yau_twist(alg, Matrix.diagonal([2, 1]), Matrix.identity(2))
    assert err.value.report is not None


@pytest.mark.parametrize(
    "a2, b2",
    [
        (Matrix.identity(3), Matrix.identity(2)),
        (Matrix.identity(2), Matrix.identity(1)),
        (Matrix([[1, 0, 0], [0, 1, 0]]), Matrix.identity(2)),
        (Matrix.identity(2), Matrix([[1, 0], [0, 1], [0, 0]])),
    ],
    ids=["3x3", "1x1", "2x3", "3x2"],
)
def test_yau_twist_rejects_twists_that_are_not_n_by_n(d2, a2, b2):
    with pytest.raises(InputError, match="Yau twists must be 2x2 matrices"):
        yau_twist(d2, a2, b2)


def test_validate_reports_identities_separately():
    # e0·e0 = e1, e1·e0 = e0: as(e0,e0,e0) = e0 ≠ 0, so both identities fail
    # while the (identity) twists stay multiplicative
    mu = [
        [[0, 1], [0, 0]],
        [[1, 0], [0, 0]],
    ]
    alg = BiHomAlgebra(2, mu, Matrix.identity(2), Matrix.identity(2))
    report = validate(alg)
    assert report.commuting and report.alpha_multiplicative and report.beta_multiplicative
    assert not report.left_alternative
    assert not report.right_alternative
    assert report.witnesses["left_alternative"] == (0, 0, 0)
    assert report.witnesses["right_alternative"] == (0, 0, 0)


def test_p2_is_two_sided_alternative():
    assert validate(make_p2()).ok


@st.composite
def random_algebras(draw):
    """Dimension 1–4, rational mu of random density, twists identity or a random commuting pair."""
    n = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    mu = [
        [[random_fraction(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    if draw(st.booleans()):
        alpha, beta = random_commuting_invertible_pair(rng, n)
    else:
        alpha = beta = Matrix.identity(n)
    return BiHomAlgebra(n, mu, alpha, beta)


@given(random_algebras())
@settings(max_examples=150, deadline=None)
def test_alternative_witnesses_equal_the_pointwise_scans(alg):
    left, right = naive_alternative_witnesses(alg)
    report = validate(alg)
    assert report.witnesses.get("left_alternative") == left
    assert report.witnesses.get("right_alternative") == right
    assert report.left_alternative == (left is None)
    assert report.right_alternative == (right is None)


def test_alternative_witness_scan_sees_each_law_fail_alone():
    # sparse products under diagonal twists with zero entries: each law also fails alone
    rng = Random(5)
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 3)
        mu = [[[rng.choice([0] * 8 + [1, -1]) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        alpha, beta = (Matrix.diagonal([rng.choice([1, -1, 0]) for _ in range(n)]) for _ in range(2))
        alg = BiHomAlgebra(n, mu, alpha, beta)
        left, right = naive_alternative_witnesses(alg)
        report = validate(alg)
        assert (report.witnesses.get("left_alternative"), report.witnesses.get("right_alternative")) == (left, right)
        seen.add((left is None, right is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_noncommuting_twists_keep_the_pointwise_witnesses():
    # with αβ ≠ βα, the twist αβ of the diamond tables cannot be swapped for βα unseen
    for seed in range(20):
        alg = random_noncommuting_algebra(Random(seed))
        report = validate(alg)
        assert alg.alpha * alg.beta != alg.beta * alg.alpha and not report.commuting
        left, right = naive_alternative_witnesses(alg)
        assert (report.witnesses.get("left_alternative"), report.witnesses.get("right_alternative")) == (left, right)


def test_dim8_and_dim16_algebras_validate():
    rng = Random(11)
    o = make_octonions()
    for alg in (
        change_basis(o, random_signed_permutation(rng, 8)),
        make_twisted_octonions(),
        semidirect(o, adjoint(o)),
    ):
        report = validate(alg)
        assert report.ok and report.witnesses == {}


def _pointwise_transport(cochain, out, left, right):
    n = cochain.alg_dim
    return [
        [tuple(out.apply(evaluate(cochain, left.column(i), right.column(j)))) for j in range(n)]
        for i in range(n)
    ]


def _test_matrix(rng, kind, k, l):
    """A k×l matrix: the identity (when square), one with a zero row, or a random rational one."""
    if kind == "identity" and k == l:
        return Matrix.identity(k)
    m = random_matrix(rng, k, l)
    if kind == "singular":
        return Matrix([[0] * l] + [list(row) for row in m.rows[1:]])
    return m


def _as_fractions(d, table):
    return [[tuple(Fraction(v, d) for v in vec) for vec in row] for row in table]


def test_transport_equals_pointwise_evaluation():
    rng = Random(13)
    kinds = ("identity", "singular", "rational")
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        t = Cochain(2, n, m, [random_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(n * n * m)])
        out = _test_matrix(rng, rng.choice(kinds), rng.choice([m, m, 2]), m)
        left, right = (_test_matrix(rng, rng.choice(kinds), n, n) for _ in range(2))
        assert _as_fractions(*transport(t.nested(), out, left, right)) == _pointwise_transport(t, out, left, right)
        # None stands for the identity in each place
        expected = _pointwise_transport(t, Matrix.identity(m), left, Matrix.identity(n))
        assert _as_fractions(*transport(t.nested(), None, left, None)) == expected


# -- point evaluations against plain Fraction sums ------------------------------------------

# every entry non-zero, so each evaluation reads every table entry
dense_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


def _fraction_bilinear(t, x, y):
    """t(x, y) by the definition: Σ x_i·y_j·t[i][j] in Fraction sums."""
    pairs = [(i, j) for i in range(len(x)) for j in range(len(y))]
    return tuple(sum((x[i] * y[j] * t[i][j][k] for i, j in pairs), Fraction(0)) for k in range(len(t[0][0])))


def _fraction_apply(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.rows)


@st.composite
def bilinear_evaluations(draw):
    """(t, x, y): an n×p table of m-vectors, possibly rectangular, and dense x of length n and y of length p."""
    n, p, m = (draw(st.integers(1, 4)) for _ in range(3))
    cells = st.lists(st.lists(dense_rationals | st.just(Fraction(0)), min_size=m, max_size=m), min_size=p, max_size=p)
    t = draw(st.lists(cells, min_size=n, max_size=n))
    return t, draw(st.lists(dense_rationals, min_size=n, max_size=n)), draw(st.lists(dense_rationals, min_size=p, max_size=p))


@given(bilinear_evaluations())
@settings(max_examples=50, deadline=None)
def test_apply_bilinear_equals_the_fraction_sums(case):
    t, x, y = case
    # dense, either side zero, and y with a zero coordinate
    for args in ((x, y), ([0] * len(x), y), (x, [0] * len(y)), (x, [0, *y[1:]])):
        value = apply_bilinear(t, *args)
        assert value == _fraction_bilinear(t, *args)
        assert all(type(v) is Fraction for v in value)


@given(random_algebras(), st.data())
@settings(max_examples=60, deadline=None)
def test_product_and_associator_equal_the_fraction_sums_at_dense_vectors(alg, data):
    x, y, z = (data.draw(st.lists(dense_rationals, min_size=alg.dim, max_size=alg.dim)) for _ in range(3))
    mu = alg.mu
    assert alg.product(x, y) == _fraction_bilinear(mu, x, y)
    left = _fraction_bilinear(mu, _fraction_bilinear(mu, x, y), _fraction_apply(alg.beta, z))
    right = _fraction_bilinear(mu, _fraction_apply(alg.alpha, x), _fraction_bilinear(mu, y, z))
    assert associator(alg, x, y, z) == tuple(a - b for a, b in zip(left, right))


def test_reports_share_no_mutable_default():
    from bihomalt.algebra import AlgebraReport
    from bihomalt.representation import RepresentationReport

    report = RepresentationReport(*[True] * 9)
    assert report.witnesses == {} and report.as_dict()["witnesses"] == {}
    with pytest.raises(TypeError):
        report.witnesses["commuting"] = ()
    assert AlgebraReport(*[True] * 5).witnesses == {}


def test_is_morphism_checks_the_shape(d2, e1):
    # a morphism from D2 to E1 is 1×2; the 2×1 matrix maps E1 into D2
    with pytest.raises(InputError, match="morphism dimensions do not match the algebras"):
        is_morphism(Matrix([[1], [0]]), d2, e1)
