import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from bihomalt import deformation, exactnum
from bihomalt.algebra import BiHomAlgebra, validate
from bihomalt.cohomology import Cochain, cochain_space, complex_report, delta
from bihomalt.deformation import (
    FormalIsomorphism,
    TruncatedDeformation,
    check_deformation,
    check_equivalence,
    diamond,
    extend_one_order,
    gauge,
    null_deformation,
    obstruction,
    trivialize,
)
from bihomalt.errors import InputError, PreconditionError
from bihomalt.exactnum import Matrix
from bihomalt.fileio import load_deformation
from bihomalt.genderiv import commutant
from bihomalt.representation import adjoint, semidirect

from conftest import (
    OCTONION_TWISTS,
    base_corpus,
    change_basis,
    make_d2,
    make_e1,
    make_p2,
    make_quaternions,
    make_twisted_octonions,
    make_zero1,
    random_cocycle,
    random_fraction,
    random_signed_permutation,
)
from oracle_naive import evaluate, from_function, naive_diamond, naive_gauge

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
DATA = Path(__file__).resolve().parents[1] / "data"


def scalar_term(c):
    return Cochain(2, 1, 1, (Fraction(c),))


def test_null_deformation_passes_everywhere():
    for _, alg in base_corpus():
        report = check_deformation(null_deformation(alg))
        assert report.ok and report.order_ok == (True,)


@pytest.mark.parametrize("path", [DATA / "e1_deformation.bhd", GOLDEN_INPUTS / "z3_deformation.bhd", GOLDEN_INPUTS / "p2_eps.bhd"], ids=lambda p: p.name)
def test_two_loads_of_one_deformation_are_one_value(path):
    # a deformation is a value: equal base algebra and terms make equal, equally hashed deformations
    first, second = load_deformation(str(path)), load_deformation(str(path))
    assert first is not second and first == second and hash(first) == hash(second)
    assert first.padded(first.order + 1) != first


def test_e1_order1_deformation_passes(e1):
    defm = TruncatedDeformation(e1, [scalar_term(1)])
    assert check_deformation(defm).ok


def test_e1_order2_with_zero_d2_passes(e1):
    defm = TruncatedDeformation(e1, [scalar_term(1), scalar_term(0)])
    report = check_deformation(defm)
    assert report.ok and len(report.order_ok) == 3


def test_check_deformation_rejects_incompatible_term(d2):
    bad = from_function(2, 2, 2, lambda i, j: (Fraction(1), Fraction(0)))
    defm = TruncatedDeformation(d2, [bad])
    with pytest.raises(PreconditionError):
        check_deformation(defm)


def test_check_deformation_flags_noncocycle_first_order(zero1):
    # on the dim-1 zero algebra every d_1 is a cocycle; use E1 with a twist-breaking
    # order check instead: d_1 = mu on the 2-step nilpotent P2-like table
    from conftest import make_p2

    p2 = make_p2()
    # d_1(x, y) = x·y is compatible; the order-1 equation is δ2(mu) which is 0,
    # while order 2 needs d_1 ⋄ d_1 = 0: for associative mu the diamond also vanishes,
    # so build a genuinely failing term by hand on the zero algebra of dim 1:
    zero_alg = make_zero1()
    d1 = Cochain(2, 1, 1, (Fraction(1),))
    defm = TruncatedDeformation(zero_alg, [d1, Cochain.zero(2, 1, 1)])
    report = check_deformation(defm)
    # order 1: δ2(d1) = 0 over the zero algebra; order 2: d1 ⋄ d1 = 0 as well
    assert report.ok


def test_diamond_with_zero_is_zero(d2):
    zero = Cochain.zero(2, 2, 2)
    mu = TruncatedDeformation(d2, []).term(0)
    assert diamond(d2, zero, mu).is_zero()
    assert diamond(d2, mu, zero).is_zero()


@pytest.mark.parametrize(
    "term",
    [Cochain.zero(3, 2, 2), Cochain.zero(1, 2, 2), Cochain(2, 3, 3, [1] + [0] * 26), Cochain.zero(2, 3, 3)],
    ids=["degree-3", "degree-1", "dim-3", "zero-dim-3"],
)
def test_diamond_rejects_terms_that_are_not_bilinear_maps_of_the_algebra(d2, term):
    mu = TruncatedDeformation(d2, []).term(0)
    for a, b in ((term, mu), (mu, term), (term, term)):
        with pytest.raises(InputError, match="bilinear maps A x A -> A"):
            diamond(d2, a, b)


def test_diamond_of_mu_is_alternativity_defect():
    for _, alg in base_corpus():
        mu = TruncatedDeformation(alg, []).term(0)
        assert diamond(alg, mu, mu).is_zero()


def test_diamond_e1_d1(e1):
    d1 = scalar_term(1)
    assert diamond(e1, d1, d1).is_zero()


def test_diamond_matches_delta2_decomposition():
    # mu ⋄ f + f ⋄ mu equals the degree-2 coboundary operator with adjoint coefficients
    rng = Random(19)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        data = [Fraction(0)] * space.ambient_dim
        for vec in space.basis:
            c = random_fraction(rng)
            data = [d + c * v for d, v in zip(data, vec)]
        f = Cochain(2, alg.dim, alg.dim, data)
        mu = TruncatedDeformation(alg, []).term(0)
        left = diamond(alg, mu, f)
        right = diamond(alg, f, mu)
        combo = Cochain(3, alg.dim, alg.dim, [a + b for a, b in zip(left.data, right.data)])
        assert combo == delta(alg, rep, f)


def random_compatible_term(alg, rng):
    """A random twist-compatible bilinear term whose entries are mostly not integers."""
    space = cochain_space(alg, adjoint(alg), 2)
    data = [Fraction(0)] * space.ambient_dim
    for vec in space.basis:
        c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**6]))
        data = [d + c * v for d, v in zip(data, vec)]
    return Cochain(2, alg.dim, alg.dim, data)


def test_diamond_equals_the_pointwise_formula():
    rng = Random(23)
    algebras = base_corpus() + [("H", change_basis(make_quaternions(), random_signed_permutation(rng, 4)))]
    for _, alg in algebras:
        mu = TruncatedDeformation(alg, []).term(0)
        zero = Cochain.zero(2, alg.dim, alg.dim)
        a, b = random_compatible_term(alg, rng), random_compatible_term(alg, rng)
        for x, y in ((a, b), (b, a), (a, a), (mu, a), (a, mu), (mu, mu), (zero, a), (a, zero)):
            assert diamond(alg, x, y) == naive_diamond(alg, x, y)


def _pointwise_sum(alg, pairs):
    """Σ naive_diamond(a, b) over the (a, b) pairs, the zero trilinear map when there are none."""
    n = alg.dim
    pieces = [naive_diamond(alg, a, b).data for a, b in pairs]
    return Cochain(3, n, n, [sum(vals, Fraction(0)) for vals in zip(*pieces)] if pieces else [Fraction(0)] * n**4)


def test_each_order_is_a_block_of_one_series_pairing_equal_to_the_pointwise_sum():
    rng = Random(29)
    for _, alg in base_corpus():
        n = alg.dim
        terms = [random_compatible_term(alg, rng), Cochain.zero(2, n, n), random_compatible_term(alg, rng)]
        defm = TruncatedDeformation(alg, terms)
        m = defm.order
        totals = [_pointwise_sum(alg, [(defm.term(i), defm.term(k - i)) for i in range(k + 1)]) for k in range(m + 1)]
        series = deformation._series(defm, m)
        den, values, _ = deformation._paired(alg, series, series, m)
        seen = set()
        for x, y, z, val in values:
            assert x <= y and len(val) == (m + 1) * n
            seen.add((x, y, z))
            for k, total in enumerate(totals):
                block = tuple(Fraction(v, den) for v in val[k * n : (k + 1) * n])
                assert block == total.value(x, y, z) == total.value(y, x, z)
        assert seen == {(x, y, z) for x in range(n) for y in range(x, n) for z in range(n)}
        report = check_deformation(defm)
        expected = [total.first_nonzero() for total in totals]
        assert report.order_ok == tuple(w is None for w in expected)
        assert report.witnesses == {k: w for k, w in enumerate(expected) if w is not None}
        assert list(report.witnesses) == sorted(report.witnesses)


def test_obstruction_is_the_order_m_sum_without_d0_at_every_m():
    # m ≤ order leaves out d_0 ⋄ d_m and d_m ⋄ d_0; above the order every missing term is zero
    rng = Random(37)
    h = make_quaternions()
    e1 = make_e1()
    cases = [
        gauge(null_deformation(h), _random_integer_matrix(rng, 4), 1, 3),
        TruncatedDeformation(e1, [scalar_term(3), scalar_term(-2)]),
    ]
    for defm in cases:
        alg, order = defm.alg, defm.order
        zero = Cochain.zero(2, alg.dim, alg.dim)
        terms = [defm.term(i) for i in range(order + 1)] + [zero] * (order + 2)
        for m in range(1, order + 2):
            expected = _pointwise_sum(alg, [(terms[i], terms[m - i]) for i in range(1, m)])
            assert obstruction(defm, m) == expected
            if m <= order:
                # the deformation holds at order m, so the obstruction is −δ2(d_m) = −(d_0 ⋄ d_m + d_m ⋄ d_0)
                full = _pointwise_sum(alg, [(terms[0], terms[m]), (terms[m], terms[0])])
                assert [a + b for a, b in zip(expected.data, full.data)] == [0] * len(full.data)
        # at m = order + 2 the precondition reads order + 1, where the missing d_(order+1) leaves the obstruction
        top = obstruction(defm, order + 1)
        if top.is_zero():
            assert obstruction(defm, order + 2) == _pointwise_sum(alg, [(terms[i], terms[order + 2 - i]) for i in range(1, order + 2)])
        else:
            with pytest.raises(PreconditionError, match=re.escape(f"order {order + 1} (witness {top.first_nonzero()})")):
                obstruction(defm, order + 2)
    assert not obstruction(cases[0], 2).is_zero() and not obstruction(cases[0], 4).is_zero()
    assert obstruction(cases[1], 4).is_zero()


def _noncocycle(alg):
    """A twist-compatible bilinear term f with δ2(f) ≠ 0."""
    rep = adjoint(alg)
    terms = (Cochain(2, alg.dim, alg.dim, vec) for vec in cochain_space(alg, rep, 2).basis)
    return next(f for f in terms if not delta(alg, rep, f).is_zero())


def test_obstruction_names_the_first_failing_order(d2):
    f, zero = _noncocycle(d2), Cochain.zero(2, 2, 2)
    late = TruncatedDeformation(d2, [zero, f])  # the equations hold through order 1 and fail at order 2
    witness = check_deformation(late).witnesses[2]
    assert obstruction(late, 2).is_zero()  # d_2 takes no part in the order-2 obstruction
    for m in (3, 4, 5):
        with pytest.raises(PreconditionError, match=re.escape(f"deformation equations fail at order 2 (witness {witness})")):
            obstruction(late, m)
    early = TruncatedDeformation(d2, [f, f])
    witness = check_deformation(early).witnesses[1]
    with pytest.raises(PreconditionError, match=re.escape(f"fail at order 1 (witness {witness})")):
        obstruction(early, 4)


def test_obstruction_rejects_an_incompatible_term_above_m_minus_1(d2):
    bad = from_function(2, 2, 2, lambda i, j: (Fraction(1), Fraction(0)))
    defm = TruncatedDeformation(d2, [Cochain.zero(2, 2, 2), bad])
    for m in (1, 2):
        with pytest.raises(PreconditionError, match="deformation term 2 does not commute"):
            obstruction(defm, m)


def test_twisted_octonion_gauge_deformation_checks_and_trivializes():
    to = make_twisted_octonions()
    a, b = OCTONION_TWISTS
    rng = Random(31)
    # integer entries inside the joint (α, β) eigenspaces, so f commutes with both twists
    f = Matrix([[rng.choice([-2, -1, 1, 2]) if (a[i], b[i]) == (a[j], b[j]) else 0 for j in range(8)] for i in range(8)])
    defm = gauge(null_deformation(to), f, 1, 4)
    assert defm.order == 4 and not defm.term(1).is_zero()
    assert check_deformation(defm).ok
    iso = trivialize(defm, 4)
    assert iso is not None and iso.order == 4
    assert check_equivalence(defm, null_deformation(to).padded(4), iso, 4)


def test_order1_condition_is_cocycle_condition():
    rng = Random(43)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        for _ in range(8):
            data = [Fraction(0)] * space.ambient_dim
            for vec in space.basis:
                c = random_fraction(rng)
                data = [d + c * v for d, v in zip(data, vec)]
            d1 = Cochain(2, alg.dim, alg.dim, data)
            defm = TruncatedDeformation(alg, [d1])
            report = check_deformation(defm)
            assert report.order_ok[1] == delta(alg, rep, d1).is_zero()


def test_obstruction_m1_empty(d2):
    assert obstruction(null_deformation(d2), 1).is_zero()


def test_first_nonzero_term_is_a_cocycle():
    """With d_1 = ... = d_{p-1} = 0, validity through order p forces δ2(d_p) = 0."""
    rng = Random(29)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        zero = Cochain.zero(2, alg.dim, alg.dim)
        for p in (2, 3):
            for _ in range(6):
                data = [Fraction(0)] * space.ambient_dim
                for vec in space.basis:
                    c = random_fraction(rng)
                    data = [d + c * v for d, v in zip(data, vec)]
                d_p = Cochain(2, alg.dim, alg.dim, data)
                defm = TruncatedDeformation(alg, [zero] * (p - 1) + [d_p])
                report = check_deformation(defm)
                assert report.ok_through(p) == delta(alg, rep, d_p).is_zero()


def test_obstruction_m2_is_diamond_square(e1):
    d1 = scalar_term(1)
    defm = TruncatedDeformation(e1, [d1])
    obs = obstruction(defm, 2)
    assert obs == diamond(e1, d1, d1)
    assert obs.is_zero()


def test_obstruction_requires_validity(zero1):
    # a non-cocycle first term must be rejected; build one on E1-like idempotent
    e1 = make_e1()
    # on E1 every scalar d1 is a cocycle, so use a two-dimensional example:
    from conftest import make_d2

    d2 = make_d2()
    rng = Random(3)
    rep = adjoint(d2)
    space = cochain_space(d2, rep, 2)
    noncocycle = None
    for vec in space.basis:
        f = Cochain(2, 2, 2, vec)
        if not delta(d2, rep, f).is_zero():
            noncocycle = f
            break
    assert noncocycle is not None, "need a compatible non-cocycle for this test"
    defm = TruncatedDeformation(d2, [noncocycle])
    with pytest.raises(PreconditionError):
        obstruction(defm, 2)


def test_obstructions_are_cocycles_randomized():
    rng = Random(47)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        for _ in range(5):
            d1 = random_cocycle(alg, rng)
            defm = TruncatedDeformation(alg, [d1])
            obs = obstruction(defm, 2)
            assert delta(alg, rep, obs).is_zero()


def test_extend_one_order_zero_obstruction(e1):
    defm = TruncatedDeformation(e1, [scalar_term(1)])
    d2_term = extend_one_order(defm)
    assert d2_term is not None
    extended = TruncatedDeformation(e1, [*defm.terms, d2_term])
    assert check_deformation(extended).ok


def test_extend_one_order_produces_valid_extension_randomized():
    # a draw with no next term is obstructed: its obstruction is a non-zero 3-cocycle that is no coboundary.
    # Every Z1 draw is obstructed, and every E1 and D2 draw extends
    rng = Random(53)
    obstructed = []
    for name, alg in base_corpus():
        for _ in range(4):
            d1 = random_cocycle(alg, rng)
            defm = TruncatedDeformation(alg, [d1])
            nxt = extend_one_order(defm)
            if nxt is None:
                obs = obstruction(defm, 2)
                assert not obs.is_zero()
                assert delta(alg, adjoint(alg), obs).is_zero()
                obstructed.append(name)
                continue
            extended = TruncatedDeformation(alg, [*defm.terms, nxt])
            assert check_deformation(extended).ok
    assert obstructed == ["Z1"] * 4


def _epsilon_squared_term(alg: BiHomAlgebra) -> Cochain:
    """d1(uε, vε) = uv on SD(A) = A ⊕ Aε, e_(n+i) = e_i ε: the deformation A[ε]/(ε² − t) of A[ε]/(ε²)."""
    n = alg.dim
    nested = [[[0] * 2 * n for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            nested[n + i][n + j][:n] = alg.mu[i][j]
    return Cochain.from_nested(2, 2 * n, 2 * n, nested)


@pytest.mark.parametrize(
    "build, pin",
    [
        (make_e1, (8, 4, 3, 1)),
        (make_d2, (24, 8, 5, 3)),
        (make_quaternions, (512, 58, 57, 1)),
        (make_twisted_octonions, (1024, 60, 59, 1)),
    ],
    ids=["P2", "SD(D2)", "SD(H)", "SD(TO)"],
)
def test_epsilon_squared_t_is_a_deformation_that_is_not_trivial(build, pin):
    # SD(E1) is P2 = E1[ε]/(ε²), and golden/inputs/p2_eps.bhd holds its deformation E1[ε]/(ε² − t)
    alg = build()
    sd = semidirect(alg, adjoint(alg))
    r = complex_report(sd, adjoint(sd), 2)
    assert (r.dim_C, r.dim_Z, r.dim_B, r.dim_H) == pin
    defm = TruncatedDeformation(sd, [_epsilon_squared_term(alg)])
    if build is make_e1:
        assert sd == make_p2()
        golden = load_deformation(str(GOLDEN_INPUTS / "p2_eps.bhd"))
        assert golden == defm
    # every deformation equation holds with d1 alone, d1 is no coboundary, and the next term is zero
    assert check_deformation(defm.padded(4)).ok
    assert trivialize(defm, 3) is None
    assert extend_one_order(defm).is_zero()
    # non-triviality is gauge-invariant: conjugating by id − t·f, f a random element of the commutant, keeps
    # a deformation that no level of trivialize can gauge away
    rng = Random(7)
    f = Matrix.zero(sd.dim, sd.dim)
    for u in commutant(sd).basis:
        f = f + u.scale(rng.randint(-2, 2))
    assert f != Matrix.zero(sd.dim, sd.dim)
    moved = gauge(defm, f, 1, 3)
    assert check_deformation(moved).ok
    assert trivialize(moved, 3) is None


def test_extend_one_order_zero_algebra(zero1):
    d1 = Cochain(2, 1, 1, (Fraction(1),))
    defm = TruncatedDeformation(zero1, [d1])
    nxt = extend_one_order(defm)
    assert nxt is not None
    extended = TruncatedDeformation(zero1, [d1, nxt])
    assert check_deformation(extended).ok


def test_check_equivalence_identity(e1):
    defm = TruncatedDeformation(e1, [scalar_term(2)])
    phi = FormalIsomorphism(())
    assert check_equivalence(defm, defm, phi, 0)


def test_a_formal_isomorphism_has_no_term_of_negative_order():
    # term(-1) would read terms[-2], a stored term, instead of failing
    f = Matrix([[1, 2], [0, 1]])
    phi = FormalIsomorphism((f, f * f))
    assert [phi.term(i, 2) for i in range(4)] == [Matrix.identity(2), f, f * f, Matrix.zero(2, 2)]
    for i in (-1, -2, -3):
        with pytest.raises(InputError, match=f"^formal isomorphism term index must be non-negative, got {i}$"):
            phi.term(i, 2)


def test_check_equivalence_e1_hand_case(e1):
    d = TruncatedDeformation(e1, [scalar_term(1)])
    d_prime = TruncatedDeformation(e1, [scalar_term(0)])
    phi = FormalIsomorphism((Matrix([[1]]),))
    # phi_1(mu(e,e)) + d_1(e,e) = 2e equals mu(phi_1 e, e) + mu(e, phi_1 e) + d'_1 = 2e
    assert check_equivalence(d, d_prime, phi, 1)


def test_check_equivalence_rejects_a_negative_order(e1):
    # order −1 has no equation to compare, so it is bad input, not a vacuous pass
    defm = TruncatedDeformation(e1, [scalar_term(1)])
    with pytest.raises(InputError, match="at least 0"):
        check_equivalence(defm, defm, FormalIsomorphism(()), -1)


def test_check_equivalence_rejects_deformations_over_other_twists():
    # both zero products on Q² are valid algebras, but diag(1, 2) and I are different twists
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    plain = BiHomAlgebra(2, zero, Matrix.identity(2), Matrix.identity(2))
    twisted = BiHomAlgebra(2, zero, Matrix.diagonal([1, 2]), Matrix.identity(2))
    assert validate(plain).ok and validate(twisted).ok
    for d, d_prime in ((plain, twisted), (twisted, plain)):
        with pytest.raises(InputError, match="different dimensions or twists"):
            check_equivalence(null_deformation(d), null_deformation(d_prime), FormalIsomorphism(()), 0)
    assert check_equivalence(null_deformation(twisted), null_deformation(twisted), FormalIsomorphism(()), 0)


def test_gauge_rejects_a_negative_order(e1):
    # a negative order used to return the order-0 deformation silently
    defm = TruncatedDeformation(e1, [scalar_term(1)])
    for order in (-1, -5):
        with pytest.raises(InputError, match="gauge order must be at least 0"):
            gauge(defm, Matrix([[1]]), 1, order)
    assert gauge(defm, Matrix([[1]]), 1, 0).order == 0


def test_term_rejects_indices_outside_0_to_m(e1):
    defm = TruncatedDeformation(e1, [scalar_term(1), scalar_term(2)])
    assert [defm.term(i).data for i in range(3)] == [(1,), (1,), (2,)]
    for i in (-1, -3, 3, 10):
        with pytest.raises(InputError, match="between 0 and 2"):
            defm.term(i)


def test_check_equivalence_rejects_twist_breaking_phi(d2):
    defm = null_deformation(d2).padded(1)
    phi = FormalIsomorphism((Matrix([[0, 1], [0, 0]]),))
    assert not check_equivalence(defm, defm, phi, 1)


def test_gauge_shifts_by_coboundary():
    rng = Random(59)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        c1 = cochain_space(alg, rep, 1)
        if not c1.dim:
            continue
        data = [Fraction(0)] * c1.ambient_dim
        for vec in c1.basis:
            c = random_fraction(rng)
            data = [d + c * v for d, v in zip(data, vec)]
        f_cochain = Cochain(1, alg.dim, alg.dim, data)
        f = Matrix([[f_cochain.value(j)[i] for j in range(alg.dim)] for i in range(alg.dim)])
        d1 = random_cocycle(alg, rng)
        defm = TruncatedDeformation(alg, [d1])
        gauged = gauge(defm, f, 1, 1)
        expected = delta(alg, rep, f_cochain)
        diff = [a - b for a, b in zip(defm.term(1).data, gauged.term(1).data)]
        assert diff == list(expected.data)


def test_gauge_preserves_validity_and_equivalence():
    rng = Random(61)
    e1 = make_e1()
    d = TruncatedDeformation(e1, [scalar_term(3), scalar_term(-2)])
    assert check_deformation(d).ok
    f = Matrix([[Fraction(2)]])
    gauged = gauge(d, f, 1, 2)
    assert check_deformation(gauged).ok
    # the map old -> new is chi^{-1} = id + f t + f^2 t^2 + ...
    phi = FormalIsomorphism((f, f * f))
    assert check_equivalence(d, gauged, phi, 2)


def test_check_equivalence_reads_phi_through_the_order_only():
    # terms of phi beyond the order take no part in the order-k conditions
    e1 = make_e1()
    d = TruncatedDeformation(e1, [scalar_term(3), scalar_term(-2)])
    f = Matrix([[Fraction(2)]])
    gauged = gauge(d, f, 1, 2)
    assert check_equivalence(d, gauged, FormalIsomorphism((f, f * f, f * f * f, Matrix([[Fraction(-7, 3)]]))), 2)
    assert check_equivalence(d, gauged, FormalIsomorphism((f, f * f, Matrix([[5]]))), 2)
    assert not check_equivalence(d, gauged, FormalIsomorphism((f, f, f * f)), 2)


def test_trivialize_null_is_identity(d2):
    iso = trivialize(null_deformation(d2), 3)
    assert iso is not None
    assert all(m.is_zero() for m in iso.terms)


def test_trivialize_e1_scalar_deformations(e1):
    rng = Random(67)
    for _ in range(5):
        terms = [scalar_term(random_fraction(rng)) for _ in range(5)]
        defm = TruncatedDeformation(e1, terms)
        assert check_deformation(defm).ok
        iso = trivialize(defm, 5)
        assert iso is not None
        final = gauge_like_apply(defm, iso, 5)
        assert all(final.term(k).is_zero() for k in range(1, 6))
        assert check_equivalence(defm, null_deformation(e1).padded(5), iso, 5)


def gauge_like_apply(defm, iso, order):
    """Push a deformation forward along phi: d'_k = sum phi_a(d_b(inv_c x, inv_d y)).

    This realizes phi ∘ d_t = d'_t ∘ (phi ⊗ phi) order by order, with inv the
    power-series inverse of phi_t.
    """
    alg = defm.alg
    n = alg.dim
    phis = [iso.term(i, n) for i in range(order + 1)]
    inv = {0: Matrix.identity(n)}
    for k in range(1, order + 1):
        acc = Matrix.zero(n, n)
        for i in range(1, k + 1):
            acc = acc + phis[i] * inv[k - i]
        inv[k] = acc.scale(-1)
    terms = []
    padded = defm.padded(max(defm.order, order))
    for k in range(1, order + 1):
        acc = [Fraction(0)] * (n * n * n)
        for a in range(k + 1):
            for b in range(k - a + 1):
                if b > padded.order:
                    continue
                term = padded.term(b)
                for c in range(k - a - b + 1):
                    d_ord = k - a - b - c
                    piece = from_function(
                        2,
                        n,
                        n,
                        lambda i_, j_: phis[a].apply(
                            evaluate(term, inv[c].column(i_), inv[d_ord].column(j_))
                        ),
                    )
                    acc = [x + y for x, y in zip(acc, piece.data)]
        terms.append(Cochain(2, n, n, acc))
    return TruncatedDeformation(alg, terms)


def test_trivialize_fails_on_zero_algebra(zero1):
    d1 = Cochain(2, 1, 1, (Fraction(1),))
    defm = TruncatedDeformation(zero1, [d1])
    assert trivialize(defm, 1) is None


def test_padded_rejects_truncation(e1):
    defm = TruncatedDeformation(e1, [scalar_term(1)])
    with pytest.raises(InputError):
        defm.padded(0)


def _twist_commuting_generator(rng):
    """An integer f inside the joint (α, β) eigenspaces of the twisted octonions."""
    a, b = OCTONION_TWISTS
    return Matrix(
        [[rng.choice([-2, -1, 1, 2]) if (a[i], b[i]) == (a[j], b[j]) else 0 for j in range(8)] for i in range(8)]
    )


def _random_integer_matrix(rng, n):
    return Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])


def _gauge_cases():
    """(deformation, generator, level, order): H at levels 1–3 and order 8, twisted O at order 4.

    Between them, the series edge cases on H: level above the order, level equal to
    the order, an order below that of the deformation, and a rational generator at level 3.
    """
    rng = Random(97)
    h = make_quaternions()
    h_defm = gauge(null_deformation(h), _random_integer_matrix(rng, 4), 1, 8)
    cases = [(h_defm, _random_integer_matrix(rng, 4), level, 8) for level in (1, 2, 3)]
    cases.append((h_defm, Matrix([[Fraction(1, 2) * (i + j) for j in range(4)] for i in range(4)]), 2, 8))
    edge = Random(98)  # its own stream, so the twisted-O case draws as before
    cases += [(h_defm, _random_integer_matrix(edge, 4), level, order) for level, order in ((9, 8), (8, 8), (1, 5), (2, 3))]
    cases.append((h_defm, Matrix([[Fraction(i - 2 * j, 3) for j in range(4)] for i in range(4)]), 3, 8))
    to = make_twisted_octonions()
    to_defm = gauge(null_deformation(to), _twist_commuting_generator(rng), 1, 4)
    cases.append((to_defm, _twist_commuting_generator(rng), 1, 4))
    return cases


def test_gauge_equals_the_pointwise_conjugation():
    for defm, f, level, order in _gauge_cases():
        gauged = gauge(defm, f, level, order)
        assert gauged.terms == naive_gauge(defm, f, level, order).terms
        assert not gauged.term(1).is_zero()


def test_trivialize_is_unchanged_under_the_pointwise_gauge(monkeypatch):
    cases = _gauge_cases()
    isos = [trivialize(defm, order) for defm, _, _, order in (cases[0], cases[-1])]
    monkeypatch.setattr(deformation, "gauge", naive_gauge)
    pointwise = [trivialize(defm, order) for defm, _, _, order in (cases[0], cases[-1])]
    assert all(iso is not None for iso in isos)
    assert isos == pointwise


def test_trivialize_factors_delta1_once(monkeypatch):
    # the δ1 preimage is factored before the level loop, so clearing more levels builds no more eliminators
    h_defm = _gauge_cases()[0][0]
    built, gauged = [], []

    class Counted(exactnum._Eliminator):
        def __init__(self, ncols):
            built.append(ncols)
            super().__init__(ncols)

    def counted_gauge(defm, f, level, order):
        gauged.append(level)
        return gauge(defm, f, level, order)

    monkeypatch.setattr(exactnum, "_Eliminator", Counted)
    monkeypatch.setattr(deformation, "gauge", counted_gauge)
    counts = []
    for max_order in (1, 8):
        built.clear()
        assert trivialize(h_defm, max_order) is not None
        counts.append(len(built))
    assert gauged[:1] == [1] and len(gauged) >= 4  # one level at max order 1, at least three at max order 8
    assert counts[1] == counts[0]
