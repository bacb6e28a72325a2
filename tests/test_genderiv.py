import itertools
from fractions import Fraction

import pytest

import bihomalt.genderiv as genderiv
from bihomalt.algebra import BiHomAlgebra
from bihomalt.cohomology import cochain_space
from bihomalt.errors import InputError, InternalError, PreconditionError
from bihomalt.exactnum import Matrix, Subspace
from bihomalt.genderiv import (
    OperatorSpace,
    bracket,
    centroid_space,
    commutant,
    derivation_space,
    generalized_derivation_space,
    quasi_centroid_space,
    quasi_derivation_space,
    sgder_decompose,
    sgder_space,
    space_of_kind,
    twist_power,
)
from bihomalt.representation import adjoint

from random import Random

from conftest import (
    argument_twisted_adjoint,
    base_corpus,
    change_basis,
    cocycle_space,
    make_d2,
    make_e1,
    make_octonions,
    make_twisted_octonions,
    make_z1,
    random_noncommuting_algebra,
    random_unimodular,
    twist_preserving_signed_permutation,
    zero_bilinear,
)
from oracle_naive import dense_nullity, naive_operator_rows


EXPONENT_GRID = [(-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1), (-1, 1), (1, -1)]


def naive_derivation_dim(alg, k, l):
    """Independent dense assembly of the commutation + product-rule system."""
    n = alg.dim
    w = alg.alpha.power(k) * alg.beta.power(l)
    unknowns = n * n  # D[i][j]
    rows = []

    def d_entry(i, j):
        row = [Fraction(0)] * unknowns
        row[i * n + j] = Fraction(1)
        return row

    def add_rows(expr_rows):
        rows.extend(expr_rows)

    # [D, alpha] = 0 and [D, beta] = 0, entrywise
    for mat in (alg.alpha, alg.beta):
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * unknowns
                for p in range(n):
                    row[i * n + p] += mat.rows[p][j]
                    row[p * n + j] -= mat.rows[i][p]
                rows.append(row)
    # D(e_i e_j) - D(e_i) W(e_j) - W(e_i) D(e_j) = 0, output coordinate c
    for i in range(n):
        for j in range(n):
            for c in range(n):
                row = [Fraction(0)] * unknowns
                for kk in range(n):
                    row[c * n + kk] += alg.mu[i][j][kk]
                for p in range(n):
                    acc = Fraction(0)
                    for q in range(n):
                        acc += w.rows[q][j] * alg.mu[p][q][c]
                    row[p * n + i] -= acc
                for q in range(n):
                    acc = Fraction(0)
                    for p in range(n):
                        acc += w.rows[p][i] * alg.mu[p][q][c]
                    row[q * n + j] -= acc
                rows.append(row)
    return dense_nullity(rows, unknowns)


def test_commutant_identity_twists(z1):
    assert commutant(z1).dim == 4


def test_commutant_d2_is_diagonal(d2):
    u = commutant(d2)
    assert u.dim == 2
    for m in u.basis:
        assert m.rows[0][1] == 0 and m.rows[1][0] == 0


def test_derivations_z1_all_of_u(z1):
    for k, l in ((0, 0), (1, 2), (0, 3)):
        assert derivation_space(z1, k, l).dim == 4


def test_derivations_e1_dim0(e1):
    assert derivation_space(e1, 0, 0).dim == 0


def test_derivations_d2_dim1(d2):
    space = derivation_space(d2, 0, 0)
    assert space.dim == 1
    basis = space.basis[0]
    # spanned by 1 -> 0, x -> x
    assert basis.rows[0][0] == 0
    assert basis.rows[1][1] != 0


def test_derivation_dims_match_naive_solver():
    for _, alg in base_corpus():
        for k, l in EXPONENT_GRID:
            assert derivation_space(alg, k, l).dim == naive_derivation_dim(alg, k, l), (k, l)


def test_qder_e1_dim1(e1):
    assert quasi_derivation_space(e1, 0, 0).dim == 1


def test_qder_z1_dim4(z1):
    assert quasi_derivation_space(z1, 0, 0).dim == 4


def test_gder_e1_dim1(e1):
    assert generalized_derivation_space(e1, 0, 0).dim == 1
    assert sgder_space(e1, 0, 0).dim == 1


def test_gder_z1_dim4(z1):
    assert generalized_derivation_space(z1, 0, 0).dim == 4
    assert sgder_space(z1, 0, 0).dim == 4


def test_centroid_e1_dim1(e1):
    assert centroid_space(e1, 0, 0).dim == 1


def test_centroid_z1_is_u(z1):
    assert centroid_space(z1, 0, 0).dim == 4


def test_centroid_d2_scalars(d2):
    space = centroid_space(d2, 0, 0)
    assert space.dim == 1
    m = space.basis[0]
    assert m.rows[0][0] == m.rows[1][1] != 0
    assert m.rows[0][1] == 0 and m.rows[1][0] == 0


def test_inclusion_chain_on_corpus():
    for name, alg in base_corpus():
        for k, l in EXPONENT_GRID:
            der = derivation_space(alg, k, l).as_subspace()
            qder = quasi_derivation_space(alg, k, l).as_subspace()
            sg = sgder_space(alg, k, l).as_subspace()
            gder = generalized_derivation_space(alg, k, l).as_subspace()
            cent = centroid_space(alg, k, l).as_subspace()
            qcent = quasi_centroid_space(alg, k, l).as_subspace()
            assert qder.contains(der), (name, k, l)
            assert sg.contains(qder), (name, k, l)
            assert gder.contains(sg), (name, k, l)
            assert qcent.contains(cent), (name, k, l)


def test_der_bracket_closure():
    for _, alg in base_corpus():
        for (k, l), (s, t) in itertools.product([(0, 0), (1, 0), (0, 1)], repeat=2):
            d1_space = derivation_space(alg, k, l)
            d2_space = derivation_space(alg, s, t)
            target = derivation_space(alg, k + s, l + t)
            for a in d1_space.basis:
                for b in d2_space.basis:
                    assert target.contains_matrix(bracket(a, b))


def test_der_centroid_bracket_lands_in_centroid():
    for _, alg in base_corpus():
        for (k, l), (s, t) in itertools.product([(0, 0), (1, 1)], repeat=2):
            for d in derivation_space(alg, k, l).basis:
                for theta in centroid_space(alg, s, t).basis:
                    assert centroid_space(alg, k + s, l + t).contains_matrix(bracket(d, theta))


def test_centroid_inside_qder_with_doubling_witness():
    for _, alg in base_corpus():
        for k, l in ((0, 0), (1, 0)):
            qder = quasi_derivation_space(alg, k, l)
            for theta in centroid_space(alg, k, l).basis:
                assert qder.contains_matrix(theta)


def test_qc_bracket_in_qder():
    for _, alg in base_corpus():
        for (k, l), (s, t) in itertools.product([(0, 0), (0, 1)], repeat=2):
            qc1 = quasi_centroid_space(alg, k, l)
            qc2 = quasi_centroid_space(alg, s, t)
            target = quasi_derivation_space(alg, k + s, l + t)
            for a in qc1.basis:
                for b in qc2.basis:
                    assert target.contains_matrix(bracket(a, b))


def test_bracket_closure_of_gder_qder_centroid():
    # the three families are closed under the commutator, with exponents adding
    pairs = [((0, 0), (1, 0)), ((0, 1), (1, 0)), ((0, 0), (0, 0))]
    for _, alg in base_corpus():
        for space_fn in (generalized_derivation_space, quasi_derivation_space, centroid_space):
            for (k, l), (s, t) in pairs:
                left = space_fn(alg, k, l)
                right = space_fn(alg, s, t)
                target = space_fn(alg, k + s, l + t)
                for a in left.basis:
                    for b in right.basis:
                        assert target.contains_matrix(bracket(a, b)), space_fn.__name__


def test_subalgebra_closure_under_twist_shifts():
    for _, alg in base_corpus():
        for k, l in ((0, 0), (1, 0)):
            for space_fn in (generalized_derivation_space, quasi_derivation_space, centroid_space):
                space = space_fn(alg, k, l)
                shifted_a = space_fn(alg, k + 1, l)
                shifted_b = space_fn(alg, k, l + 1)
                for m in space.basis:
                    assert shifted_a.contains_matrix(alg.alpha * m)
                    assert shifted_b.contains_matrix(alg.beta * m)


def test_commutant_closed_under_twist_composition():
    for _, alg in base_corpus():
        u = commutant(alg)
        for m in u.basis:
            assert u.contains_matrix(alg.alpha * m)
            assert u.contains_matrix(alg.beta * m)


def test_sgder_equals_qder_plus_qc():
    for _, alg in base_corpus():
        for k, l in ((0, 0), (1, 1), (-1, 0)):
            sg = sgder_space(alg, k, l).as_subspace()
            qder = quasi_derivation_space(alg, k, l).as_subspace()
            qc = quasi_centroid_space(alg, k, l).as_subspace()
            total = qder.sum(qc)
            assert total.contains(sg) and sg.contains(total)


def test_sgder_decompose_derivation_gives_zero_centroid_part(d2):
    der = derivation_space(d2, 0, 0)
    d = der.basis[0]
    q, c = sgder_decompose(d2, 0, 0, d)
    assert q + c == d
    assert quasi_derivation_space(d2, 0, 0).contains_matrix(q)
    assert quasi_centroid_space(d2, 0, 0).contains_matrix(c)


def test_sgder_decompose_on_zero_algebra(z1):
    d = Matrix([[1, 2], [3, 4]])
    q, c = sgder_decompose(z1, 0, 0, d)
    assert q + c == d


def test_sgder_decompose_rejects_outsiders(d2):
    # anything outside the twist commutant cannot be a symmetric generalized derivation
    with pytest.raises(PreconditionError):
        sgder_decompose(d2, 0, 0, Matrix([[0, 1], [0, 0]]))


@pytest.mark.parametrize(
    "m",
    [Matrix([[1]]), Matrix.identity(3), Matrix.zero(3, 3), Matrix.zero(2, 3), Matrix.zero(1, 4)],
    ids=["1x1", "3x3", "zero-3x3", "2x3", "1x4"],
)
@pytest.mark.parametrize("call", ["coefficients_of", "contains_matrix", "sgder_decompose"])
def test_matrices_of_the_wrong_shape_are_input_errors(d2, call, m):
    qder = quasi_derivation_space(d2, 0, 0)
    assert qder.dim > 0
    with pytest.raises(InputError, match="expected a 2x2 matrix"):
        if call == "sgder_decompose":
            sgder_decompose(d2, 0, 0, m)
        else:
            getattr(qder, call)(m)


def test_an_empty_operator_space_contains_the_zero_matrix_only(e1):
    der = derivation_space(e1, 0, 0)
    assert der.dim == 0
    assert der.coefficients_of(Matrix([[0]])) == () and der.contains_matrix(Matrix([[0]]))
    assert der.coefficients_of(Matrix([[1]])) is None and not der.contains_matrix(Matrix([[1]]))
    with pytest.raises(InputError):
        der.contains_matrix(Matrix([[0, 0]]))


@pytest.mark.parametrize("m", [Matrix.zero(3, 3), Matrix.identity(3)], ids=["zero-3x3", "3x3"])
@pytest.mark.parametrize("make", [make_e1, make_d2], ids=["E1", "D2"])
def test_the_shape_check_reads_the_algebra_dimension(make, m):
    # E1's Der is empty, so only the recorded dimension can tell a 3x3 matrix is the wrong size
    alg = make()
    der = derivation_space(alg, 0, 0)
    assert der.alg_dim == alg.dim and (der.dim == 0) == (alg.dim == 1)
    assert der.as_subspace().ambient_dim == alg.dim**2
    for call in (der.coefficients_of, der.contains_matrix):
        with pytest.raises(InputError, match=f"expected a {alg.dim}x{alg.dim} matrix, got 3x3"):
            call(m)


def test_bracket_properties():
    u = Matrix([[1, 0], [0, 2]])
    v = Matrix([[0, 1], [0, 0]])
    assert bracket(u, u).is_zero()
    assert bracket(Matrix.identity(2), v).is_zero()
    assert bracket(u, v) == Matrix([[0, -1], [0, 0]])
    with pytest.raises(InputError):
        bracket(u, Matrix([[1]]))


def test_negative_exponents_require_invertible_twists():
    alg = make_z1()
    singular = Matrix([[1, 0], [0, 0]])
    from bihomalt.algebra import BiHomAlgebra

    degen = BiHomAlgebra(2, zero_bilinear(2), singular, Matrix.identity(2))
    with pytest.raises(PreconditionError):
        derivation_space(degen, -1, 0)
    assert derivation_space(degen, 1, 0).dim > 0


def test_space_of_kind_dispatch(e1):
    assert space_of_kind(e1, "Der", 0, 0).dim == 0
    assert space_of_kind(e1, "U", 0, 0).dim == 1
    with pytest.raises(InputError):
        space_of_kind(e1, "Bogus", 0, 0)


class _NoMatrix:
    """An operator-space stand-in that contains no matrix at all."""

    def contains_matrix(self, m):
        return False


@pytest.mark.parametrize(
    "space, message",
    [
        ("quasi_derivation_space", "quasi-derivation part escaped"),
        ("quasi_centroid_space", "quasi-centroid part escaped"),
    ],
)
def test_sgder_decompose_guards_raise_internal_error(monkeypatch, d2, space, message):
    d = derivation_space(d2, 0, 0).basis[0]
    monkeypatch.setattr(genderiv, space, lambda alg, k, l: _NoMatrix())
    with pytest.raises(InternalError, match=message):
        sgder_decompose(d2, 0, 0, d)


# -- the dim-8 ladder: octonions and Yau-twisted octonions --------------------------------

G2_DIM = 14  # Der(O) is the compact exceptional Lie algebra g2
OCTONION_DIMS = {(0, 0): (G2_DIM, 29, 15)}
TWISTED_OCTONION_DIMS = {(1, 0): (2, 5, 3), (1, 1): (2, 5, 3), (0, 1): (2, 5, 3)}


def _der_gder_sgder(alg, k, l):
    return tuple(space_of_kind(alg, kind, k, l).dim for kind in ("Der", "GDer", "SGDer"))


def _is_derivation(alg, d):
    n = alg.dim
    cols = [d.column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]
    return all(
        d.apply(alg.mu[i][j])
        == tuple(x + y for x, y in zip(alg.product(cols[i], units[j]), alg.product(units[i], cols[j])))
        for i in range(n)
        for j in range(n)
    )


def test_octonion_derivations_are_g2():
    o = make_octonions()
    assert _der_gder_sgder(o, 0, 0) == OCTONION_DIMS[(0, 0)]
    der = derivation_space(o, 0, 0)
    assert der.dim == G2_DIM and all(_is_derivation(o, d) for d in der.basis)


def test_twisted_octonion_operator_space_dims():
    to = make_twisted_octonions()
    for (k, l), dims in TWISTED_OCTONION_DIMS.items():
        assert _der_gder_sgder(to, k, l) == dims


def test_dim8_operator_space_dims_survive_a_unimodular_change_of_basis():
    rng = Random(37)
    for builder, pins in ((make_octonions, OCTONION_DIMS), (make_twisted_octonions, TWISTED_OCTONION_DIMS)):
        alg = change_basis(builder(), random_unimodular(rng, 8))
        for (k, l), dims in pins.items():
            assert _der_gder_sgder(alg, k, l) == dims


# -- the integer rows against the rational oracle rows ---------------------------------------

ROW_EXPONENTS = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)]


def _row_algebras():
    """D2, D2 in a rational non-unimodular basis (rational twists and products), and twisted O."""
    d2 = make_d2()
    return [d2, change_basis(d2, Matrix([[1, Fraction(1, 2)], [0, 2]])), make_twisted_octonions()]


@pytest.mark.parametrize("kind", genderiv.KINDS)
def test_operator_rows_are_positive_multiples_of_the_rational_rows(kind):
    for alg in _row_algebras():
        for k, l in ROW_EXPONENTS:
            blocks, rows = genderiv._operator_rows(alg, kind, k, l)
            naive_blocks, naive_rows = naive_operator_rows(alg, kind, k, l)
            assert blocks == naive_blocks and len(rows) == len(naive_rows)
            for row, ref in zip(rows, naive_rows):
                assert row.keys() == ref.keys()
                assert all(type(v) is int for v in row.values())
                scales = {v / ref[c] for c, v in row.items()}
                assert len(scales) == 1 and scales.pop() > 0, (k, l)


# -- the commutant against the degree-1 cochains of the adjoint ------------------------------


def _commutant_cases():
    """The base corpus, twisted O moved by a twist-preserving signed permutation, and non-commuting twists."""
    to = make_twisted_octonions()
    moved = change_basis(to, twist_preserving_signed_permutation(Random(59), to))
    noncommuting = [(f"noncommuting-{seed}", random_noncommuting_algebra(Random(seed))) for seed in range(4)]
    return base_corpus() + [("twisted-O-moved", moved)] + noncommuting


@pytest.mark.parametrize("alg", [a for _, a in _commutant_cases()], ids=[name for name, _ in _commutant_cases()])
def test_the_commutant_is_the_space_of_degree1_adjoint_cochains(alg):
    # both are kernels of the one twist-row builder: X[c][i] is the coordinate f(e_i)_c
    n = alg.dim
    u = Subspace(n * n, [tuple(e for row in x.transpose().rows for e in row) for x in commutant(alg).basis])
    c1 = cochain_space(alg, adjoint(alg), 1)
    assert u.dim == c1.dim and u.contains(c1) and c1.contains(u)


@pytest.mark.parametrize("alg", [a for _, a in _commutant_cases()], ids=[name for name, _ in _commutant_cases()])
def test_the_kind_u_ignores_the_exponents(alg):
    # U has no product rule, so no W = αᵏβˡ is formed: a singular twist at a negative exponent is no error
    u = commutant(alg)
    for k, l in ((-1, 0), (0, -2), (3, 1), (-2, -1)):
        assert space_of_kind(alg, "U", k, l) == u


def test_the_kind_u_needs_no_invertible_twist():
    singular = BiHomAlgebra(2, zero_bilinear(2), Matrix.diagonal([1, 0]), Matrix.identity(2))
    assert commutant(singular).dim == 2
    assert space_of_kind(singular, "U", -1, 0) == commutant(singular)
    with pytest.raises(PreconditionError):
        space_of_kind(singular, "Der", -1, 0)


def test_the_exponents_are_the_pair_k_l(d2):
    # a space records the (k, l) of its W = αᵏβˡ as a plain pair; U forms no W and records None
    der = space_of_kind(d2, "Der", 1, -1)
    assert der.exponents == (1, -1) and der.as_dict()["exponents"] == [1, -1]
    assert space_of_kind(d2, "U", 1, -1).exponents is None


# -- Der_(k,l) against the degree-1 cocycles of the W-twisted adjoint ------------------------


CYCLE_EXPONENTS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (-1, 0)]


def _flattened(space: OperatorSpace) -> Subspace:
    """The operator space in cochain coordinates: X[c][i] is the coordinate f(e_i)_c."""
    n = space.alg_dim
    return Subspace(n * n, [tuple(e for row in x.transpose().rows for e in row) for x in space.basis])


def _same(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and a.contains(b) and b.contains(a)


def _random_diagonal_twist_algebra(rng: Random) -> BiHomAlgebra:
    """A 2- or 3-dimensional product of sparse small integers with invertible diagonal twists."""
    n = rng.choice([2, 3])
    alpha = Matrix.diagonal([rng.choice([1, -1, 2]) for _ in range(n)])
    beta = Matrix.diagonal([rng.choice([1, -1, 3]) for _ in range(n)])
    mu = [[[rng.choice([-1, 1, 2]) if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return BiHomAlgebra(n, mu, alpha, beta)


def _cycle_cases():
    random = [(f"random-{seed}", _random_diagonal_twist_algebra(Random(seed))) for seed in range(18)]
    return base_corpus() + [("twisted-O", make_twisted_octonions())] + random


@pytest.mark.parametrize("alg", [a for _, a in _cycle_cases()], ids=[name for name, _ in _cycle_cases()])
def test_derivations_are_the_degree1_cocycles_of_the_w_twisted_adjoint(alg):
    # with l(x) = L_{Wx} and r(y) = R_{Wy}, δ1 f = 0 reads f(xy) = f(x)W(y) + W(x)f(y), W = α^k β^l
    for k, l in CYCLE_EXPONENTS:
        assert _same(cocycle_space(alg, argument_twisted_adjoint(alg, k, l), 1), _flattened(derivation_space(alg, k, l))), (k, l)


def test_the_plain_adjoint_gives_the_untwisted_derivations_only():
    # ad = ad_W at W = id; at other exponents Z¹(A, ad) misses Der_(k,l) on some random products
    missed = set()
    for seed in range(18):
        alg = _random_diagonal_twist_algebra(Random(seed))
        z1 = cocycle_space(alg, adjoint(alg), 1)
        assert _same(z1, _flattened(derivation_space(alg, 0, 0)))
        missed |= {(seed, k, l) for k, l in CYCLE_EXPONENTS if not _same(z1, _flattened(derivation_space(alg, k, l)))}
    assert missed == {(3, -1, 0), (6, 1, 0), (6, 1, 1), (6, -1, 0), (8, 1, 0), (8, 1, 1), (8, -1, 0), (14, -1, 0)}
