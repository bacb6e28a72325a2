import itertools
from fractions import Fraction
from random import Random

import pytest

import bihomalt.cohomology as cohomology
import bihomalt.representation as representation
from bihomalt.algebra import yau_twist
from bihomalt.cohomology import (
    Cochain,
    _coboundary,
    cochain_space,
    compatibility_witness,
    complex_report,
    delta1,
    delta2,
    delta3,
    twist_witness,
)
from bihomalt.deformation import TruncatedDeformation, trivialize
from bihomalt.errors import InputError, InternalError, PreconditionError
from bihomalt.exactnum import Matrix
from bihomalt.representation import Representation, adjoint, semidirect, validate_representation

from conftest import (
    base_corpus,
    change_basis,
    make_d2,
    make_e1,
    make_octonions,
    make_quaternions,
    make_twisted_octonions,
    make_z1,
    make_zero1,
    random_fraction,
    random_signed_permutation,
    random_valid_representation,
    trivial_representation,
    twist_preserving_signed_permutation,
)
from oracle_naive import evaluate, from_function, naive_complex_dims, naive_delta_rows, naive_twist_witness


def random_cochain_in(space, n, m, degree, rng):
    data = [Fraction(0)] * space.ambient_dim
    for vec in space.basis:
        c = random_fraction(rng)
        if c == 0:
            continue
        data = [d + c * v for d, v in zip(data, vec)]
    return Cochain(degree, n, m, data)


def test_cochain_space_e1_adjoint_degree2(e1):
    assert cochain_space(e1, adjoint(e1), 2).dim == 1


def test_cochain_space_z1_trivial_rep_degree1(z1):
    rep = trivial_representation(Random(0), 2, 1)
    idrep = Representation(2, 1, rep.l, rep.r, Matrix.identity(1), Matrix.identity(1))
    assert cochain_space(z1, idrep, 1).dim == 2


def test_cochain_space_d2_adjoint_degree1_is_diagonal(d2):
    space = cochain_space(d2, adjoint(d2), 1)
    assert space.dim == 2
    for vec in space.basis:
        f = Cochain(1, 2, 2, vec)
        # intertwining with diag(1,2)/diag(1,3) forces the off-diagonal entries to vanish
        assert f.value(0)[1] == 0
        assert f.value(1)[0] == 0


@pytest.mark.parametrize("idx", [(-1, 0), (5, 0), (0, 2), (0, -3)])
def test_a_cochain_value_reads_only_basis_indices(idx):
    # a negative index would wrap to another tuple's value and one past the end would read an empty slice
    f = Cochain(2, 2, 1, [1, 2, 3, 4])
    with pytest.raises(InputError, match="^basis index out of range 0..1$"):
        f.value(*idx)
    assert [f.value(i, j) for i in range(2) for j in range(2)] == [(1,), (2,), (3,), (4,)]


def test_delta1_e1_adjoint(e1):
    rep = adjoint(e1)
    f = Cochain(1, 1, 1, (1,))
    out = delta1(e1, rep, f)
    assert out.value(0, 0) == (Fraction(1),)


def test_delta1_zero_over_z1(z1):
    rep = adjoint(z1)
    space = cochain_space(z1, rep, 1)
    rng = Random(5)
    f = random_cochain_in(space, 2, 2, 1, rng)
    assert delta1(z1, rep, f).is_zero()


def test_delta1_of_zero_is_zero(d2):
    rep = adjoint(d2)
    assert delta1(d2, rep, Cochain.zero(1, 2, 2)).is_zero()


def test_delta2_e1_adjoint_collapses(e1):
    rep = adjoint(e1)
    f = Cochain(2, 1, 1, (Fraction(5),))
    assert delta2(e1, rep, f).is_zero()


def test_all_deltas_vanish_over_zero_algebra(z1):
    # every operator term involves the product or an action, all zero here
    rng = Random(13)
    rep = adjoint(z1)
    for degree, op in ((1, delta1), (2, delta2), (3, delta3)):
        space = cochain_space(z1, rep, degree)
        f = random_cochain_in(space, 2, 2, degree, rng)
        assert op(z1, rep, f).is_zero()


def _twist_check_algebras(rng):
    """D2 in a rational basis (dense rational twists), and twisted O under a twist-preserving signed permutation."""
    to = make_twisted_octonions()
    return [
        change_basis(make_d2(), Matrix([[1, Fraction(1, 2)], [0, 2]])),
        change_basis(to, twist_preserving_signed_permutation(rng, to)),
    ]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_twist_witness_matches_the_pointwise_oracle(degree):
    rng = Random(degree)
    for alg in _twist_check_algebras(rng):
        rep = adjoint(alg)
        n = alg.dim
        space = cochain_space(alg, rep, degree)
        data = [Fraction(0)] * space.ambient_dim
        for vec in rng.sample(space.basis, min(space.dim, 12)):
            c = random_fraction(rng)
            data = [d + c * v for d, v in zip(data, vec)]
        clean = Cochain(degree, n, n, data)
        assert compatibility_witness(alg, rep, clean) is None
        corrupted = []
        for _ in range(4):
            bad = list(data)
            bad[rng.randrange(len(bad))] += rng.choice([Fraction(1), Fraction(-1), Fraction(1, 3)])
            corrupted.append(Cochain(degree, n, n, bad))
        for f in [clean, *corrupted]:
            for twist_in, twist_out in ((alg.alpha, rep.phi), (alg.beta, rep.psi), (alg.alpha, rep.psi)):
                assert twist_witness(f, twist_in, twist_out) == naive_twist_witness(f, twist_in, twist_out)
        assert any(compatibility_witness(alg, rep, f) for f in corrupted)


def test_twist_witness_rejects_twists_of_the_wrong_shape():
    f = Cochain.zero(2, 2, 2)
    for twist_in, twist_out in ((Matrix.identity(3), Matrix.identity(2)), (Matrix.identity(2), Matrix.identity(1))):
        with pytest.raises(InputError):
            twist_witness(f, twist_in, twist_out)


def test_delta2_rejects_incompatible_cochain(d2):
    rep = adjoint(d2)
    f = from_function(2, 2, 2, lambda i, j: (Fraction(1), Fraction(1)))
    assert compatibility_witness(d2, rep, f) is not None
    with pytest.raises(PreconditionError):
        delta2(d2, rep, f)


def test_delta3_e1_adjoint(e1):
    rep = adjoint(e1)
    f = Cochain(3, 1, 1, (Fraction(3),))
    assert delta3(e1, rep, f).is_zero()


def test_delta_composites_vanish_on_corpus_adjoint():
    for _, alg in base_corpus():
        rep = adjoint(alg)
        c1 = cochain_space(alg, rep, 1)
        for vec in c1.basis:
            f = Cochain(1, alg.dim, rep.mod_dim, vec)
            assert delta2(alg, rep, delta1(alg, rep, f)).is_zero()
        c2 = cochain_space(alg, rep, 2)
        for vec in c2.basis:
            f = Cochain(2, alg.dim, rep.mod_dim, vec)
            assert delta3(alg, rep, delta2(alg, rep, f)).is_zero()


def test_delta_composites_vanish_on_random_reps():
    rng = Random(23)
    for _, alg in base_corpus():
        for _ in range(4):
            rep = random_valid_representation(alg, rng)
            c1 = cochain_space(alg, rep, 1)
            f = random_cochain_in(c1, alg.dim, rep.mod_dim, 1, rng)
            assert delta2(alg, rep, delta1(alg, rep, f)).is_zero()
            c2 = cochain_space(alg, rep, 2)
            g = random_cochain_in(c2, alg.dim, rep.mod_dim, 2, rng)
            assert delta3(alg, rep, delta2(alg, rep, g)).is_zero()


def test_delta2_tau12_symmetry():
    rng = Random(31)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 2)
        for _ in range(10):
            f = random_cochain_in(space, alg.dim, rep.mod_dim, 2, rng)
            out = delta2(alg, rep, f)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    for k in range(alg.dim):
                        assert out.value(i, j, k) == out.value(j, i, k)


def _make_sd_d2():
    d2 = make_d2()
    return semidirect(d2, adjoint(d2))


DELTA2_ALGEBRAS = {"Z1": make_z1, "E1": make_e1, "D2": make_d2, "SD(D2)": _make_sd_d2, "H": make_quaternions, "twisted O": make_twisted_octonions}


@pytest.mark.parametrize("name", DELTA2_ALGEBRAS)
def test_delta2_rows_are_symmetric_in_the_first_two_inputs(name):
    # (δ2 f)(x, y, z) = (δ2 f)(y, x, z) for compatible f, so the row of (i, j, k, c) equals that of (j, i, k, c)
    alg = DELTA2_ALGEBRAS[name]()
    n = alg.dim
    for rep in (adjoint(alg), random_valid_representation(alg, Random(name))):
        m = rep.mod_dim
        out = _coboundary(alg, rep)(2, list(cochain_space(alg, rep, 2).columns))
        for i, j, k, c in itertools.product(range(n), range(n), range(n), range(m)):
            assert out.get(((i * n + j) * n + k) * m + c) == out.get(((j * n + i) * n + k) * m + c), (i, j, k, c)


def test_delta_outputs_are_compatible_cochains():
    rng = Random(37)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        for degree, op in ((1, delta1), (2, delta2), (3, delta3)):
            space = cochain_space(alg, rep, degree)
            f = random_cochain_in(space, alg.dim, rep.mod_dim, degree, rng)
            out = op(alg, rep, f)
            assert compatibility_witness(alg, rep, out) is None


def test_delta1_twist_naturality():
    rng = Random(41)
    for _, alg in base_corpus():
        rep = adjoint(alg)
        space = cochain_space(alg, rep, 1)
        f = random_cochain_in(space, alg.dim, rep.mod_dim, 1, rng)
        out = delta1(alg, rep, f)
        acols = [alg.alpha.column(i) for i in range(alg.dim)]
        bcols = [alg.beta.column(i) for i in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert evaluate(out, acols[i], acols[j]) == rep.phi.apply(out.value(i, j))
                assert evaluate(out, bcols[i], bcols[j]) == rep.psi.apply(out.value(i, j))


def test_complex_report_e1_adjoint(e1):
    rpt = complex_report(e1, adjoint(e1), 2)
    assert (rpt.dim_C, rpt.dim_Z, rpt.dim_B, rpt.dim_H) == (1, 1, 1, 0)


def test_complex_report_zero1_adjoint():
    zero1 = make_zero1()
    rpt = complex_report(zero1, adjoint(zero1), 2)
    assert (rpt.dim_Z, rpt.dim_B, rpt.dim_H) == (1, 0, 1)


def test_complex_report_z1_adjoint_degree3(z1):
    rpt = complex_report(z1, adjoint(z1), 3)
    # all operators vanish over the zero algebra, so H = C at every degree;
    # dim C^3 = 2^3 inputs x 2 output coordinates
    assert rpt.dim_C == 16
    assert rpt.dim_H == rpt.dim_C == rpt.dim_Z
    assert rpt.dim_B == 0


def test_complex_report_invariants():
    for _, alg in base_corpus():
        rep = adjoint(alg)
        for degree in (2, 3):
            rpt = complex_report(alg, rep, degree)
            assert 0 <= rpt.dim_B <= rpt.dim_Z <= rpt.dim_C
            assert rpt.dim_H == rpt.dim_Z - rpt.dim_B


def test_dims_match_naive_full_assembly():
    for name, alg in base_corpus():
        if alg.dim > 2:
            continue
        rep = adjoint(alg)
        for degree in (2, 3):
            rpt = complex_report(alg, rep, degree)
            naive = naive_complex_dims(alg, rep, degree)
            assert (rpt.dim_C, rpt.dim_Z, rpt.dim_B, rpt.dim_H) == naive, (name, degree)


def test_complex_report_rejects_other_degrees(e1):
    with pytest.raises(InputError):
        complex_report(e1, adjoint(e1), 1)


def test_cochain_nested_roundtrip():
    f = from_function(2, 2, 2, lambda i, j: (Fraction(i), Fraction(j)))
    again = Cochain.from_nested(2, 2, 2, f.nested())
    assert again == f


def _full(alg, rep, degree):
    """δ_degree on the full coordinate space: δ applied to every unit column, as {row: {column: entry}}."""
    return _coboundary(alg, rep)(degree, [{k: 1} for k in range(rep.mod_dim * alg.dim**degree)])


def _times(operator, columns):
    """operator · columns as {row: {j: entry}}, zero rows dropped, for an operator {row: {column: entry}}."""
    out = {}
    for r, row in operator.items():
        acc = {j: sum(a * col.get(c, 0) for c, a in row.items()) for j, col in enumerate(columns)}
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _dense_rows(operator, ncols):
    rows = []
    for r in sorted(operator):
        row = [Fraction(0)] * ncols
        for col, a in operator[r].items():
            row[col] = a
        rows.append(row)
    return rows


def test_operator_rows_match_naive_assembly():
    rng = Random(43)
    for name, alg in base_corpus():
        reps = [adjoint(alg)] + [random_valid_representation(alg, rng) for _ in range(3)]
        for rep in reps:
            for degree in (1, 2, 3):
                model, naive = naive_delta_rows(alg, rep, degree)
                ours = _dense_rows(_full(alg, rep, degree), model.count)
                assert ours == naive, (name, rep.mod_dim, degree)


def test_quaternion_degree3_pin():
    h = make_quaternions()
    dims = complex_report(h, adjoint(h), 3)
    assert (dims.dim_C, dims.dim_Z, dims.dim_B, dims.dim_H) == (256, 160, 51, 109)
    assert naive_complex_dims(h, adjoint(h), 3) == (256, 160, 51, 109)
    moved = change_basis(h, random_signed_permutation(Random(47), 4))
    assert moved != h
    again = complex_report(moved, adjoint(moved), 3)
    assert (again.dim_C, again.dim_Z, again.dim_B, again.dim_H) == (256, 160, 51, 109)


def _sign_automorphisms(alg):
    """The diagonal sign matrices s with s_k = s_i·s_j wherever μ(e_i, e_j) has an e_k-coefficient."""
    n = alg.dim
    terms = [(i, j, k) for i, j, k in itertools.product(range(n), repeat=3) if alg.mu[i][j][k]]
    signs = itertools.product((1, -1), repeat=n)
    return [Matrix.diagonal(s) for s in signs if all(s[k] == s[i] * s[j] for i, j, k in terms)]


def _group_rank(a, b):
    """The rank over F_2 of the group that two commuting involutions generate: log2 of its order."""
    return len({Matrix.identity(a.nrows), a, b, a * b}).bit_length() - 1


# (H², H³) as (C, Z, B, H) for each rank of ⟨α, β⟩
H_SIGN_TWISTS = {
    0: ((64, 13, 13, 0), (256, 160, 51, 109)),
    1: ((32, 7, 7, 0), (128, 80, 25, 55)),
    2: ((16, 4, 4, 0), (64, 40, 12, 28)),
}


def test_the_sign_twists_of_h_have_the_cohomology_of_their_group_rank():
    # all 16 ordered pairs of H's sign automorphisms, Yau-twisted, in adjoint coefficients
    h = make_quaternions()
    signs = _sign_automorphisms(h)
    assert len(signs) == 4
    ranks = []
    for a, b in itertools.product(signs, repeat=2):
        alg = yau_twist(h, a, b)
        rank = _group_rank(alg.alpha, alg.beta)
        reports = (complex_report(alg, adjoint(alg), degree) for degree in (2, 3))
        assert tuple((r.dim_C, r.dim_Z, r.dim_B, r.dim_H) for r in reports) == H_SIGN_TWISTS[rank], (a, b)
        ranks.append(rank)
    assert sorted(ranks) == [0] + [1] * 9 + [2] * 6


def test_twisted_octonion_degree2_pin():
    to = make_twisted_octonions()
    dims = complex_report(to, adjoint(to), 2)
    assert (dims.dim_C, dims.dim_Z, dims.dim_B, dims.dim_H) == (128, 14, 14, 0)


def test_twisted_octonion_degree3_pin():
    to = make_twisted_octonions()
    rep = adjoint(to)
    h3 = complex_report(to, rep, 3)
    assert (h3.dim_C, h3.dim_Z, h3.dim_B, h3.dim_H) == (1024, 577, 114, 463)
    # B³ is the image of δ2 on C², so rank-nullity fixes it from the degree-2 report
    h2 = complex_report(to, rep, 2)
    assert h3.dim_B == h2.dim_C - h2.dim_Z == 114


def test_twisted_octonion_degree3_survives_a_twist_preserving_signed_permutation():
    to = make_twisted_octonions()
    moved = change_basis(to, twist_preserving_signed_permutation(Random(53), to))
    assert moved != to
    assert (moved.alpha, moved.beta) == (to.alpha, to.beta)
    h3 = complex_report(moved, adjoint(moved), 3)
    assert (h3.dim_C, h3.dim_Z, h3.dim_B, h3.dim_H) == (1024, 577, 114, 463)


def test_octonion_degree3_pin():
    o = make_octonions()
    rep = adjoint(o)
    h3 = complex_report(o, rep, 3)
    assert (h3.dim_C, h3.dim_Z, h3.dim_B, h3.dim_H) == (4096, 2305, 462, 1843)
    h2 = complex_report(o, rep, 2)
    assert h3.dim_B == h2.dim_C - h2.dim_Z == 462


# non-unimodular bases: the structure constants (and for D2 the twists) become non-integral,
# so the factor tables of the operator need a common denominator greater than one
RATIONAL_BASES = [
    (make_d2, Matrix([[2, 1], [0, 1]])),
    (make_quaternions, Matrix([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 1, 3]])),
]


@pytest.mark.parametrize("make, s", RATIONAL_BASES, ids=["D2", "H"])
def test_operator_rows_match_naive_assembly_in_a_rational_basis(make, s):
    moved = change_basis(make(), s)
    entries = [x for row in moved.mu for cell in row for x in cell]
    entries += [x for twist in (moved.alpha, moved.beta) for row in twist.rows for x in row]
    assert any(x.denominator > 1 for x in entries)
    rep = adjoint(moved)
    for degree in (1, 2, 3):
        model, naive = naive_delta_rows(moved, rep, degree)
        assert _dense_rows(_full(moved, rep, degree), model.count) == naive, degree


# the product divides each entry by d^(degree + 1) after summing it, which unit columns cannot tell from dividing
# each row entry first; these bases give d = 4 (D2) and d = 6 (H)
COLUMN_BASES = [
    (make_d2, Matrix([[1, Fraction(1, 2)], [0, 2]])),
    RATIONAL_BASES[1],
]


@pytest.mark.parametrize("make, s", COLUMN_BASES, ids=["D2", "H"])
def test_coboundary_times_rational_columns_matches_naive_assembly(make, s):
    rng = Random(59)
    moved = change_basis(make(), s)
    rep = adjoint(moved)
    delta = _coboundary(moved, rep)
    for degree in (1, 2, 3):
        model, naive = naive_delta_rows(moved, rep, degree)
        sparse = [
            {k: random_fraction(rng) or Fraction(1, 7) for k in rng.sample(range(model.count), 3)} for _ in range(4)
        ]
        for cols in ([], [{}], sparse + [{}] + sparse[:1]):
            product = [[sum(row[k] * v for k, v in col.items()) for col in cols] for row in naive]
            ours = delta(degree, cols)
            assert [[ours[r].get(j, 0) for j in range(len(cols))] for r in sorted(ours)] == [
                row for row in product if any(row)
            ], (degree, len(cols))


@pytest.mark.parametrize("make, s", RATIONAL_BASES, ids=["D2", "H"])
def test_cohomology_is_the_same_in_a_rational_basis(make, s):
    alg = make()
    moved = change_basis(alg, s)
    # for H the integral-basis report at degree 3 is the pin 256/160/51/109
    for degree in (2, 3):
        assert complex_report(moved, adjoint(moved), degree) == complex_report(alg, adjoint(alg), degree)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_coboundary_operator_sums_integers(monkeypatch, degree):
    # on integral structure constants every coefficient is summed as an int: no Fraction arithmetic at all
    to = make_twisted_octonions()
    rep = adjoint(to)
    expected = _full(to, rep, degree)

    def refuse(*_):
        raise AssertionError("Fraction arithmetic while assembling the coboundary operator")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    op = _full(to, rep, degree)
    monkeypatch.undo()
    assert op == expected


def test_coboundary_of_the_zero_cochain_walks_no_row(monkeypatch):
    to = make_twisted_octonions()
    rep = adjoint(to)
    built = []
    real = cohomology._term_rows

    def counted(*args):
        built.append(args)
        return real(*args)

    # the twist_witness precondition reads rows too, so only the rows that δ itself builds are counted
    monkeypatch.setattr(cohomology, "_term_rows", counted)
    assert delta2(to, rep, Cochain.zero(2, to.dim, rep.mod_dim)).is_zero()
    assert built == []


def _corrupt(degree, change):
    """A _coboundary whose degree-`degree` product is taken with the full operator passed through `change`."""
    real = _coboundary

    def corrupted(alg, rep):
        delta = real(alg, rep)

        def corrupted_delta(d, columns):
            if d != degree:
                return delta(d, columns)
            return _times(change(alg, rep, _full(alg, rep, d)), columns)

        return corrupted_delta

    return corrupted


def test_guard_rejects_coboundary_outside_compatible_space(monkeypatch):
    d2 = make_d2()

    def all_ones(alg, rep, op):
        width = rep.mod_dim * alg.dim
        return {r: {c: Fraction(1) for c in range(width)} for r in range(width * alg.dim)}

    monkeypatch.setattr(cohomology, "_coboundary", _corrupt(1, all_ones))
    with pytest.raises(InternalError, match="escaped the compatible cochain space"):
        complex_report(d2, adjoint(d2), 2)


def test_guard_rejects_coboundary_that_is_not_a_cocycle(monkeypatch):
    e1 = make_e1()
    monkeypatch.setattr(cohomology, "_coboundary", _corrupt(2, lambda alg, rep, op: {0: {0: Fraction(1)}}))
    with pytest.raises(InternalError, match="not a cocycle"):
        complex_report(e1, adjoint(e1), 2)


@pytest.mark.parametrize("degree", [2, 3])
def test_complex_report_builds_one_factor_table_and_applies_each_coboundary_once(monkeypatch, degree):
    # one factor table serves δ_(n−1), for dim B and the images, and δ_n, for dim Z and the exactness guard
    tables, applied = [], []
    real_denominator = cohomology._common_denominator

    def counted_denominator(*args):
        tables.append(args)
        return real_denominator(*args)

    def counted(alg, rep):
        delta = _coboundary(alg, rep)

        def applied_delta(d, columns):
            applied.append(d)
            return delta(d, columns)

        return applied_delta

    monkeypatch.setattr(cohomology, "_common_denominator", counted_denominator)
    monkeypatch.setattr(cohomology, "_coboundary", counted)
    h = make_quaternions()
    assert complex_report(h, adjoint(h), degree).dim_B > 0
    assert len(tables) == 1
    assert sorted(applied) == [degree - 1, degree]


def test_guard_on_invalid_coefficients_is_a_precondition_error():
    # l(e_0) of the D2 adjoint changed by one entry: δ∘δ ≠ 0 there, which is bad input, not a defect
    d2 = make_d2()
    rep = adjoint(d2)
    l0 = Matrix([[rep.l[0].rows[0][0] + 1, rep.l[0].rows[0][1]], list(rep.l[0].rows[1])])
    bad = Representation(2, 2, [l0, rep.l[1]], rep.r, rep.phi, rep.psi)
    assert not validate_representation(d2, bad).ok
    with pytest.raises(PreconditionError, match="valid representation"):
        complex_report(d2, bad, 2)


def _unit_module():
    """The 1-dim module over the zero algebra with l = r = (1) and φ = ψ = 1: every module axiom fails."""
    one = Matrix([[1]])
    return Representation(1, 1, [one], [one], one, one)


def _noncommuting_module():
    """A 2-dim module over the zero algebra with zero actions and twists that do not commute."""
    zero = Matrix.zero(2, 2)
    return Representation(1, 2, [zero], [zero], Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]]))


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("module", [_unit_module, _noncommuting_module], ids=["unit", "noncommuting"])
def test_cohomology_with_an_invalid_representation_is_a_precondition_error(module, degree):
    # these used to pass with 1/1/1/0 and 1/1/0/1 (unit) or 0/0/0/0 (noncommuting): δ∘δ = 0 held by accident
    zero1, rep = make_zero1(), module()
    assert not validate_representation(zero1, rep).ok
    with pytest.raises(PreconditionError, match="^cohomology needs a valid representation$"):
        complex_report(zero1, rep, degree)


def test_cohomology_with_the_adjoint_skips_the_representation_check(monkeypatch):
    def refused(alg, rep):
        raise AssertionError("the adjoint of a valid algebra was validated as a representation")

    # the precondition is shared with the CLI's dual, in representation._require_valid
    monkeypatch.setattr(representation, "validate_representation", refused)
    h = make_quaternions()
    assert complex_report(h, adjoint(h), 2).dim_C > 0


def test_trivialize_guard_rejects_a_gauge_that_leaves_the_term(monkeypatch):
    e1 = make_e1()
    defm = TruncatedDeformation(e1, [Cochain.from_nested(2, 1, 1, [[[1]]]), Cochain.from_nested(2, 1, 1, [[[-2]]])])
    assert trivialize(defm, 4) is not None

    def doubled(alg, rep, op):
        return {r: {c: 2 * a for c, a in row.items()} for r, row in op.items()}

    monkeypatch.setattr(cohomology, "_coboundary", _corrupt(1, doubled))
    with pytest.raises(InternalError, match="did not clear the order-1 term"):
        trivialize(defm, 4)


@pytest.mark.parametrize("max_order", [0, -3])
def test_trivialize_rejects_order_below_one(max_order):
    e1 = make_e1()
    defm = TruncatedDeformation(e1, [Cochain.from_nested(2, 1, 1, [[[1]]])])
    with pytest.raises(PreconditionError):
        trivialize(defm, max_order)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("mod_dim", [1, 3])
def test_first_nonzero_is_the_first_tuple_in_lexicographic_order(degree, mod_dim):
    n = 3
    assert Cochain.zero(degree, n, mod_dim).first_nonzero() is None
    tuples = list(itertools.product(range(n), repeat=degree))
    rng = Random(10 * degree + mod_dim)
    for _ in range(10):
        data = [Fraction(0)] * (mod_dim * n**degree)
        for pos in rng.sample(range(len(data)), rng.randint(1, 3)):
            data[pos] = random_fraction(rng) or Fraction(1)
        f = Cochain(degree, n, mod_dim, data)
        assert f.first_nonzero() == next(t for t in tuples if any(f.value(*t)))


def test_first_nonzero_reads_past_zero_output_coordinates():
    data = [Fraction(0)] * (2 * 3 * 3)
    data[(2 * 3 + 0) * 2 + 1] = Fraction(-1, 2)  # only the second output coordinate at (2, 0)
    assert Cochain(2, 3, 2, data).first_nonzero() == (2, 0)
