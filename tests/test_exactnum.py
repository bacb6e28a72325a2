import copy
import pickle
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bihomalt.algebra import AlgebraReport, BiHomAlgebra, validate
from bihomalt.cohomology import Cochain, ComplexReport
from bihomalt.deformation import DeformationReport, FormalIsomorphism, TruncatedDeformation
from bihomalt.errors import InputError, PreconditionError
from bihomalt.exactnum import (
    Matrix,
    Subspace,
    _eliminate,
    _Eliminator,
    _Immutable,
    _Record,
    _Report,
    _factor,
    _independent,
    _transpose,
    format_rational,
    nullspace_of_sparse_rows,
    parse_rational,
    rank_nullspace,
    solve,
    subspace_ops,
    unit_vector,
    vector,
)
from bihomalt.genderiv import OperatorSpace
from bihomalt.representation import Representation, RepresentationReport, adjoint

from conftest import make_d2, make_e1
from oracle_naive import dense_inverse, dense_kernel_basis, dense_rref, dense_solve, greedy_independent

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    ).map(Matrix)


def test_rationals_parse_and_format():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"
    for bad in ("1/0", "1/-2", "a", "1.5", "--1", True, None, 2.5):
        with pytest.raises(InputError):
            parse_rational(bad)


# every library constructor that takes scalars, fed one scalar
SCALAR_TAKERS = {
    "vector": lambda x: vector([x]),
    "Matrix": lambda x: Matrix([[x]]),
    "Matrix.diagonal": lambda x: Matrix.diagonal([x]),
    "Matrix.scale": lambda x: Matrix([[1]]).scale(x),
    "Subspace": lambda x: Subspace(1, [(x,)]),
    "solve": lambda x: solve(Matrix([[1]]), (x,)),
    "BiHomAlgebra": lambda x: BiHomAlgebra(1, [[[x]]], Matrix([[1]]), Matrix([[1]])),
    "Cochain": lambda x: Cochain(1, 1, 1, [x]),
}


@pytest.mark.parametrize("bad", [0.1, True, "1.5"], ids=["float", "bool", "decimal-string"])
@pytest.mark.parametrize("take", SCALAR_TAKERS.values(), ids=SCALAR_TAKERS)
def test_library_scalars_are_read_like_file_scalars(take, bad):
    # Fraction(0.1) is the binary float, not 1/10, and Fraction(True) is 1; a file refuses both
    with pytest.raises(InputError, match="^not a rational literal: "):
        take(bad)


def test_library_scalars_take_ints_fractions_and_rational_strings():
    assert vector([2, "-3/4", Fraction(1, 3)]) == (Fraction(2), Fraction(-3, 4), Fraction(1, 3))
    assert Matrix.diagonal(["1/2", 3]) == Matrix([[Fraction(1, 2), 0], [0, 3]])
    assert Matrix([[2, "1/3"]]).scale("3/2") == Matrix([[3, Fraction(1, 2)]])


# library arrays given a string or a scalar where a list belongs; a file refuses each of them
ARRAY_TAKERS = {
    "vector-of-a-string": (lambda: vector("105"), "^expected a vector of rationals, got str "),
    "vector-of-a-scalar": (lambda: vector(5), "^expected a vector of rationals, got int "),
    "Matrix-of-strings": (lambda: Matrix(["12", "34"]), "^expected a vector of rationals, got str "),
    "Matrix-with-a-scalar-row": (lambda: Matrix([[1, 2], 3]), "^expected a vector of rationals, got int "),
    "Cochain-of-strings": (lambda: Cochain.from_nested(1, 2, 2, ["12", "34"]), "^tensor entries nest in lists, got str "),
    "Cochain-too-shallow": (lambda: Cochain.from_nested(2, 2, 1, [[1, 2], [3, 4]]), "^tensor entries nest in lists, got int "),
}


@pytest.mark.parametrize("take, message", ARRAY_TAKERS.values(), ids=ARRAY_TAKERS)
def test_library_arrays_are_read_like_file_arrays(take, message):
    with pytest.raises(InputError, match=message):
        take()


def test_rank_nullspace_zero_matrix():
    rank, ker = rank_nullspace(Matrix.zero(2, 2))
    assert rank == 0 and ker.dim == 2


def test_rank_nullspace_identity():
    rank, ker = rank_nullspace(Matrix.identity(3))
    assert rank == 3 and ker.dim == 0


def test_rank_nullspace_hand_case():
    m = Matrix([[1, 2], [2, 4]])
    rank, ker = rank_nullspace(m)
    assert rank == 1 and ker.dim == 1
    # kernel is the line through (-2, 1)
    assert ker.coefficients_of((-2, 1)) is not None


def test_solve_identity():
    assert solve(Matrix.identity(2), (1, 2)) == (1, 2)


def test_solve_unsolvable():
    assert solve(Matrix.zero(2, 2), (1, 0)) is None


def test_solve_scalar_division():
    assert solve(Matrix([[2]]), (3,)) == (Fraction(3, 2),)


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(Matrix.identity(2), (1, 2, 3))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_are_exact_solutions(m):
    rank, ker = rank_nullspace(m)
    assert rank + ker.dim == m.ncols
    for v in ker.basis:
        assert all(e == 0 for e in m.apply(v))


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_permutations(m, rng):
    rows = list(m.rows)
    cols = list(range(m.ncols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = Matrix([[row[c] for c in cols] for row in rows])
    assert rank_nullspace(permuted)[0] == rank_nullspace(m)[0]


@given(matrices(), st.data())
@settings(max_examples=40, deadline=None)
def test_solve_finds_exact_preimages(m, data):
    x = data.draw(st.lists(rationals, min_size=m.ncols, max_size=m.ncols))
    b = m.apply(x)
    sol = solve(m, b)
    assert sol is not None
    assert m.apply(sol) == b


def test_matrix_inverse_roundtrip():
    m = Matrix([[1, 2], [3, 5]])
    assert m * m.inverse() == Matrix.identity(2)
    assert m.inverse() * m == Matrix.identity(2)
    with pytest.raises(PreconditionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_matrix_power_negative():
    m = Matrix.diagonal([2, 3])
    assert m.power(-2) == Matrix.diagonal([Fraction(1, 4), Fraction(1, 9)])
    assert m.power(0) == Matrix.identity(2)


def test_matrix_power_squares_repeatedly(monkeypatch):
    # a power costs one square per bit of k and one product per set bit, not one product per unit of k
    m = Matrix.diagonal([1, -1, -1, 1])
    products = []
    real = Matrix.__mul__

    def counted(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert m.power(1000) == Matrix.identity(4)
    assert len(products) <= 2 * (1000).bit_length()


def test_subspace_ops_full_space():
    a = Subspace(2, [unit_vector(2, 0), unit_vector(2, 1)])
    s, i, c = subspace_ops(a, a)
    assert s.dim == 2 and i.dim == 2 and c


def test_subspace_ops_transverse_lines():
    a = Subspace(2, [unit_vector(2, 0)])
    b = Subspace(2, [unit_vector(2, 1)])
    s, i, c = subspace_ops(a, b)
    assert s.dim == 2 and i.dim == 0 and not c


def test_subspace_containment_by_membership():
    a = Subspace(2, [(1, 1)])
    b = Subspace(2, [(1, 1), (1, 0)])
    assert b.contains(a)
    assert not a.contains(b)


def test_subspace_ambient_mismatch():
    with pytest.raises(InputError):
        Subspace(2, [(1, 0)]).sum(Subspace(3, [(1, 0, 0)]))


def test_subspace_bases_hold_fraction_tuples():
    # the public constructor converts its input, and the dense view of a kernel holds Fractions too
    given = Subspace(3, [[1, 0, 2]])
    kernel = nullspace_of_sparse_rows([{0: 1, 1: -2}], 3)
    for space in (given, kernel):
        assert all(type(v) is tuple and all(type(a) is Fraction for a in v) for v in space.basis)
    assert given.basis == ((Fraction(1), Fraction(0), Fraction(2)),)
    assert kernel.basis == ((Fraction(2), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1)))


def test_the_zero_subspace_holds_the_zero_vector_only():
    empty = Subspace(3, [])
    assert empty.dim == 0 and empty.basis == ()
    assert empty.coefficients_of((0, 0, 0)) == ()
    assert empty.coefficients_of((0, Fraction(1, 2), 0)) is None
    line = Subspace(3, [(1, 2, 3)])
    for a, b in ((empty, line), (line, empty), (empty, empty)):
        assert a.intersection(b).dim == 0
        assert a.sum(b).dim == a.dim + b.dim
    assert line.contains(empty) and not empty.contains(line)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(InputError):
        Subspace(2, [(1, 2), (2, 4)])


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=4),
       st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_subspace_dimension_formula(vs, ws):
    a = Subspace.from_spanning(3, vs)
    b = Subspace.from_spanning(3, ws)
    s, i, _ = subspace_ops(a, b)
    assert s.dim + i.dim == a.dim + b.dim
    for v in i.basis:
        assert a.coefficients_of(v) is not None and b.coefficients_of(v) is not None


@st.composite
def subspace_pairs(draw):
    """(n, vs, ws): two spanning lists in Q^n sharing a drawn list of vectors, so intersections are often non-zero."""
    n = draw(st.integers(1, 4))
    vecs = st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=3)
    shared = draw(vecs)
    return n, draw(vecs) + shared, shared + draw(vecs)


@given(subspace_pairs())
@settings(max_examples=60, deadline=None)
def test_intersection_and_sum_equal_the_dense_computation(pair):
    n, vs, ws = pair
    a, b = Subspace.from_spanning(n, vs), Subspace.from_spanning(n, ws)
    A, B = a.basis, b.basis
    # the kernel of [A | -B] by dense Gauss-Jordan, its A-part lifted, then the greedy independent choice
    rows = [[v[i] for v in A] + [-w[i] for w in B] for i in range(n)]
    kernel = dense_kernel_basis(rows, len(A) + len(B))
    lifts = [tuple(sum((k[j] * A[j][i] for j in range(len(A))), Fraction(0)) for i in range(n)) for k in kernel]
    assert a.intersection(b).basis == tuple(lifts[i] for i in greedy_independent(lifts))
    joined = A + B
    assert a.sum(b).basis == tuple(joined[i] for i in greedy_independent(joined))


# -- the eliminator against a dense Fraction RREF ----------------------------------------

# ints stay ints, so rows reach the eliminator as ints as well as Fractions
entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)


@st.composite
def systems(draw):
    """(ncols, rows): random rows plus zero rows, duplicate rows and combinations of rows."""
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not rows:
            new = [0] * ncols
        elif kind == "duplicate":
            new = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            new = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return ncols, rows


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@given(systems())
@settings(max_examples=80, deadline=None)
def test_kernel_bases_equal_the_dense_rref_kernel(system):
    ncols, rows = system
    expected = dense_kernel_basis(rows, ncols)
    sparse_rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
    sparse = nullspace_of_sparse_rows(sparse_rows, ncols)
    assert sparse.basis == tuple(expected) and _all_fractions(sparse.basis)
    if rows:
        rank, kernel = rank_nullspace(Matrix(rows))
        # the rank-only path complex_report takes
        assert rank == _eliminate(sparse_rows, ncols).rank == len(dense_rref(rows, ncols)[0])
        assert kernel.basis == tuple(expected) and _all_fractions(kernel.basis)


def _solve_rows(rows: dict, b, ncols: int):
    """The system {row index: {column: coefficient}} = b through the factor of its columns; a row left out is zero."""
    columns = _transpose(rows.items())
    return _factor([columns.get(j, {}) for j in range(ncols)], len(b))({i: Fraction(e) for i, e in enumerate(b) if e})


@given(systems(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_equals_the_dense_rref_solution(system, data):
    ncols, rows = system
    if not rows:
        return
    m = Matrix(rows)
    targets = []
    for _ in range(3):
        if data.draw(st.booleans()):
            targets.append(m.apply(data.draw(st.lists(entries, min_size=ncols, max_size=ncols))))
        else:
            targets.append(data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows))))
    b = targets[0]
    expected = dense_solve(rows, b, ncols)
    got = solve(m, b)
    assert got == expected
    if got is not None:
        assert _all_fractions([got])
    # the same system with its all-zero rows left out, as the cochain restrictions give it
    sparse_rows = {i: {j: v for j, v in enumerate(r) if v} for i, r in enumerate(rows) if any(r)}
    assert _solve_rows(sparse_rows, b, ncols) == got
    # factor once, solve many: every target is read off one factor of the columns
    read = _factor([{i: v for i, v in enumerate(col) if v} for col in zip(*rows)], len(rows))
    assert [read({i: Fraction(e) for i, e in enumerate(t) if e}) for t in targets] == [dense_solve(rows, t, ncols) for t in targets]


def test_solve_reports_inconsistent_augmented_systems():
    rows = [[1, 2], [2, 4], [0, 0]]
    for b in ([1, 3, 0], [0, 0, Fraction(1, 10**6)]):
        assert dense_solve(rows, b, 2) is None
        assert solve(Matrix(rows), b) is None
    assert solve(Matrix([[0]]), [0]) == (0,)
    assert solve(Matrix([[3]]), [Fraction(1, 7)]) == (Fraction(1, 21),)
    # row 1 of [[1, 2], [0, 0], [0, 1]] is all zero and left out: a non-zero target there has no solution
    sparse_rows = {0: {0: Fraction(1), 1: Fraction(2)}, 2: {1: Fraction(1)}}
    assert _solve_rows(sparse_rows, [Fraction(3), Fraction(1), Fraction(1)], 2) is None
    assert solve(Matrix([[1, 2], [0, 0], [0, 1]]), [3, 1, 1]) is None
    assert _solve_rows(sparse_rows, [Fraction(3), Fraction(0), Fraction(1)], 2) == (1, 1)
    assert _solve_rows({}, [Fraction(0), Fraction(5)], 2) is None


@given(systems())
@settings(max_examples=80, deadline=None)
def test_independent_subsets_equal_the_greedy_dense_choice(system):
    ncols, rows = system
    kept = greedy_independent(rows)
    assert _independent([{j: v for j, v in enumerate(r) if v} for r in rows], ncols) == kept
    assert Subspace.from_spanning(ncols, rows).basis == tuple(vector(rows[i]) for i in kept)


# -- inverse and power against Gauss-Jordan and repeated multiplication --------------------


@st.composite
def invertible_matrices(draw):
    n = draw(st.integers(1, 4))
    m = Matrix(draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(rank_nullspace(m)[0] == n)
    return m


@given(invertible_matrices())
@settings(max_examples=40, deadline=None)
def test_inverse_and_power_equal_the_dense_references(m):
    n = m.nrows
    inverse = Matrix(dense_inverse(m.rows))
    assert m.inverse() == inverse
    for base, sign in ((m, 1), (inverse, -1)):
        expected = Matrix.identity(n)
        for k in range(5):
            assert m.power(sign * k) == expected
            expected = expected * base


# -- products, matrix-vector products and dense bases against plain Fraction sums ----------


def _dense_product(a, b, width):
    """The rows of a·b by the definition, b having width columns."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(width)] for row in a]


def _rows_with_zeros(draw, nrows, ncols):
    """nrows rows of ncols rationals, with a drawn set of rows and of columns all zero."""
    rows = draw(st.lists(st.lists(rationals, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, nrows - 1)))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    return [[Fraction(0) if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)] for i, row in enumerate(rows)]


@st.composite
def product_factors(draw):
    """(a, b, width): the rows of an r×k and a k×width factor, width possibly 0, with zero rows and columns."""
    r, k, width = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    return _rows_with_zeros(draw, r, k), _rows_with_zeros(draw, k, width), width


@given(product_factors())
@settings(max_examples=50, deadline=None)
def test_products_equal_the_fraction_sums(factors):
    a, b, width = factors
    product = Matrix(a) * Matrix(b)
    assert (product.nrows, product.ncols) == (len(a), width)
    assert product == Matrix(_dense_product(a, b, width))
    assert all(type(v) is Fraction for row in product.rows for v in row)


@given(product_factors(), st.data())
@settings(max_examples=50, deadline=None)
def test_matrix_vector_products_equal_the_fraction_sums(factors, data):
    a, _, _ = factors
    ncols = len(a[0])
    vec = data.draw(st.one_of(st.just([0] * ncols), st.lists(rationals, min_size=ncols, max_size=ncols)))
    out = Matrix(a).apply(vec)
    assert out == tuple(sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in a)
    assert all(type(v) is Fraction for v in out)
    with pytest.raises(InputError, match=f"vector length {ncols + 1} does not match {len(a)}x{ncols}"):
        Matrix(a).apply([*vec, 1])


def test_a_map_from_the_zero_space_sends_its_vector_to_zero():
    assert Matrix([[], []]).apply(()) == (0, 0)
    assert Matrix([[1], [2]]) * Matrix([[]]) == Matrix([[], []])


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_dense_bases_equal_the_given_and_the_rref_vectors(m):
    # a kernel's dense basis is the RREF's, one vector per free column; a given independent basis reads back as given
    kernel = rank_nullspace(m)[1]
    assert kernel.basis == tuple(dense_kernel_basis(m.rows, m.ncols))
    independent = [m.rows[i] for i in greedy_independent(m.rows)]
    assert Subspace(m.ncols, independent).basis == tuple(independent)
    assert all(type(v) is tuple and all(type(a) is Fraction for a in v) for v in kernel.basis)


def test_singular_matrices_have_no_inverse_or_negative_power():
    for rows in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]]):
        m = Matrix(rows)
        assert dense_inverse(rows) is None
        with pytest.raises(PreconditionError):
            m.inverse()
        with pytest.raises(PreconditionError):
            m.power(-2)
        assert m.power(0) == Matrix.identity(m.nrows)


I1, I2 = Matrix.identity(1), Matrix.identity(2)

# two values of each value class that differ in every slot, each built afresh on every call
VALUE_PAIRS = {
    Matrix: lambda: (Matrix([[1, 2]]), Matrix([[1], [2]])),
    Cochain: lambda: (Cochain(1, 1, 1, [1]), Cochain(2, 2, 2, range(8))),
    BiHomAlgebra: lambda: (make_e1(), make_d2()),
    Representation: lambda: (adjoint(make_e1()), adjoint(make_d2())),
    TruncatedDeformation: lambda: (TruncatedDeformation(make_e1(), [Cochain(2, 1, 1, [1])]), TruncatedDeformation(make_d2(), [])),
    AlgebraReport: lambda: (AlgebraReport(*[True] * 5), AlgebraReport(*[False] * 5, {"commuting": ()})),
    RepresentationReport: lambda: (RepresentationReport(*[True] * 9), RepresentationReport(*[False] * 9, {"phi_left": (0,)})),
    ComplexReport: lambda: (ComplexReport(2, 4, 3, 1, 2), ComplexReport(3, 5, 4, 2, 1)),
    DeformationReport: lambda: (DeformationReport((True,)), DeformationReport((True, False), {1: (0, 0, 0)})),
    FormalIsomorphism: lambda: (FormalIsomorphism((I1,)), FormalIsomorphism(())),
    OperatorSpace: lambda: (OperatorSpace("Der", (0, 0), 1, (I1,)), OperatorSpace("QDer", None, 2, (I2,), ((I2,),))),
}

# a witness map is a dict, so a report holding one does not hash, as for any frozen value holding one
UNHASHABLE = {AlgebraReport, RepresentationReport, DeformationReport}


def _with_slots(value, cls=None, **changed):
    """A value of cls (value's class by default) with value's slots, but for the changed ones."""
    cls = cls or type(value)
    out = object.__new__(cls)
    out._set(**{**{name: getattr(value, name) for name in type(value).__slots__}, **changed})
    return out


@pytest.mark.parametrize("build", VALUE_PAIRS.values(), ids=[cls.__name__ for cls in VALUE_PAIRS])
def test_values_compare_and_hash_by_their_slots(build):
    (a, b), (again, _) = build(), build()
    assert again is not a and again == a and not again != a
    if type(a) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(again) == hash(a) and len({a, again, b}) == 2
    for name in type(a).__slots__:
        assert getattr(a, name) != getattr(b, name)
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        changed = _with_slots(a, **{name: getattr(b, name)})
        assert changed != a and a != changed, name
    twin = _with_slots(a, type("Twin", (type(a),), {"__slots__": ()}))
    assert twin != a and a != twin
    assert a != tuple(getattr(a, name) for name in type(a).__slots__)


def _value_classes(cls=_Immutable) -> set:
    """Every class of the library below cls, however deep."""
    below = {c for sub in cls.__subclasses__() for c in {sub, *_value_classes(sub)}}
    return {c for c in below if c.__module__.startswith("bihomalt.")}


def test_every_value_class_but_subspace_has_the_value_laws():
    # the value-law test covers every value class and every record; Subspace alone keeps identity equality
    assert set(VALUE_PAIRS) == _value_classes() - {Subspace, _Record, _Report}
    assert all(type(value) is cls for cls, build in VALUE_PAIRS.items() for value in build())


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("build", VALUE_PAIRS.values(), ids=[cls.__name__ for cls in VALUE_PAIRS])
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
def test_every_value_copies_and_pickles_as_an_equal_value(build, duplicate):
    for value in build():
        again = duplicate(value)
        assert type(again) is type(value) and again == value


def test_no_record_equals_a_tuple_unpacks_or_indexes():
    report, iso = ComplexReport(2, 1, 1, 1, 0), FormalIsomorphism((I1,))
    assert report != (2, 1, 1, 1, 0) and iso != ((I1,),)
    for record in (report, iso):
        with pytest.raises(TypeError):
            _, *_ = record
        with pytest.raises(TypeError):
            record[0]


@pytest.mark.parametrize(
    "values, named",
    [((2, 1, 1, 1), {}), ((2, 1, 1, 1, 0, 9), {}), ((2, 1, 1, 1, 0), {"dim_X": 0}), ((2, 1, 1, 1, 0), {"degree": 3})],
    ids=["missing", "extra", "unknown", "repeated"],
)
def test_a_record_takes_each_field_once(values, named):
    with pytest.raises(TypeError):
        ComplexReport(*values, **named)
    assert ComplexReport(2, 1, 1, dim_B=1, dim_H=0) == ComplexReport(2, 1, 1, 1, 0)


def test_a_record_prints_as_its_fields():
    # the text a typing.NamedTuple printed
    assert repr(validate(make_e1())) == (
        "AlgebraReport(commuting=True, alpha_multiplicative=True, beta_multiplicative=True,"
        " left_alternative=True, right_alternative=True, witnesses={})"
    )


def test_subspaces_with_equal_columns_compare_by_identity():
    # bases are not canonical, so two spans of one basis are equal only as sets, through containment
    a, b = Subspace(2, [(1, 2)]), Subspace(2, [(1, 2)])
    assert a.columns == b.columns and a.contains(b) and b.contains(a)
    assert a == a and a != b and len({a, b}) == 2


def _stored_rows_broken(elim) -> list:
    """The stored (pivot, row) pairs that break the eliminator's invariant, which _reduce relies on."""
    return [
        (p, row)
        for p, row in elim.pivot_rows.items()
        if not (
            p == min(row)
            and row[p] > 0
            and all(type(v) is int for v in row.values())
            and gcd(*row.values()) == 1
            and not any(q in row for q in elim.pivot_rows if q != p)
        )
    ]


def _random_rows(kind: str, rng: Random, count: int, ncols: int) -> list[dict]:
    rows = []
    for _ in range(count):
        if kind == "sparse":
            row = {c: rng.choice((-1, 1)) for c in rng.sample(range(ncols), rng.randint(1, 3))}
        elif kind == "dense":
            row = {c: rng.randint(-3, 3) for c in range(ncols)}
        else:
            row = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        rows.append(row)
    return rows


@pytest.mark.parametrize("kind", ["sparse", "dense", "fraction"])
def test_every_stored_row_keeps_the_eliminator_invariant(monkeypatch, kind):
    # after each store, by insert or by _factor's tagged columns, every stored row has its pivot at its minimal
    # column, a positive pivot entry, integer entries of gcd 1, and no other stored pivot among its columns
    stores = []
    plain_store = _Eliminator._store

    def checked_store(elim, row):
        pivot = plain_store(elim, row)
        stores.append(_stored_rows_broken(elim))
        return pivot

    monkeypatch.setattr(_Eliminator, "_store", checked_store)
    rng = Random(f"invariant-{kind}")
    for ncols in (4, 7, 10):
        rows = _random_rows(kind, rng, 2 * ncols, ncols)
        elim = _Eliminator(ncols)
        for row in rows:
            elim.insert(row)
        read = _factor(rows, ncols)
        assert read(rows[0]) is not None
    assert len(stores) > 20 and stores == [[] for _ in stores]


def test_the_invariant_check_sees_every_broken_row():
    elim = _Eliminator(4)
    elim.pivot_rows.update({0: {0: 1, 2: 3}, 1: {1: 2, 3: 4}, 2: {2: -1}, 3: {0: 1, 3: 1}})
    assert [p for p, _ in _stored_rows_broken(elim)] == [0, 1, 2, 3]
    elim.pivot_rows = {0: {0: 2, 1: Fraction(1)}}
    assert [p for p, _ in _stored_rows_broken(elim)] == [0]
    elim.pivot_rows = {0: {0: 2, 1: 3}, 2: {2: 1, 3: -1}}
    assert _stored_rows_broken(elim) == []
