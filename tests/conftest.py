"""Shared fixtures: the fixed desk-scale corpus and random-object helpers.

Corpus algebras:
  Z1    dim-2 zero multiplication, identity twists
  E1    dim-1 idempotent e·e = e, identity twists
  P2    dim-2 truncated polynomials Q[x]/(x^2) in basis (1, x), identity twists
  D2    twist of P2 by diag(1,2) / diag(1,3): nontrivial invertible twists
  ZERO1 dim-1 zero multiplication (nonzero second cohomology)
"""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from bihomalt.algebra import BiHomAlgebra, _pairing, _series_tables, _walk, yau_twist
from bihomalt.cohomology import Cochain, _coboundary, cochain_space
from bihomalt.exactnum import Matrix, Subspace, _lift, nullspace_of_sparse_rows
from bihomalt.representation import Representation, adjoint, semidirect

from oracle_naive import action_at


def zero_bilinear(n: int) -> list:
    """The zero product on an n-dimensional space as an [i][j][k] table."""
    return [[[0] * n for _ in range(n)] for _ in range(n)]


def make_z1():
    return BiHomAlgebra(2, zero_bilinear(2), Matrix.identity(2), Matrix.identity(2))


def make_e1():
    return BiHomAlgebra(1, [[[1]]], Matrix.identity(1), Matrix.identity(1))


def make_p2():
    mu = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return BiHomAlgebra(2, mu, Matrix.identity(2), Matrix.identity(2))


def make_d2():
    return yau_twist(make_p2(), Matrix.diagonal([1, 2]), Matrix.diagonal([1, 3]))


def make_zero1():
    return BiHomAlgebra(1, [[[0]]], Matrix.identity(1), Matrix.identity(1))


def _cayley_dickson(mul, conj):
    """The double of (A, mul, conj) with γ = −1: (a,b)(c,d) = (ac − d̄b, da + bc̄), (a,b)‾ = (ā, −b)."""

    def mul2(p, q):
        h = len(p) // 2
        a, b, c, d = p[:h], p[h:], q[:h], q[h:]
        first = [s - t for s, t in zip(mul(a, c), mul(conj(d), b))]
        second = [s + t for s, t in zip(mul(d, a), mul(b, conj(c)))]
        return first + second

    def conj2(p):
        h = len(p) // 2
        return conj(p[:h]) + [-x for x in p[h:]]

    return mul2, conj2


def _doubled_algebra(times):
    """R doubled `times` times, with identity twists: C, H, O for times = 1, 2, 3."""
    mul, conj = (lambda x, y: [x[0] * y[0]]), list
    for _ in range(times):
        mul, conj = _cayley_dickson(mul, conj)
    n = 2**times
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    mu = [[mul(x, y) for y in basis] for x in basis]
    return BiHomAlgebra(n, mu, Matrix.identity(n), Matrix.identity(n))


def make_quaternions():
    """H as the Cayley–Dickson double of C with γ = −1: (a,b)(c,d) = (ac − d̄b, da + bc̄)."""
    return _doubled_algebra(2)


def make_octonions():
    """O as the Cayley–Dickson double of H with γ = −1."""
    return _doubled_algebra(3)


OCTONION_TWISTS = ((1, 1, 1, 1, -1, -1, -1, -1), (1, 1, -1, -1, 1, 1, -1, -1))


def make_twisted_octonions():
    """O Yau-twisted by the sign automorphisms in OCTONION_TWISTS (α, then β)."""
    a, b = OCTONION_TWISTS
    return yau_twist(make_octonions(), Matrix.diagonal(a), Matrix.diagonal(b))


def make_matrix_algebra():
    """M2(Q) in the basis e11, e12, e21, e22 of matrix units, e_ij·e_kl = δ_jk e_il, with identity twists."""
    units = [(i, j) for i in range(2) for j in range(2)]
    mu = [[[int(j == k and (i, l) == unit) for unit in units] for k, l in units] for i, j in units]
    return BiHomAlgebra(4, mu, Matrix.identity(4), Matrix.identity(4))


def make_split_octonions():
    """The split octonions as Zorn vector matrices (a, u, v, b), a and b rational, u and v in Q³:

        (a, u, v, b)(a', u', v', b') = (aa' + u·v', au' + b'u − v×v', a'v + bv' + u×u', bb' + v·u'),

    in the basis a, u1, u2, u3, v1, v2, v3, b, with identity twists."""

    def dot(x, y):
        return sum(s * t for s, t in zip(x, y))

    def cross(x, y):
        return [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]

    def mul(p, q):
        (a, u, v, b), (a2, u2, v2, b2) = ((x[0], x[1:4], x[4:7], x[7]) for x in (p, q))
        return (
            [a * a2 + dot(u, v2)]
            + [a * s + b2 * t - c for s, t, c in zip(u2, u, cross(v, v2))]
            + [a2 * s + b * t + c for s, t, c in zip(v, v2, cross(u, u2))]
            + [b * b2 + dot(v, u2)]
        )

    basis = [[int(i == j) for j in range(8)] for i in range(8)]
    return BiHomAlgebra(8, [[mul(x, y) for y in basis] for x in basis], Matrix.identity(8), Matrix.identity(8))


def torus(t1, t2) -> Matrix:
    """The automorphism u_i ↦ t_i u_i, v_i ↦ v_i / t_i of the split octonions, with t3 = 1/(t1·t2)."""
    ts = [Fraction(t1), Fraction(t2), 1 / Fraction(t1 * t2)]
    return Matrix.diagonal([1, *ts, *(1 / t for t in ts), 1])


def change_basis(alg: BiHomAlgebra, s: Matrix) -> BiHomAlgebra:
    """The same algebra in the basis given by the columns of the invertible matrix s."""
    s_inv = s.inverse()
    n = alg.dim
    mu = [[s_inv.apply(alg.product(s.column(i), s.column(j))) for j in range(n)] for i in range(n)]
    return BiHomAlgebra(n, mu, s_inv * alg.alpha * s, s_inv * alg.beta * s)


def random_signed_permutation(rng: Random, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix([[rng.choice([-1, 1]) if perm[j] == i else 0 for j in range(n)] for i in range(n)])


def twist_preserving_signed_permutation(rng: Random, alg: BiHomAlgebra) -> Matrix:
    """A random signed permutation that commutes with the diagonal twists of alg.

    It permutes basis vectors only among those on which (alpha, beta) act by the
    same pair of eigenvalues, so the moved algebra keeps both twists.
    """
    n = alg.dim
    eigen = [(alg.alpha.rows[i][i], alg.beta.rows[i][i]) for i in range(n)]
    perm = list(range(n))
    for pair in sorted(set(eigen)):
        block = [i for i in range(n) if eigen[i] == pair]
        for i, j in zip(block, rng.sample(block, len(block))):
            perm[i] = j
    return Matrix([[rng.choice([-1, 1]) if perm[j] == i else 0 for j in range(n)] for i in range(n)])


@pytest.fixture
def z1():
    return make_z1()


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def p2():
    return make_p2()


@pytest.fixture
def d2():
    return make_d2()


@pytest.fixture
def zero1():
    return make_zero1()


def base_corpus():
    return [("Z1", make_z1()), ("E1", make_e1()), ("D2", make_d2())]


def product_corpus():
    """Base corpus plus semidirect and extension products of it."""
    from bihomalt.extension import central_extension, t_theta_extension

    e1 = make_e1()
    d2 = make_d2()
    items = base_corpus()
    items.append(("SD(E1)", semidirect(e1, adjoint(e1))))
    items.append(("SD(D2)", semidirect(d2, adjoint(d2))))
    items.append(("CE(E1)", central_extension(e1, 1, [[[1]]])))
    theta = Cochain(2, 1, 1, (Fraction(1),))
    items.append(("TT(E1)", t_theta_extension(e1, adjoint(e1), theta)))
    return items


def opposite(alg: BiHomAlgebra) -> BiHomAlgebra:
    """Aᵒᵖ = (mu(y, x), β, α), built from its definition: its left law is the right law of A."""
    n = alg.dim
    return BiHomAlgebra(n, [[alg.mu[j][i] for j in range(n)] for i in range(n)], alg.beta, alg.alpha)


def cocycle_sector(ext: BiHomAlgebra, n: int, right: bool) -> dict:
    """The V-output at inputs in A of the left-law pairing of ext = A⊕V, or of opposite(ext) when right.

    A dict {(x, y, z): rational vector} over every triple with x ≤ y, the keys the
    pairing yields, read through the walk that the extensions make: its classifiers
    record each value and name no failure.  The values are checked against the
    pairing of the diamond tables of ext and of opposite(ext), built here, so the
    walk's transposed tables have an independent reference.
    """
    tables = {side: _series_tables(law, [law.mu], 0) for side, law in ((False, ext), (True, opposite(ext)))}
    m = ext.dim - n
    values = {(x, y, z): (Fraction(0),) * m for x in range(n) for y in range(x, n) for z in range(n)}
    expected = dict(values)
    d, outer, inner = tables[right]
    for x, y, z, val in _pairing(ext.dim, outer, inner):
        if (x, y, z) in expected:
            expected[x, y, z] = tuple(Fraction(v, d**2) for v in val[n:])
    # the walk builds the tables of both laws over one denominator
    den = lcm(*(t[0] for t in tables.values()))

    def record(side, x, y, z, val):
        if side == right and (x, y, z) in values:
            values[x, y, z] = tuple(Fraction(v, den**2) for v in val[n:])
        return None

    assert _walk(ext, lambda twist, t, c: None, record) == {}
    assert values == expected
    return values


# ---------------------------------------------------------------------------
# random generators (all deterministic via seeded Random instances)


def random_fraction(rng: Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice([1, 1, 2]))


def cocycle_space(alg: BiHomAlgebra, rep: Representation, degree: int) -> Subspace:
    """Z^degree(A, rep): the kernel of δ on the twist-compatible cochains, in cochain coordinates."""
    space = cochain_space(alg, rep, degree)
    kernel = nullspace_of_sparse_rows(_coboundary(alg, rep)(degree, list(space.columns)).values(), space.dim)
    return Subspace(space.ambient_dim, [_lift(space.columns, v, space.ambient_dim) for v in kernel.basis])


def random_cocycle(alg: BiHomAlgebra, rng: Random) -> Cochain:
    """A random element of the degree-2 cocycle space with adjoint coefficients."""
    cocycles = cocycle_space(alg, adjoint(alg), 2)
    data = [Fraction(0)] * cocycles.ambient_dim
    for vec in cocycles.basis:
        c = random_fraction(rng)
        if c != 0:
            data = [d + c * v for d, v in zip(data, vec)]
    return Cochain(2, alg.dim, alg.dim, data)


def random_matrix(rng: Random, n: int, m=None, span: int = 3) -> Matrix:
    m = n if m is None else m
    return Matrix([[random_fraction(rng, span) for _ in range(m)] for _ in range(n)])


def random_unimodular(rng: Random, n: int) -> Matrix:
    """Product of unit triangular matrices: invertible with integer inverse."""
    if n == 1:
        return Matrix.identity(1)
    result = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        elem = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
        elem[i][j] = Fraction(rng.randint(-2, 2))
        result = result * Matrix(elem)
    return result


def random_commuting_invertible_pair(rng: Random, n: int) -> tuple[Matrix, Matrix]:
    """Two commuting invertible matrices (conjugated diagonal pair)."""
    s = random_unimodular(rng, n)
    s_inv = s.inverse()
    d1 = Matrix.diagonal([rng.choice([1, 1, 2, 3, -1]) for _ in range(n)])
    d2 = Matrix.diagonal([rng.choice([1, 1, 2, 5, -1]) for _ in range(n)])
    return s * d1 * s_inv, s * d2 * s_inv


def _sparse_integer_matrix(rng: Random, n: int, density: float) -> Matrix:
    return Matrix([[rng.choice([1, -1, 2]) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)])


def random_noncommuting_pair(rng: Random, n: int) -> tuple[Matrix, Matrix]:
    """Two sparse integer matrices a, b with ab ≠ ba."""
    while True:
        a, b = _sparse_integer_matrix(rng, n, 0.5), _sparse_integer_matrix(rng, n, 0.5)
        if a * b != b * a:
            return a, b


def random_noncommuting_algebra(rng: Random) -> BiHomAlgebra:
    """A dim-2 or dim-3 algebra with a sparse non-zero ±1 product and twists with αβ ≠ βα.

    Sparse data leaves most identities holding at most basis tuples, so the
    first failing tuple depends on the order in which the twists are composed.
    """
    n = rng.randint(2, 3)
    while True:
        mu = [[[rng.choice([1, -1]) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if any(x for row in mu for cell in row for x in cell):
            break
    return BiHomAlgebra(n, mu, *random_noncommuting_pair(rng, n))


def random_noncommuting_representation(alg: BiHomAlgebra, rng: Random) -> Representation:
    """Sparse integer actions on a dim-2 or dim-3 module whose twists have φψ ≠ ψφ."""
    m = rng.randint(2, 3)
    phi, psi = random_noncommuting_pair(rng, m)
    l, r = ([_sparse_integer_matrix(rng, m, 0.3) for _ in range(alg.dim)] for _ in range(2))
    return Representation(alg.dim, m, l, r, phi, psi)


def conjugate_representation(rep: Representation, s: Matrix) -> Representation:
    s_inv = s.inverse()
    return Representation(
        rep.alg_dim,
        rep.mod_dim,
        [s_inv * m * s for m in rep.l],
        [s_inv * m * s for m in rep.r],
        s_inv * rep.phi * s,
        s_inv * rep.psi * s,
    )


def argument_twisted_adjoint(alg: BiHomAlgebra, a_pow: int, b_pow: int) -> Representation:
    """Adjoint with both actions precomposed with alpha^a beta^b; stays a representation."""
    base = adjoint(alg)
    sigma = alg.alpha.power(a_pow) * alg.beta.power(b_pow)
    lmats = [action_at(base.l, sigma.column(i)) for i in range(alg.dim)]
    rmats = [action_at(base.r, sigma.column(i)) for i in range(alg.dim)]
    return Representation(alg.dim, alg.dim, lmats, rmats, base.phi, base.psi)


def trivial_representation(rng: Random, alg_dim: int, mod_dim: int) -> Representation:
    phi = Matrix.diagonal([rng.choice([1, 2, 3, -1]) for _ in range(mod_dim)])
    psi = Matrix.diagonal([rng.choice([1, 2, 5, -1]) for _ in range(mod_dim)])
    zero = Matrix.zero(mod_dim, mod_dim)
    return Representation(alg_dim, mod_dim, [zero] * alg_dim, [zero] * alg_dim, phi, psi)


def random_valid_representation(alg: BiHomAlgebra, rng: Random) -> Representation:
    """A genuinely valid representation built from adjoints, trivial blocks and conjugation."""
    kind = rng.choice(["adjoint", "twisted", "trivial", "conjugated", "conjugated_trivial"])
    if kind == "adjoint":
        rep = adjoint(alg)
    elif kind == "twisted":
        rep = argument_twisted_adjoint(alg, rng.randint(0, 2), rng.randint(0, 2))
    elif kind == "trivial":
        rep = trivial_representation(rng, alg.dim, rng.randint(1, 2))
    elif kind == "conjugated":
        rep = conjugate_representation(adjoint(alg), random_unimodular(rng, alg.dim))
    else:
        base = trivial_representation(rng, alg.dim, 2)
        rep = conjugate_representation(base, random_unimodular(rng, 2))
    return rep


def perturb_representation(rep: Representation, rng: Random, part=None) -> Representation:
    """Change a single entry of one matrix by a random nonzero amount.

    part is "l", "r", "phi" or "psi"; None draws one of the two actions.
    """
    which = rng.choice(["l", "r"]) if part is None else part
    parts = {"l": list(rep.l), "r": list(rep.r), "phi": [rep.phi], "psi": [rep.psi]}
    mats = parts[which]
    idx = rng.randrange(len(mats))
    rows = [list(row) for row in mats[idx].rows]
    i = rng.randrange(rep.mod_dim)
    j = rng.randrange(rep.mod_dim)
    rows[i][j] += rng.choice([Fraction(1), Fraction(-1), Fraction(1, 2)])
    mats[idx] = Matrix(rows)
    return Representation(rep.alg_dim, rep.mod_dim, parts["l"], parts["r"], parts["phi"][0], parts["psi"][0])
