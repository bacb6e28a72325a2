"""Seeded benchmark inputs, built in plain `fractions.Fraction` arithmetic.

Nothing here imports bihomalt: the program under test only ever sees the
files these functions write.  An algebra is a triple (mu, alpha, beta) with
mu[i][j][k] the e_k-coefficient of e_i·e_j and row-major twist matrices,
the same orientation as the `.bha` format.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

ONE, ZERO = Fraction(1), Fraction(0)


# -- dense matrices as lists of rows -------------------------------------------------


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def diag(entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols] for row in a]


def matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def column(a, j):
    return [row[j] for row in a]


def block_diag(a, b):
    n, m = len(a), len(b)
    return [list(r) + [ZERO] * m for r in a] + [[ZERO] * n + list(r) for r in b]


# -- algebras ---------------------------------------------------------------------------


def product(mu, x, y):
    n = len(mu)
    acc = [ZERO] * n
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    ab = a * b
                    for k, c in enumerate(mu[i][j]):
                        if c:
                            acc[k] += ab * c
    return acc


def cayley_dickson(mu, conj, gamma=-1):
    """Double (A, *) to A⊕A with (a,b)(c,d) = (ac + γ d*b, da + b c*), (a,b)* = (a*, −b)."""
    n = len(mu)
    units = identity(n)
    gamma = Fraction(gamma)

    def mult(x, y):
        a, b, c, d = x[:n], x[n:], y[:n], y[n:]
        first = [p + gamma * q for p, q in zip(product(mu, a, c), product(mu, matvec(conj, d), b))]
        second = [p + q for p, q in zip(product(mu, d, a), product(mu, b, matvec(conj, c)))]
        return first + second

    basis = [u + [ZERO] * n for u in units] + [[ZERO] * n + u for u in units]
    new_mu = [[mult(x, y) for y in basis] for x in basis]
    new_conj = block_diag(conj, diag([-1] * n))
    return new_mu, new_conj


def _doubled(times):
    mu, conj = [[[ONE]]], [[ONE]]
    for _ in range(times):
        mu, conj = cayley_dickson(mu, conj)
    return mu


def quaternions():
    return _doubled(2), identity(4), identity(4)


def octonions():
    return _doubled(3), identity(8), identity(8)


TWIST_A = [1, 1, 1, 1, -1, -1, -1, -1]
TWIST_B = [1, 1, -1, -1, 1, 1, -1, -1]


def yau_twist(alg, a2, b2):
    """mu~(x,y) = mu(a2 x, b2 y) with twists a2·alpha, b2·beta; a2, b2 must be automorphisms."""
    mu, alpha, beta = alg
    n = len(mu)
    new_mu = [[product(mu, column(a2, i), column(b2, j)) for j in range(n)] for i in range(n)]
    return new_mu, matmul(a2, alpha), matmul(b2, beta)


def twisted_octonions():
    """The octonions Yau-twisted by the sign automorphisms TWIST_A and TWIST_B."""
    return yau_twist(octonions(), diag(TWIST_A), diag(TWIST_B))


def p2():
    """Truncated polynomials Q[x]/(x^2) in the basis (1, x), identity twists."""
    mu = [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ZERO, ZERO]]]
    return mu, identity(2), identity(2)


def d2():
    return yau_twist(p2(), diag([1, 2]), diag([1, 3]))


def semidirect_adjoint(alg):
    """SD(A): A⊕A with (x1+v1)(x2+v2) = x1x2 + x1v2 + v1x2, twists doubled block-diagonally."""
    mu, alpha, beta = alg
    n = len(mu)
    total = 2 * n
    new_mu = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = mu[i][j][k]
                new_mu[i][j][k] = c
                new_mu[i][n + j][n + k] = c
                new_mu[n + i][j][n + k] = c
    return new_mu, block_diag(alpha, alpha), block_diag(beta, beta)


# -- seeded changes of basis ------------------------------------------------------------


def signed_permutation(rng: Random, n):
    """(P, P^-1) for a random signed permutation; it keeps every sparsity pattern."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[ZERO] * n for _ in range(n)]
    for i, k in enumerate(perm):
        p[k][i] = Fraction(rng.choice((1, -1)))
    return p, [list(r) for r in zip(*p)]


def unimodular(rng: Random, n, span=1):
    """(P, P^-1) with P = S·L·U: S a signed permutation, L/U unit triangular with entries in ±[1, span].

    Every off-diagonal triangular entry is non-zero, so the entry sizes and the
    density of P, and with them the cost of the basis-changed inputs, vary
    little from seed to seed.
    """
    lower, upper = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = _nonzero(rng, span)
            upper[j][i] = _nonzero(rng, span)
    s, s_inv = signed_permutation(rng, n)
    p = matmul(s, matmul(lower, upper))
    p_inv = matmul(matmul(_unit_triangular_inverse(upper, upper=True), _unit_triangular_inverse(lower, upper=False)), s_inv)
    if matmul(p, p_inv) != identity(n):
        raise ArithmeticError("unimodular pair does not multiply to the identity")
    return p, p_inv


def _unit_triangular_inverse(t, upper):
    n = len(t)
    inv = identity(n)
    order = range(n) if not upper else range(n - 1, -1, -1)
    for i in order:
        others = range(i) if not upper else range(i + 1, n)
        for j in range(n):
            inv[i][j] = (ONE if i == j else ZERO) - sum((t[i][k] * inv[k][j] for k in others), ZERO)
    return inv


def transform(tensor, p, p_inv):
    """A bilinear map A x A -> A in the basis of P's columns: t'(e_i, e_j) = P^-1 t(P e_i, P e_j)."""
    n = len(tensor)
    cols = [column(p, i) for i in range(n)]
    return [[matvec(p_inv, product(tensor, cols[i], cols[j])) for j in range(n)] for i in range(n)]


def change_basis(alg, p, p_inv):
    """The same algebra in the basis of P's columns: mu' = P^-1 mu(P·, P·), twists P^-1 τ P."""
    mu, alpha, beta = alg
    return transform(mu, p, p_inv), matmul(p_inv, matmul(alpha, p)), matmul(p_inv, matmul(beta, p))


def twist_commutant_element(rng: Random, alg, span=2):
    """A random integer endomorphism commuting with both twists, non-zero on every commutant entry.

    The twists of the generated algebras are diagonal ±1 (or identity), so the
    commutant is block-diagonal over the joint eigenspaces of (alpha, beta).
    """
    _, alpha, beta = alg
    n = len(alpha)
    if any(alpha[i][j] or beta[i][j] for i in range(n) for j in range(n) if i != j):
        raise ValueError("twist_commutant_element needs diagonal twists")
    f = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if (alpha[i][i], beta[i][i]) == (alpha[j][j], beta[j][j]):
                f[i][j] = _nonzero(rng, span)
    return f


def gauge_deformation(alg, f, order):
    """Terms d'_1..d'_order of d'_t = chi_t^-1 mu(chi_t ·, chi_t ·), chi_t = id − t f.

    With chi_t^-1 = sum_i f^i t^i and mu(chi x, chi y) = A0 − t A1 + t^2 A2, the
    order-k term is sum_{i+a=k} f^i A_a.  The result is equivalent to the null
    deformation, so it satisfies every deformation equation and trivializes.
    """
    mu = alg[0]
    n = len(mu)
    units = identity(n)
    fcols = [column(f, i) for i in range(n)]
    parts = [
        [[list(mu[i][j]) for j in range(n)] for i in range(n)],
        [
            [[-(a + b) for a, b in zip(product(mu, fcols[i], units[j]), product(mu, units[i], fcols[j]))] for j in range(n)]
            for i in range(n)
        ],
        [[product(mu, fcols[i], fcols[j]) for j in range(n)] for i in range(n)],
    ]
    powers = [identity(n)]
    for _ in range(order):
        powers.append(matmul(powers[-1], f))
    terms = []
    for k in range(1, order + 1):
        term = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for a, part in enumerate(parts):
            if k - a < 0:
                continue
            fk = powers[k - a]
            for i in range(n):
                for j in range(n):
                    term[i][j] = [x + y for x, y in zip(term[i][j], matvec(fk, part[i][j]))]
        terms.append(term)
    return terms


def coboundary(alg, f):
    """theta = delta1 f with adjoint coefficients: theta(x,y) = x f(y) + f(x) y − f(xy)."""
    mu = alg[0]
    n = len(mu)
    units = identity(n)
    fcols = [column(f, i) for i in range(n)]
    return [
        [
            [a + b - c for a, b, c in zip(product(mu, units[i], fcols[j]), product(mu, fcols[i], units[j]), matvec(f, mu[i][j]))]
            for j in range(n)
        ]
        for i in range(n)
    ]


def random_integer_matrix(rng: Random, n, span=2):
    return [[_nonzero(rng, span) for _ in range(n)] for _ in range(n)]


def _nonzero(rng: Random, span):
    """A random integer in ±[1, span]: inputs keep the same density whatever the seed."""
    return Fraction(rng.choice((1, -1)) * rng.randint(1, span))


# -- file documents -----------------------------------------------------------------------


def _lit(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _lits(obj):
    if isinstance(obj, list):
        return [_lits(e) for e in obj]
    return _lit(obj)


def algebra_doc(alg):
    mu, alpha, beta = alg
    return {"dim": len(mu), "mu": _lits(mu), "alpha": _lits(alpha), "beta": _lits(beta)}


def deformation_doc(alg, terms):
    return {"algebra": algebra_doc(alg), "terms": _lits(terms)}


def cochain_doc(tensor, degree, alg_dim, mod_dim, target="module"):
    return {"degree": degree, "alg_dim": alg_dim, "mod_dim": mod_dim, "target": target, "tensor": _lits(tensor)}


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
