"""Central, T_theta and T*_theta extensions.

A central extension glues a bilinear map omega: A x A -> V onto the product
of A with V acted on trivially and fixed pointwise by the extended twists.
A T_theta extension additionally lets a bimodule act, with theta a 2-cocycle
correction; the T*_theta variant is the same construction through the dual
bimodule.  Both constructors verify the defining conditions and name the
violated one with a witness on failure; the assembled algebra then passes
the full two-sided validation whenever the base algebra does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import BiHomAlgebra
from .cohomology import Cochain, apply_coboundary
from .errors import InputError, MathCheckError, PreconditionError
from .exactnum import Matrix, Subspace, nullspace_of_sparse_rows
from .representation import (
    Representation,
    dual,
    validate_representation,
)

ZERO = Fraction(0)


def annihilator(alg: BiHomAlgebra) -> Subspace:
    """{a : a·A = A·a = 0}, computed as one nullspace."""
    n = alg.dim
    rows = []
    for i in range(n):
        for k in range(n):
            right = {p: alg.mu[p][i][k] for p in range(n) if alg.mu[p][i][k] != 0}
            if right:
                rows.append(right)
            left = {p: alg.mu[i][p][k] for p in range(n) if alg.mu[i][p][k] != 0}
            if left:
                rows.append(left)
    return nullspace_of_sparse_rows(rows, n)


def _as_cochain2(alg_dim: int, mod_dim: int, tensor) -> Cochain:
    if isinstance(tensor, Cochain):
        if tensor.degree != 2 or tensor.alg_dim != alg_dim or tensor.mod_dim != mod_dim:
            raise InputError("bilinear tensor shape does not match the construction")
        return tensor
    return Cochain.from_nested(2, alg_dim, mod_dim, tensor)


def central_extension(alg: BiHomAlgebra, v_dim: int, omega) -> BiHomAlgebra:
    """(x+u)·(y+v) = x·y + omega(x,y), twists extending alpha/beta by the identity.

    Conditions on omega: invariance under both twists, and the two mixed
    conditions obtained by polarizing
        omega(beta(x)·alpha(x), beta(y)) = omega(alpha beta(x), alpha(x)·y)
        omega(x·beta(y), alpha beta(y)) = omega(alpha(x), beta(y)·alpha(y)).
    """
    if v_dim < 1:
        raise InputError("extension fiber dimension must be positive")
    omega = _as_cochain2(alg.dim, v_dim, omega)
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    for i in range(n):
        for j in range(n):
            if omega.evaluate(acols[i], acols[j]) != omega.value(i, j):
                raise MathCheckError(
                    "alpha-invariance of omega fails",
                    condition="alpha_invariance",
                    witness=(i, j),
                )
            if omega.evaluate(bcols[i], bcols[j]) != omega.value(i, j):
                raise MathCheckError(
                    "beta-invariance of omega fails",
                    condition="beta_invariance",
                    witness=(i, j),
                )

    def left_form(x, xp, y):
        lhs = omega.evaluate(alg.product(bcols[x], acols[xp]), bcols[y])
        rhs = omega.evaluate(abcols[x], alg.product(acols[xp], units[y]))
        return tuple(a - b for a, b in zip(lhs, rhs))

    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                total = tuple(a + b for a, b in zip(left_form(i, j, k), left_form(j, i, k)))
                if any(v != 0 for v in total):
                    raise MathCheckError(
                        "left mixed condition on omega fails",
                        condition="left_condition",
                        witness=(i, j, k),
                    )

    def right_form(x, y, yp):
        lhs = omega.evaluate(alg.product(units[x], bcols[y]), abcols[yp])
        rhs = omega.evaluate(acols[x], alg.product(bcols[y], acols[yp]))
        return tuple(a - b for a, b in zip(lhs, rhs))

    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                total = tuple(a + b for a, b in zip(right_form(i, j, k), right_form(i, k, j)))
                if any(v != 0 for v in total):
                    raise MathCheckError(
                        "right mixed condition on omega fails",
                        condition="right_condition",
                        witness=(i, j, k),
                    )

    return _assemble_central(alg, v_dim, omega)


def _assemble_central(alg: BiHomAlgebra, v_dim: int, omega: Cochain) -> BiHomAlgebra:
    n = alg.dim
    total = n + v_dim
    mu = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            prod = alg.mu[i][j]
            val = omega.value(i, j)
            for k in range(n):
                mu[i][j][k] = prod[k]
            for c in range(v_dim):
                mu[i][j][n + c] = val[c]
    alpha = _extend_identity(alg.alpha, v_dim)
    beta = _extend_identity(alg.beta, v_dim)
    return BiHomAlgebra(total, mu, alpha, beta)


def _extend_identity(m: Matrix, extra: int) -> Matrix:
    n = m.nrows
    rows = []
    for i in range(n):
        rows.append(list(m.rows[i]) + [ZERO] * extra)
    for i in range(extra):
        rows.append([ZERO] * n + [Fraction(int(j == i)) for j in range(extra)])
    return Matrix(rows)


def left_cocycle_residual(
    alg: BiHomAlgebra, rep: Representation, theta: Cochain
) -> Cochain:
    """The eight-term left condition on theta; equals the degree-2 coboundary of theta."""
    return apply_coboundary(alg, rep, theta)


def right_cocycle_residual(
    alg: BiHomAlgebra, rep: Representation, theta: Cochain
) -> Cochain:
    """The eight-term right condition, symmetrizing the last two inputs."""
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    def at(i, j, k):
        acc = [ZERO] * rep.mod_dim
        for y, z in ((j, k), (k, j)):
            pieces = (
                (1, theta.evaluate(alg.product(units[i], bcols[y]), abcols[z])),
                (1, rep.right_apply(abcols[z], theta.evaluate(units[i], bcols[y]))),
                (-1, theta.evaluate(acols[i], alg.product(bcols[y], acols[z]))),
                (-1, rep.left_apply(acols[i], theta.evaluate(bcols[y], acols[z]))),
            )
            for sign, val in pieces:
                for c in range(rep.mod_dim):
                    acc[c] += sign * val[c]
        return tuple(acc)

    return Cochain.from_function(3, n, rep.mod_dim, at)


def _theta_compat_witness(alg, rep, theta: Cochain) -> Optional[tuple]:
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if rep.phi.apply(theta.value(i, j)) != theta.evaluate(acols[i], acols[j]):
                return (i, j)
            if rep.psi.apply(theta.value(i, j)) != theta.evaluate(bcols[i], bcols[j]):
                return (i, j)
    return None


def t_theta_extension(alg: BiHomAlgebra, rep: Representation, theta) -> BiHomAlgebra:
    """(x+u)∘(y+v) = x·y + l(x)v + r(y)u + theta(x,y) on A⊕V, twists alpha+phi, beta+psi."""
    if rep.alg_dim != alg.dim:
        raise InputError("representation does not match the algebra")
    if not validate_representation(alg, rep).ok:
        raise PreconditionError("coefficients are not a valid representation")
    theta = _as_cochain2(alg.dim, rep.mod_dim, theta)

    w = _theta_compat_witness(alg, rep, theta)
    if w is not None:
        raise MathCheckError(
            "theta is not twist-compatible", condition="twist_compatibility", witness=w
        )
    residual = left_cocycle_residual(alg, rep, theta)
    if not residual.is_zero():
        witness = _first_nonzero_triple(residual, alg.dim)
        raise MathCheckError(
            "left cocycle condition on theta fails", condition="left_cocycle", witness=witness
        )
    residual = right_cocycle_residual(alg, rep, theta)
    if not residual.is_zero():
        witness = _first_nonzero_triple(residual, alg.dim)
        raise MathCheckError(
            "right cocycle condition on theta fails", condition="right_cocycle", witness=witness
        )
    return assemble_t_theta(alg, rep, theta)


def _first_nonzero_triple(residual: Cochain, n: int) -> tuple:
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if any(v != 0 for v in residual.value(i, j, k)):
                    return (i, j, k)
    raise AssertionError("residual reported nonzero without a witness")


def assemble_t_theta(alg: BiHomAlgebra, rep: Representation, theta) -> BiHomAlgebra:
    """The A⊕V algebra with no condition checks; validity is then the caller's question."""
    theta = _as_cochain2(alg.dim, rep.mod_dim, theta)
    n, m = alg.dim, rep.mod_dim
    total = n + m
    mu = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            prod = alg.mu[i][j]
            val = theta.value(i, j)
            for k in range(n):
                mu[i][j][k] = prod[k]
            for c in range(m):
                mu[i][j][n + c] = val[c]
    for i in range(n):
        for b in range(m):
            col = rep.l[i].column(b)
            for k in range(m):
                mu[i][n + b][n + k] = col[k]
    for a in range(m):
        for j in range(n):
            col = rep.r[j].column(a)
            for k in range(m):
                mu[n + a][j][n + k] = col[k]
    alpha = _block(alg.alpha, rep.phi)
    beta = _block(alg.beta, rep.psi)
    return BiHomAlgebra(total, mu, alpha, beta)


def _block(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.nrows, b.nrows
    rows = []
    for i in range(n):
        rows.append(list(a.rows[i]) + [ZERO] * m)
    for i in range(m):
        rows.append([ZERO] * n + list(b.rows[i]))
    return Matrix(rows)


def t_star_theta_extension(alg: BiHomAlgebra, rep, theta_star) -> BiHomAlgebra:
    """T_theta extension through the dual bimodule: actions r*, l* on V*.

    Accepts the underlying representation (twists must be invertible) or an
    already-wrapped regular representation; theta_star maps into V*.
    """
    dual_rep = dual(alg, rep)
    return t_theta_extension(alg, dual_rep, theta_star)
