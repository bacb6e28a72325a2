"""Bimodules over a BiHom-alternative algebra.

A representation is a space V with left/right action maps l, r (one matrix
per algebra basis vector) and two commuting twists phi, psi on V.  Besides
the four intertwining relations it must transfer both alternative laws into
V: two "square" axioms, quadratic in the algebra variable and therefore
checked in polarized form, and two "exchange" axioms bilinear in (x, y).

The dual representation lives on V* in dual-basis coordinates, where the
matrix of a transposed map is the matrix transpose and the pairing is the
coordinate dot product.  Its left action is built from r and its right
action from l, each precomposed with an invertible-twist correction, which
is what makes V* a representation with no extra hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import BiHomAlgebra
from .errors import InputError, PreconditionError
from .exactnum import Matrix, support

ZERO = Fraction(0)


class Representation:
    """Shape-checked container; validate_representation decides the axioms."""

    __slots__ = ("alg_dim", "mod_dim", "l", "r", "phi", "psi")

    def __init__(self, alg_dim: int, mod_dim: int, l, r, phi: Matrix, psi: Matrix):
        l = tuple(l)
        r = tuple(r)
        if len(l) != alg_dim or len(r) != alg_dim:
            raise InputError("need one action matrix per algebra basis vector")
        for m in (*l, *r, phi, psi):
            if not isinstance(m, Matrix) or m.nrows != mod_dim or m.ncols != mod_dim:
                raise InputError(f"action and twist matrices must be {mod_dim}x{mod_dim}")
        object.__setattr__(self, "alg_dim", alg_dim)
        object.__setattr__(self, "mod_dim", mod_dim)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    def __setattr__(self, *_):
        raise AttributeError("Representation is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and (self.alg_dim, self.mod_dim) == (other.alg_dim, other.mod_dim)
            and self.l == other.l
            and self.r == other.r
            and self.phi == other.phi
            and self.psi == other.psi
        )

    def __repr__(self):
        return f"Representation(alg_dim={self.alg_dim}, mod_dim={self.mod_dim})"

    def left_at(self, x: Sequence) -> Matrix:
        """Matrix of the left action at an algebra vector x."""
        return _combine(self.l, x, self.mod_dim)

    def right_at(self, x: Sequence) -> Matrix:
        return _combine(self.r, x, self.mod_dim)


def _combine(mats, x, mod_dim) -> Matrix:
    rows = [[ZERO] * mod_dim for _ in range(mod_dim)]
    for p, c in support(x):
        m = mats[p]
        for i in range(mod_dim):
            mrow = m.rows[i]
            row = rows[i]
            for j in range(mod_dim):
                if mrow[j] != 0:
                    row[j] += c * mrow[j]
    return Matrix(rows)


@dataclass(frozen=True)
class RepresentationReport:
    """Axiom flags; each failed axiom carries a witness basis tuple."""

    commuting: bool
    phi_left: bool
    phi_right: bool
    psi_left: bool
    psi_right: bool
    left_square: bool
    right_square: bool
    right_exchange: bool
    left_exchange: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(
            (
                self.commuting,
                self.phi_left,
                self.phi_right,
                self.psi_left,
                self.psi_right,
                self.left_square,
                self.right_square,
                self.right_exchange,
                self.left_exchange,
            )
        )

    def as_dict(self) -> dict:
        return {
            "commuting": self.commuting,
            "phi_left": self.phi_left,
            "phi_right": self.phi_right,
            "psi_left": self.psi_left,
            "psi_right": self.psi_right,
            "left_square": self.left_square,
            "right_square": self.right_square,
            "right_exchange": self.right_exchange,
            "left_exchange": self.left_exchange,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def validate_representation(alg: BiHomAlgebra, rep: Representation) -> RepresentationReport:
    if rep.alg_dim != alg.dim:
        raise InputError("representation algebra dimension does not match the algebra")
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    witnesses = {}

    commuting = rep.phi.commutes_with(rep.psi)
    if not commuting:
        witnesses["commuting"] = ()

    def first_failure(pairs) -> Optional[tuple]:
        for idx, lhs, rhs in pairs:
            if lhs != rhs:
                return idx
        return None

    w = first_failure(
        ((i,), rep.phi * rep.l[i], rep.left_at(acols[i]) * rep.phi) for i in range(n)
    )
    phi_left = w is None
    if w:
        witnesses["phi_left"] = w
    w = first_failure(
        ((i,), rep.phi * rep.r[i], rep.right_at(acols[i]) * rep.phi) for i in range(n)
    )
    phi_right = w is None
    if w:
        witnesses["phi_right"] = w
    w = first_failure(
        ((i,), rep.psi * rep.l[i], rep.left_at(bcols[i]) * rep.psi) for i in range(n)
    )
    psi_left = w is None
    if w:
        witnesses["psi_left"] = w
    w = first_failure(
        ((i,), rep.psi * rep.r[i], rep.right_at(bcols[i]) * rep.psi) for i in range(n)
    )
    psi_right = w is None
    if w:
        witnesses["psi_right"] = w

    # l(beta(x)·alpha(x))psi = l(alpha beta(x)) l(alpha(x)), polarized over pairs
    def left_square_form(i, j) -> Matrix:
        return rep.left_at(alg.product(bcols[i], acols[j])) * rep.psi - rep.left_at(
            abcols[i]
        ) * rep.left_at(acols[j])

    w = None
    for i in range(n):
        for j in range(i, n):
            if not (left_square_form(i, j) + left_square_form(j, i)).is_zero():
                w = (i, j)
                break
        if w:
            break
    left_square = w is None
    if w:
        witnesses["left_square"] = w

    # r(beta(x)·alpha(x))phi = r(alpha beta(x)) r(beta(x)), polarized over pairs
    def right_square_form(i, j) -> Matrix:
        return rep.right_at(alg.product(bcols[i], acols[j])) * rep.phi - rep.right_at(
            abcols[i]
        ) * rep.right_at(bcols[j])

    w = None
    for i in range(n):
        for j in range(i, n):
            if not (right_square_form(i, j) + right_square_form(j, i)).is_zero():
                w = (i, j)
                break
        if w:
            break
    right_square = w is None
    if w:
        witnesses["right_square"] = w

    # r(beta(y)) l(beta(x)) phi − l(alpha beta(x)) r(y) phi
    #   = r(alpha(x)·y) phi psi − r(beta(y)) r(alpha(x)) psi
    w = None
    phipsi = rep.phi * rep.psi
    basis = [tuple(Fraction(1) if p == i else ZERO for p in range(n)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = rep.right_at(bcols[j]) * rep.left_at(bcols[i]) * rep.phi - rep.left_at(
                abcols[i]
            ) * rep.right_at(basis[j]) * rep.phi
            rhs = rep.right_at(alg.product(acols[i], basis[j])) * phipsi - rep.right_at(
                bcols[j]
            ) * rep.right_at(acols[i]) * rep.psi
            if lhs != rhs:
                w = (i, j)
                break
        if w:
            break
    right_exchange = w is None
    if w:
        witnesses["right_exchange"] = w

    # l(alpha(y)) r(alpha(x)) psi − r(alpha beta(x)) l(y) psi
    #   = l(y·beta(x)) phi psi − l(alpha(y)) l(beta(x)) phi
    w = None
    for i in range(n):
        for j in range(n):
            lhs = rep.left_at(acols[j]) * rep.right_at(acols[i]) * rep.psi - rep.right_at(
                abcols[i]
            ) * rep.left_at(basis[j]) * rep.psi
            rhs = rep.left_at(alg.product(basis[j], bcols[i])) * phipsi - rep.left_at(
                acols[j]
            ) * rep.left_at(bcols[i]) * rep.phi
            if lhs != rhs:
                w = (i, j)
                break
        if w:
            break
    left_exchange = w is None
    if w:
        witnesses["left_exchange"] = w

    return RepresentationReport(
        commuting,
        phi_left,
        phi_right,
        psi_left,
        psi_right,
        left_square,
        right_square,
        right_exchange,
        left_exchange,
        witnesses,
    )


def adjoint(alg: BiHomAlgebra) -> Representation:
    """Left/right multiplication acting on the algebra itself, twists alpha/beta."""
    n = alg.dim
    lmats = [Matrix([[alg.mu[i][j][k] for j in range(n)] for k in range(n)]) for i in range(n)]
    rmats = [Matrix([[alg.mu[j][i][k] for j in range(n)] for k in range(n)]) for i in range(n)]
    return Representation(n, n, lmats, rmats, alg.alpha, alg.beta)


def semidirect(alg: BiHomAlgebra, rep: Representation) -> BiHomAlgebra:
    """Algebra structure on A⊕V: (x1+v1)·(x2+v2) = μ(x1,x2) + l(x1)v2 + r(x2)v1.

    The result is a valid algebra exactly when rep is a valid representation;
    validity is the caller's check.
    """
    return block_sum(alg, rep)


def block_sum(alg: BiHomAlgebra, rep: Representation, theta=None) -> BiHomAlgebra:
    """The algebra on A⊕V: (x+u)·(y+v) = x·y + l(x)v + r(y)u + theta(x,y), twists α⊕φ, β⊕ψ.

    theta is a bilinear map A x A -> V with a value(i, j) lookup, or None for
    zero.  Semidirect products, central and T_theta extensions are all this
    algebra; no condition is checked here.
    """
    if rep.alg_dim != alg.dim:
        raise InputError("representation does not match the algebra")
    n, m = alg.dim, rep.mod_dim
    total = n + m
    mu = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            mu[i][j][:n] = alg.mu[i][j]
            if theta is not None:
                mu[i][j][n:] = theta.value(i, j)
    for i in range(n):
        for b in range(m):
            mu[i][n + b][n:] = rep.l[i].column(b)
    for a in range(m):
        for j in range(n):
            mu[n + a][j][n:] = rep.r[j].column(a)

    def diag(a: Matrix, b: Matrix) -> Matrix:
        top = [list(row) + [ZERO] * m for row in a.rows]
        return Matrix(top + [[ZERO] * n + list(row) for row in b.rows])

    return BiHomAlgebra(total, mu, diag(alg.alpha, rep.phi), diag(alg.beta, rep.psi))


@dataclass(frozen=True)
class RegularRepresentation:
    """A representation over invertible twists, with their inverses cached."""

    inner: Representation
    alpha_inv: Matrix
    beta_inv: Matrix
    phi_inv: Matrix
    psi_inv: Matrix

    @staticmethod
    def wrap(alg: BiHomAlgebra, rep: Representation) -> "RegularRepresentation":
        try:
            return RegularRepresentation(
                rep,
                alg.alpha.inverse(),
                alg.beta.inverse(),
                rep.phi.inverse(),
                rep.psi.inverse(),
            )
        except PreconditionError as exc:
            raise PreconditionError(f"dual construction needs invertible twists: {exc}") from exc


def _as_regular(alg: BiHomAlgebra, rep) -> RegularRepresentation:
    if isinstance(rep, RegularRepresentation):
        return rep
    return RegularRepresentation.wrap(alg, rep)


def dual(alg: BiHomAlgebra, rep) -> Representation:
    """The dual representation on V* in dual-basis coordinates.

    Left action at x: transpose of r(alpha^2 beta^{-1} x) followed by the
    transposed twist correction (phi psi)^{-1}; right action likewise from
    l(alpha^{-1} beta^2 x).  Twists are the transposed inverses of phi, psi.

    dual(alg, dual(alg, rep)) returns the original actions and twists: the two
    argument corrections multiply to alpha beta, so the double dual acts by
    (phi psi)^{-1} l(alpha beta x) (phi psi), which the intertwining relations
    reduce to l(x) (and likewise for r).
    """
    reg = _as_regular(alg, rep)
    inner = reg.inner
    n = inner.alg_dim
    w_left = alg.alpha.power(2) * reg.beta_inv   # argument correction for the new left action
    w_right = reg.alpha_inv * alg.beta.power(2)  # and for the new right action
    corr = (reg.phi_inv * reg.psi_inv).transpose()
    new_l = [inner.right_at(w_left.column(i)).transpose() * corr for i in range(n)]
    new_r = [inner.left_at(w_right.column(i)).transpose() * corr for i in range(n)]
    return Representation(
        n,
        inner.mod_dim,
        new_l,
        new_r,
        reg.phi_inv.transpose(),
        reg.psi_inv.transpose(),
    )


def coadjoint(alg: BiHomAlgebra) -> Representation:
    """Dual of the adjoint representation; twists are transposed inverses of alpha, beta."""
    return dual(alg, adjoint(alg))
