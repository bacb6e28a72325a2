"""Bimodules over a BiHom-alternative algebra.

A representation is a space V with left/right action maps l, r (one matrix
per algebra basis vector) and two commuting twists phi, psi on V.  It must
satisfy four intertwining relations and transfer both alternative laws into
V: two "square" axioms, quadratic in the algebra variable and therefore
checked in polarized form, and two "exchange" axioms bilinear in (x, y).
All eight are sectors with one input in V of the semidirect product A⊕V,
of the multiplicativity of its twists and of its two laws, so V is a
bimodule exactly when A⊕V is BiHom-alternative.  They are read off one
walk of A⊕V (`_walk_sum`: its multiplicativity rows and both laws, named by
`algebra._sectors`), the walk whose other fields the extensions read.

The dual representation lives on V* in dual-basis coordinates, where the
matrix of a transposed map is the matrix transpose and the pairing is the
coordinate dot product.  Its left action is built from r and its right
action from l, each precomposed with an invertible-twist correction, which
is what makes V* a representation with no extra hypotheses.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraReport, BiHomAlgebra, _reported, _sectors, _walk, transport, validate
from .errors import InputError, PreconditionError
from .exactnum import ZERO, Matrix, _Immutable, _Report


class Representation(_Immutable):
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
        self._set(alg_dim=alg_dim, mod_dim=mod_dim, l=l, r=r, phi=phi, psi=psi)

    def __repr__(self):
        return f"Representation(alg_dim={self.alg_dim}, mod_dim={self.mod_dim})"


def _require_module_over(alg: BiHomAlgebra, rep: Representation):
    """InputError unless rep acts by one matrix per basis vector of alg."""
    if rep.alg_dim != alg.dim:
        raise InputError(f"representation is over an algebra of dimension {rep.alg_dim}, not {alg.dim}")


class RepresentationReport(_Report):
    """Axiom flags; each failed axiom carries a witness basis tuple."""

    __slots__ = ("commuting", "phi_left", "phi_right", "psi_left", "psi_right", "left_square", "right_square",
                 "right_exchange", "left_exchange", "witnesses")


def _action_tensors(rep: Representation) -> tuple[list, list]:
    """λ(e_p, v) = l[p]v and ρ(e_p, v) = r[p]v as bilinear tensors, [p][v] holding the vector."""
    return tuple([list(zip(*m.rows)) for m in acts] for acts in (rep.l, rep.r))


def _walk_sum(alg: BiHomAlgebra, rep: Representation, theta=None) -> tuple[BiHomAlgebra, dict]:
    """(E, found): E = block_sum(alg, rep, theta) and its `_walk` named by `_sectors(alg.dim)`, with "commuting" (φψ = ψφ)."""
    ext = block_sum(alg, rep, theta)
    return ext, {"commuting": None if rep.phi.commutes_with(rep.psi) else (), **_walk(ext, *_sectors(alg.dim))}


def validate_representation(alg: BiHomAlgebra, rep: Representation) -> RepresentationReport:
    """Check the twists, the four intertwining relations and the four module axioms.

    Each is a sector of E = A⊕V (x·v = l(x)v, v·x = r(x)v) with one input in
    V, read off one walk of E.  α⊕φ is multiplicative at (e_p, v)
    iff φ l(p) = l(αp) φ (phi_left), at (v, e_q) iff φ r(q) = r(αq) φ
    (phi_right); β⊕ψ gives psi_left and psi_right.  The left law of E at
    (x, y, v) is left_square,
        l(μ(βx, αy))ψ = l(αβx) l(αy),
    and at (x, v, y) right_exchange,
        r(βy)(l(βx)φ + r(αx)ψ) = l(αβx) r(y)φ + r(μ(αx, y))φψ;
    the left law of Eᵒᵖ, the right law of E, gives in the same sectors
    right_square and left_exchange,
        r(μ(βx, αy))φ = r(βαx) r(βy),
        l(αy)(r(αx)ψ + l(βx)φ) = r(βαx) l(y)ψ + l(μ(y, βx))ψφ,
    the square axioms polarized over x ≤ y.  Witnesses are the first failing
    index in lexicographic order: (i,) for an intertwining relation, (i, j)
    with i ≤ j for the square axioms and any (i, j) for the exchange axioms.
    """
    return _reported(RepresentationReport, _walk_sum(alg, rep)[1])


def _require_valid(alg: BiHomAlgebra, rep: Representation, purpose: str):
    """PreconditionError unless alg is BiHom-alternative and rep is a valid representation over it."""
    # the adjoint of a valid algebra needs no check: A⊕A is A ⊗ Q[ε]/(ε²); any other rep is read off one
    # walk of A⊕V, whose sectors at inputs in A carry validate's names
    found = None if rep == adjoint(alg) else _walk_sum(alg, rep)[1]
    report = validate(alg) if found is None else _reported(
        AlgebraReport, {**found, "commuting": None if alg.alpha.commutes_with(alg.beta) else ()}
    )
    if not report.ok:
        name, w = min(report.witnesses.items())
        raise PreconditionError(f"{purpose} needs a BiHom-alternative algebra (fails {name} at {tuple(w)})")
    if found is not None and not _reported(RepresentationReport, found).ok:
        raise PreconditionError(f"{purpose} needs a valid representation")


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
    _require_module_over(alg, rep)
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


def dual(alg: BiHomAlgebra, rep: Representation) -> Representation:
    """The dual representation on V* in dual-basis coordinates.

    Left action at x: transpose of r(alpha^2 beta^{-1} x) followed by the
    transposed twist correction (phi psi)^{-1}; right action likewise from
    l(alpha^{-1} beta^2 x).  Twists are the transposed inverses of phi, psi.
    Row v of the new left action at e_i is (phi psi)^{-1} ρ(alpha^2 beta^{-1} e_i, e_v),
    so each new action is read off one `transport` of the other action tensor.

    dual(alg, dual(alg, rep)) returns the original actions and twists: the two
    argument corrections multiply to alpha beta, so the double dual acts by
    (phi psi)^{-1} l(alpha beta x) (phi psi), which the intertwining relations
    reduce to l(x) (and likewise for r).
    """
    try:
        alpha_inv, beta_inv, phi_inv, psi_inv = [m.inverse() for m in (alg.alpha, alg.beta, rep.phi, rep.psi)]
    except PreconditionError as exc:
        raise PreconditionError(f"dual construction needs invertible twists: {exc}") from exc
    _require_module_over(alg, rep)
    corr = phi_inv * psi_inv
    lam, rho = _action_tensors(rep)

    def transposed(action, w):
        d, table = transport(action, corr, w)
        return [Matrix([[Fraction(x, d) for x in vec] for vec in row]) for row in table]

    return Representation(
        alg.dim,
        rep.mod_dim,
        transposed(rho, alg.alpha.power(2) * beta_inv),
        transposed(lam, alpha_inv * alg.beta.power(2)),
        phi_inv.transpose(),
        psi_inv.transpose(),
    )


def coadjoint(alg: BiHomAlgebra) -> Representation:
    """Dual of the adjoint representation; twists are transposed inverses of alpha, beta."""
    return dual(alg, adjoint(alg))
