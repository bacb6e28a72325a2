"""Derivation-type operator spaces at integer twist exponents.

All spaces live inside U, the commutant of {alpha, beta} in End(A).  With
W = alpha^k beta^l the defining rules are, on all pairs (x, y):

    derivation          D(xy) = D(x)W(y) + W(x)D(y)
    quasi-derivation    D'(xy) = D(x)W(y) + W(x)D(y)          (witness D')
    generalized         D''(xy) = D(x)W(y) + W(x)D'(y)        (witnesses D', D'')
    symmetric variant   ... and the same with D, D' swapped
    centroid            T(xy) = T(x)W(y) = W(x)T(y)
    quasi-centroid      T(x)W(y) = W(x)T(y)

Each space is the solution set of a sparse linear system over the stacked
entries of the unknown endomorphisms; projected spaces keep one witness
tuple per basis element.  The blocks are one map f(e_b, e_t) = X_b e_t: the
rows [X_b, alpha] = [X_b, beta] = 0 are the `algebra._twist_rows` of ((I, T), T),
a product rule is the three δ1 terms of the W-twisted adjoint, read by
`algebra._term_rows`, and every row is read into X_b[c][t] = f(e_b, e_t)_c once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import BiHomAlgebra, _common_denominator, _term_rows, _twist_rows, transport
from .errors import InputError, InternalError, PreconditionError
from .exactnum import ZERO, Matrix, Subspace, _independent, _Record, nullspace_of_sparse_rows, support

# Per kind: the number of stacked unknown endomorphisms (blocks; the space is the
# first) and its product rules (out, left, right, right_sign), each standing for
#     X_out(e_i e_j) − X_left(e_i)W(e_j) − right_sign·W(e_i)X_right(e_j) = 0
# with None dropping that term.
_RULES = {
    "U": (1, ()),
    "Der": (1, ((0, 0, 0, 1),)),
    "QDer": (2, ((1, 0, 0, 1),)),
    "GDer": (3, ((2, 0, 1, 1),)),
    "SGDer": (3, ((2, 0, 1, 1), (2, 1, 0, 1))),
    "Centroid": (1, ((0, 0, None, 1), (0, None, 0, 1))),
    # T(x)W(y) − W(x)T(y) = 0: the two action terms with opposite signs, no output term
    "QuasiCentroid": (1, ((None, 0, 0, -1),)),
}

KINDS = tuple(_RULES)


class OperatorSpace(_Record):
    """A basis of endomorphisms of an alg_dim-dimensional algebra, each commuting with both twists.

    exponents is the pair (k, l) of W = alpha^k beta^l, None for U.  For projected kinds every basis
    matrix carries the witness tuple it was solved with (D' for QDer; (D', D'') for GDer and SGDer).
    """

    __slots__ = ("kind", "exponents", "alg_dim", "basis", "witnesses")
    _defaults = {"witnesses": ()}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_subspace(self) -> Subspace:
        return Subspace(self.alg_dim**2, [_flatten(m) for m in self.basis])

    def contains_matrix(self, m: Matrix) -> bool:
        return self.coefficients_of(m) is not None

    def coefficients_of(self, m: Matrix) -> Optional[tuple[Fraction, ...]]:
        n = self.alg_dim
        if (m.nrows, m.ncols) != (n, n):
            raise InputError(f"expected a {n}x{n} matrix, got {m.nrows}x{m.ncols}")
        return self.as_subspace().coefficients_of(_flatten(m))


def _flatten(m: Matrix) -> tuple[Fraction, ...]:
    return tuple(e for row in m.rows for e in row)


def _unflatten(col: dict, n: int, offset: int) -> Matrix:
    """The n×n block of a sparse column that starts at coordinate offset."""
    return Matrix([[col.get(offset + i * n + j, ZERO) for j in range(n)] for i in range(n)])


def bracket(u: Matrix, v: Matrix) -> Matrix:
    """Commutator u∘v − v∘u."""
    if u.nrows != v.nrows or u.ncols != v.ncols:
        raise InputError("bracket needs matrices of the same shape")
    return u * v - v * u


def twist_power(alg: BiHomAlgebra, k: int, l: int) -> Matrix:
    """alpha^k beta^l; negative exponents need the twist to be invertible."""
    try:
        return alg.alpha.power(k) * alg.beta.power(l)
    except PreconditionError as exc:
        raise PreconditionError(f"negative twist exponent needs an invertible twist: {exc}") from exc


def _product_rule_rows(alg: BiHomAlgebra, w: Matrix, blocks: int, rules) -> list[dict[int, int]]:
    """Sparse integer rows of each product rule (see _RULES) in the flat (b, t, c) layout, by rule, then (i, j, c).

    The stacked blocks are one map f(e_b, e_t) = X_b e_t, so a rule at (i, j) is the `_term_rows` of its
    terms X_out(mu(e_i, e_j)), mu(X_left e_i, W e_j) and mu(W e_i, X_right e_j).  mu(e_i, e_j), mu(e_p, W e_j)
    and mu(W e_i, e_q) come from `transport` over one common denominator D, so every row is D times its rational form.
    """
    n = alg.dim
    _, (mu, left, right) = _common_denominator(
        [transport(alg.mu), transport(alg.mu, None, None, w), transport(alg.mu, None, w)]
    )
    # mu(X e_i, W e_j) at c is Σ_p X[p][i] mu(e_p, W e_j)[c]: left_at[j][c] holds the (p, coefficient)
    # pairs, and right_at[i][c] likewise the (q, coefficient) pairs of mu(W e_i, X e_j)
    left_at = [[[(p, left[p][j][c]) for p in range(n) if left[p][j][c]] for c in range(n)] for j in range(n)]
    right_at = [[[(q, right[i][q][c]) for q in range(n) if right[i][q][c]] for c in range(n)] for i in range(n)]
    unit, e = [[(b, 1)] for b in range(blocks)], [[(i, 1)] for i in range(n)]  # e[c] is also row c of the identity
    rows = []
    for out_block, left_block, right_block, right_sign in rules:
        for i in range(n):
            for j in range(n):
                terms = ((1, e, out_block, support(mu[i][j])), (-1, left_at[j], left_block, e[i]),
                         (-right_sign, right_at[i], right_block, e[j]))
                args = [(sign, action, (unit[b], arg)) for sign, action, b, arg in terms if b is not None]
                rows += [row for row in _term_rows((blocks, n), n, args) if row]
    return rows


def _operator_rows(alg: BiHomAlgebra, kind: str, k: int, l: int) -> tuple[int, list[dict[int, int]]]:
    """(blocks, rows): the product-rule rows of a kind, then the rows of T·X_b − X_b·T = 0 for T = alpha, beta.

    The blocks are one map f(e_b, e_t) = X_b e_t, so the commutation rows are the twist rows of ((I, T), T),
    by twist, block, t and c.  The rows hold integers; the space is their kernel over the stacked entries
    of the blocks, in row-major order.
    """
    blocks, rules = _RULES[kind]
    n = alg.dim
    rows = _product_rule_rows(alg, twist_power(alg, k, l), blocks, rules) if rules else []  # U has no W
    rows += [row for t in (alg.alpha, alg.beta) for _, _, row in _twist_rows((Matrix.identity(blocks), t), t)]
    # each row from the flat (b, t, c) layout to row-major X_b[c][t]
    return blocks, [{i - i % (n * n) + i % n * n + i // n % n: v for i, v in row.items()} for row in rows]


def commutant(alg: BiHomAlgebra) -> OperatorSpace:
    """U: endomorphisms commuting with both twists."""
    return space_of_kind(alg, "U", 0, 0)


def derivation_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    return space_of_kind(alg, "Der", k, l)


def space_of_kind(alg: BiHomAlgebra, kind: str, k: int, l: int) -> OperatorSpace:
    """The operator space of a kind in KINDS at W = alpha^k beta^l (U ignores k and l).

    Spaces with witness blocks keep an independent basis of the first-block
    projection, each element with the witness tuple it was solved with.
    """
    if kind not in _RULES:
        raise InputError(f"unknown operator-space kind {kind!r}")
    n = alg.dim
    blocks, rows = _operator_rows(alg, kind, k, l)
    kernel = nullspace_of_sparse_rows(rows, blocks * n * n).columns
    if blocks > 1:  # the columns whose first blocks are independent, below coordinate n²
        kernel = [kernel[i] for i in _independent([{i: v for i, v in col.items() if i < n * n} for col in kernel], n * n)]
    sols = [tuple(_unflatten(col, n, b * n * n) for b in range(blocks)) for col in kernel]
    basis, witnesses = tuple(s[0] for s in sols), tuple(s[1:] for s in sols)
    return OperatorSpace(kind, None if kind == "U" else (k, l), n, basis, witnesses if blocks > 1 else ())


def sgder_decompose(alg: BiHomAlgebra, k: int, l: int, d: Matrix) -> tuple[Matrix, Matrix]:
    """Split d in the symmetric space as q + c with q quasi-derivation, c quasi-centroid.

    Uses the stored witness D' of the symmetric space: q = (d + D')/2 and
    c = (d − D')/2; both memberships are re-verified before returning.
    """
    sg = space_of_kind(alg, "SGDer", k, l)
    coeffs = sg.coefficients_of(d)
    if coeffs is None:
        raise PreconditionError("matrix is not in the symmetric generalized-derivation space")
    n = alg.dim
    d_prime = Matrix.zero(n, n)
    for c, wit in zip(coeffs, sg.witnesses):
        if c != 0:
            d_prime = d_prime + wit[0].scale(c)
    half = Fraction(1, 2)
    q = (d + d_prime).scale(half)
    ccomp = (d - d_prime).scale(half)
    if not space_of_kind(alg, "QDer", k, l).contains_matrix(q):
        raise InternalError("quasi-derivation part escaped its space")
    if not space_of_kind(alg, "QuasiCentroid", k, l).contains_matrix(ccomp):
        raise InternalError("quasi-centroid part escaped its space")
    return q, ccomp
