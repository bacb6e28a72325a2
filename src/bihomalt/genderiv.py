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
tuple per basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import BiHomAlgebra
from .errors import InputError, InternalError, PreconditionError
from .exactnum import (
    Matrix,
    Subspace,
    independent_subset_indices,
    nullspace_of_sparse_rows,
    solve_columns,
    support,
    unit_vector,
)

ZERO = Fraction(0)

KINDS = ("U", "Der", "QDer", "GDer", "SGDer", "Centroid", "QuasiCentroid")


@dataclass(frozen=True)
class TwistExponents:
    k: int
    l: int


@dataclass(frozen=True)
class OperatorSpace:
    """A basis of endomorphisms, each commuting with both twists.

    For projected kinds every basis matrix carries the witness tuple it was
    solved with (D' for QDer; (D', D'') for GDer and SGDer).
    """

    kind: str
    exponents: Optional[TwistExponents]
    basis: tuple[Matrix, ...]
    witnesses: tuple[tuple[Matrix, ...], ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_subspace(self, n: int) -> Subspace:
        return Subspace(n * n, [_flatten(m) for m in self.basis], check=False)

    def contains_matrix(self, m: Matrix) -> bool:
        return self.coefficients_of(m) is not None

    def coefficients_of(self, m: Matrix) -> Optional[tuple[Fraction, ...]]:
        target = _flatten(m)
        if not self.basis:
            return tuple() if all(v == 0 for v in target) else None
        return solve_columns([_flatten(b) for b in self.basis], target)


def _flatten(m: Matrix) -> tuple[Fraction, ...]:
    return tuple(e for row in m.rows for e in row)


def _unflatten(vec: Sequence, n: int) -> Matrix:
    return Matrix([vec[i * n : (i + 1) * n] for i in range(n)])


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


def _commutation_rows(mat: Matrix, block: int, n: int):
    """Sparse rows of X·mat − mat·X = 0 for the unknown block X."""
    rows = []
    base = block * n * n
    for i in range(n):
        for j in range(n):
            row: dict[int, Fraction] = {}
            for p in range(n):
                # (X·mat)_{ij} term X[i][p] mat[p][j]
                c = mat.rows[p][j]
                if c != 0:
                    key = base + i * n + p
                    row[key] = row.get(key, ZERO) + c
                # (mat·X)_{ij} term mat[i][p] X[p][j]
                c = mat.rows[i][p]
                if c != 0:
                    key = base + p * n + j
                    row[key] = row.get(key, ZERO) - c
            row = {k_: v for k_, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def _product_rule_rows(
    alg: BiHomAlgebra,
    w: Matrix,
    out_block: Optional[int],
    left_block: Optional[int],
    right_block: Optional[int],
    right_sign: int = 1,
):
    """Rows of  X_out(e_i e_j) − X_left(e_i)W(e_j) − right_sign·W(e_i)X_right(e_j) = 0.

    Any block index may be None to drop that part of the rule (the centroid
    rules drop one action term, the quasi-centroid balance the output term).
    """
    n = alg.dim
    units = [unit_vector(n, i) for i in range(n)]
    wcols = [w.column(j) for j in range(n)]

    def by_output(products):
        """For each output coordinate c, the (index, coefficient) pairs with products[index][c] ≠ 0."""
        return [[(p, vec[c]) for p, vec in enumerate(products) if vec[c]] for c in range(n)]

    # mu(X e_i, W e_j) output c is sum_p X[p][i] mu(e_p, W e_j)[c]; likewise on the right
    left = [by_output([alg.product(units[p], wcols[j]) for p in range(n)]) for j in range(n)]
    right = [by_output([alg.product(wcols[i], units[q]) for q in range(n)]) for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            out = support(alg.mu[i][j])
            for c in range(n):
                row: dict[int, Fraction] = {}
                if out_block is not None:
                    base = out_block * n * n + c * n
                    for k, coeff in out:
                        row[base + k] = row.get(base + k, ZERO) + coeff
                if left_block is not None:
                    base = left_block * n * n + i
                    for p, coeff in left[j][c]:
                        row[base + p * n] = row.get(base + p * n, ZERO) - coeff
                if right_block is not None:
                    base = right_block * n * n + j
                    for q, coeff in right[i][c]:
                        row[base + q * n] = row.get(base + q * n, ZERO) - right_sign * coeff
                row = {k_: v for k_, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def _solve_blocks(alg: BiHomAlgebra, n_blocks: int, rows) -> list[tuple[Matrix, ...]]:
    """Kernel of the stacked system, as tuples of per-block matrices."""
    n = alg.dim
    all_rows = list(rows)
    for b in range(n_blocks):
        all_rows.extend(_commutation_rows(alg.alpha, b, n))
        all_rows.extend(_commutation_rows(alg.beta, b, n))
    kernel = nullspace_of_sparse_rows(all_rows, n_blocks * n * n)
    sols = []
    for vec in kernel.basis:
        sols.append(tuple(_unflatten(vec[b * n * n : (b + 1) * n * n], n) for b in range(n_blocks)))
    return sols


def _project_first_block(
    kind: str, exps: Optional[TwistExponents], sols, n: int
) -> OperatorSpace:
    """Independent basis of the first-block projection, witnesses kept aligned."""
    firsts = [_flatten(sol[0]) for sol in sols]
    kept = independent_subset_indices(firsts)
    basis = tuple(sols[i][0] for i in kept)
    witnesses = tuple(tuple(sols[i][1:]) for i in kept)
    return OperatorSpace(kind, exps, basis, witnesses)


def commutant(alg: BiHomAlgebra) -> OperatorSpace:
    """U: endomorphisms commuting with both twists."""
    sols = _solve_blocks(alg, 1, [])
    return OperatorSpace("U", None, tuple(s[0] for s in sols))


def derivation_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    rows = _product_rule_rows(alg, w, 0, 0, 0)
    sols = _solve_blocks(alg, 1, rows)
    return OperatorSpace("Der", TwistExponents(k, l), tuple(s[0] for s in sols))


def quasi_derivation_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    rows = _product_rule_rows(alg, w, 1, 0, 0)
    sols = _solve_blocks(alg, 2, rows)
    return _project_first_block("QDer", TwistExponents(k, l), sols, alg.dim)


def generalized_derivation_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    rows = _product_rule_rows(alg, w, 2, 0, 1)
    sols = _solve_blocks(alg, 3, rows)
    return _project_first_block("GDer", TwistExponents(k, l), sols, alg.dim)


def sgder_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    rows = _product_rule_rows(alg, w, 2, 0, 1)
    rows += _product_rule_rows(alg, w, 2, 1, 0)
    sols = _solve_blocks(alg, 3, rows)
    return _project_first_block("SGDer", TwistExponents(k, l), sols, alg.dim)


def centroid_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    rows = _product_rule_rows(alg, w, 0, 0, None)
    rows += _product_rule_rows(alg, w, 0, None, 0)
    sols = _solve_blocks(alg, 1, rows)
    return OperatorSpace("Centroid", TwistExponents(k, l), tuple(s[0] for s in sols))


def quasi_centroid_space(alg: BiHomAlgebra, k: int, l: int) -> OperatorSpace:
    w = twist_power(alg, k, l)
    # T(x)W(y) − W(x)T(y) = 0: the two action terms with opposite signs, no output term
    rows = _product_rule_rows(alg, w, None, 0, 0, right_sign=-1)
    sols = _solve_blocks(alg, 1, rows)
    return OperatorSpace("QuasiCentroid", TwistExponents(k, l), tuple(s[0] for s in sols))


def space_of_kind(alg: BiHomAlgebra, kind: str, k: int, l: int) -> OperatorSpace:
    table = {
        "U": lambda: commutant(alg),
        "Der": lambda: derivation_space(alg, k, l),
        "QDer": lambda: quasi_derivation_space(alg, k, l),
        "GDer": lambda: generalized_derivation_space(alg, k, l),
        "SGDer": lambda: sgder_space(alg, k, l),
        "Centroid": lambda: centroid_space(alg, k, l),
        "QuasiCentroid": lambda: quasi_centroid_space(alg, k, l),
    }
    if kind not in table:
        raise InputError(f"unknown operator-space kind {kind!r}")
    return table[kind]()


def sgder_decompose(alg: BiHomAlgebra, k: int, l: int, d: Matrix) -> tuple[Matrix, Matrix]:
    """Split d in the symmetric space as q + c with q quasi-derivation, c quasi-centroid.

    Uses the stored witness D' of the symmetric space: q = (d + D')/2 and
    c = (d − D')/2; both memberships are re-verified before returning.
    """
    sg = sgder_space(alg, k, l)
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
    if not quasi_derivation_space(alg, k, l).contains_matrix(q):
        raise InternalError("quasi-derivation part escaped its space")
    if not quasi_centroid_space(alg, k, l).contains_matrix(ccomp):
        raise InternalError("quasi-centroid part escaped its space")
    return q, ccomp
