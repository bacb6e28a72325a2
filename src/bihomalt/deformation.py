"""Truncated one-parameter formal deformations of the product.

A deformation of order m is the family d_t = mu + d_1 t + ... + d_m t^m of
bilinear products, each term commuting with both twists.  Collecting the
left-alternativity of d_t by powers of t gives one trilinear condition per
order k:

    sum_{i+j=k} d_i ⋄ d_j = 0

where ⋄ is the four-term diamond pairing.  The k = 0 condition is the
alternativity of mu itself, and since mu ⋄ f + f ⋄ mu is exactly the
degree-2 coboundary operator with adjoint coefficients, the order-k
condition reads  delta2(d_k) + sum_{i+j=k, i,j>=1} d_i ⋄ d_j = 0.

Equivalence, gauges and trivialization rest on one series identity,
phi_t ∘ d_t = d'_t ∘ (phi_t ⊗ phi_t).  Both sides come order by order from
`_coefficient`, the coefficients of out_t ∘ d_t ∘ (left_t ⊗ right_t) as sums
of transports; a gauge by id − t^level f takes its inverse from `_inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .algebra import _NO_WITNESSES, BiHomAlgebra, _first_difference, _pairing, _table_sum, _term_tables, transport
from .cohomology import Cochain, _preimage, twist_witness
from .errors import InputError, InternalError, PreconditionError
from .exactnum import Matrix, _Immutable
from .representation import adjoint

ZERO = Fraction(0)


class TruncatedDeformation(_Immutable):
    """The base algebra plus the ordered bilinear terms d_1 ... d_m."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: BiHomAlgebra, terms: Sequence[Cochain]):
        terms = tuple(terms)
        for t in terms:
            if t.degree != 2 or t.alg_dim != alg.dim or t.mod_dim != alg.dim:
                raise InputError("deformation terms must be bilinear maps A x A -> A")
        self._set(alg=alg, terms=terms)

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, i: int) -> Cochain:
        """d_i with d_0 = mu."""
        if i == 0:
            n = self.alg.dim
            return Cochain(2, n, n, [x for row in self.alg.mu for cell in row for x in cell])
        return self.terms[i - 1]

    def padded(self, order: int) -> "TruncatedDeformation":
        """The same deformation viewed at a higher truncation order."""
        if order < self.order:
            raise InputError("cannot truncate below the stored order")
        extra = order - self.order
        zero = Cochain.zero(2, self.alg.dim, self.alg.dim)
        return TruncatedDeformation(self.alg, self.terms + (zero,) * extra)


class FormalIsomorphism(NamedTuple):
    """phi_t = id + phi_1 t + ... + phi_m t^m; each term commutes with the twists."""

    terms: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, i: int, dim: int) -> Matrix:
        if i == 0:
            return Matrix.identity(dim)
        if i <= len(self.terms):
            return self.terms[i - 1]
        return Matrix.zero(dim, dim)


class DeformationReport(NamedTuple):
    """Per-order residual check of the deformation equations."""

    order_ok: tuple[bool, ...]
    witnesses: dict = _NO_WITNESSES

    @property
    def ok(self) -> bool:
        return all(self.order_ok)

    def ok_through(self, k: int) -> bool:
        return all(self.order_ok[: k + 1])

    def as_dict(self) -> dict:
        return {
            "order_ok": list(self.order_ok),
            "witnesses": {str(k): list(v) for k, v in self.witnesses.items()},
        }


def _require_compatible_terms(defm: TruncatedDeformation):
    alpha, beta = defm.alg.alpha, defm.alg.beta
    for i, t in enumerate(defm.terms, start=1):
        # every alpha failure is reported before any beta failure
        w = twist_witness(t, alpha, alpha) or twist_witness(t, beta, beta)
        if w is not None:
            raise PreconditionError(
                f"deformation term {i} does not commute with the twists (fails at {w})"
            )


def _pairing_sum(n: int, pairs) -> Cochain:
    """Σ a ⋄ b over (tables of a, tables of b) pairs, divided once per output coordinate."""
    parts = [(ta[0] * tb[0], _pairing(n, ta[2], tb[1])) for ta, tb in pairs if ta and tb]
    den = lcm(*(d for d, _ in parts))
    total = [0] * n**4
    for d, vals in parts:
        f = den // d
        for x, y, z, val in vals:
            for pos in {(x * n + y) * n + z, (y * n + x) * n + z}:
                for c, v in enumerate(val):
                    if v:
                        total[pos * n + c] += f * v
    return Cochain(3, n, n, [Fraction(t, den) if t else ZERO for t in total])


def diamond(alg: BiHomAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """The four-term trilinear pairing of two bilinear terms.

    a ⋄ b (x,y,z) = a(b(βx,αy), βz) − a(αβx, b(αy,z))
                  + a(b(βy,αx), βz) − a(αβy, b(αx,z))
    """
    ta = _term_tables(alg, a.nested())
    tb = ta if b is a else _term_tables(alg, b.nested())
    return _pairing_sum(alg.dim, [(ta, tb)])


def _residual(defm: TruncatedDeformation, tables: dict, k: int, lowest: int) -> Cochain:
    """Σ d_i ⋄ d_{k−i} over lowest ≤ i ≤ k − lowest; tables holds each term's tables by index."""
    pairs = []
    for i in range(lowest, k - lowest + 1):
        j = k - i
        if i > defm.order or j > defm.order:
            continue
        for t in (i, j):
            if t not in tables:
                tables[t] = _term_tables(defm.alg, defm.term(t).nested())
        pairs.append((tables[i], tables[j]))
    return _pairing_sum(defm.alg.dim, pairs)


def check_deformation(defm: TruncatedDeformation) -> DeformationReport:
    """Check the deformation equations at every order k = 0 ... m."""
    return _check_orders(defm, {})


def _check_orders(defm: TruncatedDeformation, tables: dict) -> DeformationReport:
    _require_compatible_terms(defm)
    flags = []
    witnesses = {}
    for k in range(defm.order + 1):
        witness = _residual(defm, tables, k, 0).first_nonzero()
        flags.append(witness is None)
        if witness is not None:
            witnesses[k] = witness
    return DeformationReport(tuple(flags), witnesses)


def obstruction(defm: TruncatedDeformation, m: int) -> Cochain:
    """sum_{i=1}^{m-1} d_i ⋄ d_{m-i}, defined once the deformation holds through m−1."""
    if m < 1:
        raise InputError("obstruction order must be at least 1")
    # the padded deformation shares d_0 ... d_order, so their tables serve both passes
    tables = {}
    report = _check_orders(defm.padded(max(defm.order, m - 1)), tables)
    if not report.ok_through(m - 1):
        bad = next(k for k, ok in enumerate(report.order_ok) if not ok and k <= m - 1)
        raise PreconditionError(
            f"deformation equations fail at order {bad} (witness {report.witnesses[bad]})"
        )
    return _residual(defm, tables, m, 1)


def extend_one_order(defm: TruncatedDeformation) -> Optional[Cochain]:
    """A term d_m completing a valid order-(m−1) deformation to order m, if one exists.

    Solves delta2(d_m) = −obstruction over the twist-compatible bilinear maps;
    None means the obstruction class in degree-3 cohomology is nonzero.
    """
    obs = obstruction(defm, defm.order + 1)
    return _preimage(defm.alg, adjoint(defm.alg), 2)([-x for x in obs.data])


def _coefficient(terms: dict, out: dict, left: dict, right: dict, k: int) -> tuple[int, list]:
    """The order-k coefficient of out_t ∘ d_t ∘ (left_t ⊗ right_t), as integer numerators over one denominator.

    terms maps an order i to the nested tensor of d_i; out, left and right map an
    order to a matrix, None standing for the identity.  A missing order is zero.
    The coefficient is Σ out_o ∘ d_i ∘ (left_p ⊗ right_q) over i + o + p + q = k.
    """
    return _table_sum(
        [
            transport(t, out[o], left[p], right[k - i - o - p])
            for i, t in terms.items()
            for o in out
            for p in left
            if k - i - o - p in right
        ]
    )


def _inverse(f: Matrix, level: int, order: int) -> dict:
    """(id − t^level f)⁻¹ = Σ_i f^i t^{i·level} through the given order, None standing for f^0."""
    series, power = {0: None}, f
    for k in range(level, order + 1, level):
        series[k], power = power, power * f
    return series


def check_equivalence(
    d: TruncatedDeformation,
    d_prime: TruncatedDeformation,
    phi: FormalIsomorphism,
    order: int,
) -> bool:
    """Whether phi_t carries d_t to d'_t through the given order.

    Order-k condition, on basis pairs, for k = 0 ... order:
        the order-k coefficient of phi_t ∘ d_t equals that of d'_t ∘ (phi_t ⊗ phi_t).
    The terms of phi must commute with both twists.
    """
    alg = d.alg
    if d_prime.alg.dim != alg.dim:
        raise InputError("deformations live over algebras of different dimensions")
    if phi.order < order:
        raise InputError("isomorphism truncation order is too small")
    if any((t.nrows, t.ncols) != (alg.dim, alg.dim) for t in phi.terms):
        raise InputError("isomorphism term shape does not match the algebra")
    if not all(t.commutes_with(alg.alpha) and t.commutes_with(alg.beta) for t in phi.terms):
        return False
    ident, phis = {0: None}, {0: None, **dict(enumerate(phi.terms, start=1))}
    lhs, rhs = ({i: x.term(i).nested() for i in range(min(x.order, order) + 1)} for x in (d, d_prime))
    return all(
        _first_difference(_coefficient(lhs, phis, ident, ident, k), _coefficient(rhs, ident, phis, phis, k)) is None
        for k in range(order + 1)
    )


def gauge(defm: TruncatedDeformation, f: Matrix, level: int, order: int) -> TruncatedDeformation:
    """Conjugate by chi_t = id − t^level f, truncated at the given order.

    New terms: d'_t = chi_t^{-1} ∘ d_t ∘ (chi_t ⊗ chi_t), with
    chi_t^{-1} = sum_i f^i t^{i·level} (finite below the truncation).
    """
    alg = defm.alg
    n = alg.dim
    if level < 1:
        raise InputError("gauge level must be at least 1")
    if not (f.commutes_with(alg.alpha) and f.commutes_with(alg.beta)):
        raise PreconditionError("gauge generator must commute with both twists")
    padded = defm.padded(max(defm.order, order))
    terms = {k: padded.term(k).nested() for k in range(order + 1)}
    chi, chi_inv = {0: None, level: f.scale(-1)}, _inverse(f, level, order)
    new_terms = []
    for k in range(1, order + 1):
        den, total = _coefficient(terms, chi_inv, chi, chi, k)
        new_terms.append(Cochain(2, n, n, [Fraction(v, den) for row in total for vec in row for v in vec]))
    return TruncatedDeformation(alg, new_terms)


def trivialize(defm: TruncatedDeformation, max_order: int) -> Optional[FormalIsomorphism]:
    """Gauge away a deformation step by step, or None at the first non-coboundary term.

    At each stage n is the lowest order with d_n ≠ 0; when d_n is a degree-2
    coboundary delta1(f_n), conjugating by id − t^n f_n clears every order
    through n.  The composite isomorphism maps the original deformation to
    the null one.
    """
    if max_order < 1:
        raise PreconditionError("trivialization order must be at least 1")
    alg = defm.alg
    n = alg.dim
    current = defm.padded(max(defm.order, max_order))
    report = check_deformation(current)
    if not report.ok_through(max_order):
        bad = next(k for k, ok in enumerate(report.order_ok) if not ok)
        raise PreconditionError(f"deformation equations fail at order {bad}")
    preimage = _preimage(alg, adjoint(alg), 1)  # δ1 is factored once for every level
    total = {0: Matrix.identity(n)}  # composed map original -> current, by order
    for level in range(1, max_order + 1):
        if current.term(level).is_zero():
            continue
        f_cochain = preimage(current.term(level).data)
        if f_cochain is None:
            return None
        f = Matrix([[f_cochain.value(j)[i] for j in range(n)] for i in range(n)])
        current = gauge(current, f, level, max_order)
        if not current.term(level).is_zero():
            raise InternalError(f"gauging did not clear the order-{level} term")
        # the step map old -> new is chi^{-1}
        step = {**_inverse(f, level, max_order), 0: Matrix.identity(n)}
        total = {
            k: sum((step[a] * total[k - a] for a in step if k - a in total), Matrix.zero(n, n))
            for k in range(max_order + 1)
        }
    return FormalIsomorphism(tuple(total.get(k, Matrix.zero(n, n)) for k in range(1, max_order + 1)))


def null_deformation(alg: BiHomAlgebra) -> TruncatedDeformation:
    return TruncatedDeformation(alg, ())
