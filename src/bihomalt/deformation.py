"""Truncated one-parameter formal deformations of the product.

A deformation of order m is the family d_t = mu + d_1 t + ... + d_m t^m of
bilinear products, each term commuting with both twists.  Collecting the
left-alternativity of d_t by powers of t gives one trilinear condition per
order k:

    sum_{i+j=k} d_i ⋄ d_j = 0

where ⋄ is the four-term diamond pairing.  The k = 0 condition is the
alternativity of mu itself, and since mu ⋄ f + f ⋄ mu is exactly the
degree-2 coboundary operator with adjoint coefficients, the order-k
condition reads  δ(d_k) + sum_{i+j=k, i,j>=1} d_i ⋄ d_j = 0.
As ⋄ is Q[t]-bilinear, order k is block k of one pass (`_paired`) over the
tables of d_t on A ⊗ Q[t]/(t^(m+1)) at its t⁰ inputs (`algebra._series_tables`);
the obstruction at m is block m of d_0 ... d_{m−1}, and `diamond` block 0.

Equivalence, gauges and trivialization rest on one series identity,
phi_t ∘ d_t = d'_t ∘ (phi_t ⊗ phi_t).  Both sides come order by order from
`_coefficient`, the coefficients of out_t ∘ d_t ∘ (left_t ⊗ right_t) as sums
of transports; a gauge by id − t^level f takes its inverse from `_inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import BiHomAlgebra, _first_witnesses, _pairing, _same, _series_tables, _table_sum, transport
from .cohomology import Cochain, _preimage, twist_witness
from .errors import InputError, InternalError, PreconditionError
from .exactnum import ZERO, Matrix, _Immutable, _Record, _Report
from .representation import adjoint


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
        """d_i with d_0 = mu, for i = 0 ... m."""
        if not 0 <= i <= self.order:
            raise InputError(f"deformation term index must be between 0 and {self.order}, got {i}")
        n = self.alg.dim
        return self.terms[i - 1] if i else Cochain.from_nested(2, n, n, self.alg.mu)

    def padded(self, order: int) -> "TruncatedDeformation":
        """The same deformation viewed at a higher truncation order."""
        if order < self.order:
            raise InputError("cannot truncate below the stored order")
        extra = order - self.order
        zero = Cochain.zero(2, self.alg.dim, self.alg.dim)
        return TruncatedDeformation(self.alg, self.terms + (zero,) * extra)


class FormalIsomorphism(_Record):
    """phi_t = id + phi_1 t + ... + phi_m t^m; each term commutes with the twists."""

    __slots__ = ("terms",)

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, i: int, dim: int) -> Matrix:
        if i < 0:
            raise InputError(f"formal isomorphism term index must be non-negative, got {i}")
        if i == 0:
            return Matrix.identity(dim)
        if i <= len(self.terms):
            return self.terms[i - 1]
        return Matrix.zero(dim, dim)


class DeformationReport(_Report):
    """Per-order residual check of the deformation equations."""

    __slots__ = ("order_ok", "witnesses")

    @property
    def ok(self) -> bool:
        return all(self.order_ok)

    def ok_through(self, k: int) -> bool:
        return all(self.order_ok[: k + 1])


def _require_compatible_terms(defm: TruncatedDeformation):
    alpha, beta = defm.alg.alpha, defm.alg.beta
    for i, t in enumerate(defm.terms, start=1):
        # every alpha failure is reported before any beta failure
        w = twist_witness(t, alpha, alpha) or twist_witness(t, beta, beta)
        if w is not None:
            raise PreconditionError(
                f"deformation term {i} does not commute with the twists (fails at {w})"
            )


def _series(defm: TruncatedDeformation, top: int) -> list:
    """The nested tensors d_0 ... d_min(top, m) of d_t: its terms through order top."""
    return [defm.alg.mu, *(t.nested() for t in defm.terms[:top])]


def _paired(alg: BiHomAlgebra, a: list, b: list, top: int) -> tuple[int, list, dict]:
    """(den, values, failed): one pass of `_pairing` of the series a ⋄ b through t^top, at the t⁰ inputs.

    a and b list nested tensors by order; a series paired with itself builds its tables once.  Block k
    of a value (x, y, z, val), val[k·n : (k+1)·n], is Σ_{i+j=k} a_i ⋄ b_j at (e_x, e_y, e_z) over den;
    failed maps each order whose block is non-zero to its first witness, by order.
    """
    da, outer, inner = _series_tables(alg, a, top)
    db, _, inner = (da, None, inner) if b is a else _series_tables(alg, b, top)
    n, values = alg.dim, list(_pairing(alg.dim, outer, inner))
    failed = _first_witnesses((k, (x, y, z)) for x, y, z, val in values for k in range(top + 1) if any(val[k * n : (k + 1) * n]))
    return da * db, values, dict(sorted(failed.items()))


def _block(n: int, den: int, values, k: int) -> Cochain:
    """Block k of the values of `_paired` as a trilinear map, symmetric in its first two inputs."""
    total = [ZERO] * n**4
    for x, y, z, val in values:
        block = [Fraction(v, den) for v in val[k * n : (k + 1) * n]]
        for pos in ((x * n + y) * n + z, (y * n + x) * n + z):
            total[pos * n : (pos + 1) * n] = block
    return Cochain(3, n, n, total)


def diamond(alg: BiHomAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """The four-term trilinear pairing of two bilinear terms.

    a ⋄ b (x,y,z) = a(b(βx,αy), βz) − a(αβx, b(αy,z))
                  + a(b(βy,αx), βz) − a(αβy, b(αx,z))
    """
    TruncatedDeformation(alg, (a, b))  # the shape check of a deformation's terms
    ta = [a.nested()]
    den, values, _ = _paired(alg, ta, ta if b is a else [b.nested()], 0)
    return _block(alg.dim, den, values, 0)


def check_deformation(defm: TruncatedDeformation) -> DeformationReport:
    """Check the deformation equations at every order k = 0 ... m, all read off one pairing of d_t."""
    _require_compatible_terms(defm)
    series = _series(defm, defm.order)
    _, _, failed = _paired(defm.alg, series, series, defm.order)
    return DeformationReport(tuple(k not in failed for k in range(defm.order + 1)), failed)


def obstruction(defm: TruncatedDeformation, m: int) -> Cochain:
    """sum_{i=1}^{m-1} d_i ⋄ d_{m-i}, block m of d_0 ... d_{m−1}, once its blocks below m vanish."""
    if m < 1:
        raise InputError("obstruction order must be at least 1")
    _require_compatible_terms(defm)
    series = _series(defm, m - 1)
    den, values, failed = _paired(defm.alg, series, series, m)
    bad = min(failed, default=m)
    if bad < m:
        raise PreconditionError(f"deformation equations fail at order {bad} (witness {failed[bad]})")
    return _block(defm.alg.dim, den, values, m)


def extend_one_order(defm: TruncatedDeformation) -> Optional[Cochain]:
    """A term d_m completing a valid order-(m−1) deformation to order m, if one exists.

    Solves δ(d_m) = −obstruction over the twist-compatible bilinear maps;
    None means the obstruction class in degree-3 cohomology is nonzero.
    """
    obs = obstruction(defm, defm.order + 1)
    return _preimage(defm.alg, adjoint(defm.alg), 2)([-x for x in obs.data])


def _coefficient(terms: list, out: dict, left: dict, right: dict, k: int) -> tuple[int, list]:
    """The order-k coefficient of out_t ∘ d_t ∘ (left_t ⊗ right_t), as integer numerators over one denominator.

    terms lists the nested tensors of d_t by order; out, left and right map an
    order to a matrix, None standing for the identity.  A missing order is zero.
    The coefficient is Σ out_o ∘ d_i ∘ (left_p ⊗ right_q) over i + o + p + q = k.
    """
    return _table_sum(
        [
            transport(t, out[o], left[p], right[k - i - o - p])
            for i, t in enumerate(terms)
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
    Both deformations must share their twists, and the terms of phi must commute with them.
    """
    alg = d.alg
    if order < 0:
        raise InputError("equivalence order must be at least 0")
    if (d_prime.alg.alpha, d_prime.alg.beta) != (alg.alpha, alg.beta):
        raise InputError("deformations live over algebras of different dimensions or twists")
    if phi.order < order:
        raise InputError("isomorphism truncation order is too small")
    if any((t.nrows, t.ncols) != (alg.dim, alg.dim) for t in phi.terms):
        raise InputError("isomorphism term shape does not match the algebra")
    if not all(t.commutes_with(alg.alpha) and t.commutes_with(alg.beta) for t in phi.terms):
        return False
    ident, phis = {0: None}, {0: None, **dict(enumerate(phi.terms, start=1))}
    lhs, rhs = (_series(x, order) for x in (d, d_prime))
    return all(
        _same(_coefficient(lhs, phis, ident, ident, k), _coefficient(rhs, ident, phis, phis, k)) for k in range(order + 1)
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
    if order < 0:
        raise InputError("gauge order must be at least 0")
    if not (f.commutes_with(alg.alpha) and f.commutes_with(alg.beta)):
        raise PreconditionError("gauge generator must commute with both twists")
    terms = _series(defm, order)
    chi, chi_inv = {0: None, level: f.scale(-1)}, _inverse(f, level, order)
    new_terms = []
    for k in range(1, order + 1):
        den, total = _coefficient(terms, chi_inv, chi, chi, k)
        new_terms.append(Cochain(2, n, n, [Fraction(v, den) for row in total for vec in row for v in vec]))
    return TruncatedDeformation(alg, new_terms)


def trivialize(defm: TruncatedDeformation, max_order: int) -> Optional[FormalIsomorphism]:
    """Gauge away a deformation step by step, or None at the first non-coboundary term.

    At each stage n is the lowest order with d_n ≠ 0; when d_n is a degree-2
    coboundary δ(f_n), conjugating by id − t^n f_n clears every order
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
        raise PreconditionError(f"deformation equations fail at order {min(report.witnesses)}")
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
