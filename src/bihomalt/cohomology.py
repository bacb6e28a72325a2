"""The cochain complex of a left BiHom-alternative algebra in a bimodule.

An n-cochain is an n-linear map A^n -> V intertwining the twists:
phi∘f = f∘alpha^(n) and psi∘f = f∘beta^(n).  Coordinates are stored flat,
ordered lexicographically by (i_1, ..., i_n, output index); that ordering
is shared with the cochain file format.

The complex is truncated above degree three: degree-4 cochains exist only
as the codomain of the degree-3 operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import BiHomAlgebra, validate
from .errors import InputError, InternalError, PreconditionError
from .exactnum import (
    ONE,
    Matrix,
    Subspace,
    _eliminate,
    nullspace_of_sparse_rows,
    rank_nullspace,  # noqa: F401 - bench/test_bench.py checks that its wrapper here is removed
    support,
    unit_vector,
    vector,
)
from .representation import Representation, validate_representation

ZERO = Fraction(0)


class Cochain:
    """An n-linear map A^n -> V as a flat tuple of rationals."""

    __slots__ = ("degree", "alg_dim", "mod_dim", "data")

    def __init__(self, degree: int, alg_dim: int, mod_dim: int, data):
        if degree < 1 or degree > 4:
            raise InputError("cochain degree must be between 1 and 4")
        data = vector(data)
        if len(data) != mod_dim * alg_dim**degree:
            raise InputError(
                f"cochain needs {mod_dim * alg_dim ** degree} coordinates, got {len(data)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alg_dim", alg_dim)
        object.__setattr__(self, "mod_dim", mod_dim)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *_):
        raise AttributeError("Cochain is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and (self.degree, self.alg_dim, self.mod_dim) == (other.degree, other.alg_dim, other.mod_dim)
            and self.data == other.data
        )

    def __repr__(self):
        return f"Cochain(degree={self.degree}, alg_dim={self.alg_dim}, mod_dim={self.mod_dim})"

    @staticmethod
    def zero(degree: int, alg_dim: int, mod_dim: int) -> "Cochain":
        return Cochain(degree, alg_dim, mod_dim, (ZERO,) * (mod_dim * alg_dim**degree))

    @staticmethod
    def from_function(degree: int, alg_dim: int, mod_dim: int, fn: Callable) -> "Cochain":
        """Tabulate fn(basis index tuple) -> V-vector into the flat layout."""
        data = []
        for idx in itertools.product(range(alg_dim), repeat=degree):
            val = fn(*idx)
            if len(val) != mod_dim:
                raise InputError("cochain function returned a vector of the wrong length")
            data.extend(val)
        return Cochain(degree, alg_dim, mod_dim, data)

    def _offset(self, idx: Sequence[int]) -> int:
        flat = 0
        for i in idx:
            flat = flat * self.alg_dim + i
        return flat * self.mod_dim

    def value(self, *idx: int) -> tuple[Fraction, ...]:
        """The V-vector at a basis index tuple."""
        if len(idx) != self.degree:
            raise InputError("index tuple length must equal the degree")
        off = self._offset(idx)
        return self.data[off : off + self.mod_dim]

    def evaluate(self, *args: Sequence) -> tuple[Fraction, ...]:
        """Multilinear extension to arbitrary coordinate vectors."""
        if len(args) != self.degree:
            raise InputError("argument count must equal the degree")
        supports = []
        for a in args:
            if len(a) != self.alg_dim:
                raise InputError("argument length does not match the algebra dimension")
            supports.append(support(a))
        acc = [ZERO] * self.mod_dim
        for combo in itertools.product(*supports):
            coeff = Fraction(1)
            for _, c in combo:
                coeff *= c
            off = self._offset([i for i, _ in combo])
            for k in range(self.mod_dim):
                v = self.data[off + k]
                if v != 0:
                    acc[k] += coeff * v
        return tuple(acc)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)

    def first_nonzero(self) -> Optional[tuple[int, ...]]:
        """The first basis index tuple, in lexicographic order, with a non-zero value."""
        pos = next((p for p, a in enumerate(self.data) if a != 0), None)
        if pos is None:
            return None
        flat, idx = pos // self.mod_dim, []
        for _ in range(self.degree):
            flat, i = divmod(flat, self.alg_dim)
            idx.append(i)
        return tuple(reversed(idx))

    def nested(self) -> list:
        """Nested-list form, innermost = output coordinates (the file layout)."""

        def build(prefix):
            if len(prefix) == self.degree:
                off = self._offset(prefix)
                return list(self.data[off : off + self.mod_dim])
            return [build(prefix + (i,)) for i in range(self.alg_dim)]

        return build(())

    @staticmethod
    def from_nested(degree: int, alg_dim: int, mod_dim: int, nested) -> "Cochain":
        data = []

        def walk(node, depth):
            if depth == degree:
                if len(node) != mod_dim:
                    raise InputError("tensor output length is inconsistent")
                data.extend(node)
                return
            if len(node) != alg_dim:
                raise InputError("tensor axis length does not match the algebra dimension")
            for child in node:
                walk(child, depth + 1)

        walk(nested, 0)
        return Cochain(degree, alg_dim, mod_dim, data)


def twist_witness(cochain: Cochain, twist_in: Matrix, twist_out: Matrix) -> Optional[tuple]:
    """First basis tuple t, in lexicographic order, where twist_out(f(e_t)) ≠ f(twist_in e_t)."""
    n = cochain.alg_dim
    cols = [twist_in.column(i) for i in range(n)]
    for idx in itertools.product(range(n), repeat=cochain.degree):
        if twist_out.apply(cochain.value(*idx)) != cochain.evaluate(*[cols[i] for i in idx]):
            return idx
    return None


def compatibility_witness(
    alg: BiHomAlgebra, rep: Representation, cochain: Cochain
) -> Optional[tuple]:
    """First basis tuple where phi/psi-compatibility breaks, or None."""
    w_phi = twist_witness(cochain, alg.alpha, rep.phi)
    w_psi = twist_witness(cochain, alg.beta, rep.psi)
    return min((w for w in (w_phi, w_psi) if w is not None), default=None)


def _require_cochain(alg: BiHomAlgebra, rep: Representation, f: Cochain, degree: int):
    if f.degree != degree:
        raise InputError(f"expected a degree-{degree} cochain")
    if f.alg_dim != alg.dim or f.mod_dim != rep.mod_dim:
        raise InputError("cochain shape does not match algebra and coefficients")
    w = compatibility_witness(alg, rep, f)
    if w is not None:
        raise PreconditionError(f"not a twist-compatible cochain (fails at {w})")


def _expand(alg_dim: int, mod_dim: int, supports) -> dict[int, Fraction]:
    """f(u_1, ..., u_k) as linear forms in f's flat coordinates.

    Takes the supports of the arguments and returns {offset: coefficient}:
    coordinate c of the value is the sum of coefficient * f[offset + c].
    """
    form = {}
    for combo in itertools.product(*supports):
        pos, coeff = 0, ONE
        for i, a in combo:
            pos = pos * alg_dim + i
            coeff *= a
        off = pos * mod_dim
        form[off] = form.get(off, ZERO) + coeff
    return form


def cochain_space(alg: BiHomAlgebra, rep: Representation, degree: int) -> Subspace:
    """Basis of the twist-compatible n-linear maps inside the full coordinate space."""
    if degree not in (1, 2, 3):
        raise InputError("cochain spaces are built for degrees 1, 2, 3")
    n, m = alg.dim, rep.mod_dim
    total = m * n**degree
    rows = []
    for twist, tcols in ((rep.phi, alg.alpha), (rep.psi, alg.beta)):
        sups = [support(tcols.column(i)) for i in range(n)]
        for pos, t in enumerate(itertools.product(range(n), repeat=degree)):
            base = pos * m
            # phi(f(e_t)) - f(twisted basis vectors) = 0, one row per output coordinate
            transformed = _expand(n, m, [sups[i] for i in t])
            for c_out in range(m):
                row = {}
                for c_in in range(m):
                    e = twist.rows[c_out][c_in]
                    if e != 0:
                        row[base + c_in] = row.get(base + c_in, ZERO) + e
                for off, coeff in transformed.items():
                    key = off + c_out
                    row[key] = row.get(key, ZERO) - coeff
                rows.append({k: v for k, v in row.items() if v != 0})
    return nullspace_of_sparse_rows(rows, total)


def _delta_terms(alg: BiHomAlgebra, rep: Representation, degree: int) -> Callable:
    """The terms of (δf)(e_t) as (sign, action rows or None, argument supports) triples."""
    n = alg.dim
    units = [unit_vector(n, i) for i in range(n)]
    a_vecs = [alg.alpha.column(i) for i in range(n)]
    b_vecs = [alg.beta.column(i) for i in range(n)]
    ab_vecs = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    e, a, b, ab = ([support(v) for v in vecs] for vecs in (units, a_vecs, b_vecs, ab_vecs))

    def products(xs, ys):
        return [[support(alg.product(x, y)) for y in ys] for x in xs]

    def actions(at, vecs):
        """The action matrices at vecs, as one support list per output coordinate."""
        return [[support(row) for row in at(v).rows] for v in vecs]

    if degree == 1:
        left = actions(rep.left_at, units)
        right = actions(rep.right_at, units)
        mu = products(units, units)
        # (δf)(x,y) = l(x)f(y) + r(y)f(x) − f(x·y)
        return lambda i, j: (
            (1, left[i], (e[j],)),
            (1, right[j], (e[i],)),
            (-1, None, (mu[i][j],)),
        )

    if degree == 2:
        r_b = actions(rep.right_at, b_vecs)
        l_ab = actions(rep.left_at, ab_vecs)
        ba = products(b_vecs, a_vecs)
        ae = products(a_vecs, units)
        return lambda i, j, k: [
            term
            for x, y in ((i, j), (j, i))
            for term in (
                (1, r_b[k], (b[x], a[y])),
                (-1, l_ab[x], (a[y], e[k])),
                (1, None, (ba[x][y], b[k])),
                (-1, None, (ab[x], ae[y][k])),
            )
        ]

    l_a = actions(rep.left_at, a_vecs)
    r_b = actions(rep.right_at, b_vecs)
    p = products(a_vecs, b_vecs)
    return lambda x1, x2, x3, x4: (
        (1, l_a[x1], (b[x2], b[x3], b[x4])),
        (-1, l_a[x1], (b[x3], b[x2], b[x4])),
        (1, r_b[x4], (a[x1], a[x2], a[x3])),
        (-1, r_b[x4], (a[x2], a[x1], a[x3])),
        (-1, None, (p[x1][x2], e[x3], e[x4])),
        (-1, None, (p[x2][x3], e[x1], e[x4])),
        (1, None, (e[x1], p[x2][x3], e[x4])),
        (1, None, (e[x3], p[x1][x2], e[x4])),
        (-1, None, (e[x1], e[x2], p[x3][x4])),
        (1, None, (e[x2], e[x1], p[x3][x4])),
    )


def coboundary_operator(
    alg: BiHomAlgebra, rep: Representation, degree: int
) -> dict[int, dict[int, Fraction]]:
    """δ_degree on the full coordinate space as sparse rows {row: {column: coefficient}}.

    Rows and columns use the flat cochain layout; only non-zero rows are kept.
    Each row is read off the structure constants, twists and actions, with no
    cochain evaluated.
    """
    if degree not in (1, 2, 3):
        raise InputError("coboundary operators exist for degrees 1, 2, 3")
    n, m = alg.dim, rep.mod_dim
    terms = _delta_terms(alg, rep, degree)
    op = {}
    for pos, t in enumerate(itertools.product(range(n), repeat=degree + 1)):
        rows = [{} for _ in range(m)]
        for sign, action, args in terms(*t):
            form = _expand(n, m, args).items()
            for c, row in enumerate(rows):
                # an action mixes the output coordinates; without one, coordinate c maps to c
                for c_in, s in action[c] if action is not None else ((c, ONE),):
                    s = sign * s
                    for off, coeff in form:
                        key = off + c_in
                        row[key] = row.get(key, ZERO) + s * coeff
        for c, row in enumerate(rows):
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                op[pos * m + c] = row
    return op


def apply_coboundary(alg: BiHomAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """δf through the assembled operator, without the twist-compatibility check."""
    if f.alg_dim != alg.dim or f.mod_dim != rep.mod_dim:
        raise InputError("cochain shape does not match algebra and coefficients")
    out = [ZERO] * (f.mod_dim * f.alg_dim ** (f.degree + 1))
    for r, row in coboundary_operator(alg, rep, f.degree).items():
        out[r] = sum((a * f.data[col] for col, a in row.items()), ZERO)
    return Cochain(f.degree + 1, f.alg_dim, f.mod_dim, out)


def delta1(alg: BiHomAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """(d f)(x,y) = l(x)f(y) + r(y)f(x) − f(x·y)."""
    _require_cochain(alg, rep, f, 1)
    return apply_coboundary(alg, rep, f)


def delta2(alg: BiHomAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The eight-term degree-2 operator, symmetric under swapping its first two inputs."""
    _require_cochain(alg, rep, f, 2)
    return apply_coboundary(alg, rep, f)


def delta3(alg: BiHomAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """The ten-term degree-3 operator; composed with delta2 it vanishes."""
    _require_cochain(alg, rep, f, 3)
    return apply_coboundary(alg, rep, f)


@dataclass(frozen=True)
class ComplexReport:
    degree: int
    dim_C: int
    dim_Z: int
    dim_B: int
    dim_H: int

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim_C": self.dim_C,
            "dim_Z": self.dim_Z,
            "dim_B": self.dim_B,
            "dim_H": self.dim_H,
        }


def delta_rows_on_basis(
    alg: BiHomAlgebra,
    rep: Representation,
    degree: int,
    basis: Subspace,
    *,
    operator: Optional[dict] = None,
) -> dict[int, dict[int, Fraction]]:
    """delta_degree on the cochains Σ x_j basis[j], as rows {output coordinate: {j: coefficient}}.

    The product operator · basis with its zero rows dropped; column j is the
    image of basis[j].  `operator` is coboundary_operator(alg, rep, degree)
    when the caller has it already.
    """
    if not basis.basis:
        return {}
    if operator is None:
        operator = coboundary_operator(alg, rep, degree)
    # walk each operator row's columns through the basis entries there
    by_coord = {}
    for j, vec in enumerate(basis.basis):
        for col, v in support(vec):
            by_coord.setdefault(col, []).append((j, v))
    rows = {}
    for r, orow in operator.items():
        acc = {}
        for col, a in orow.items():
            for j, v in by_coord.get(col, ()):
                acc[j] = acc.get(j, ZERO) + a * v
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            rows[r] = acc
    return rows


def _check_exactness(space: Subspace, prev_rows: dict, operator: dict):
    """Each image, a column of prev_rows, lies in the compatible space and the operator sends it to zero."""
    elim = _eliminate((dict(support(vec)) for vec in space.basis), space.ambient_dim)
    images = {}
    for r, row in prev_rows.items():
        for j, v in row.items():
            images.setdefault(j, {})[r] = v
    if any(elim.reduce(image) for image in images.values()):
        raise InternalError("coboundary escaped the compatible cochain space")
    # operator · prev_rows, one row at a time: the composite restricted to the basis
    for orow in operator.values():
        acc = {}
        for col, a in orow.items():
            for j, v in prev_rows.get(col, {}).items():
                acc[j] = acc.get(j, ZERO) + a * v
        if any(acc.values()):
            raise InternalError("coboundary is not a cocycle")


def complex_report(alg: BiHomAlgebra, rep: Representation, degree: int) -> ComplexReport:
    """Dimensions of cochains, cocycles, coboundaries and cohomology at degree 2 or 3."""
    if degree not in (2, 3):
        raise InputError("cohomology reports exist for degrees 2 and 3 only")
    report = validate(alg)
    if not report.ok:
        name, w = min(report.witnesses.items())
        raise PreconditionError(f"cohomology needs a BiHom-alternative algebra (fails {name} at {tuple(w)})")
    space = cochain_space(alg, rep, degree)
    prev_space = cochain_space(alg, rep, degree - 1)
    operator = coboundary_operator(alg, rep, degree)
    rows = delta_rows_on_basis(alg, rep, degree, space, operator=operator)
    dim_z = space.dim - _eliminate(rows.values(), space.dim).rank
    prev_rows = delta_rows_on_basis(alg, rep, degree - 1, prev_space)
    dim_b = _eliminate(prev_rows.values(), prev_space.dim).rank
    if prev_rows:
        # coboundaries must be cocycles: exactness guard, not a user-facing check
        try:
            _check_exactness(space, prev_rows, operator)
        except InternalError:
            # δ∘δ = 0 needs the representation axioms, so on coefficients that break them this is bad input
            if not validate_representation(alg, rep).ok:
                raise PreconditionError("cohomology needs a valid representation") from None
            raise
    return ComplexReport(degree, space.dim, dim_z, dim_b, dim_z - dim_b)
