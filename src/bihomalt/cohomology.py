"""The cochain complex of a left BiHom-alternative algebra in a bimodule.

An n-cochain is an n-linear map A^n -> V intertwining the twists:
phi∘f = f∘alpha^(n) and psi∘f = f∘beta^(n).  Coordinates are stored flat,
ordered lexicographically by (i_1, ..., i_n, output index); that ordering
is shared with the cochain file format.  A cochain space is the kernel of
the rows of `algebra._twist_rows`, the one builder of twist-compatibility
rows, and a given cochain is decided on the same rows.

The coboundaries δ1–δ3 are only ever applied to columns: compatible basis
vectors, images, or one cochain.  `_coboundary(alg, rep)` builds their one
factor table and returns δ·columns: each row of δ is read off the term formula
by `algebra._term_rows` and multiplied into the columns, so no operator is stored.
Each degree is set up in one place, `_stage`: the compatible basis as primitive
integer columns, one walk of δ over them and the images of the degree below, and
the exactness guard.  `complex_report` reads two stages and `_preimage` one.

The complex is truncated above degree three: degree-4 cochains exist only
as the codomain of the degree-3 operator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import BiHomAlgebra, _common_denominator, _intertwining_witness, _term_rows, _twist_rows, transport
from .errors import InputError, InternalError, PreconditionError
from .exactnum import (
    ZERO,
    Matrix,
    Subspace,
    _Immutable,
    _Record,
    _eliminate,
    _factor,
    _integer_row,
    _lift,
    _transpose,
    nullspace_of_sparse_rows,
    rank_nullspace,  # noqa: F401 - bench/test_bench.py checks that its wrapper here is removed
    support,
    unit_vector,
    vector,
)
from .representation import Representation, _action_tensors, _require_module_over, _require_valid


class Cochain(_Immutable):
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
        self._set(degree=degree, alg_dim=alg_dim, mod_dim=mod_dim, data=data)

    def __repr__(self):
        return f"Cochain(degree={self.degree}, alg_dim={self.alg_dim}, mod_dim={self.mod_dim})"

    @staticmethod
    def zero(degree: int, alg_dim: int, mod_dim: int) -> "Cochain":
        return Cochain(degree, alg_dim, mod_dim, (ZERO,) * (mod_dim * alg_dim**degree))

    def _offset(self, idx: Sequence[int]) -> int:
        flat = 0
        for i in idx:
            flat = flat * self.alg_dim + i
        return flat * self.mod_dim

    def value(self, *idx: int) -> tuple[Fraction, ...]:
        """The V-vector at a basis index tuple."""
        if len(idx) != self.degree:
            raise InputError("index tuple length must equal the degree")
        if not all(0 <= i < self.alg_dim for i in idx):
            raise InputError(f"basis index out of range 0..{self.alg_dim - 1}")
        off = self._offset(idx)
        return self.data[off : off + self.mod_dim]

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)

    def first_nonzero(self) -> Optional[tuple[int, ...]]:
        """The first basis index tuple, in lexicographic order, with a non-zero value."""
        pos = next((p for p, a in enumerate(self.data) if a != 0), None)
        if pos is None:
            return None
        idx, pos = [], pos // self.mod_dim
        for _ in range(self.degree):
            pos, i = divmod(pos, self.alg_dim)
            idx.append(i)
        return tuple(reversed(idx))

    def nested(self) -> list:
        """Nested-list form, innermost = output coordinates (the file layout): the flat data reshaped."""
        out = [list(self.data[p : p + self.mod_dim]) for p in range(0, len(self.data), self.mod_dim)]
        for _ in range(self.degree - 1):
            out = [out[p : p + self.alg_dim] for p in range(0, len(out), self.alg_dim)]
        return out

    @staticmethod
    def from_nested(degree: int, alg_dim: int, mod_dim: int, nested) -> "Cochain":
        data = []

        def walk(node, depth):
            if not isinstance(node, (list, tuple)):
                raise InputError(f"tensor entries nest in lists, got {type(node).__name__} {node!r:.40}")
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
    """First basis tuple t, in lexicographic order, where twist_out(f(e_t)) ≠ f(twist_in e_t).

    The twist check of `algebra` on the flat layout, with twist_in on every argument.
    """
    n, m, degree = cochain.alg_dim, cochain.mod_dim, cochain.degree
    if (twist_in.nrows, twist_in.ncols, twist_out.nrows, twist_out.ncols) != (n, n, m, m):
        raise InputError("twist shapes do not match the cochain")
    return _intertwining_witness(cochain.data, (twist_in,) * degree, twist_out, lambda t, c: ("twist", t)).get("twist")


def compatibility_witness(
    alg: BiHomAlgebra, rep: Representation, cochain: Cochain
) -> Optional[tuple]:
    """First basis tuple where phi/psi-compatibility breaks, or None."""
    w_phi = twist_witness(cochain, alg.alpha, rep.phi)
    w_psi = twist_witness(cochain, alg.beta, rep.psi)
    return min((w for w in (w_phi, w_psi) if w is not None), default=None)


def _require_cochain(alg: BiHomAlgebra, rep: Representation, f: Cochain):
    if f.alg_dim != alg.dim or f.mod_dim != rep.mod_dim:
        raise InputError("cochain shape does not match algebra and coefficients")
    w = compatibility_witness(alg, rep, f)
    if w is not None:
        raise PreconditionError(f"not a twist-compatible cochain (fails at {w})")


def cochain_space(alg: BiHomAlgebra, rep: Representation, degree: int) -> Subspace:
    """Basis of the twist-compatible n-linear maps inside the full coordinate space."""
    if degree not in (1, 2, 3):
        raise InputError("cochain spaces are built for degrees 1, 2, 3")
    _require_module_over(alg, rep)
    pairs = ((alg.alpha, rep.phi), (alg.beta, rep.psi))
    rows = [row for twist_in, twist_out in pairs for _, _, row in _twist_rows((twist_in,) * degree, twist_out)]
    return nullspace_of_sparse_rows(rows, rep.mod_dim * alg.dim**degree)


def _coboundary(alg: BiHomAlgebra, rep: Representation) -> Callable[[int, list], dict[int, dict]]:
    """The map (degree, columns) ↦ δ_degree · columns as {row: {j: entry}}, zero rows dropped.

    Rows and columns use the flat cochain layout, and a column is a sparse
    vector {coordinate: entry}.  One factor table serves δ1–δ3, built here
    once: every twisted action, product and basis vector, as integers over one
    common denominator d, and each degree is only its term formula.  Every term
    has degree + 1 factors: its action and its arguments.  A term without an
    action has the identity times d in its place, so each row of δ is read off
    the table as integers over d^(degree + 1), multiplied into the columns as it
    is built, and each product entry is divided by d^(degree + 1) once; with
    d = 1 and integer columns the entries stay ints.
    """
    _require_module_over(alg, rep)
    n, m = alg.dim, rep.mod_dim
    alpha, beta, alpha_beta = alg.alpha, alg.beta, alg.alpha * alg.beta
    # actions and the product as bilinear tensors A × V → V and A × A → A, the basis as A × Q → A
    left, right = _action_tensors(rep)
    basis = [[unit_vector(n, p)] for p in range(n)]
    d, tables = _common_denominator(
        [transport(left, None, twist) for twist in (None, alpha, alpha_beta)]
        + [transport(right, None, twist) for twist in (None, beta)]
        + [transport(alg.mu, None, *twists) for twists in ((), (beta, alpha), (alpha,), (alpha, beta))]
        + [transport(basis, None, twist) for twist in (alpha, beta, alpha_beta)]
    )
    # by x: an action as one support over the input coordinates per output coordinate,
    # a product by y as a support, a twisted basis vector as a support
    tables[:5] = [
        [[[(c_in, cell[c]) for c_in, cell in enumerate(row) if cell[c]] for c in range(m)] for row in t] for t in tables[:5]
    ]
    tables[5:9] = [[[support(v) for v in row] for row in t] for t in tables[5:9]]
    tables[9:] = [[support(row[0]) for row in t] for t in tables[9:]]
    l, l_a, l_ab, r, r_b, mu, mu_ba, mu_a, mu_ab, a, b, ab = tables
    e, ident = [[(i, d)] for i in range(n)], [[(c, d)] for c in range(m)]

    # (δf)(e_t) as (sign, action rows, argument supports) triples
    formulas = {
        # (δf)(x,y) = l(x)f(y) + r(y)f(x) − f(x·y)
        1: lambda i, j: (
            (1, l[i], (e[j],)),
            (1, r[j], (e[i],)),
            (-1, ident, (mu[i][j],)),
        ),
        2: lambda i, j, k: [
            term
            for x, y in ((i, j), (j, i))
            for term in (
                (1, r_b[k], (b[x], a[y])),
                (-1, l_ab[x], (a[y], e[k])),
                (1, ident, (mu_ba[x][y], b[k])),
                (-1, ident, (ab[x], mu_a[y][k])),
            )
        ],
        3: lambda x1, x2, x3, x4: (
            (1, l_a[x1], (b[x2], b[x3], b[x4])),
            (-1, l_a[x1], (b[x3], b[x2], b[x4])),
            (1, r_b[x4], (a[x1], a[x2], a[x3])),
            (-1, r_b[x4], (a[x2], a[x1], a[x3])),
            (-1, ident, (mu_ab[x1][x2], e[x3], e[x4])),
            (-1, ident, (mu_ab[x2][x3], e[x1], e[x4])),
            (1, ident, (e[x1], mu_ab[x2][x3], e[x4])),
            (1, ident, (e[x3], mu_ab[x1][x2], e[x4])),
            (-1, ident, (e[x1], e[x2], mu_ab[x3][x4])),
            (1, ident, (e[x2], e[x1], mu_ab[x3][x4])),
        ),
    }

    def delta(degree: int, columns: list) -> dict[int, dict]:
        # walk each δ row's columns through the column entries there; no entry, no row to walk
        by_coord = _transpose(enumerate(columns))
        if not by_coord:
            return {}
        terms, den, dims = formulas[degree], d ** (degree + 1), (n,) * degree
        out = {}
        for pos, t in enumerate(itertools.product(range(n), repeat=degree + 1)):
            for c, row in enumerate(_term_rows(dims, m, terms(*t))):
                acc = {}
                for col, x in row.items():
                    if col in by_coord:
                        for j, v in by_coord[col].items():
                            acc[j] = acc.get(j, 0) + x * v
                acc = {j: v if den == 1 else Fraction(v, den) for j, v in acc.items() if v}
                if acc:
                    out[pos * m + c] = acc
        return out

    return delta


def delta(alg: BiHomAlgebra, rep: Representation, f: Cochain) -> Cochain:
    """δf, a cochain of degree f.degree + 1, for a twist-compatible f of degree 1, 2 or 3: δ applied to the column f.

    Degree 1: (δf)(x,y) = l(x)f(y) + r(y)f(x) − f(x·y).  Degree 2: the eight-term operator, symmetric under
    swapping its first two inputs.  Degree 3: the ten-term operator, with δ3∘δ2 = 0.
    """
    if f.degree > 3:
        raise InputError("coboundary operators exist for degrees 1, 2, 3")
    _require_cochain(alg, rep, f)
    image = _transpose(_coboundary(alg, rep)(f.degree, [dict(support(f.data))]).items()).get(0, {})
    return Cochain(f.degree + 1, f.alg_dim, f.mod_dim, _lift([image], (1,), f.mod_dim * f.alg_dim ** (f.degree + 1)))


class ComplexReport(_Record):
    __slots__ = ("degree", "dim_C", "dim_Z", "dim_B", "dim_H")


def _stage(alg: BiHomAlgebra, rep: Representation, delta: Callable, degree: int, below: Sequence = ()) -> tuple:
    """One degree of the complex: (columns, rows), rows = δ·(columns + below) in one walk, below being the
    sparse images of the degree below.  The columns are the compatible basis as primitive integer vectors,
    positive multiples of it on which a rank, a zero test or a solve is unchanged: a kernel column has 1 at
    its free coordinate, so clearing its denominators leaves entries of gcd 1."""
    columns = [_integer_row(entries)[0] for entries in cochain_space(alg, rep, degree).columns]
    rows = delta(degree, columns + list(below))
    # coboundaries must be cocycles: exactness guard, not a user-facing check
    escaped = bool(below) and any(map(_eliminate(columns, rep.mod_dim * alg.dim**degree).reduce, below))
    if escaped or any(j >= len(columns) for row in rows.values() for j in row):
        raise InternalError("coboundary escaped the compatible cochain space" if escaped else "coboundary is not a cocycle")
    return columns, rows


def _preimage(alg: BiHomAlgebra, rep: Representation, degree: int) -> Callable[[Sequence], Optional[Cochain]]:
    """The map g ↦ a twist-compatible degree-`degree` cochain f with δf = g, or None when there is none.

    The stage's images are factored once, here; g is given as flat coordinates.
    f is the combination of the columns with every free coordinate zero.
    """
    columns, rows = _stage(alg, rep, _coboundary(alg, rep), degree)
    images = _transpose(rows.items())
    read = _factor([images.get(j, {}) for j in range(len(columns))], rep.mod_dim * alg.dim ** (degree + 1))

    def preimage(g: Sequence) -> Optional[Cochain]:
        coeffs = read(dict(support(g)))
        if coeffs is None:
            return None
        return Cochain(degree, alg.dim, rep.mod_dim, _lift(columns, coeffs, rep.mod_dim * alg.dim**degree))

    return preimage


def complex_report(alg: BiHomAlgebra, rep: Representation, degree: int) -> ComplexReport:
    """Dimensions of cochains, cocycles, coboundaries and cohomology at degree 2 or 3."""
    if degree not in (2, 3):
        raise InputError("cohomology reports exist for degrees 2 and 3 only")
    # δ∘δ = 0 needs the module axioms
    _require_valid(alg, rep, "cohomology")
    delta = _coboundary(alg, rep)
    prev_columns, prev_rows = _stage(alg, rep, delta, degree - 1)
    dim_b = _eliminate(prev_rows.values(), len(prev_columns)).rank
    # one walk of δ_n over the basis and the images of δ_(n−1)
    columns, rows = _stage(alg, rep, delta, degree, list(_transpose(prev_rows.items()).values()))
    dim_z = len(columns) - _eliminate(rows.values(), len(columns)).rank
    return ComplexReport(degree, len(columns), dim_z, dim_b, dim_z - dim_b)
