"""BiHom-alternative algebras given by rational structure constants.

An algebra is a space with a bilinear product mu and two commuting,
multiplicative twist maps alpha and beta.  Both alternative laws are one
quadratic identity, mu ⋄ mu = 0, where ⋄ is the four-term diamond pairing

    (a ⋄ b)(x, y, z) = a(b(βx, αy), βz) − a(αβx, b(αy, z)) + (x ↔ y)

of the deformation equations, which read every order of a series d_t off
one pairing of its tables (`_series_tables`).  With the twisted associator
as(x, y, z) = (x·y)·β(z) − α(x)·(y·z), (mu ⋄ mu)(x, y, z) is
as(βx, αy, z) + as(βy, αx, z): the left law.  On the opposite algebra
Aᵒᵖ = (mu(y, x), β, α), whose tables are those of A transposed, it is the
right law with its inputs reversed.  The pairing is contracted on integer
tables that `transport` reads off the structure constants, so no identity
is evaluated point by point.  Every linear condition Σ sign·action(f(args)) = 0
on a multilinear f has one row builder, `_term_rows`: the coboundaries, the
product rules of the operator spaces and twist compatibility,
out∘f = f∘(T_1 ⊗ ... ⊗ T_k), whose rows (`_twist_rows`) span cochain spaces
and the commutant.  A given algebra is checked in one walk (`_walk`): a pass
per twist over these rows and both laws over one build of tables.  One
classifier pair, `_sectors(n)`, names each failure of an algebra on A⊕_θV,
A spanned by the first n basis vectors: the algebra's own identities, θ's
twist compatibility and cocycle conditions, and the bimodule axioms of V.
Its readers only pick their fields: `validate` walks with n = dim, and
`validate_representation` and the extensions read the walk of A⊕_θV.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

from .errors import InputError, MathCheckError
from .exactnum import ZERO, Matrix, _Immutable, _Report, _integer_columns, support, vec_sub, vector

BilinearTensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


def bilinear_tensor(entries, dim: int) -> BilinearTensor:
    """Normalize a nested [i][j][k] table; entry [i][j][k] is the e_k-coefficient of e_i·e_j."""
    tensor = tuple(tuple(vector(cell) for cell in row) for row in entries)
    if len(tensor) != dim or any(len(row) != dim for row in tensor):
        raise InputError("structure tensor does not match the declared dimension")
    if any(len(cell) != dim for row in tensor for cell in row):
        raise InputError("structure tensor output length is inconsistent")
    return tensor


def apply_bilinear(tensor: BilinearTensor, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
    """Evaluate the bilinear map on coordinate vectors: its transport by the columns of x and y, both
    cut to their non-zero coordinates, so two unit vectors read one cell of the tensor."""
    xs, ys = dict(support(x)), dict(support(y))
    if not (xs and ys):
        return (ZERO,) * len(tensor[0][0])
    block = [[tensor[i][j] for j in ys] for i in xs]
    d, table = transport(block, None, Matrix(zip(xs.values())), Matrix(zip(ys.values())))
    return tuple(Fraction(v, d) for v in table[0][0])


class BiHomAlgebra(_Immutable):
    """Structure constants plus the two twist matrices.

    Construction only checks shapes: an object may hold an algebra that
    violates the defining identities, and `validate` reports exactly which
    ones fail.  All values are immutable.
    """

    __slots__ = ("dim", "mu", "alpha", "beta")

    def __init__(self, dim: int, mu, alpha: Matrix, beta: Matrix):
        if dim < 1:
            raise InputError("algebra dimension must be positive")
        mu = bilinear_tensor(mu, dim)
        for m, name in ((alpha, "alpha"), (beta, "beta")):
            if not isinstance(m, Matrix) or m.nrows != dim or m.ncols != dim:
                raise InputError(f"{name} must be a {dim}x{dim} matrix")
        self._set(dim=dim, mu=mu, alpha=alpha, beta=beta)

    def __repr__(self):
        return f"BiHomAlgebra(dim={self.dim})"

    def product(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        if len(x) != self.dim or len(y) != self.dim:
            raise InputError("vector length does not match algebra dimension")
        return apply_bilinear(self.mu, x, y)


class AlgebraReport(_Report):
    """Per-identity validation flags with a witness index tuple for each failure."""

    __slots__ = ("commuting", "alpha_multiplicative", "beta_multiplicative", "left_alternative", "right_alternative", "witnesses")


def associator(alg: BiHomAlgebra, x: Sequence, y: Sequence, z: Sequence) -> tuple[Fraction, ...]:
    """(x·y)·beta(z) − alpha(x)·(y·z), trilinear in its arguments."""
    if len(x) != alg.dim or len(y) != alg.dim or len(z) != alg.dim:
        raise InputError("vector length does not match algebra dimension")
    left = alg.product(alg.product(x, y), alg.beta.apply(z))
    right = alg.product(alg.alpha.apply(x), alg.product(y, z))
    return vec_sub(left, right)


def _lincomb(coeffs, vecs) -> list[int]:
    """Σ c·vecs[p] over the (p, c) pairs."""
    acc = [0] * len(vecs[0])
    for p, c in coeffs:
        acc = [a + c * v for a, v in zip(acc, vecs[p])]
    return acc


def transport(
    tensor, out: Optional[Matrix] = None, left: Optional[Matrix] = None, right: Optional[Matrix] = None
) -> tuple[int, list]:
    """P·t(L e_i, R e_j) on every basis pair, as (d, table) with table[i][j] integer numerators over d.

    tensor[p][q] is the vector t(e_p, e_q), with rational or integer entries;
    out = P, left = L and right = R are matrices, None standing for the identity.
    """
    d = lcm(*(x.denominator for row in tensor for cell in row for x in cell))
    table = [[[x.numerator * (d // x.denominator) for x in cell] for cell in row] for row in tensor]
    if left is not None:
        dl, cols = _integer_columns(left)
        by_q = list(zip(*table))
        table = [[_lincomb(col, column) for column in by_q] for col in cols]
        d *= dl
    if right is not None:
        dr, cols = _integer_columns(right)
        table = [[_lincomb(col, row) for col in cols] for row in table]
        d *= dr
    if out is not None:
        do, rows = _integer_columns(out.transpose())
        table = [[[sum(c * vec[k] for k, c in r) for r in rows] for vec in row] for row in table]
        d *= do
    return d, table


def _common_denominator(parts) -> tuple[int, list]:
    """(den, tables): each (d, table) of parts rescaled to integer numerators over their lcm."""
    den = lcm(*(d for d, _ in parts))
    return den, [
        table if d == den else [[[v * (den // d) for v in vec] for vec in row] for row in table]
        for d, table in parts
    ]


def _table_sum(parts) -> tuple[int, list]:
    """Σ of (d, table) pairs, as integer numerators over their lcm."""
    den, tables = _common_denominator(parts)
    return den, [[[sum(vs) for vs in zip(*vecs)] for vecs in zip(*rows)] for rows in zip(*tables)]


def _diamond_pairs(a: Matrix, b: Matrix) -> tuple:
    """The (left, right) twists of the tables b1, b2, a1, a2 of `_series_tables` for α = a, β = b; None is the identity."""
    return (b, a), (a, None), (None, b), (a * b, None)


def _series_tables(alg: BiHomAlgebra, terms, top: int):
    """(d, outer, inner): the diamond tables of d_t = Σ t^i terms[i] on A ⊗ Q[t]/(t^(top+1)), at its t⁰ inputs.

    Entries are integers over one denominator d; a vector has (top+1)·n entries, block k the t^k
    coefficient.  inner = (d_t(βe_x, αe_y) by [x][y], d_t(αe_y, e_z) by [y][z]) and the block-Toeplitz
    outer = (d_t(e_p t^s, βe_z) by [s·n+p][z], d_t(αβe_x, e_q t^s) by [x][s·n+q]), so block k of a value
    of `_pairing(n, outer, inner)` is Σ_{i+j=k} d_i ⋄ d_j.
    """
    n, ids, orders, pairs = alg.dim, range(alg.dim), range(top + 1), _diamond_pairs(alg.alpha, alg.beta)
    den, tables = _common_denominator([transport(t, None, l, r) for t in terms for l, r in pairs])

    def series(part, i, j, shift=0):  # block k is entry [i][j] of table part (b1, b2, a1, a2) of d_(k−shift)
        return [v for k in orders for v in (tables[4 * (k - shift) + part][i][j] if 0 <= k - shift < len(terms) else [0] * n)]

    b1, b2 = [[series(0, x, y) for y in ids] for x in ids], [[series(1, y, z) for z in ids] for y in ids]
    a1 = [[series(2, p, z, s) for z in ids] for s in orders for p in ids]
    a2 = [[series(3, x, q, s) for s in orders for q in ids] for x in ids]
    return den, (a1, a2), (b1, b2)


def _pairing(n: int, outer, inner):
    """Yield (x, y, z, (a ⋄ b)(e_x, e_y, e_z)) for inputs x ≤ y and z below n, by z, then x, then y.

    a ⋄ b is symmetric in (x, y).  outer holds the tables of a, inner those of b,
    and each value is an integer vector over d_a·d_b.  a(b(βx,αy), βz) =
    Σ_p b(βx,αy)_p a(e_p, βz) and a(αβx, b(αy,z)) = Σ_q b(αy,z)_q a(αβx, e_q);
    p and q run over the whole space, and the tables built for one z are dropped before the next.
    """
    a1, a2 = outer
    b1, b2 = inner
    ids = range(n)

    def sparse(coeffs):
        return [(p, s) for p, s in enumerate(coeffs) if s]

    # the coefficient vectors are made sparse once, not once per z or per x
    sym = {(x, y): sparse([s + t for s, t in zip(b1[x][y], b1[y][x])]) for x in ids for y in range(x, n)}
    b2 = [[sparse(b2[y][z]) for z in ids] for y in ids]
    for z in ids:
        a1_z = [row[z] for row in a1]
        second = [[_lincomb(b2[y][z], a2[x]) for y in ids] for x in ids]
        for x in ids:
            for y in range(x, n):
                first = _lincomb(sym[x, y], a1_z)
                yield x, y, z, [f - s - t for f, s, t in zip(first, second[x][y], second[y][x])]


def _same(p, q) -> bool:
    """Whether two (d, table) transports are equal as rationals on every basis pair."""
    (dp, tp), (dq, tq) = p, q
    return all(dq * s == dp * t for prow, qrow in zip(tp, tq) for pvec, qvec in zip(prow, qrow) for s, t in zip(pvec, qvec))


def _expand(dims: Sequence[int], mod_dim: int, supports) -> dict[int, int]:
    """f(u_1, ..., u_k) as linear forms in the flat coordinates of f, axis a of length dims[a].

    Takes the supports of the arguments, with integer entries, and returns
    {offset: coefficient}: coordinate c of the value is the sum of
    coefficient * f[offset + c].
    """
    strides, step = [], mod_dim
    for size in reversed(dims):
        strides.append(step)
        step *= size
    scaled = [[(i * stride, a) for i, a in sup] for sup, stride in zip(supports, reversed(strides))]
    form = {}
    for combo in itertools.product(*scaled):
        off, coeff = 0, 1
        for o, a in combo:
            off += o
            coeff *= a
        form[off] = form.get(off, 0) + coeff
    return form


def _term_rows(dims: Sequence[int], m: int, terms) -> list[dict[int, int]]:
    """The m integer rows, one per output coordinate c, of Σ sign·action(f(args)) over the (sign, action, args) terms.

    f is stored flat as in `_expand`, args are the integer supports of the arguments and action[c] lists
    the (c_in, weight) pairs that row c takes from coordinate c_in of f(args); zero entries are dropped.
    """
    rows = [{} for _ in range(m)]
    for sign, action, args in terms:
        form = _expand(dims, m, args).items()
        for row, mix in zip(rows, action):
            for c_in, s in mix:
                s *= sign
                for off, coeff in form:
                    key = off + c_in
                    row[key] = row.get(key, 0) + s * coeff
    return [{k: v for k, v in row.items() if v} for row in rows]


def _twist_rows(twists: Sequence[Matrix], out: Matrix):
    """Yield (t, c, row): the integer row of out(f(e_t)) − f(twists[0] e_t0, twists[1] e_t1, ...) = 0 at coordinate c.

    Rows are sparse over the flat layout of the multilinear maps f whose axis a
    has length twists[a].nrows and whose values lie in the space of out, by t in
    lexicographic order and then by c; zero rows are skipped.  In integers
    d_out·out and d_a·twists[a], the out side is scaled by the product of the
    d_a and the twisted side by d_out, so each row is a positive multiple of
    its rational form.
    """
    dims, m = [twist.nrows for twist in twists], out.nrows
    d_out, out_rows = _integer_columns(out.transpose())
    ints = [_integer_columns(twist) for twist in twists]
    scale, ident = prod(d for d, _ in ints), [[(c, 1)] for c in range(m)]
    for t in itertools.product(*map(range, dims)):
        units, twisted = [[(i, 1)] for i in t], [cols[i] for i, (_, cols) in zip(t, ints)]
        for c, row in enumerate(_term_rows(dims, m, ((scale, out_rows, units), (-d_out, ident, twisted)))):
            if row:
                yield t, c, row


def _first_witnesses(hits) -> dict:
    """The first witness per name, in lexicographic order, of the (name, witness) pairs in hits; None is no failure."""
    found = {}
    for name, witness in filter(None, hits):
        found[name] = min(found.get(name, witness), witness)
    return found


def _intertwining_witness(flat: Sequence, twists: Sequence[Matrix], out: Matrix, classify) -> dict:
    """The first witness per name that classify reads off the rows of out(f(e_t)) = f(twists[0] e_t0, twists[1] e_t1, ...).

    The multilinear map f is stored flat, in the layout of `_twist_rows`, and
    is scaled to integers; classify(t, c) is asked of each basis tuple t and
    output coordinate c whose row does not vanish on f, and returns a
    (name, witness) pair, or None for no failure.
    """
    d = lcm(*(x.denominator for x in flat))
    data = [x.numerator * (d // x.denominator) for x in flat]
    return _first_witnesses(
        classify(t, c) for t, c, row in _twist_rows(twists, out) if sum(v * data[k] for k, v in row.items())
    )


def _walk(alg: BiHomAlgebra, rows, laws) -> dict:
    """The first witness per name, in lexicographic order, that rows and laws read off the checks of alg.

    rows(twist, t, c) is asked, twist "alpha" then "beta", of each basis pair t and output
    coordinate c where the twist is not multiplicative; laws(right, x, y, z, val) of each
    left-law value (mu ⋄ mu)(e_x, e_y, e_z) with x ≤ y, then of each value of the left law
    of Aᵒᵖ, minus the right law at (z, x, y), as integer vectors over the squared table
    denominator.  Each returns a (name, witness) pair, or None for no failure.  Both laws
    read one build of five tables: b1[x][y] = mu(βe_x, αe_y), b2[y][z] = mu(αe_y, e_z),
    a1[p][z] = mu(e_p, βe_z), a2[x][q] = mu(αβe_x, e_q) and c[q][x] = mu(e_q, βαe_x).  Those
    of Aᵒᵖ are b2ᵀ, cᵀ (outer) and b1ᵀ, a1ᵀ (inner), ᵀ swapping the two basis indices.
    """
    flat = [x for row in alg.mu for cell in row for x in cell]
    twisted = [
        _intertwining_witness(flat, (twist, twist), twist, lambda t, c, name=name: rows(name, t, c)).items()
        for name, twist in (("alpha", alg.alpha), ("beta", alg.beta))
    ]
    pairs = (*_diamond_pairs(alg.alpha, alg.beta), (None, alg.beta * alg.alpha))
    _, (b1, b2, a1, a2, c) = _common_denominator([transport(alg.mu, None, l, r) for l, r in pairs])
    b1t, b2t, a1t, ct = (list(zip(*table)) for table in (b1, b2, a1, c))
    sides = ((False, (a1, a2), (b1, b2)), (True, (b2t, ct), (b1t, a1t)))
    values = (laws(right, *value) for right, outer, inner in sides for value in _pairing(alg.dim, outer, inner))
    return _first_witnesses(itertools.chain(*twisted, values))


def _sectors(n: int):
    """(rows, laws): the classifiers of `_walk` naming every failure of an algebra on A⊕_θV, A spanned by e_0 ... e_(n−1).

    At inputs in A: an A-output by the algebra's own names, a V-output by the θ key "alpha", "beta",
    "left" or "right" (a law value failing in both parts by its V-part), each witness in its law's order.
    One input in V: phi_left at (p,) from (e_p, v), phi_right at (q,) from (v, e_q) (psi_* for β), the squares
    at (x, y) from x ≤ y < n ≤ z, the exchanges at (x, z) from x < n ≤ y, z < n.  Two: nothing, as V·V = 0.
    """

    def rows(twist, t, c):
        if max(t) < n:
            return (twist if c >= n else f"{twist}_multiplicative"), t
        return f"{'psi' if twist == 'beta' else 'phi'}_{'left' if t[0] < n else 'right'}", (min(t),)

    def laws(right, x, y, z, val):
        if x >= n or not any(val):  # the cheap index test first
            return None
        side, other = ("right", "left") if right else ("left", "right")
        if y < n <= z:
            return f"{side}_square", (x, y)
        if z < n <= y:
            return f"{other}_exchange", (x, z)
        return (side if any(val[n:]) else f"{side}_alternative"), ((z, x, y) if right else (x, y, z))

    return rows, laws


def _reported(report_type, found: dict):
    """The report with a flag per field and the witnesses that found holds, None meaning no failure."""
    names = report_type.__slots__[:-1]
    witnesses = {name: found[name] for name in names if found.get(name) is not None}
    return report_type(*(name not in witnesses for name in names), witnesses)


def validate(alg: BiHomAlgebra) -> AlgebraReport:
    """Check commuting twists, multiplicativity, and both alternative identities.

    Each witness is the first failing basis tuple in lexicographic order: (i, j, k)
    with i ≤ j for the left law and with j ≤ k for the right law.
    """
    found = {"commuting": None if alg.alpha.commutes_with(alg.beta) else (), **_walk(alg, *_sectors(alg.dim))}
    return _reported(AlgebraReport, found)


def is_morphism(m: Matrix, a: BiHomAlgebra, b: BiHomAlgebra) -> bool:
    """True iff the b.dim × a.dim matrix m carries the product and both twists of a to those of b."""
    if (m.nrows, m.ncols) != (b.dim, a.dim):
        raise InputError("morphism dimensions do not match the algebras")
    if m * a.alpha != b.alpha * m or m * a.beta != b.beta * m:
        return False
    return _same(transport(a.mu, m), transport(b.mu, None, m, m))


def yau_twist(alg: BiHomAlgebra, a2: Matrix, b2: Matrix) -> BiHomAlgebra:
    """Twist the product into mu~(x,y) = mu(a2·x, b2·y) with twists a2∘alpha, b2∘beta.

    The candidate is validated before being returned; a rejection carries the
    full report so callers can see which identity broke.
    """
    if any((m.nrows, m.ncols) != (alg.dim, alg.dim) for m in (a2, b2)):
        raise InputError(f"Yau twists must be {alg.dim}x{alg.dim} matrices")
    d, table = transport(alg.mu, None, a2, b2)
    mu = [[[Fraction(v, d) for v in vec] for vec in row] for row in table]
    candidate = BiHomAlgebra(alg.dim, mu, a2 * alg.alpha, b2 * alg.beta)
    report = validate(candidate)
    if not report.ok:
        failed = list(report.witnesses)
        raise MathCheckError(
            f"twisted product is not a BiHom-alternative algebra (failed: {', '.join(failed)})",
            condition=failed[0] if failed else None,
            witness=report.witnesses,
            report=report,
        )
    return candidate
