"""Independent brute-force oracles for the cohomology and derivation tests.

Everything here re-derives results from first principles with deliberately
different machinery (dense symbolic assembly over unknown coefficients and
plain dense row reduction), so the library's sparse elimination, restricted
bases and operator evaluation are never reused on the oracle side.
"""

import itertools
from fractions import Fraction


def dense_rref(rows, ncols):
    """Reduced row echelon form of a dense rational matrix: (non-zero rows, pivot columns).

    Plain Gauss-Jordan on Fractions, pivoting on the first non-zero entry of each column.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def dense_rref_rank(rows):
    """(rank, pivot columns) of a dense rational matrix."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0, []
    rref, pivots = dense_rref(rows, len(rows[0]))
    return len(rref), pivots


def dense_kernel_basis(rows, ncols):
    """The kernel basis read off the RREF: one vector per free column, 1 there."""
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(rref, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def dense_solve(rows, b, ncols):
    """The solution of rows·x = b with free variables 0, or None when inconsistent."""
    rref, pivots = dense_rref([list(r) + [e] for r, e in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, p in zip(rref, pivots):
        sol[p] = row[ncols]
    return tuple(sol)


def greedy_independent(vectors):
    """Indices i where vectors[i] is outside the span of vectors[:i]."""
    kept, rank = [], 0
    for i in range(len(vectors)):
        r = dense_rref_rank(vectors[: i + 1])[0]
        if r > rank:
            kept.append(i)
            rank = r
    return kept


def dense_inverse(rows):
    """Inverse of a square rational matrix by Gauss-Jordan on [M | I], or None when singular."""
    n = len(rows)
    rref, pivots = dense_rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rref]


def naive_diamond(alg, a, b):
    """The diamond pairing evaluated point by point on basis triples.

    a ⋄ b (x,y,z) = a(b(βx,αy), βz) − a(αβx, b(αy,z))
                  + a(b(βy,αx), βz) − a(αβy, b(αx,z))
    """
    from bihomalt.cohomology import Cochain

    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    def at(i, j, k):
        total = [Fraction(0)] * n
        for x, y in ((i, j), (j, i)):
            for sign, val in (
                (1, a.evaluate(b.evaluate(bcols[x], acols[y]), bcols[k])),
                (-1, a.evaluate(abcols[x], b.evaluate(acols[y], units[k]))),
            ):
                for c in range(n):
                    total[c] += sign * val[c]
        return tuple(total)

    return Cochain.from_function(3, n, n, at)


def dense_nullity(rows, ncols):
    if not rows:
        return ncols
    rank, _ = dense_rref_rank(rows)
    return ncols - rank


class SymbolicVector:
    """A vector of linear forms in the unknown cochain coefficients."""

    def __init__(self, forms):
        self.forms = forms  # list of dict {unknown index: coefficient}

    def __add__(self, other):
        out = []
        for a, b in zip(self.forms, other.forms):
            d = dict(a)
            for k, v in b.items():
                d[k] = d.get(k, Fraction(0)) + v
            out.append({k: v for k, v in d.items() if v != 0})
        return SymbolicVector(out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return SymbolicVector([{k: c * v for k, v in d.items()} for d in self.forms])


def symbolic_zero(m):
    return SymbolicVector([{} for _ in range(m)])


def matrix_apply_symbolic(matrix_rows, sv: SymbolicVector) -> SymbolicVector:
    out = []
    for row in matrix_rows:
        d = {}
        for coeff, form in zip(row, sv.forms):
            if coeff == 0:
                continue
            for k, v in form.items():
                d[k] = d.get(k, Fraction(0)) + coeff * v
        out.append({k: v for k, v in d.items() if v != 0})
    return SymbolicVector(out)


class NaiveCochainModel:
    """All n-linear maps with symbolic coefficients f[(i1..in, out)] = unknown."""

    def __init__(self, alg, rep, degree):
        self.alg = alg
        self.rep = rep
        self.degree = degree
        self.n = alg.dim
        self.m = rep.mod_dim
        self.unknowns = {}
        for pos, idx in enumerate(itertools.product(range(self.n), repeat=degree)):
            for c in range(self.m):
                self.unknowns[idx + (c,)] = pos * self.m + c
        self.count = len(self.unknowns)

    def symbolic_value(self, *vecs) -> SymbolicVector:
        """f(v1,...,vn) as linear forms in the unknowns, by full expansion."""
        forms = [dict() for _ in range(self.m)]
        for idx in itertools.product(range(self.n), repeat=self.degree):
            coeff = Fraction(1)
            for v, i in zip(vecs, idx):
                coeff *= v[i]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            for c in range(self.m):
                key = self.unknowns[idx + (c,)]
                forms[c][key] = forms[c].get(key, Fraction(0)) + coeff
        return SymbolicVector([{k: v for k, v in d.items() if v != 0} for d in forms])

    def compatibility_rows(self):
        """Rows of the twist-compatibility constraints over the unconstrained space."""
        rows = []
        n, m = self.n, self.m
        unit = lambda i: tuple(Fraction(int(p == i)) for p in range(n))
        for twist, mat in ((self.rep.phi, self.alg.alpha), (self.rep.psi, self.alg.beta)):
            cols = [mat.column(i) for i in range(n)]
            for idx in itertools.product(range(n), repeat=self.degree):
                lhs = matrix_apply_symbolic(twist.rows, self.symbolic_value(*[unit(i) for i in idx]))
                rhs = self.symbolic_value(*[cols[i] for i in idx])
                rows.extend(self.forms_to_rows(lhs - rhs))
        return rows

    def forms_to_rows(self, sv: SymbolicVector):
        rows = []
        for form in sv.forms:
            if form:
                row = [Fraction(0)] * self.count
                for k, v in form.items():
                    row[k] = v
                rows.append(row)
        return rows


def naive_delta_rows(alg, rep, degree):
    """Equations 'delta f = 0' over the unconstrained multilinear space."""
    model = NaiveCochainModel(alg, rep, degree)
    n, m = model.n, model.m
    unit = lambda i: tuple(Fraction(int(p == i)) for p in range(n))
    acol = [alg.alpha.column(i) for i in range(n)]
    bcol = [alg.beta.column(i) for i in range(n)]
    abcol = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    rows = []

    def left(vec, sv):
        return matrix_apply_symbolic(rep.left_at(vec).rows, sv)

    def right(vec, sv):
        return matrix_apply_symbolic(rep.right_at(vec).rows, sv)

    if degree == 1:
        for i in range(n):
            for j in range(n):
                expr = (
                    left(unit(i), model.symbolic_value(unit(j)))
                    + right(unit(j), model.symbolic_value(unit(i)))
                    - model.symbolic_value(alg.basis_product(i, j))
                )
                rows.extend(model.forms_to_rows(expr))
    elif degree == 2:
        for i, j, k in itertools.product(range(n), repeat=3):
            expr = symbolic_zero(m)
            for x, y in ((i, j), (j, i)):
                expr = expr + right(bcol[k], model.symbolic_value(bcol[x], acol[y]))
                expr = expr - left(abcol[x], model.symbolic_value(acol[y], unit(k)))
                expr = expr + model.symbolic_value(alg.product(bcol[x], acol[y]), bcol[k])
                expr = expr - model.symbolic_value(abcol[x], alg.product(acol[y], unit(k)))
            rows.extend(model.forms_to_rows(expr))
    elif degree == 3:
        for x1, x2, x3, x4 in itertools.product(range(n), repeat=4):
            a, b, e = acol, bcol, unit
            expr = left(a[x1], model.symbolic_value(b[x2], b[x3], b[x4]))
            expr = expr - left(a[x1], model.symbolic_value(b[x3], b[x2], b[x4]))
            expr = expr + right(b[x4], model.symbolic_value(a[x1], a[x2], a[x3]))
            expr = expr - right(b[x4], model.symbolic_value(a[x2], a[x1], a[x3]))
            expr = expr - model.symbolic_value(alg.product(a[x1], b[x2]), e(x3), e(x4))
            expr = expr - model.symbolic_value(alg.product(a[x2], b[x3]), e(x1), e(x4))
            expr = expr + model.symbolic_value(e(x1), alg.product(a[x2], b[x3]), e(x4))
            expr = expr + model.symbolic_value(e(x3), alg.product(a[x1], b[x2]), e(x4))
            expr = expr - model.symbolic_value(e(x1), e(x2), alg.product(a[x3], b[x4]))
            expr = expr + model.symbolic_value(e(x2), e(x1), alg.product(a[x3], b[x4]))
            rows.extend(model.forms_to_rows(expr))
    else:
        raise ValueError(degree)
    return model, rows


def naive_cocycle_dim(alg, rep, degree):
    """dim Z^degree by stacking 'delta = 0' with the compatibility system."""
    model, rows = naive_delta_rows(alg, rep, degree)
    rows.extend(model.compatibility_rows())
    return dense_nullity(rows, model.count)


def naive_cochain_dim(alg, rep, degree):
    model = NaiveCochainModel(alg, rep, degree)
    return dense_nullity(model.compatibility_rows(), model.count)


def naive_complex_dims(alg, rep, degree):
    """(dim_C, dim_Z, dim_B, dim_H) computed entirely on the naive path."""
    dim_c = naive_cochain_dim(alg, rep, degree)
    dim_z = naive_cocycle_dim(alg, rep, degree)
    dim_lower = naive_cochain_dim(alg, rep, degree - 1)
    if degree - 1 >= 1:
        model, rows = naive_delta_rows(alg, rep, degree - 1)
        rows.extend(model.compatibility_rows())
        ker_dim = dense_nullity(rows, model.count)
        dim_b = dim_lower - ker_dim
    else:
        dim_b = 0
    return dim_c, dim_z, dim_b, dim_z - dim_b
