"""Independent brute-force oracles for the algebra, representation, cohomology and derivation tests.

Everything here re-derives results from first principles with deliberately
different machinery (dense symbolic assembly over unknown coefficients and
plain dense row reduction), so the library's sparse elimination, restricted
bases and operator evaluation are never reused on the oracle side.
"""

import itertools
from fractions import Fraction
from math import lcm, prod


def action_at(mats, x):
    """Σ_p x_p mats[p]: an action, one matrix per algebra basis vector, at the algebra vector x."""
    from bihomalt.exactnum import Matrix

    acc = [[Fraction(0)] * mats[0].ncols for _ in range(mats[0].nrows)]
    for p, c in enumerate(x):
        if c != 0:
            for row, mrow in zip(acc, mats[p].rows):
                for j, v in enumerate(mrow):
                    if v != 0:
                        row[j] += c * v
    return Matrix(acc)


def evaluate(cochain, *args):
    """The multilinear extension of a cochain to coordinate vectors, one basis tuple at a time."""
    supports = [[(i, c) for i, c in enumerate(a) if c != 0] for a in args]
    acc = [Fraction(0)] * cochain.mod_dim
    for combo in itertools.product(*supports):
        coeff = prod(c for _, c in combo)
        acc = [s + coeff * v for s, v in zip(acc, cochain.value(*(i for i, _ in combo)))]
    return tuple(acc)


def from_function(degree, alg_dim, mod_dim, fn):
    """The cochain whose value at each basis index tuple is fn(*index), tabulated in the flat layout."""
    from bihomalt.cohomology import Cochain

    data = [x for idx in itertools.product(range(alg_dim), repeat=degree) for x in fn(*idx)]
    return Cochain(degree, alg_dim, mod_dim, data)


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
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    def at(i, j, k):
        total = [Fraction(0)] * n
        for x, y in ((i, j), (j, i)):
            for sign, val in (
                (1, evaluate(a, evaluate(b, bcols[x], acols[y]), bcols[k])),
                (-1, evaluate(a, abcols[x], evaluate(b, acols[y], units[k]))),
            ):
                for c in range(n):
                    total[c] += sign * val[c]
        return tuple(total)

    return from_function(3, n, n, at)


def naive_alternative_witnesses(alg):
    """(left, right): the first failing basis triple of each alternative law, or None.

    Point by point through the associator as(x, y, z) = (x·y)·βz − αx·(y·z):
    left polarizes as(βx, αy, z) over x ↔ y, scanned by (i ≤ j, k); right
    polarizes as(x, βy, αz) over y ↔ z, scanned by (i, j ≤ k).
    """
    from bihomalt.algebra import associator

    n = alg.dim
    bcols = [alg.beta.column(i) for i in range(n)]
    acols = [alg.alpha.column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    def first(triples, terms):
        for t in triples:
            u, v = terms(*t)
            if any(a + b for a, b in zip(associator(alg, *u), associator(alg, *v))):
                return t
        return None

    left = first(
        ((i, j, k) for i in range(n) for j in range(i, n) for k in range(n)),
        lambda i, j, k: ((bcols[i], acols[j], units[k]), (bcols[j], acols[i], units[k])),
    )
    right = first(
        ((i, j, k) for i in range(n) for j in range(n) for k in range(j, n)),
        lambda i, j, k: ((units[i], bcols[j], acols[k]), (units[i], bcols[k], acols[j])),
    )
    return left, right


def naive_gauge(defm, f, level, order):
    """The gauge conjugation d'_t = chi_t^{-1} ∘ d_t ∘ (chi_t ⊗ chi_t), one piece at a time.

    chi_t = id − t^level f and chi_t^{-1} = Σ_i f^i t^{i·level}; every piece
    inv(d_term(chi_left e_i, chi_right e_j)) is tabulated point by point.
    """
    from bihomalt.cohomology import Cochain
    from bihomalt.deformation import TruncatedDeformation
    from bihomalt.exactnum import Matrix

    n = defm.alg.dim
    padded = defm.padded(max(defm.order, order))
    chi = {0: Matrix.identity(n), level: f.scale(-1)}
    chi_inv, power, i = {}, Matrix.identity(n), 0
    while i * level <= order:
        chi_inv[i * level] = power
        power, i = power * f, i + 1
    new_terms = []
    for k in range(1, order + 1):
        acc = [Fraction(0)] * (n * n * n)
        for inv_ord, inv_mat in chi_inv.items():
            for term_ord in range(0, k - inv_ord + 1):
                term = padded.term(term_ord)
                for left_ord, chi_left in chi.items():
                    chi_right = chi.get(k - inv_ord - term_ord - left_ord)
                    if chi_right is None:
                        continue
                    piece = from_function(
                        2,
                        n,
                        n,
                        lambda i_, j_: inv_mat.apply(
                            evaluate(term, chi_left.column(i_), chi_right.column(j_))
                        ),
                    )
                    acc = [x + y for x, y in zip(acc, piece.data)]
        new_terms.append(Cochain(2, n, n, acc))
    return TruncatedDeformation(defm.alg, new_terms)


def naive_right_cocycle_residual(alg, rep, theta):
    """The eight-term right condition on theta, point by point, symmetrized in (y, z)."""
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]

    def at(i, j, k):
        acc = [Fraction(0)] * rep.mod_dim
        for y, z in ((j, k), (k, j)):
            pieces = (
                (1, evaluate(theta, alg.product(units[i], bcols[y]), abcols[z])),
                (1, action_at(rep.r, abcols[z]).apply(evaluate(theta, units[i], bcols[y]))),
                (-1, evaluate(theta, acols[i], alg.product(bcols[y], acols[z]))),
                (-1, action_at(rep.l, acols[i]).apply(evaluate(theta, bcols[y], acols[z]))),
            )
            for sign, val in pieces:
                for c in range(rep.mod_dim):
                    acc[c] += sign * val[c]
        return tuple(acc)

    return from_function(3, n, rep.mod_dim, at)


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
        return matrix_apply_symbolic(action_at(rep.l, vec).rows, sv)

    def right(vec, sv):
        return matrix_apply_symbolic(action_at(rep.r, vec).rows, sv)

    if degree == 1:
        for i in range(n):
            for j in range(n):
                expr = (
                    left(unit(i), model.symbolic_value(unit(j)))
                    + right(unit(j), model.symbolic_value(unit(i)))
                    - model.symbolic_value(alg.mu[i][j])
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


def naive_representation_report(alg, rep):
    """The representation axioms checked point by point with rational matrices, in the as_dict layout.

    Each action is formed at a vector through action_at and the axioms
    are compared as matrix products; witnesses are the first failing index in
    lexicographic order ((i,) for an intertwining relation, (i, j) with i ≤ j
    for the square axioms, any (i, j) for the exchange axioms).
    """
    n = alg.dim
    acols = [alg.alpha.column(i) for i in range(n)]
    bcols = [alg.beta.column(i) for i in range(n)]
    abcols = [(alg.alpha * alg.beta).column(i) for i in range(n)]
    bacols = [(alg.beta * alg.alpha).column(i) for i in range(n)]
    basis = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]
    phipsi, psiphi = rep.phi * rep.psi, rep.psi * rep.phi

    def left(x):
        return action_at(rep.l, x)

    def right(x):
        return action_at(rep.r, x)

    def first(pairs, fails):
        return next((list(p) for p in pairs if fails(*p)), None)

    units = [(i,) for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    every = [(i, j) for i in range(n) for j in range(n)]

    def left_square(i, j):
        return left(alg.product(bcols[i], acols[j])) * rep.psi - left(abcols[i]) * left(acols[j])

    def right_square(i, j):
        return right(alg.product(bcols[i], acols[j])) * rep.phi - right(bacols[i]) * right(bcols[j])

    found = {
        "commuting": None if rep.phi * rep.psi == rep.psi * rep.phi else [],
        "phi_left": first(units, lambda i: rep.phi * rep.l[i] != left(acols[i]) * rep.phi),
        "phi_right": first(units, lambda i: rep.phi * rep.r[i] != right(acols[i]) * rep.phi),
        "psi_left": first(units, lambda i: rep.psi * rep.l[i] != left(bcols[i]) * rep.psi),
        "psi_right": first(units, lambda i: rep.psi * rep.r[i] != right(bcols[i]) * rep.psi),
        # l(beta(x)·alpha(x))psi = l(alpha beta(x)) l(alpha(x)), polarized over pairs
        "left_square": first(upper, lambda i, j: not (left_square(i, j) + left_square(j, i)).is_zero()),
        # r(beta(x)·alpha(x))phi = r(beta alpha(x)) r(beta(x)), polarized over pairs
        "right_square": first(upper, lambda i, j: not (right_square(i, j) + right_square(j, i)).is_zero()),
        # r(beta(y)) l(beta(x)) phi − l(alpha beta(x)) r(y) phi = r(alpha(x)·y) phi psi − r(beta(y)) r(alpha(x)) psi
        "right_exchange": first(
            every,
            lambda i, j: right(bcols[j]) * left(bcols[i]) * rep.phi
            - left(abcols[i]) * right(basis[j]) * rep.phi
            != right(alg.product(acols[i], basis[j])) * phipsi
            - right(bcols[j]) * right(acols[i]) * rep.psi,
        ),
        # l(alpha(y)) r(alpha(x)) psi − r(beta alpha(x)) l(y) psi = l(y·beta(x)) psi phi − l(alpha(y)) l(beta(x)) phi
        "left_exchange": first(
            every,
            lambda i, j: left(acols[j]) * right(acols[i]) * rep.psi
            - right(bacols[i]) * left(basis[j]) * rep.psi
            != left(alg.product(basis[j], bcols[i])) * psiphi
            - left(acols[j]) * left(bcols[i]) * rep.phi,
        ),
    }
    report = {name: w is None for name, w in found.items()}
    report["witnesses"] = {name: w for name, w in found.items() if w is not None}
    return report


def naive_module_sectors(alg, rep):
    """The four module axioms as the sectors of the two laws of A⊕V with exactly one input in V.

    Point by point through the associator of semidirect(alg, rep), with the laws
    of naive_alternative_witnesses over every basis triple of A⊕V: the left law
    is left_square when its last input is in V and right_exchange otherwise; the
    right law is right_square when its first input is in V and left_exchange
    otherwise.  Each flag is True when no triple of its sector fails.
    """
    from bihomalt.algebra import associator
    from bihomalt.representation import semidirect

    ext = semidirect(alg, rep)
    n, size = alg.dim, ext.dim
    bcols = [ext.beta.column(i) for i in range(size)]
    acols = [ext.alpha.column(i) for i in range(size)]
    units = [tuple(Fraction(int(p == i)) for p in range(size)) for i in range(size)]

    def fails(u, v):
        return any(a + b for a, b in zip(associator(ext, *u), associator(ext, *v)))

    flags = dict.fromkeys(("left_square", "right_square", "right_exchange", "left_exchange"), True)
    for i, j, k in itertools.product(range(size), repeat=3):
        if sum(t >= n for t in (i, j, k)) != 1:
            continue
        if fails((bcols[i], acols[j], units[k]), (bcols[j], acols[i], units[k])):
            flags["left_square" if k >= n else "right_exchange"] = False
        if fails((units[i], bcols[j], acols[k]), (units[i], bcols[k], acols[j])):
            flags["right_square" if i >= n else "left_exchange"] = False
    return flags


def _naive_commutation_rows(mat, block, n):
    """Rational rows of X·mat − mat·X = 0 for the unknown block X."""
    rows = []
    base = block * n * n
    for i in range(n):
        for j in range(n):
            row = {}
            for p in range(n):
                c = mat.rows[p][j]  # (X·mat)_{ij} term X[i][p] mat[p][j]
                if c:
                    row[base + i * n + p] = row.get(base + i * n + p, Fraction(0)) + c
                c = mat.rows[i][p]  # (mat·X)_{ij} term mat[i][p] X[p][j]
                if c:
                    row[base + p * n + j] = row.get(base + p * n + j, Fraction(0)) - c
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def _naive_product_rule_rows(alg, w, out_block, left_block, right_block, right_sign=1):
    """Rational rows of X_out(e_i e_j) − X_left(e_i)W(e_j) − right_sign·W(e_i)X_right(e_j) = 0.

    The products mu(e_p, W e_j) and mu(W e_i, e_q) are formed point by point.
    """
    n = alg.dim
    units = [tuple(Fraction(int(p == i)) for p in range(n)) for i in range(n)]
    wcols = [w.column(j) for j in range(n)]
    left = [[alg.product(units[p], wcols[j]) for p in range(n)] for j in range(n)]
    right = [[alg.product(wcols[i], units[q]) for q in range(n)] for i in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            for c in range(n):
                row = {}

                def add(key, value):
                    row[key] = row.get(key, Fraction(0)) + value

                if out_block is not None:
                    for k in range(n):
                        if alg.mu[i][j][k]:
                            add(out_block * n * n + c * n + k, alg.mu[i][j][k])
                if left_block is not None:
                    for p in range(n):
                        if left[j][p][c]:
                            add(left_block * n * n + p * n + i, -left[j][p][c])
                if right_block is not None:
                    for q in range(n):
                        if right[i][q][c]:
                            add(right_block * n * n + q * n + j, -right_sign * right[i][q][c])
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


# per kind: blocks and the product rules (out, left, right, right_sign), written out apart from genderiv
NAIVE_OPERATOR_RULES = {
    "U": (1, ()),
    "Der": (1, ((0, 0, 0, 1),)),
    "QDer": (2, ((1, 0, 0, 1),)),
    "GDer": (3, ((2, 0, 1, 1),)),
    "SGDer": (3, ((2, 0, 1, 1), (2, 1, 0, 1))),
    "Centroid": (1, ((0, 0, None, 1), (0, None, 0, 1))),
    "QuasiCentroid": (1, ((None, 0, 0, -1),)),
}


def naive_operator_rows(alg, kind, k, l):
    """(blocks, rows): the rational product-rule rows of a kind, then the commutation rows of each block."""
    blocks, rules = NAIVE_OPERATOR_RULES[kind]
    rows = []
    if rules:
        w = alg.alpha.power(k) * alg.beta.power(l)
        for rule in rules:
            rows += _naive_product_rule_rows(alg, w, *rule)
    for block in range(blocks):
        rows += _naive_commutation_rows(alg.alpha, block, alg.dim) + _naive_commutation_rows(alg.beta, block, alg.dim)
    return blocks, rows


def naive_twist_witness(cochain, twist_in, twist_out):
    """First basis tuple t, in lexicographic order, where twist_out(f(e_t)) ≠ f(twist_in e_t), point by point."""
    n = cochain.alg_dim
    cols = [twist_in.column(i) for i in range(n)]
    for idx in itertools.product(range(n), repeat=cochain.degree):
        if twist_out.apply(cochain.value(*idx)) != evaluate(cochain, *[cols[i] for i in idx]):
            return idx
    return None


CERTIFICATE_PRIME = 2**31 - 1


def rank_mod_p(rows, p=CERTIFICATE_PRIME):
    """Rank over F_p of sparse rational rows {column: value}, each cleared of its denominators first.

    An integer matrix has no larger rank modulo p than over Q, so this is a lower bound for the rational rank.
    """
    pivots = {}  # leading column -> stored row, 1 there
    for row in rows:
        scale = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (scale // v.denominator) % p for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            stored = pivots.get(lead)
            if stored is None:
                inverse = pow(row[lead], -1, p)
                pivots[lead] = {c: v * inverse % p for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in stored.items():
                x = (row.get(c, 0) - factor * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def certified_rank(rows, kernel, ncols, p=CERTIFICATE_PRIME):
    """The rank of the sparse rows {column: value} on ncols columns, proven, or None when the certificate fails.

    The kernel vectors {column: value} must be in kernel form (each is 1 at a coordinate of its own where
    every other vector is 0, so they are independent), and rows·kernel = 0 must hold exactly: then
    rank ≤ ncols − len(kernel).  The rank modulo p bounds it from below; the two bounds must meet.
    """
    by_coord = {}  # coordinate -> {kernel vector: entry}
    for k, vec in enumerate(kernel):
        for c, v in vec.items():
            if v:
                by_coord.setdefault(c, {})[k] = v
    own = {next(iter(at)) for at in by_coord.values() if len(at) == 1 and next(iter(at.values())) == 1}
    if len(own) != len(kernel):
        return None
    for row in rows:
        acc = {}
        for c, x in row.items():
            for k, v in by_coord.get(c, {}).items():
                acc[k] = acc.get(k, 0) + x * v
        if any(acc.values()):
            return None
    rank = rank_mod_p(rows, p)
    return rank if rank + len(kernel) == ncols else None
