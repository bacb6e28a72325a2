"""Exact rational scalars, dense matrices and the linear-algebra kernel.

Scalars are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator), so every operation in the package is exact; no
floating point appears anywhere.  Elimination runs on a sparse row
representation because the constraint systems assembled by the cohomology
and derivation modules are large but very sparse, and fraction-free: rows
are kept as primitive integer vectors and rationals are built only when a
kernel basis, a solution or an inverse is read out.  Every solution and
inverse is read off one factor, `_factor`: the columns are eliminated once,
and each target is then reduced against the stored rows.  A `Subspace`
keeps its basis in the same sparse form, as exact columns {coordinate:
Fraction} read straight off the eliminator's kernel; its dense `basis`
tuples are a view built on request, for callers outside the elimination
paths.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError, PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(value) -> Fraction:
    """Parse a rational literal: an int, or a string 'p' / 'p/q' with q > 0."""
    if isinstance(value, bool):
        raise InputError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value)
        if not match:
            raise InputError(f"not a rational literal: {value!r}")
        try:
            # an integer literal skips the string parser of Fraction
            return Fraction(value) if match.group(1) else Fraction(int(value))
        except ValueError as exc:  # beyond the interpreter's integer-string digit limit
            raise InputError(f"rational literal of {len(value)} characters is too long: {exc}") from exc
    raise InputError(f"not a rational literal: {value!r}")


def format_rational(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # beyond the interpreter's integer-string digit limit
        digits = max(_digit_count(value.numerator), _digit_count(value.denominator))
        raise PreconditionError(
            f"a result has an integer of {digits} digits, beyond the limit of"
            f" {sys.get_int_max_str_digits()} digits for integer-string conversion"
        ) from exc


def _digit_count(n: int) -> int:
    """The number of decimal digits of |n|, without converting it to a string."""
    n = abs(n)
    guess = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2): exact or one short
    return guess + (n >= 10**guess)


def vector(entries) -> tuple[Fraction, ...]:
    # Fractions are immutable, so entries that already are one are kept as they are; any other entry is
    # read as a file scalar is, so a float or a bool is refused, and so is a string or a scalar as the vector
    if isinstance(entries, str) or not hasattr(entries, "__iter__"):
        raise InputError(f"expected a vector of rationals, got {type(entries).__name__} {entries!r:.40}")
    return tuple(e if type(e) is Fraction else parse_rational(e) for e in entries)


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def support(u) -> list[tuple[int, Fraction]]:
    """Nonzero coordinates of a vector, for zero-skipping contractions."""
    # the shared ZERO (every zero of a kernel basis vector) is passed over without a call into Fraction
    return [(i, a) for i, a in enumerate(u) if a is not ZERO and a]


class _Immutable:
    """A value class: its slots are set once, through `_set`, and never assigned again.

    Two values are equal when they have the same class and equal slots, and a
    value hashes as the tuple of its slots.  A value prints as
    Name(slot=value, ...) unless its class prints a shorter form.
    """

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._slot_values() == other._slot_values()

    def __hash__(self):
        return hash(self._slot_values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    def __setstate__(self, state):
        # copy and pickle restore a value from the state of the default reduce, (None, {slot: value})
        self._set(**state[1])


class _Record(_Immutable):
    """A result record: its fields are its `__slots__`, given by position or by name, or left to `_defaults`."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        fields = self.__slots__
        given = {**self._defaults, **dict(zip(fields, values)), **named}
        if len(values) > len(fields) or given.keys() != set(fields) or not named.keys().isdisjoint(fields[: len(values)]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self._set(**given)

    def as_dict(self) -> dict:
        """The fields in order, each tuple as a list and each witness map as {str(key): list}."""
        return {name: _plain(getattr(self, name)) for name in self.__slots__}


def _plain(value):
    if isinstance(value, (dict, MappingProxyType)):
        return {str(k): list(w) for k, w in value.items()}
    return list(value) if isinstance(value, tuple) else value


class _Report(_Record):
    """Flags, then a witness map holding a witness tuple for each failed flag."""

    __slots__ = ()
    _defaults = {"witnesses": MappingProxyType({})}  # read-only, so no report can change another's

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) for name in self.__slots__[:-1])

    def __reduce__(self):
        # the default witness map, a mappingproxy, does not pickle; a copy holds an equal dict
        return type(self), (*self._slot_values()[:-1], dict(self.witnesses))


class Matrix(_Immutable):
    """Immutable dense matrix of Fractions acting on column vectors."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(vector(row) for row in rows)
        if not rows:
            raise InputError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InputError("ragged matrix rows")
        self._set(rows=rows, nrows=len(rows), ncols=width)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def diagonal(entries) -> "Matrix":
        entries = vector(entries)
        n = len(entries)
        return Matrix([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(-a for a in row) for row in self.rows)

    def scale(self, c) -> "Matrix":
        c = parse_rational(c)
        return Matrix(tuple(c * a for a in row) for row in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # in integers over one denominator per factor, so each entry is one Fraction, built once
        ds, left = _integer_columns(self)
        do, right = _integer_columns(other)
        cols = []
        for col in right:
            acc = [0] * self.nrows
            for k, b in col:
                for i, a in left[k]:
                    acc[i] += a * b
            cols.append(acc)
        d = ds * do
        return Matrix([Fraction(col[i], d) if col[i] else ZERO for col in cols] for i in range(self.nrows))

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        vec = vector(vec)
        if len(vec) != self.ncols:
            raise InputError(f"vector length {len(vec)} does not match {self.nrows}x{self.ncols}")
        # the columns of self at the support of vec times its non-zero entries; a zero vector goes to zero
        cols = support(vec)
        if not cols:
            return (ZERO,) * self.nrows
        at, entries = zip(*cols)
        return (Matrix([row[j] for j in at] for row in self.rows) * Matrix(zip(entries))).column(0)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def commutes_with(self, other: "Matrix") -> bool:
        return self * other == other * self

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise PreconditionError("only square matrices can be inverted")
        # column i of the inverse holds the coordinates of e_i in the columns of M,
        # and M is invertible iff every e_i lies in their span
        read = _factor(_sparse_rows(zip(*self.rows)), self.nrows)
        cols = [read({i: ONE}) for i in range(self.nrows)]
        if None in cols:
            raise PreconditionError("matrix is singular")
        return Matrix(zip(*cols))

    def power(self, k: int) -> "Matrix":
        """Integer power; negative exponents require invertibility."""
        if not self.is_square():
            raise PreconditionError("only square matrices have powers")
        base, k = (self, k) if k >= 0 else (self.inverse(), -k)
        result = Matrix.identity(self.nrows)
        # by repeated squaring: one square per bit of k, one product per set bit
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError(f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")


def _sparse_rows(matrix_rows) -> list[dict[int, Fraction]]:
    return [{j: a for j, a in enumerate(row) if a} for row in matrix_rows]


def _integer_row(row: dict) -> tuple[dict[int, int], int]:
    """(d·row, d) for d the lcm of the denominators.

    Entries may be ints or Fractions; zero entries are dropped.
    """
    items = [(c, v) for c, v in row.items() if v]
    d = 1
    for _, v in items:
        if v.denominator != 1:
            d = lcm(d, v.denominator)
    return {c: v.numerator * (d // v.denominator) for c, v in items}, d


def _integer_columns(m: Matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """(d, columns): column j of d·m as its non-zero (row, integer) pairs, d the lcm of the denominators."""
    d = lcm(*(x.denominator for row in m.rows for x in row))
    return d, [[(p, x.numerator * (d // x.denominator)) for p, x in enumerate(col) if x] for col in zip(*m.rows)]


class _Eliminator:
    """Incremental sparse row reduction on primitive integer rows (fraction-free).

    Each stored row has its pivot at its minimal column, a positive pivot entry,
    integer entries whose gcd is 1, and zeros at every other pivot column.
    Divided by its pivot entry it is a row of the reduced row echelon form of
    the rows stored so far, which is unique, so every read-out equals that of
    exact rational elimination.  Rationals are built only at read-out.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def _reduce(self, row: dict[int, int]) -> tuple[dict[int, int], int]:
        """(s·residual, s) on integers for a positive integer s; row is consumed."""
        pivots = self.pivot_rows
        # stored rows vanish at each other's pivots, so the pivot columns the
        # residual must clear are those of the row as given, at their given entries
        hits = [(c, v) for c, v in row.items() if c in pivots]
        if not hits:
            return row, 1
        scale = 1
        for c, _ in hits:
            scale = lcm(scale, pivots[c][c])
        if scale != 1:
            row = {c: scale * v for c, v in row.items()}
        for c, v in hits:
            prow = pivots[c]
            f = v * (scale // prow[c])
            for col, pv in prow.items():
                new = row.get(col, 0) - f * pv
                if new:
                    row[col] = new
                else:
                    del row[col]
        return row, scale

    def reduce(self, row: dict) -> dict[int, int]:
        """A positive integer multiple of the residual of row."""
        return self._reduce(_integer_row(row)[0])[0]

    def insert(self, row: dict) -> Optional[int]:
        """Reduce and, if nonzero, store the row; returns its pivot column, or None for a dependent row."""
        row = self.reduce(row)
        return self._store(row) if row else None

    def _store(self, row: dict[int, int]) -> int:
        """Store a non-zero reduced integer row with its pivot at its minimal column; returns the pivot."""
        pivot = min(row)
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        p = row[pivot]
        # keep stored rows fully reduced against the new pivot
        for prow in self.pivot_rows.values():
            f = prow.get(pivot)
            if f is None:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                for c in prow:
                    prow[c] *= a
            for c, v in row.items():
                new = prow.get(c, 0) - b * v
                if new:
                    prow[c] = new
                else:
                    del prow[c]
            g = gcd(*prow.values())
            if g != 1:
                for c in prow:
                    prow[c] //= g
        self.pivot_rows[pivot] = row
        return pivot

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def kernel_columns(self) -> list[dict[int, Fraction]]:
        """The kernel basis as sparse columns, one per free column f: 1 at f, −row[f]/row[p] at each pivot p."""
        free = {j: {j: ONE} for j in range(self.ncols) if j not in self.pivot_rows}
        for p, row in self.pivot_rows.items():
            d = row[p]
            for c, v in row.items():
                if c in free:
                    free[c][p] = Fraction(-v, d)
        return list(free.values())


def _eliminate(rows: Iterable[dict], ncols: int) -> _Eliminator:
    elim = _Eliminator(ncols)
    for row in rows:
        elim.insert(row)
    return elim


def _transpose(indexed: Iterable[tuple[int, dict]]) -> dict[int, dict]:
    """The sparse vectors {i: {j: v}} of the pairs (j, {i: v}): rows of columns, or columns of rows."""
    out = {}
    for j, vec in indexed:
        for i, v in vec.items():
            out.setdefault(i, {})[j] = v
    return out


def _lift(columns: Sequence[dict], coeffs: Sequence, ambient: int) -> list[Fraction]:
    """Σ c_j·columns[j] as a dense vector over the ambient coordinates."""
    acc = [ZERO] * ambient
    for c, col in zip(coeffs, columns):
        if c:
            for i, v in col.items():
                acc[i] += c * v
    return acc


def _independent(columns: Sequence[dict], ncols: int) -> list[int]:
    """Indices of a greedy maximal linearly independent subset of sparse vectors, in order."""
    elim = _Eliminator(ncols)
    return [i for i, col in enumerate(columns) if elim.insert(col) is not None]


def _factor(columns: Sequence[dict], ambient: int) -> Callable[[dict], Optional[tuple[Fraction, ...]]]:
    """Eliminate sparse columns over coordinates below ambient once; returns the read-out of coordinates in them.

    The read-out maps a sparse vector v to x with Σ x_j·columns[j] = v, or to
    None when v lies outside their span.  Column j is eliminated with a tag 1
    at coordinate ambient + j and stored only when it is independent of the
    columns before it, so every stored row's tags write it as a combination of
    the columns.  A dependent column gets coordinate zero: x is the solution
    with every free variable zero.
    """
    elim = _Eliminator(ambient + len(columns))
    for j, col in enumerate(columns):
        row = elim.reduce({**col, ambient + j: ONE})
        if min(row) < ambient:
            elim._store(row)

    def read(v: dict) -> Optional[tuple[Fraction, ...]]:
        row, d = _integer_row(v)
        row, s = elim._reduce(row)
        if any(c < ambient for c in row):
            return None
        # s·d·v less the residual is a sum of stored rows, whose tags carry x with the opposite sign
        return tuple(Fraction(-row[ambient + j], s * d) if ambient + j in row else ZERO for j in range(len(columns)))

    return read


def rank_nullspace(m: Matrix) -> tuple[int, "Subspace"]:
    """Exact rank and a kernel basis; rank + dim(kernel) = ncols."""
    elim = _eliminate(_sparse_rows(m.rows), m.ncols)
    return elim.rank, Subspace._of(m.ncols, elim.kernel_columns())


def nullspace_of_sparse_rows(rows: Iterable[dict[int, Fraction]], ncols: int) -> "Subspace":
    """Kernel of a system given as sparse {column: coefficient} rows."""
    return Subspace._of(ncols, _eliminate(rows, ncols).kernel_columns())


def solve(m: Matrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One particular solution of m·x = b, or None when b is outside the column space."""
    if len(b) != m.nrows:
        raise InputError(f"right-hand side length {len(b)} does not match {m.nrows} rows")
    return _factor(_sparse_rows(zip(*m.rows)), m.nrows)(dict(support(vector(b))))


class Subspace(_Immutable):
    """A subspace of Q^n given by a linearly independent list of basis vectors.

    Each basis vector is stored as a sparse exact column {coordinate: Fraction}
    without its zero entries; `basis` is a dense view of them, built on each
    read.  Bases are not canonical; equality of subspaces is decided by mutual
    containment, never by comparing bases.
    """

    __slots__ = ("ambient_dim", "columns")
    # identity equality: bases are not canonical, so two spaces are equal by containment, and dict columns do not hash
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence]):
        basis = [vector(v) for v in basis]
        if any(len(v) != ambient_dim for v in basis):
            raise InputError("basis vector length does not match ambient dimension")
        columns = _sparse_rows(basis)
        if _eliminate(columns, ambient_dim).rank != len(columns):
            raise InputError("basis vectors are linearly dependent")
        self._set(ambient_dim=ambient_dim, columns=tuple(columns))

    @staticmethod
    def _of(ambient_dim: int, columns: Iterable[dict[int, Fraction]]) -> "Subspace":
        """The span of columns already known to be independent, without a check."""
        space = object.__new__(Subspace)
        space._set(ambient_dim=ambient_dim, columns=tuple(columns))
        return space

    @staticmethod
    def from_spanning(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        """Reduce an arbitrary spanning set to an independent basis."""
        vecs = [vector(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise InputError("vector length does not match ambient dimension")
        cols = _sparse_rows(vecs)
        return Subspace._of(ambient_dim, [cols[i] for i in _independent(cols, ambient_dim)])

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The basis vectors as dense tuples of Fractions."""
        return tuple(tuple(_lift((col,), (ONE,), self.ambient_dim)) for col in self.columns)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def coefficients_of(self, v: Sequence) -> Optional[tuple[Fraction, ...]]:
        """Coordinates of v in this basis, or None when v is outside the span."""
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        return _factor(self.columns, self.ambient_dim)(dict(support(v)))

    def contains(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        elim = _eliminate(self.columns, self.ambient_dim)
        return not any(elim.reduce(col) for col in other.columns)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        cols = self.columns + other.columns
        return Subspace._of(self.ambient_dim, [cols[i] for i in _independent(cols, self.ambient_dim)])

    def intersection(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        # each kernel vector (x, y) of [A | -B] gives Ax = By in the intersection; x ↦ Ax is
        # injective on the kernel, since both bases are independent, so the lifts are a basis
        cols = self.columns + tuple({i: -v for i, v in col.items()} for col in other.columns)
        kernel = _eliminate(_transpose(enumerate(cols)).values(), len(cols)).kernel_columns()
        lifts = (_lift(self.columns, [k.get(j, ZERO) for j in range(self.dim)], self.ambient_dim) for k in kernel)
        return Subspace._of(self.ambient_dim, _sparse_rows(lifts))

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise InputError("ambient dimensions differ")


def subspace_ops(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace, bool]:
    """(sum, intersection, a ⊇ b) in one call."""
    return a.sum(b), a.intersection(b), a.contains(b)
