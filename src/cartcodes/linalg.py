"""Exact dense linear algebra over a finite field.

Plain Gaussian elimination with the first nonzero entry as pivot; exact
arithmetic needs no pivoting heuristics.  This module is the brute-force
oracle layer, so it stays deliberately simple — but because the
cross-validation sweeps call it millions of times, the elimination core
works on raw integer element codes through the arithmetic primitives
every field carries (the row update ``sub_mul``, ``scale``, ``dot``,
``mul``, ``neg`` and ``inv``; see ``Field._make_primitives``).  A
:class:`Matrix` stores those codes too, so the kernels read its rows
directly; field elements appear only where a matrix is built from them or
its entries are read out.  Each kernel has one body for every field: how
a field computes is known to ``field.py`` alone.

Elimination comes in two depths.  ``_echelon_vals`` eliminates forward
only (monic pivots, cleared below) and is all a rank needs: ``rank``,
``is_nonsingular``, ``row_space_contains`` and the Gram route of the LCD
oracle use it.  ``_rref_vals`` adds one back-substitution pass for the
reduced form that ``rref``, ``nullspace`` and ``inverse`` return.  The
Zassenhaus intersection eliminates forward and reduces only the rows that
carry its basis.

Each depth has two paths with the same pivots and rows, chosen once per
call by width.  Below ``_PACKED_MIN_COLS`` columns, or over a field
without packed rows, the per-entry kernels ``_echelon_entries`` and
``_rref_entries`` update one entry at a time.  From that width on, a
prime field's ``packed_echelon`` holds each row as one big integer, so a
row update is one multiply-add on it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatchError, SingularMatrixError
from .field import Field, FieldElement


# Rows at least this wide are eliminated packed, where the field offers it
# (``Field.packed_echelon``); narrower ones entry by entry.  The measured
# crossover on n x 2n matrices: GF(2) breaks even at 32 columns, GF(3) at
# about 28, GF(5) and larger primes by 20.
_PACKED_MIN_COLS = 32


def _echelon_vals(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place row echelon form on code rows; returns pivot cols.

    Pivots are monic and cleared below only; rows past the last pivot end
    zero.  Enough for a rank, and the forward sweep of :func:`_rref_vals`.
    """
    if ncols >= _PACKED_MIN_COLS and field.packed_echelon is not None:
        return field.packed_echelon(rows, ncols, False)
    return _echelon_entries(field, rows, ncols)


def _rref_vals(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place reduced row echelon form on code rows; returns pivot cols."""
    if ncols >= _PACKED_MIN_COLS and field.packed_echelon is not None:
        return field.packed_echelon(rows, ncols, True)
    return _rref_entries(field, rows, ncols)


def _echelon_entries(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """:func:`_echelon_vals` one entry at a time, through ``sub_mul``."""
    inv, sub_mul, scale = field.inv, field.sub_mul, field.scale
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        row = rows[r]
        if row[c] != 1:
            scale(row, inv(row[c]), c)
        tail = row[c + 1 :]
        for other in rows[r + 1 :]:
            factor = other[c]
            if factor:
                other[c] = 0
                sub_mul(other, factor, tail, c + 1)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_entries(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """:func:`_rref_vals` one entry at a time: the echelon form, then one
    back-substitution pass from the last pivot up, so each pivot row is
    already clear of the later pivot columns.
    """
    pivots = _echelon_entries(field, rows, ncols)
    sub_mul = field.sub_mul
    for r in range(len(pivots) - 1, 0, -1):
        c = pivots[r]
        tail = rows[r][c + 1 :]
        for other in rows[:r]:
            factor = other[c]
            if factor:
                other[c] = 0
                sub_mul(other, factor, tail, c + 1)
    return pivots


def _gram_vals(field: Field, rows: list[list[int]]) -> list[list[int]]:
    """rows @ rows^T on integer codes; each entry above the diagonal is
    computed once and mirrored below it."""
    dot = field.dot
    n = len(rows)
    gram = [[0] * n for _ in range(n)]
    for i, r1 in enumerate(rows):
        g_i = gram[i]
        for j in range(i, n):
            g_i[j] = gram[j][i] = dot(r1, rows[j])
    return gram


def _nullspace_vals(field: Field, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis rows (integer codes) of the right kernel; consumes ``rows``."""
    pivots = _rref_vals(field, rows, ncols)
    pivot_set = set(pivots)
    neg = field.neg
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            x = rows[i][fc]
            if x:
                vec[pc] = neg(x)
        basis.append(vec)
    return basis


def _intersection_vals(
    field: Field,
    u_rows: list[list[int]],
    w_rows: list[list[int]],
    ncols: int,
) -> list[list[int]]:
    """Zassenhaus intersection basis on integer codes, in reduced form.

    Forward elimination of [W | 0; U | U]: the rows whose pivot lies in the
    right half carry a basis of the intersection there, and only those
    halves are reduced.  The W rows come first, so their pivots touch the
    left half alone.
    """
    if not u_rows or not w_rows:
        return []
    rows = [row + [0] * ncols for row in w_rows]
    rows += [row + row for row in u_rows]
    pivots = _echelon_vals(field, rows, 2 * ncols)
    basis = [rows[r][ncols:] for r, c in enumerate(pivots) if c >= ncols]
    _rref_vals(field, basis, ncols)
    return basis


class Matrix:
    """An immutable r x c matrix over a field (r = 0 or c = 0 allowed).

    The entries are stored as integer element codes in ``vals``, a tuple of
    row tuples; ``rows`` is the element view, built on each access.
    """

    __slots__ = ("field", "vals", "nrows", "ncols")

    def __init__(
        self,
        field: Field,
        rows: Iterable[Iterable[FieldElement]],
        ncols: int | None = None,
    ):
        vals = tuple(tuple(field._codes_of(row)) for row in rows)
        if vals:
            ncols_actual = len(vals[0])
            if any(len(row) != ncols_actual for row in vals):
                raise ValueError("rows have inconsistent lengths")
            if ncols is not None and ncols != ncols_actual:
                raise ValueError("ncols does not match row length")
            ncols = ncols_actual
        elif ncols is None:
            ncols = 0
        self.field = field
        self.vals = vals
        self.nrows = len(vals)
        self.ncols = ncols

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        get = self.field._get
        return tuple(tuple([get(v) for v in row]) for row in self.vals)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _from_vals(cls, field: Field, vals: Iterable[Iterable[int]], ncols: int) -> "Matrix":
        """From rows of integer codes of ``field``, unchecked."""
        matrix = cls.__new__(cls)
        matrix.field = field
        matrix.vals = tuple(map(tuple, vals))
        matrix.nrows = len(matrix.vals)
        matrix.ncols = ncols
        return matrix

    @classmethod
    def from_ints(
        cls, field: Field, rows: Sequence[Sequence[int]], ncols: int | None = None
    ) -> "Matrix":
        return cls(field, [[field.element(x) for x in row] for row in rows], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._from_vals(field, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._from_vals(field, [(0,) * ncols] * nrows, ncols)

    @classmethod
    def empty(cls, field: Field, ncols: int) -> "Matrix":
        return cls._from_vals(field, (), ncols)

    # -- shape and combination --------------------------------------------------

    def _check_field(self, other: "Matrix", action: str) -> Field:
        field = self.field
        if other.field is not field:
            raise FieldMismatchError(f"cannot {action} matrices over {field} and {other.field}")
        return field

    def transpose(self) -> "Matrix":
        if not self.vals:
            return Matrix._from_vals(self.field, [()] * self.ncols, 0)
        return Matrix._from_vals(self.field, zip(*self.vals), self.nrows)

    def vstack(self, other: "Matrix") -> "Matrix":
        field = self._check_field(other, "stack")
        if other.ncols != self.ncols:
            raise ValueError("column counts differ")
        return Matrix._from_vals(field, self.vals + other.vals, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        field = self._check_field(other, "multiply")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        dot = field.dot
        b_cols = list(zip(*other.vals)) if other.vals else [()] * other.ncols
        out = [[dot(row, col) for col in b_cols] for row in self.vals]
        return Matrix._from_vals(field, out, other.ncols)

    def row_vector_mul(self, vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """vector @ self for a length-nrows vector."""
        if len(vector) != self.nrows:
            raise ValueError("vector length does not match row count")
        field = self.field
        neg, sub_mul, get = field.neg, field.sub_mul, field._get
        out = [0] * self.ncols
        for x, row in zip(field._codes_of(vector), self.vals):
            if x:
                sub_mul(out, neg(x), row, 0)
        return tuple([get(v) for v in out])

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank, and pivot columns."""
        vals = [list(row) for row in self.vals]
        pivots = _rref_vals(self.field, vals, self.ncols)
        return (
            Matrix._from_vals(self.field, vals, self.ncols),
            len(pivots),
            tuple(pivots),
        )

    def rank(self) -> int:
        return len(_echelon_vals(self.field, [list(row) for row in self.vals], self.ncols))

    def nullspace(self) -> "Matrix":
        """Basis rows of {x : self @ x^T = 0}; row count = ncols - rank."""
        basis = _nullspace_vals(self.field, [list(row) for row in self.vals], self.ncols)
        return Matrix._from_vals(self.field, basis, self.ncols)

    def is_nonsingular(self) -> bool:
        if self.nrows != self.ncols:
            raise ValueError("nonsingularity is defined for square matrices")
        return self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        rows = [
            list(vals) + [int(i == j) for j in range(n)]
            for i, vals in enumerate(self.vals)
        ]
        pivots = _rref_vals(self.field, rows, 2 * n)
        # A pivot escaping into the identity block means the left block is
        # rank-deficient ([M | I] itself always has n pivots).
        if len(pivots) < n or (pivots and pivots[-1] >= n):
            rank = sum(1 for pc in pivots if pc < n)
            raise SingularMatrixError(f"matrix of rank {rank} < {n} has no inverse")
        return Matrix._from_vals(self.field, [row[n:] for row in rows], n)

    def det(self) -> FieldElement:
        """Determinant via elimination; diagnostic only — singularity
        decisions elsewhere use rank."""
        if self.nrows != self.ncols:
            raise ValueError("determinant is defined for square matrices")
        field = self.field
        mul, neg, inv, sub_mul = field.mul, field.neg, field.inv, field.sub_mul
        n = self.nrows
        rows = [list(row) for row in self.vals]
        det = 1
        for c in range(n):
            for i in range(c, n):
                if rows[i][c]:
                    break
            else:
                return field.zero
            if i != c:
                rows[c], rows[i] = rows[i], rows[c]
                det = neg(det)
            lead = rows[c][c]
            det = mul(det, lead)
            fac = inv(lead)
            tail = rows[c][c:]
            for i in range(c + 1, n):
                factor = rows[i][c]
                if factor:
                    sub_mul(rows[i], mul(factor, fac), tail, c)
        return field._get(det)

    # -- row-space queries --------------------------------------------------------

    def nonzero_rows(self) -> "Matrix":
        return Matrix._from_vals(self.field, [row for row in self.vals if any(row)], self.ncols)

    def row_space_contains(self, vector: Sequence[FieldElement]) -> bool:
        """One forward elimination of the rows, then the vector reduced
        against the monic pivot rows (each zero left of its pivot)."""
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        field = self.field
        rest = field._codes_of(vector)
        if not any(rest):
            return True
        rows = [list(row) for row in self.vals]
        pivots = _echelon_vals(field, rows, self.ncols)
        sub_mul = field.sub_mul
        for row, c in zip(rows, pivots):
            if rest[c]:
                sub_mul(rest, rest[c], row, 0)
        return not any(rest)

    def same_row_space(self, other: "Matrix") -> bool:
        if other.ncols != self.ncols:
            return False
        return (
            self.rref()[0].nonzero_rows().vals
            == other.rref()[0].nonzero_rows().vals
        )

    # -- identity and display -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.vals == other.vals
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.vals))

    def __str__(self):
        if not self.vals:
            return f"<empty 0x{self.ncols}>"
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "[" + " ".join(s.rjust(width) for s in row) + "]" for row in cells
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.rows]


def subspace_intersection(U: Matrix, W: Matrix) -> Matrix:
    """Basis rows of row-space(U) ∩ row-space(W).

    Zassenhaus: eliminate the stacked block matrix [W | 0; U | U]; rows
    whose left half vanished carry an intersection basis in their right
    half, returned in reduced row echelon form (unique for the subspace).
    """
    field = U._check_field(W, "intersect")
    if U.ncols != W.ncols:
        raise ValueError("subspaces live in different ambient dimensions")
    basis = _intersection_vals(
        field, [list(row) for row in U.vals], [list(row) for row in W.vals], U.ncols
    )
    return Matrix._from_vals(field, basis, U.ncols)
