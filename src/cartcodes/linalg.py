"""Exact dense linear algebra over a finite field.

Plain Gaussian elimination with the first nonzero entry as pivot; exact
arithmetic needs no pivoting heuristics.  This module is the brute-force
oracle layer, so it stays deliberately simple — but because the
cross-validation sweeps call it millions of times, the elimination core
works on raw integer element codes through the arithmetic primitives
every field carries (the row update ``sub_mul``, ``scale``, ``dot``,
``mul``, ``neg`` and ``inv``; see ``Field._make_primitives``), and
matrices convert at the boundary.  Each kernel has one body for every
field: how a field computes is known to ``field.py`` alone.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatchError, SingularMatrixError
from .field import Field, FieldElement


def _rref_vals(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    """In-place reduced row echelon form on code rows; returns pivot cols."""
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
        for other in rows:
            factor = other[c]
            if factor and other is not row:
                other[c] = 0
                sub_mul(other, factor, tail, c + 1)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _gram_vals(field: Field, rows: list[list[int]]) -> list[list[int]]:
    """rows @ rows^T on integer codes."""
    dot = field.dot
    return [[dot(r1, r2) for r2 in rows] for r1 in rows]


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
    """Zassenhaus intersection basis on integer codes."""
    if not u_rows or not w_rows:
        return []
    rows = [row + row for row in u_rows]
    rows += [row + [0] * ncols for row in w_rows]
    _rref_vals(field, rows, 2 * ncols)
    basis = []
    for row in rows:
        if any(row[:ncols]):
            continue
        right = row[ncols:]
        if any(right):
            basis.append(right)
    return basis


class Matrix:
    """An immutable r x c matrix of field elements (r = 0 or c = 0 allowed)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(
        self,
        field: Field,
        rows: Iterable[Iterable[FieldElement]],
        ncols: int | None = None,
    ):
        rows = tuple(tuple(row) for row in rows)
        if rows:
            ncols_actual = len(rows[0])
            if any(len(row) != ncols_actual for row in rows):
                raise ValueError("rows have inconsistent lengths")
            if ncols is not None and ncols != ncols_actual:
                raise ValueError("ncols does not match row length")
            ncols = ncols_actual
        elif ncols is None:
            ncols = 0
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ints(
        cls, field: Field, rows: Sequence[Sequence[int]], ncols: int | None = None
    ) -> "Matrix":
        return cls(field, [[field.element(x) for x in row] for row in rows], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def empty(cls, field: Field, ncols: int) -> "Matrix":
        return cls(field, (), ncols)

    # -- boundary conversion to/from integer codes ------------------------------

    def _val_rows(self) -> list[list[int]]:
        return [[x.val for x in row] for row in self.rows]

    @classmethod
    def _from_vals(cls, field: Field, vals: Iterable[Iterable[int]], ncols: int) -> "Matrix":
        get = field._get
        return cls(field, [[get(v) for v in row] for row in vals], ncols)

    # -- shape and combination --------------------------------------------------

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [()] * self.ncols, 0)
        return Matrix(self.field, zip(*self.rows), self.nrows)

    def vstack(self, other: "Matrix") -> "Matrix":
        if other.ncols != self.ncols:
            raise ValueError("column counts differ")
        return Matrix(self.field, self.rows + other.rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        field = self.field
        if other.field is not field:
            raise FieldMismatchError(
                f"cannot multiply matrices over {field} and {other.field}"
            )
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        get, dot = field._get, field.dot
        b_cols = list(zip(*other._val_rows())) if other.rows else [()] * other.ncols
        out = [[get(dot(row, col)) for col in b_cols] for row in self._val_rows()]
        return Matrix(field, out, other.ncols)

    def row_vector_mul(self, vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """vector @ self for a length-nrows vector."""
        if len(vector) != self.nrows:
            raise ValueError("vector length does not match row count")
        zero = self.field.zero
        out = [zero] * self.ncols
        for x, row in zip(vector, self.rows):
            if x.val == 0:
                continue
            for j, a in enumerate(row):
                if a.val != 0:
                    out[j] = out[j] + x * a
        return tuple(out)

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["Matrix", int, tuple[int, ...]]:
        """Reduced row echelon form, rank, and pivot columns."""
        vals = self._val_rows()
        pivots = _rref_vals(self.field, vals, self.ncols)
        return (
            Matrix._from_vals(self.field, vals, self.ncols),
            len(pivots),
            tuple(pivots),
        )

    def rank(self) -> int:
        return len(_rref_vals(self.field, self._val_rows(), self.ncols))

    def nullspace(self) -> "Matrix":
        """Basis rows of {x : self @ x^T = 0}; row count = ncols - rank."""
        basis = _nullspace_vals(self.field, self._val_rows(), self.ncols)
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
            vals + [1 if i == j else 0 for j in range(n)]
            for i, vals in enumerate(self._val_rows())
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
        rows = self._val_rows()
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
        return Matrix(
            self.field,
            [row for row in self.rows if any(x.val for x in row)],
            self.ncols,
        )

    def row_space_contains(self, vector: Sequence[FieldElement]) -> bool:
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match column count")
        if all(x.val == 0 for x in vector):
            return True
        field = self.field
        vals = self._val_rows()
        base_rank = len(_rref_vals(field, [list(r) for r in vals], self.ncols))
        vals.append([x.val for x in vector])
        return len(_rref_vals(field, vals, self.ncols)) == base_rank

    def same_row_space(self, other: "Matrix") -> bool:
        if other.ncols != self.ncols:
            return False
        return (
            self.rref()[0].nonzero_rows().rows
            == other.rref()[0].nonzero_rows().rows
        )

    # -- identity and display -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field is other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __str__(self):
        if not self.rows:
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

    Zassenhaus: reduce the stacked block matrix [U | U; W | 0]; rows whose
    left half vanished carry an intersection basis in their right half.
    """
    if U.ncols != W.ncols:
        raise ValueError("subspaces live in different ambient dimensions")
    basis = _intersection_vals(U.field, U._val_rows(), W._val_rows(), U.ncols)
    return Matrix._from_vals(U.field, basis, U.ncols)
