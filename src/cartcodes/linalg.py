"""Exact dense linear algebra over a finite field.

Plain Gaussian elimination with the first nonzero entry as pivot; exact
arithmetic needs no pivoting heuristics.  This module is the brute-force
oracle layer, so it stays deliberately simple — but because the
cross-validation sweeps call it millions of times, the elimination core
works on raw integer element codes through the arithmetic primitives
every field carries (the row updates ``sub_mul`` and ``clear``, ``scale``,
``dot``, ``mul``, ``neg`` and ``inv``; see ``Field._make_primitives``).  A
:class:`Matrix` stores those codes too, so the kernels read its rows
directly; field elements appear only where a matrix is built from them or
its entries are read out.  Each kernel has one body for every field: how
a field computes is known to ``field.py`` alone.

Elimination has one entry, ``_echelon_vals(field, rows, ncols, reduce)``.
Forward elimination alone (monic pivots, cleared below) is all a rank
needs: ``rank``, ``is_nonsingular``, ``row_space_contains``, the Gram
route of the LCD oracle and the first step of an intersection pass
``reduce=False``.  ``reduce=True`` adds one back-substitution pass for the
reduced form that ``rref``, ``nullspace``, ``inverse`` and an
intersection's basis return.

An intersection U ∩ W first ranks the stack [U; W], n columns wide: when
its rows are independent the intersection is {0}.  That is the answer on
most codes the LCD oracle checks, whose stack of code and dual rows is
n x n.  Only a singular stack, or one of more than n rows, goes on to the
Zassenhaus matrix [W | 0; U | U], 2n columns wide, which is eliminated
forward, with only the rows that carry its basis reduced.  Independent
rows have rank [U; W] = rank U + rank W, so by Grassmann's formula,
dim(U ∩ W) = rank U + rank W - rank [U; W], the first step returns what
Zassenhaus would.

The entry has two paths with the same pivots and rows, at either depth,
chosen once per call by the field from the matrix's shape: linalg only
asks ``field.packs_echelon(nrows, ncols)``.  The per-entry kernel
``_echelon_entries`` updates one entry at a time; the field's
``packed_echelon`` holds each row as one big integer, so a row update is
one integer operation on it: a multiply-add over a prime field,
a translation and an XOR over GF(2^e) with e <= 8.  Fields without packed
rows never pack.  Per-entry time over packed time, forward / reduced, on
random dense matrices (2-vCPU Xeon, Python 3.11; * marks the shapes the
field packs, see ``_PACK_RULES`` in field.py):

    field      2x8        2x32       4x32       8x8        8x16       12x12      24x24
    GF(2)      0.28/0.32  0.21/0.24  0.55/0.38  0.39/0.41  0.47/0.47  0.66/0.49  1.09/0.84*
    GF(3)      0.42/0.33  0.55/0.37  0.83/0.53  0.60/0.63  0.83/0.58  1.39/0.77  1.82/1.27*
    GF(7)      0.52/0.48  0.72/0.57  1.09/1.05  0.86/0.74  1.23/1.07  1.36/0.96  2.14/1.88*
    GF(17)     0.49/0.51  0.69/0.57  1.20/1.13* 1.24/0.69  1.44/1.23* 1.36/1.07* 2.93/2.01*
    GF(251)    0.49/0.68  0.69/0.66  1.13/1.06* 1.01/0.79  1.35/1.27* 1.47/1.04* 2.97/1.99*
    GF(65521)  0.44/0.45  0.89/0.72  1.20/1.14* 1.14/0.83  1.52/1.34* 1.40/1.15* 3.14/2.02*
    GF(2^31-1) 0.67/0.64  0.93/0.91  1.16/1.10* 1.14/0.80  1.55/1.37* 1.70/1.15* 3.29/2.02*
    GF(2^4)    0.70/0.72  1.27/1.37* 2.06/2.58* 1.27/1.20* 2.46/2.44* 1.89/1.70* 3.97/2.83*
    GF(2^8)    0.81/0.95  1.69/1.96* 3.12/3.94* 1.63/1.48* 2.92/3.08* 2.53/2.05* 5.38/3.66*

At 32x64 every field packs, at 2.0 to 11 times the per-entry speed.  Up
to GF(13) the rule follows the Zassenhaus matrices of small product grids
rather than dense ones: their W half comes in reduced form, so per entry
they take fewer updates (over GF(7), 9 x 18 breaks even).

Products have one kernel, ``_matmul_vals``, behind both the Gram matrix
and ``Matrix.__matmul__``, with two paths chosen the same way, by
``field.packs_matmul(width)`` on the output width.  Per entry, each entry
is one ``dot`` (a Gram entry is computed once and mirrored); packed, the
field's ``packed_matmul`` forms each output row as one sum of packed rows.
Prime fields pack from width 8 and byte rows from width 4.  On the Gram
matrix of a k x 32 generator, per-entry over packed time is 0.3 to 0.4
at k = 2, 0.6 to 0.7 at k = 4 and 1.0 to 1.4 at k = 8 over primes, and
0.6 to 0.9, 1.1 to 1.7 and 1.9 to 2.5 over GF(2^2) and GF(2^8).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatchError, SingularMatrixError
from .field import Field, FieldElement


def _echelon_vals(
    field: Field, rows: list[list[int]], ncols: int, reduce: bool = False
) -> list[int]:
    """In-place row echelon form on code rows; returns pivot cols.

    Pivots are monic and cleared below; rows past the last pivot end zero.
    That is enough for a rank.  With ``reduce`` the pivots are cleared
    above too, giving the reduced row echelon form.
    """
    if field.packs_echelon(len(rows), ncols):
        return field.packed_echelon(rows, ncols, reduce)
    return _echelon_entries(field, rows, ncols, reduce)


def _echelon_entries(
    field: Field, rows: list[list[int]], ncols: int, reduce: bool = False
) -> list[int]:
    """:func:`_echelon_vals` one entry at a time: per pivot column, one
    ``scale`` makes the pivot monic and one ``clear`` updates every row
    below.  With ``reduce`` one back-substitution pass follows, from the
    last pivot up, so each pivot row is already clear of the later pivot
    columns."""
    inv, scale, clear = field.inv, field.scale, field.clear
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols if nrows else 0):
        row = rows[r]
        if not row[c]:
            for i in range(r + 1, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            row = rows[i]
            rows[i] = rows[r]
            rows[r] = row
        if row[c] != 1:
            scale(row, inv(row[c]), c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
        clear(rows[r:], c, row[c + 1 :])
    if reduce:
        for r in range(len(pivots) - 1, 0, -1):
            c = pivots[r]
            clear(rows[:r], c, rows[r][c + 1 :])
    return pivots


def _matmul_vals(
    field: Field, a_rows: Sequence[Sequence[int]], b_cols: Sequence[Sequence[int]]
) -> list[list[int]]:
    """A @ B on integer codes, given the rows of A and the columns of B:
    entry (i, j) is ``dot(a_rows[i], b_cols[j])``.

    Passing the same sequence twice asks for the Gram matrix A A^T; the
    per-entry path then computes each entry above the diagonal once and
    mirrors it below.
    """
    width = len(b_cols)
    if field.packs_matmul(width):
        return field.packed_matmul(a_rows, zip(*b_cols), width)
    dot = field.dot
    if a_rows is not b_cols:
        return [[dot(row, col) for col in b_cols] for row in a_rows]
    gram = [[0] * width for _ in range(width)]
    for i, r1 in enumerate(a_rows):
        g_i = gram[i]
        for j in range(i, width):
            g_i[j] = gram[j][i] = dot(r1, a_rows[j])
    return gram


def _nullspace_vals(field: Field, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis rows (integer codes) of the right kernel; consumes ``rows``."""
    pivots = _echelon_vals(field, rows, ncols, reduce=True)
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
    u_rows: Sequence[Sequence[int]],
    w_rows: Sequence[Sequence[int]],
    ncols: int,
) -> tuple[int, list[list[int]]]:
    """The rank of the stack [U; W] and a basis of U ∩ W in reduced form,
    on integer codes.

    Rank first: forward elimination of the ``ncols``-wide stack alone, U
    first, so that a U in echelon form, as the LCD oracle passes it, takes
    no updates.  At full row rank, possible only when len(U) + len(W) <=
    ncols, the rows are independent and U ∩ W = {0}.  Otherwise
    Zassenhaus: forward elimination of [W | 0; U | U], whose left half is
    the stack, so its pivots there count the rank; the rows whose pivot
    lies in the right half carry a basis of the intersection there, and
    only those halves are reduced.  The W rows come first, so their pivots
    touch the left half alone.  The operands are left as they are.
    """
    nrows = len(u_rows) + len(w_rows)
    rank = None
    if nrows <= ncols:
        rank = len(_echelon_vals(field, [*map(list, u_rows), *map(list, w_rows)], ncols))
        if rank == nrows:
            return rank, []
    zeros = [0] * ncols
    rows = [[*row, *zeros] for row in w_rows]
    rows += [[*row, *row] for row in u_rows]
    pivots = _echelon_vals(field, rows, 2 * ncols)
    basis = [rows[r][ncols:] for r, c in enumerate(pivots) if c >= ncols]
    _echelon_vals(field, basis, ncols, reduce=True)
    if rank is None:
        rank = len(pivots) - len(basis)
    return rank, basis


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
        codes_of = field._codes_of
        vals = tuple([tuple(codes_of(row)) for row in rows])
        if vals:
            ncols_actual = len(vals[0])
            if len(set(map(len, vals))) > 1:
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
        b_cols = list(zip(*other.vals)) if other.vals else [()] * other.ncols
        return Matrix._from_vals(field, _matmul_vals(field, self.vals, b_cols), other.ncols)

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
        pivots = _echelon_vals(self.field, vals, self.ncols, reduce=True)
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
        pivots = _echelon_vals(self.field, rows, 2 * n, reduce=True)
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

    The stacked rows [U; W] are eliminated first: when they are
    independent the intersection is {0}.  Otherwise Zassenhaus: eliminate
    the block matrix [W | 0; U | U]; rows whose left half vanished carry an
    intersection basis in their right half, returned in reduced row echelon
    form (unique for the subspace), so either way the result is that of
    Zassenhaus alone.
    """
    field = U._check_field(W, "intersect")
    if U.ncols != W.ncols:
        raise ValueError("subspaces live in different ambient dimensions")
    basis = _intersection_vals(field, U.vals, W.vals, U.ncols)[1]
    return Matrix._from_vals(field, basis, U.ncols)
