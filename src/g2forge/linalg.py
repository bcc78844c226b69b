"""Dense exact linear algebra: matrices, linear solves, symmetric tensors.

A Matrix keeps its entries as given: ints, Fractions or QuadExt
values.  The one elimination, _echelon, is fraction-free over Z: it
takes int rows and brings them to row echelon form by integer row
operations, each new row divided by its content (_eliminate), so every
zero test is exact and no Fraction is built on the way.  rank is its
pivot count on the rows cleared to ints; solve_exact, for int and
Fraction systems, runs it on the cleared rows of (A | b), clears the
pivot columns upward with the same row operation and divides once per
pivot unknown.

A Matrix offers what the package runs on it: entry, row and column
reads, the matrix-vector product apply and equality; no module of the
package multiplies two matrices.  A SymTensor is a symmetric 7x7
tensor, the only size the package pairs, stored as one flat upper
triangle: 28 entries, row i from the diagonal on, entry k at
TRIANGLE[k] and the diagonal at DIAGONAL.  This module owns that
layout; the integer cores
(cubic.quadratic_upper, G2Frame.iso_i_inv_upper) return such
triangles, G2Frame.iso_i reads one, and every other module takes
positions from TRIANGLE and DIAGONAL.  A full square given to the
constructor is checked for symmetry and its triangle kept; the
symmetric product sym_outer, a multiple (scale), the trace and
equality run on the triangle, and the full square is only built,
mirrored, when a caller reads entries.  Neither type adds, subtracts
or scales by operators: a sum of tensors is a sum of their triangles,
written where it is needed.  upper_inner, the one metric pairing
tr(S1 S2) of symmetric tensors, pairs two triangles position by
position, the diagonal once and the rest twice, with no rescale; a
caller that holds Fraction tensors pairs their integer numerators and
rescales once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .scalars import clear_denominators


class InconsistentSystemError(ValueError):
    """A linear system has no solution; carries the offending row index."""

    def __init__(self, row: int):
        super().__init__(f"inconsistent linear system: row {row} reduces to 0 = nonzero")
        self.row = row


class Matrix:
    """Immutable-by-convention dense matrix, row-major flat storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> list:
        return self.entries[j::self.cols]

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, vec given as a plain coordinate list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum(self.entries[base + j] * vec[j] for j in range(self.cols)))
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _eliminate(row: list, pivot: list, c: int) -> list:
    """p row - f pivot divided by its content, the gcd of its entries,
    for the entries p of the pivot row and f of row in column c: an
    integer row operation with p != 0 that clears column c of row."""
    p, f = pivot[c], row[c]
    new = [p * x - f * y for x, y in zip(row, pivot)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _echelon(rows: list[list], width: int, track: list[int]) -> list[int]:
    """Row echelon form over Z of int rows, in place, fraction-free, on
    the first width columns; returns the pivot columns, pivot k in row k.

    At each pivot column the first row at or below the next pivot row
    with a nonzero entry there is swapped up, track swapped with it so
    that it carries the original row indices, and every row below with
    a nonzero entry in that column is cleared by _eliminate; a row with
    a zero there is left as it is.  Every step is an integer row
    operation or the division of a row by a nonzero integer, so the row
    space never changes and no remainder needs a check, and the entries
    stay as small as a primitive row allows.  Each row is p times the
    Gauss-Jordan row, up to its content, so the zero pattern, the swaps
    and the pivots are those of Gauss-Jordan elimination over Q.
    """
    pivots = []
    nrows, r = len(rows), 0
    for c in range(width):
        best = next((i for i in range(r, nrows) if rows[i][c]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        track[r], track[best] = track[best], track[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], rows[r], c)
        pivots.append(c)
        r += 1
    return pivots


def rank(A: Matrix) -> int:
    """The rank of A, whose entries are ints or Fractions, as every
    caller passes: the pivot count of _echelon on the rows of A, each
    scaled to ints by clear_denominators, the zero rows dropped."""
    rows = [row for row in (clear_denominators(A.row(i))[0]
                            for i in range(A.rows)) if any(row)]
    return len(_echelon(rows, A.cols, list(range(len(rows)))))


def solve_exact(A: Matrix, b: Sequence) -> tuple[list, int]:
    """Solve A x = b exactly, for int or Fraction entries of A and b.

    Returns (x, kernel_dim): x[c] is a Fraction for each pivot unknown
    and the int 0 for each free one.  The rows of (A | b), each scaled
    to ints, are brought to echelon form by _echelon; each pivot column
    is then cleared above its pivot, from the last pivot up, by the
    same integer row operation, and each pivot unknown is its row's
    right-hand side over its pivot, one division.  Raises
    InconsistentSystemError naming the original row of the first row
    below the last pivot that reduces to 0 = nonzero.
    """
    if len(b) != A.rows:
        raise ValueError("right hand side length mismatch")
    rows = [clear_denominators(A.row(i) + [b[i]])[0] for i in range(A.rows)]
    track = list(range(A.rows))
    pivots = _echelon(rows, A.cols, track)
    bad = next((i for i in range(len(pivots), A.rows) if rows[i][-1]), None)
    if bad is not None:
        raise InconsistentSystemError(track[bad])
    for r in range(len(pivots) - 1, 0, -1):
        for i in range(r):
            if rows[i][pivots[r]]:
                rows[i] = _eliminate(rows[i], rows[r], pivots[r])
    x = [0] * A.cols
    for r, c in enumerate(pivots):
        x[c] = Fraction(rows[r][-1], rows[r][c])
    return x, A.cols - len(pivots)


# The one layout of a symmetric tensor: its upper triangle read row by
# row, row i from the diagonal on, 28 entries; entry k is the (i, j) of
# TRIANGLE[k], and the diagonal (i, i) sits at DIAGONAL[i]
TRIANGLE = tuple((i, j) for i in range(7) for j in range(i, 7))
DIAGONAL = tuple(k for k, (i, j) in enumerate(TRIANGLE) if i == j)
_OFF_DIAGONAL = tuple(k for k, (i, j) in enumerate(TRIANGLE) if i != j)
# the position in TRIANGLE of entry (i, j) of the square, either order
_SQUARE = [[TRIANGLE.index((min(i, j), max(i, j))) for j in range(7)]
           for i in range(7)]


class SymTensor:
    """A symmetric bilinear form / symmetric endomorphism of R^7 in
    coordinates, stored as its flat upper triangle only: upper[k] is
    the entry TRIANGLE[k].  A full 7x7 square given to the constructor
    is checked for symmetry and its triangle kept; the optional
    traceless flag additionally asserts vanishing trace, which is how
    the domain of the 27-dimensional isomorphism is enforced downstream.
    from_upper wraps a triangle with no check but its length, and
    scale, equality and the trace run on the triangles.  entries
    is a mirrored full-square copy, built on each read, for the callers
    that need the square.
    """

    __slots__ = ("upper",)

    def __init__(self, entries: Sequence[Sequence], traceless: bool = False):
        rows = [list(row) for row in entries]
        if len(rows) != 7 or any(len(row) != 7 for row in rows):
            raise ValueError("need a 7x7 square")
        for i, j in TRIANGLE:
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"not symmetric at ({i},{j})")
        self.upper = [rows[i][j] for i, j in TRIANGLE]
        if traceless and self.trace() != 0:
            raise ValueError("trace is nonzero")

    @classmethod
    def from_upper(cls, upper: Sequence) -> "SymTensor":
        """The symmetric tensor whose upper triangle is upper, entry k
        at TRIANGLE[k]."""
        if len(upper) != len(TRIANGLE):
            raise ValueError(f"need {len(TRIANGLE)} upper entries, "
                             f"got {len(upper)}")
        out = object.__new__(cls)
        out.upper = list(upper)
        return out

    @classmethod
    def diag(cls, values: Sequence) -> "SymTensor":
        """The diagonal tensor with the 7 given diagonal entries."""
        if len(values) != 7:
            raise ValueError(f"need 7 diagonal entries, got {len(values)}")
        return cls.from_upper([values[i] if i == j else 0
                               for i, j in TRIANGLE])

    @classmethod
    def sym_outer(cls, v: Sequence, w: Sequence) -> "SymTensor":
        """Symmetric product v.w, i.e. (v w^T + w v^T)/2."""
        if len(v) != 7 or len(w) != 7:
            raise ValueError("need two vectors of length 7")
        half = Fraction(1, 2)
        return cls.from_upper([half * (v[i] * w[j] + v[j] * w[i])
                               for i, j in TRIANGLE])

    @property
    def entries(self) -> list[list]:
        """The full square, the lower triangle mirrored from the upper."""
        u = self.upper
        return [[u[k] for k in row] for row in _SQUARE]

    def trace(self):
        return sum(self.upper[k] for k in DIAGONAL)

    def apply(self, vec: Sequence) -> list:
        return self.to_matrix().apply(vec)

    def to_matrix(self) -> Matrix:
        return Matrix.from_rows(self.entries)

    def scale(self, s) -> "SymTensor":
        return SymTensor.from_upper([s * x for x in self.upper])

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.upper == other.upper

    def __repr__(self):
        return f"SymTensor(7x7, trace={self.trace()})"


def upper_inner(u1: Sequence, u2: Sequence):
    """tr(S1 S2) from the flat upper triangles of two symmetric tensors:
    the diagonal once plus twice the rest, in the entries' own type and
    with no rescale."""
    return (sum(u1[k] * u2[k] for k in DIAGONAL)
            + 2 * sum(u1[k] * u2[k] for k in _OFF_DIAGONAL))

