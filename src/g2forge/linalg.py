"""Dense exact linear algebra: matrices, linear solves, symmetric tensors.

Everything here is scalar-generic over exact fields.  Entries may be
ints, Fractions or QuadExt values, kept as given; elimination
(Gauss-Jordan, _echelon) multiplies each pivot row by the Fraction
inverse of a rational pivot, so a rational matrix takes right-hand
sides over any extension field, and every zero test and comparison is
exact.  rank is fraction-free over Z instead: it needs no reduced
form and no right-hand side, so it clears each row to ints and
eliminates with integer row operations, each new row divided by its
content.  _echelon stays the one Gauss-Jordan routine, since
solve_exact reads its solution off the reduced rows and takes QuadExt
right-hand sides, which elimination over Z does not.

A SymTensor is stored as one upper triangle, row i from the diagonal
on, the shape the integer cores take and return: a full square given
to the constructor is checked for symmetry and its triangle kept, its
own arithmetic (sums, differences, multiples, symmetric products) runs
on the triangle, and the full square is only built, mirrored, when a
caller reads entries.  upper_inner pairs two such triangles, the
diagonal plus twice the strict upper triangle with no rescale;
sym_inner runs it on the integer numerators of two SymTensors and
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0
                          for i in range(n) for j in range(n)])

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> list:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, vec given as a plain coordinate list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            out.append(sum(self.entries[base + j] * vec[j] for j in range(self.cols)))
        return out

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            n, m, k = self.rows, other.cols, self.cols
            cols = [other.column(j) for j in range(m)]
            flat = []
            for i in range(n):
                row = self.row(i)
                for j in range(m):
                    col = cols[j]
                    flat.append(sum(row[t] * col[t] for t in range(k)))
            return Matrix(n, m, flat)
        return Matrix(self.rows, self.cols, [a * other for a in self.entries])

    def __rmul__(self, other):
        return Matrix(self.rows, self.cols, [other * a for a in self.entries])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _echelon(rows: list[list], width: int, track: list[int]):
    """In-place reduced row echelon over a field.

    Returns the list of (row, col) pivot positions.  ``track`` carries
    original row indices through swaps so error reports stay meaningful.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        # the first nonzero entry at or below row r is the pivot
        best = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        track[r], track[best] = track[best], track[r]
        # a rational pivot: QuadExt entries (right-hand sides) are only
        # multiplied by its inverse, never divided; an int pivot gets a
        # Fraction inverse, since true division of ints is float
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ri, rr = rows[i], rows[r]
                rows[i] = [a - f * b for a, b in zip(ri, rr)]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots


def rank(A: Matrix) -> int:
    """The rank of A, whose entries are ints or Fractions, as every
    caller passes.

    Primitive-row elimination over Z: each row is scaled to ints by
    clear_denominators and the zero rows are dropped.  At each pivot p
    in column c, a row below it with a nonzero entry f there becomes
    p r - f r_pivot divided by its content, the gcd of its entries;
    a row with a zero there is left as it is.  Every step is an integer
    row operation with p != 0 or the division of a row by a nonzero
    integer, so the row space never changes and no remainder needs a
    check, and the entries stay as small as a primitive row allows.
    """
    rows = [row for row in (clear_denominators(A.row(i))[0]
                            for i in range(A.rows)) if any(row)]
    nrows, r = len(rows), 0
    for c in range(A.cols):
        if r == nrows:
            break
        best = next((i for i in range(r, nrows) if rows[i][c]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pr = rows[r]
        p = pr[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            if not f:
                continue
            new = [p * x - f * y for x, y in zip(ri, pr)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        r += 1
    return r


def solve_exact(A: Matrix, b: Sequence) -> tuple[list, int]:
    """Solve A x = b exactly.

    Returns (x, kernel_dim) where free variables are set to zero.
    Raises InconsistentSystemError naming an original row of A that
    reduces to 0 = nonzero.
    """
    if len(b) != A.rows:
        raise ValueError("right hand side length mismatch")
    rows = [A.row(i) + [b[i]] for i in range(A.rows)]
    track = list(range(A.rows))
    pivots = _echelon(rows, A.cols, track)
    pivot_rows = {r for r, _ in pivots}
    for i in range(A.rows):
        if i not in pivot_rows and rows[i][A.cols] != 0:
            raise InconsistentSystemError(track[i])
    x = [0] * A.cols
    for r, c in pivots:
        x[c] = rows[r][A.cols]
    return x, A.cols - len(pivots)


class SymTensor:
    """A symmetric bilinear form / symmetric endomorphism in coordinates.

    Stored as its upper triangle only: upper[i] is row i from the
    diagonal on (n - i entries), the shape the integer cores
    (quadratic_upper, iso_i_inv_upper, upper_inner) pass around.  A full
    square given to the constructor is checked for symmetry and its
    triangle kept; the optional traceless flag additionally asserts
    vanishing trace, which is how the domain of the 27-dimensional
    isomorphism is enforced downstream.  from_upper wraps a triangle
    with no check, and arithmetic, equality and the trace run on the
    triangles.  entries is a mirrored full-square copy, built on each
    read, for the callers that need the square.
    """

    __slots__ = ("n", "upper")

    def __init__(self, entries: Sequence[Sequence], traceless: bool = False):
        n = len(entries)
        rows = [list(row) for row in entries]
        for row in rows:
            if len(row) != n:
                raise ValueError("not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        self.n = n
        self.upper = [row[i:] for i, row in enumerate(rows)]
        if traceless and self.trace() != 0:
            raise ValueError("trace is nonzero")

    @classmethod
    def from_upper(cls, upper: Sequence[Sequence]) -> "SymTensor":
        """The symmetric tensor whose row i from the diagonal on is
        upper[i] (n - i entries)."""
        n = len(upper)
        for i, row in enumerate(upper):
            if len(row) != n - i:
                raise ValueError(f"upper row {i} needs {n - i} entries")
        out = object.__new__(cls)
        out.n = n
        out.upper = [list(row) for row in upper]
        return out

    @classmethod
    def diag(cls, values: Sequence) -> "SymTensor":
        n = len(values)
        return cls.from_upper([[values[i]] + [0] * (n - 1 - i) for i in range(n)])

    @classmethod
    def sym_outer(cls, v: Sequence, w: Sequence) -> "SymTensor":
        """Symmetric product v.w, i.e. (v w^T + w v^T)/2."""
        n = len(v)
        half = Fraction(1, 2)
        return cls.from_upper([[half * (v[i] * w[j] + v[j] * w[i])
                                for j in range(i, n)] for i in range(n)])

    @property
    def entries(self) -> list[list]:
        """The full square, the lower triangle mirrored from the upper."""
        u = self.upper
        return [[u[j][i - j] for j in range(i)] + list(u[i])
                for i in range(self.n)]

    def trace(self):
        return sum(row[0] for row in self.upper)

    def apply(self, vec: Sequence) -> list:
        return [sum(row[j] * vec[j] for j in range(self.n)) for row in self.entries]

    def to_matrix(self) -> Matrix:
        return Matrix.from_rows(self.entries)

    def __add__(self, other):
        if not isinstance(other, SymTensor) or other.n != self.n:
            return NotImplemented
        return SymTensor.from_upper([[x + y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(self.upper, other.upper)])

    def __sub__(self, other):
        if not isinstance(other, SymTensor) or other.n != self.n:
            return NotImplemented
        return SymTensor.from_upper([[x - y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(self.upper, other.upper)])

    def __neg__(self):
        return SymTensor.from_upper([[-x for x in row] for row in self.upper])

    def scale(self, s) -> "SymTensor":
        return SymTensor.from_upper([[s * x for x in row] for row in self.upper])

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.n == other.n and self.upper == other.upper

    def __repr__(self):
        return f"SymTensor({self.n}x{self.n}, trace={self.trace()})"


def upper_inner(u1: Sequence[Sequence], u2: Sequence[Sequence]):
    """tr(S1 S2) from the upper triangles of two symmetric tensors, row i
    from the diagonal on as SymTensor.from_upper takes them: the
    diagonal plus twice the strict upper triangle, in the entries' own
    type and with no rescale."""
    return (sum(r1[0] * r2[0] for r1, r2 in zip(u1, u2))
            + 2 * sum(x * y for r1, r2 in zip(u1, u2)
                      for x, y in zip(r1[1:], r2[1:])))


def _upper_numerators(upper: list[list]) -> tuple[list[list], int]:
    """(N, d) with upper = N / d and every entry of N an int; N is upper
    itself, with d = 1, when its entries are ints already."""
    flat = [x for row in upper for x in row]
    ints, d = clear_denominators(flat)
    if ints is flat:
        return upper, 1
    it = iter(ints)
    return [[next(it) for _ in row] for row in upper], d


def sym_inner(S1: SymTensor, S2: SymTensor):
    """tr(S1 S2), the metric pairing of symmetric 2-tensors.

    Bilinear, so it runs upper_inner on the integer numerators of the
    two upper triangles, each over its own denominator d_k, and
    rescales once, by 1/(d_1 d_2); two int tensors give an int.
    """
    if S1.n != S2.n:
        raise ValueError("size mismatch")
    n1, d1 = _upper_numerators(S1.upper)
    n2, d2 = (n1, d1) if S2 is S1 else _upper_numerators(S2.upper)
    value = upper_inner(n1, n2)
    if n1 is S1.upper and n2 is S2.upper:
        return value
    return value * Fraction(1, d1 * d2)
