"""Dense exact linear algebra: matrices, linear solves, symmetric tensors.

Everything here is scalar-generic over exact fields.  Entries may be
ints, Fractions or QuadExt values; elimination (Gauss-Jordan, ints
promoted to Fraction) divides by pivots, so any field works, and every
zero test and comparison is exact.

SymTensor checks the symmetry of entries it is given; its own
arithmetic (sums, differences, multiples, symmetric products) computes
the upper triangle only and mirrors it, so those results are symmetric
by construction and skip the check, and sym_inner is the diagonal plus
twice the strict upper triangle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence


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
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

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

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self.at(i, j) for j in range(self.cols) for i in range(self.rows)])

    def map(self, fn: Callable) -> "Matrix":
        return Matrix(self.rows, self.cols, [fn(x) for x in self.entries])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.at(i, i) for i in range(self.rows))

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

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _echelon(rows: list[list], width: int, track: list[int]):
    """In-place reduced row echelon over a field.

    Returns the list of (row, col) pivot positions.  ``track`` carries
    original row indices through swaps so error reports stay meaningful.
    """
    # ints must become Fractions up front: true division of ints is float
    for i, row in enumerate(rows):
        rows[i] = [Fraction(x) if isinstance(x, int) else x for x in row]
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
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
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
    rows = A.to_rows()
    track = list(range(A.rows))
    return len(_echelon(rows, A.cols, track))


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


def inverse(A: Matrix) -> Matrix:
    """Inverse of a square full-rank matrix."""
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    n = A.rows
    rows = [A.row(i) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    track = list(range(n))
    pivots = _echelon(rows, n, track)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    # pivots appear in column order, so row r holds the row for variable r
    return Matrix.from_rows([rows[r][n:] for r, _ in pivots])


class SymTensor:
    """A symmetric bilinear form / symmetric endomorphism in coordinates.

    Stored as a full square array.  Entries given to the constructor are
    checked for symmetry; the optional traceless flag additionally
    asserts vanishing trace, which is how the domain of the
    27-dimensional isomorphism is enforced downstream.  Tensors computed
    here from symmetric ones (sums, multiples, symmetric products) and
    tensors built with from_upper are symmetric by construction: only
    the upper triangle is computed and mirrored, and no check runs.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence], traceless: bool = False):
        n = len(entries)
        self.n = n
        self.entries = [list(row) for row in entries]
        for row in self.entries:
            if len(row) != n:
                raise ValueError("not square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        if traceless and self.trace() != 0:
            raise ValueError("trace is nonzero")

    @classmethod
    def from_upper(cls, upper: Sequence[Sequence]) -> "SymTensor":
        """The symmetric tensor whose row i from the diagonal on is
        upper[i] (n - i entries); the lower triangle is its mirror."""
        n = len(upper)
        for i, row in enumerate(upper):
            if len(row) != n - i:
                raise ValueError(f"upper row {i} needs {n - i} entries")
        out = object.__new__(cls)
        out.n = n
        out.entries = [[upper[j][i - j] for j in range(i)] + list(upper[i])
                       for i in range(n)]
        return out

    @classmethod
    def zero(cls, n: int = 7) -> "SymTensor":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int = 7) -> "SymTensor":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, values: Sequence) -> "SymTensor":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def sym_outer(cls, v: Sequence, w: Sequence) -> "SymTensor":
        """Symmetric product v.w, i.e. (v w^T + w v^T)/2."""
        n = len(v)
        half = Fraction(1, 2)
        return cls.from_upper([[half * (v[i] * w[j] + v[j] * w[i])
                                for j in range(i, n)] for i in range(n)])

    def at(self, i: int, j: int):
        return self.entries[i][j]

    def trace(self):
        return sum(self.entries[i][i] for i in range(self.n))

    def traceless_part(self) -> "SymTensor":
        # multiplying by 1/n keeps int and QuadExt entries exact
        t = self.trace() * Fraction(1, self.n)
        return SymTensor.from_upper([[row[i] - t] + row[i + 1:]
                                     for i, row in enumerate(self.entries)])

    def apply(self, vec: Sequence) -> list:
        return [sum(row[j] * vec[j] for j in range(self.n)) for row in self.entries]

    def to_matrix(self) -> Matrix:
        return Matrix.from_rows(self.entries)

    def __add__(self, other):
        if not isinstance(other, SymTensor) or other.n != self.n:
            return NotImplemented
        return SymTensor.from_upper(
            [[x + y for x, y in zip(r1[i:], r2[i:])]
             for i, (r1, r2) in enumerate(zip(self.entries, other.entries))])

    def __sub__(self, other):
        if not isinstance(other, SymTensor) or other.n != self.n:
            return NotImplemented
        return SymTensor.from_upper(
            [[x - y for x, y in zip(r1[i:], r2[i:])]
             for i, (r1, r2) in enumerate(zip(self.entries, other.entries))])

    def __neg__(self):
        return SymTensor.from_upper([[-x for x in row[i:]]
                                     for i, row in enumerate(self.entries)])

    def scale(self, s) -> "SymTensor":
        return SymTensor.from_upper([[s * x for x in row[i:]]
                                     for i, row in enumerate(self.entries)])

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.n == other.n and all(
            a == b for r1, r2 in zip(self.entries, other.entries)
            for a, b in zip(r1, r2))

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def __repr__(self):
        return f"SymTensor({self.n}x{self.n}, trace={self.trace()})"


def sym_inner(S1: SymTensor, S2: SymTensor):
    """tr(S1 S2), the metric pairing of symmetric 2-tensors."""
    if S1.n != S2.n:
        raise ValueError("size mismatch")
    rows = list(enumerate(zip(S1.entries, S2.entries)))
    # the diagonal plus twice the strict upper triangle
    return (sum(r1[i] * r2[i] for i, (r1, r2) in rows)
            + 2 * sum(x * y for i, (r1, r2) in rows
                      for x, y in zip(r1[i + 1:], r2[i + 1:])))
