"""Exact dense linear algebra and symmetric tensors."""

import random
from fractions import Fraction

import pytest

from g2forge import linalg
from g2forge.exterior import BLADES_BY_GRADE, Form, form_to_coords
from g2forge.linalg import InconsistentSystemError, Matrix, SymTensor, \
    rank, solve_exact, sym_inner
from g2forge.scalars import QuadExt

import reference


def _random_matrix(rng, rows, cols, bound=6):
    return Matrix.from_rows([[Fraction(rng.randint(-bound, bound))
                              for _ in range(cols)] for _ in range(rows)])


def test_rank_examples():
    assert rank(Matrix.diagonal([1] * 5)) == 5
    assert rank(Matrix.zeros(3, 4)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_product_bound_random():
    rng = random.Random(5)
    for _ in range(50):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        B = _random_matrix(rng, A.cols, rng.randint(1, 5))
        assert rank(A * B) <= min(rank(A), rank(B))


def _echelon_rank(A):
    # the Gauss-Jordan reference: the pivots of the reduced echelon form
    return len(linalg._echelon(A.to_rows(), A.cols, list(range(A.rows))))


_ENTRIES = {
    "int": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "large": lambda rng: Fraction(rng.randint(-10 ** 15, 10 ** 15),
                                  rng.randint(1, 10 ** 12)),
}


def _draw(rng, rows, cols, draw):
    return Matrix.from_rows([[draw(rng) for _ in range(cols)]
                             for _ in range(rows)])


def _degenerate(rng, A):
    # a zero row, a duplicated row and a zero column, each placed at random
    rows = A.to_rows()
    rows.insert(rng.randint(0, len(rows)), [0] * A.cols)
    rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
    j = rng.randint(0, A.cols)
    return Matrix.from_rows([row[:j] + [0] + row[j:] for row in rows])


def _permuted_blocks(rng, draw):
    # blocks on the diagonal, some rank-deficient, with rows and columns
    # shuffled: most entries of a pivot column are zero
    blocks = []
    for _ in range(rng.randint(2, 4)):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        k = rng.randint(0, min(r, c))
        blocks.append(_draw(rng, r, k, draw) * _draw(rng, k, c, draw)
                      if k else Matrix.zeros(r, c))
    width = sum(B.cols for B in blocks)
    rows, col = [], 0
    for B in blocks:
        rows += [[0] * col + row + [0] * (width - col - B.cols)
                 for row in B.to_rows()]
        col += B.cols
    rng.shuffle(rows)
    order = rng.sample(range(width), width)
    return Matrix.from_rows([[row[j] for j in order] for row in rows])


def _common_factors(rng, A):
    # each row times its own integer, so a row's entries share a factor
    return Matrix.from_rows([[rng.randint(2, 30) * x for x in row]
                             for row in A.to_rows()])


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_rank_matches_gauss_jordan(kind):
    rng = random.Random(41)
    draw = _ENTRIES[kind]
    for _ in range(40):
        n = rng.randint(1, 7)
        for rows, cols in ((n, n), (n + rng.randint(1, 4), n),
                           (n, n + rng.randint(1, 4))):
            A = _draw(rng, rows, cols, draw)
            # a product through a narrow middle is rank-deficient
            k = rng.randint(0, min(rows, cols) - 1)
            AB = _draw(rng, rows, k, draw) * _draw(rng, k, cols, draw) \
                if k else Matrix.zeros(rows, cols)
            for M in (A, AB, _degenerate(rng, A), _degenerate(rng, AB),
                      _common_factors(rng, A), _common_factors(rng, AB)):
                assert rank(M) == _echelon_rank(M)
            assert rank(AB) <= k
        P = _permuted_blocks(rng, draw)
        for M in (P, _common_factors(rng, P)):
            assert rank(M) == _echelon_rank(M)


def test_rank_matches_gauss_jordan_on_the_g2_suite_matrices(g2frame):
    # the nine ranks of g2.type-dimensions and g2.pairing-rank: each part
    # of a split applied to the basis blades, and the pairing matrix
    matrices = [g2frame.pairing_matrix()]
    for split, grade in ((g2frame.project2, 2), (g2frame.project3, 3),
                         (g2frame.project4, 4)):
        images = [split(Form(grade, {m: 1})) for m in BLADES_BY_GRADE[grade]]
        matrices += [Matrix.from_rows([form_to_coords(p[k]) for p in images])
                     for k in range(len(images[0]))]
    ranks = [rank(M) for M in matrices]
    assert ranks == [35, 7, 14, 1, 7, 27, 1, 7, 27]
    assert ranks == [_echelon_rank(M) for M in matrices]


def test_rank_runs_no_elimination_and_makes_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(43)
    A = _draw(rng, 6, 8, _ENTRIES["fraction"])
    B = _draw(rng, 8, 5, _ENTRIES["int"])
    expected = [_echelon_rank(A), _echelon_rank(B)]
    monkeypatch.setattr(linalg, "_echelon", None)
    monkeypatch.setattr(Fraction, "__new__", counted)
    assert [rank(A), rank(B)] == expected
    assert made == []


def test_solve_exact_reproduces_solution():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        A = _random_matrix(rng, n + rng.randint(0, 2), n)
        x = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        b = A.apply(x)
        sol, kdim = solve_exact(A, b)
        assert A.apply(sol) == b
        if kdim == 0:
            assert sol == x


def test_solve_exact_int_matrix_types():
    # an int system is eliminated as given: each pivot row is multiplied
    # by a Fraction inverse, so pivot values are Fractions, and a free
    # variable is the int 0
    A = Matrix.from_rows([[2, 4, 1], [0, 3, 0]])
    sol, kdim = solve_exact(A, [5, 6])
    assert (sol, kdim) == ([Fraction(-3, 2), 2, 0], 1)
    assert [type(x) for x in sol] == [Fraction, Fraction, int]
    sol, _ = solve_exact(Matrix.diagonal([1, 1]), [3, 4])
    assert [type(x) for x in sol] == [Fraction, Fraction]


def test_solve_exact_detects_inconsistency():
    A = Matrix.from_rows([[1, 0], [1, 0]])
    with pytest.raises(InconsistentSystemError):
        solve_exact(A, [1, 2])


def test_symtensor_construction_checks():
    with pytest.raises(ValueError):
        SymTensor([[0, 1], [2, 0]])
    entries = [[Fraction(i + j) for j in range(7)] for i in range(7)]
    entries[5][2] += Fraction(1, 7)
    with pytest.raises(ValueError):
        SymTensor(entries)
    with pytest.raises(ValueError):
        SymTensor.from_upper([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        SymTensor([[1, 0], [0, 1]], traceless=True)
    SymTensor([[1, 0], [0, -1]], traceless=True)


def test_sym_outer_and_inner():
    v = [Fraction(1), Fraction(2), Fraction(0)]
    w = [Fraction(0), Fraction(1), Fraction(3)]
    S = SymTensor.sym_outer(v, w)
    assert S.entries[0][1] == Fraction(1, 2)
    assert S.entries[1][1] == 2
    # tr((v.w)(a.b)) expands by polarization
    T = SymTensor.sym_outer(v, v)
    dot = sum(x * y for x, y in zip(v, w))
    vv = sum(x * x for x in v)
    assert sym_inner(S, T) == dot * vv


def test_traceless_part():
    S = SymTensor.diag([3, 1, 2])
    T = reference.traceless_part(S)
    assert T.trace() == 0
    assert T.entries == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    # the shifted diagonal is exact (never float); off-diagonal entries
    # keep their type
    assert [type(T.entries[i][i]) for i in range(3)] == [Fraction] * 3
    assert all(type(T.entries[i][j]) is int
               for i in range(3) for j in range(3) if i != j)
    Q = SymTensor.diag([QuadExt(1, 1), QuadExt(2), QuadExt(0, -1)])
    U = reference.traceless_part(Q)
    assert U.trace() == 0
    assert U.entries[0][0] == QuadExt(0, 1)
    assert [type(U.entries[i][i]) for i in range(3)] == [QuadExt] * 3


def test_sym_inner_symmetric_random():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                A[i][j] = A[j][i]
        B = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                B[i][j] = B[j][i]
        S, T = SymTensor(A), SymTensor(B)
        assert sym_inner(S, T) == sym_inner(T, S)
        assert sym_inner(S, T) == reference.trace(S.to_matrix() * T.to_matrix())


_SCALARS = {
    "fraction": lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    "int": lambda rng: rng.randint(-6, 6),
    "quadext": lambda rng: QuadExt(rng.randint(-4, 4),
                                   Fraction(rng.randint(-4, 4), 3)),
}


def _random_symmetric(rng, n, draw):
    rows = [[draw(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return rows


def _assert_square(S, rows):
    # full-square reference, entry by entry, with the same scalar types
    assert S.entries == rows
    assert [type(x) for r in S.entries for x in r] == \
        [type(x) for r in rows for x in r]


@pytest.mark.parametrize("kind", sorted(_SCALARS))
def test_symtensor_arithmetic_matches_full_square(kind):
    rng = random.Random(29)
    draw = _SCALARS[kind]
    half = Fraction(1, 2)
    for _ in range(20):
        n = rng.randint(1, 7)
        A, B = _random_symmetric(rng, n, draw), _random_symmetric(rng, n, draw)
        S, T = SymTensor(A), SymTensor(B)
        s = draw(rng)
        _assert_square(S + T, [[A[i][j] + B[i][j] for j in range(n)]
                               for i in range(n)])
        _assert_square(S - T, [[A[i][j] - B[i][j] for j in range(n)]
                               for i in range(n)])
        _assert_square(-S, [[-A[i][j] for j in range(n)] for i in range(n)])
        _assert_square(S.scale(s), [[s * A[i][j] for j in range(n)]
                                    for i in range(n)])
        v = [draw(rng) for _ in range(n)]
        w = [draw(rng) for _ in range(n)]
        _assert_square(SymTensor.sym_outer(v, w),
                       [[half * (v[i] * w[j] + v[j] * w[i]) for j in range(n)]
                        for i in range(n)])
        assert sym_inner(S, T) == sum(A[i][j] * B[i][j] for i in range(n)
                                      for j in range(n))


def test_sym_inner_types_follow_the_entries():
    # each tensor is cleared over its own denominator: int tensors give an
    # int, a Fraction in either gives a Fraction, the same object or not
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 7)
        A = _random_symmetric(rng, n, lambda r: r.randint(-5, 5))
        B = _random_symmetric(rng, n, lambda r: Fraction(r.randint(-5, 5),
                                                         r.randint(1, 6)))
        S, T = SymTensor(A), SymTensor(B)
        for X, Y, kind in ((S, S, int), (S, SymTensor(A), int),
                           (S, T, Fraction), (T, S, Fraction),
                           (T, T, Fraction)):
            got = sym_inner(X, Y)
            assert type(got) is kind
            assert got == reference.sym_inner(X, Y)
