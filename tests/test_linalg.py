"""Exact dense linear algebra and symmetric tensors."""

import random
from fractions import Fraction

import pytest

from g2forge.linalg import InconsistentSystemError, Matrix, SymTensor, \
    inverse, rank, solve_exact, sym_inner
from g2forge.scalars import QuadExt


def _random_matrix(rng, rows, cols, bound=6):
    return Matrix.from_rows([[Fraction(rng.randint(-bound, bound))
                              for _ in range(cols)] for _ in range(rows)])


def test_rank_examples():
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix.zeros(3, 4)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_product_bound_random():
    rng = random.Random(5)
    for _ in range(50):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        B = _random_matrix(rng, A.cols, rng.randint(1, 5))
        assert rank(A * B) <= min(rank(A), rank(B))


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


def test_solve_exact_detects_inconsistency():
    A = Matrix.from_rows([[1, 0], [1, 0]])
    with pytest.raises(InconsistentSystemError):
        solve_exact(A, [1, 2])


def test_inverse_random():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.randint(1, 5)
        A = _random_matrix(rng, n, n)
        if rank(A) < n:
            continue
        done += 1
        Ainv = inverse(A)
        assert A * Ainv == Matrix.identity(n)


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
    assert S.at(0, 1) == Fraction(1, 2)
    assert S.at(1, 1) == 2
    # tr((v.w)(a.b)) expands by polarization
    T = SymTensor.sym_outer(v, v)
    dot = sum(x * y for x, y in zip(v, w))
    vv = sum(x * x for x in v)
    assert sym_inner(S, T) == dot * vv


def test_traceless_part():
    S = SymTensor.diag([3, 1, 2])
    T = S.traceless_part()
    assert T.trace() == 0
    assert T.entries == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    # the shifted diagonal is exact (never float); off-diagonal entries
    # keep their type
    assert [type(T.at(i, i)) for i in range(3)] == [Fraction] * 3
    assert all(type(T.at(i, j)) is int
               for i in range(3) for j in range(3) if i != j)
    Q = SymTensor.diag([QuadExt(1, 1), QuadExt(2), QuadExt(0, -1)])
    U = Q.traceless_part()
    assert U.trace() == 0
    assert U.at(0, 0) == QuadExt(0, 1)
    assert [type(U.at(i, i)) for i in range(3)] == [QuadExt] * 3


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
        assert sym_inner(S, T) == (S.to_matrix() * T.to_matrix()).trace()


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
