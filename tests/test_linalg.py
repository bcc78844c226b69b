"""Exact dense linear algebra and symmetric tensors."""

import random
from fractions import Fraction

import pytest

from g2forge import linalg
from g2forge.exterior import BLADES_BY_GRADE, Form, form_to_coords
from g2forge.linalg import InconsistentSystemError, Matrix, SymTensor, \
    rank, solve_exact, upper_inner
from g2forge.scalars import QuadExt

import reference


def _random_matrix(rng, rows, cols, bound=6):
    return Matrix.from_rows([[Fraction(rng.randint(-bound, bound))
                              for _ in range(cols)] for _ in range(rows)])


def test_rank_examples():
    assert rank(reference.diagonal([1] * 5)) == 5
    assert rank(reference.zeros(3, 4)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_product_bound_random():
    rng = random.Random(5)
    for _ in range(50):
        A = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        B = _random_matrix(rng, A.cols, rng.randint(1, 5))
        assert rank(reference.product(A, B)) <= min(rank(A), rank(B))


def test_matrix_offers_neither_negation_nor_a_product():
    """A Matrix compares by shape and entries and has no arithmetic: a
    negation, a product with a Matrix or a scalar on either side, a sum
    and a difference are declined; the tests' matrix product is
    reference.product."""
    A = Matrix.from_rows([[1, 2], [3, 4]])
    assert A == Matrix.from_rows([[1, 2], [3, 4]])
    assert A != Matrix.from_rows([[1, 2], [3, 5]])
    assert A != Matrix.from_rows([[1, 2, 3, 4]])
    one = Matrix.from_rows([[1]])
    for operation in (lambda: -A, lambda: A * A, lambda: one * 2,
                      lambda: 2 * one, lambda: A + A, lambda: A - A):
        with pytest.raises(TypeError):
            operation()


def test_symtensor_compares_by_value_and_has_no_arithmetic():
    """Two tensors with equal triangles are equal, whatever object holds
    them, and unequal triangles differ; sums, differences and negation
    are declined."""
    S = SymTensor.from_upper(list(range(28)))
    assert S == SymTensor.from_upper(list(range(28))) == SymTensor(S.entries)
    assert S != SymTensor.from_upper(list(range(1, 29)))
    for operation in (lambda: S + S, lambda: S - S, lambda: -S):
        with pytest.raises(TypeError):
            operation()


def _echelon_rank(A):
    # the Gauss-Jordan reference: the pivots of the reduced echelon form
    return reference.gauss_jordan_rank(A)


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
    rows = reference.rows_of(A)
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
        blocks.append(reference.product(_draw(rng, r, k, draw),
                                        _draw(rng, k, c, draw))
                      if k else reference.zeros(r, c))
    width = sum(B.cols for B in blocks)
    rows, col = [], 0
    for B in blocks:
        rows += [[0] * col + row + [0] * (width - col - B.cols)
                 for row in reference.rows_of(B)]
        col += B.cols
    rng.shuffle(rows)
    order = rng.sample(range(width), width)
    return Matrix.from_rows([[row[j] for j in order] for row in rows])


def _common_factors(rng, A):
    # each row times its own integer, so a row's entries share a factor
    return Matrix.from_rows([[rng.randint(2, 30) * x for x in row]
                             for row in reference.rows_of(A)])


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
            AB = reference.product(_draw(rng, rows, k, draw),
                                   _draw(rng, k, cols, draw)) \
                if k else reference.zeros(rows, cols)
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


def test_rank_makes_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(43)
    A = _draw(rng, 6, 8, _ENTRIES["fraction"])
    B = _draw(rng, 8, 5, _ENTRIES["int"])
    expected = [_echelon_rank(A), _echelon_rank(B)]
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
    # an int system is eliminated over Z and each pivot unknown is one
    # Fraction, its right-hand side over its pivot; a free variable is
    # the int 0
    A = Matrix.from_rows([[2, 4, 1], [0, 3, 0]])
    sol, kdim = solve_exact(A, [5, 6])
    assert (sol, kdim) == ([Fraction(-3, 2), 2, 0], 1)
    assert [type(x) for x in sol] == [Fraction, Fraction, int]
    sol, _ = solve_exact(reference.diagonal([1, 1]), [3, 4])
    assert [type(x) for x in sol] == [Fraction, Fraction]


def test_solve_exact_detects_inconsistency():
    A = Matrix.from_rows([[1, 0], [1, 0]])
    with pytest.raises(InconsistentSystemError):
        solve_exact(A, [1, 2])


def _solves_alike(A, b):
    # solve_exact against the Gauss-Jordan oracle: the same solution and
    # kernel dimension with the same entry types, or the same original
    # row named as inconsistent
    try:
        want = reference.gauss_jordan_solve(A, b)
    except InconsistentSystemError as err:
        with pytest.raises(InconsistentSystemError) as got:
            solve_exact(A, b)
        assert got.value.row == err.row
        return False
    got = solve_exact(A, b)
    assert got == want
    assert [type(x) for x in got[0]] == [type(x) for x in want[0]]
    return True


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
def test_solve_exact_matches_gauss_jordan(kind):
    """Square, tall and wide systems of each entry kind, full rank and
    through a narrow middle, with a zero row, a duplicated row and a
    zero column put in, with rows scaled by common factors, and the
    permuted rank-deficient blocks: each with a right-hand side in the
    column space and with a random one, which a tall or deficient
    system mostly cannot meet."""
    rng = random.Random(47)
    draw = _ENTRIES[kind]
    solved = inconsistent = 0
    for _ in range(25):
        n = rng.randint(1, 6)
        systems = []
        for rows, cols in ((n, n), (n + rng.randint(1, 3), n),
                           (n, n + rng.randint(1, 3))):
            A = _draw(rng, rows, cols, draw)
            k = rng.randint(0, min(rows, cols) - 1)
            AB = reference.product(_draw(rng, rows, k, draw),
                                   _draw(rng, k, cols, draw)) \
                if k else reference.zeros(rows, cols)
            systems += [A, AB, _degenerate(rng, A), _degenerate(rng, AB),
                        _common_factors(rng, A), _common_factors(rng, AB)]
        P = _permuted_blocks(rng, draw)
        systems += [P, _common_factors(rng, P)]
        for M in systems:
            x = [draw(rng) for _ in range(M.cols)]
            for b in (M.apply(x), [draw(rng) for _ in range(M.rows)]):
                if _solves_alike(M, b):
                    solved += 1
                else:
                    inconsistent += 1
    # both outcomes are exercised
    assert solved > 100 and inconsistent > 100


def test_solve_exact_makes_one_fraction_per_pivot_unknown(monkeypatch):
    """On an int system the elimination and the back pass run on ints:
    the only Fractions built are the pivot unknowns, one division each."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(53)
    for rows, cols, k in ((4, 4, 4), (6, 4, 3), (3, 5, 3), (5, 5, 2)):
        A = reference.product(_draw(rng, rows, k, _ENTRIES["int"]),
                              _draw(rng, k, cols, _ENTRIES["int"]))
        b = A.apply([rng.randint(-3, 3) for _ in range(cols)])
        pivots = reference.gauss_jordan_rank(A)
        made.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        x, kernel_dim = solve_exact(A, b)
        monkeypatch.undo()
        assert len(made) == pivots == cols - kernel_dim
        assert sum(type(v) is Fraction for v in x) == pivots


def test_symtensor_construction_checks():
    entries = [[Fraction(i + j) for j in range(7)] for i in range(7)]
    entries[0][1] += 1
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        SymTensor(entries)
    entries = [[Fraction(i + j) for j in range(7)] for i in range(7)]
    entries[5][2] += Fraction(1, 7)
    with pytest.raises(ValueError):
        SymTensor(entries)
    for size in (27, 29):
        with pytest.raises(ValueError, match=f"need 28 upper entries, got {size}"):
            SymTensor.from_upper(list(range(size)))
    for square in ([[1, 0], [0, 1]], [[0] * 7] * 6, [[0] * 7] * 6 + [[0] * 6]):
        with pytest.raises(ValueError, match="need a 7x7 square"):
            SymTensor(square)
    with pytest.raises(ValueError, match="need 7 diagonal entries, got 3"):
        SymTensor.diag([1, -1, 0])
    for v in ([1, 2, 3], list(range(8))):
        with pytest.raises(ValueError, match="need two vectors of length 7"):
            SymTensor.sym_outer(v, v)
    with pytest.raises(ValueError, match="vector length mismatch"):
        SymTensor.diag(range(7)).apply([1, 2, 3])
    identity = [[int(i == j) for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError, match="trace is nonzero"):
        SymTensor(identity, traceless=True)
    identity[6][6] = -6
    SymTensor(identity, traceless=True)


def test_symtensor_layout():
    """The flat triangle is the only stored form: entry k of from_upper's
    list is entry (i, j) of the square and its mirror (j, i), for the
    k-th (i, j) of the rows from the diagonal on (reference.UPPER), and
    a tensor rebuilt from its square equals it."""
    assert linalg.TRIANGLE == tuple(reference.UPPER)
    assert linalg.DIAGONAL == tuple(k for k, (i, j) in
                                    enumerate(reference.UPPER) if i == j)
    t = list(range(1, 29))
    S = SymTensor.from_upper(t)
    for k, (i, j) in enumerate(reference.UPPER):
        assert S.entries[i][j] == S.entries[j][i] == t[k]
    assert S.trace() == sum(t[k] for k in linalg.DIAGONAL)
    rng = random.Random(33)
    for draw in _SCALARS.values():
        S = SymTensor.from_upper([draw(rng) for _ in range(28)])
        assert SymTensor(S.entries) == S


def test_sym_outer_and_inner():
    v = [Fraction(1), Fraction(2), Fraction(0), Fraction(-1), Fraction(3),
         Fraction(0), Fraction(2)]
    w = [Fraction(0), Fraction(1), Fraction(3), Fraction(2), Fraction(0),
         Fraction(-1), Fraction(1)]
    S = SymTensor.sym_outer(v, w)
    assert S.entries[0][1] == Fraction(1, 2)
    assert S.entries[1][1] == 2
    # tr((v.w)(a.b)) expands by polarization
    T = SymTensor.sym_outer(v, v)
    dot = sum(x * y for x, y in zip(v, w))
    vv = sum(x * x for x in v)
    assert upper_inner(S.upper, T.upper) == dot * vv


def test_traceless_part():
    S = SymTensor.diag([3, 1, 2, 0, -1, 4, 5])
    T = reference.traceless_part(S)
    assert T.trace() == 0
    assert T.entries == reference.rows_of(
        reference.diagonal([1, -1, 0, -2, -3, 2, 3]))
    # the shifted diagonal is exact (never float); off-diagonal entries
    # keep their type
    assert [type(T.entries[i][i]) for i in range(7)] == [Fraction] * 7
    assert all(type(T.entries[i][j]) is int
               for i in range(7) for j in range(7) if i != j)
    Q = SymTensor.diag([QuadExt(1, 1), QuadExt(2), QuadExt(0, -1), QuadExt(1),
                        QuadExt(0), QuadExt(2, 1), QuadExt(1, -1)])
    U = reference.traceless_part(Q)
    assert U.trace() == 0
    assert U.entries[0][0] == QuadExt(0, 1)
    assert [type(U.entries[i][i]) for i in range(7)] == [QuadExt] * 7


def test_sym_inner_symmetric_random():
    rng = random.Random(7)
    for _ in range(40):
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(7)] for _ in range(7)]
        for i in range(7):
            for j in range(i):
                A[i][j] = A[j][i]
        B = [[Fraction(rng.randint(-4, 4)) for _ in range(7)] for _ in range(7)]
        for i in range(7):
            for j in range(i):
                B[i][j] = B[j][i]
        S, T = SymTensor(A), SymTensor(B)
        trace = reference.trace(reference.product(S.to_matrix(), T.to_matrix()))
        assert upper_inner(S.upper, T.upper) == \
            upper_inner(T.upper, S.upper) == trace
        assert reference.sym_inner(S, T) == reference.sym_inner(T, S) == trace


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
def test_symtensor_scale_and_products_match_full_square(kind):
    """A multiple, a symmetric product and the pairing, each on the
    triangle, against the full square entry by entry with the same
    scalar types."""
    rng = random.Random(29)
    draw = _SCALARS[kind]
    half = Fraction(1, 2)
    n = 7
    for _ in range(20):
        A, B = _random_symmetric(rng, n, draw), _random_symmetric(rng, n, draw)
        S, T = SymTensor(A), SymTensor(B)
        s = draw(rng)
        _assert_square(S.scale(s), [[s * A[i][j] for j in range(n)]
                                    for i in range(n)])
        v = [draw(rng) for _ in range(n)]
        w = [draw(rng) for _ in range(n)]
        _assert_square(SymTensor.sym_outer(v, w),
                       [[half * (v[i] * w[j] + v[j] * w[i]) for j in range(n)]
                        for i in range(n)])
        assert upper_inner(S.upper, T.upper) == sum(
            A[i][j] * B[i][j] for i in range(n) for j in range(n))


def test_sym_inner_types_follow_the_entries():
    # the pairing of two triangles keeps the entries' type: int tensors
    # give an int, a Fraction in either gives a Fraction, the same object
    # or not, as the Fraction oracle does
    rng = random.Random(31)
    for _ in range(20):
        A = _random_symmetric(rng, 7, lambda r: r.randint(-5, 5))
        B = _random_symmetric(rng, 7, lambda r: Fraction(r.randint(-5, 5),
                                                         r.randint(1, 6)))
        S, T = SymTensor(A), SymTensor(B)
        for X, Y, kind in ((S, S, int), (S, SymTensor(A), int),
                           (S, T, Fraction), (T, S, Fraction),
                           (T, T, Fraction)):
            got, want = upper_inner(X.upper, Y.upper), reference.sym_inner(X, Y)
            assert type(got) is type(want) is kind
            assert got == want


@pytest.mark.parametrize("kind", sorted(_SCALARS))
def test_upper_inner_is_the_trace_of_the_product(kind):
    """upper_inner on two flat triangles is tr(AB) on their full squares,
    in the entries' own arithmetic."""
    rng = random.Random(37)
    draw = _SCALARS[kind]
    for _ in range(20):
        A, B = _random_symmetric(rng, 7, draw), _random_symmetric(rng, 7, draw)
        want = sum(A[i][j] * B[j][i] for i in range(7) for j in range(7))
        got = linalg.upper_inner(reference.upper_of(A), reference.upper_of(B))
        assert got == want
        assert type(got) is type(want)
