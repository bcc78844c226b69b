"""The standard G2 structure on R^7 and its representation-theoretic toolkit.

The associative calibration used throughout is

    phi = e123 + e145 - e167 + e246 + e257 + e347 - e356

with coassociative form psi = *phi and volume e1234567.  The frame
object precomputes, once, the exact orthogonal projectors onto the
irreducible pieces of Lambda^2, Lambda^3 and Lambda^4, the isomorphism
i(S) = S*phi between traceless symmetric tensors and the 27-dimensional
summand, and the linear solver behind the quadratic cocycle b2.

Projectors are built from explicit spanning images (phi itself for the
trivial summand, the contractions e_j -| psi and the wedges e_j ^ phi
for the 7-dimensional ones) instead of hardcoded component tables, so
every sign is forced by the calibration above.  On Lambda^3 and
Lambda^4 the split is applied through those spanning forms, as the
rank-1 and rank-7 type formulas of Bryant (Some remarks on
G2-structures, math/0305124),

    P1 a = <a, phi>/7 phi,   P7 a = sum_j <a, k_j>/|k_j|^2 k_j,
    P27 a = a - P1 a - P7 a,     k_j = e_j -| psi,

with (psi, e_j ^ phi) in place of (phi, k_j) on grade 4.  The split
runs on the integer numerators of a (exterior.numerators) scaled by 28,
the lcm of |phi|^2 = 7 and |k_j|^2 = 4, and divides once at the end.
The dense 35 x 35 matrices of the same projectors are built on the
first projector_matrices call, as the test reference.  The Lambda^2
splitting is derived from the minimal polynomial of a |-> *(phi ^ a)
rather than assumed eigenvalues.

The two exact kernels behind the cubic run on sparse integer data
computed once.  The b2 solve applies the inverse of a 35-row subset of
the 49 x 35 pairing matrix (140 nonzeros, common denominator 4) as
integer rows with one final scaling, and checks the residual, before
that scaling, on the sparse pairing matrix itself (112 entries, all
+-1).  i^{-1} reads each entry S_ij = vol(b ^ (e_i -| psi) ^ e_j)/2 as
a functional of 4 (i = j) or 2 (i != j) signed coefficients of b.

All of these kernels are linear, and all follow one convention: clear
the argument's denominators on entry (b = n/d with integer n, a QuadExt
with int parts for QuadExt coefficients), do every product and sum in
int, and rescale once by a Fraction on exit (1/(2d) for i^{-1}, 1/d for
i and its psi companion).  They stay scalar-generic: each result keeps
the value and the entry type the same computation in the coefficients'
own type gives, so an int tensor still maps to int coefficients under i.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from . import exterior as ext
from .exterior import Form, BLADES_BY_GRADE, FULL_MASK, blade, contract, \
    hodge, inner, merge_sign, vector, vector_form, vol_coefficient, wedge
from .linalg import InconsistentSystemError, Matrix, SymTensor, inverse, solve_exact
from .scalars import clear_denominators

DIM = 7


class TypeDecompositionError(ValueError):
    """A form failed a required type condition (wrong irreducible parts)."""


class InternalConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


def _signed_blades(spec: str, grade: int) -> Form:
    out = Form(grade)
    for token in spec.split():
        sign = -1 if token[0] == "-" else 1
        digits = token.lstrip("+-")
        out = out + blade([int(ch) for ch in digits], sign)
    return out


def standard_phi() -> Form:
    return _signed_blades("123 +145 -167 +246 +257 +347 -356", 3)


def star_action(A: Matrix, a: Form) -> Form:
    """Derived action A*a = sum_i (A e_i) ^ (e_i -| a) of an endomorphism.

    Defined for any endomorphism; on symmetric traceless A restricted to
    phi this is the isomorphism onto the 27-dimensional summand.
    """
    if a.grade < 1:
        raise ext.GradeError("the derived action needs grade >= 1")
    out = Form(a.grade)
    for i in range(DIM):
        col = vector_form(A.column(i))
        out = out + wedge(col, contract(vector(i + 1), a))
    return out


def _outer_projector(forms: list[Form], grade: int) -> Matrix:
    """Orthogonal projector onto the span of the given forms.

    The spanning forms must be pairwise orthogonal with equal nonzero
    norms pairwise orthogonal is all we rely on: the projector is the
    sum of |w><w| / <w,w>.
    """
    blades = BLADES_BY_GRADE[grade]
    n = len(blades)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for w in forms:
        nn = ext.norm_sq(w)
        cvec = ext.form_to_coords(w)
        for i in range(n):
            ci = cvec[i]
            if ci == 0:
                continue
            row = acc[i]
            for j in range(n):
                cj = cvec[j]
                if cj != 0:
                    row[j] += Fraction(ci * cj, nn)
    return Matrix.from_rows(acc)


def _split_spans(span1: list[Form], span7: list[Form]):
    """The spanning forms of the 1- and 7-type summands, each with its
    weight L / |w|^2, and L, the lcm of their squared norms.  The forms
    in each list must be pairwise orthogonal."""
    for forms in (span1, span7):
        for i, w in enumerate(forms):
            if any(inner(w, v) != 0 for v in forms[:i]):
                raise InternalConsistencyError("spanning forms are not orthogonal")
    L = lcm(*(ext.norm_sq(w) for w in span1 + span7))
    return ([(w, L // ext.norm_sq(w)) for w in span1],
            [(w, L // ext.norm_sq(w)) for w in span7], L)


def _span_sum(a: Form, spanning: list[tuple[Form, int]]) -> dict:
    """L times the orthogonal projection sum_w <a, w>/<w, w> w onto the
    span of pairwise orthogonal forms, as sum_w <a, w> (L/|w|^2) w."""
    terms = {}
    for w, weight in spanning:
        c = inner(a, w)
        if c == 0:
            continue
        c = c * weight
        for m, d in w.terms.items():
            terms[m] = terms.get(m, 0) + c * d
    return terms


def _type_split(a: Form, span1, span7, L: int) -> tuple[Form, Form, Form]:
    """(P1 a, P7 a, P27 a) with P27 = 1 - P1 - P7.

    The sums run on the integer numerators n = d a, scaled by L, so
    every division happens in the one rescale by 1/(L d); a blade that
    neither P1 a nor P7 a touches keeps its coefficient in P27 a.
    """
    (n,), d = ext.numerators(a)
    scale = Fraction(1, L * d)
    t1 = _span_sum(n, span1)
    t7 = _span_sum(n, span7)
    p1 = Form(a.grade, {m: scale * c for m, c in t1.items()})
    p7 = Form(a.grade, {m: scale * c for m, c in t7.items()})
    terms = dict(a.terms)
    nt = n.terms
    for m in p1.terms.keys() | p7.terms.keys():
        terms[m] = scale * (L * nt.get(m, 0) - t1.get(m, 0) - t7.get(m, 0))
    return p1, p7, Form(a.grade, terms)


def _rational_sqrt(x: Fraction) -> Fraction:
    if x < 0:
        raise ValueError("negative discriminant")
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError(f"{x} is not a rational square")
    return Fraction(rn, rd)


class G2Frame:
    """Precomputed exact data of the standard G2 structure."""

    def __init__(self):
        self.phi = standard_phi()
        self.psi = hodge(self.phi)
        self.vol = wedge(self.phi, self.psi) * Fraction(1, 7)
        if vol_coefficient(self.vol) != 1:
            raise InternalConsistencyError("phi ^ psi != 7 vol")

        # contractions e_j -| psi span Lambda^3_7; wedges e_j ^ phi span
        # Lambda^4_7.  Cached here and reused by hat/extracts below.
        self.kappa = [contract(vector(j), self.psi) for j in range(1, 8)]
        self.phi_wedges = [wedge(vector(j), self.phi) for j in range(1, 8)]
        self._span3 = _split_spans([self.phi], self.kappa)
        self._span4 = _split_spans([self.psi], self.phi_wedges)

        self._p2, self.two_form_eigenvalues = self._grade2_projectors()

        # pairing forms chi_ij = (e_i -| psi) ^ e_j, the kernel of the
        # inverse isomorphism via i(S) ^ (v1 -| psi) ^ v2 = 2 g(S v1, v2) vol.
        # Each has 4 blades m on the diagonal and 2 off it, so
        # vol_coefficient(b ^ chi_ij) is the functional
        # sum of sign(m^c, m) chi_ij[m] b[m^c] over them.
        self._inv_functionals = [
            [tuple((FULL_MASK ^ m, merge_sign(FULL_MASK ^ m, m) * c)
                   for m, c in wedge(self.kappa[i], vector(j + 1)).terms.items())
             for j in range(DIM)]
            for i in range(DIM)]

        self._pairing_matrix = self._build_pairing_matrix()
        self._pairing_sparse = _sparse_integer_rows(self._pairing_matrix)
        self._inverse_sparse, self._inverse_scale = self._build_pairing_solver()

    # -- construction helpers -------------------------------------------

    # the dense grade-3/4 projectors are only the reference for the
    # low-rank split, so they are built on first use
    @cached_property
    def _p3(self):
        n = len(BLADES_BY_GRADE[3])
        p1 = _outer_projector([self.phi], 3)
        p7 = _outer_projector(self.kappa, 3)
        p27 = Matrix.identity(n) - p1 - p7
        return p1, p7, p27

    @cached_property
    def _p4(self):
        n = len(BLADES_BY_GRADE[4])
        p1 = _outer_projector([self.psi], 4)
        p7 = _outer_projector(self.phi_wedges, 4)
        p27 = Matrix.identity(n) - p1 - p7
        return p1, p7, p27

    def _grade2_projectors(self):
        blades2 = BLADES_BY_GRADE[2]
        n = len(blades2)
        cols = []
        for m in blades2:
            tm = hodge(wedge(self.phi, Form(2, {m: 1})))
            cols.append(ext.form_to_coords(tm))
        T = Matrix.from_rows(cols).transpose()
        T2 = T * T
        # derive the minimal polynomial T^2 = c1 T + c0: a 2-parameter
        # exact least-squares-free solve over all matrix entries
        rows, rhs = [], []
        for i in range(n):
            for j in range(n):
                rows.append([T.at(i, j), 1 if i == j else 0])
                rhs.append(T2.at(i, j))
        (c1, c0), _ = solve_exact(Matrix.from_rows(rows), rhs)
        disc = _rational_sqrt(c1 * c1 + 4 * c0)
        if disc == 0:
            raise InternalConsistencyError("wedge operator has a repeated eigenvalue")
        lam_a = (c1 + disc) / 2
        lam_b = (c1 - disc) / 2
        proj_a = (T - lam_b * Matrix.identity(n)) * Fraction(1, lam_a - lam_b)
        proj_b = Matrix.identity(n) - proj_a
        if proj_a.trace() == 7:
            p7, p14, lam7, lam14 = proj_a, proj_b, lam_a, lam_b
        elif proj_b.trace() == 7:
            p7, p14, lam7, lam14 = proj_b, proj_a, lam_b, lam_a
        else:
            raise InternalConsistencyError("eigenspace dimensions are not 7 + 14")
        return (p7, p14), (lam7, lam14)

    def _build_pairing_matrix(self) -> Matrix:
        """Matrix of gamma |-> (gamma ^ (e_j -| psi))_j, Lambda^3 -> R^49."""
        rows = [[Fraction(0)] * 35 for _ in range(49)]
        for col, m in enumerate(BLADES_BY_GRADE[3]):
            gamma = Form(3, {m: 1})
            for j in range(DIM):
                w = wedge(gamma, self.kappa[j])
                for pos, mm in enumerate(BLADES_BY_GRADE[6]):
                    c = w.terms.get(mm)
                    if c:
                        rows[j * DIM + pos][col] = Fraction(c)
        return Matrix.from_rows(rows)

    def _build_pairing_solver(self):
        """The inverse of an invertible 35-row subset of the pairing
        matrix, as sparse integer rows over all 49 right-hand positions
        and one common scale 1/d."""
        M = self._pairing_matrix
        # independent rows of M = pivot columns of M^T
        pivots = _echelon_pivot_columns(M.transpose())
        if len(pivots) != 35:
            raise InternalConsistencyError(
                f"contraction pairing map has rank {len(pivots)}, expected 35")
        inv = inverse(Matrix.from_rows([M.row(r) for r in pivots]))
        d = lcm(*(Fraction(x).denominator for x in inv.entries))
        rows = _sparse_integer_rows(inv * d)
        return [[(pivots[k], c) for k, c in row] for row in rows], Fraction(1, d)

    # -- projections ------------------------------------------------------

    def _apply(self, P: Matrix, a: Form) -> Form:
        return ext.form_from_coords(a.grade, P.apply(ext.form_to_coords(a)))

    def project2(self, a: Form) -> tuple[Form, Form]:
        """Split a 2-form into its (7, 14)-dimensional parts."""
        if a.grade != 2:
            raise ext.GradeError("project2 needs a 2-form")
        return self._apply(self._p2[0], a), self._apply(self._p2[1], a)

    def project3(self, a: Form) -> tuple[Form, Form, Form]:
        """Split a 3-form into its (1, 7, 27)-dimensional parts."""
        if a.grade != 3:
            raise ext.GradeError("project3 needs a 3-form")
        return _type_split(a, *self._span3)

    def project4(self, a: Form) -> tuple[Form, Form, Form]:
        """Split a 4-form into its (1, 7, 27)-dimensional parts."""
        if a.grade != 4:
            raise ext.GradeError("project4 needs a 4-form")
        return _type_split(a, *self._span4)

    def projector_matrices(self, grade: int) -> tuple[Matrix, ...]:
        """Dense projector matrices, in the order project2/3/4 returns
        the parts; on grades 3 and 4 they are the reference that the
        low-rank split is tested against."""
        if grade == 2:
            return self._p2
        if grade == 3:
            return self._p3
        if grade == 4:
            return self._p4
        raise ext.GradeError("projectors exist for grades 2, 3, 4")

    # -- metric recovery --------------------------------------------------

    def metric_from_structure(self, three_form: Form | None = None) -> Matrix:
        """Recover the metric from a calibration via
        (v -| a) ^ (w -| a) ^ a = -6 g(v, w) vol.

        Scaling the 3-form by t scales the recovered entries by t^3 (the
        volume form is held fixed), so this is only the metric for the
        normalized calibration.
        """
        a = self.phi if three_form is None else three_form
        cons = [contract(vector(i), a) for i in range(1, 8)]
        minus6 = Fraction(-1, 6)
        return Matrix.from_rows(
            [[minus6 * vol_coefficient(wedge(wedge(cons[i], cons[j]), a))
              for j in range(DIM)] for i in range(DIM)])

    # -- the 27-dimensional isomorphism ------------------------------------

    def iso_i(self, S: SymTensor) -> Form:
        """i(S) = S*phi, from traceless symmetric tensors into Lambda^3_27."""
        if S.trace() != 0:
            raise TypeDecompositionError("iso_i needs a traceless tensor")
        return self._star(S, self.phi)

    def iso_i_psi(self, S: SymTensor) -> Form:
        """S*psi, the grade-4 companion with *(S*psi) = -S*phi."""
        return self._star(S, self.psi)

    def _star(self, S: SymTensor, a: Form) -> Form:
        """S*a, by the derived action of the integer numerators of S and
        one rescale by 1/d; an int tensor gives int coefficients."""
        entries = [x for row in S.entries for x in row]
        ints, d = clear_denominators(entries)
        out = star_action(Matrix(DIM, DIM, ints), a)
        return out if ints is entries else out * Fraction(1, d)

    def iso_i_inv(self, b: Form) -> SymTensor:
        """Invert i on Lambda^3_27.

        Entries come from the pairing b ^ (e_i -| psi) ^ e_j = 2 S_ij vol.
        Raises TypeDecompositionError when b has a nonzero component in
        the 1- or 7-dimensional summand.
        """
        if b.grade != 3:
            raise ext.GradeError("iso_i_inv needs a 3-form")
        (n,), d = ext.numerators(b)
        p1, p7, _ = self.project3(n)
        if not p1.is_zero() or not p7.is_zero():
            raise TypeDecompositionError(
                "form has components outside the 27-dimensional summand")
        scale = Fraction(1, 2 * d)
        nt = n.terms
        # all 49 entries, so that symmetry and trace stay real checks; a
        # sum that cancels is taken as int 0, so that entry is Fraction(0)
        # for every scalar type, as vol_coefficient(b ^ chi_ij) gives it
        sums = [[sum(c * nt[m] for m, c in functional if m in nt)
                 for functional in row] for row in self._inv_functionals]
        if any(sums[i][j] != sums[j][i]
               for i in range(DIM) for j in range(i + 1, DIM)):
            raise InternalConsistencyError("recovered tensor is not symmetric")
        if sum(sums[i][i] for i in range(DIM)) != 0:
            raise InternalConsistencyError("recovered tensor is not traceless")
        return SymTensor.from_upper([[scale * (x if x else 0) for x in row[i:]]
                                     for i, row in enumerate(sums)])

    def extract_v7(self, a: Form) -> Form:
        """Vector part of a 4-form: V with P_7 a = V ^ phi, recovered from
        a ^ (v -| psi) = -4 g(V, v) vol."""
        if a.grade != 4:
            raise ext.GradeError("extract_v7 needs a 4-form")
        quarter = Fraction(-1, 4)
        return vector_form([quarter * vol_coefficient(wedge(a, self.kappa[j]))
                            for j in range(DIM)])

    def hat(self, a: Form) -> Form:
        """The 3-form solving hat(a) ^ (v -| psi) + phi ^ (v -| a) = 0,
        computed typewise as -*a_1 + *a_7 - *a_27."""
        if a.grade != 4:
            raise ext.GradeError("hat needs a 4-form")
        a1, a7, a27 = self.project4(a)
        return -hodge(a1) + hodge(a7) - hodge(a27)

    # -- the cocycle linear solver -----------------------------------------

    def pairing_matrix(self) -> Matrix:
        """The injective 49 x 35 matrix of gamma |-> (gamma ^ (e_j -| psi))_j."""
        return self._pairing_matrix

    def solve_three_form(self, rhs_blocks: list[Form]) -> Form:
        """Solve gamma ^ (e_j -| psi) = rhs_j for gamma in Lambda^3.

        Takes the 7 right-hand 6-forms, solves on a cached invertible
        row subset, then verifies all 49 equations; raises
        InconsistentSystemError naming the first equation that fails if
        the stack is not in the image.  Both steps run on sparse integer
        rows (the inverse carries one common denominator, applied once
        per unknown), so any scalar type goes through.
        """
        if len(rhs_blocks) != DIM:
            raise ValueError("need 7 right-hand blocks")
        rhs = []
        for w in rhs_blocks:
            if w.grade != 6:
                raise ext.GradeError("right-hand blocks must be 6-forms")
            rhs.extend(ext.form_to_coords(w))
        # y = d x: the residual is checked on y against d rhs, and the
        # Fraction 1/d is applied once per unknown at the end, which keeps
        # an int-only right-hand side exact (int / int would be a float)
        scale = self._inverse_scale
        d = scale.denominator
        y = [sum(c * rhs[r] for r, c in row) for row in self._inverse_sparse]
        for row, (terms, want) in enumerate(zip(self._pairing_sparse, rhs)):
            if sum(c * y[k] for k, c in terms) != d * want:
                raise InconsistentSystemError(row)
        return ext.form_from_coords(3, [scale * v for v in y])


def _sparse_integer_rows(M: Matrix) -> list[list[tuple[int, int]]]:
    """The nonzero entries of an integer matrix as (column, int) pairs,
    row by row."""
    rows = []
    for i in range(M.rows):
        row = []
        for k, x in enumerate(M.row(i)):
            if x:
                if Fraction(x).denominator != 1:
                    raise InternalConsistencyError("matrix is not integral")
                row.append((k, int(x)))
        rows.append(row)
    return rows


def _echelon_pivot_columns(M: Matrix) -> list[int]:
    from .linalg import _echelon
    rows = M.to_rows()
    track = list(range(M.rows))
    return [c for _, c in _echelon(rows, M.cols, track)]


_frame_lock = threading.Lock()
_frame: G2Frame | None = None


def standard_frame() -> G2Frame:
    """The shared frame for the standard calibration (built once)."""
    global _frame
    if _frame is None:
        with _frame_lock:
            if _frame is None:
                _frame = G2Frame()
    return _frame


def two_form_endo(beta: Form) -> Matrix:
    """Skew endomorphism A with g(A u, w) = beta(u, w)."""
    if beta.grade != 2:
        raise ext.GradeError("two_form_endo needs a 2-form")
    entries = [[0] * DIM for _ in range(DIM)]
    for m, c in beta.terms.items():
        i, j = ext.blade_indices(m)
        # g(A e_j, e_i) = beta(e_j, e_i): column j row i gets -c
        entries[i - 1][j - 1] = -c
        entries[j - 1][i - 1] = c
    return Matrix.from_rows(entries)


def random_traceless(rng, bound: int = 6) -> SymTensor:
    """Small-height random traceless symmetric tensor (test utility)."""
    entries = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            v = Fraction(rng.randint(-bound, bound))
            entries[i][j] = v
            entries[j][i] = v
    t = sum(entries[i][i] for i in range(DIM))
    entries[6][6] -= t
    return SymTensor(entries, traceless=True)
