"""The standard G2 structure on R^7 and its representation-theoretic toolkit.

The associative calibration used throughout is

    phi = e123 + e145 - e167 + e246 + e257 + e347 - e356

with coassociative form psi = *phi and volume e1234567.  The frame
object computes, once, the spanning forms of the irreducible pieces of
Lambda^2, Lambda^3 and Lambda^4, the isomorphism i(S) = S*phi between
traceless symmetric tensors and the 27-dimensional summand, and the
sparse pairing matrix behind the quadratic cocycle b2.

Projectors are built from explicit spanning images (phi itself for the
trivial summand, the contractions e_j -| psi and the wedges e_j ^ phi
for the 7-dimensional ones) instead of hardcoded component tables, so
every sign is forced by the calibration above.  Each is kept once, as
a unit functional with its weight (_split_spans): one table that pairs
as a signed sum and is the form the projection adds.  On Lambda^3 and
Lambda^4 the split applies them
as the rank-1 and rank-7 type formulas of Bryant (Some remarks on
G2-structures, math/0305124),

    P1 a = <a, phi>/7 phi,   P7 a = sum_j <a, k_j>/|k_j|^2 k_j,
    P27 a = a - P1 a - P7 a,     k_j = e_j -| psi,

with (psi, e_j ^ phi) in place of (phi, k_j) on grade 4.  The split
runs on the integer numerators of a (exterior.numerators) scaled by 28,
the lcm of |phi|^2 = 7 and |k_j|^2 = 4, and divides once at the end.
Lambda^2 splits the same way, low-rank, with no singlet: P7 a = sum_j
<a, e_j -| phi>/3 e_j -| phi and P14 = 1 - P7.  On 4-forms, hat(a) =
-*a_1 + *a_7 - *a_27 = *(2 P7 a - a) and the vector part V of
P7 a = V ^ phi, V_j = <a, e_j ^ phi>/4, need only the rank-7 part, and
the type-27 gate is_pure27 only the eight tables of Lambda^3.  No dense
projector matrix is built here; the dense references the split is
tested against live in tests/reference.py.

i and i^{-1} are the two directions of one integer table: with
chi_ij = (e_i -| psi) ^ e_j, vol(b ^ chi_ij) = <b, f_ij> for 3-forms
f_ij of 4 (i = j) or 2 blades with coefficients +-1, 112 entries in all.
i^{-1} reads S_ij = <b, f_ij>/2 on Lambda^3_27, and i(S) = sum_ij S_ij
f_ij: by Schur's lemma the equivariant map b |-> (<b, f_ij>)_ij sends
Lambda^3_1 to multiples of g and Lambda^3_7 to skew tensors, so for
traceless symmetric S the sum pairs to zero with both and lies in
Lambda^3_27, where it pairs with every b as 2 <S, i^{-1} b> = <i(S), b>
(|i(S)|^2 = 2 |S|^2).  S*psi = -*i(S); no derived action runs.  Both
directions pass linalg's flat upper triangle: i reads S.upper through
functionals built over linalg.TRIANGLE, and iso_i_inv_upper returns the
49 sums at the positions of TRIANGLE.

The b2 solve runs on integer data computed once, too.  The pairing map
M: gamma |-> (gamma ^ (e_j -| psi))_j, Lambda^3 -> R^49, is
G2-equivariant, so by Schur's lemma M^T M = 16 P1 + 6 P7 + 2 P27 (the
build checks it on phi, e_1 -| psi and one 27-type form) and the solve
is gamma = (P1/16 + P7/6 + P27/2) M^T rhs: M^T rhs is the sum of the 49
rows of M (3-form functionals, 112 entries, all +-1) weighted by rhs,
then the type split above, with the weights over D = 48 L.
solve_three_form_numerators returns x = D gamma, its 49 equations
checked as the 49 sums of x against the rows; b2 folds D into its one
rescale, and
solve_three_form flattens its 6-forms and clears their denominators d
to divide by D d.  Building a frame runs no elimination.

All of these kernels are linear: they clear the argument's denominators
on entry (b = n/d, a QuadExt with int parts for QuadExt coefficients),
do every product and sum in int and divide once on exit (scalars.over),
so each result keeps the value and entry type of the same computation
in the coefficients' own type; hat divides every blade, so its entries
are Fractions for int input too.  A longer composition (q2, Q and P in
cubic, the cubic in aw) chains the int parts, i on an int tensor,
iso_i_inv_upper with its type gate is_pure27 (the eight pairings with
phi and the e_j -| psi) and solve_three_form_numerators, and divides
once at its own end.  require_pure27 is the one gate that raises on a
form outside Lambda^3_27, with the caller's text or OUTSIDE_27.

Every table these kernels read, the spanning forms of the three splits,
the f_ij and the rows of M, has coefficients +-1, checked when the
frame is built, and all are kept in one format, built in the
constructor: a list of unit functionals, (blade, +-1) pairs
(_unit_functional), and the same list blade-major (_blade_index).  One
kernel reads them, _scattered_sums: each blade of the form is added to
or subtracted from the sums that read it, so a sparse form costs its
own blades and every sum is still taken on its own.  One helper,
_expanded, writes sums back as the form sum_k c_k f_k: the projections,
i and M^T.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm

from . import exterior as ext
from .exterior import Form, BLADES_BY_GRADE, FULL_MASK, blade, contract, \
    hodge, merge_sign, vector, vector_form, vol_coefficient, wedge
from .linalg import DIAGONAL, TRIANGLE, InconsistentSystemError, Matrix, \
    SymTensor
from .scalars import clear_denominators, over

DIM = 7
# M^T M on the (1, 7, 27) types of Lambda^3, M the pairing matrix
_NORMAL_EIGENVALUES = (16, 6, 2)


class TypeDecompositionError(ValueError):
    """A form failed a required type condition (wrong irreducible parts)."""


# the text of a failed type-27 gate where the caller names no form
OUTSIDE_27 = "form has components outside the 27-dimensional summand"


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
    phi this is the isomorphism onto the 27-dimensional summand.  One
    pass over the blades of a: each factor e_i of a blade e^m is
    replaced by the nonzero entries A_ki e_k of column i, e_i -| e^m =
    s e^{m - i} and e_k ^ e^{m - i} signed by merge_sign, into one
    terms dict.
    """
    if a.grade < 1:
        raise ext.GradeError("the derived action needs grade >= 1")
    if (A.rows, A.cols) != (DIM, DIM):
        raise ValueError(f"the derived action needs a {DIM}x{DIM} matrix")
    columns = [[(1 << k, x) for k, x in enumerate(A.column(i)) if x]
               for i in range(DIM)]
    terms = {}
    for m, c in a.terms.items():
        for i in range(DIM):
            bit = 1 << i
            if not m & bit:
                continue
            rest = m ^ bit
            sign = merge_sign(bit, rest)
            for mk, x in columns[i]:
                if mk & rest:
                    continue
                t = sign * merge_sign(mk, rest) * x * c
                key = mk | rest
                acc = terms.get(key)
                terms[key] = t if acc is None else acc + t
    return Form(a.grade, terms)


def first_difference(got, want) -> str:
    """Where two unequal forms, or two unequal matrices of one shape,
    first differ and both values there: the least blade of a form, the
    first entry of a matrix in row order.  The text of a failed check."""
    if isinstance(got, Form):
        m = min((got - want).terms, key=ext.blade_indices)
        return (f"e{''.join(map(str, ext.blade_indices(m)))} is "
                f"{got.terms.get(m, 0)}, not {want.terms.get(m, 0)}")
    k = next(k for k, (x, y) in enumerate(zip(got.entries, want.entries))
             if x != y)
    return (f"entry {divmod(k, got.cols)} is {got.entries[k]}, "
            f"not {want.entries[k]}")


def _unit_functional(pairs) -> tuple:
    """A linear functional b |-> sum_m c b[m] as its (m, c) pairs, every
    c +1 or -1, so that it pairs as a signed sum (_scattered_sums) with
    no product; raises InternalConsistencyError naming the first blade
    with any other coefficient."""
    pairs = tuple(pairs)
    for m, c in pairs:
        if c not in (1, -1):
            raise InternalConsistencyError(
                "a pairing functional has a coefficient other than +-1: "
                f"e{''.join(map(str, ext.blade_indices(m)))} has {c}")
    return pairs


def _blade_index(functionals: list[tuple], grade: int) -> dict:
    """Unit functionals on a grade blade-major: each blade m as the
    (k, c) pairs of the functionals k (in list order) that read m with
    sign c."""
    index = {m: [] for m in BLADES_BY_GRADE[grade]}
    for k, f in enumerate(functionals):
        for m, c in f:
            index[m].append((k, c))
    return {m: tuple(pairs) for m, pairs in index.items()}


def _scattered_sums(n: Form, index: dict, count: int) -> list:
    """The count signed sums sum_m c n[m] of a form n against the
    functionals of a _blade_index: each blade of n is added to or
    subtracted from the sums that read it, each sum starts from its
    first term, in the coefficients' own type, and a sum that reads
    none of n's blades is int 0."""
    sums = [None] * count
    for m, x in n.terms.items():
        for k, c in index[m]:
            s = sums[k]
            if s is None:
                sums[k] = x if c > 0 else -x
            elif c > 0:
                sums[k] = s + x
            else:
                sums[k] = s - x
    return [0 if s is None else s for s in sums]


def _expanded(coefficients, functionals) -> dict:
    """sum_k c_k f_k over the nonzero c_k as a terms dict, the
    unit functionals f_k read as forms: the way back from
    _scattered_sums."""
    terms = {}
    for x, f in zip(coefficients, functionals):
        if x:
            for m, c in f:
                terms[m] = terms.get(m, 0) + c * x
    return terms


def _split_spans(span1: list[Form], span7: list[Form]):
    """(functionals, index, weights, L): the spanning forms w of the 1-
    and then the 7-type summand (the last DIM) as _unit_functionals
    with their _blade_index, each weight L / |w|^2 (|w|^2 its length)
    and L, the lcm of those.  The forms must be pairwise orthogonal."""
    grade = span7[0].grade
    fs = [_unit_functional(w.terms.items()) for w in span1 + span7]
    index = _blade_index(fs, grade)
    for k, f in enumerate(fs):
        gram = _scattered_sums(Form(grade, dict(f)), index, len(fs))
        if any(gram[:k] + gram[k + 1:]):
            j = next(j for j, x in enumerate(gram) if x and j != k)
            raise InternalConsistencyError(
                f"spanning forms are not orthogonal: <w_{k}, w_{j}> = "
                f"{gram[j]}, not 0")
    L = lcm(*map(len, fs))
    return fs, index, [L // len(f) for f in fs], L


def _span_sums(n: Form, span) -> list:
    """<n, w> L / |w|^2 for each spanning form w of a _split_spans."""
    fs, index, weights, _ = span
    return [x * w for x, w in zip(_scattered_sums(n, index, len(fs)), weights)]


def _span_parts(n: Form, span) -> tuple[dict, dict]:
    """(L P1 n, L P7 n), the orthogonal projections sum_w <n, w>/<w, w> w
    onto the 1- and 7-type spans scaled by L, as terms dicts."""
    fs, c = span[0], _span_sums(n, span)
    return _expanded(c[:-DIM], fs[:-DIM]), _expanded(c[-DIM:], fs[-DIM:])


def _type_split(a: Form, span) -> tuple[Form, Form, Form]:
    """(P1 a, P7 a, P27 a) with P27 = 1 - P1 - P7.

    The sums run on the integer numerators n = d a, scaled by L, so
    every division happens in the one rescale by 1/(L d); a blade that
    neither P1 a nor P7 a touches keeps its coefficient in P27 a.
    """
    L = span[3]
    (n,), d = ext.numerators(a)
    s = L * d
    t1, t7 = _span_parts(n, span)
    p1 = Form(a.grade, {m: over(c, s) for m, c in t1.items()})
    p7 = Form(a.grade, {m: over(c, s) for m, c in t7.items()})
    terms = dict(a.terms)
    nt = n.terms
    for m in p1.terms.keys() | p7.terms.keys():
        terms[m] = over(L * nt.get(m, 0) - t1.get(m, 0) - t7.get(m, 0), s)
    return p1, p7, Form(a.grade, terms)


class G2Frame:
    """Precomputed exact data of the standard G2 structure."""

    def __init__(self):
        self.phi = standard_phi()
        self.psi = hodge(self.phi)
        self.vol = wedge(self.phi, self.psi) * Fraction(1, 7)
        if vol_coefficient(self.vol) != 1:
            raise InternalConsistencyError(
                f"phi ^ psi != 7 vol: e1234567 is "
                f"{7 * vol_coefficient(self.vol)}, not 7")

        # contractions e_j -| phi span Lambda^2_7, e_j -| psi span
        # Lambda^3_7 and wedges e_j ^ phi span Lambda^4_7
        self.kappa = [contract(vector(j), self.psi) for j in range(1, 8)]
        self.phi_wedges = [wedge(vector(j), self.phi) for j in range(1, 8)]
        self._span2 = _split_spans(
            [], [contract(vector(j), self.phi) for j in range(1, 8)])
        self._span3 = _split_spans([self.phi], self.kappa)
        self._span4 = _split_spans([self.psi], self.phi_wedges)

        # pairing forms chi_ij = (e_i -| psi) ^ e_j, with
        # i(S) ^ (v1 -| psi) ^ v2 = 2 g(S v1, v2) vol.  Each has 4 blades
        # m on the diagonal and 2 off it, so vol_coefficient(b ^ chi_ij)
        # is <b, f_ij>, f_ij = sum of sign(m^c, m) chi_ij[m] e^{m^c}:
        # the table that both i and its inverse read, f_ij as k = 7 i + j
        self._inv_functionals = [
            _unit_functional(
                (FULL_MASK ^ m, merge_sign(FULL_MASK ^ m, m) * c)
                for m, c in wedge(self.kappa[i], vector(j + 1)).terms.items())
            for i in range(DIM) for j in range(DIM)]
        self._inv_index = _blade_index(self._inv_functionals, 3)
        # i reads the upper triangle of S, entry (i, j), i < j, standing
        # for both S_ij and S_ji: it weighs f_ij and f_ji together
        self._iso_functionals = [
            self._inv_functionals[DIM * i + j]
            + (self._inv_functionals[DIM * j + i] if i != j else ())
            for i, j in TRIANGLE]
        # the rows of the pairing matrix M of gamma |-> (gamma ^ (e_j -|
        # psi))_j as functionals on 3-forms; row 7 j + p is 6-blade p of
        # block j
        rows = [{} for _ in range(DIM * DIM)]
        for m in BLADES_BY_GRADE[3]:
            for j in range(DIM):
                for mm, c in wedge(Form(3, {m: 1}), self.kappa[j]).terms.items():
                    rows[j * DIM + BLADES_BY_GRADE[6].index(mm)][m] = c
        self._pairing_functionals = [_unit_functional(r.items()) for r in rows]
        self._pairing_index = _blade_index(self._pairing_functionals, 3)
        # M is equivariant, so by Schur's lemma M^T M is one scalar per
        # type; a form of each type pins the three, and nonzero ones make
        # M injective
        probe27 = self.iso_i(SymTensor.diag([1, -1, 0, 0, 0, 0, 0]))
        for a, lam, kind in zip((self.phi, self.kappa[0], probe27),
                                _NORMAL_EIGENVALUES, (1, 7, 27)):
            Ma = _scattered_sums(a, self._pairing_index, DIM * DIM)
            MtMa = Form(3, _expanded(Ma, self._pairing_functionals))
            if MtMa != lam * a:
                raise InternalConsistencyError(
                    "M^T M is not 16 P1 + 6 P7 + 2 P27 on the pairing "
                    f"matrix: M^T M a = {lam} a fails on the type-{kind} "
                    f"probe a: {first_difference(MtMa, lam * a)}")

    # -- projections ------------------------------------------------------

    def project2(self, a: Form) -> tuple[Form, Form]:
        """Split a 2-form into its (7, 14)-dimensional parts."""
        if a.grade != 2:
            raise ext.GradeError("project2 needs a 2-form")
        return _type_split(a, self._span2)[1:]

    def project3(self, a: Form) -> tuple[Form, Form, Form]:
        """Split a 3-form into its (1, 7, 27)-dimensional parts."""
        if a.grade != 3:
            raise ext.GradeError("project3 needs a 3-form")
        return _type_split(a, self._span3)

    def project4(self, a: Form) -> tuple[Form, Form, Form]:
        """Split a 4-form into its (1, 7, 27)-dimensional parts."""
        if a.grade != 4:
            raise ext.GradeError("project4 needs a 4-form")
        return _type_split(a, self._span4)

    # -- metric recovery --------------------------------------------------

    def metric_from_structure(self) -> Matrix:
        """Recover the metric from the structure 3-form via
        (v -| phi) ^ (w -| phi) ^ phi = -6 g(v, w) vol."""
        phi = self.phi
        cons = [contract(vector(i), phi) for i in range(1, 8)]
        minus6 = Fraction(-1, 6)
        return Matrix.from_rows(
            [[minus6 * vol_coefficient(wedge(wedge(cons[i], cons[j]), phi))
              for j in range(DIM)] for i in range(DIM)])

    # -- the 27-dimensional isomorphism ------------------------------------

    def iso_i(self, S: SymTensor) -> Form:
        """i(S) = S*phi = sum_ij S_ij f_ij, from traceless symmetric
        tensors into Lambda^3_27, on the integer numerators of the 28
        entries of S.upper, an entry off the diagonal weighing
        f_ij + f_ji."""
        if S.trace() != 0:
            raise TypeDecompositionError("iso_i needs a traceless tensor")
        ints, d = clear_denominators(S.upper)
        terms = _expanded(ints, self._iso_functionals)
        if ints is not S.upper:
            terms = {m: over(c, d) for m, c in terms.items()}
        return Form(3, terms)

    def iso_i_psi(self, S: SymTensor) -> Form:
        """S*psi = -*i(S), the grade-4 companion of i."""
        return -hodge(self.iso_i(S))

    def is_pure27(self, b: Form) -> bool:
        """Whether a 3-form lies in Lambda^3_27: the eight pairings
        <b, phi> and <b, e_j -| psi> vanish, which is P1 b = P7 b = 0
        exactly, since these pairwise orthogonal forms (checked in
        _split_spans) span Lambda^3_1 + Lambda^3_7."""
        if b.grade != 3:
            raise ext.GradeError("is_pure27 needs a 3-form")
        fs, index, _, _ = self._span3
        return not any(_scattered_sums(b, index, len(fs)))

    def require_pure27(self, message: str, *forms: Form) -> None:
        """The type-27 gate: raise TypeDecompositionError(message) unless
        every 3-form is of pure 27 type (is_pure27)."""
        if not all(self.is_pure27(b) for b in forms):
            raise TypeDecompositionError(message)

    def iso_i_inv_upper(self, n: Form) -> list:
        """The flat upper triangle of 2 i^{-1}(n) for a 3-form n of pure
        27 type, in the coefficients' own type with no rescale: i^{-1}(b)
        of b = n / d is this triangle over 2 d.  All 49 signed sums
        <n, f_ij> are taken, each blade of n scattered into the sums that
        read it (_inv_index), int 0 when n has none of the blades of
        f_ij, so that symmetry and trace stay real checks.

        By Schur's lemma a 1-part of n shows in these sums as a trace and
        a 7-part as a skew part, so any n outside Lambda^3_27 raises
        InternalConsistencyError here.  A caller that holds outside input
        gates it first (require_pure27), for the TypeDecompositionError
        that names it; an internal caller that holds combinations of
        gated forms needs no gate of its own.
        """
        sums = _scattered_sums(n, self._inv_index, DIM * DIM)
        skew = next(((i, j) for i, j in TRIANGLE
                     if sums[DIM * i + j] != sums[DIM * j + i]), None)
        if skew is not None:
            i, j = skew
            raise InternalConsistencyError(
                f"recovered tensor is not symmetric: entry ({i}, {j}) = "
                f"{sums[DIM * i + j]}, entry ({j}, {i}) = {sums[DIM * j + i]}")
        upper = [sums[DIM * i + j] for i, j in TRIANGLE]
        trace = sum(upper[k] for k in DIAGONAL)
        if trace != 0:
            raise InternalConsistencyError(
                f"recovered tensor is not traceless: trace {trace}")
        return upper

    def iso_i_inv(self, b: Form) -> SymTensor:
        """Invert i on Lambda^3_27: iso_i_inv_upper over 2 d for b = n / d.
        Raises TypeDecompositionError when b has a nonzero component in
        the 1- or 7-dimensional summand."""
        if b.grade != 3:
            raise ext.GradeError("iso_i_inv needs a 3-form")
        (n,), d = ext.numerators(b)
        self.require_pure27(OUTSIDE_27, n)
        # a sum that cancels is taken as int 0, so that entry is
        # Fraction(0) for every scalar type, as vol_coefficient(b ^ chi_ij)
        # gives it
        return SymTensor.from_upper([over(x if x else 0, 2 * d)
                                     for x in self.iso_i_inv_upper(n)])

    def extract_v7(self, a: Form) -> Form:
        """Vector part of a 4-form: V with P_7 a = V ^ phi, read as
        V_j = <a, e_j ^ phi>/4 since the e_j ^ phi are orthogonal with
        norm 4."""
        if a.grade != 4:
            raise ext.GradeError("extract_v7 needs a 4-form")
        fs, index, _, _ = self._span4
        quarter = Fraction(1, 4)
        return vector_form([quarter * x for x in
                            _scattered_sums(a, index, len(fs))[-DIM:]])

    def hat_numerators(self, n: Form) -> tuple[Form, int]:
        """(h, L) with hat(n) = h / L: h = *(2 t7 - L n), t7 = L P7 n and
        L = 28, the int core of hat for an integer 4-form n.  Only the
        7-type sums are expanded."""
        fs, _, _, L = self._span4
        terms = {m: -L * c for m, c in n.terms.items()}
        t7 = _expanded(_span_sums(n, self._span4)[-DIM:], fs[-DIM:])
        for m, c in t7.items():
            terms[m] = terms.get(m, 0) + 2 * c
        return hodge(Form(4, terms)), L

    def hat(self, a: Form) -> Form:
        """The 3-form solving hat(a) ^ (v -| psi) + phi ^ (v -| a) = 0,
        which is -*a_1 + *a_7 - *a_27 = *(2 P7 a - a) by type: the core
        hat_numerators on the integer numerators n = d a, each blade
        divided once by L d."""
        if a.grade != 4:
            raise ext.GradeError("hat needs a 4-form")
        (n,), d = ext.numerators(a)
        h, L = self.hat_numerators(n)
        return Form(3, {m: over(c, L * d) for m, c in h.terms.items()})

    # -- the cocycle linear solver -----------------------------------------

    def pairing_matrix(self) -> Matrix:
        """The injective 49 x 35 matrix of gamma |-> (gamma ^ (e_j -| psi))_j."""
        return Matrix.from_rows([[dict(f).get(m, 0) for m in BLADES_BY_GRADE[3]]
                                 for f in self._pairing_functionals])

    def solve_three_form_numerators(self, rhs: list) -> tuple[list, int]:
        """(x, s) with gamma = x / s solving gamma ^ (e_j -| psi) = rhs_j
        for the integer right-hand side rhs, the 7 6-forms rhs_j as one
        flat vector (row 7 j + p is 6-blade p of block j), x in the blade
        order of grade 3; raises InconsistentSystemError naming the
        first of the 49 equations that fails."""
        y = _expanded(rhs, self._pairing_functionals)
        L = self._span3[3]
        t1, t7 = _span_parts(Form(3, y), self._span3)
        # t = L P y and P27 = 1 - P1 - P7; over the common denominator
        # D = lcm(16, 6, 2) L = 48 L the weights 1/16, 1/6, 1/2 are
        # (3, 8, 24)/D, so D gamma = 24 L y - 21 t1 - 16 t7
        top = lcm(*_NORMAL_EIGENVALUES)
        w1, w7, w27 = (top // lam for lam in _NORMAL_EIGENVALUES)
        x = [w27 * L * y.get(m, 0) + (w1 - w27) * t1.get(m, 0)
             + (w7 - w27) * t7.get(m, 0) for m in BLADES_BY_GRADE[3]]
        D = top * L
        Mx = _scattered_sums(ext.form_from_coords(3, x), self._pairing_index,
                             DIM * DIM)
        for row, (got, want) in enumerate(zip(Mx, rhs)):
            if got != D * want:
                raise InconsistentSystemError(row)
        return x, D

    def solve_three_form(self, rhs_blocks: list[Form]) -> Form:
        """solve_three_form_numerators' gamma in Lambda^3 for the 7
        right-hand 6-forms, on the integer numerators of their
        coefficients, divided once."""
        if len(rhs_blocks) != DIM:
            raise ValueError("need 7 right-hand blocks")
        if any(w.grade != 6 for w in rhs_blocks):
            raise ext.GradeError("right-hand blocks must be 6-forms")
        rhs, d = clear_denominators(
            [c for w in rhs_blocks for c in ext.form_to_coords(w)])
        x, s = self.solve_three_form_numerators(rhs)
        return ext.form_from_coords(3, [over(v, s * d) for v in x])


@functools.cache
def standard_frame() -> G2Frame:
    """The shared frame for the standard calibration (built once)."""
    return G2Frame()


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


def traceless_draw(rng, bound: int = 6) -> list[int]:
    """The flat upper triangle of a small-height random traceless
    symmetric tensor, as ints: one draw per entry in linalg.TRIANGLE's
    order, the last diagonal entry then set so the trace vanishes."""
    upper = [rng.randint(-bound, bound) for _ in TRIANGLE]
    upper[DIAGONAL[-1]] -= sum(upper[k] for k in DIAGONAL)
    return upper


def random_traceless(rng, bound: int = 6) -> SymTensor:
    """traceless_draw with Fraction entries; the g2 and cubic suites
    read the draw as ints (suites._int_traceless), and the benchmark's
    inputs read the Fractions."""
    return SymTensor.from_upper([Fraction(x) for x in traceless_draw(rng, bound)])
