"""Cubic polynomials on su(3) and the invariant pairing <P, i det>.

Polynomials (poly.MultiPoly, whose names MultiPoly and LETTERS this
module imports back) live in the nine-letter alphabet

    v1, v2, v3, z1, z2, z3, zb1, zb2, zb3

of linear forms on su(3) (zbj is the conjugate letter of zj, and
v1 + v2 + v3 = 0 is the one relation).  One map, Z_ENTRIES, says which
entry of xi's matrix each zj is; letter_values reads the letters with
it, and the letter rows (each letter as a linear form in the real
coordinates), the Gram derivation, the x -> z dictionary, the
determinant route to i det and the Monte Carlo's conjugated letters
are all derived from it.  The inner product on cubics is
the permanent of the Gram submatrix of the letters, with the Gram data

    <va, va> = 4/3,  <va, vb> = -2/3 (a != b),  <zj, zbk> = 2 delta_jk,

induced by b(xi, xi) = -1/2 tr(xi^2); both the table and its derivation
from b are implemented and compared.

i det(xi) is computed two ways (the displayed six-term cubic, and the
symbolic determinant of the coordinate matrix), which idet_report
compares, and the obstruction polynomial P enters either as the closed
displayed cubic or as the first-principles interpolation through the
exact evaluator (aw.cubic_coefficients, the package's one cubic
interpolator).  The final number is <P, i det>, assembled from the
pairings of the four components, aw's model row run on the generic
element, whose coordinates are letter polynomials (a MultiPoly is a
coefficient ring):

    <s^3, i det> = -4/9,   <s|x|^2, i det> = -8/3,
    <s|y|^2, i det> = 4,   <R, i det> = 24.

Coefficients and letter values are kept as given, ints as ints (a
GaussRational's parts too), and a Fraction appears only where a value
is one: the Gram entries and the halves in the x -> z dictionary, s
and |y|^2.  So the pairings come out as Fractions with no conversion.

pairing_report() computes each pairing once per process and hands
every caller the same read-only record.  It pairs the displayed i det
and compares none of its inputs: each such comparison is made once, by
the suite check that records it.  A seeded Monte-Carlo check closes
the loop: averaging P over conjugates g xi g^{-1} with Haar-random g in
SU(3) projects P onto the unique invariant cubic, so the empirical
mean must approach (<P, i det>/<i det, i det>) i det(xi).
It holds one batch's P values and one chunk of its Haar samples in
memory at a time (each chunk draws its own Gaussians), and imports
numpy with OpenBLAS held to one thread: it calls no BLAS routine.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from fractions import Fraction
from types import MappingProxyType

from .g2 import InternalConsistencyError, once
from .linalg import Matrix, solve_exact
from .poly import LETTERS, MultiPoly
from .scalars import GaussRational, ScalarError
from .aw import CLOSED_DISPLAY, Su3Element, _model_row, block_coords, \
    cubic_coefficients, decompose, det3, first_principles_fit, \
    first_principles_value, sign_resolution

_I = GaussRational(0, 1)


# The one letter map: z_j is the entry of xi's matrix at Z_ENTRIES[j - 1]
# (row, column), zb_j its conjugate, and v_a the diagonal coordinate
Z_ENTRIES = ((2, 1), (0, 2), (1, 0))


def letter_values(xi: Su3Element) -> dict:
    """The nine letter values of an su(3) element: v_a is its coordinate
    and z_j the entry of its matrix at Z_ENTRIES[j - 1], so
    z1 = -x5 + i x6, z2 = x3 + i x4, z3 = -x1 + i x2."""
    m = xi.matrix_entries()
    vals = {f"v{a + 1}": xi.v[a] for a in range(3)}
    for j, (r, c) in enumerate(Z_ENTRIES, 1):
        vals[f"z{j}"] = m[r][c]
        vals[f"zb{j}"] = m[r][c].conjugate()
    return vals


def _xi_from_coords(c: list) -> Su3Element:
    v1, v2 = c[0], c[1]
    return Su3Element((v1, v2, -v1 - v2), tuple(c[2:8]))


@once
def _letter_rows() -> MappingProxyType:
    """Each letter as a linear form in the real coordinates
    (v1, v2, x1..x6): the row of its values at the eight unit
    coordinates.  Every caller shares the cached table, so it is a
    read-only mapping of tuples."""
    units = [letter_values(_xi_from_coords([int(k == i) for k in range(8)]))
             for i in range(8)]
    return MappingProxyType({name: tuple(u[name] for u in units)
                             for name in LETTERS})


# ---------------------------------------------------------------------------
# Gram data and the permanent inner product

GRAM = {
    **{(f"v{a}", f"v{b}"): Fraction(4, 3) if a == b else Fraction(-2, 3)
       for a in range(1, 4) for b in range(1, 4)},
    **{pair: Fraction(2) for j in range(1, 4)
       for pair in ((f"z{j}", f"zb{j}"), (f"zb{j}", f"z{j}"))},
}


def gram_entry(a: str, b: str) -> Fraction:
    return GRAM.get((a, b), 0)


def _killing(m1, m2):
    """b(xi, eta) = -1/2 tr(xi eta) on the matrix entries of xi and eta,
    the polarization of b(xi, xi) = -1/2 tr(xi^2)."""
    return Fraction(-1, 2) * sum(
        (m1[i][j] * m2[j][i] for i in range(3) for j in range(3)),
        GaussRational(0, 0))


def derive_gram_from_killing() -> dict:
    """The same table computed from b(xi, xi) = -1/2 tr(xi^2).

    B is b (_killing) on the eight unit elements of the real coordinates
    (v1, v2, x1..x6), inverted exactly (linalg.solve_exact, one unit
    column at a time; B is symmetric, so the columns of B^{-1} are its
    rows).  The dual inner product of two linear forms is
    ell B^{-1} ell'^T (complex-bilinear, no conjugation), and the letters
    enter as the linear forms of _letter_rows, read off the matrix by
    letter_values.
    """
    units = [_xi_from_coords([int(k == i) for k in range(8)]).matrix_entries()
             for i in range(8)]
    # tr(xi eta) is real for skew-hermitian xi and eta
    B = Matrix.from_rows([[_killing(mi, mj).re for mj in units]
                          for mi in units])
    binv = []
    for k in range(8):
        column, kdim = solve_exact(B, [int(i == k) for i in range(8)])
        if kdim:
            raise InternalConsistencyError(
                f"the Killing form is degenerate: solving for column {k} "
                f"leaves a kernel of dimension {kdim}")
        binv.append(column)
    rows = _letter_rows()
    table = {}
    for a in LETTERS:
        for b in LETTERS:
            ra, rb = rows[a], rows[b]
            val = sum((binv[i][j] * ra[i] * rb[j] for i in range(8)
                       for j in range(8) if ra[i] and rb[j]),
                      GaussRational(0, 0))
            if val != 0:
                if val.im != 0:
                    raise InternalConsistencyError(
                        f"derived Gram entry ({a}, {b}) is not rational: "
                        f"real part {val.re}, imaginary part {val.im}")
                table[(a, b)] = val.re
    return table


def permanent(rows: list[list]):
    """Matrix permanent by the expansion over permutations (the pairing
    of cubics only ever needs 3 x 3 permanents)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ScalarError("permanent needs a square matrix")
    if n == 0:
        return 1
    total = None
    for perm in itertools.permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        total = prod if total is None else total + prod
    return total


def monomial_inner(m1: tuple, m2: tuple) -> Fraction:
    """<a1...ak, b1...bk> = perm(<a_i, b_j>) with multiset repetition."""
    if len(m1) != len(m2):
        raise ScalarError("monomials must have equal degree")
    rows = [[gram_entry(a, b) for b in m2] for a in m1]
    return permanent(rows)


def sym_inner_poly(p: MultiPoly, q: MultiPoly) -> GaussRational:
    """Bilinear extension of the permanent inner product."""
    if p.degree != q.degree:
        raise ScalarError("polynomials must have equal degree")
    total = GaussRational(0, 0)
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            g = monomial_inner(m1, m2)
            if g != 0:
                total = total + c1 * c2 * g
    return total


# ---------------------------------------------------------------------------
# The coordinate dictionary: x-letters as z-polynomials

@once
def x_letter_polys() -> MappingProxyType:
    """x1..x6 as polynomials in the z-alphabet, by inverting the letter
    rows: each z_j is a x_p + i b x_q with a, b = +-1, so
    x_p = (z_j + zb_j)/(2a) and x_q = (z_j - zb_j)/(2ib).  Every caller
    shares the cached table, so it is a read-only mapping."""
    rows = _letter_rows()
    xs = {}
    for j in range(1, 4):
        z, zb = MultiPoly.letter(f"z{j}"), MultiPoly.letter(f"zb{j}")
        for k, e in enumerate(rows[f"z{j}"][2:], 1):
            if e.re:
                xs[k] = Fraction(1, 2 * e.re) * (z + zb)
            if e.im:
                xs[k] = GaussRational(0, Fraction(-1, 2 * e.im)) * (z - zb)
    return MappingProxyType({f"x{k}": xs[k] for k in range(1, 7)})


def _coordinate_polys() -> tuple:
    """The real coordinates (v1, v2, x1..x6) as letter polynomials."""
    return (MultiPoly.letter("v1"), MultiPoly.letter("v2"),
            *x_letter_polys().values())


# ---------------------------------------------------------------------------
# i det along two routes

def idet_display_poly() -> MultiPoly:
    """The displayed cubic, with the product term read as
    i (z1 z2 z3 - zb1 zb2 zb3), i.e. minus twice the imaginary part."""
    v = [MultiPoly.letter(f"v{a}") for a in (1, 2, 3)]
    z = [MultiPoly.letter(f"z{j}") for j in (1, 2, 3)]
    zb = [MultiPoly.letter(f"zb{j}") for j in (1, 2, 3)]
    return (v[0] * v[1] * v[2] + _I * (z[0] * z[1] * z[2])
            - _I * (zb[0] * zb[1] * zb[2])
            - sum(v[j] * z[j] * zb[j] for j in range(3)))


def idet_determinant_poly() -> MultiPoly:
    """i times the symbolic determinant of the coordinate matrix, i v_a
    on the diagonal, z_j at Z_ENTRIES[j - 1] and -zb_j at its mirror:

        [[i v1, -zb3, z2], [z3, i v2, -zb1], [-zb2, z1, i v3]]

    with v3 = -v1 - v2 eliminated, expanded by aw.det3, the cofactor
    expansion Su3Element.i_det reads too."""
    iv3 = -_I * (MultiPoly.letter("v1") + MultiPoly.letter("v2"))
    m = [[_I * MultiPoly.letter("v1"), None, None],
         [None, _I * MultiPoly.letter("v2"), None],
         [None, None, iv3]]
    for j, (r, c) in enumerate(Z_ENTRIES, 1):
        m[r][c] = MultiPoly.letter(f"z{j}")
        m[c][r] = -MultiPoly.letter(f"zb{j}")
    return _I * det3(m)


def idet_report() -> dict:
    """Both routes to i det, compared in the reduced alphabet, plus how
    the product-term notation must be read; when they differ, the first
    differing monomial and both reduced polynomials.

    The displayed "2i re(z1 z2 z3)" is formally imaginary; the
    determinant expansion shows the intended term is
    i (z1 z2 z3 - zb1 zb2 zb3) = -2 Im(z1 z2 z3).
    """
    display = idet_display_poly()
    disp, det = display.eliminate_v3(), idet_determinant_poly().eliminate_v3()
    rep = {
        "matches": disp == det,
        "display_is_real": display.is_real_on_su3(),
        "reading": "i (z1 z2 z3 - zb1 zb2 zb3) = -2 Im(z1 z2 z3)",
    }
    if disp != det:
        mono, a, b = disp.first_difference(det)
        rep["difference"] = (
            f"at {'*'.join(mono)} the display has {a} and the determinant "
            f"{b}; display {disp!r}; determinant {det!r}")
    return rep


# ---------------------------------------------------------------------------
# The obstruction polynomial as a letter polynomial

@once
def component_polys() -> tuple:
    """(s^3, s|x|^2, s|y|^2, R): aw's model row at the generic element,
    whose coordinates are _coordinate_polys, read through
    aw.block_coords, so aw.decompose's block map and R's two routes in
    aw._r hold as polynomials: for every xi."""
    return _model_row(block_coords(
        *decompose(_xi_from_coords(_coordinate_polys()))))


def closed_p_poly() -> MultiPoly:
    """The closed displayed polynomial, with its +210 s^3 term."""
    return sum(c * p for c, p in zip(CLOSED_DISPLAY, component_polys()))


def interpolate_p_coefficients() -> dict:
    """Exact coefficients of P in the coordinates (v1, v2, x1..x6), keyed
    by sorted index triples: aw.cubic_coefficients on single-route P, 120
    evaluations in all."""
    return cubic_coefficients(lambda c: first_principles_value(
        _xi_from_coords(c), single_route=True))


@once
def first_principles_p_poly() -> MultiPoly:
    """P as a letter polynomial, interpolated from exact evaluations: the
    coordinate coefficients pushed through the x -> z dictionary.  It
    makes no comparison: pairing.p-poly-real checks that it is real on
    su(3) and pairing.first-principles-nonzero compares it with the
    fitted four-term model, so a P that fails either still reaches the
    Monte Carlo, which compiles it, and the pairing report, which pairs
    it.
    """
    coords = _coordinate_polys()
    return sum(c * (coords[i] * coords[j] * coords[k])
               for (i, j, k), c in interpolate_p_coefficients().items())


# ---------------------------------------------------------------------------
# The pairing

COMPONENT_PAIRINGS = {"s3": Fraction(-4, 9), "sx2": Fraction(-8, 3),
                      "sy2": Fraction(4), "R": Fraction(24)}


def _real_pairing(p: MultiPoly, q: MultiPoly, what: str) -> Fraction:
    val = sym_inner_poly(p, q)
    if val.im != 0:
        raise InternalConsistencyError(
            f"{what} is not real: imaginary part {val.im}")
    return val.re


@once
def pairing_report() -> MappingProxyType:
    """The headline numbers: <P, i det> for both sources of P, the four
    component pairings and <i det, i det>, each computed once, with the
    component assemblies and the sign resolution derived from them.

    It only builds: each comparison of its inputs is the check that
    records it (pairing.idet-construction for the two routes to i det,
    pairing.first-principles-nonzero for interpolated P against the
    fitted model, pairing.idet-self for the sign of <i det, i det>), so a
    broken input fails those checks and the ones that read its value,
    not every reader of the report.  Its one guard is _real_pairing's.

    Every caller shares the one cached record, so it and its components
    are read-only mappings: an item assignment raises TypeError instead
    of changing the record for the rest of the process."""
    idet = idet_display_poly()
    closed = _real_pairing(closed_p_poly(), idet, "<P, i det>")
    p_poly, fitted = first_principles_p_poly(), first_principles_fit()
    first = _real_pairing(p_poly, idet, "<P, i det>")
    components = {name: _real_pairing(poly, idet, f"<{name}, i det>")
                  for name, poly in zip(COMPONENT_PAIRINGS, component_polys())}
    idet_self = _real_pairing(idet, idet, "<i det, i det>")

    def assembled(coefficients) -> Fraction:
        return sum(c * v for c, v in zip(coefficients, components.values()))

    return MappingProxyType({
        "closed_form_pairing": closed,
        "first_principles_pairing": first,
        "closed_form_assembly": assembled(CLOSED_DISPLAY),
        "first_principles_assembly": assembled(fitted),
        "sign_flip_only_assembly": assembled(
            (-CLOSED_DISPLAY[0],) + CLOSED_DISPLAY[1:]),
        "sign_resolution": sign_resolution(fitted),
        "components": MappingProxyType(components),
        "idet_self": idet_self,
        "nonzero": first != 0,
    })


# ---------------------------------------------------------------------------
# Monte-Carlo: Haar conjugation average versus the projection formula

def _numpy():
    """numpy, imported on first use with OpenBLAS held to one thread.

    The Monte Carlo calls no BLAS routine, but OpenBLAS starts its
    worker threads when numpy is imported, and they spin on another
    core.  OPENBLAS_NUM_THREADS=1 before the import starts none; a value
    already in the environment is left as it is."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy
    return numpy


def _poly_terms(poly: MultiPoly) -> list:
    """Compile a MultiPoly into (letter indices, coefficient) pairs for
    batched numpy evaluation over the nine letter columns.  Real
    coefficients stay Python floats, so products of the real v columns
    stay real arrays."""
    order = {name: k for k, name in enumerate(LETTERS)}
    terms = []
    for mono, c in sorted(poly.terms.items()):
        coef = complex(c)
        terms.append((tuple(order[name] for name in mono),
                      coef.real if coef.imag == 0 else coef))
    return terms


def _sum(terms: list):
    """Left-to-right sum of a nonempty list of arrays, with no zero start."""
    return functools.reduce(operator.add, terms)


def _axpy(acc, a: float, x):
    """acc + a x (a x when acc is None), with a = +-1 taken as a sign:
    a x is exact then, so the sum rounds as with the product."""
    if acc is None:
        return x if a == 1 else -x if a == -1 else a * x
    if a == 1:
        return acc + x
    if a == -1:
        return acc - x
    return acc + a * x


def _conjugate_letters(cols, xi_mat) -> list:
    """The nine letter columns of g xi g^dagger over a chunk of samples,
    in LETTERS order.

    cols[k, i, n] is entry i of column c_k of sample n's g (the layout
    of a haar_su3 chunk).  The columns of h = g xi are h_l = sum_k xi_kl c_k,
    with the zero parts of xi skipped, and only the six entries the
    letters read are formed, M_ij = sum_l h_l[i] conj(c_l[j]): the
    imaginary parts of the diagonal and the entries at Z_ENTRIES.
    Every step is an elementwise product or sum of real rows of the
    chunk, read through views of its real and imaginary parts (no
    copy), with no matrix product and no BLAS call, taken in the order
    in which the dense route rounds them (h = g @ xi by an OpenBLAS
    product, then an einsum against conj(g)): for an xi with integer
    entries the letters come out bit for bit as on that route.
    """
    np = _numpy()
    re, im = cols.real, cols.imag
    hr, hi = [], []
    for l in range(3):
        hrl = hil = None
        for k in range(3):
            a, b = xi_mat[k, l].real, xi_mat[k, l].imag
            if b:
                hrl = _axpy(hrl, -b, im[k])
            if a:
                hrl = _axpy(hrl, a, re[k])
                hil = _axpy(hil, a, im[k])
            if b:
                hil = _axpy(hil, b, re[k])
        hr.append(np.zeros_like(re[0]) if hrl is None else hrl)
        hi.append(np.zeros_like(re[0]) if hil is None else hil)
    v = [_sum([hi[l][i] * re[l, i] - hr[l][i] * im[l, i] for l in range(3)])
         for i in range(3)]
    z = []
    for i, j in Z_ENTRIES:
        e = np.empty(re.shape[2], dtype=np.complex128)
        e.real = _sum([hr[l][i] * re[l, j] + hi[l][i] * im[l, j]
                       for l in range(3)])
        e.imag = _sum([hi[l][i] * re[l, j] - hr[l][i] * im[l, j]
                       for l in range(3)])
        z.append(e)
    return v + z + [c.conj() for c in z]


def _eval_terms(terms: list, letters: list):
    """Real part of a compiled polynomial on letter columns, one term
    at a time into an accumulator."""
    total = 0.0
    for (i, j, k), c in terms:
        total = total + (c * (letters[i] * letters[j] * letters[k])).real
    return total


# Samples per chunk of a Monte-Carlo batch, small enough that a chunk's
# draw, columns, letters and temporaries stay in cache; the stream is
# read in sample order and every step is elementwise over the samples,
# so the size changes no result
_CHUNK = 4096


def haar_su3(rng, count: int):
    """Haar-distributed SU(3) matrices, as an iterator over chunks of
    _CHUNK samples (the last one short).  A chunk is a contiguous array
    cols[k, i, n], entry i of column k of its sample n, so
    cols.transpose(2, 1, 0) is its (n, 3, 3) array of matrices.

    Two standard complex Gaussian columns a, b are Gram-Schmidt
    orthonormalized into u, v, and the third column is w = conj(u x v).
    Then w is orthogonal to u and v, |w| = 1, and det(u, v, w)
    = (u x v) . conj(u x v) = |u x v|^2 = 1, with no phase fix or
    rescaling.  This is Mezzadri's QR sampler ("How to generate random
    matrices from the classical compact groups", Notices AMS 2007) for
    SU(3): Gram-Schmidt is the QR with his phase fix built in, and the
    cross product gives the third column with determinant 1 directly.

    The law is Haar because it is left-invariant.  For h in SU(3),
    Gram-Schmidt commutes with h, and (hu) x (hv) = det(h) h^{-T} (u x v)
    = conj(h) (u x v), so the columns (a, b) give g and (ha, hb) give
    hg.  The Gaussian pair (ha, hb) has the same law as (a, b), so hg
    has the same law as g, and the only left-invariant probability
    measure on SU(3) is Haar measure.

    The stream is read sample-major: sample n takes the twelve normals
    12n .. 12n+11 of rng, as entries x[k, i] of a (4, 3) block, so the
    count samples are those of one rng.standard_normal((count, 12))
    draw.  rng keeps no buffered normals, so drawing the rows a chunk
    at a time takes the same values as one draw.  Nothing is drawn when
    haar_su3 is called: each chunk draws its own samples when the
    iterator reaches it and is orthonormalized in cache, each entry as
    the whole batch at once would give it.
    """
    np = _numpy()

    def chunks():
        for lo in range(0, count, _CHUNK):
            n = min(_CHUNK, count - lo)
            a = np.ascontiguousarray(
                rng.standard_normal((n, 12)).T).reshape(4, 3, n)
            cols = np.empty((3, 3, n), dtype=np.complex128)
            u, v, w = cols
            u.real, u.imag = a[0], a[1]
            v.real, v.imag = a[2], a[3]
            u /= np.sqrt((u.real ** 2 + u.imag ** 2).sum(axis=0))
            v -= u * (u.conj() * v).sum(axis=0)
            v /= np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
            for r in range(3):
                s, t = (r + 1) % 3, (r + 2) % 3
                np.conjugate(u[s] * v[t] - u[t] * v[s], out=w[r])
            yield cols
    return chunks()


# Haar samples per batch, the unit of seeding and of the array of P
# values; every batch has its own seeded stream, so a different size
# changes the Monte-Carlo values under a fixed seed
MC_BATCH = 100000


def haar_average(xi: Su3Element, samples: int, seed: int) -> dict:
    """E_g[P(g xi g^{-1})] by Haar sampling, with its standard error:
    the sampler's record, which reads no prediction.

    Batches of MC_BATCH samples draw from independently seeded streams
    keyed by (seed, batch index), so the estimate is reproducible and
    independent of how batches are scheduled.  Each batch is one
    haar_su3 call, and each of its chunks is drawn, conjugated and P
    evaluated as it arrives, into one array of P values for the batch;
    the sums of P and P^2 run over that whole array.  So one batch's P
    values (0.8 MB at MC_BATCH samples) and one chunk's working set are
    resident at a time, about 3.5 MB in all.  The path calls no BLAS
    routine, and numpy comes in through _numpy, which starts no BLAS
    worker, so it runs on one thread.
    """
    np = _numpy()
    if samples < 10000:
        raise ScalarError("need at least 10^4 samples")
    terms = _poly_terms(first_principles_p_poly())
    xi_mat = np.array([[complex(c) for c in row]
                       for row in xi.matrix_entries()])

    total = total_sq = 0.0
    for nbatch, done in enumerate(range(0, samples, MC_BATCH)):
        take = min(MC_BATCH, samples - done)
        rng = np.random.default_rng([seed, nbatch])
        vals = np.empty(take)
        for lo, cols in zip(range(0, take, _CHUNK), haar_su3(rng, take)):
            vals[lo:lo + _CHUNK] = _eval_terms(
                terms, _conjugate_letters(cols, xi_mat))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())

    empirical = total / samples
    variance = max(total_sq / samples - empirical * empirical, 0.0)
    return {"samples": samples, "seed": seed, "batches": nbatch + 1,
            "empirical": empirical, "std_error": (variance / samples) ** 0.5}


def with_prediction(xi: Su3Element, sampled: dict) -> dict:
    """A haar_average record with the projection it must approach,
    (<P, i det>/<i det, i det>) i det(xi), and its relative error."""
    rep = pairing_report()
    factor = rep["first_principles_pairing"] / rep["idet_self"]
    predicted = float(factor) * float(xi.i_det())
    denom = max(abs(predicted), 1e-12)
    return dict(sampled, predicted=predicted,
                relative_error=abs(sampled["empirical"] - predicted) / denom)


def haar_average_check(xi: Su3Element, samples: int, seed: int) -> dict:
    """haar_average of P at xi against the projection of P onto i det."""
    return with_prediction(xi, haar_average(xi, samples, seed))
