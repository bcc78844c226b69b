"""Exterior algebra of R^7 over exact scalars.

Basis blades are 7-bit masks: bit i set means the factor e_{i+1} is
present, and the blade is the wedge of its factors in increasing index
order.  A form of grade k is a sparse map from k-bit masks to nonzero
coefficients.  Every sign is one parity, the transpositions that merge
two masks, read off one 128-entry table (_ODD_BELOW, through
merge_sign), so wedge, contraction and the Hodge star are exact for any
coefficient type that supports ring arithmetic.  A contraction e_i -|
e^m is the merge of e_i with the rest of m read backwards, and the
Hodge star reads the sign of each blade against its complement from
_HODGE_SIGN, that parity tabulated once.  A wedge runs one loop for
every pair of grades: for each blade of its first factor it looks up
only the blades of the second that can meet it when the second holds
more than that, which at the top degree is the complement alone.

Indices are 1-based everywhere in the public interface (e1..e7), to
match the usual way these forms are written out.

The exact kernels built on these forms are multilinear over Q, so they
take their arguments through numerators(): integer coefficients over
one common denominator d, with the work done in int and a single
rescale by a Fraction at the end.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable, Sequence

from .scalars import clear_denominators, scalar_from_json, scalar_to_json

DIM = 7
FULL_MASK = (1 << DIM) - 1
# the 4-dimensional block spanned by e4..e7, with volume form e4567
M4_MASK = 0b1111000


class FormError(ValueError):
    """Malformed form input: bad indices, bad JSON, bad support."""


class GradeError(ValueError):
    """An operation received a form of the wrong grade."""


def blade_mask(indices: Iterable[int]) -> int:
    """Mask of a strictly increasing 1-based index tuple."""
    mask = 0
    prev = 0
    for i in indices:
        if not 1 <= i <= DIM:
            raise FormError(f"index {i} out of range 1..{DIM}")
        if i <= prev:
            raise FormError(f"indices not strictly increasing: {tuple(indices)}")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(DIM) if mask >> i & 1)


# for every mask m, the positions i at which an odd number of m's bits
# lie below bit i
_ODD_BELOW = tuple(sum(1 << i for i in range(DIM)
                       if (m & ((1 << i) - 1)).bit_count() & 1)
                   for m in range(1 << DIM))


def merge_sign(m1: int, m2: int) -> int:
    """Sign of e^{m1} wedge e^{m2} against the sorted merged blade.

    The masks must be disjoint.  Interleaving the two increasing
    sequences moves each factor of m1 past the factors of m2 below it,
    so the sign is the parity of the bits of m1 that have an odd number
    of m2's bits below them.
    """
    return -1 if (m1 & _ODD_BELOW[m2]).bit_count() & 1 else 1


# merge_sign(m, FULL_MASK ^ m) for every mask m: the sign of the Hodge
# star on e^m
_HODGE_SIGN = tuple(merge_sign(m, FULL_MASK ^ m) for m in range(1 << DIM))


def _grade_blades():
    by_grade = [[] for _ in range(DIM + 1)]
    for mask in range(1 << DIM):
        by_grade[mask.bit_count()].append(mask)
    # order blades lexicographically by index tuple inside each grade
    return tuple(tuple(sorted(g, key=blade_indices)) for g in by_grade)


BLADES_BY_GRADE = _grade_blades()
_BLADE_SETS = tuple(map(frozenset, BLADES_BY_GRADE))


@functools.cache
def _disjoint_blades(grade: int) -> tuple:
    """For every mask m, the blades of the grade disjoint from m, in
    blade order: the only blades a wedge with e^m can meet."""
    return tuple(tuple(b for b in BLADES_BY_GRADE[grade] if not b & m)
                 for m in range(1 << DIM))


class Form:
    """Sparse exterior form of a fixed grade."""

    __slots__ = ("grade", "terms")

    def __init__(self, grade: int, terms=None):
        if not 0 <= grade <= DIM:
            raise GradeError(f"grade {grade} out of range")
        self.grade = grade
        terms = terms or {}
        blades = _BLADE_SETS[grade]
        if not blades.issuperset(terms):
            for mask in terms:
                if mask not in range(1 << DIM):
                    # blade_indices reads bits 0-6 only, so name it as given
                    raise GradeError(f"{mask!r} is not the mask of a blade of R^{DIM}")
                if mask not in blades:
                    raise GradeError(
                        f"blade {blade_indices(mask)} has wrong grade for a {grade}-form")
        # a plain copy when no coefficient is zero, the common case
        self.terms = dict(terms) if all(terms.values()) else \
            {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, grade: int) -> "Form":
        return cls(grade)

    def is_zero(self) -> bool:
        return not self.terms

    def support_mask(self) -> int:
        out = 0
        for m in self.terms:
            out |= m
        return out

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.grade != self.grade:
            raise GradeError(f"cannot add a {self.grade}-form and a {other.grade}-form")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return Form(self.grade, terms)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Form(self.grade, {m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, Form):
            return NotImplemented
        return Form(self.grade, {m: c * scalar for m, c in self.terms.items()})

    # the scalars commute
    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.grade == other.grade and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return f"Form({self.grade}, 0)"
        bits = []
        for m in sorted(self.terms, key=blade_indices):
            label = "".join(str(i) for i in blade_indices(m)) or "1"
            bits.append(f"{self.terms[m]!r}*e{label}")
        return f"Form({self.grade}, {' + '.join(bits)})"


def numerators(*forms: Form) -> tuple[tuple[Form, ...], int]:
    """Integer numerators of forms over one common denominator.

    Returns (A_1, ..., A_n) and the least d >= 1 with a_k = A_k / d and
    every coefficient of every A_k an int (a QuadExt with int parts for
    QuadExt coefficients).  A multilinear kernel runs on the A_k and
    rescales its result once, by 1/d per argument.  Int forms come back
    as they are with d = 1, and an argument repeated by identity comes
    back as one object, so kernels keep their diagonal shortcuts.
    """
    distinct = list({id(a): a for a in forms}.values())
    coeffs = [c for a in distinct for c in a.terms.values()]
    ints, d = clear_denominators(coeffs)
    if ints is coeffs:
        return forms, 1
    it = iter(ints)
    out = {id(a): Form(a.grade, {m: next(it) for m in a.terms})
           for a in distinct}
    return tuple(out[id(a)] for a in forms), d


def blade(indices: Iterable[int], coeff=1) -> Form:
    idx = tuple(indices)
    return Form(len(idx), {blade_mask(idx): coeff})


def vector(i: int) -> Form:
    """The basis vector e_i as a 1-form/vector (the metric is standard)."""
    return blade((i,))


def vector_form(coords: Sequence) -> Form:
    """1-form with the given 7 coordinates."""
    if len(coords) != DIM:
        raise FormError(f"need {DIM} coordinates")
    return Form(1, {1 << i: coords[i] for i in range(DIM)})


def coords_of(v: Form) -> list:
    if v.grade != 1:
        raise GradeError("coordinates of a non-vector")
    return [v.terms.get(1 << i, 0) for i in range(DIM)]


def wedge(a: Form, b: Form) -> Form:
    if a.grade + b.grade > DIM:
        raise GradeError(f"wedge of grades {a.grade}+{b.grade} exceeds {DIM}")
    terms = {}
    odd = _ODD_BELOW
    get = b.terms.get
    # when b holds more blades than can meet a blade of a, look up only
    # those that can (at the top degree, the complement alone)
    disjoint = _disjoint_blades(b.grade) \
        if len(b.terms) > comb(DIM - a.grade, b.grade) else None
    for m1, c1 in a.terms.items():
        for m2 in disjoint[m1] if disjoint else b.terms:
            if m1 & m2:
                continue
            c2 = get(m2)
            if c2 is None:
                continue
            # merge_sign(m1, m2), read off its table
            c = (-1 if (m1 & odd[m2]).bit_count() & 1 else 1) * c1 * c2
            m = m1 | m2
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
    return Form(a.grade + b.grade, terms)


def contract(v: Form, a: Form) -> Form:
    """Interior product v ⌟ a for a vector v (grade 1)."""
    if v.grade != 1:
        raise GradeError("contraction direction must be a vector")
    if a.grade == 0:
        raise GradeError("cannot contract into a 0-form")
    terms = {}
    for mv, cv in v.terms.items():
        for ma, ca in a.terms.items():
            if not ma & mv:
                continue
            # e_i -| e^{ma} = s e^m for e^{ma} = s e_i ^ e^m
            m = ma ^ mv
            c = merge_sign(mv, m) * cv * ca
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
    return Form(a.grade - 1, terms)


def hodge(a: Form) -> Form:
    """Hodge star for the standard metric and volume e1234567."""
    return Form(DIM - a.grade,
                {FULL_MASK ^ m: _HODGE_SIGN[m] * c
                 for m, c in a.terms.items()})


def hodge_m4(a: Form) -> Form:
    """Hodge star of the 4-dimensional block span(e4..e7), volume e4567.

    The form must be supported on that block.
    """
    if a.support_mask() & ~M4_MASK:
        raise FormError("form is not supported on span(e4..e7)")
    if a.grade > 4:
        raise GradeError("grade exceeds the block dimension")
    return Form(4 - a.grade,
                {M4_MASK ^ m: merge_sign(m, M4_MASK ^ m) * c
                 for m, c in a.terms.items()})


def inner(a: Form, b: Form):
    """Metric pairing of two forms of the same grade (basis blades are
    orthonormal)."""
    if a.grade != b.grade:
        raise GradeError("inner product of different grades")
    small, big = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    total = 0
    for m, c in small.items():
        d = big.get(m)
        if d is not None:
            total = total + c * d
    return total


def norm_sq(a: Form):
    return inner(a, a)


def vol_coefficient(a: Form):
    """Coefficient of e1234567 in a 7-form."""
    if a.grade != DIM:
        raise GradeError("volume coefficient of a non-top form")
    return a.terms.get(FULL_MASK, 0)


def form_to_coords(a: Form) -> list:
    """Coefficient vector of a form in the fixed blade order of its grade."""
    return [a.terms.get(m, 0) for m in BLADES_BY_GRADE[a.grade]]


def form_from_coords(grade: int, coords: Sequence) -> Form:
    blades = BLADES_BY_GRADE[grade]
    if len(coords) != len(blades):
        raise FormError(f"need {len(blades)} coefficients for grade {grade}")
    return Form(grade, {m: c for m, c in zip(blades, coords)})


def form_to_json(a: Form) -> dict:
    terms = []
    for m in sorted(a.terms, key=blade_indices):
        terms.append({"indices": list(blade_indices(m)),
                      "coeff": scalar_to_json(a.terms[m])})
    return {"grade": a.grade, "terms": terms}


def form_from_json(data) -> Form:
    if not isinstance(data, dict) or "grade" not in data or "terms" not in data:
        raise FormError("form JSON needs 'grade' and 'terms'")
    grade = data["grade"]
    # exact type: a bool is an int too
    if type(grade) is not int or not 0 <= grade <= DIM:
        raise FormError(f"bad grade: {grade!r}")
    if not isinstance(data["terms"], list):
        raise FormError("'terms' must be a list")
    terms = {}
    for entry in data["terms"]:
        if not isinstance(entry, dict) or "indices" not in entry or "coeff" not in entry:
            raise FormError(f"bad term: {entry!r}")
        idx = entry["indices"]
        if not isinstance(idx, list) or len(idx) != grade:
            raise FormError(f"term indices {idx!r} do not match grade {grade}")
        if any(type(i) is not int for i in idx):
            raise FormError(f"term indices {idx!r} must be integers")
        mask = blade_mask(idx)  # rejects unsorted and duplicate indices
        if mask in terms:
            raise FormError(f"duplicate blade {tuple(idx)}")
        terms[mask] = scalar_from_json(entry["coeff"])
    return Form(grade, terms)
