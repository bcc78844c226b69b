"""Seeded inputs and correctness gates of the benchmark workloads.

Imported only inside child processes, where ``src`` is on the path.
Every input is drawn from the stream ``sha256(f"{seed}:{workload}")``,
so one seed gives the same inputs on every run.  The gates check each
output against the identity that defines it and run outside the timed
regions.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from g2forge import aw, cubic, pairing, suites
from g2forge import exterior as ext
from g2forge.exterior import contract, hodge, norm_sq, vector, \
    vol_coefficient, wedge
from g2forge.g2 import random_traceless
from g2forge.linalg import SymTensor
from g2forge.scalars import scalar_to_json
from seeding import stream

OP_KINDS = ("project2", "project3", "project4", "hat", "iso_i_inv",
            "b2", "q2", "Q", "P")
SHAPES = ("sparse", "dense")

# the fitted obstruction polynomial and the headline pairing numbers
P_MODEL = (Fraction(-210), Fraction(55, 2), Fraction(50, 3), Fraction(125, 18))
PAIRING = Fraction(760, 3)
CLOSED_ASSEMBLY = Fraction(100, 3)
IDET_SELF = Fraction(320, 9)
COMPONENTS = {"s3": Fraction(-4, 9), "sx2": Fraction(-8, 3),
              "sy2": Fraction(4), "R": Fraction(24)}
MC_SAMPLES = 2 * 10 ** 5
MC_SIGMAS = 6


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def to_json(value):
    """Exact JSON of an operator result (form, tuple of forms, tensor
    or scalar) for digests and CLI comparisons."""
    if isinstance(value, ext.Form):
        return ext.form_to_json(value)
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, SymTensor):
        return [[scalar_to_json(c) for c in row] for row in value.entries]
    return scalar_to_json(value)


# -- operators ----------------------------------------------------------------

def _coeff(rng: random.Random) -> Fraction:
    """a/b with 1 <= |a| <= 5 and 1 <= b <= 3."""
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                    rng.randint(1, 3))


def random_form(rng: random.Random, grade: int, shape: str) -> ext.Form:
    """Sparse: 1-3 blades; dense: every blade of the grade."""
    blades = ext.BLADES_BY_GRADE[grade]
    picked = rng.sample(blades, rng.randint(1, 3)) if shape == "sparse" \
        else blades
    return ext.Form(grade, {m: _coeff(rng) for m in picked})


def random_tensor(rng: random.Random, shape: str) -> SymTensor:
    """A traceless tensor from g2.random_traceless scaled by 1/b; the
    sparse shape keeps 1-3 of its off-diagonal pairs (trace stays 0)."""
    S = random_traceless(rng, 5)
    if shape == "dense":
        return S.scale(Fraction(1, rng.randint(1, 3)))
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    entries = [[Fraction(0)] * 7 for _ in range(7)]
    for i, j in rng.sample(pairs, rng.randint(1, 3)):
        c = S.entries[i][j] or Fraction(1)
        entries[i][j] = entries[j][i] = c / rng.randint(1, 3)
    return SymTensor(entries, traceless=True)


def operator_inputs(seed: int, count: int, fr) -> list[tuple]:
    """``count`` (kind, shape, args) triples: blocks of the nine kinds
    times the two shapes, each block shuffled."""
    rng = stream(seed, "operators")
    plan: list[tuple[str, str]] = []
    while len(plan) < count:
        block = [(k, s) for k in OP_KINDS for s in SHAPES]
        rng.shuffle(block)
        plan.extend(block)
    out = []
    for kind, shape in plan[:count]:
        if kind == "project2":
            args = (random_form(rng, 2, shape),)
        elif kind == "project3":
            args = (random_form(rng, 3, shape),)
        elif kind in ("project4", "hat"):
            args = (random_form(rng, 4, shape),)
        elif kind == "b2":
            args = (random_form(rng, 4, shape), random_form(rng, 4, shape))
        elif kind in ("q2", "Q"):
            args = (hodge(fr.iso_i(random_tensor(rng, shape))),)
        else:                                   # iso_i_inv, P
            args = (fr.iso_i(random_tensor(rng, shape)),)
        out.append((kind, shape, args))
    return out


def operator_call(kind: str, fr):
    return {
        "project2": fr.project2,
        "project3": fr.project3,
        "project4": fr.project4,
        "hat": fr.hat,
        "iso_i_inv": fr.iso_i_inv,
        "b2": lambda a1, a2: cubic.b2(a1, a2, fr),
        "q2": lambda a: cubic.q2(a, fr),
        "Q": lambda a: cubic.q_value(a, fr),
        "P": lambda b: cubic.p_value(b, fr),
    }[kind]


def _b2_equations_hold(gamma, a1, a2, fr) -> bool:
    """gamma ^ (e_j -| psi) = -(hat(a1) ^ (e_j -| a2) + hat(a2) ^ (e_j -| a1))
    for j = 1..7."""
    h1, h2 = fr.hat(a1), fr.hat(a2)
    for j in range(1, 8):
        v = vector(j)
        rhs = -(wedge(h1, contract(v, a2)) + wedge(h2, contract(v, a1)))
        if wedge(gamma, fr.kappa[j - 1]) != rhs:
            return False
    return True


def _q_by_closed_form(a, fr):
    """Q(a) from Q(a) vol = Q2(a) ^ a with Q2 in closed form."""
    return vol_coefficient(wedge(cubic.q2_closed_form(a, fr), a))


def check_operator(kind: str, args: tuple, result, fr) -> bool:
    """The defining identity of each operator result."""
    if kind.startswith("project"):
        a = args[0]
        project = getattr(fr, kind)
        total = ext.Form.zero(a.grade)
        for part in result:
            total = total + part
        return total == a and all(project(part)[k] == part
                                  for k, part in enumerate(result))
    if kind == "hat":
        a = args[0]
        return all((wedge(result, fr.kappa[j])
                    + wedge(fr.phi, contract(vector(j + 1), a))).is_zero()
                   for j in range(7))
    if kind == "iso_i_inv":
        return fr.iso_i(result) == args[0]
    if kind == "b2":
        return _b2_equations_hold(result, args[0], args[1], fr)
    if kind == "q2":
        return _b2_equations_hold(result, args[0], args[0], fr)
    if kind == "Q":
        return result == _q_by_closed_form(args[0], fr)
    if kind == "P":
        return result == _q_by_closed_form(hodge(args[0]), fr)
    raise ValueError(kind)


# -- su3 ------------------------------------------------------------------------

def su3_inputs(seed: int, count: int):
    """Three Monte-Carlo stream seeds and ``count`` su(3) elements with
    integer entries in [-4, 4]."""
    rng = stream(seed, "su3")
    mc_seeds = [rng.randrange(2 ** 32) for _ in suites.MC_ELEMENTS]
    elements = []
    for _ in range(count):
        v1, v2 = rng.randint(-4, 4), rng.randint(-4, 4)
        elements.append(aw.Su3Element(
            (Fraction(v1), Fraction(v2), Fraction(-v1 - v2)),
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(6))))
    return mc_seeds, elements


def p_model_value(xi) -> Fraction:
    s, y, x = aw.decompose(xi)
    c1, c2, c3, c4 = P_MODEL
    return (c1 * s ** 3 + c2 * s * norm_sq(x) + c3 * s * norm_sq(y)
            + c4 * aw.r_value(y, x))


def check_pairing_report(rep: dict) -> bool:
    return (rep["first_principles_pairing"] == PAIRING
            and rep["closed_form_assembly"] == CLOSED_ASSEMBLY
            and rep["idet_self"] == IDET_SELF
            and rep["components"] == COMPONENTS)


def check_mc(sub: dict) -> bool:
    """The pairing suite's gate: within 6 standard errors."""
    return abs(sub["empirical"] - sub["predicted"]) <= MC_SIGMAS * sub["std_error"]


def mc_check(k: int, mc_seed: int) -> dict:
    xi = aw.Su3Element(*suites.MC_ELEMENTS[k])
    return pairing.haar_average_check(xi, samples=MC_SAMPLES, seed=mc_seed)
