"""g2forge: exact exterior calculus for the standard G2 structure on R^7.

The package computes, over exact scalars, the type decomposition of
forms under G2, the quadratic expansion data of the associative
calibration (the b2 cocycle and the cubic polynomial it induces), and
the su(3)-equivariant obstruction pairing for a homogeneous family of
3-forms on SU(3)/S1, including a Monte-Carlo cross-check of the pairing
against Haar averages.

The suite names and the default sizes live here rather than in
``suites`` so that the command line can offer them without importing
the suites, which pull in the aw and pairing modules.
"""

__version__ = "0.1.0"

SUITE_NAMES = ("exterior", "g2", "cubic", "aw", "pairing")

DEFAULT_RANDOM = 100
DEFAULT_SAMPLES = 10 ** 5
