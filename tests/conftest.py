"""Shared digit-set fixtures used across the suite.

The five-element planar sets below are the standard mod-5 families: two
square-plus-far-corner variants (one mirrored through the x-axis) and the
staircase set; SIERPINSKI is the classic right-triangle mod-3 set.

The hypothesis profile is chosen here, once for every module: "moranspec"
by default, "ci" (the same with a fixed example order) when the
HYPOTHESIS_PROFILE environment variable names it.
"""
import os
from fractions import Fraction

from moranspec.masks import DigitSet

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves without hypothesis
    pass
else:
    settings.register_profile("moranspec", max_examples=150, deadline=None)
    settings.register_profile("ci", settings.get_profile("moranspec"), derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "moranspec"))

SIERPINSKI = DigitSet.from_vectors([(0, 0), (1, 0), (0, 1)])

SQUARE_PLUS = DigitSet.from_vectors([(0, 0), (1, 0), (0, 1), (1, 1), (3, 3)])
SQUARE_PLUS_MIRROR = DigitSet.from_vectors([(0, 0), (1, 0), (0, -1), (1, -1), (3, -3)])
STAIRCASE = DigitSet.from_vectors([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])

# Three-element mod-3 sets with a single zero direction, used by the
# triangular-template decision tests.
TRIPLE_A = DigitSet.from_vectors([(0, 0), (1, 2), (1, 3)])
TRIPLE_B = DigitSet.from_vectors([(0, 0), (2, 3), (3, 5)])

LINE_3 = DigitSet.from_vectors([(0,), (1,), (2,)])


def frac(x) -> Fraction:
    return Fraction(x)
