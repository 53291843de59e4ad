"""Sierpinski-type Moran measures: exact zero structure, candidate spectra,
orthogonality and completeness verification, spectrality decisions, and
attractor rendering."""

__version__ = "0.1.0"

from .analyzer import (
    VerificationReport,
    completeness_scan,
    find_zero_level,
    verify_orthogonality,
)
from .builder import (
    BlockDecomposition,
    SpectrumLevel,
    build_blocks,
    certified_block_size,
    choose_block_size,
    find_admissible_direction,
    normalize_first_level,
    spectrum_levels,
)
from .decider import (
    AdmissibilityResult,
    PlanarClass,
    Verdict,
    admissibility_scan,
    classify_planar_digit_set,
    decide,
)
from .exact import (
    Matrix,
    check_contraction,
    cyclotomic_vanishes,
    mixed_radix_sums,
    operator_norm_upper,
)
from .masks import (
    DigitSet,
    ZeroStructure,
    find_zero_directions,
)
from .pairs import (
    CompatiblePair,
    is_compatible_pair,
)
from .render import PointCloud, render, support_points
from .specfile import load_document, load_system
from .system import Level, MoranSystem, build_system
