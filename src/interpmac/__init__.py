"""Exact arithmetic for interpolation Macdonald and Jack polynomials,
their binomial coefficients, and an executable catalog of the
identities relating them."""

from .errors import (DegreeError, DimensionError, DivisionByZero,
                     InterpmacError, SpecializationCollision,
                     UnsupportedSubstitution, UsageError)
from .identities import CATALOG, CheckReport, run_check
from .interpolation import (FamilyCache, FamilyKey, binom, binom_sym,
                            closed_d, closed_e, closed_phi, e_top, g_oracle,
                            g_recursive, gplus, gprime, okounkov, r_sym,
                            rprime, solve_square)
from .polyring import LaurentPoly
from .scalars import Scalar
from .shapes import (CellStats, Permutation, contains, diagram_stats,
                     dominant_sort, enumerate_compositions, partitions_upto)
from .variant import FieldConfig, qt_config, r_config

__version__ = "0.1.0"
