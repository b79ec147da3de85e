"""Commuting elliptic difference operators on bounded partitions.

A numerical toolkit for the finite family of commuting difference operators
acting on functions of partitions inside an n x m box: coefficient data,
the operators on the table of lattice moves and their algebra, the joint
spectrum with labels carried analytically in the nome, monic polynomials on
the spectrum, and an independent Macdonald-polynomial oracle for the
zero-nome degeneration.
"""

__version__ = "0.1.0"

from .coeffs import (
    ModelParams,
    hop_amplitudes,
    hop_coefficient,
    norm_vector,
    pieri_coefficient,
    weight_vector,
)
from .eigenpoly import (
    build_polynomials,
    dual_orthogonality_residual,
    pieri_residual,
    reconstruct_and_compare,
)
from .elliptic import ThetaEvaluator
from .errors import (
    ConsistencyError,
    ContinuationError,
    DegenerateSpecializationError,
    DegenerateSpectrumError,
    GenericityViolationError,
    LabelingError,
    NormalizationError,
    RlattError,
    TruncationViolationError,
)
from .macdonald import (
    SymmetricPoly,
    TrigComparison,
    compare_trig,
    macdonald_coeffs,
)
from .operators import build_hop_operator
from .partitions import (
    LatticeBasis,
    add_strip,
    enumerate_lattice,
    vertical_strips,
)
from .spectral import (
    Spectrum,
    continue_labels,
    joint_diagonalize,
    label_spectrum,
    orthogonality_residual,
    sweep_spectra,
)
from .weightlattice import crosscheck_hop_coefficients
