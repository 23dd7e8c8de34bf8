"""Exact and approximate block-diagonalization of Dirac-type Hamiltonians.

Builds the unitary that takes a graded Hamiltonian H = beta m + E + O to
block-diagonal form in a single shot from the matrix sign function,
provides the closed forms available when E and O commute together with a
weak-field square root, and implements the classical iterative odd-part
elimination so the routes can be compared quantitatively on small models.
"""

from .algebra import (
    DiracDecomposition,
    Grading,
    anticommutator,
    commutator,
    even_projection,
    frobenius,
    hermiticity_defect,
    make_beta,
    odd_norm_ratio,
    odd_projection,
    relative_norm,
    split_even_odd,
)
from .eriksen import (
    DiagnosticSet,
    FWResult,
    compute_diagnostics,
    eriksen_condition_residual,
    eriksen_transform,
    eriksen_transform_alt,
    exponent_oddness,
)
from .errors import (
    BranchCutProximity,
    DegenerateFactor,
    DimensionMismatch,
    FWLabError,
    InvalidGrid,
    NonHermitianInput,
    NotCommuting,
    NotUnitary,
    OutsideValidityDomain,
    ParseError,
    SingularHamiltonian,
    SingularOperand,
)
from .exact_case import (
    CommutationReport,
    check_commutation,
    h_fw_exact,
    lambda_exact,
    sqrt_hd2_exact,
    u_fw_exact,
    weak_field_sqrt,
    weak_field_transform,
)
from .fileio import (
    format_complex,
    read_matrix,
    read_potential_table,
    write_matrix,
    write_text,
)
from .harness import METHOD_TAGS, run_comparison
from .matfunc import (
    SpectralGapReport,
    Spectrum,
    inv_sqrt,
    odd_exp,
    sign_operator,
    spectral_gap,
    unitary_log,
)
from .models import (
    ModelSpec,
    Potential,
    build_free_particle,
    build_lattice_1d,
    build_model,
    build_synthetic_commuting,
    load_explicit_matrix,
    parse_potential,
)
from .report import ComparisonReport, CrossRow, MethodRow, emit_report, report_csv, report_json
from .stepwise import StepwiseTrace, ToleranceConfig, stepwise_fw

__version__ = "0.1.0"
