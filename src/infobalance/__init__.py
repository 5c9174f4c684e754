"""Information balance of finite-dimensional quantum measurements.

Represents quantum instruments (finite collections of completely positive
maps), builds their indirect-measurement dilations, and computes the
information gain, disturbance, and missing information of a measurement,
together with recovery channels, fidelity bounds, and Holevo-bound checks.
All entropic quantities are in bits.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BadDistribution,
    DimensionMismatch,
    DimensionTooSmall,
    DuplicateLabel,
    InfoBalanceError,
    InvalidInstrument,
    InvalidPovm,
    InvalidState,
    LabelOverlap,
    MissingOutcome,
    NegativeEigenvalue,
    NotIsometry,
    NotSquare,
    NumericalInconsistency,
    ParseError,
    UnknownLabel,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .tensors import (
    LabeledState,
    Subsystem,
    eig_hermitian,
    entropy_bits,
    func_on_support,
    partial_trace,
)
from .objects import (
    Instrument,
    OutcomeMap,
    Povm,
    PurifiedInput,
    ValidationReport,
    check_povm,
    haar_isometry,
    outcome_probability,
    posterior_state,
    povm_of,
    purify,
    random_instrument,
    require_valid,
    validate,
)
from .serialize import (
    dumps_instrument,
    dumps_json,
    dumps_state,
    loads_instrument,
    loads_state,
)
from .dilation import (
    DilationBundle,
    chi_quantity,
    coherent_information,
    conditional_mutual_information,
    dilate,
    entanglement_fidelity,
    mutual_information,
    reduced,
    tensor_product,
    theta_state,
    unitary_completion,
    von_neumann_entropy,
)
from .measures import (
    BalanceReport,
    OutcomeBalance,
    balance_report,
    balance_reports,
    binary_entropy,
    disturbance,
    disturbance_no_outcomes,
    groenewold_gain,
    information_gain,
    noise_delta,
    shannon_entropy,
    single_outcome_quantities,
)
from .recovery import (
    FanoCheck,
    RecoveryFamily,
    correction_thresholds,
    corrected_fidelity,
    fano_bound_check,
    petz_family,
    petz_recovery,
)
from .encodings import (
    Encoding,
    HolevoReport,
    classical_mutual_information,
    ensemble_from_reference_povm,
    holevo_check,
    joint_distribution,
    random_reference_povm,
)
from .families import (
    FAMILIES,
    depolarizing,
    filter_family,
    measure_and_reprepare,
    near_trivial,
    partial_dephasing,
    projective,
)

# the submodules bound by the imports above are not part of the API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
