"""Universal quantum cloning of arbitrary symmetric-subspace operators, with
exact amplitudes, closed forms and a brute-force oracle."""

from .closed_forms import (
    bloch_vector,
    fidelity,
    generators,
    scaling_residual,
    scaling_residual_bloch,
    shrink,
)
from .cloner import (
    CloneAmplitudes,
    clone_amplitudes,
    clone_channel,
    concatenate,
    isometry_gram,
    uqcm_pure_output,
)
from .oracle import (
    covariance_check,
    ginibre_sym_operator,
    hermitian_sym_operator,
    oracle_clone,
    random_unitary,
    reduce_full_to_site,
    sym_embedding,
)
from .serialize import (
    BASIS_TAG,
    FormatError,
    read_sym_operator,
    sym_operator_from_dict,
    sym_operator_to_dict,
    write_sym_operator,
)
from .symspace import (
    ENTRY_GUARD,
    InvalidParameterError,
    ResourceLimitError,
    SymBasis,
    SymOperator,
    basis_dyad,
    basis_projector,
    dim,
    enumerate_basis,
    reduce_one,
    sym_operator,
)
from .verify import RunReport, run_suite

__version__ = "0.1.0"
