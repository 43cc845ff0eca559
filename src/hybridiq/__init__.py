"""hybridiq: hybrid classical-quantum states, channels, correlations, LOCC."""

from . import errors
from .classical import (
    ClassicalSpace,
    KernelReport,
    MarkovKernel,
    compose_kernels,
    counting_space,
    discretize_interval,
    identity_kernel,
    kernel_from_map,
    uniform_mixing_kernel,
    validate_kernel,
)
from .channel import (
    HybridChannel,
    apply,
    completeness_defect,
    compose,
    extend_with_ancilla,
    from_blocks,
    from_coeff_kernel,
    from_rows,
    identity_channel,
    interaction_defect,
    non_interacting,
    random_channel,
)
from .correlations import (
    Ensemble,
    MonotonicityReport,
    holevo,
    monotonicity_report,
    mutual_information,
    mutual_information_three_term,
    state_ensemble,
)
from .linalg import (
    HermEig,
    hermitian_eig,
    is_psd,
    partial_trace,
    partial_transpose,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .locc import (
    LoccProtocol,
    LoccRound,
    SteeringScript,
    as_hybrid_channels,
    initial_record_state,
    is_ppt,
    run,
    run_steering,
    separable_from_ensemble,
    steer_to_separable,
)
from .state import (
    ClassicalMarginal,
    Conditioned,
    Effect,
    HybridState,
    classical_marginal,
    condition_on_effect,
    conditional_quantum,
    distance,
    embed_quantum,
    mix,
    new_state,
    point_mass_state,
    probability,
    product_state,
    quantum_marginal,
    random_state,
    tensor_with_quantum,
)

__version__ = "0.1.0"
