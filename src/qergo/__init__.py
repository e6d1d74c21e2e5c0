"""Complex conditional probabilities for finite-dimensional quantum systems.

The package computes the three-property conditionals p(m|a,b) =
<b|m><m|a>/<b|a>, verifies the identity web they satisfy, rebuilds
Hilbert-space quantities from them, reproduces them operationally in a
simulated weak measurement, and realizes the position/momentum/energy
triple on a discretized 1D grid.
"""

from .basis import (
    Basis,
    computational_basis,
    ergodic_prob,
    ergodic_table,
    fourier_basis,
    haar_random_basis,
    make_basis,
)
from .bridge import (
    JointQuasiProb,
    align_global_phase,
    born_rule_coherence,
    inner_product_ccp,
    mix_joints,
    predict_outcome_prob,
    pure_state_joint,
    reconstruct_vector,
    reference_gauge_amplitudes,
)
from .ccp import (
    CcpTable,
    IdentitySides,
    backaction_check,
    bayes_convert,
    ccp_column,
    ccp_table,
    ccp_value,
    chain_compose,
    determinism_residual,
    ergodicity_product,
    is_defined,
    ozawa_error,
    phase_antisymmetry_check,
    sampling_variance,
)
from .errors import (
    BadGrid,
    BasisMismatch,
    ConfigError,
    DegenerateDenominator,
    DimensionMismatch,
    IndexOutOfRange,
    MissingValues,
    NonHermitian,
    NotOrthonormal,
    NumericsError,
    OrthogonalCondition,
    ParseError,
    PhaseUnwrapFailure,
    PostSelectionStarvation,
    QergoError,
    WeakRegimeViolation,
    ZeroReferenceOverlap,
)
from .lattice import (
    LatticeSystem,
    build_lattice,
    ccp_xEp,
    classical_momentum_check,
    conjugate_product_check,
    eigenfunction_from_ccp,
    energy_concentration,
    fourier_relation_check,
    gauge_shift,
    schrodinger_residual,
)
from .transform import (
    PhaseProfile,
    apply_phase_transform,
    dephase,
    quantized_spectrum_check,
    transformed_prob,
)
from .verify import IdentityCheck, VerdictReport, run_verification_suite
from .weak import (
    SequentialRun,
    WavefunctionScan,
    WeakRunReport,
    pointer_readout_means,
    scan_wavefunction,
    simulate_sequential,
    simulate_weak_value,
)

__version__ = "0.1.0"
