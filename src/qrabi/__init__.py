"""Numerical toolkit for the quantum Rabi model with and without the
diamagnetic A^2 term: energy spectra, ground-state Wigner distributions,
and entanglement-entropy sweeps in a truncated qubit (x) Fock basis."""

from .entanglement import (
    DensityMatrix,
    EntropySweep,
    PureState,
    entropy_sweep,
    expectation,
    ground_state,
    partial_trace,
    von_neumann_entropy,
)
from .model import (
    Hamiltonian,
    ModelConfig,
    build_diamagnetic,
    build_full,
    build_rabi,
    diamagnetic_constant,
    model_tag,
    parity_operator,
)
from .operators import (
    FockTruncation,
    Operator,
    annihilation,
    creation,
    dagger,
    identity,
    is_hermitian,
    number,
    pauli,
    tensor,
)
from .plotting import emit_plot
from .spectra import (
    CrossingReport,
    EigenSystem,
    SpectrumSweep,
    SweepError,
    TruncationCheck,
    check_truncation,
    eigensystem,
    find_avoided_crossings,
    sweep_spectrum,
)
from .wigner import (
    QuadratureGrid,
    WignerGrid,
    ground_state_wigner,
    marginal_variance,
    wigner,
    wigner_characteristic,
    wigner_marginal,
    wigner_normalization,
)

__version__ = "0.1.0"
