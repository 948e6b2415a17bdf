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
    FockTruncation,
    ModelConfig,
    build_full,
    diamagnetic_constant,
    model_tag,
    parity_operator,
)
from .plotting import emit_plot
from .spectra import (
    CrossingReport,
    SpectrumSweep,
    SweepError,
    TruncationCheck,
    check_truncation,
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
