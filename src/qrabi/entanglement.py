"""Ground-state extraction, partial trace, von Neumann entropy, and
expectation values.

States are plain numpy arrays over the qubit (x) cavity basis of
``model.build_full`` with their subsystem dims, and operators are plain
square arrays over the same basis.  Entropy is measured in bits (log base
2), so a maximally entangled qubit-cavity state has S = 1 exactly.
``ground_state`` and ``entropy_sweep`` read the ``GroundStates`` record of
``spectra.parity_ground_states``, which picks the ground state, and an
``EntropySweep`` keeps each variant's record, so the parity, doublet gap,
top-Fock population and truncation report of its points need no new solve.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .spectra import GroundStates, parity_ground_states

__all__ = [
    "PureState",
    "DensityMatrix",
    "EntropySweep",
    "ground_state",
    "partial_trace",
    "von_neumann_entropy",
    "entropy_sweep",
    "expectation",
]

# the entropy drops eigenvalues <= 0 as roundoff; one below
# -REJECT_NEGATIVE marks a broken input
REJECT_NEGATIVE = 1e-8


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the composite qubit (x) cavity basis,
    one amplitude per basis state (the product of ``dims``).  States
    compare and hash by identity.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if amp.shape != (math.prod(dims),):
            raise ValueError(f"{amp.shape} amplitudes do not match dims {dims}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("state vector contains non-finite amplitudes")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized within 1e-10")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace complex matrix over one or more subsystems.

    Its side must be the product of ``dims``.  Shape, finiteness,
    Hermiticity and trace are validated on construction; positivity is
    enforced where eigenvalues are actually consumed (entropy).  Matrices
    compare and hash by identity.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)
        if data.shape != (side, side):
            raise ValueError(f"matrix shape {data.shape} does not match dims {dims}")
        if not np.all(np.isfinite(data)):
            raise ValueError("density matrix contains non-finite entries")
        if np.max(np.abs(data - data.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(data).real - 1.0) > 1e-10:
            raise ValueError("density matrix trace differs from 1 by more than 1e-10")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", dims)


def ground_state(cfg: ModelConfig) -> PureState:
    """Ground state of ``cfg`` over the qubit (x) cavity basis: the vector of
    ``spectra.parity_ground_states``, so its parity is definite even in a
    degenerate doublet, with the global phase fixed by making the
    largest-magnitude amplitude positive.  Its energy and quasi-degeneracy
    flag are ``levels[0, 0]`` and ``quasi_degenerate[0]`` of that record.
    """
    ground = parity_ground_states(cfg, [cfg.g])
    n = np.arange(cfg.n_max)
    # chain state n holds the qubit with sigma_z = P (-1)^n: index 0 for +1
    amp = np.zeros(2 * n.size)
    amp[(ground.parity[0] * (-1) ** n < 0) * n.size + n] = ground.psi[0]
    amp *= np.sign(amp[np.argmax(np.abs(amp))])
    return PureState(amp, (2, n.size))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced density matrix of one subsystem of a bipartite state.

    Parameters
    ----------
    rho : DensityMatrix
        State over [qubit, cavity] (dims of length 2, qubit first).
    keep : {'qubit', 'cavity'}
        Subsystem to keep; the other one is traced out.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"partial trace needs a bipartite state, got dims {rho.dims}")
    d0, d1 = rho.dims
    blocks = rho.data.reshape(d0, d1, d0, d1)
    if keep == "qubit":
        reduced = np.trace(blocks, axis1=1, axis2=3)
        return DensityMatrix(reduced, (d0,))
    if keep == "cavity":
        reduced = np.trace(blocks, axis1=0, axis2=2)
        return DensityMatrix(reduced, (d1,))
    raise ValueError(f"keep must be 'qubit' or 'cavity', got {keep!r}")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -sum_k lambda_k log2 lambda_k, with 0 log 0 := 0."""
    lam = np.linalg.eigvalsh(rho.data)
    if lam[0] < -REJECT_NEGATIVE:
        raise ValueError(
            f"density matrix has eigenvalue {lam[0]:.3e} < -{REJECT_NEGATIVE:g}; not PSD"
        )
    # the zeros are dropped, not summed: they would move the sum's rounding
    return float(_entropy_bits(lam[lam > 0.0]))


def _entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum lam log2 lam over the last axis, with 0 log 0 := 0, clamped at
    +0.0: weights a rounding step above 1 would otherwise give a tiny
    negative entropy, and a pure state -0.0."""
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    s = -(lam * logs).sum(axis=-1)
    return np.where(s > 0.0, s, 0.0)


@dataclass(frozen=True, eq=False)
class EntropySweep:
    """Ground-state qubit entropy (bits) of both model variants per
    coupling grid point, with the ``GroundStates`` record of each variant's
    solve.  ``g_grid`` holds each coupling divided by omega_c.  Sweeps
    compare and hash by identity."""

    g_grid: np.ndarray
    s_qrm: np.ndarray
    s_qrma: np.ndarray
    ground_qrm: GroundStates
    ground_qrma: GroundStates


def entropy_sweep(base: ModelConfig, g_grid) -> EntropySweep:
    """Entanglement entropy of the ground state for both model variants.

    ``base.include_diamagnetic`` is ignored: the table always contains one
    column per variant, computed from the same remaining parameters.
    ``g_grid`` holds couplings g in the same unit as ``base.omega_c``.
    """
    columns = []
    for dia in (False, True):
        ground = parity_ground_states(dataclasses.replace(base, include_diamagnetic=dia), g_grid)
        psi = ground.psi
        # the qubit state is diagonal: weights of the even and odd chain states
        lam = np.stack([(psi[:, 0::2] ** 2).sum(axis=1), (psi[:, 1::2] ** 2).sum(axis=1)], 1)
        columns += [_entropy_bits(lam), ground]
    s_qrm, ground_qrm, s_qrma, ground_qrma = columns
    return EntropySweep(ground_qrm.couplings / base.omega_c, s_qrm, s_qrma, ground_qrm, ground_qrma)


def expectation(op: np.ndarray, state: PureState) -> complex:
    """<psi|O|psi> for a square matrix ``op`` over the same space as ``state``."""
    side = state.amplitudes.size
    if np.shape(op) != (side, side):
        raise ValueError(f"operator shape {np.shape(op)} does not match state dims {state.dims}")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))
