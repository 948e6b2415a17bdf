"""Hamiltonian builders for the quantum Rabi model (QRM) and its extension
with the diamagnetic A^2 term (QRMA), plus the parity symmetry operator.

The Rabi Hamiltonian is

    H_rabi = omega_c (I (x) a†a) + (omega_0 / 2) (sigma_z (x) I)
             + g (sigma_x (x) (a† + a))

and the diamagnetic contribution is D (I (x) (a + a†)^2) with
D = g^2 / omega_c unless overridden.  (a + a†)^2 is formed as an explicit
matrix square of the truncated a + a†, so truncation artifacts are
consistent between the coupling and diamagnetic terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    FockTruncation,
    Operator,
    annihilation,
    creation,
    identity,
    number,
    pauli,
    tensor,
)

__all__ = [
    "ModelConfig",
    "Hamiltonian",
    "diamagnetic_constant",
    "build_rabi",
    "build_diamagnetic",
    "build_full",
    "parity_blocks",
    "parity_operator",
    "model_tag",
]


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of a qubit-cavity model instance.

    All frequencies are in units of the cavity frequency, so ``omega_c``
    is normally 1.0.  ``d_override`` fixes the diamagnetic constant
    explicitly; when absent D = g^2 / omega_c.
    """

    omega_c: float = 1.0
    omega_0: float = 1.0
    g: float = 0.0
    include_diamagnetic: bool = False
    d_override: float | None = None
    trunc: FockTruncation = FockTruncation(15)

    def __post_init__(self) -> None:
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")
        if self.omega_0 < 0:
            raise ValueError(f"omega_0 must be >= 0, got {self.omega_0}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.d_override is not None and self.d_override < 0:
            raise ValueError(f"d_override must be >= 0, got {self.d_override}")


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian operator on the qubit (x) cavity space plus the configuration
    it was built from; ``spectra.eigensystem`` checks Hermiticity."""

    op: Operator
    config: ModelConfig

    def __post_init__(self) -> None:
        expected = (2, self.config.trunc.n_max)
        if self.op.dims != expected:
            raise ValueError(f"Hamiltonian dims {self.op.dims} != {expected}")


def diamagnetic_constant(cfg: ModelConfig) -> float:
    """Diamagnetic coupling constant D for the given configuration."""
    if cfg.d_override is not None:
        return float(cfg.d_override)
    return float(cfg.g**2 / cfg.omega_c)


def build_rabi(cfg: ModelConfig) -> Hamiltonian:
    """Quantum Rabi Hamiltonian without the diamagnetic term."""
    t = cfg.trunc
    field = annihilation(t) + creation(t)
    op = (
        cfg.omega_c * tensor(identity(2), number(t))
        + (cfg.omega_0 / 2.0) * tensor(pauli("z"), identity(t.n_max))
        + cfg.g * tensor(pauli("x"), field)
    )
    return Hamiltonian(op, cfg)


def build_diamagnetic(cfg: ModelConfig) -> Hamiltonian:
    """Diamagnetic term D (I (x) (a + a†)^2), acting on the cavity only."""
    t = cfg.trunc
    field = annihilation(t) + creation(t)
    op = diamagnetic_constant(cfg) * tensor(identity(2), field @ field)
    return Hamiltonian(op, cfg)


def build_full(cfg: ModelConfig) -> Hamiltonian:
    """Full model: Rabi Hamiltonian plus the diamagnetic term when enabled."""
    h = build_rabi(cfg)
    if cfg.include_diamagnetic:
        h = Hamiltonian(h.op + build_diamagnetic(cfg).op, cfg)
    return h


def parity_blocks(base: ModelConfig, g_grid) -> np.ndarray:
    """Real parity blocks of ``build_full`` over ``g_grid`` (``base.g`` is
    ignored), shape (2, len(g_grid), n_max, n_max): parity -1, then +1.  Chain
    index n holds the qubit state with sigma_z = P (-1)^n, so block P is
    diag(omega_c n + P (omega_0/2) (-1)^n) + g X + D(g) X @ X, X = a + a†."""
    grid = np.asarray(g_grid, dtype=float)
    n = np.arange(base.trunc.n_max)
    field = np.diag(np.sqrt(n[1:]), k=1)
    field += field.T
    d = (np.zeros_like(grid) if not base.include_diamagnetic
         else grid**2 / base.omega_c if base.d_override is None
         else np.full_like(grid, base.d_override))
    signs = np.array([[-1.0], [1.0]]) * (base.omega_0 / 2.0) * (-1.0) ** n
    diagonal = np.eye(n.size) * (base.omega_c * n + signs)[:, None, None, :]
    return diagonal + grid[:, None, None] * field + d[:, None, None] * (field @ field)


def parity_operator(trunc: FockTruncation) -> Operator:
    """Excitation parity Pi = sigma_z (x) diag((-1)^n); unitary, Hermitian,
    Pi^2 = I, and an exact symmetry of both models."""
    signs = Operator(np.diag((-1.0) ** np.arange(trunc.n_max)), (trunc.n_max,))
    return tensor(pauli("z"), signs)


def model_tag(cfg: ModelConfig) -> str:
    """Short label for the model variant: 'QRMA' with the diamagnetic term,
    'QRM' without."""
    return "QRMA" if cfg.include_diamagnetic else "QRM"
