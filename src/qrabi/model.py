"""Hamiltonians of the quantum Rabi model (QRM) and its extension with the
diamagnetic A^2 term (QRMA), plus the parity symmetry operator.

The Hamiltonian is real symmetric on the truncated qubit (x) Fock space,

    H = omega_c (I (x) N) + (omega_0 / 2) (sigma_z (x) I) + g (sigma_x (x) X)
        + D (I (x) X @ X)   [QRMA only],   X = a + a†,

with D = g^2 / omega_c unless overridden.  X @ X is formed as an explicit
matrix square of the truncated X, so truncation artifacts are consistent
between the coupling and diamagnetic terms.  The qubit factor comes first,
so the flat index of |s, n> is ``s * n_max + n`` with s = 0 for the excited
qubit state.  hbar = 1; frequencies are in units of the cavity frequency.

The solvers use the two real parity blocks of H (``parity_blocks``);
``build_full`` is the dense matrix, kept as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelConfig",
    "diamagnetic_constant",
    "bogoliubov_map",
    "build_full",
    "parity_blocks",
    "parity_operator",
    "model_tag",
]


def _count(name: str, value) -> int:
    """``value`` as an int; it must be a whole number >= 2."""
    if not (value >= 2 and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelConfig:
    """Physical parameters of a qubit-cavity model instance.

    All frequencies are in units of the cavity frequency, so ``omega_c``
    is normally 1.0.  ``d_override`` fixes the diamagnetic constant
    explicitly; when absent D = g^2 / omega_c.  ``n_max`` is the number of
    Fock states kept, the basis |0> .. |n_max-1>.
    """

    omega_c: float = 1.0
    omega_0: float = 1.0
    g: float = 0.0
    include_diamagnetic: bool = False
    d_override: float | None = None
    n_max: int = 15

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _count("n_max", self.n_max))
        if not 0 < self.omega_c < np.inf:
            raise ValueError(f"omega_c must be finite and > 0, got {self.omega_c}")
        if not 0 <= self.omega_0 < np.inf:
            raise ValueError(f"omega_0 must be finite and >= 0, got {self.omega_0}")
        if not 0 <= self.g < np.inf:
            raise ValueError(f"g must be finite and >= 0, got {self.g}")
        if self.d_override is not None and not 0 <= self.d_override < np.inf:
            raise ValueError(f"d_override must be finite and >= 0, got {self.d_override}")


def _diamagnetic(cfg: ModelConfig, g: np.ndarray) -> np.ndarray:
    """D at each coupling of ``g``: ``cfg.d_override``, else g^2 / omega_c."""
    if cfg.d_override is not None:
        return np.full_like(g, cfg.d_override)
    return g**2 / cfg.omega_c


def diamagnetic_constant(cfg: ModelConfig) -> float:
    """Diamagnetic coupling constant D for the given configuration."""
    return float(_diamagnetic(cfg, np.asarray(cfg.g, dtype=float)))


def bogoliubov_map(cfg: ModelConfig) -> tuple[ModelConfig, float, float]:
    """``(qrm, shift, squeeze)``: the QRM that ``cfg`` without its Fock cutoff
    is unitarily equivalent to (C. Nataf & C. Ciuti, Nat. Commun. 1, 72
    (2010)).

    omega_c a†a + D (a + a†)^2 is an oscillator of frequency
    omega' = sqrt(omega_c^2 + 4 D omega_c) squeezed on the cavity alone, so
    the untruncated QRMA has the levels of ``qrm`` (omega', the same omega_0
    and cutoff, g' = g sqrt(omega_c / omega'), no A^2 term) plus ``shift``
    = (omega' - omega_c) / 2, parity by parity, and the same qubit entropy.
    Its Wigner function is W_QRMA(q, p) = W_qrm(s q, p / s) with ``squeeze``
    s = sqrt(omega' / omega_c).  D is ``diamagnetic_constant(cfg)``; without
    the A^2 term the map is the identity: ``(cfg, 0.0, 1.0)``.
    """
    if not cfg.include_diamagnetic:
        return cfg, 0.0, 1.0
    omega = math.sqrt(cfg.omega_c**2 + 4.0 * diamagnetic_constant(cfg) * cfg.omega_c)
    qrm = ModelConfig(omega_c=omega, omega_0=cfg.omega_0, g=cfg.g * math.sqrt(cfg.omega_c / omega),
                      n_max=cfg.n_max)
    return qrm, (omega - cfg.omega_c) / 2.0, math.sqrt(omega / cfg.omega_c)


def _field(n_max: int) -> np.ndarray:
    """Truncated X = a + a†: sqrt(n) on both off-diagonals."""
    field = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
    return field + field.T


def build_full(cfg: ModelConfig) -> np.ndarray:
    """Dense real symmetric Hamiltonian of ``cfg``, shape (2 n_max, 2 n_max),
    as Kronecker products in the qubit-first basis.  It is not assembled
    from ``parity_blocks``, so it serves as their reference."""
    n = cfg.n_max
    field = _field(n)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.diag([1.0, -1.0])
    h = (cfg.omega_c * np.kron(np.eye(2), np.diag(np.arange(n, dtype=float)))
         + (cfg.omega_0 / 2.0) * np.kron(sigma_z, np.eye(n))
         + cfg.g * np.kron(sigma_x, field))
    if cfg.include_diamagnetic:
        h += diamagnetic_constant(cfg) * np.kron(np.eye(2), field @ field)
    return h


def parity_blocks(base: ModelConfig, g_grid) -> np.ndarray:
    """Real parity blocks of ``build_full`` over ``g_grid`` (``base.g`` is
    ignored), shape (2, len(g_grid), n_max, n_max): parity -1, then +1.  Chain
    index n holds the qubit state with sigma_z = P (-1)^n, so block P is
    diag(omega_c n + P (omega_0/2) (-1)^n) + g X + D(g) X @ X, X = a + a†."""
    grid = np.asarray(g_grid, dtype=float)
    n = np.arange(base.n_max)
    field = _field(n.size)
    d = _diamagnetic(base, grid) if base.include_diamagnetic else np.zeros_like(grid)
    signs = np.array([[-1.0], [1.0]]) * (base.omega_0 / 2.0) * (-1.0) ** n
    diagonal = np.eye(n.size) * (base.omega_c * n + signs)[:, None, None, :]
    return diagonal + grid[:, None, None] * field + d[:, None, None] * (field @ field)


def parity_operator(n_max: int) -> np.ndarray:
    """Excitation parity Pi = sigma_z (x) diag((-1)^n) on n_max Fock states as
    a real diagonal matrix; Pi^2 = I, and Pi is an exact symmetry of both
    models."""
    return np.diag(np.kron([1.0, -1.0], (-1.0) ** np.arange(_count("n_max", n_max))))


def model_tag(cfg: ModelConfig) -> str:
    """Short label for the model variant: 'QRMA' with the diamagnetic term,
    'QRM' without."""
    return "QRMA" if cfg.include_diamagnetic else "QRM"
