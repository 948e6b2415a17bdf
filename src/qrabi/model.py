"""Hamiltonians of the quantum Rabi model (QRM) and its extension with the
diamagnetic A^2 term (QRMA), as their two parity blocks.

The Hamiltonian is real symmetric on the truncated qubit (x) Fock space,

    H = omega_c (I (x) N) + (omega_0 / 2) (sigma_z (x) I) + g (sigma_x (x) X)
        + D (I (x) X @ X)   [QRMA only],   X = a + a†,

with D = g^2 / omega_c unless overridden.  X @ X is formed as an explicit
matrix square of the truncated X, so truncation artifacts are consistent
between the coupling and diamagnetic terms.  The qubit factor comes first,
so the flat index of |s, n> is ``s * n_max + n`` with s = 0 for the excited
qubit state.  hbar = 1; frequencies are in units of the cavity frequency.

Excitation parity Pi = sigma_z (x) (-1)^(a†a) is an exact symmetry of both
models, so H is the direct sum of two real blocks, ``parity_blocks``, which
every solver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelConfig",
    "bogoliubov_map",
    "parity_blocks",
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
        if not isinstance(self.include_diamagnetic, (bool, np.bool_)):
            raise ValueError(
                f"include_diamagnetic must be a bool, got {self.include_diamagnetic!r}")
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
    s = sqrt(omega' / omega_c).  D is ``cfg.d_override``, else g^2 / omega_c;
    without the A^2 term the map is the identity: ``(cfg, 0.0, 1.0)``.
    """
    if not cfg.include_diamagnetic:
        return cfg, 0.0, 1.0
    d = float(_diamagnetic(cfg, np.asarray(cfg.g, dtype=float)))
    omega = math.sqrt(cfg.omega_c**2 + 4.0 * d * cfg.omega_c)
    qrm = ModelConfig(omega_c=omega, omega_0=cfg.omega_0, g=cfg.g * math.sqrt(cfg.omega_c / omega),
                      n_max=cfg.n_max)
    return qrm, (omega - cfg.omega_c) / 2.0, math.sqrt(omega / cfg.omega_c)


def _coupling_grid(g_grid) -> np.ndarray:
    """``g_grid`` as a float array, which must be non-empty and 1-D."""
    grid = np.array(g_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("g_grid must be a non-empty 1-D sequence")
    return grid


def _g_over_omega_c(base: ModelConfig, grid: np.ndarray) -> np.ndarray:
    """``grid`` divided by ``base.omega_c``, the g axis of a sweep; a finite g
    whose quotient overflows, and a grid ``parity_blocks`` refuses at its
    smallest or largest g (entries do not decrease as g >= 0 grows), are a
    ``ValueError``."""
    with np.errstate(over="ignore"):
        scaled = grid / base.omega_c
    bad = np.isinf(scaled) & np.isfinite(grid)
    if bad.any():
        raise ValueError(f"g / omega_c overflows at g = {float(grid[bad][0])!r}, "
                         f"omega_c = {base.omega_c!r}")
    parity_blocks(base, np.unique([grid.min(), grid.max()]))  # one point if they are equal
    return scaled


def parity_blocks(base: ModelConfig, g_grid) -> np.ndarray:
    """Real parity blocks of H over the non-empty 1-D ``g_grid`` (``base.g``
    is ignored), shape (2, len(g_grid), n_max, n_max): parity -1, then +1.
    Chain index n holds the qubit state with sigma_z = P (-1)^n, so block P
    is diag(omega_c n + P (omega_0/2) (-1)^n) + g X + D(g) X @ X, X = a + a†.
    A negative or NaN coupling, or one whose blocks are not finite, is a
    ``ValueError`` that names the first such coupling."""
    grid = _coupling_grid(g_grid)
    n = np.arange(base.n_max)
    field = np.diag(np.sqrt(n[1:]), k=1)  # X: sqrt(n) on both off-diagonals
    field = field + field.T
    with np.errstate(over="ignore", invalid="ignore"):
        d = _diamagnetic(base, grid) if base.include_diamagnetic else np.zeros_like(grid)
        signs = np.array([[-1.0], [1.0]]) * (base.omega_0 / 2.0) * (-1.0) ** n
        diagonal = np.eye(n.size) * (base.omega_c * n + signs)[:, None, None, :]
        blocks = diagonal + grid[:, None, None] * field + d[:, None, None] * (field @ field)
    bad = ~((grid >= 0) & np.isfinite(blocks).all(axis=(0, 2, 3)))
    if bad.any():
        raise ValueError(f"need g >= 0 and a finite Hamiltonian, got g = {float(grid[bad][0])!r}")
    return blocks
