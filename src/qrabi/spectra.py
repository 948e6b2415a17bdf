"""Hermitian eigendecomposition, coupling sweeps, and avoided-crossing
detection.

Sweeps solve the real parity blocks of the model (``model.parity_blocks``)
over the whole grid in one batched call; each matrix is solved on its own,
so a grid point's result does not depend on the rest of the grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import Hamiltonian, ModelConfig, model_tag, parity_blocks
from .operators import FockTruncation, Operator, is_hermitian

__all__ = [
    "EigenSystem",
    "SpectrumSweep",
    "CrossingReport",
    "TruncationCheck",
    "SweepError",
    "eigensystem",
    "solve_parity_blocks",
    "ground_sector",
    "sweep_spectrum",
    "find_avoided_crossings",
    "check_truncation",
]


class SweepError(RuntimeError):
    """Failure of one grid point of a parameter sweep."""

    def __init__(self, g: float, cause: Exception):
        super().__init__(f"sweep failed at g = {g!r}: {cause}")
        self.g = g
        self.cause = cause


@dataclass(frozen=True)
class EigenSystem:
    """Full real spectrum (ascending) and the matching orthonormal
    eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SpectrumSweep:
    """Lowest ``k`` eigenvalues per coupling grid point.

    ``levels[i]`` holds the sorted lowest eigenvalues at ``g_grid[i]``.
    """

    g_grid: np.ndarray
    levels: np.ndarray
    model_tag: str


@dataclass(frozen=True)
class CrossingReport:
    """Location and size of the minimal gap between two adjacent levels.

    ``at_boundary`` is set when the minimum sits at a sweep endpoint, in
    which case no parabolic refinement was applied and the gap may still
    be decreasing beyond the window.
    """

    level_pair: tuple[int, int]
    g_at_min: float
    min_gap: float
    at_boundary: bool


@dataclass(frozen=True)
class TruncationCheck:
    """Change in the lowest eigenvalues when the Fock cutoff is doubled.

    ``top_fock_population`` is the weight of Fock state n_max - 1 in the
    n_max ground state.  It is reported only: ``converged`` looks at the
    eigenvalues, which can settle while the state is still cut off.
    """

    n_max: int
    n_max_doubled: int
    max_shift: float
    converged: bool
    top_fock_population: float


def eigensystem(h: Hamiltonian | Operator) -> EigenSystem:
    """Dense Hermitian eigendecomposition, eigenvalues ascending."""
    op = h.op if isinstance(h, Hamiltonian) else h
    if not is_hermitian(op, 1e-10):
        raise ValueError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh(op.data)
    return EigenSystem(values, vectors)


def solve_parity_blocks(base: ModelConfig, grid: np.ndarray, solver):
    """``solver`` on the stacked ``parity_blocks`` of ``base`` over ``grid``.
    ``SweepError`` names the first point that is negative or gives a
    non-finite Hamiltonian (checked before solving), or fails to solve."""
    with np.errstate(invalid="ignore", over="ignore"):
        blocks = parity_blocks(base, grid)
    bad = ~((grid >= 0) & np.isfinite(blocks).all(axis=(0, 2, 3)))
    if bad.any():
        raise SweepError(grid[bad][0], ValueError("need g >= 0 and a finite Hamiltonian"))
    try:
        return solver(blocks)
    except np.linalg.LinAlgError:
        for g, point in zip(grid, blocks.swapaxes(0, 1)):
            try:
                solver(point)
            except np.linalg.LinAlgError as exc:
                raise SweepError(g, exc) from exc
        raise


def ground_sector(values: np.ndarray) -> np.ndarray:
    """Ground sector per point of ``solve_parity_blocks`` levels; ties go to parity -1."""
    return np.argmin(values[:, :, 0], axis=0)


def sweep_spectrum(base: ModelConfig, g_grid, k_levels: int) -> SpectrumSweep:
    """Lowest ``k_levels`` eigenvalues of the full model at each coupling.

    Parameters
    ----------
    base : ModelConfig
        Configuration whose ``g`` is replaced by each grid value.
    g_grid : array_like
        Strictly ascending, non-empty coupling values (units of omega_c).
    k_levels : int
        Number of levels per grid point; at most 2 * n_max.
    """
    grid = np.asarray(g_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("g_grid must be a non-empty 1-D sequence")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("g_grid must be strictly ascending")
    dim = 2 * base.trunc.n_max
    if not 1 <= k_levels <= dim:
        raise ValueError(f"k_levels must be in [1, {dim}], got {k_levels}")

    levels = np.sort(np.hstack(solve_parity_blocks(base, grid, np.linalg.eigvalsh)), axis=1)
    return SpectrumSweep(grid, levels[:, :k_levels], model_tag(base))


def _parabola_min(xs: np.ndarray, ys: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through points i-1, i, i+1, clamped to the
    bracketing interval.  Falls back to the grid point when the three
    points are collinear."""
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    d1, d2 = x1 - x0, x1 - x2
    den = d1 * (y1 - y2) - d2 * (y1 - y0)
    if den == 0.0:
        return float(x1), float(y1)
    xv = x1 - 0.5 * (d1 * d1 * (y1 - y2) - d2 * d2 * (y1 - y0)) / den
    xv = float(min(max(xv, x0), x2))
    l0 = (xv - x1) * (xv - x2) / ((x0 - x1) * (x0 - x2))
    l1 = (xv - x0) * (xv - x2) / ((x1 - x0) * (x1 - x2))
    l2 = (xv - x0) * (xv - x1) / ((x2 - x0) * (x2 - x1))
    yv = float(y0 * l0 + y1 * l1 + y2 * l2)
    return xv, max(yv, 0.0)


def find_avoided_crossings(sweep: SpectrumSweep, pair: tuple[int, int]) -> CrossingReport:
    """Minimal gap between the adjacent levels ``pair = (k, k+1)``.

    Interior minima are refined by three-point parabolic interpolation of
    the gap; a minimum at a grid endpoint is reported unrefined with
    ``at_boundary`` set.
    """
    k, k1 = pair
    if k1 != k + 1:
        raise ValueError(f"pair must be adjacent levels (k, k+1), got {pair}")
    n_rows, n_levels = sweep.levels.shape
    if n_rows < 3:
        raise ValueError("sweep needs at least 3 grid points")
    if k < 0 or k1 >= n_levels:
        raise ValueError(f"pair {pair} outside the {n_levels} swept levels")

    gap = sweep.levels[:, k1] - sweep.levels[:, k]
    i = int(np.argmin(gap))
    if i == 0 or i == n_rows - 1:
        return CrossingReport((k, k1), float(sweep.g_grid[i]), float(gap[i]), True)
    g_min, gap_min = _parabola_min(sweep.g_grid, gap, i)
    return CrossingReport((k, k1), g_min, gap_min, False)


def check_truncation(cfg: ModelConfig, k_levels: int, tol: float) -> TruncationCheck:
    """Compare the lowest ``k_levels`` eigenvalues at n_max and 2 n_max.

    The basis is considered converged when no level moves by more than
    ``tol`` under doubling.  The top-Fock population of the n_max ground
    state, taken from its parity block, comes with the report.
    """
    n = cfg.trunc.n_max
    if not 1 <= k_levels <= 2 * n:
        raise ValueError(f"k_levels must be in [1, {2 * n}], got {k_levels}")
    doubled = dataclasses.replace(cfg, trunc=FockTruncation(2 * n))
    grid = np.array([cfg.g])
    values, vectors = solve_parity_blocks(cfg, grid, np.linalg.eigh)
    hi = np.sort(solve_parity_blocks(doubled, grid, np.linalg.eigvalsh).ravel())[:k_levels]
    shift = float(np.max(np.abs(np.sort(values.ravel())[:k_levels] - hi)))
    top = float(vectors[ground_sector(values)[0], 0, -1, 0] ** 2)
    return TruncationCheck(n, 2 * n, shift, shift < tol, top)
