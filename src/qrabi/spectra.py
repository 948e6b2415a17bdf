"""Coupling sweeps, parity-block eigensolves, ground states, truncation
reports, and avoided-crossing detection.

Sweeps solve the real parity blocks of the model (``model.parity_blocks``)
over the whole grid in one batched call; each matrix is solved on its own,
so a grid point's result does not depend on the rest of the grid.
``parity_ground_states`` is the one place that picks the ground state, and
its ``GroundStates`` record holds every figure of that solve: the config
and couplings solved, the state, parity, levels, quasi-degeneracy flag,
doublet gap and top-Fock population.  ``entanglement.entropy_sweep``,
``wigner.ground_state_wigner`` and the CLI's Wigner series
(``cli._run_wigner``, each row through ``wigner._chain_wigner``) read it,
and ``truncation_report`` adds to it only the per-point level shift under
doubling of n_max.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, _coupling_grid, _g_over_omega_c, parity_blocks

__all__ = [
    "SpectrumSweep",
    "CrossingReport",
    "SweepError",
    "GroundStates",
    "parity_ground_states",
    "sweep_spectrum",
    "find_avoided_crossings",
    "truncation_report",
]

DEGENERACY_RTOL = 1e-10


class SweepError(RuntimeError):
    """A solver's failure at one grid point of a parameter sweep; a grid
    the model cannot represent is ``parity_blocks``'s ``ValueError``."""

    def __init__(self, g: float, cause: Exception):
        g = float(g)  # a numpy scalar's repr reads np.float64(...) on numpy 2
        super().__init__(f"sweep failed at g = {g!r}: {cause}")
        self.g = g
        self.cause = cause


@dataclass(frozen=True, eq=False)
class SpectrumSweep:
    """Lowest ``k`` eigenvalues per coupling grid point.

    ``g_grid`` holds each coupling divided by omega_c, and ``levels[i]``
    the sorted lowest eigenvalues at ``g_grid[i]``, in the same unit as
    omega_c.  ``model_tag`` is "QRMA" with the A^2 term, "QRM" without.
    Sweeps compare and hash by identity.
    """

    g_grid: np.ndarray
    levels: np.ndarray
    model_tag: str


@dataclass(frozen=True)
class CrossingReport:
    """Location and size of the minimal gap between two adjacent levels.

    ``g_at_min`` is a coupling divided by omega_c, as the sweep's
    ``g_grid`` is.
    ``at_boundary`` is set when the minimum sits at a sweep endpoint, in
    which case no parabolic refinement was applied and the gap may still
    be decreasing beyond the window.
    """

    level_pair: tuple[int, int]
    g_at_min: float
    min_gap: float
    at_boundary: bool


@dataclass(frozen=True, eq=False)
class GroundStates:
    """Every figure of one solve of the parity blocks of ``base`` over the
    raw couplings g of ``couplings`` (not divided by omega_c).

    ``psi[i]`` holds the n_max amplitudes of the ground state at
    ``couplings[i]`` in the chain basis of ``model.parity_blocks``: the
    lowest vector of one parity block, so ``parity[i]`` (+1 or -1) is
    definite even in a degenerate doublet.  ``levels[i]`` holds every level
    of both blocks in ascending order.  ``quasi_degenerate[i]`` is set when
    the two lowest levels agree to within ``DEGENERACY_RTOL`` relative, the
    band ``DEGENERACY_RTOL * (1 + |levels[i, 0]|)`` (the large-g parity
    doublet).  Outside the band ``psi[i]`` is the vector of
    ``levels[i, 0]``; inside it ``psi[i]`` is parity -1's vector, whose
    energy, its own block's lowest level, can be higher than
    ``levels[i, 0]`` by up to the band.  For omega_0 > 0 a parity of +1 is
    a truncation artifact.  Records compare and hash by identity.
    """

    base: ModelConfig
    couplings: np.ndarray
    psi: np.ndarray
    parity: np.ndarray
    levels: np.ndarray
    quasi_degenerate: np.ndarray

    @property
    def top_fock_population(self) -> np.ndarray:
        """Weight of Fock state n_max - 1 in each ground state."""
        return self.psi[:, -1] ** 2

    @property
    def doublet_gap(self) -> np.ndarray:
        """Gap between the two lowest levels at each coupling."""
        return self.levels[:, 1] - self.levels[:, 0]


def solve_parity_blocks(base: ModelConfig, grid: np.ndarray, solver):
    """``solver`` on the stacked ``parity_blocks`` of ``base`` over ``grid``;
    when the stack fails, ``SweepError`` names the first point that fails
    to solve alone."""
    blocks = parity_blocks(base, grid)
    try:
        return solver(blocks)
    except np.linalg.LinAlgError:
        for g, point in zip(grid, blocks.swapaxes(0, 1)):
            try:
                solver(point)
            except np.linalg.LinAlgError as exc:
                raise SweepError(g, exc) from exc
        raise


def parity_ground_states(base: ModelConfig, g_grid) -> GroundStates:
    """``GroundStates`` of ``base`` at each coupling of the non-empty 1-D
    ``g_grid``."""
    grid = _coupling_grid(g_grid)
    values, vectors = solve_parity_blocks(base, grid, np.linalg.eigh)
    levels = np.sort(np.hstack(values), axis=1)
    e0, e1 = levels[:, :2].T
    flagged = (e1 - e0) < DEGENERACY_RTOL * (1.0 + np.abs(e0))
    # parity +1 only where its block's lowest level is lower and the doublet
    # is resolved; inside the band the sign of the gap is rounding, and the
    # sector is parity -1's: that of the g = 0 ground state, and for
    # omega_0 > 0 of the ground state at every g, which never crosses another
    # level (M. Hirokawa & F. Hiroshima, Commun. Stoch. Anal. 8, 551 (2014))
    sector = ((values[1, :, 0] < values[0, :, 0]) & ~flagged).astype(np.intp)
    psi = vectors[sector, np.arange(grid.size), :, 0]
    return GroundStates(base, grid, psi, 2 * sector - 1, levels, flagged)


def _sorted_levels(base: ModelConfig, grid: np.ndarray) -> np.ndarray:
    """Every level of ``base`` at each coupling of ``grid``, ascending per
    point, from one stacked ``eigvalsh`` of the parity blocks."""
    return np.sort(np.hstack(solve_parity_blocks(base, grid, np.linalg.eigvalsh)), axis=1)


def _check_k_levels(k_levels, n_max: int) -> None:
    """``k_levels`` must be an integer in [1, 2 n_max], and not a bool."""
    dim = 2 * n_max
    if not (isinstance(k_levels, (int, np.integer)) and not isinstance(k_levels, bool)
            and 1 <= k_levels <= dim):
        raise ValueError(f"k_levels must be in [1, {dim}], got {k_levels}")


def sweep_spectrum(base: ModelConfig, g_grid, k_levels: int) -> SpectrumSweep:
    """Lowest ``k_levels`` eigenvalues of the full model at each coupling.

    Parameters
    ----------
    base : ModelConfig
        Configuration whose ``g`` is replaced by each grid value.
    g_grid : array_like
        Strictly ascending, non-empty coupling values g, in the same unit
        as ``base.omega_c``; the sweep's ``g_grid`` holds them divided by
        it.  A g whose quotient overflows, or a grid ``parity_blocks``
        refuses, is a ``ValueError``, raised before any solve.
    k_levels : int
        Number of levels per grid point; at most 2 * n_max.
    """
    grid = _coupling_grid(g_grid)
    _check_k_levels(k_levels, base.n_max)
    g_axis = _g_over_omega_c(base, grid)
    levels = _sorted_levels(base, grid)[:, :k_levels]
    return SpectrumSweep(g_axis, levels, "QRMA" if base.include_diamagnetic else "QRM")


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
    # each entry an integer and not a bool, as _check_k_levels has it
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in pair):
        raise ValueError(f"pair must be two integer levels (k, k+1), got {pair}")
    k, k1 = (int(i) for i in pair)
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


def truncation_report(ground: GroundStates, k_levels: int) -> np.ndarray:
    """Largest move of the lowest ``k_levels`` levels of ``ground`` at each
    of its couplings when n_max is doubled, from one stacked ``eigvalsh``
    of the parity blocks of ``ground.base`` at 2 n_max.  ``k_levels`` is at
    most 2 n_max."""
    base = ground.base
    _check_k_levels(k_levels, base.n_max)
    doubled = dataclasses.replace(base, n_max=2 * base.n_max)
    hi = _sorted_levels(doubled, ground.couplings)
    return np.max(np.abs(ground.levels[:, :k_levels] - hi[:, :k_levels]), axis=1)
