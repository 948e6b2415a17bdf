"""Wigner quasi-probability distribution of a cavity density matrix on a
quadrature grid.

A ``DensityMatrix`` is a validated state with its subsystem dims; ``wigner``
takes one over the cavity alone and names any other dims in its error.
``_chain_wigner`` reduces a parity-block vector of ``spectra`` to the cavity
from its amplitudes, so no qubit (x) cavity matrix is formed; through it,
``ground_state_wigner`` and the CLI evaluate the model's ground states.

Conventions: hbar = 1 and alpha = (q + i p) / sqrt(2), i.e. the quadratures
are q = (a + a†)/sqrt(2) and p = -i (a - a†)/sqrt(2).  With this choice the
vacuum Wigner function is W(q, p) = (1/pi) exp(-q^2 - p^2), the
normalization integral over dq dp is 1, and |W| <= 1/pi everywhere.

The Fock-basis series over displaced-parity matrix elements is summed with
a Clenshaw recurrence over associated Laguerre polynomials that forms no
factorials, so a panel is refused only where the sum overflows float64.
A real state that commutes with photon parity has W(q, p) = W(q, -p) =
W(-q, p) exactly, so on a grid symmetric about both axes ``wigner``
evaluates one quadrant and mirrors it; ``ground_state_wigner`` is ``wigner``
of the model's reduced cavity ground state, always such a state.
``WignerGrid.fold`` finds the quadrant again from the values alone (both use
``_mirror_index``), so the writers format and the heatmap colours a quarter
of a mirror-symmetric grid.
``wigner_normalization`` and ``negativity_volume`` (the integral of
|W| - W, Kenfack & Zyczkowski 2004) are trapezoidal integrals over the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, _count
from .spectra import parity_ground_states

__all__ = [
    "DensityMatrix",
    "QuadratureGrid",
    "WignerGrid",
    "wigner",
    "wigner_normalization",
    "negativity_volume",
    "wigner_marginal",
    "marginal_variance",
    "ground_state_wigner",
]

WIGNER_BOUND = 1.0 / np.pi
WIGNER_BOUND_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace complex matrix over one or more subsystems.

    ``dims`` holds one or more whole numbers >= 1, and the matrix side must
    be their product.  Shape, finiteness, Hermiticity and trace are
    validated on construction; positivity is not checked.  Matrices
    compare and hash by identity.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        data = np.array(self.data, dtype=complex)
        if not (self.dims and all(d >= 1 and float(d).is_integer() for d in self.dims)):
            raise ValueError(f"dims must be one or more whole numbers >= 1, got {self.dims!r}")
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


@dataclass(frozen=True)
class QuadratureGrid:
    """Rectangular (q, p) evaluation grid."""

    q_min: float = -6.0
    q_max: float = 6.0
    p_min: float = -6.0
    p_max: float = 6.0
    n_q: int = 201
    n_p: int = 201

    def __post_init__(self) -> None:
        if not (-np.inf < self.q_min < self.q_max < np.inf
                and -np.inf < self.p_min < self.p_max < np.inf):
            raise ValueError("grid bounds must be finite with q_min < q_max and p_min < p_max")
        object.__setattr__(self, "n_q", _count("n_q", self.n_q))
        object.__setattr__(self, "n_p", _count("n_p", self.n_p))

    def q_axis(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_q)

    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real Wigner values on a quadrature grid; ``values[i, j]`` is
    W(q_axis[j], p_axis[i]), a read-only copy of the array given.  Grids
    compare and hash by identity."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        # a copy: a view of the caller's array would change under a write
        # to it while the cached ``fold`` kept the old values
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_p, self.grid.n_q):
            raise ValueError(
                f"values shape {values.shape} != (n_p, n_q) = "
                f"({self.grid.n_p}, {self.grid.n_q})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("Wigner values contain non-finite entries")
        if np.max(np.abs(values)) > WIGNER_BOUND + WIGNER_BOUND_TOL:
            raise ValueError("Wigner values exceed the 1/pi extremal bound")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @functools.cached_property
    def fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(quadrant, ip, iq)`` with ``values == quadrant[np.ix_(ip, iq)]``.

        When the values equal their mirror images in both axes, ``quadrant``
        is ``values[n_p // 2:, n_q // 2:]`` and ``ip``, ``iq`` map each row
        and column onto it; otherwise ``quadrant`` is ``values`` itself with
        identity indices.  -0.0 equals 0.0 here, as it does in every writer.
        """
        v = self.values
        if np.array_equal(v, v[::-1]) and np.array_equal(v, v[:, ::-1]):
            n_p, n_q = v.shape
            return v[n_p // 2 :, n_q // 2 :], _mirror_index(n_p), _mirror_index(n_q)
        return v, np.arange(v.shape[0]), np.arange(v.shape[1])


def _mirror_index(m: int) -> np.ndarray:
    """Index into the upper half ``[m // 2:]`` of an axis of ``m`` points
    mirrored about its centre: point k maps onto max(k, m - 1 - k) - m // 2."""
    k = np.arange(m)
    return np.maximum(k, k[::-1]) - m // 2


def _laguerre_series(level: int, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Clenshaw evaluation of

        sum_n coeffs[n] (-1)^n sqrt(level! n! / (level+n)!) L_n^level(x)

    without forming factorials or individual polynomials.
    """
    k = len(coeffs)  # at least 2: _clenshaw passes diagonals level <= n - 2
    y0, y1 = coeffs[-2], coeffs[-1]
    for i in range(3, len(coeffs) + 1):
        k -= 1
        y0, y1 = (
            coeffs[-i] - y1 * np.sqrt(((k - 1.0) * (level + k - 1.0)) / ((level + k) * k)),
            y0 - y1 * ((level + 2.0 * k - 1.0) - x) / np.sqrt((level + k) * k),
        )
    return y0 - y1 * ((level + 1.0) - x) / np.sqrt(level + 1.0)


def wigner(rho: DensityMatrix, grid: QuadratureGrid) -> WignerGrid:
    """Wigner function of a cavity-only density matrix, mirrored from one
    quadrant for a real, parity-commuting state on a symmetric grid.

    Parameters
    ----------
    rho : DensityMatrix
        Any state over the cavity alone (dims of length 1), a one-state
        cavity, the vacuum, included.  Reduce a composite state to the
        cavity first.
    grid : QuadratureGrid
        Evaluation grid; the row index runs over p, the column over q.
    """
    if len(rho.dims) != 1:
        raise ValueError(
            f"wigner expects a cavity-only density matrix, got dims {rho.dims}; "
            "reduce it to the cavity first"
        )
    data, q, p = rho.data, grid.q_axis(), grid.p_axis()
    # an entry at an odd offset from the diagonal breaks photon parity
    if (data.imag.any() or data[::2, 1::2].any() or data[1::2, ::2].any()
            or grid.q_min != -grid.q_max or grid.p_min != -grid.p_max):
        return WignerGrid(grid, _clenshaw(data, q, p))
    quadrant = _clenshaw(data.real, q[q.size // 2 :], p[p.size // 2 :])
    return WignerGrid(grid, quadrant[np.ix_(_mirror_index(p.size), _mirror_index(q.size))])


def _clenshaw(data: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W of the cavity matrix ``data`` at (q[j], p[i]) as ``[i, j]``, or a
    ``ValueError`` where the sum overflows: an inf or nan stays one to the end."""
    n = data.shape[0]
    qq, pp = np.meshgrid(q, p)
    a2 = np.sqrt(2.0) * (qq + 1j * pp)  # 2 alpha
    b = a2.real**2 + a2.imag**2
    # off-diagonals enter twice (rho is Hermitian); the real part at the
    # end supplies the conjugate diagonals
    scaled = data * (2.0 - np.eye(n))
    w = np.full(a2.shape, scaled[0, n - 1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(n - 2, -1, -1):
            w = w * a2 / np.sqrt(level + 1.0)
            if np.diag(scaled, level).any():  # an all-zero diagonal adds nothing
                w = _laguerre_series(level, b, np.diag(scaled, level)) + w
        w = w.real * np.exp(-0.5 * b) / np.pi
    if not np.isfinite(w).all():
        raise ValueError("the Laguerre recurrence overflows; shrink the grid or the cutoff")
    return w


def _integral(grid: QuadratureGrid, f: np.ndarray) -> float:
    """Trapezoidal integral over ``grid`` of ``f[i, j]`` = f(q_axis[j], p_axis[i])."""
    inner = np.trapezoid(f, grid.q_axis(), axis=1)
    return float(np.trapezoid(inner, grid.p_axis()))


def wigner_normalization(w: WignerGrid) -> float:
    """Trapezoidal integral of W over the grid; approaches 1 when the grid
    covers the state's support."""
    return _integral(w.grid, w.values)


def negativity_volume(w: WignerGrid) -> float:
    """Negativity volume: the trapezoidal integral of |W| - W over the grid,
    twice the volume where W < 0 (A. Kenfack & K. Zyczkowski, J. Opt. B 6,
    396 (2004)).  It equals integral |W| - 1 when the grid holds the whole
    state, but it is exactly 0 where W >= 0 and is never negative where the
    grid cuts off a tail."""
    return _integral(w.grid, np.abs(w.values) - w.values)


def wigner_marginal(w: WignerGrid, axis: str) -> np.ndarray:
    """Marginal distribution along one quadrature.

    ``axis='q'`` integrates over p and approximates the position density
    <q|rho|q>; ``axis='p'`` integrates over q.
    """
    if axis == "q":
        return np.trapezoid(w.values, w.grid.p_axis(), axis=0)
    if axis == "p":
        return np.trapezoid(w.values, w.grid.q_axis(), axis=1)
    raise ValueError(f"axis must be 'q' or 'p', got {axis!r}")


def marginal_variance(w: WignerGrid, axis: str) -> float:
    """Variance of the (renormalized) marginal along one quadrature."""
    coords = w.grid.q_axis() if axis == "q" else w.grid.p_axis()
    m = wigner_marginal(w, axis)
    total = np.trapezoid(m, coords)
    mean = np.trapezoid(coords * m, coords) / total
    return float(np.trapezoid((coords - mean) ** 2 * m, coords) / total)


def _chain_wigner(psi: np.ndarray, grid: QuadratureGrid) -> WignerGrid:
    """``wigner`` of the reduced cavity state of the parity-block vector
    ``psi``: rho_c[n, n'] = psi_n psi_n' for n = n' (mod 2), else 0."""
    n = np.arange(psi.size)
    rho = np.outer(psi, psi) * ((n[:, None] - n) % 2 == 0)
    return wigner(DensityMatrix(rho, (psi.size,)), grid)


def ground_state_wigner(cfg: ModelConfig, grid: QuadratureGrid) -> WignerGrid:
    """``wigner`` of the model's reduced cavity ground state."""
    return _chain_wigner(parity_ground_states(cfg, [cfg.g]).psi[0], grid)

