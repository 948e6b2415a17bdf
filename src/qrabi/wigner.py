"""Wigner quasi-probability distribution of a cavity density matrix on a
quadrature grid.

Conventions: hbar = 1 and alpha = (q + i p) / sqrt(2), i.e. the quadratures
are q = (a + a†)/sqrt(2) and p = -i (a - a†)/sqrt(2).  With this choice the
vacuum Wigner function is W(q, p) = (1/pi) exp(-q^2 - p^2), the
normalization integral over dq dp is 1, and |W| <= 1/pi everywhere.

The Fock-basis series over displaced-parity matrix elements is summed with
a Clenshaw recurrence over associated Laguerre polynomials, which stays
stable for any practical cutoff (no factorials are formed).  A direct
characteristic-function quadrature is provided as a slow cross-check.
A real state that commutes with photon parity has W(q, p) = W(q, -p) =
W(-q, p) exactly, so on a grid symmetric about both axes ``wigner``
evaluates one quadrant and mirrors it; ``ground_state_wigner`` is ``wigner``
of the model's reduced cavity ground state, always such a state.
``WignerGrid.fold`` finds the quadrant again from the values alone (both use
``_mirror_index``), so the writers format, the heatmap colours and the CLI's
panel dedupe compares byte for byte a quarter of a mirror-symmetric grid.
``wigner_normalization`` and ``negativity_volume`` (the integral of
|W| - W, Kenfack & Zyczkowski 2004) are trapezoidal integrals over the grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entanglement import DensityMatrix
from .model import ModelConfig, _count
from .spectra import parity_ground_states

__all__ = [
    "QuadratureGrid",
    "WignerGrid",
    "wigner",
    "wigner_normalization",
    "negativity_volume",
    "wigner_marginal",
    "marginal_variance",
    "ground_state_wigner",
    "wigner_characteristic",
]

WIGNER_BOUND = 1.0 / np.pi
WIGNER_BOUND_TOL = 1e-8

# |2 alpha|^n_max must stay representable; beyond this the recurrence
# would overflow before the Gaussian envelope is applied
_LOG_OVERFLOW = 700.0


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
        cavity, the vacuum, included.  Composite states must be reduced
        with ``partial_trace`` first.
    grid : QuadratureGrid
        Evaluation grid; the row index runs over p, the column over q.
    """
    if len(rho.dims) != 1:
        raise ValueError(
            f"wigner expects a cavity-only density matrix, got dims {rho.dims}; "
            "apply partial_trace(..., keep='cavity') first"
        )
    data, q, p = rho.data, grid.q_axis(), grid.p_axis()
    # an entry at an odd offset from the diagonal breaks photon parity
    if (data.imag.any() or data[::2, 1::2].any() or data[1::2, ::2].any()
            or grid.q_min != -grid.q_max or grid.p_min != -grid.p_max):
        return WignerGrid(grid, _clenshaw(data, q, p))
    quadrant = _clenshaw(data.real, q[q.size // 2 :], p[p.size // 2 :])
    return WignerGrid(grid, quadrant[np.ix_(_mirror_index(p.size), _mirror_index(q.size))])


def _clenshaw(data: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W of the cavity matrix ``data`` at (q[j], p[i]) as ``[i, j]``."""
    n = data.shape[0]
    amax = np.sqrt(2.0 * (np.max(np.abs(q)) ** 2 + np.max(np.abs(p)) ** 2))
    if n * np.log(max(amax, 1.0)) > _LOG_OVERFLOW:
        raise ValueError(
            f"grid extent {amax:.3g} with n_max {n} would overflow the "
            "Laguerre recurrence; shrink the grid or the cutoff"
        )

    qq, pp = np.meshgrid(q, p)
    a2 = np.sqrt(2.0) * (qq + 1j * pp)  # 2 alpha
    b = a2.real**2 + a2.imag**2

    # off-diagonals enter twice (rho is Hermitian); the real part at the
    # end supplies the conjugate diagonals
    scaled = data * (2.0 - np.eye(n))
    w = np.full(a2.shape, scaled[0, n - 1], dtype=complex)
    for level in range(n - 2, -1, -1):
        w = w * a2 / np.sqrt(level + 1.0)
        if np.diag(scaled, level).any():  # an all-zero diagonal adds nothing
            w = _laguerre_series(level, b, np.diag(scaled, level)) + w

    return w.real * np.exp(-0.5 * b) / np.pi


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


def ground_state_wigner(cfg: ModelConfig, grid: QuadratureGrid) -> WignerGrid:
    """``wigner`` of the model's reduced cavity ground state, real and of
    definite parity: rho_c[n, n'] = psi_n psi_n' for n = n' (mod 2), else 0."""
    psi = parity_ground_states(cfg, [cfg.g]).psi[0]
    n = np.arange(psi.size)
    rho = np.outer(psi, psi) * ((n[:, None] - n) % 2 == 0)
    return wigner(DensityMatrix(rho, (psi.size,)), grid)


# quadrature of wigner_characteristic: the radius of the lam disk and the
# number of radial and angular nodes
_CHAR_LAM_MAX = 6.0
_CHAR_N_RADIAL = 64
_CHAR_N_ANGULAR = 128


def wigner_characteristic(rho: DensityMatrix, points) -> np.ndarray:
    """W at a handful of (q, p) points via the characteristic function
    chi(lam) = Tr(rho D(lam)).

    Evaluates (1/(2 pi^2)) * integral of chi(lam) exp(lam* gamma - lam gamma*)
    d^2 lam with gamma = (q + i p)/sqrt(2), over a disk |lam| <= _CHAR_LAM_MAX
    in polar coordinates (``_CHAR_N_RADIAL`` Gauss-Legendre nodes radially,
    ``_CHAR_N_ANGULAR`` uniform angles).  The displacement operators are
    matrix exponentials in an enlarged Fock space so their low-index block
    matches the untruncated operator, taken for every radius from one
    eigendecomposition of the generator, and rotation of lam through a
    phase is applied analytically.  Much slower per value than ``wigner``;
    intended as an independent spot check.
    """
    if len(rho.dims) != 1:
        raise ValueError("cavity-only density matrix required")
    n = rho.dims[0]
    # a displaced |k> with k < n needs Fock indices up to roughly
    # _CHAR_LAM_MAX^2 + O(_CHAR_LAM_MAX) before its tail is negligible
    embed = n + int(np.ceil(_CHAR_LAM_MAX**2 + 4.0 * _CHAR_LAM_MAX)) + 10
    ladder = np.diag(np.sqrt(np.arange(1, embed, dtype=float)), k=1)
    # D(r) = expm(r G) for real r, with G = a† - a real antisymmetric: iG is
    # Hermitian, so with iG = V diag(lam) V†, expm(r G) = V diag(e^{-i r lam}) V†
    lam, vecs = np.linalg.eigh(1j * (ladder.T - ladder))

    nodes, gl_weights = np.polynomial.legendre.leggauss(_CHAR_N_RADIAL)
    radii = 0.5 * _CHAR_LAM_MAX * (nodes + 1.0)
    weights = 0.5 * _CHAR_LAM_MAX * gl_weights

    theta = np.linspace(0.0, 2.0 * np.pi, _CHAR_N_ANGULAR, endpoint=False)
    ks, ms = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    # chi(r e^{i th}) = sum_{m,k} rho[m,k] e^{i th (k-m)} <k|D(r)|m>
    phase_pow = (ks - ms)[None, :, :] * theta[:, None, None]
    phases = np.exp(1j * phase_pow)

    chis = np.empty((_CHAR_N_RADIAL, _CHAR_N_ANGULAR), dtype=complex)
    for i, r in enumerate(radii):
        block = ((vecs[:n] * np.exp(-1j * r * lam)) @ vecs[:n].conj().T).real
        chis[i] = np.einsum("km,tkm->t", rho.data.T * block, phases)

    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty(len(points))
    for idx, (q, p) in enumerate(points):
        gamma = (q + 1j * p) / np.sqrt(2.0)
        # lam* gamma - lam gamma* = 2 i r (Im(gamma) cos th - Re(gamma) sin th)
        osc = np.exp(2j * np.outer(radii, gamma.imag * cos_t - gamma.real * sin_t))
        angular = (chis * osc).mean(axis=1) * 2.0 * np.pi
        val = np.sum(angular * radii * weights)
        out[idx] = val.real / (2.0 * np.pi**2)
    return out
