"""Independent references that the tests check the library against.

None of these is on a path the library runs.  ``build_full`` is the dense
Hamiltonian as Kronecker products, with its own X = a + a†, so it shares no
code with ``qrabi.model.parity_blocks`` beyond ``ModelConfig`` and
``diamagnetic_constant``.  ``parity_operator`` and ``expectation`` are the
dense parity and <psi|O|psi> over the same qubit (x) cavity basis, where the
flat index of |s, n> is ``s * n_max + n``.  ``wigner_characteristic`` is a
characteristic-function quadrature of the Wigner function, a slow spot check
of the Clenshaw series of ``qrabi.wigner``.
"""

import numpy as np

from qrabi.entanglement import DensityMatrix, PureState
from qrabi.model import ModelConfig, diamagnetic_constant


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


def parity_operator(n_max: int) -> np.ndarray:
    """Excitation parity Pi = sigma_z (x) diag((-1)^n) on n_max Fock states as
    a real diagonal matrix; Pi^2 = I, and Pi is an exact symmetry of both
    models.  ``n_max`` is checked as ``ModelConfig`` checks it."""
    n = ModelConfig(n_max=n_max).n_max
    return np.diag(np.kron([1.0, -1.0], (-1.0) ** np.arange(n)))


def expectation(op: np.ndarray, state: PureState) -> complex:
    """<psi|O|psi> for a square matrix ``op`` over the same space as ``state``."""
    side = state.amplitudes.size
    if np.shape(op) != (side, side):
        raise ValueError(f"operator shape {np.shape(op)} does not match state dims {state.dims}")
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


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
    phase is applied analytically.  Much slower per value than
    ``qrabi.wigner.wigner``; an independent spot check of it.
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
