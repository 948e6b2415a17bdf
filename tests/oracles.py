"""Independent references that the tests check the library against.

None of these is on a path the library runs.  ``build_full`` is the dense
Hamiltonian as Kronecker products, with its own X = a + a† and its own D
(``d_override``, else g^2 / omega_c), so it shares no code with
``qrabi.model.parity_blocks`` beyond ``ModelConfig``.  ``PureState`` is a
state vector over the same qubit (x) cavity basis, where the flat index of
|s, n> is ``s * n_max + n``, and ``ground_state`` embeds the parity-block
ground state of ``qrabi.spectra.parity_ground_states`` in it.
``parity_operator`` and ``expectation`` are the dense parity and
<psi|O|psi> over that basis.
``partial_trace`` and ``von_neumann_entropy`` are the dense entropy route:
the reduced state of a ``qrabi.DensityMatrix`` and its entropy in bits from
``eigvalsh``, sharing no entropy code with ``qrabi.entropy_sweep``.
``wigner_characteristic`` is a characteristic-function quadrature of the
Wigner function, a slow spot check of the Clenshaw series of
``qrabi.wigner``.
"""

import math
from dataclasses import dataclass

import numpy as np

from qrabi.model import ModelConfig
from qrabi.spectra import parity_ground_states
from qrabi.wigner import DensityMatrix


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

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


def ground_state(cfg: ModelConfig) -> PureState:
    """Ground state of ``cfg`` over the qubit (x) cavity basis: the vector of
    ``parity_ground_states``, so its parity is definite even in a
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
        d = cfg.g**2 / cfg.omega_c if cfg.d_override is None else cfg.d_override
        h += d * np.kron(np.eye(2), field @ field)
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


# the entropy drops eigenvalues <= 0 as roundoff; one below
# -REJECT_NEGATIVE marks a broken input
REJECT_NEGATIVE = 1e-8


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
    """S = -sum_k lambda_k log2 lambda_k, with 0 log 0 := 0, clamped at +0.0:
    weights a rounding step above 1 would otherwise give a tiny negative
    entropy, and a pure state -0.0."""
    lam = np.linalg.eigvalsh(rho.data)
    if lam[0] < -REJECT_NEGATIVE:
        raise ValueError(
            f"density matrix has eigenvalue {lam[0]:.3e} < -{REJECT_NEGATIVE:g}; not PSD"
        )
    # the zeros are dropped, not summed: they would move the sum's rounding
    lam = lam[lam > 0.0]
    s = -float(np.sum(lam * np.log2(lam)))
    return s if s > 0.0 else 0.0


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
