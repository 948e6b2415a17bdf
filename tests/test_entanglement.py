import dataclasses

import numpy as np
import pytest

from qrabi import (
    DensityMatrix,
    ModelConfig,
    PureState,
    build_full,
    entropy_sweep,
    expectation,
    ground_state,
    parity_operator,
    partial_trace,
    von_neumann_entropy,
)
from qrabi.spectra import parity_ground_states


def random_pure_state(rng, n):
    amp = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
    amp /= np.linalg.norm(amp)
    return PureState(amp, (2, n))


def test_ground_state_decoupled():
    cfg = ModelConfig(g=0.0, n_max=4)
    state = ground_state(cfg)
    # |g, 0> sits at flat index 1 * n_max + 0 = 4
    expected = np.zeros(8)
    expected[4] = 1.0
    assert np.allclose(state.amplitudes, expected, atol=1e-12)
    ground = parity_ground_states(cfg, np.array([cfg.g]))
    assert ground.levels[0, 0] == pytest.approx(-0.5)
    assert not ground.quasi_degenerate[0]


def test_ground_state_phase_fix():
    for g in (0.7, 2.0, 3.0):
        state = ground_state(ModelConfig(g=g, n_max=6))
        k = np.argmax(np.abs(state.amplitudes))
        assert state.amplitudes[k].imag == pytest.approx(0.0, abs=1e-14)
        assert state.amplitudes[k].real > 0


def test_ground_state_energy_is_the_parity_block_level():
    cfg = ModelConfig(g=1.4, n_max=10)
    energy = parity_ground_states(cfg, np.array([cfg.g])).levels[0, 0]
    dense = np.linalg.eigvalsh(build_full(cfg))[0]
    assert abs(energy - dense) <= 1e-12 * max(1.0, abs(dense))


def test_ground_state_entropy_zero_at_zero_coupling():
    cfg = ModelConfig(g=0.0, n_max=5)
    state = ground_state(cfg)
    s = von_neumann_entropy(partial_trace(state.to_density(), "qubit"))
    assert s == 0.0


def test_quasi_degeneracy_flag():
    # omega_0 = 0 leaves every level exactly doubly degenerate
    cfg = ModelConfig(omega_0=0.0, g=0.3, n_max=8)
    assert parity_ground_states(cfg, np.array([cfg.g])).quasi_degenerate[0]
    cfg2 = ModelConfig(g=0.3, n_max=8)
    assert not parity_ground_states(cfg2, np.array([cfg2.g])).quasi_degenerate[0]


def test_deep_strong_photon_number():
    # displaced-vacuum oracle: <a†a> = (g/omega_c)^2
    cfg = ModelConfig(omega_0=0.0, g=2.0, n_max=60)
    state = ground_state(cfg)
    n_op = np.kron(np.eye(2), np.diag(np.arange(cfg.n_max, dtype=float)))
    n_exp = expectation(n_op, state).real
    assert abs(n_exp - 4.0) / 4.0 <= 0.01
    assert abs(parity_ground_states(cfg, np.array([cfg.g])).levels[0, 0] + 4.0) <= 1e-6


def test_partial_trace_product_state():
    amp = np.zeros(6, dtype=complex)
    amp[3] = 1.0  # |g, 0> for n_max = 3
    rho = PureState(amp, (2, 3)).to_density()
    qubit = partial_trace(rho, "qubit")
    assert np.allclose(qubit.data, np.diag([0.0, 1.0]), atol=1e-14)
    cavity = partial_trace(rho, "cavity")
    assert np.allclose(cavity.data, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_partial_trace_bell_state():
    # (|e,1> + |g,0>)/sqrt(2) reduces to I/2 on the qubit
    amp = np.zeros(4, dtype=complex)
    amp[1] = amp[2] = 1.0 / np.sqrt(2.0)
    rho = PureState(amp, (2, 2)).to_density()
    qubit = partial_trace(rho, "qubit")
    assert np.allclose(qubit.data, np.eye(2) / 2.0, atol=1e-14)
    assert von_neumann_entropy(qubit) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_schmidt_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_pure_state(rng, 6).to_density()
        lam_q = np.linalg.eigvalsh(partial_trace(rho, "qubit").data)
        lam_c = np.linalg.eigvalsh(partial_trace(rho, "cavity").data)
        # the two nonzero Schmidt weights agree
        assert np.allclose(np.sort(lam_q), np.sort(lam_c)[-2:], atol=1e-10)


def test_partial_trace_requires_bipartite():
    rho = DensityMatrix(np.eye(3) / 3.0, (3,))
    with pytest.raises(ValueError):
        partial_trace(rho, "qubit")
    full = DensityMatrix(np.eye(4) / 4.0, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(full, "field")


def test_partial_trace_linear_and_trace_preserving():
    rng = np.random.default_rng(17)
    rho1 = random_pure_state(rng, 4).to_density()
    rho2 = random_pure_state(rng, 4).to_density()
    mix = DensityMatrix(0.3 * rho1.data + 0.7 * rho2.data, (2, 4))
    left = partial_trace(mix, "cavity").data
    right = 0.3 * partial_trace(rho1, "cavity").data + 0.7 * partial_trace(rho2, "cavity").data
    assert np.max(np.abs(left - right)) <= 1e-12
    assert np.trace(left).real == pytest.approx(1.0, abs=1e-12)


def test_entropy_known_values():
    pure = DensityMatrix(np.diag([1.0, 0.0, 0.0]), (3,))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    half = DensityMatrix(np.eye(2) / 2.0, (2,))
    assert von_neumann_entropy(half) == pytest.approx(1.0, abs=1e-14)
    # scalar oracle: -0.25 log2 0.25 - 0.75 log2 0.75
    biased = DensityMatrix(np.diag([0.25, 0.75]), (2,))
    assert von_neumann_entropy(biased) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(23)
    rho = partial_trace(random_pure_state(rng, 5).to_density(), "cavity")
    s0 = von_neumann_entropy(rho)
    for _ in range(5):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u, _ = np.linalg.qr(m)
        rotated = DensityMatrix(u @ rho.data @ u.conj().T, (5,))
        assert abs(von_neumann_entropy(rotated) - s0) <= 1e-8


def test_entropy_clamps_roundoff_but_rejects_negativity():
    eps = 5e-11
    ok = DensityMatrix(np.diag([1.0 + eps, -eps]), (2,))
    assert von_neumann_entropy(ok) >= 0.0
    bad = DensityMatrix(np.diag([1.0 + 1e-6, -1e-6]), (2,))
    with pytest.raises(ValueError):
        von_neumann_entropy(bad)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]), (2,))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    # a NaN compares false with every tolerance, so only a finiteness check stops it
    nan_inf = [np.full((2, 2), np.nan), [[np.nan, 0.0], [0.0, 1.0]],
               [[np.inf, 0.0], [0.0, 1.0]], [[0.5, -np.inf], [-np.inf, 0.5]]]
    for data in nan_inf:
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(data, (2,))


def test_schmidt_duality_entropy():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        rho = random_pure_state(rng, 8).to_density()
        s_q = von_neumann_entropy(partial_trace(rho, "qubit"))
        s_c = von_neumann_entropy(partial_trace(rho, "cavity"))
        assert abs(s_q - s_c) <= 1e-8
        assert s_q <= 1.0 + 1e-12


def test_entropy_sweep_endpoints_and_flags():
    cfg = ModelConfig(n_max=8)
    sweep = entropy_sweep(cfg, [0.0, 1.0])
    assert sweep.s_qrm[0] == 0.0 and sweep.s_qrma[0] == 0.0
    assert sweep.s_qrm[1] > 0.0
    assert sweep.g_grid.tolist() == [0.0, 1.0]
    # omega_0 = 0 flags every point as quasi-degenerate
    degenerate = entropy_sweep(ModelConfig(omega_0=0.0, n_max=6), [0.5])
    assert degenerate.ground_qrm.quasi_degenerate[0]
    assert degenerate.ground_qrma.quasi_degenerate[0]


@pytest.mark.parametrize("d_override", [None, 0.37])
@pytest.mark.parametrize("omega_0", [1.0, 0.83])
@pytest.mark.parametrize("nmax", [2, 15, 30])
def test_entropy_sweep_matches_pointwise_dense_solve(nmax, omega_0, d_override):
    base = ModelConfig(omega_0=omega_0, d_override=d_override, n_max=nmax)
    grid = np.linspace(0.0, 3.0, 13)
    sweep = entropy_sweep(base, grid)
    compared = 0
    for dia, entropies, ground in ((False, sweep.s_qrm, sweep.ground_qrm),
                                   (True, sweep.s_qrma, sweep.ground_qrma)):
        for g, s, flagged in zip(grid, entropies, ground.quasi_degenerate):
            h = build_full(dataclasses.replace(base, g=g, include_diamagnetic=dia))
            values, vectors = np.linalg.eigh(h)
            if np.diff(values[:2])[0] <= 1e-8:
                # a degenerate doublet: the dense solver may mix the parities
                continue
            state = PureState(vectors[:, 0], (2, nmax))
            dense = von_neumann_entropy(partial_trace(state.to_density(), "qubit"))
            assert abs(s - dense) <= 1e-12
            assert not flagged
            compared += 1
    assert compared >= 13


def test_entropy_sweep_validation():
    cfg = ModelConfig(n_max=4)
    for grid in ([], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            entropy_sweep(cfg, grid)


def test_entropy_sweep_error_carries_grid_point():
    from qrabi import SweepError

    with pytest.raises(SweepError) as err:
        entropy_sweep(ModelConfig(n_max=4), [float("nan")])
    assert np.isnan(err.value.g)
    for grid, bad in (([0.5, -0.5], -0.5), ([0.0, float("inf"), 1.0], float("inf"))):
        with pytest.raises(SweepError) as err:
            entropy_sweep(ModelConfig(n_max=4), grid)
        assert err.value.g == bad
        assert repr(bad) in str(err.value)


def test_entropy_sweep_batched_failure_names_the_grid_point(monkeypatch):
    from qrabi import SweepError

    eigh = np.linalg.eigh

    def failing_eigh(blocks):
        # the g X coupling puts g at [0, 1] of every block
        if np.any(blocks[..., 0, 1] == 0.75):
            raise np.linalg.LinAlgError("no convergence")
        return eigh(blocks)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(SweepError) as err:
        entropy_sweep(ModelConfig(n_max=4), [0.5, 0.75, 1.0])
    assert err.value.g == 0.75


def test_deep_strong_ground_state_has_definite_parity():
    # at g = 6 the lowest doublet is degenerate to machine precision, so
    # the parity of a dense solve of the full matrix is not guaranteed (any
    # mixture of the doublet is an eigenvector), while either parity state
    # has S = 1 bit up to the overlap of the two displaced vacua
    cfg = ModelConfig(omega_0=1.0, g=6.0, n_max=200)
    sweep = entropy_sweep(cfg, [6.0])
    assert abs(sweep.s_qrm[0] - 1.0) < 1e-3
    assert sweep.ground_qrm.quasi_degenerate[0]
    # ground_state embeds the same parity-sector vector in the full basis
    state = ground_state(cfg)
    assert abs(abs(expectation(parity_operator(cfg.n_max), state).real) - 1.0) <= 1e-12
    assert abs(von_neumann_entropy(partial_trace(state.to_density(), "qubit")) - 1.0) < 1e-3
    assert parity_ground_states(cfg, np.array([cfg.g])).quasi_degenerate[0]


def test_parity_sector_tie_rule():
    # omega_0 = 0 makes both blocks identical: the tie goes to parity -1,
    # the sector of the g = 0 ground state |g, 0>
    grid = np.linspace(0.0, 3.0, 7)
    tied = parity_ground_states(ModelConfig(omega_0=0.0, n_max=8), grid)
    assert np.all(tied.parity == -1) and np.all(tied.quasi_degenerate)
    vacuum = parity_ground_states(ModelConfig(n_max=8), grid[:1])
    assert vacuum.parity[0] == -1 and abs(vacuum.psi[0, 0]) == 1.0
    # ground_state embeds the parity -1 vector: chain state n holds
    # sigma_z = -(-1)^n, so even n sit on the ground qubit (flat index 8 + n)
    cfg = ModelConfig(omega_0=0.0, g=0.8, n_max=8)
    state = ground_state(cfg)
    assert expectation(parity_operator(cfg.n_max), state).real == pytest.approx(-1.0, abs=1e-12)
    n = np.arange(8)
    assert not state.amplitudes[n[n % 2 == 0]].any()
    assert not state.amplitudes[8 + n[n % 2 == 1]].any()


def test_expectation_dims_check():
    state = PureState(np.array([1.0, 0, 0, 0], dtype=complex), (2, 2))
    with pytest.raises(ValueError):
        expectation(np.eye(2), state)


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0], dtype=complex), (2,))


def test_pure_state_rejects_non_finite_amplitudes():
    # a NaN norm compares false with every tolerance
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PureState([bad, 1.0], (2,))


def test_pure_state_rejects_amplitudes_not_matching_dims():
    with pytest.raises(ValueError, match="dims"):
        PureState(np.full(4, 0.5), (2, 3))


def test_density_matrix_rejects_side_not_matching_dims():
    # a 4x4 state labelled as qubit (x) qutrit would give S = 2 bits
    with pytest.raises(ValueError, match="dims"):
        von_neumann_entropy(DensityMatrix(np.eye(4) / 4.0, (2, 3)))
    with pytest.raises(ValueError, match="dims"):
        DensityMatrix(np.full((2, 3), 0.5), (2,))
