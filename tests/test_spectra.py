import dataclasses

import numpy as np
import pytest

from qrabi import (
    FockTruncation,
    ModelConfig,
    Operator,
    SpectrumSweep,
    build_full,
    check_truncation,
    eigensystem,
    find_avoided_crossings,
    sweep_spectrum,
)
from qrabi.entanglement import parity_ground_states
from qrabi.model import parity_blocks
from qrabi.spectra import ground_sector, solve_parity_blocks


def test_eigensystem_diagonal_matrix():
    es = eigensystem(Operator(np.diag([3.0, 1.0, 2.0]), (3,)))
    assert np.allclose(es.values, [1.0, 2.0, 3.0])
    # permutation eigenvectors
    assert np.allclose(np.abs(es.vectors), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigensystem(Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,)))


def test_eigensystem_qrm_decoupled():
    es = eigensystem(build_full(ModelConfig(g=0.0, trunc=FockTruncation(2))))
    assert np.allclose(es.values, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


def test_eigensystem_residuals_and_orthonormality():
    h = build_full(ModelConfig(g=1.2, include_diamagnetic=True, trunc=FockTruncation(12)))
    es = eigensystem(h)
    assert np.all(np.diff(es.values) >= 0)
    for k in range(es.values.size):
        res = np.linalg.norm(h.op.data @ es.vectors[:, k] - es.values[k] * es.vectors[:, k])
        assert res <= 1e-9 * (1.0 + abs(es.values[k]))
    gram = es.vectors.conj().T @ es.vectors
    assert np.max(np.abs(gram - np.eye(es.values.size))) <= 1e-9


def test_displaced_oscillator_ground_energy():
    # omega_0 = 0 makes sigma_x a good quantum number; each branch is a
    # displaced oscillator with ground energy -g^2/omega_c
    cfg = ModelConfig(omega_0=0.0, g=1.0, trunc=FockTruncation(40))
    es = eigensystem(build_full(cfg))
    assert abs(es.values[0] - (-1.0)) <= 1e-6


def test_sweep_single_point():
    sweep = sweep_spectrum(ModelConfig(trunc=FockTruncation(2)), [0.0], 4)
    assert sweep.model_tag == "QRM"
    assert sweep.levels.shape == (1, 4)
    assert np.allclose(sweep.levels[0], [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


def test_sweep_rows_sorted_and_finite():
    sweep = sweep_spectrum(
        ModelConfig(include_diamagnetic=True, trunc=FockTruncation(8)),
        np.linspace(0, 3, 41), 10,
    )
    assert np.all(np.isfinite(sweep.levels))
    assert np.all(np.diff(sweep.levels, axis=1) >= -1e-12)


# (include_diamagnetic, d_override) x n_max x omega_0
MODEL_CASES = [
    (dia, d, nmax, omega_0)
    for dia, d in ((False, None), (True, None), (True, 0.37))
    for nmax in (2, 15, 30)
    for omega_0 in (1.0, 0.83)
]


@pytest.mark.parametrize("dia,d_override,nmax,omega_0", MODEL_CASES)
def test_sweep_matches_pointwise_dense_solve(dia, d_override, nmax, omega_0):
    cfg = ModelConfig(omega_0=omega_0, include_diamagnetic=dia, d_override=d_override,
                      trunc=FockTruncation(nmax))
    grid = np.linspace(0, 3, 13)
    sweep = sweep_spectrum(cfg, grid, 2 * nmax)
    for g, levels in zip(grid, sweep.levels):
        dense = eigensystem(build_full(dataclasses.replace(cfg, g=g))).values
        assert np.all(np.abs(levels - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))


@pytest.mark.parametrize("dia,d_override,nmax,omega_0", MODEL_CASES)
def test_parity_blocks_are_exactly_symmetric(dia, d_override, nmax, omega_0):
    cfg = ModelConfig(omega_0=omega_0, include_diamagnetic=dia, d_override=d_override,
                      trunc=FockTruncation(nmax))
    blocks = parity_blocks(cfg, np.linspace(0, 10, 41))
    assert blocks.shape == (2, 41, nmax, nmax) and blocks.dtype == np.float64
    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))


def test_sweep_gap_decreases_for_small_truncation():
    sweep = sweep_spectrum(ModelConfig(trunc=FockTruncation(2)), np.linspace(0, 3, 61), 2)
    gap = sweep.levels[:, 1] - sweep.levels[:, 0]
    past_one = gap[sweep.g_grid > 1.0]
    assert np.all(np.diff(past_one) < 0)


def test_diamagnetic_shift_raises_every_level():
    grid = np.linspace(0, 3, 31)
    qrm = sweep_spectrum(ModelConfig(trunc=FockTruncation(12)), grid, 8)
    qrma = sweep_spectrum(
        ModelConfig(include_diamagnetic=True, trunc=FockTruncation(12)), grid, 8
    )
    assert qrma.model_tag == "QRMA"
    assert np.all(qrma.levels >= qrm.levels - 1e-10)
    # identical where the perturbation vanishes
    assert np.allclose(qrm.levels[0], qrma.levels[0], atol=1e-12)


def test_trace_preservation():
    cfg = ModelConfig(g=0.9, include_diamagnetic=True, trunc=FockTruncation(15))
    h = build_full(cfg)
    es = eigensystem(h)
    trace = np.trace(h.op.data).real
    assert abs(es.values.sum() - trace) <= 1e-8 * max(1.0, abs(trace))


def test_sweep_validation():
    cfg = ModelConfig(trunc=FockTruncation(4))
    with pytest.raises(ValueError):
        sweep_spectrum(cfg, [], 2)
    with pytest.raises(ValueError):
        sweep_spectrum(cfg, [1.0, 0.5], 2)
    with pytest.raises(ValueError):
        sweep_spectrum(cfg, [0.0, 1.0], 9)


def test_sweep_error_carries_grid_point():
    from qrabi import SweepError

    cfg = ModelConfig(trunc=FockTruncation(4))
    with pytest.raises(SweepError) as err:
        sweep_spectrum(cfg, [float("nan")], 2)
    assert np.isnan(err.value.g)
    assert "nan" in str(err.value)
    # the first bad point is named, before anything is solved
    for grid, bad in (([-0.5, 0.0, 1.0], -0.5), ([0.0, 1.0, float("inf")], float("inf"))):
        with pytest.raises(SweepError) as err:
            sweep_spectrum(cfg, grid, 2)
        assert err.value.g == bad
        assert repr(bad) in str(err.value)
    # D = g^2 overflows: the Hamiltonian is not finite
    dia = dataclasses.replace(cfg, include_diamagnetic=True)
    with pytest.raises(SweepError) as err:
        sweep_spectrum(dia, [1.0, 1e200], 2)
    assert err.value.g == 1e200


def test_batched_solve_failure_names_the_grid_point():
    from qrabi import SweepError

    def solver(blocks):
        # the g X coupling puts g at [0, 1] of every block
        if np.any(blocks[..., 0, 1] == 0.75):
            raise np.linalg.LinAlgError("no convergence")
        return np.linalg.eigvalsh(blocks)

    cfg = ModelConfig(trunc=FockTruncation(4))
    assert solve_parity_blocks(cfg, np.array([0.5, 1.0]), solver).shape == (2, 2, 4)
    with pytest.raises(SweepError) as err:
        solve_parity_blocks(cfg, np.array([0.5, 0.75, 1.0]), solver)
    assert err.value.g == 0.75
    assert isinstance(err.value.cause, np.linalg.LinAlgError)


def test_crossing_flat_levels_boundary_flag():
    grid = np.linspace(0, 1, 11)
    levels = np.column_stack([np.zeros(11), np.ones(11)])
    sweep = SpectrumSweep(grid, levels, "QRM")
    report = find_avoided_crossings(sweep, (0, 1))
    assert report.min_gap == pytest.approx(1.0)
    assert report.at_boundary


def test_crossing_synthetic_two_level():
    # H(g) = [[g-1, delta], [delta, 1-g]] has gap 2 sqrt(delta^2 + (g-1)^2)
    delta = 0.05
    grid = np.linspace(0.5, 1.5, 21)  # contains g = 1 exactly
    gap = 2.0 * np.sqrt(delta**2 + (grid - 1.0) ** 2)
    levels = np.column_stack([-gap / 2.0, gap / 2.0])
    report = find_avoided_crossings(SpectrumSweep(grid, levels, "QRM"), (0, 1))
    assert not report.at_boundary
    assert report.g_at_min == pytest.approx(1.0, abs=1e-12)
    assert report.min_gap == pytest.approx(2.0 * delta, abs=1e-12)


def test_crossing_refinement_off_grid_minimum():
    delta = 0.05
    grid = np.linspace(0.503, 1.503, 21)  # minimum falls between points
    gap = 2.0 * np.sqrt(delta**2 + (grid - 1.0) ** 2)
    levels = np.column_stack([np.zeros_like(gap), gap])
    report = find_avoided_crossings(SpectrumSweep(grid, levels, "QRM"), (0, 1))
    assert not report.at_boundary
    assert report.g_at_min == pytest.approx(1.0, abs=2e-3)
    assert report.min_gap == pytest.approx(2.0 * delta, abs=2e-3)


def test_crossing_validation():
    grid = np.linspace(0, 1, 5)
    sweep = SpectrumSweep(grid, np.zeros((5, 3)), "QRM")
    with pytest.raises(ValueError):
        find_avoided_crossings(sweep, (0, 2))
    with pytest.raises(ValueError):
        find_avoided_crossings(sweep, (2, 3))
    short = SpectrumSweep(grid[:2], np.zeros((2, 3)), "QRM")
    with pytest.raises(ValueError):
        find_avoided_crossings(short, (0, 1))


def test_truncation_convergence_report():
    report = check_truncation(ModelConfig(g=1.0, trunc=FockTruncation(40)), 4, 1e-8)
    assert report.n_max == 40 and report.n_max_doubled == 80
    assert report.converged and report.max_shift < 1e-8
    shallow = check_truncation(ModelConfig(g=2.0, trunc=FockTruncation(2)), 4, 1e-8)
    assert not shallow.converged
    # like sweep_spectrum, at most 2 * n_max = 6 levels at n_max = 3
    for k_levels in (0, -1, 7):
        with pytest.raises(ValueError, match=r"k_levels must be in \[1, 6\]"):
            check_truncation(ModelConfig(g=1.0, trunc=FockTruncation(3)), k_levels, 1e-8)


def test_truncation_check_reports_top_fock_population():
    # g = 3, D = 9: the lowest level settles under doubling at n_max = 30
    # while the top Fock state still holds 1e-5 of the ground state
    cfg = ModelConfig(g=3.0, include_diamagnetic=True, trunc=FockTruncation(30))
    report = check_truncation(cfg, 1, 1e-4)
    assert report.converged and report.max_shift == pytest.approx(7.75e-5, rel=1e-3)
    assert report.top_fock_population == pytest.approx(1.06e-5, rel=1e-2)
    deeper = check_truncation(dataclasses.replace(cfg, trunc=FockTruncation(40)), 1, 1e-4)
    assert deeper.top_fock_population == pytest.approx(3.9e-7, rel=1e-2)


def test_truncation_check_top_fock_of_definite_parity_ground_state():
    # at g = 6 the doublet is degenerate to machine precision, so a dense
    # solve returns a parity-mixed vector; the check reads the top Fock
    # weight of the definite-parity ground state instead
    cfg = ModelConfig(g=6.0, trunc=FockTruncation(200))
    psi = parity_ground_states(cfg, np.array([cfg.g]))[0][0]
    assert check_truncation(cfg, 1, 1e-4).top_fock_population == psi[-1] ** 2


def test_ground_sector_picks_lower_block_and_breaks_ties_to_parity_minus_one():
    # (2 sectors, 3 grid points, 2 levels): lower in -1, lower in +1, exact tie
    values = np.array([[[0.0, 5.0], [1.0, 2.0], [3.0, 4.0]],
                       [[1.0, 2.0], [0.5, 9.0], [3.0, 3.5]]])
    assert ground_sector(values).tolist() == [0, 1, 0]
