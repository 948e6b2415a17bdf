import dataclasses
import re

import numpy as np
import pytest

from qrabi import (
    ModelConfig,
    SpectrumSweep,
    entropy_sweep,
    find_avoided_crossings,
    sweep_spectrum,
    truncation_report,
)
from qrabi.model import parity_blocks
from qrabi.spectra import parity_ground_states, solve_parity_blocks
from oracles import build_full, ground_state, partial_trace


def test_eigensystem_qrm_decoupled():
    values = np.linalg.eigvalsh(build_full(ModelConfig(g=0.0, n_max=2)))
    assert np.allclose(values, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


def test_eigensystem_residuals_and_orthonormality():
    h = build_full(ModelConfig(g=1.2, include_diamagnetic=True, n_max=12))
    values, vectors = np.linalg.eigh(h)
    assert np.all(np.diff(values) >= 0)
    for k in range(values.size):
        res = np.linalg.norm(h @ vectors[:, k] - values[k] * vectors[:, k])
        assert res <= 1e-9 * (1.0 + abs(values[k]))
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(values.size))) <= 1e-9


def test_displaced_oscillator_ground_energy():
    # omega_0 = 0 makes sigma_x a good quantum number; each branch is a
    # displaced oscillator with ground energy -g^2/omega_c
    cfg = ModelConfig(omega_0=0.0, g=1.0, n_max=40)
    values = np.linalg.eigvalsh(build_full(cfg))
    assert abs(values[0] - (-1.0)) <= 1e-6


def test_sweep_single_point():
    sweep = sweep_spectrum(ModelConfig(n_max=2), [0.0], 4)
    assert sweep.model_tag == "QRM"
    assert sweep.levels.shape == (1, 4)
    assert np.allclose(sweep.levels[0], [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


def test_sweep_grid_is_divided_by_omega_c():
    # the input is g in the same unit as omega_c; the record holds g / omega_c
    sweep = sweep_spectrum(ModelConfig(omega_c=2.0, n_max=2), [0.0, 1.0], 2)
    assert sweep.g_grid.tolist() == [0.0, 0.5]


def test_sweep_rows_sorted_and_finite():
    sweep = sweep_spectrum(
        ModelConfig(include_diamagnetic=True, n_max=8),
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
                      n_max=nmax)
    grid = np.linspace(0, 3, 13)
    sweep = sweep_spectrum(cfg, grid, 2 * nmax)
    # the ground-state record carries every level of both blocks as well
    ground = parity_ground_states(cfg, grid)
    for g, levels, ground_levels in zip(grid, sweep.levels, ground.levels):
        dense = np.linalg.eigvalsh(build_full(dataclasses.replace(cfg, g=g)))
        bound = 1e-12 * np.maximum(1.0, np.abs(dense))
        assert np.all(np.abs(levels - dense) <= bound)
        assert np.all(np.abs(ground_levels - dense) <= bound)


@pytest.mark.parametrize("dia,d_override,nmax,omega_0", MODEL_CASES)
def test_parity_blocks_are_exactly_symmetric(dia, d_override, nmax, omega_0):
    cfg = ModelConfig(omega_0=omega_0, include_diamagnetic=dia, d_override=d_override,
                      n_max=nmax)
    blocks = parity_blocks(cfg, np.linspace(0, 10, 41))
    assert blocks.shape == (2, 41, nmax, nmax) and blocks.dtype == np.float64
    assert np.array_equal(blocks, blocks.swapaxes(-1, -2))


def test_sweep_gap_decreases_for_small_truncation():
    sweep = sweep_spectrum(ModelConfig(n_max=2), np.linspace(0, 3, 61), 2)
    gap = sweep.levels[:, 1] - sweep.levels[:, 0]
    past_one = gap[sweep.g_grid > 1.0]
    assert np.all(np.diff(past_one) < 0)


def test_diamagnetic_shift_raises_every_level():
    grid = np.linspace(0, 3, 31)
    qrm = sweep_spectrum(ModelConfig(n_max=12), grid, 8)
    qrma = sweep_spectrum(
        ModelConfig(include_diamagnetic=True, n_max=12), grid, 8
    )
    assert qrma.model_tag == "QRMA"
    assert np.all(qrma.levels >= qrm.levels - 1e-10)
    # identical where the perturbation vanishes
    assert np.allclose(qrm.levels[0], qrma.levels[0], atol=1e-12)


def test_trace_preservation():
    cfg = ModelConfig(g=0.9, include_diamagnetic=True, n_max=15)
    h = build_full(cfg)
    values = np.linalg.eigvalsh(h)
    trace = np.trace(h)
    assert abs(values.sum() - trace) <= 1e-8 * max(1.0, abs(trace))


def test_sweep_validation():
    cfg = ModelConfig(n_max=4)
    with pytest.raises(ValueError):
        sweep_spectrum(cfg, [], 2)
    with pytest.raises(ValueError):
        sweep_spectrum(cfg, [1.0, 0.5], 2)
    # True is an int to isinstance, and would sweep one level
    for k_levels in (0, 9, 2.5, True):
        with pytest.raises(ValueError, match=r"k_levels must be in \[1, 8\]"):
            sweep_spectrum(cfg, [0.0, 1.0], k_levels)


def test_parity_ground_states_takes_any_1d_sequence():
    # the grid goes through the sweeps' check: a list is the same grid as
    # its array, and an empty, 2-D or scalar grid is refused alike; the
    # record owns a copy of the couplings
    cfg = ModelConfig(n_max=6)
    grid = [0.0, 0.5, 1.0, 2.5]
    listed = parity_ground_states(cfg, grid)
    array = np.array(grid)
    arrayed = parity_ground_states(cfg, array)
    array[0] = 9.0
    for name in ("couplings", "psi", "parity", "levels", "quasi_degenerate"):
        a, b = getattr(listed, name), getattr(arrayed, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert listed.base is cfg and listed.couplings.tolist() == grid
    for bad in ([], [[1.0]], [[0.5, 1.0]], 0.5):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            parity_ground_states(cfg, bad)


def test_sweep_error_carries_grid_point():
    # a grid the model cannot represent is the model's ValueError, which
    # names the bad point as a float, before anything is solved
    cfg = ModelConfig(n_max=4)
    with pytest.raises(ValueError, match="got g = nan$"):
        sweep_spectrum(cfg, [float("nan")], 2)
    for grid, bad in (([-0.5, 0.0, 1.0], -0.5), ([0.0, 1.0, float("inf")], float("inf"))):
        # a numpy scalar would print as np.float64(...)
        with pytest.raises(ValueError, match=f"got g = {re.escape(repr(bad))}$"):
            sweep_spectrum(cfg, grid, 2)
    # D = g^2 overflows: the Hamiltonian is not finite
    dia = dataclasses.replace(cfg, include_diamagnetic=True)
    with pytest.raises(ValueError, match="finite Hamiltonian, got g = 1e[+]200$"):
        sweep_spectrum(dia, [1.0, 1e200], 2)


def test_sweeps_refuse_a_g_over_omega_c_that_overflows(monkeypatch):
    from qrabi import spectra

    tiny = ModelConfig(omega_c=1e-300, n_max=4)
    # 1 / 1e-300 = 1e300 is a float, so the axis is g / omega_c
    assert sweep_spectrum(tiny, [0.0, 1.0], 2).g_grid.tolist() == [0.0, 1.0 / 1e-300]
    assert entropy_sweep(tiny, [0.0, 1.0]).g_grid.tolist() == [0.0, 1.0 / 1e-300]

    def no_solve(*args):
        raise AssertionError("solved a grid whose g axis overflows")
    monkeypatch.setattr(spectra, "solve_parity_blocks", no_solve)
    # 1e9 / 1e-300 overflows; the rule is one check, made before any solve
    message = r"g / omega_c overflows at g = 1000000000.0, omega_c = 1e-300"
    with pytest.raises(ValueError, match=message):
        sweep_spectrum(tiny, [0.0, 1.0, 1e9], 2)
    with pytest.raises(ValueError, match=message):
        entropy_sweep(tiny, [0.0, 1.0, 1e9])


@pytest.mark.parametrize("grid, bad", [
    ((-0.5, 0.0, 1.0), -0.5),
    ((float("nan"),), float("nan")),
    ((0.0, 1.0, float("inf")), float("inf")),
    ((0.0, 1.0, 1e200), 1e200),  # D = g^2 / omega_c overflows
], ids=["negative", "nan", "inf", "d_overflows"])
def test_the_model_refuses_a_grid_it_cannot_represent(monkeypatch, grid, bad):
    from qrabi import spectra

    def no_solve(*args):
        raise AssertionError("solved a grid the model refuses")
    monkeypatch.setattr(spectra, "solve_parity_blocks", no_solve)
    qrma = ModelConfig(n_max=4, include_diamagnetic=True)
    message = f"need g >= 0 and a finite Hamiltonian, got g = {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        parity_blocks(qrma, grid)
    with pytest.raises(ValueError, match=message):
        sweep_spectrum(qrma, grid, 2)
    # entropy_sweep solves both variants whatever its base's A^2 flag
    with pytest.raises(ValueError, match=message):
        entropy_sweep(dataclasses.replace(qrma, include_diamagnetic=False), grid)
    # parity_blocks names the first refused coupling of its grid
    with pytest.raises(ValueError, match=message):
        parity_blocks(qrma, (0.0, bad, -1.0, float("nan")))


def test_batched_solve_failure_names_the_grid_point():
    from qrabi import SweepError

    def solver(blocks):
        # the g X coupling puts g at [0, 1] of every block
        if np.any(blocks[..., 0, 1] == 0.75):
            raise np.linalg.LinAlgError("no convergence")
        return np.linalg.eigvalsh(blocks)

    cfg = ModelConfig(n_max=4)
    assert solve_parity_blocks(cfg, np.array([0.5, 1.0]), solver).shape == (2, 2, 4)
    with pytest.raises(SweepError) as err:
        solve_parity_blocks(cfg, np.array([0.5, 0.75, 1.0]), solver)
    assert err.value.g == 0.75 and type(err.value.g) is float
    assert isinstance(err.value.cause, np.linalg.LinAlgError)

    def stacked_only(blocks):
        # fails on the whole stack but on no single point: no point to name
        if blocks.ndim == 4:
            raise np.linalg.LinAlgError("stack failed")
        return np.linalg.eigvalsh(blocks)

    with pytest.raises(np.linalg.LinAlgError, match="stack failed"):
        solve_parity_blocks(cfg, np.array([0.5, 0.75, 1.0]), stacked_only)


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


def test_crossing_refinement_falls_back_to_grid_point_when_parabola_underflows():
    # gaps of a few subnormals: the parabola's denominator, 0.01 * -2e-323,
    # rounds to 0, so the vertex is the grid point itself
    grid = np.array([0.0, 0.01, 0.02])
    levels = np.column_stack([np.zeros(3), [3e-323, 1e-323, 1e-323]])
    report = find_avoided_crossings(SpectrumSweep(grid, levels, "QRM"), (0, 1))
    assert (report.g_at_min, report.min_gap, report.at_boundary) == (0.01, 1e-323, False)


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
    # like k_levels, each entry is an integer and not a bool
    for pair in ((0.0, 1.0), (True, 2), (0, True), (0.5, 1.5)):
        with pytest.raises(ValueError, match="two integer levels"):
            find_avoided_crossings(sweep, pair)
    report = find_avoided_crossings(sweep, (np.int64(0), np.int64(1)))
    assert report.level_pair == (0, 1)
    assert all(type(k) is int for k in report.level_pair)


def test_truncation_convergence_report():
    cfg = ModelConfig(g=1.0, n_max=40)
    assert truncation_report(parity_ground_states(cfg, [cfg.g]), 4)[0] < 1e-8
    shallow = ModelConfig(g=2.0, n_max=2)
    assert not truncation_report(parity_ground_states(shallow, [shallow.g]), 4)[0] < 1e-8
    # like sweep_spectrum, a whole number of at most 2 * n_max = 6 levels at n_max = 3
    ground = parity_ground_states(ModelConfig(g=1.0, n_max=3), [1.0])
    for k_levels in (0, -1, 7, 2.5):
        with pytest.raises(ValueError, match=r"k_levels must be in \[1, 6\]"):
            truncation_report(ground, k_levels)


def test_truncation_check_reports_top_fock_population():
    # g = 3, D = 9: the lowest level settles under doubling at n_max = 30
    # while the top Fock state still holds 1e-5 of the ground state
    cfg = ModelConfig(g=3.0, include_diamagnetic=True, n_max=30)
    ground = parity_ground_states(cfg, [cfg.g])
    shift = truncation_report(ground, 1)[0]
    assert shift < 1e-4
    assert shift == pytest.approx(7.75e-5, rel=1e-3)
    assert ground.top_fock_population[0] == pytest.approx(1.06e-5, rel=1e-2)
    deeper = parity_ground_states(dataclasses.replace(cfg, n_max=40), [cfg.g])
    assert deeper.top_fock_population[0] == pytest.approx(3.9e-7, rel=1e-2)


def test_truncation_check_top_fock_of_definite_parity_ground_state():
    # at g = 6 the doublet is degenerate to machine precision, so a dense
    # solve returns a parity-mixed vector; the record reads the top Fock
    # weight of the definite-parity ground state that ground_state embeds
    cfg = ModelConfig(g=6.0, n_max=200)
    ground = parity_ground_states(cfg, [cfg.g])
    rho_c = partial_trace(ground_state(cfg).to_density(), "cavity")
    assert ground.parity[0] == -1 and ground.quasi_degenerate[0]
    assert ground.top_fock_population[0] == rho_c.data[-1, -1].real


PRESET_GRID = np.linspace(0.0, 3.0, 201)


@pytest.mark.parametrize("dia", [False, True], ids=["QRM", "QRMA"])
def test_truncation_report_points_are_one_point_reports(dia):
    # each matrix of the stacked solves is solved on its own, so every
    # point of the record and its report is the one-point one, bit for bit
    cfg = ModelConfig(include_diamagnetic=dia, n_max=15)
    ground = parity_ground_states(cfg, PRESET_GRID)
    shift = truncation_report(ground, 8)
    for i in range(0, PRESET_GRID.size, 10):
        point = dataclasses.replace(cfg, g=PRESET_GRID[i])
        one = parity_ground_states(point, [point.g])
        assert truncation_report(one, 8)[0] == shift[i]
        for name in ("parity", "quasi_degenerate", "top_fock_population", "doublet_gap"):
            assert getattr(one, name)[0] == getattr(ground, name)[i], name


@pytest.mark.parametrize("n_max", [2, 15, 50, 100])
@pytest.mark.parametrize("dia", [False, True], ids=["QRM", "QRMA"])
def test_wigner_series_rows_are_one_point_solves(dia, n_max):
    # reproduce-paper solves each Wigner series of six couplings at once, and
    # its panels equal the wigner command's one-point solves only because
    # every row of the series record is the one-point row, bit for bit
    couplings = [0.0, 0.5, 1.0, 3.0, 7.0, 10.0]
    cfg = ModelConfig(include_diamagnetic=dia, n_max=n_max)
    series = parity_ground_states(cfg, couplings)
    for i, g in enumerate(couplings):
        one = parity_ground_states(dataclasses.replace(cfg, g=g), [g])
        for name in ("psi", "levels"):
            assert getattr(one, name)[0].tobytes() == getattr(series, name)[i].tobytes(), (name, g)


@pytest.mark.parametrize("dia, top_fock_from, top_fock, shift_from, parity_plus", [
    (False, 2.16, 1.07e-4, 1.2, (2.505, 34)),
    (True, 1.845, 1.05e-4, 0.705, None),
], ids=["QRM", "QRMA"])
def test_truncation_report_of_the_preset_grid(dia, top_fock_from, top_fock, shift_from,
                                              parity_plus):
    # the first point where each figure crosses its threshold at the
    # preset's n_max = 15; at n_max = 40 the whole grid is converged
    def first(flags):
        return (float(PRESET_GRID[flags][0]), int(flags.sum())) if flags.any() else None

    cfg = ModelConfig(include_diamagnetic=dia, n_max=15)
    ground = parity_ground_states(cfg, PRESET_GRID)
    top = ground.top_fock_population
    assert first(top > 1e-4)[0] == top_fock_from
    assert top[top > 1e-4][0] == pytest.approx(top_fock, rel=1e-2)
    assert first(truncation_report(ground, 8) > 1e-4)[0] == shift_from
    assert first(ground.parity == 1) == parity_plus
    assert not ground.quasi_degenerate.any()
    # by the theorem a parity of +1 outside the quasi-degeneracy band is
    # truncation; at n_max = 40 that exact flag shows nothing
    deep = parity_ground_states(dataclasses.replace(cfg, n_max=40), PRESET_GRID)
    assert np.all(deep.parity == -1) and np.all(deep.top_fock_population < 1e-4)
    assert not np.any((deep.parity == 1) & ~deep.quasi_degenerate)


def test_truncation_report_of_a_record_makes_no_eigh_call(monkeypatch):
    # the report adds only the 2 n_max eigvalsh to the record's solve
    cfg = ModelConfig(include_diamagnetic=True, n_max=8)
    ground = parity_ground_states(cfg, PRESET_GRID[::20])
    expected = truncation_report(ground, 8)

    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(AssertionError, match="eigh called"):
        parity_ground_states(cfg, PRESET_GRID[::20])
    assert truncation_report(ground, 8).tobytes() == expected.tobytes()


def test_truncation_report_of_an_entropy_sweep_record():
    # fig8's sweep record feeds the report as a fresh solve of its variant does
    cfg = ModelConfig(n_max=15)
    sweep = entropy_sweep(cfg, PRESET_GRID)
    fresh = parity_ground_states(dataclasses.replace(cfg, include_diamagnetic=True), PRESET_GRID)
    assert truncation_report(sweep.ground_qrma, 8).tobytes() == truncation_report(fresh, 8).tobytes()


def crafted_ground_states(monkeypatch, values):
    """``parity_ground_states`` of blocks whose levels are ``values`` (2
    sectors, points, levels) and whose vectors are the identity, reversed
    in parity +1's block so that each block's lowest vector is its own."""
    _, points, n = values.shape
    vectors = np.broadcast_to(np.stack([np.eye(n), np.eye(n)[::-1]])[:, None], (2, points, n, n))
    monkeypatch.setattr("qrabi.spectra.solve_parity_blocks",
                        lambda base, grid, solver: (values, vectors))
    return parity_ground_states(ModelConfig(n_max=n), np.zeros(points))


def test_ground_sector_picks_lower_block_and_breaks_ties_to_parity_minus_one(monkeypatch):
    # (2 sectors, 6 grid points, 2 levels): lower in -1, lower in +1, exact
    # tie; then +1 lower by 0.5, -1.5 and 2.5 times the band 1e-10 (1 + |E0|)
    # at E0 = -2: a lead inside the band is rounding and goes to -1 as well
    band = 1e-10 * (1.0 + 2.0)
    near = [[-2.0 + k * band, 0.0] for k in (0.5, -1.5, 2.5)]
    values = np.array([[[0.0, 5.0], [1.0, 2.0], [3.0, 4.0], *near],
                       [[1.0, 2.0], [0.5, 9.0], [3.0, 3.5], *[[-2.0, 0.0]] * 3]])
    ground = crafted_ground_states(monkeypatch, values)
    assert ground.parity.tolist() == [-1, 1, -1, -1, -1, 1]
    assert ground.quasi_degenerate.tolist() == [False, False, True, True, False, False]
    # the state is the lowest vector of the block its parity names
    assert ground.psi[:, 1].tolist() == (ground.parity == 1).tolist()


def test_ground_sector_at_the_band_edge_is_the_lower_block(monkeypatch):
    # the +1 block at 0.0 and the -1 block at 1e-10, a gap of exactly the
    # band 1e-10 (1 + |0|): the point is not quasi-degenerate, so its state
    # is the vector of levels[0, 0], the +1 block's
    values = np.array([[[1e-10, 1.0]], [[0.0, 1.0]]])
    ground = crafted_ground_states(monkeypatch, values)
    assert not ground.quasi_degenerate[0]
    assert ground.levels[0, 0] == 0.0
    assert ground.parity[0] == 1 and ground.psi[0].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n_max, omega_0, dia, grid, n_flagged", [
    # eigh's P+ - P- is -2.8e-14, -1.4e-14 (n_max = 200) and +3.6e-15,
    # +6.4e-14 (n_max = 100), far inside the band
    (200, 1.0, False, [6.0, 10.0], 2),
    (100, 1.0, False, [5.0, 7.0], 2),
    # deep-strong sweeps; at n_max = 100 truncation splits the doublet from
    # g = 8.5 on, so only its first points must be flagged
    (100, 1.0, False, np.linspace(4.0, 10.0, 25), 10),
    (200, 1.0, False, np.linspace(4.0, 12.0, 33), 33),
    # omega_0 = 0 makes both blocks equal: an exact tie at every g (the QRM's
    # is in test_parity_sector_tie_rule)
    (8, 0.0, True, np.linspace(0.0, 3.0, 7), 7),
], ids=["nmax200", "nmax100", "sweep_nmax100", "sweep_nmax200", "tie_dia"])
def test_every_quasi_degenerate_point_has_parity_minus_one(n_max, omega_0, dia, grid,
                                                           n_flagged):
    # for omega_0 > 0 the ground state never crosses another level, so its
    # parity is that of g = 0 (Hirokawa & Hiroshima 2014); within a doublet
    # too narrow to order, that theorem and not rounding picks the sector
    cfg = ModelConfig(omega_0=omega_0, include_diamagnetic=dia, n_max=n_max)
    ground = parity_ground_states(cfg, np.asarray(grid))
    assert ground.quasi_degenerate[:n_flagged].all()
    assert np.all(ground.parity[ground.quasi_degenerate] == -1)
    # outside the band the state is the lower block's: the lowest level of
    # its own block is levels[i, 0], bit for bit
    values, _ = solve_parity_blocks(cfg, ground.couplings, np.linalg.eigh)
    own = values[(ground.parity + 1) // 2, np.arange(ground.couplings.size), 0]
    outside = ~ground.quasi_degenerate
    assert np.array_equal(own[outside], ground.levels[outside, 0])
