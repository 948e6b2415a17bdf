import importlib
import math

import numpy as np
import pytest
from scipy.special import erf, eval_hermite, factorial, genlaguerre

from qrabi import (
    DensityMatrix,
    ModelConfig,
    QuadratureGrid,
    WignerGrid,
    entropy_sweep,
    ground_state_wigner,
    marginal_variance,
    negativity_volume,
    sweep_spectrum,
    wigner,
    wigner_marginal,
    wigner_normalization,
)
from qrabi.spectra import parity_ground_states
from oracles import PureState, build_full, ground_state, partial_trace, wigner_characteristic

wigner_module = importlib.import_module("qrabi.wigner")


def fock_density(n_max, k):
    rho = np.zeros((n_max, n_max), dtype=complex)
    rho[k, k] = 1.0
    return DensityMatrix(rho, (n_max,))


def coherent_amplitudes(alpha, n_max):
    amp = np.empty(n_max, dtype=complex)
    amp[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, n_max):
        amp[n] = amp[n - 1] * alpha / np.sqrt(n)
    return amp


def wigner_mn_oracle(m, n, q, p):
    """Wigner of |m><n| from the explicit Laguerre closed form (safe for
    small indices only; the production path never builds factorials)."""
    if m < n:
        return np.conj(wigner_mn_oracle(n, m, q, p))
    r2 = q**2 + p**2
    coeff = np.sqrt(2.0 ** (m - n) * factorial(n) / factorial(m))
    lag = genlaguerre(n, m - n)(2.0 * r2)
    return (
        np.exp(-r2) / np.pi * (-1.0) ** n * (q - 1j * p) ** (m - n) * coeff * lag
    )


def hermite_position_density(rho, q):
    """<q|rho|q> from normalized Hermite functions (independent marginal
    oracle, indices <= 10)."""
    n_max = rho.shape[0]
    psi = np.array(
        [
            eval_hermite(n, q)
            * np.exp(-q**2 / 2.0)
            / (np.pi**0.25 * np.sqrt(2.0**n * math.factorial(n)))
            for n in range(n_max)
        ]
    )
    return np.real(np.einsum("mq,mn,nq->q", psi, rho, psi))


def test_vacuum_wigner_closed_form():
    grid = QuadratureGrid(-5, 5, -5, 5, 201, 201)
    w = wigner(fock_density(6, 0), grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    exact = np.exp(-(qq**2) - pp**2) / np.pi
    assert np.max(np.abs(w.values - exact)) <= 1e-12
    assert w.values[100, 100] == pytest.approx(1.0 / np.pi, abs=1e-14)


def test_one_state_cavity_is_the_vacuum():
    # a cavity truncated to |0> holds only the vacuum; the Clenshaw sum of
    # its single entry is the same arithmetic as that of diag(1, 0)
    grid = QuadratureGrid(-3, 3, -2.5, 3.5, 31, 31)
    w = wigner(DensityMatrix([[1.0]], (1,)), grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    assert np.max(np.abs(w.values - np.exp(-(qq**2) - pp**2) / np.pi)) <= 1e-12
    assert np.array_equal(w.values, wigner(fock_density(2, 0), grid).values)


def test_fock_one_maximal_negativity():
    grid = QuadratureGrid(-5, 5, -5, 5, 101, 101)
    w = wigner(fock_density(5, 1), grid)
    assert w.values[50, 50] == pytest.approx(-1.0 / np.pi, abs=1e-12)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    r2 = qq**2 + pp**2
    exact = (2.0 * r2 - 1.0) * np.exp(-r2) / np.pi
    assert np.max(np.abs(w.values - exact)) <= 1e-12


def test_wigner_against_laguerre_sum_oracle():
    # random mixed state, summed element by element from the closed form
    rng = np.random.default_rng(31)
    n = 7
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho_mat = m @ m.conj().T
    rho_mat /= np.trace(rho_mat).real
    rho = DensityMatrix(rho_mat, (n,))
    grid = QuadratureGrid(-4, 4, -4, 4, 41, 41)
    w = wigner(rho, grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    expected = np.zeros_like(qq, dtype=complex)
    for mm in range(n):
        for nn in range(n):
            expected += rho_mat[mm, nn] * wigner_mn_oracle(mm, nn, qq, pp)
    assert np.max(np.abs(w.values - expected.real)) <= 1e-10


def test_cat_state_matches_closed_form():
    alpha = 2.0
    n_max = 40
    amp = coherent_amplitudes(alpha, n_max) + coherent_amplitudes(-alpha, n_max)
    amp /= np.linalg.norm(amp)
    rho = DensityMatrix(np.outer(amp, amp.conj()), (n_max,))
    grid = QuadratureGrid(-6, 6, -6, 6, 61, 61)
    w = wigner(rho, grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    norm = 2.0 * (1.0 + np.exp(-2.0 * alpha**2))
    q0 = np.sqrt(2.0) * alpha
    exact = (
        np.exp(-((qq - q0) ** 2) - pp**2)
        + np.exp(-((qq + q0) ** 2) - pp**2)
        + 2.0 * np.exp(-(qq**2) - pp**2) * np.cos(2.0 * q0 * pp)
    ) / (np.pi * norm)
    assert np.max(np.abs(w.values - exact)) <= 1e-6
    # interference fringes along q = 0: minima at p = (2k+1) pi / (2 q0),
    # located on the grid to within one step where the fringes are strong
    p_axis = grid.p_axis()
    center = w.values[:, 30]  # q = 0 column
    strong = [
        p_axis[i]
        for i in range(1, 60)
        if center[i] < center[i - 1] and center[i] < center[i + 1] and abs(p_axis[i]) < 2.5
    ]
    step = p_axis[1] - p_axis[0]
    for p_min in strong:
        k = np.round((2.0 * q0 * abs(p_min) / np.pi - 1.0) / 2.0)
        nearest = (2.0 * k + 1.0) * np.pi / (2.0 * q0)
        assert abs(abs(p_min) - nearest) <= step
    assert len(strong) >= 4


def test_normalization_vacuum_and_fock():
    grid = QuadratureGrid(-5, 5, -5, 5, 201, 201)
    assert wigner_normalization(wigner(fock_density(4, 0), grid)) == pytest.approx(
        1.0, abs=1e-4
    )
    assert wigner_normalization(wigner(fock_density(4, 1), grid)) == pytest.approx(
        1.0, abs=1e-4
    )


def test_normalization_truncated_window():
    # vacuum mass inside [-1, 1]^2 is erf(1)^2; cross-checked against a
    # 1-D quadrature of the Gaussian marginal
    grid = QuadratureGrid(-1, 1, -1, 1, 201, 201)
    w = wigner(fock_density(4, 0), grid)
    q = np.linspace(-1, 1, 4001)
    oracle_1d = np.trapezoid(np.exp(-q**2) / np.sqrt(np.pi), q)
    assert oracle_1d**2 == pytest.approx(float(erf(1.0)) ** 2, abs=1e-7)
    assert wigner_normalization(w) == pytest.approx(float(erf(1.0)) ** 2, abs=1e-4)


def test_normalization_converges_with_grid():
    # finer and wider grids drive the integral toward 1
    rho = DensityMatrix(np.diag([0.4, 0.0, 0.35, 0.25]).astype(complex), (4,))
    coarse = wigner_normalization(wigner(rho, QuadratureGrid(-4, 4, -4, 4, 51, 51)))
    fine = wigner_normalization(wigner(rho, QuadratureGrid(-6, 6, -6, 6, 201, 201)))
    assert abs(fine - 1.0) <= abs(coarse - 1.0)
    assert abs(fine - 1.0) <= 1e-6


def test_negativity_volume_of_vacuum_and_fock_one():
    # |W| - W is exactly 0 where W >= 0, so the vacuum reads 0 even on a
    # window that cuts its tails, where integral |W| - 1 reads erf(1)^2 - 1
    window = wigner(fock_density(4, 0), QuadratureGrid(-1, 1, -1, 1, 51, 51))
    assert negativity_volume(window) == 0.0 and wigner_normalization(window) < 0.8
    assert negativity_volume(wigner(fock_density(4, 0), QuadratureGrid())) == 0.0
    # W_1 = (2 r^2 - 1) exp(-r^2) / pi is negative for r^2 < 1/2, with
    # integral (|W| - W) = 4 / sqrt(e) - 2
    w = wigner(fock_density(3, 1), QuadratureGrid(-6, 6, -6, 6, 801, 801))
    assert abs(negativity_volume(w) - (4.0 / np.sqrt(np.e) - 2.0)) <= 1e-5


def test_marginals_closed_forms():
    grid = QuadratureGrid(-6, 6, -6, 6, 241, 241)
    q = grid.q_axis()
    vac = wigner_marginal(wigner(fock_density(4, 0), grid), "q")
    assert np.max(np.abs(vac - np.exp(-q**2) / np.sqrt(np.pi))) <= 1e-4
    one = wigner_marginal(wigner(fock_density(4, 1), grid), "q")
    assert np.max(np.abs(one - 2.0 * q**2 * np.exp(-q**2) / np.sqrt(np.pi))) <= 1e-4
    with pytest.raises(ValueError):
        wigner_marginal(wigner(fock_density(4, 0), grid), "x")


def test_marginal_matches_hermite_expansion():
    rng = np.random.default_rng(8)
    n = 6
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho_mat = m @ m.conj().T
    rho_mat /= np.trace(rho_mat).real
    grid = QuadratureGrid(-7, 7, -7, 7, 281, 281)
    w = wigner(DensityMatrix(rho_mat, (n,)), grid)
    marginal = wigner_marginal(w, "q")
    oracle = hermite_position_density(rho_mat, grid.q_axis())
    assert np.max(np.abs(marginal - oracle)) <= 1e-5


def test_wigner_linearity():
    grid = QuadratureGrid(-4, 4, -4, 4, 41, 41)
    rho1 = fock_density(5, 0)
    rho2 = fock_density(5, 2)
    mixed = DensityMatrix(0.4 * rho1.data + 0.6 * rho2.data, (5,))
    combo = 0.4 * wigner(rho1, grid).values + 0.6 * wigner(rho2, grid).values
    assert np.max(np.abs(wigner(mixed, grid).values - combo)) <= 1e-10


def test_rotational_symmetry_fock_diagonal():
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex), (3,))
    grid = QuadratureGrid(-3, 3, -3, 3, 61, 61)
    w = wigner(rho, grid).values
    assert np.max(np.abs(w - w.T)) <= 1e-8
    assert np.max(np.abs(w - np.rot90(w))) <= 1e-8


def test_wigner_bound_random_states():
    rng = np.random.default_rng(77)
    grid = QuadratureGrid(-5, 5, -5, 5, 81, 81)
    for n in (2, 6, 12):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho_mat = m @ m.conj().T
        rho_mat /= np.trace(rho_mat).real
        w = wigner(DensityMatrix(rho_mat, (n,)), grid)
        assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-8


def test_characteristic_function_cross_check():
    points = [(0.0, 0.0), (1.0, 0.5), (-0.7, 0.3), (0.4, -1.1)]
    for rho in (fock_density(1, 0), fock_density(4, 0), fock_density(4, 1)):
        direct = wigner_characteristic(rho, points)
        series = [
            wigner(rho, QuadratureGrid(q - 1, q + 1, p - 1, p + 1, 3, 3)).values[1, 1]
            for q, p in points
        ]
        assert np.max(np.abs(np.array(series) - direct)) <= 1e-6


def test_characteristic_cross_check_superposition():
    amp = np.array([1.0, 0.5j, -0.3, 0.1], dtype=complex)
    amp /= np.linalg.norm(amp)
    rho = DensityMatrix(np.outer(amp, amp.conj()), (4,))
    points = [(0.0, 0.0), (0.8, -0.4), (-1.2, 0.6)]
    direct = wigner_characteristic(rho, points)
    series = [
        wigner(rho, QuadratureGrid(q - 1, q + 1, p - 1, p + 1, 3, 3)).values[1, 1]
        for q, p in points
    ]
    assert np.max(np.abs(np.array(series) - direct)) <= 1e-6


def test_ground_state_wigner_vacuum():
    cfg = ModelConfig(g=0.0, n_max=8)
    grid = QuadratureGrid(-5, 5, -5, 5, 101, 101)
    w = ground_state_wigner(cfg, grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    assert np.max(np.abs(w.values - np.exp(-(qq**2) - pp**2) / np.pi)) <= 1e-10


def test_deep_strong_ground_state_wigner_is_inversion_symmetric():
    # a ground state of definite parity gives W(q, p) = W(-q, -p); at g = 6
    # a dense solve mixes the degenerate doublet and breaks the symmetry
    cfg = ModelConfig(omega_0=1.0, g=6.0, n_max=200)
    w = ground_state_wigner(cfg, QuadratureGrid(-10, 10, -10, 10, 21, 21))
    assert np.max(np.abs(w.values)) > 0.1
    assert np.max(np.abs(w.values - w.values[::-1, ::-1])) <= 1e-12


def test_ground_state_wigner_matches_dense_reduced_state():
    # away from a degenerate doublet the per-sector state is the dense one
    for cfg in (ModelConfig(g=1.3, n_max=12),
                ModelConfig(omega_0=0.83, g=2.0, include_diamagnetic=True,
                            n_max=15)):
        grid = QuadratureGrid(-5, 5, -4, 4, 41, 33)
        dense_state = PureState(np.linalg.eigh(build_full(cfg))[1][:, 0], (2, cfg.n_max))
        reduced = partial_trace(dense_state.to_density(), "cavity")
        dense = wigner(reduced, grid).values
        assert np.max(np.abs(ground_state_wigner(cfg, grid).values - dense)) <= 1e-12


def test_squeezed_ground_state_variances():
    cfg = ModelConfig(g=3.0, include_diamagnetic=True, n_max=15)
    w = ground_state_wigner(cfg, QuadratureGrid(-6, 6, -6, 6, 121, 121))
    assert marginal_variance(w, "q") < 0.5 < marginal_variance(w, "p")


def test_wigner_rejects_composite_dims():
    rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
    with pytest.raises(ValueError, match="cavity-only"):
        wigner(rho, QuadratureGrid())
    with pytest.raises(ValueError, match="cavity-only"):
        wigner_characteristic(rho, [(0.0, 0.0)])


def test_wigner_rejects_density_matrix_not_matching_dims():
    with pytest.raises(ValueError, match="dims"):
        wigner(DensityMatrix(np.eye(3) / 3.0, (5,)), QuadratureGrid())


def test_wigner_rejects_overflowing_grid():
    rho = DensityMatrix(np.eye(400) / 400.0, (400,))
    huge = QuadratureGrid(-1e9, 1e9, -1e9, 1e9, 11, 11)
    with pytest.raises(ValueError):
        wigner(rho, huge)


def test_coherent_state_far_from_the_origin_matches_its_closed_form():
    # n_max ln|2 alpha| reaches 922 at the grid's corners: each step of the
    # recurrence divides by sqrt(level + 1), so no term overflows
    alpha, n_max = 10.0, 250
    amp = coherent_amplitudes(alpha, n_max).real
    grid = QuadratureGrid(-20, 20, -20, 20, 41, 41)
    w = wigner(DensityMatrix(np.outer(amp, amp), (n_max,)), grid)
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    exact = np.exp(-((qq - np.sqrt(2.0) * alpha) ** 2) - pp**2) / np.pi
    assert np.max(np.abs(w.values - exact)) <= 1e-13


def test_deep_strong_panel_converges_on_a_grid_that_holds_its_lobes():
    # the lobes of g = 10 lie near q = +-sqrt(2) g, so the grid spans +-18,
    # where n_max 200 is not yet converged
    grid = QuadratureGrid(-18, 18, -18, 18, 37, 37)
    w = {n_max: ground_state_wigner(ModelConfig(g=10.0, n_max=n_max), grid).values
         for n_max in (200, 250, 300)}
    assert np.max(np.abs(w[250] - w[300])) <= 1e-12
    assert np.max(np.abs(w[200] - w[300])) > 1e-11


def test_quadrature_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(q_min=1.0, q_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureGrid(n_q=1)


@pytest.mark.parametrize("key", ["q_min", "q_max", "p_min", "p_max"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_quadrature_grid_rejects_non_finite_bounds(key, value):
    with pytest.raises(ValueError, match="finite"):
        QuadratureGrid(**{key: value})


@pytest.mark.parametrize("key", ["n_q", "n_p"])
def test_quadrature_grid_counts_are_whole_numbers(key):
    for value in (2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=key):
            QuadratureGrid(**{key: value})
    grid = QuadratureGrid(**{key: 5.0})
    assert grid.q_axis().size * grid.p_axis().size == 5 * 201


def test_wigner_grid_invariants():
    grid = QuadratureGrid(-1, 1, -1, 1, 5, 5)
    with pytest.raises(ValueError):
        WignerGrid(grid, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        WignerGrid(grid, np.full((5, 5), np.nan))
    with pytest.raises(ValueError):
        WignerGrid(grid, np.full((5, 5), 1.0))  # above 1/pi bound


def test_wigner_grid_compares_and_hashes_by_identity():
    # every record that holds arrays: two built from equal arrays differ
    cfg = ModelConfig(g=1.0, n_max=3)
    g_grid = np.linspace(0.0, 1.0, 3)
    builds = [
        lambda: ground_state_wigner(cfg, QuadratureGrid(-3, 3, -3, 3, 9, 7)),
        lambda: sweep_spectrum(cfg, g_grid, 4),
        lambda: parity_ground_states(cfg, g_grid),
        lambda: ground_state(cfg),
        lambda: ground_state(cfg).to_density(),
        lambda: entropy_sweep(cfg, g_grid),
    ]
    for build in builds:
        a, b = build(), build()
        assert a == a and a != b
        assert hash(a) == hash(a) and {a} == {a} and len({a, b}) == 2
    w = builds[0]()
    assert w != WignerGrid(w.grid, w.values)
    assert w.fold is w.fold


def test_wigner_grid_owns_its_values():
    # the grid copies its values: the caller's array stays writable, and a
    # write to it changes neither the values nor their cached fold
    grid = QuadratureGrid(-1, 1, -1, 1, 3, 3)
    base = np.zeros((3, 3))
    base[1, 1] = 0.25
    w = WignerGrid(grid, base)
    view = WignerGrid(grid, base[:, :])
    assert base.flags.writeable
    assert view.fold[0].shape == (2, 2)
    base[0, 0] = 0.1
    for grid_of_base in (w, view):
        quadrant, ip, iq = grid_of_base.fold
        assert grid_of_base.values[0, 0] == 0.0
        assert np.array_equal(quadrant[np.ix_(ip, iq)], grid_of_base.values)


def reduced_ground_state(cfg):
    """The parity ground state and its reduced cavity state."""
    psi = parity_ground_states(cfg, np.array([cfg.g])).psi[0]
    n = np.arange(psi.size)
    return psi, DensityMatrix(np.outer(psi, psi) * ((n[:, None] - n) % 2 == 0), (psi.size,))


@pytest.mark.parametrize("grid", [QuadratureGrid(),
                                  QuadratureGrid(-2.0, 2.0, -1.5, 1.5, 5, 4),
                                  QuadratureGrid(-3.0, 3.0, -2.5, 2.5, 8, 7)],
                         ids=["201x201", "5x4", "8x7"])
@pytest.mark.parametrize("dia", [False, True], ids=["QRM", "QRMA"])
@pytest.mark.parametrize("n_max", [2, 15, 30])
def test_mirrored_ground_state_wigner_matches_full_grid(grid, dia, n_max):
    # W(q, p) = W(q, -p) = W(-q, p) exactly, so one quadrant and its
    # mirror images give the full-grid values, exactly symmetric; the
    # public route from the composite ground state gives the same bits
    for g in (0.0, 0.5, 3.0):
        cfg = ModelConfig(g=g, include_diamagnetic=dia, n_max=n_max)
        w = ground_state_wigner(cfg, grid).values
        full = wigner_module._clenshaw(reduced_ground_state(cfg)[1].data,
                                       grid.q_axis(), grid.p_axis())
        assert np.max(np.abs(w - full)) <= 2e-15
        assert np.array_equal(w, w[::-1, :]) and np.array_equal(w, w[:, ::-1])
        rho_c = partial_trace(ground_state(cfg).to_density(), "cavity")
        assert np.array_equal(wigner(rho_c, grid).values, w)


def test_ground_state_wigner_mirrors_only_symmetric_grids(monkeypatch):
    # wigner evaluates one quadrant only for a real, parity-commuting state
    # on a grid symmetric about both axes; ground_state_wigner is wigner
    calls = []
    clenshaw = wigner_module._clenshaw
    monkeypatch.setattr(
        wigner_module, "_clenshaw",
        lambda data, q, p: calls.append((data, q, p, clenshaw(data, q, p))) or calls[-1][3])
    cfg = ModelConfig(g=1.0, n_max=15)
    psi, rho = reduced_ground_state(cfg)

    # a symmetric panel folds back to the quadrant it was mirrored from
    symmetric = QuadratureGrid(-3.0, 3.0, -2.5, 2.5, 8, 7)
    for w in (wigner(rho, symmetric), ground_state_wigner(cfg, symmetric)):
        data, q, p, quadrant = calls.pop()
        assert np.array_equal(data, rho.data.real) and data.dtype == float
        assert np.array_equal(q, symmetric.q_axis()[4:]) and np.array_equal(p, symmetric.p_axis()[3:])
        assert np.array_equal(w.fold[0], quadrant)

    # a phase rotation keeps parity but makes the state complex; the
    # unmasked outer product of the ground state is real but mixes parities
    phases = np.exp(0.3j * np.arange(15))
    complex_rho = DensityMatrix(phases[:, None] * rho.data * phases.conj(), (15,))
    mixed_rho = DensityMatrix(np.outer(psi, psi), (15,))
    assert complex_rho.data.imag.any() and mixed_rho.data[::2, 1::2].any()
    for state, grid in [(rho, QuadratureGrid(-4.5, 2.0, -3.0, 3.0, 37, 31)),
                        (rho, QuadratureGrid(-3.0, 3.0, -1.0, 6.0, 31, 37)),
                        (complex_rho, symmetric), (mixed_rho, symmetric)]:
        w = wigner(state, grid)
        data, q, p, values = calls.pop()
        assert data is state.data
        assert np.array_equal(q, grid.q_axis()) and np.array_equal(p, grid.p_axis())
        assert np.array_equal(w.values, values)
        assert w.fold[0] is w.values


def mirrored(quadrant, n_p, n_q):
    """The n_p x n_q grid whose rows and columns mirror ``quadrant``, built
    by flipping, not by the mirror index under test."""
    right = np.hstack([quadrant[:, n_q % 2:][:, ::-1], quadrant])
    assert right.shape == (n_p - n_p // 2, n_q)
    return np.vstack([right[n_p % 2:][::-1], right])


@pytest.mark.parametrize("n_p, n_q", [(7, 9), (8, 6), (7, 6), (2, 3), (201, 201)],
                         ids=["odd", "even", "mixed", "2x3", "201x201"])
def test_fold_of_mirror_symmetric_grid_is_its_quadrant(n_p, n_q):
    rng = np.random.default_rng(n_p * n_q)
    quadrant = rng.uniform(-0.3, 0.3, (n_p - n_p // 2, n_q - n_q // 2))
    w = WignerGrid(QuadratureGrid(n_q=n_q, n_p=n_p), mirrored(quadrant, n_p, n_q))
    folded, ip, iq = w.fold
    assert np.array_equal(folded, quadrant)
    assert np.shares_memory(folded, w.values)  # a view, not a copy
    assert np.array_equal(w.values, folded[np.ix_(ip, iq)])
    assert np.array_equal(ip, ip[::-1]) and np.array_equal(iq, iq[::-1])
    assert w.fold is w.fold  # computed once


@pytest.mark.parametrize("flip", [0, 1], ids=["p_only", "q_only"])
def test_fold_of_grid_symmetric_in_one_axis_is_identity(flip):
    rng = np.random.default_rng(3)
    half = rng.uniform(-0.3, 0.3, (4, 7))
    values = np.concatenate([half, np.flip(half, flip)], axis=flip)
    w = WignerGrid(QuadratureGrid(n_q=values.shape[1], n_p=values.shape[0]), values)
    folded, ip, iq = w.fold
    assert folded is w.values
    assert np.array_equal(ip, np.arange(w.grid.n_p)) and np.array_equal(iq, np.arange(w.grid.n_q))


def test_ground_state_wigner_rejects_overflowing_grid():
    cfg = ModelConfig(g=1.0, n_max=40)
    for grid in (QuadratureGrid(-1e9, 1e9, -1e9, 1e9, 11, 11),
                 QuadratureGrid(-1e9, 1e8, -1e9, 1e9, 11, 11)):
        with pytest.raises(ValueError, match="overflow"):
            ground_state_wigner(cfg, grid)


def clenshaw_every_level(rho, grid):
    """The Clenshaw loop with a Laguerre pass at every level, all-zero
    diagonals included."""
    n = rho.dims[0]
    qq, pp = np.meshgrid(grid.q_axis(), grid.p_axis())
    a2 = np.sqrt(2.0) * (qq + 1j * pp)
    b = a2.real**2 + a2.imag**2
    scaled = rho.data * (2.0 - np.eye(n))
    w = np.full(a2.shape, scaled[0, n - 1], dtype=complex)
    for level in range(n - 2, -1, -1):
        w = (wigner_module._laguerre_series(level, b, np.diag(scaled, level))
             + w * a2 / np.sqrt(level + 1.0))
    return w.real * np.exp(-0.5 * b) / np.pi


def test_skipped_zero_diagonals_leave_values_unchanged():
    rng = np.random.default_rng(5)
    n = 12
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense = m @ m.conj().T / np.trace(m @ m.conj().T).real
    k = np.arange(n)
    even = dense * ((k[:, None] - k) % 2 == 0)  # the parity-symmetrized state
    grid = QuadratureGrid(-4.5, 4.0, -3.0, 5.0, 41, 37)
    for data in (dense, even):
        rho = DensityMatrix(data, (n,))
        assert np.max(np.abs(wigner(rho, grid).values - clenshaw_every_level(rho, grid))) <= 1e-15


def test_ground_state_wigner_matches_mpmath_quadrature():
    # W(q, p) = (1/pi) int <q - y|rho|q + y> e^{2ipy} dy at 40 digits for the
    # same truncated state; rho = sum of |phi><phi| over the even and odd
    # parts phi of psi is real, so only the cosine part remains
    mp = pytest.importorskip("mpmath")
    cfg = ModelConfig(g=1.0, n_max=15)
    grid = QuadratureGrid()
    w = ground_state_wigner(cfg, grid).values
    psi = reduced_ground_state(cfg)[0]
    q_axis, p_axis = grid.q_axis(), grid.p_axis()
    with mp.workdps(40):
        n = psi.size
        up = [0, 0] + [mp.sqrt(mp.mpf(2) / k) for k in range(2, n)]
        down = [0, 0] + [mp.sqrt(mp.mpf(k - 1) / k) for k in range(2, n)]
        parts = [[mp.mpf(c) if k % 2 == r else 0 for k, c in enumerate(psi.tolist())]
                 for r in (0, 1)]

        def hermite_functions(x):
            h = [mp.exp(-x * x / 2) / mp.pi ** mp.mpf(0.25)]
            h.append(mp.sqrt(2) * x * h[0])
            for k in range(2, n):
                h.append(up[k] * x * h[k - 1] - down[k] * h[k - 2])
            return h

        # (q, p) indices on the 201 x 201 grid over [-6, 6]^2, tails included
        for j, i in [(100, 100), (0, 0), (150, 190), (117, 83), (60, 140), (200, 100),
                     (35, 170)]:
            q, p = mp.mpf(q_axis[j]), mp.mpf(p_axis[i])

            def integrand(y):
                a, b = hermite_functions(q + y), hermite_functions(q - y)
                return sum(mp.fdot(phi, a) * mp.fdot(phi, b) for phi in parts) * mp.cos(2 * p * y)

            # even in y, and below 1e-60 of its peak beyond |y| = 14
            exact = 2 * mp.quad(integrand, mp.linspace(0, 14, 4), method="gauss-legendre") / mp.pi
            assert abs(float((w[i, j] - exact) / exact)) <= 1e-9, (q_axis[j], p_axis[i])
