"""The QRMA against its exact Bogoliubov map onto a QRM (C. Nataf & C. Ciuti,
Nat. Commun. 1, 72 (2010)): ``model.bogoliubov_map`` gives the QRM of
frequency omega' = sqrt(omega_c^2 + 4 D omega_c) and coupling
g' = g sqrt(omega_c / omega'), the energy shift (omega' - omega_c) / 2 and the
squeeze s = sqrt(omega' / omega_c).  At n_max = 160 both sides are converged,
so levels, entropy and Wigner function agree to rounding.  The direct QRMA
needs far more Fock states than its map, whose QRM' is converged at n_max = 12;
README's tables of these cutoffs are pinned here."""

import functools

import numpy as np
import pytest

from qrabi import (ModelConfig, QuadratureGrid, bogoliubov_map, entropy_sweep,
                   ground_state_wigner, negativity_volume, parity_blocks,
                   parity_ground_states, truncation_report)

TOL = 1e-12

# (g, d_override) at omega_0 = omega_c = 1; the default D is g^2 / omega_c
POINTS = [
    pytest.param(1.0, None, id="g1"),
    pytest.param(3.0, None, id="g3"),
    pytest.param(1.0, 0.3, id="g1_d0.3"),
]


def qrma(g, d_override, n_max=160):
    return ModelConfig(g=g, include_diamagnetic=True, d_override=d_override,
                       n_max=n_max)


def test_map_of_the_model_without_a2_is_the_identity():
    cfg = ModelConfig(g=2.0, d_override=0.3)
    assert bogoliubov_map(cfg) == (cfg, 0.0, 1.0)


@pytest.mark.parametrize("g, d_override", POINTS)
def test_qrma_levels_are_the_mapped_qrm_levels(g, d_override):
    # the squeeze commutes with photon parity, so the map holds block by block
    cfg = qrma(g, d_override)
    qrm, shift, _ = bogoliubov_map(cfg)
    levels = np.linalg.eigvalsh(parity_blocks(cfg, [g]))[:, 0, :4]
    mapped = np.linalg.eigvalsh(parity_blocks(qrm, [qrm.g]))[:, 0, :4] + shift
    assert np.max(np.abs(levels - mapped)) <= TOL


@pytest.mark.parametrize("g, d_override", POINTS)
def test_qrma_entropy_is_the_mapped_qrm_entropy(g, d_override):
    # the squeeze is a unitary on the cavity alone, so the qubit state is kept
    cfg = qrma(g, d_override)
    qrm, _, _ = bogoliubov_map(cfg)
    s_qrma = entropy_sweep(cfg, [g]).s_qrma[0]
    assert abs(s_qrma - entropy_sweep(qrm, [qrm.g]).s_qrm[0]) <= TOL


@pytest.mark.parametrize("g, d_override", POINTS)
def test_qrma_wigner_is_the_squeezed_qrm_wigner(g, d_override):
    # W_QRMA(q, p) = W_QRM'(s q, p / s): the QRM' grid is the QRMA grid scaled
    cfg = qrma(g, d_override)
    qrm, _, s = bogoliubov_map(cfg)
    w = ground_state_wigner(cfg, QuadratureGrid(-6, 6, -6, 6, 101, 101))
    mapped = ground_state_wigner(qrm, QuadratureGrid(-6 * s, 6 * s, -6 / s, 6 / s, 101, 101))
    assert np.max(np.abs(w.values)) > 0.1
    assert np.max(np.abs(w.values - mapped.values)) <= TOL


def test_qrma_negativity_volume_is_the_mapped_qrm_value():
    # the scaling (q, p) -> (s q, p / s) has unit Jacobian, and the scaled
    # grid's nodes are the QRMA grid's images, so both trapezoid sums agree
    cfg = qrma(2.0, 0.1, n_max=120)
    qrm, _, s = bogoliubov_map(cfg)
    delta = negativity_volume(ground_state_wigner(cfg, QuadratureGrid(-8, 8, -8, 8, 201, 201)))
    grid = QuadratureGrid(-8 * s, 8 * s, -8 / s, 8 / s, 201, 201)
    assert delta == pytest.approx(0.0230504, abs=1e-7)
    assert abs(delta - negativity_volume(ground_state_wigner(qrm, grid))) <= TOL


def test_qrma_entropy_falls_at_large_coupling():
    # with D = g^2 / omega_c, g' / omega' -> 0 as g grows, so the converged
    # QRMA ground state decouples: the no-go result for the superradiant
    # transition (K. Rzazewski, K. Wodkiewicz & W. Zakowicz, PRL 35, 432 (1975))
    couplings = [3.0, 10.0, 30.0, 100.0]
    entropies = {}
    for n_max in (80, 160):
        entropies[n_max] = []
        for g in couplings:
            qrm, _, _ = bogoliubov_map(qrma(g, None, n_max))
            entropies[n_max].append(entropy_sweep(qrm, [qrm.g]).s_qrm[0])
    # QRM' is converged at n_max = 80
    assert np.max(np.abs(np.subtract(entropies[80], entropies[160]))) <= TOL
    assert np.all(np.diff(entropies[80]) < 0)
    assert entropies[80] == pytest.approx([0.1889, 0.0885, 0.0377, 0.0137], abs=5e-5)


# N* is the smallest n_max from which every n_max up to SCAN_MAX stays within
# CUTOFF_TOL of the n_max = REFERENCE_N_MAX value, at omega_0 = omega_c = 1
CUTOFF_TOL = 1e-4
REFERENCE_N_MAX = 240
SCAN_MAX = 60
# g: (QRM S, QRM E0, QRMA S, QRMA E0)
N_STAR = {1.0: (8, 8, 13, 11), 2.0: (12, 16, 25, 21), 3.0: (15, 25, 37, 28)}
MAPPED_N_MAX = 12


@functools.cache
def figures(g, n_max):
    # (S, E0) of the QRM, then of the direct QRMA, from one entropy sweep
    sweep = entropy_sweep(ModelConfig(g=g, n_max=n_max), [g])
    return (sweep.s_qrm[0], sweep.ground_qrm.levels[0, 0],
            sweep.s_qrma[0], sweep.ground_qrma.levels[0, 0])


def n_star(values, reference):
    far = [n for n, value in values.items() if abs(value - reference) >= CUTOFF_TOL]
    return max(far) + 1 if far else min(values)


@pytest.mark.parametrize("g", sorted(N_STAR))
def test_fock_states_each_number_needs(g):
    reference = figures(g, REFERENCE_N_MAX)
    scan = {n: figures(g, n) for n in range(2, SCAN_MAX + 1)}
    found = tuple(n_star({n: values[k] for n, values in scan.items()}, reference[k])
                  for k in range(4))
    assert found == N_STAR[g]


# the same rule for the negativity volume and for W, whose distance is the
# largest |W - W_ref| on the grid; one panel per (g, n_max) and variant gives
# both.  g: (QRM delta, QRM W, QRMA delta, QRMA W)
N_STAR_WIGNER = {1.0: (9, 10, 15, 12), 2.0: (19, 19, 34, 25), 3.0: (31, 29, 52, 41)}
WIGNER_GRID = QuadratureGrid(-6, 6, -6, 6, 101, 101)


def wigner_references(g):
    # the QRM at REFERENCE_N_MAX, and the QRMA as its map's QRM' at
    # MAPPED_N_MAX on the scaled grid, since W_QRMA(q, p) = W_QRM'(s q, p / s)
    qrm, _, s = bogoliubov_map(ModelConfig(g=g, include_diamagnetic=True,
                                           n_max=MAPPED_N_MAX))
    mapped = QuadratureGrid(-6 * s, 6 * s, -6 / s, 6 / s, 101, 101)
    return (ground_state_wigner(ModelConfig(g=g, n_max=REFERENCE_N_MAX), WIGNER_GRID),
            ground_state_wigner(qrm, mapped))


@pytest.mark.parametrize("g", sorted(N_STAR_WIGNER))
def test_fock_states_the_wigner_figures_need(g):
    distances = [{}, {}, {}, {}]
    for v, reference in enumerate(wigner_references(g)):
        delta = negativity_volume(reference)
        for n in range(2, SCAN_MAX + 1):
            cfg = ModelConfig(g=g, include_diamagnetic=bool(v), n_max=n)
            w = ground_state_wigner(cfg, WIGNER_GRID)
            distances[2 * v][n] = negativity_volume(w) - delta
            distances[2 * v + 1][n] = np.max(np.abs(w.values - reference.values))
    assert tuple(n_star(d, 0.0) for d in distances) == N_STAR_WIGNER[g]


@pytest.mark.parametrize("g", [1.0, 2.0, 3.0, 5.0])
def test_mapped_qrm_at_a_small_cutoff_is_the_converged_qrma(g):
    # the direct QRMA needs n_max ~ 12 g; its map's QRM' is converged at 12
    _, _, s_qrma, e0_qrma = figures(g, REFERENCE_N_MAX)
    qrm, shift, _ = bogoliubov_map(ModelConfig(g=g, include_diamagnetic=True,
                                               n_max=MAPPED_N_MAX))
    ground = parity_ground_states(qrm, [qrm.g])
    assert truncation_report(ground, k_levels=1)[0] < TOL
    assert abs(entropy_sweep(qrm, [qrm.g]).s_qrm[0] - s_qrma) <= TOL
    assert abs(ground.levels[0, 0] + shift - e0_qrma) <= TOL
