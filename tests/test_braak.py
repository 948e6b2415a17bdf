"""Parity-block levels against Braak's G-function, which gives the regular
QRM spectrum of each parity with no Fock cutoff (D. Braak, PRL 107, 100401
(2011)).  Through the Bogoliubov map of the A^2 term
(``model.bogoliubov_map``) the same function gives the QRMA levels.  The
model code shares nothing else with this oracle."""

import functools

import numpy as np
import pytest

from qrabi import ModelConfig
from qrabi.model import bogoliubov_map, parity_blocks

N_MAX = 120
LEVELS = 6
TOL = 1e-12


def braak_g(x, g, delta, parity):
    """Braak's G_P(x) for H = a†a + g sigma_x (a + a†) + delta sigma_z, with
    parity P = +1 for G_+ and -1 for G_-; the arguments broadcast, and x
    must avoid the poles x = 0, 1, 2, ...  With k_n = K_n(x) g^n,
    n K_n = f_(n-1) K_(n-1) - K_(n-2), K_0 = 1, reads
    n k_n = g f_(n-1) k_(n-1) - g^2 k_(n-2), where
    g f_n = 2 g^2 + (n - x + delta^2 / (x - n)) / 2, and
    G_P = sum_n k_n (1 - P delta / (x - n)); the sum stops once k_n, which
    falls about as 2^-n for n > 4 g^2 + x, is below 1e-18 of it."""
    k_prev, k = np.zeros_like(x), np.ones_like(x)
    plain, polar = k.copy(), k / x
    for n in range(1, 400):
        gf = 2 * g * g + 0.5 * (n - 1 - x + delta**2 / (x - n + 1))
        k_prev, k = k, (gf * k - g * g * k_prev) / n
        plain = plain + k
        polar = polar + k / (x - n)
        if n > np.max(x) and np.all(np.abs(k) <= 1e-18 * np.abs(plain)):
            break
    return plain - parity * delta * polar


def braak_levels(points, top=12):
    """The LEVELS lowest levels E = x - g^2 of each parity at each (g, delta)
    of ``points``, shape (len(points), 2, LEVELS), parity -1 first as in
    ``parity_blocks``: the zeros of G_P, bracketed on a grid inside each
    pole-free interval (n, n + 1) and found by bisection.  The grid is dense
    next to the poles, where a level may sit close by."""
    g, delta = np.array(points, dtype=float).T[:, :, None, None]
    parity = np.array([[-1.0], [1.0]])
    edge = np.geomspace(1e-9, 0.5, 60)
    cell = np.unique(np.concatenate([edge, np.linspace(0, 1, 201)[1:-1], 1 - edge]))
    x = (np.arange(-1.0, top)[:, None] + cell).ravel()  # E >= -g^2 - delta, delta < 1
    sign = np.sign(braak_g(x, g, delta, parity))
    change = (sign[..., :-1] != sign[..., 1:]) & (np.floor(x[:-1]) == np.floor(x[1:]))
    first = [np.flatnonzero(row)[:LEVELS] for row in change.reshape(-1, x.size - 1)]
    index = np.array(first).reshape(len(points), 2, LEVELS)
    lo, hi = x[index], x[index + 1]
    sign_lo = np.sign(braak_g(lo, g, delta, parity))
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        same = np.sign(braak_g(mid, g, delta, parity)) == sign_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi) - g * g


@functools.cache
def oracle(points):
    return dict(zip(points, braak_levels(points)))


def block_levels(cfg, g):
    """The LEVELS lowest levels of each parity block at coupling ``g``."""
    return np.linalg.eigvalsh(parity_blocks(cfg, [g]))[:, 0, :LEVELS]


SECTORS = [pytest.param(0, id="G-"), pytest.param(1, id="G+")]


# (g, omega_0) at omega_c = 1, away from the Juddian points, where a level
# sits on a pole; all points share one batched oracle evaluation
QRM_POINTS = tuple((g, omega_0) for g in (0.5, 1.0, 2.0) for omega_0 in (1.0, 0.83))


@pytest.mark.parametrize("sector", SECTORS)
@pytest.mark.parametrize("g, omega_0", QRM_POINTS)
def test_qrm_parity_levels_match_braak(g, omega_0, sector):
    cfg = ModelConfig(omega_0=omega_0, n_max=N_MAX)
    levels = block_levels(cfg, g)[sector]
    braak = oracle(tuple((g, w / 2.0) for g, w in QRM_POINTS))
    expected = braak[g, omega_0 / 2.0][sector]
    assert np.max(np.abs(levels - expected)) <= TOL


@pytest.mark.parametrize("sector", SECTORS)
def test_qrma_parity_levels_match_braak_through_the_map(sector):
    # the QRMA has the levels of the mapped QRM plus the shift, parity by
    # parity; in units of its frequency omega' that QRM is Braak's
    cfg = ModelConfig(g=1.0, include_diamagnetic=True, n_max=N_MAX)
    qrm, shift, _ = bogoliubov_map(cfg)
    omega = qrm.omega_c
    point = (qrm.g / omega, qrm.omega_0 / (2.0 * omega))
    expected = omega * oracle((point,))[point][sector] + shift
    levels = block_levels(cfg, cfg.g)[sector]
    assert np.max(np.abs(levels - expected)) <= TOL
