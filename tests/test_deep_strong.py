"""Deep-strong closed forms of the QRM ground doublet, with omega_c = 1.

In parity sector P the chain block is H_P = a†a + g(a + a†) + P (w0/2) Pi,
with Pi = (-1)^(a†a).  With b = a + g it reads b†b - g^2 + P (w0/2) Pi, and
in the displaced Fock basis D(-g)|n>, where Pi D(-g) = D(g) Pi, the
perturbation has the real, symmetric and unitary matrix
M_mn = <m|D(2g) Pi|n>.  In powers of lambda = w0/2 the odd orders carry P
and the even ones do not, so the doublet gap E_+ - E_- is odd in w0:

    gap = w0 M_00 + 2 lambda^3 K + O(w0^5),
    K = sum_{m,n>=1} M_0m M_mn M_n0 / (m n) - M_00 sum_{n>=1} M_0n^2 / n^2.

With sum_{n>=1} x^n / (sqrt(n!) n) |n> = int_0^1 dt/t (e^(t x a†) - 1)|0>
and <0|e^(x a) D(beta) Pi e^(y a†)|0> = exp(-beta^2/2 + beta (x + y) - x y)
for real x, y and beta this is, with b = 4 g^2,

    gap = w0 exp(-2 g^2) (1 + w0^2 c2(g)),
    c2 = exp(-b)/4 int_0^1 int_0^1 ds dt / (s t)
         (e^(b (s + t - s t)) - e^(b s) - e^(b t) - e^(b s t) + 2)

(E. K. Irish, PRL 99, 173601 (2007) has the leading term).  The second
order does not split the doublet, but it moves both levels by
-lambda^2 sum_{n>=1} M_0n^2 / n = -lambda^2 E[1/N], with N Poisson of
mean b, so by Hellmann-Feynman the parity -1 ground state has
|<sigma_z>| = exp(-2 g^2) + w0 E[1/N] + O(w0^2 exp(-2 g^2), w0^3), and the
qubit entropy is the binary entropy of (1 + <sigma_z>)/2.  As
E[1/N] = (1 + 1/b + O(b^-2))/b, 1 - S tends to (w0/4g^2)^2/(2 ln 2) with a
relative correction 1/(2 g^2), and S -> 1 (J. Casanova et al., PRL 105,
263603 (2010)).

Each check runs where ``truncation_report`` finds the basis converged: the
two lowest levels move by at most SHIFT_MAX when n_max is doubled, and Fock
state n_max - 1 holds at most TOP_FOCK_MAX of the ground state."""

import math

import numpy as np

from qrabi import FockTruncation, ModelConfig, entropy_sweep, truncation_report
from qrabi.spectra import DEGENERACY_RTOL, parity_ground_states

SHIFT_MAX = 1e-12
TOP_FOCK_MAX = 1e-15


def assert_converged(cfg, grid):
    report = truncation_report(cfg, grid, k_levels=2)
    assert report.max_shift.max() <= SHIFT_MAX
    assert report.top_fock_population.max() <= TOP_FOCK_MAX


def gap_next_order(g):
    """c2(g) of the module docstring, by 60-point Gauss-Legendre in each of
    s and t; the integrand is smooth on the closed square."""
    x, w = np.polynomial.legendre.leggauss(60)
    s, t = np.meshgrid((x + 1) / 2, (x + 1) / 2, indexing="ij")
    b = 4 * g * g
    # each exponent shifted by -b, so that nothing overflows
    bracket = (np.exp(b * (s + t - s * t - 1)) - np.exp(b * (s - 1)) - np.exp(b * (t - 1))
               - np.exp(b * (s * t - 1)) + 2 * np.exp(-b))
    return float(np.sum(np.outer(w, w) / 4 * bracket / (s * t)) / 4)


def closed_form_gap(omega_0, g):
    return omega_0 * math.exp(-2 * g * g) * (1 + omega_0**2 * gap_next_order(g))


def test_doublet_gap_to_third_order_in_omega_0():
    # the remainder is fifth order in w0: relative to the gap, of order
    # lambda^4, the perturbation's norm over the level spacing to the
    # fourth; at these points it is at most 0.1 lambda^4
    grid = np.array([1.0, 1.5, 2.0, 2.5])
    for omega_0 in (0.1, 0.3, 1.0):
        cfg = ModelConfig(omega_0=omega_0, trunc=FockTruncation(120))
        assert_converged(cfg, grid)
        levels = parity_ground_states(cfg, grid).levels
        gap = levels[:, 1] - levels[:, 0]
        closed = np.array([closed_form_gap(omega_0, g) for g in grid])
        assert np.all(np.abs(gap / closed - 1) <= (omega_0 / 2) ** 4)
        # the leading term alone is off by about w0^2 c2, 2-7 % at w0 = 1
        if omega_0 == 1.0:
            assert np.all(gap / (omega_0 * np.exp(-2 * grid**2)) - 1 > 0.01)


def test_quasi_degeneracy_band_onset():
    # the flag is set where the gap falls below DEGENERACY_RTOL (1 + |E0|),
    # with E0 = -g^2 up to -lambda^2 E[1/N], which moves the onset by less
    # than 1e-4; the first flagged point of a 0.005 grid is the first one
    # past the closed-form onset
    step = 0.005
    grid = np.round(3.0 + step * np.arange(51), 3)
    for omega_0 in (0.1, 1.0):
        lo, hi = 2.0, 4.0
        for _ in range(50):
            mid = (lo + hi) / 2
            if closed_form_gap(omega_0, mid) < DEGENERACY_RTOL * (1 + mid * mid):
                hi = mid
            else:
                lo = mid
        cfg = ModelConfig(omega_0=omega_0, trunc=FockTruncation(200))
        assert_converged(cfg, grid[-1:])  # the widest state of the grid
        flagged = parity_ground_states(cfg, grid).quasi_degenerate
        assert not flagged[0] and flagged[-1]
        first = grid[np.argmax(flagged)]
        assert 0 < first - hi <= step
        assert flagged[grid > first].all()


def inverse_photon_mean(b):
    """E[1/N] over N >= 1, N Poisson of mean b."""
    n = np.arange(1, int(b + 40 * math.sqrt(b) + 50))
    log_pmf = n * math.log(b) - b - np.array([math.lgamma(k + 1) for k in n])
    return float(np.sum(np.exp(log_pmf) / n))


def test_entropy_deficit_in_the_deep_strong_limit():
    # the neglected terms of <sigma_z> are a fraction of order
    # (w0 / 4g^2)^2 of it, the squared ratio of the qubit term to the
    # 4 g^2 energy of the intermediate states; measured, 1 - S is within
    # 0.04 (w0 / 4g^2)^2 of the closed form
    grid = np.array([3.0, 5.0, 7.0, 10.0])
    for omega_0 in (0.5, 1.0):
        cfg = ModelConfig(omega_0=omega_0, trunc=FockTruncation(200))
        assert_converged(cfg, grid)
        deficit = 1 - entropy_sweep(cfg, grid).s_qrm
        x = np.array([math.exp(-2 * g * g) + omega_0 * inverse_photon_mean(4 * g * g)
                      for g in grid])
        closed = ((1 + x) * np.log1p(x) + (1 - x) * np.log1p(-x)) / (2 * math.log(2))
        leading = (omega_0 / (4 * grid**2)) ** 2
        assert np.all(np.abs(deficit / closed - 1) <= leading)
        # the leading term's ratio tends to 1 as 1 + 1/(2 g^2) + O(g^-4)
        ratio = deficit / (leading / (2 * math.log(2)))
        assert np.all(np.abs(ratio - 1 - 1 / (2 * grid**2)) <= 1 / grid**4)
