import dataclasses

import numpy as np
import pytest
import scipy.linalg

import qrabi
from qrabi import ModelConfig, sweep_spectrum
from qrabi.model import parity_blocks
from oracles import build_full, parity_operator


def diamagnetic_term(cfg):
    """The QRMA matrix minus the QRM matrix of the same parameters."""
    on = build_full(dataclasses.replace(cfg, include_diamagnetic=True))
    return on - build_full(dataclasses.replace(cfg, include_diamagnetic=False))


def library_diamagnetic_term(cfg):
    """The QRMA parity blocks of ``parity_blocks`` at ``cfg.g`` minus the QRM
    blocks: D X @ X in each parity block."""
    on, off = (parity_blocks(dataclasses.replace(cfg, include_diamagnetic=dia), [cfg.g])
               for dia in (True, False))
    return on - off


def rabi_4x4_closed_form(omega_c, omega_0, g):
    """Independent oracle for n_max = 2: the 4x4 matrix splits into two 2x2
    blocks, {|e,0>, |g,1>} and {|g,0>, |e,1>}, solved by the quadratic
    formula."""
    # block {e0, g1}: diag(omega_0/2, omega_c - omega_0/2), off-diagonal g
    tr_a = omega_c
    half_diff_a = (omega_0 - omega_c) / 2.0
    # block {g0, e1}: diag(-omega_0/2, omega_c + omega_0/2), off-diagonal g
    tr_b = omega_c
    half_diff_b = -(omega_0 + omega_c) / 2.0
    eig = [
        tr_a / 2.0 - np.sqrt(half_diff_a**2 + g**2),
        tr_a / 2.0 + np.sqrt(half_diff_a**2 + g**2),
        tr_b / 2.0 - np.sqrt(half_diff_b**2 + g**2),
        tr_b / 2.0 + np.sqrt(half_diff_b**2 + g**2),
    ]
    return np.sort(eig)


def test_decoupled_spectrum_n2():
    h = build_full(ModelConfig(g=0.0, n_max=2))
    vals = scipy.linalg.eigvalsh(h)
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 1.5], atol=1e-12)


@pytest.mark.parametrize("g", [0.25, 0.5, 1.0, 2.0])
def test_rabi_4x4_against_closed_form(g):
    h = build_full(ModelConfig(g=g, n_max=2))
    vals = scipy.linalg.eigvalsh(h)
    assert np.max(np.abs(vals - rabi_4x4_closed_form(1.0, 1.0, g))) <= 1e-12


def test_rabi_shape_and_hermiticity():
    h = build_full(ModelConfig(g=0.7, n_max=2))
    assert h.shape == (4, 4) and h.dtype == np.float64
    assert np.array_equal(h, h.T)


def test_diamagnetic_zero_coupling_is_zero_matrix():
    h = diamagnetic_term(ModelConfig(g=0.0, n_max=5))
    assert np.all(h == 0)


def test_diamagnetic_truncated_square_diagonal():
    # (a + a†)^2 at n_max = 3, by explicit 3x3 multiplication: the
    # untruncated diagonal 2n+1 = (1, 3, 5) loses the aa† contribution in
    # the top level, leaving (1, 3, 2)
    cfg = ModelConfig(g=1.0, n_max=3)
    h = diamagnetic_term(cfg)
    x = np.array([[0, 1, 0], [1, 0, np.sqrt(2)], [0, np.sqrt(2), 0]])
    # D = g^2 / omega_c = 1 in the library's blocks too
    assert np.max(np.abs(library_diamagnetic_term(cfg) - x @ x)) <= 1e-14
    expected = np.kron(np.eye(2), x @ x)
    assert np.max(np.abs(h - expected)) <= 1e-14
    assert np.allclose(np.diag(h), [1, 3, 2, 1, 3, 2], atol=1e-14)


def test_d_override_wins():
    cfg = ModelConfig(g=2.0, d_override=0.25, n_max=4)
    h = diamagnetic_term(cfg)
    base = diamagnetic_term(ModelConfig(g=0.5, n_max=4))  # D = 0.25
    assert np.max(np.abs(h - base)) <= 1e-14
    lib = library_diamagnetic_term(ModelConfig(g=0.5, n_max=4))
    assert np.max(np.abs(library_diamagnetic_term(cfg) - lib)) <= 1e-14


def test_full_without_flag_equals_rabi():
    cfg = ModelConfig(g=1.3, include_diamagnetic=False, n_max=6)
    # the Rabi matrix is the full model with D = 0; without the flag a
    # d_override has no effect
    rabi = build_full(dataclasses.replace(cfg, include_diamagnetic=True, d_override=0.0))
    assert np.array_equal(build_full(cfg), rabi)
    assert np.array_equal(build_full(dataclasses.replace(cfg, d_override=0.7)), rabi)


def test_full_g_zero_flag_irrelevant():
    on = build_full(ModelConfig(g=0.0, include_diamagnetic=True, n_max=5))
    off = build_full(ModelConfig(g=0.0, include_diamagnetic=False, n_max=5))
    assert np.array_equal(on, off)


def test_bogoliubov_ladder_spacing():
    # omega_0 = 0, g = 0, explicit D: pure field ladder with effective
    # frequency sqrt(omega_c (omega_c + 4 D)); every level is doubly
    # degenerate because the qubit decouples
    cfg = ModelConfig(
        omega_0=0.0, g=0.0, include_diamagnetic=True, d_override=0.25,
        n_max=80,
    )
    vals = scipy.linalg.eigvalsh(build_full(cfg))
    spacings = np.diff(vals[::2][:9])
    assert np.max(np.abs(spacings - np.sqrt(2.0))) <= 1e-8


def test_parity_n2():
    pi = parity_operator(2)
    assert pi.dtype == np.float64
    assert np.array_equal(pi, np.diag([1.0, -1.0, -1.0, 1.0]))


@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_parity_squares_to_identity(n):
    pi = parity_operator(n)
    assert np.max(np.abs(pi @ pi - np.eye(2 * n))) == 0.0
    assert np.array_equal(pi, pi.T)


def test_parity_commutes_with_both_models():
    rng = np.random.default_rng(42)
    for _ in range(20):
        cfg = ModelConfig(
            omega_0=float(rng.uniform(0, 2)),
            g=float(rng.uniform(0, 3)),
            include_diamagnetic=bool(rng.integers(2)),
            n_max=int(rng.integers(2, 20)),
        )
        h = build_full(cfg)
        pi = parity_operator(cfg.n_max)
        assert np.max(np.abs(h @ pi - pi @ h)) <= 1e-10


def test_spectrum_invariant_under_coupling_sign_flip():
    # sigma_z (x) I anticommutes with the coupling term and commutes with
    # everything else, so conjugating by it realizes g -> -g exactly
    cfg = ModelConfig(g=0.8, include_diamagnetic=True, n_max=10)
    n = cfg.n_max
    h = build_full(cfg)
    sz_full = np.kron(np.diag([1.0, -1.0]), np.eye(n))
    h_neg_g = sz_full @ h @ sz_full
    coupling = 0.8 * np.kron(
        np.array([[0, 1], [1, 0]]),
        np.diag(np.sqrt(np.arange(1, n)), 1) + np.diag(np.sqrt(np.arange(1, n)), -1),
    )
    assert np.max(np.abs(h_neg_g - (h - 2.0 * coupling))) <= 1e-12
    assert np.allclose(
        scipy.linalg.eigvalsh(h), scipy.linalg.eigvalsh(h_neg_g), atol=1e-10
    )


def test_decoupled_spectrum_any_nmax():
    for n in (2, 7, 15):
        cfg = ModelConfig(g=0.0, n_max=n)
        vals = scipy.linalg.eigvalsh(build_full(cfg))
        expected = np.sort(np.concatenate([np.arange(n) - 0.5, np.arange(n) + 0.5]))
        assert np.max(np.abs(vals - expected)) <= 1e-10


def test_build_full_sectors_equal_parity_blocks_exactly():
    # the dense matrix restricted to each parity sector is bit for bit the
    # parity block, so the blocks have an exact reference; its entries
    # outside the sectors are all zero
    rng = np.random.default_rng(20240)
    for k in range(304):
        cfg = ModelConfig(
            omega_c=float(rng.uniform(0.2, 3.0)),
            omega_0=float(rng.uniform(0.0, 2.0)),
            g=float(rng.uniform(0.0, 3.0)),
            include_diamagnetic=bool(rng.integers(2)),
            d_override=float(rng.uniform(0.0, 3.0)) if k // 38 % 2 else None,
            n_max=2 + k % 38,
        )
        n = np.arange(cfg.n_max)
        h = build_full(cfg)
        blocks = parity_blocks(cfg, [cfg.g])
        for i, parity in enumerate((-1, 1)):
            idx = (parity * (-1) ** n < 0) * n.size + n
            assert np.array_equal(h[np.ix_(idx, idx)], blocks[i, 0]), (cfg, parity)
        assert np.count_nonzero(h) == np.count_nonzero(blocks)


def test_parity_blocks_take_a_non_empty_1d_grid():
    # the sweeps' grid check: a scalar, a 2-D grid and an empty one are
    # refused, not indexed, broadcast or returned as an empty stack
    cfg = ModelConfig(n_max=3)
    for bad in (0.5, [[0.5, 1.0]], []):
        with pytest.raises(ValueError, match="g_grid must be a non-empty 1-D sequence"):
            parity_blocks(cfg, bad)
    assert parity_blocks(cfg, (0.5,)).shape == (2, 1, 3, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(omega_c=0.0)
    with pytest.raises(ValueError):
        ModelConfig(omega_0=-0.1)
    with pytest.raises(ValueError):
        ModelConfig(g=-1.0)
    with pytest.raises(ValueError):
        ModelConfig(d_override=-0.5)
    # a truthy string would build the A^2 model
    with pytest.raises(ValueError, match="include_diamagnetic"):
        ModelConfig(include_diamagnetic="off")
    assert sweep_spectrum(ModelConfig(include_diamagnetic=np.True_), [0.0], 1).model_tag == "QRMA"


@pytest.mark.parametrize("key", ["omega_c", "omega_0", "g", "d_override"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_values(key, value):
    with pytest.raises(ValueError, match=key):
        ModelConfig(**{key: value})


def test_truncation_needs_a_whole_number_of_at_least_two():
    for n_max in (1, 0, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="n_max"):
            ModelConfig(n_max=n_max)
        with pytest.raises(ValueError, match="n_max"):
            parity_operator(n_max)
    assert type(ModelConfig(n_max=4.0).n_max) is int
    assert ModelConfig(n_max=2).n_max == 2


def test_the_cutoff_is_a_config_field_only():
    # neither is there an alias of a helper that was inlined into its one caller
    for name in ("FockTruncation", "diamagnetic_constant", "model_tag"):
        assert not hasattr(qrabi, name)
        assert not hasattr(qrabi.model, name)
        assert name not in qrabi.model.__all__


def test_model_tag():
    cfg = ModelConfig(g=0.0, n_max=3)
    assert sweep_spectrum(cfg, [0.0], 1).model_tag == "QRM"
    qrma = dataclasses.replace(cfg, include_diamagnetic=True)
    assert sweep_spectrum(qrma, [0.0], 1).model_tag == "QRMA"
