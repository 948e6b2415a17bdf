"""The operator factors of ``oracles.build_full``, the dense reference
Hamiltonian: the truncated ladder a, a† inside its coupling block
X = a + a†, the exact number diagonal, and the Fock truncation itself."""

import numpy as np
import pytest

from qrabi import ModelConfig
from oracles import build_full


def field(n):
    """X = a + a† as built into ``build_full``: with g = 1 the qubit
    off-diagonal block holds exactly g X, since every other term is
    block-diagonal in the qubit."""
    h = build_full(ModelConfig(g=1.0, n_max=n))
    return h[:n, n:]


def annihilation(n):
    return np.triu(field(n))


def creation(n):
    return np.tril(field(n))


def test_annihilation_2x2():
    assert np.array_equal(annihilation(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_annihilation_3x3_superdiagonal():
    a = annihilation(3)
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))
    off = a.copy()
    off[0, 1] = off[1, 2] = 0
    assert np.all(off == 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_number_operator_diagonal(n):
    # omega_c = 1, omega_0 = 0, g = 0 leaves only I (x) N
    h = build_full(ModelConfig(omega_0=0.0, g=0.0, n_max=n))
    nop = np.diag(np.arange(n, dtype=float))
    assert np.array_equal(h, np.kron(np.eye(2), nop))


def test_creation_2x2():
    assert np.array_equal(creation(2), np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("n", range(2, 11))
def test_creation_is_adjoint_of_annihilation(n):
    assert np.array_equal(creation(n), annihilation(n).T)


@pytest.mark.parametrize("n", range(2, 7))
def test_truncated_commutator(n):
    # [a, a†] = I - n_max |n_max-1><n_max-1| in the truncated space:
    # a a† has diagonal (1, ..., n-1, 0), a†a has (0, ..., n-1)
    a, c = annihilation(n), creation(n)
    comm = a @ c - c @ a
    expected = np.eye(n)
    expected[n - 1, n - 1] = 1.0 - n
    assert np.max(np.abs(comm - expected)) <= 1e-13


def test_rejects_degenerate_truncation():
    with pytest.raises(ValueError):
        ModelConfig(n_max=1)
    with pytest.raises(ValueError):
        ModelConfig(n_max=0)
