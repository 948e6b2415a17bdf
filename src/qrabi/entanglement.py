"""Entanglement-entropy sweeps of the model's ground state.

The entropy is the von Neumann entropy of the reduced qubit state, in bits
(log base 2), so a maximally entangled qubit-cavity state has S = 1
exactly.  Parity makes that state diagonal, with the weights of the even
and of the odd chain states of the parity-block ground state as its two
eigenvalues, so no qubit (x) cavity density matrix is formed.
``entropy_sweep`` reads the ``GroundStates`` record of
``spectra.parity_ground_states``, which picks the ground state, and an
``EntropySweep`` keeps each variant's record, so the parity, doublet gap,
top-Fock population and truncation report of its points need no new solve.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, _coupling_grid, _g_over_omega_c
from .spectra import GroundStates, parity_ground_states

__all__ = ["EntropySweep", "entropy_sweep"]


def _entropy_bits(lam: np.ndarray) -> np.ndarray:
    """-sum lam log2 lam over the last axis, with 0 log 0 := 0, clamped at
    +0.0: weights a rounding step above 1 would otherwise give a tiny
    negative entropy, and a pure state -0.0."""
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    s = -(lam * logs).sum(axis=-1)
    return np.where(s > 0.0, s, 0.0)


@dataclass(frozen=True, eq=False)
class EntropySweep:
    """Ground-state qubit entropy (bits) of both model variants per
    coupling grid point, with the ``GroundStates`` record of each variant's
    solve.  ``g_grid`` holds each coupling divided by omega_c.  Sweeps
    compare and hash by identity."""

    g_grid: np.ndarray
    s_qrm: np.ndarray
    s_qrma: np.ndarray
    ground_qrm: GroundStates
    ground_qrma: GroundStates


def entropy_sweep(base: ModelConfig, g_grid) -> EntropySweep:
    """Entanglement entropy of the ground state for both model variants.

    ``base.include_diamagnetic`` is ignored: the table always contains one
    column per variant, computed from the same remaining parameters.
    ``g_grid`` holds couplings g in the same unit as ``base.omega_c``.  A g
    whose quotient overflows, or a grid either variant's ``parity_blocks``
    refuses, is a ``ValueError``, raised before either variant is solved.
    """
    grid = _coupling_grid(g_grid)
    variants = [dataclasses.replace(base, include_diamagnetic=dia) for dia in (False, True)]
    for variant in variants:  # both are checked before either is solved
        g_axis = _g_over_omega_c(variant, grid)
    columns = []
    for variant in variants:
        ground = parity_ground_states(variant, grid)
        psi = ground.psi
        # the qubit state is diagonal: weights of the even and odd chain states
        lam = np.stack([(psi[:, 0::2] ** 2).sum(axis=1), (psi[:, 1::2] ** 2).sum(axis=1)], 1)
        columns += [_entropy_bits(lam), ground]
    s_qrm, ground_qrm, s_qrma, ground_qrma = columns
    return EntropySweep(g_axis, s_qrm, s_qrma, ground_qrm, ground_qrma)

