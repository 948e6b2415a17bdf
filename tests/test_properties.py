"""Properties of the Wigner grid's fold and of its table writers (their bytes
against the per-cell reference writers of ``test_output``), checked on
grids that hypothesis draws and shrinks (down to 2 x 2), of ``wigner``'s
choice between a mirrored quadrant and the full axes, checked on drawn
states and grids, of the Hamiltonian and its ground state (affinity,
Schmidt rank, definite parity), checked on drawn model parameters, and of
the state records, which reject drawn NaN and infinite entries."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

with warnings.catch_warnings():
    # hypothesis's pytest plugin imports this module to suggest a patch when
    # a property fails; where it imports libcst, libcst can raise a
    # DeprecationWarning, which the suite's filters make an error that aborts
    # the whole run instead of reporting the failure, so import it here
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from qrabi.entanglement import entropy_sweep  # noqa: E402
from qrabi.model import ModelConfig, parity_blocks  # noqa: E402
from qrabi.spectra import DEGENERACY_RTOL, parity_ground_states  # noqa: E402
from qrabi.output import wigner_table, write_csv, write_gnuplot, write_json  # noqa: E402
from qrabi.wigner import DensityMatrix, QuadratureGrid, WignerGrid, _clenshaw, wigner  # noqa: E402
from oracles import (  # noqa: E402
    PureState,
    build_full,
    expectation,
    ground_state,
    parity_operator,
    partial_trace,
    von_neumann_entropy,
)
from test_output import ref_csv, ref_dat, ref_json  # noqa: E402

# no example database: a run leaves no files behind
PROPERTY = settings(max_examples=150, deadline=None, database=None)

VALUES = st.floats(-0.3, 0.3)


@st.composite
def wigner_grids(draw):
    """A grid of 2-12 points a side over drawn bounds; its values are
    random or mirror-symmetric about both axes."""
    n_p, n_q = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    q_min, p_min = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    q_max = q_min + draw(st.floats(1e-3, 50))
    p_max = p_min + draw(st.floats(1e-3, 50))
    grid = QuadratureGrid(q_min, q_max, p_min, p_max, n_q, n_p)
    if not draw(st.booleans()):
        return WignerGrid(grid, draw(arrays(np.float64, (n_p, n_q), elements=VALUES)))
    # mirrored by flipping, not by the mirror index the fold uses
    quadrant = draw(arrays(np.float64, (n_p - n_p // 2, n_q - n_q // 2), elements=VALUES))
    right = np.hstack([quadrant[:, n_q % 2:][:, ::-1], quadrant])
    return WignerGrid(grid, np.vstack([right[n_p % 2:][::-1], right]))


@PROPERTY
@given(wigner_grids())
def test_fold_reproduces_the_values(w):
    quadrant, ip, iq = w.fold
    v = w.values
    assert np.array_equal(quadrant[np.ix_(ip, iq)], v)
    if np.array_equal(v, v[::-1]) and np.array_equal(v, v[:, ::-1]):
        assert quadrant.shape == ((v.shape[0] + 1) // 2, (v.shape[1] + 1) // 2)
    else:
        assert quadrant is v


def written_tables(w: WignerGrid) -> tuple[bytes, bytes, bytes]:
    """The bytes of the CSV, JSON and .dat files of ``w``'s table."""
    columns, rows = wigner_table(w)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_csv(out / "t.csv", columns, rows)
        write_json(out / "t.json", {}, columns, rows)
        write_gnuplot(out / "t.gp", rows)
        return tuple((out / name).read_bytes() for name in ("t.csv", "t.json", "t.dat"))


def parsed_tables(w: WignerGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q, p, w cells of the CSV, JSON and .dat files of ``w``'s table,
    parsed as floats, one row per table row."""
    csv, js, dat = (b.decode() for b in written_tables(w))
    csv = [line.split(",") for line in csv.splitlines()[1:]]
    dat = [line.split() for line in dat.splitlines() if line]
    return tuple(np.array(cells, dtype=float) for cells in (csv, json.loads(js)["rows"], dat))


@PROPERTY
@given(wigner_grids())
def test_csv_json_and_dat_bytes_equal_the_per_cell_reference(w):
    # every row's w cells come from the folded quadrant, gathered through
    # the mirror indices; the per-cell writers format each point on its own
    columns = ["q", "p", "w"]
    rows = [[qv, pv, w.values[i, j]] for i, pv in enumerate(w.grid.p_axis())
            for j, qv in enumerate(w.grid.q_axis())]
    assert written_tables(w) == (ref_csv(columns, rows).encode(),
                                 ref_json({}, columns, rows).encode(), ref_dat(w).encode())


@PROPERTY
@given(wigner_grids())
def test_csv_json_and_dat_cells_parse_to_the_same_floats(w):
    q, p = np.meshgrid(w.grid.q_axis(), w.grid.p_axis())
    exact = np.stack([q.ravel(), p.ravel(), w.values.ravel()], axis=1)
    csv, js, dat = parsed_tables(w)
    assert np.array_equal(csv, js) and np.array_equal(csv, dat)
    # %.12g moves a value by at most half a unit in its 12th digit
    assert np.all(np.abs(csv - exact) <= 5e-12 * np.abs(exact))


@st.composite
def cavity_states(draw):
    """``(kind, rho)``: a drawn cavity state of 1-8 Fock states, real and
    parity-commuting (``"parity"``), complex and parity-commuting or not,
    or real with entries at odd offsets from the diagonal (``"mixed"``)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["parity", "complex", "mixed"]))
    m = draw(arrays(np.float64, (n, n), elements=st.floats(-1, 1)))
    if kind == "complex":
        m = m + 1j * draw(arrays(np.float64, (n, n), elements=st.floats(-1, 1)))
    rho = m @ m.conj().T + np.eye(n)  # positive definite
    if kind == "parity" or kind == "complex" and draw(st.booleans()):
        rho[::2, 1::2] = rho[1::2, ::2] = 0.0
    assume(kind != "complex" or rho.imag.any())
    assume(kind != "mixed" or rho[::2, 1::2].any())
    return kind, DensityMatrix(rho / np.trace(rho).real, (n,))


@st.composite
def quadrature_grids(draw):
    """A grid of 2-12 points a side within [-6, 6]; each axis is symmetric
    about 0 or not, as drawn."""
    bounds = []
    for _ in "qp":
        hi = draw(st.floats(0.5, 6))
        bounds += [-hi if draw(st.booleans()) else draw(st.floats(-6, hi - 0.25)), hi]
    return QuadratureGrid(*bounds, draw(st.integers(2, 12)), draw(st.integers(2, 12)))


@PROPERTY
@given(cavity_states(), quadrature_grids())
def test_wigner_mirrors_exactly_the_real_parity_states_on_symmetric_grids(state, grid):
    kind, rho = state
    w, q, p = wigner(rho, grid), grid.q_axis(), grid.p_axis()
    if kind == "parity" and grid.q_min == -grid.q_max and grid.p_min == -grid.p_max:
        v, n_p, n_q = w.values, grid.n_p, grid.n_q
        assert np.array_equal(v, v[::-1]) and np.array_equal(v, v[:, ::-1])
        quadrant = _clenshaw(rho.data.real, q[n_q // 2:], p[n_p // 2:])
        assert np.array_equal(w.fold[0], quadrant)
        assert np.array_equal(v[n_p // 2:, n_q // 2:], quadrant)
    else:
        assert np.array_equal(w.values, _clenshaw(rho.data, q, p))


@PROPERTY
@given(st.floats(0.1, 3), st.floats(0, 2), st.integers(2, 20), st.floats(0, 5),
       st.floats(0, 25))
def test_parity_blocks_are_affine_in_g_and_d(omega_c, omega_0, n_max, g, d):
    def blocks(g, d):
        cfg = ModelConfig(omega_c, omega_0, include_diamagnetic=True, d_override=d,
                          n_max=n_max)
        return parity_blocks(cfg, [g])

    h0 = blocks(0.0, 0.0)
    affine = h0 + g * (blocks(1.0, 0.0) - h0) + d * (blocks(0.0, 1.0) - h0)
    h = blocks(g, d)
    assert np.max(np.abs(h - affine)) <= 1e-13 * np.max(np.abs(h))


@PROPERTY
@given(st.one_of(st.just(0.0), st.floats(0, 2)), st.floats(0, 5), st.integers(2, 20),
       st.booleans())
def test_ground_state_has_schmidt_rank_at_most_two(omega_0, g, n_max, dia):
    cfg = ModelConfig(omega_0=omega_0, g=g, include_diamagnetic=dia,
                      n_max=n_max)
    rho = ground_state(cfg).to_density()
    cavity = partial_trace(rho, "cavity")
    assert np.count_nonzero(np.linalg.eigvalsh(cavity.data) > 1e-12) <= 2
    s_cavity = von_neumann_entropy(cavity)
    assert abs(s_cavity - von_neumann_entropy(partial_trace(rho, "qubit"))) <= 1e-12
    sweep = entropy_sweep(cfg, [g])
    assert abs(s_cavity - (sweep.s_qrma if dia else sweep.s_qrm)[0]) <= 1e-12


@PROPERTY
@given(st.one_of(st.just(0.0), st.floats(0, 2)), st.floats(0, 5), st.integers(2, 20),
       st.booleans())
def test_ground_state_has_definite_parity(omega_0, g, n_max, dia):
    cfg = ModelConfig(omega_0=omega_0, g=g, include_diamagnetic=dia,
                      n_max=n_max)
    state = ground_state(cfg)
    ground = parity_ground_states(cfg, np.array([g]))
    energy, parity = ground.levels[0, 0], ground.parity[0]
    assert parity in (-1, 1)
    assert abs(expectation(parity_operator(cfg.n_max), state) - parity) <= 1e-12
    # the lowest level of each parity block, -1 then +1; the ground state
    # lies in parity +1's only where that block is lower and the point is
    # outside the quasi-degeneracy band, so a quasi-degenerate doublet, and
    # at omega_0 = 0, where the blocks are equal, the tie, go to parity -1
    lowest = np.linalg.eigvalsh(parity_blocks(cfg, [g]))[:, 0, 0]
    tol = 1e-12 * (1.0 + abs(energy))
    band = DEGENERACY_RTOL * (1.0 + abs(energy))
    assert abs(energy - lowest.min()) <= tol
    lead = lowest[0] - lowest[1]  # how far parity +1's block is below -1's
    assert lead > band - tol if parity == 1 else lead <= band + tol
    # the state's own <H> is its block's lowest level
    h = build_full(cfg)
    psi = state.amplitudes.real
    assert abs(psi @ h @ psi - lowest[(parity + 1) // 2]) <= 1e-12 * np.abs(h).max()
    if omega_0 == 0.0 or ground.quasi_degenerate[0]:
        assert parity == -1


@PROPERTY
@given(st.integers(1, 6), st.data())
def test_state_records_reject_non_finite_entries(n, data):
    # uniform states of n levels with 1-3 drawn entries set to NaN or an
    # infinity; a NaN compares false with every tolerance, so only the
    # finiteness check stops it
    bad = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    index = st.integers(0, n - 1)
    amp = np.full(n, n**-0.5, dtype=complex)
    rho = np.diag(np.full(n, 1.0 / n)).astype(complex)
    for _ in range(data.draw(st.integers(1, 3))):
        amp[data.draw(index)] = data.draw(bad)
        rho[data.draw(index), data.draw(index)] = data.draw(bad)
    with pytest.raises(ValueError, match="non-finite"):
        PureState(amp, (n,))
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(rho, (n,))
