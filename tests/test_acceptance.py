"""End-to-end acceptance checks, one test per criterion, each printing a
pass/fail line (run with ``pytest -v -s`` to see every line).

Each threshold is checked at a (g, n_max) point that the truncated model
can represent.  Criterion 6 places the n_max = 2 doublet threshold where
the closed-form gap sqrt(1 + g^2) - g puts it.  Criteria 10 and 11 first
assert that the cavity basis is converged at their point (ground-state
parity, top-Fock population, level shift under basis doubling), so that a
truncation artifact fails a guard rather than deciding the physics check.
"""

import json
import time

import numpy as np
import pytest

from qrabi import (
    ModelConfig,
    QuadratureGrid,
    entropy_sweep,
    find_avoided_crossings,
    ground_state_wigner,
    marginal_variance,
    sweep_spectrum,
    truncation_report,
    wigner,
    wigner_normalization,
)
from qrabi.cli import EXIT_OK, main as cli_main
from qrabi.spectra import parity_ground_states
from oracles import (
    PureState,
    build_full,
    expectation,
    ground_state,
    parity_operator,
    partial_trace,
    von_neumann_entropy,
    wigner_characteristic,
)

GRID_201 = np.linspace(0.0, 3.0, 201)
WIGNER_GRID = QuadratureGrid(-6, 6, -6, 6, 201, 201)  # row/column 100 is p/q = 0

# the doublet gap sqrt(1+g^2) - g at n_max = 2 equals DOUBLET_GAP_MAX at
# g = (1 - DOUBLET_GAP_MAX^2) / (2 DOUBLET_GAP_MAX) = 9.975
DOUBLET_GAP_MAX = 0.05
G_DOUBLET_BELOW = (1.0 - DOUBLET_GAP_MAX**2) / (2.0 * DOUBLET_GAP_MAX)
# a basis whose top Fock state holds more than this is not converged
TOP_FOCK_MAX = 1e-4

# regression snapshots generated once from this implementation and frozen
GAP_AT_G3_NMAX2 = 0.16227766016837952  # equals sqrt(10) - 3 exactly
ENTROPY_SNAPSHOT = {
    # (n_max, grid index): (S_qrm, S_qrma); grid indices on GRID_201
    (2, 50): (0.4689955935892806, 0.4689955935892807),
    (2, 100): (0.7649767124295428, 0.7649767124295429),
    (2, 150): (0.8775066703076293, 0.8775066703076293),
    (2, 200): (0.9266121639254161, 0.9266121639254161),
    (15, 50): (0.624703882289033, 0.24144685368525062),
    (15, 100): (0.9855318547660459, 0.24343968707527405),
    (15, 150): (0.9980277415316962, 0.20173656056420985),
    (15, 200): (0.9993262768526592, 0.14263466051217089),
}


def _cavity_ground_state(cfg):
    """Ground-state parity <Pi>, qubit <sigma_z> and reduced cavity state."""
    state = ground_state(cfg)
    n = cfg.n_max
    parity = expectation(parity_operator(cfg.n_max), state).real
    sigma_z = expectation(np.kron(np.diag([1.0, -1.0]), np.eye(n)), state).real
    return parity, sigma_z, partial_trace(state.to_density(), keep="cavity")


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {desc}{suffix}")


def test_criterion_01_decoupled_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 15, 40):
        cfg = ModelConfig(g=0.0, n_max=n)
        vals = np.linalg.eigvalsh(build_full(cfg))
        expected = np.sort(np.concatenate([np.arange(n) - 0.5, np.arange(n) + 0.5]))
        worst = max(worst, float(np.max(np.abs(vals - expected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "decoupled spectrum {n +/- 1/2} at g=0", ok,
           f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def _char_poly_roots_4x4(omega_c, omega_0, g):
    """Independent oracle: Faddeev-LeVerrier characteristic polynomial of
    the explicit 4x4 matrix, solved with the companion-matrix root finder."""
    h = np.array(
        [
            [omega_0 / 2.0, 0.0, 0.0, g],
            [0.0, omega_c + omega_0 / 2.0, g, 0.0],
            [0.0, g, -omega_0 / 2.0, 0.0],
            [g, 0.0, 0.0, omega_c - omega_0 / 2.0],
        ]
    )
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, 5):
        m = h @ m + coeffs[-1] * np.eye(4)
        coeffs.append(float(-np.trace(h @ m) / k))
    return np.sort(np.roots(coeffs).real)


def test_criterion_02_4x4_characteristic_polynomial_oracle():
    worst = 0.0
    for g in (0.25, 0.5, 1.0):
        cfg = ModelConfig(g=g, n_max=2)
        vals = np.linalg.eigvalsh(build_full(cfg))
        oracle = _char_poly_roots_4x4(1.0, 1.0, g)
        closed = np.sort(
            [0.5 - g, 0.5 + g, 0.5 - np.sqrt(1 + g * g), 0.5 + np.sqrt(1 + g * g)]
        )
        assert np.max(np.abs(oracle - closed)) <= 1e-9  # oracle self-check
        worst = max(worst, float(np.max(np.abs(vals - oracle))))
    ok = worst <= 1e-9
    report(2, "4x4 spectrum matches characteristic-polynomial roots", ok,
           f"max dev {worst:.2e}")
    assert ok


def test_criterion_03_parity_symmetry():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(50):
        cfg = ModelConfig(
            omega_0=float(rng.uniform(0.0, 2.0)),
            g=float(rng.uniform(0.0, 3.0)),
            include_diamagnetic=bool(rng.integers(2)),
            n_max=int(rng.integers(2, 21)),
        )
        h = build_full(cfg)
        pi = parity_operator(cfg.n_max)
        worst = max(worst, float(np.max(np.abs(h @ pi - pi @ h))))
    ok = worst <= 1e-10
    report(3, "parity commutes with both models over 50 random draws", ok,
           f"max commutator {worst:.2e}")
    assert ok


def test_criterion_04_bogoliubov_ladder():
    worst = 0.0
    for d in (0.1, 0.25, 1.0):
        cfg = ModelConfig(
            omega_0=0.0, g=0.0, include_diamagnetic=True, d_override=d,
            n_max=120,
        )
        vals = np.linalg.eigvalsh(build_full(cfg))
        spacings = np.diff(vals[::2][:11])  # qubit doubling: distinct levels
        worst = max(worst, float(np.max(np.abs(spacings - np.sqrt(1.0 + 4.0 * d)))))
    ok = worst <= 1e-6
    report(4, "quadratic-field ladder spacing sqrt(w(w+4D))", ok,
           f"max dev {worst:.2e}")
    assert ok


def test_criterion_05_displaced_oscillator():
    worst_e, worst_n = 0.0, 0.0
    for g in (0.5, 1.0, 2.0):
        cfg = ModelConfig(omega_0=0.0, g=g, n_max=80)
        state = ground_state(cfg)
        e0 = parity_ground_states(cfg, np.array([g])).levels[0, 0]
        worst_e = max(worst_e, abs(e0 + g * g))
        n_op = np.kron(np.eye(2), np.diag(np.arange(cfg.n_max, dtype=float)))
        n_exp = expectation(n_op, state).real
        worst_n = max(worst_n, abs(n_exp - g * g) / (g * g))
    ok = worst_e <= 1e-6 and worst_n <= 0.01
    report(5, "displaced-oscillator ground energy and photon number", ok,
           f"energy dev {worst_e:.2e}, <n> rel dev {worst_n:.2e}")
    assert worst_e <= 1e-6
    assert worst_n <= 0.01


def test_criterion_06_doublet_formation_small_basis():
    # GRID_201 up to g = 3, then steps of 0.05 up to g = 10; 9.975 is not
    # a grid point, so g = 10 is the only point past G_DOUBLET_BELOW
    g_grid = np.concatenate([GRID_201, np.linspace(3.0, 10.0, 141)[1:]])
    sweep = sweep_spectrum(ModelConfig(n_max=2), g_grid, 2)
    gap = sweep.levels[:, 1] - sweep.levels[:, 0]
    # the exact 4x4 levels are 1/2 -+ g and 1/2 -+ sqrt(1+g^2) (criterion 2),
    # so the lowest pair is split by sqrt(1+g^2) - g
    closed_dev = float(np.max(np.abs(gap - (np.sqrt(1.0 + g_grid**2) - g_grid))))
    past_one = gap[g_grid > 1.0]
    decreasing = bool(np.all(np.diff(past_one) < 0.0))
    gap_3 = float(gap[len(GRID_201) - 1])
    pinned = abs(gap_3 - GAP_AT_G3_NMAX2) <= 1e-9
    gap_10 = float(gap[-1])
    below_at_10 = gap_10 < DOUBLET_GAP_MAX
    above_before = bool(np.all(gap[g_grid < G_DOUBLET_BELOW] >= DOUBLET_GAP_MAX))
    report(
        6,
        f"n_max=2 doublet gap: sqrt(1+g^2)-g, decreasing past g=1, "
        f"below {DOUBLET_GAP_MAX} from g={G_DOUBLET_BELOW:g}",
        closed_dev <= 1e-9 and decreasing and pinned and below_at_10 and above_before,
        f"closed-form dev {closed_dev:.2e}, gap(3) = {gap_3:.12g}, "
        f"gap(10) = {gap_10:.6f}",
    )
    assert closed_dev <= 1e-9
    assert decreasing
    assert pinned
    assert below_at_10, f"gap at g=10 is {gap_10:.6f}, not below {DOUBLET_GAP_MAX}"
    assert above_before, (
        f"gap falls below {DOUBLET_GAP_MAX} before g = {G_DOUBLET_BELOW:g}"
    )


def test_criterion_07_avoided_crossings_positive_gaps():
    sweep = sweep_spectrum(
        ModelConfig(n_max=15), np.linspace(0.0, 2.0, 201), 8
    )
    refined, boundary = [], []
    for k in range(7):
        rep = find_avoided_crossings(sweep, (k, k + 1))
        (boundary if rep.at_boundary else refined).append(rep)
    ok = len(refined) > 0 and all(r.min_gap > 1e-6 for r in refined)
    detail = ", ".join(
        f"({r.level_pair[0]},{r.level_pair[1]}) {r.min_gap:.2e}@g={r.g_at_min:.3f}"
        for r in refined
    )
    report(7, "refined interior gap minima all exceed 1e-6", ok, detail)
    for r in boundary:
        # endpoint minima are not avoided crossings (several are the exact
        # degeneracies of the decoupled g=0 spectrum); report only
        print(
            f"          boundary minimum ({r.level_pair[0]},{r.level_pair[1]}): "
            f"gap {r.min_gap:.2e} at g = {r.g_at_min:g}"
        )
    assert ok


def test_criterion_08_diamagnetic_shift():
    qrm = sweep_spectrum(ModelConfig(n_max=15), GRID_201, 8)
    qrma = sweep_spectrum(
        ModelConfig(include_diamagnetic=True, n_max=15), GRID_201, 8
    )
    positive_g = GRID_201 > 0.0
    shift = qrma.levels[positive_g] - qrm.levels[positive_g]
    ok = bool(np.all(shift >= -1e-10))
    report(8, "diamagnetic term raises every level pointwise", ok,
           f"min shift {float(shift.min()):.2e}")
    assert ok
    assert np.allclose(qrm.levels[0], qrma.levels[0], atol=1e-12)


def test_criterion_09_vacuum_wigner():
    start = time.perf_counter()
    cfg = ModelConfig(g=0.0, n_max=15)
    w = ground_state_wigner(cfg, QuadratureGrid(-5, 5, -5, 5, 201, 201))
    center_dev = abs(w.values[100, 100] - 1.0 / np.pi)
    norm_dev = abs(wigner_normalization(w) - 1.0)
    elapsed = time.perf_counter() - start
    ok = center_dev <= 1e-8 and norm_dev <= 1e-4 and elapsed < 5.0
    report(9, "vacuum Wigner peak 1/pi and unit normalization", ok,
           f"center dev {center_dev:.2e}, norm dev {norm_dev:.2e}, {elapsed:.2f}s")
    assert center_dev <= 1e-8
    assert norm_dev <= 1e-4
    assert elapsed < 5.0


def test_criterion_10_cat_state_negativity():
    # At g = 3 a 15-state basis is not converged: its lowest state has
    # parity +1 (the converged ground state has -1) and 4.5e-3 in the top
    # Fock state.  g = 2 is converged at n_max = 15 (min W -0.014818
    # against -0.014812 at n_max = 30).
    cfg = ModelConfig(g=2.0, n_max=15)
    parity, sigma_z, rho_c = _cavity_ground_state(cfg)
    top_fock = float(rho_c.data[-1, -1].real)
    w = wigner(rho_c, WIGNER_GRID)
    p_zero_row = w.values[100]
    q = WIGNER_GRID.q_axis()
    half_step = 0.5 * (q[1] - q[0])
    maxima = [
        q[i]
        for i in range(1, 200)
        if p_zero_row[i] > p_zero_row[i - 1] and p_zero_row[i] > p_zero_row[i + 1]
    ]
    # the lobes are the two outermost maxima; W(0,0) = Pi <sigma_z> / pi is
    # positive for parity -1, so a third maximum may sit at q = 0
    two_lobes = (
        len(maxima) >= 2
        and maxima[0] < -1.0 < 1.0 < maxima[-1]
        and abs(maxima[0] + maxima[-1]) < 0.2
        and all(abs(m) < half_step for m in maxima[1:-1])
    )
    centre_dev = abs(float(w.values[100, 100]) - parity * sigma_z / np.pi)
    i_min, j_min = np.unravel_index(np.argmin(w.values), w.values.shape)
    min_w = float(w.values[i_min, j_min])
    negative_fringes = min_w < -0.01
    # independent characteristic-function quadrature at the grid minimum
    at_min = (float(q[j_min]), float(WIGNER_GRID.p_axis()[i_min]))
    oracle_min = float(wigner_characteristic(rho_c, [at_min])[0])
    lobe_text = ", ".join(f"{m:.2f}" for m in maxima)
    report(10, "cat state: lobes at +/-q* (q*>1) and fringe negativity",
           two_lobes and negative_fringes and oracle_min < -0.01,
           f"parity {parity:+.10f}, top-Fock {top_fock:.1e}, "
           f"maxima at [{lobe_text}], min W {min_w:.6f}, "
           f"characteristic {oracle_min:.6f}")
    assert abs(parity + 1.0) <= 1e-8, (
        f"ground-state parity {parity:+.10f}; the converged ground state has -1"
    )
    assert top_fock < TOP_FOCK_MAX, (
        f"top-Fock population {top_fock:.2e}: the basis is not converged"
    )
    assert centre_dev <= 1e-12
    assert two_lobes
    assert negative_fringes
    assert oracle_min < -0.01


def test_criterion_11_squeezed_state():
    # D = g^2 = 9 squeezes the cavity along q and stretches its Fock tail;
    # cutting that tail leaves negative truncation fringes that shrink as
    # the basis grows.  The squeeze is visible at n_max = 15; W >= 0 is
    # checked at n_max = 40, where the basis is converged.
    def point(nmax):
        return ModelConfig(g=3.0, include_diamagnetic=True, n_max=nmax)

    n_maxes = (15, 20, 30, 40)
    parity, top_fock, min_w, variances = {}, {}, {}, {}
    for nmax in n_maxes:
        parity[nmax], _, rho_c = _cavity_ground_state(point(nmax))
        top_fock[nmax] = float(rho_c.data[-1, -1].real)
        w = wigner(rho_c, WIGNER_GRID)
        min_w[nmax] = float(w.values.min())
        variances[nmax] = (marginal_variance(w, "q"), marginal_variance(w, "p"))
    squeezed = {nmax: v[0] < 0.5 < v[1] for nmax, v in variances.items()}
    fringes_at_15 = min_w[15] < -1e-4
    fringes_shrink = bool(np.all(np.diff([-min_w[nmax] for nmax in n_maxes]) < 0.0))
    shift_40 = float(truncation_report(parity_ground_states(point(40), [3.0]), 1)[0])
    nonnegative = min_w[40] > -1e-4
    depth_text = ", ".join(f"{nmax}: {min_w[nmax]:.1e}" for nmax in n_maxes)
    report(11, "squeezed state: Var(q) < 1/2 < Var(p), no negativity once converged",
           squeezed[15] and squeezed[40] and fringes_at_15 and fringes_shrink
           and shift_40 < 1e-4 and top_fock[40] < TOP_FOCK_MAX and nonnegative,
           f"n_max=15 Var(q) {variances[15][0]:.4f}, Var(p) {variances[15][1]:.4f}, "
           f"parity {parity[15]:+.10f}, top-Fock {top_fock[15]:.1e}; "
           f"n_max=40 parity {parity[40]:+.10f}, top-Fock {top_fock[40]:.1e}, "
           f"shift {shift_40:.1e}; "
           f"min W by n_max {{{depth_text}}}")
    assert squeezed[15]
    # the n_max = 15 cut is visible as negativity, and it recedes with n_max
    assert fringes_at_15, f"min W = {min_w[15]:.2e} at n_max=15"
    assert fringes_shrink, f"min W by n_max: {depth_text}"
    assert shift_40 < 1e-4, (
        f"ground energy moves by {shift_40:.2e} from n_max=40 to 80"
    )
    assert top_fock[40] < TOP_FOCK_MAX, (
        f"top-Fock population {top_fock[40]:.2e} at n_max=40"
    )
    assert squeezed[40]
    assert nonnegative, f"min W = {min_w[40]:.2e} at n_max=40"


def test_criterion_12_entropy_endpoints_and_snapshots():
    results = {}
    for nmax in (2, 15):
        results[nmax] = entropy_sweep(
            ModelConfig(n_max=nmax), GRID_201
        )
    es15, es2 = results[15], results[2]
    zero_start = (
        es15.s_qrm[0] <= 1e-10
        and es15.s_qrma[0] <= 1e-10
        and es2.s_qrm[0] <= 1e-10
        and es2.s_qrma[0] <= 1e-10
    )
    saturates = es15.s_qrm[-1] >= 0.95
    suppressed = es15.s_qrma[-1] < es15.s_qrm[-1]
    tail = es15.s_qrma[150:]
    decreasing_tail = bool(np.all(np.diff(tail) <= 1e-12))
    submaximal = es2.s_qrm.max() < 1.0 and es2.s_qrma.max() < 1.0
    snap_dev = 0.0
    for (nmax, idx), (s_qrm, s_qrma) in ENTROPY_SNAPSHOT.items():
        snap_dev = max(
            snap_dev,
            abs(float(results[nmax].s_qrm[idx]) - s_qrm),
            abs(float(results[nmax].s_qrma[idx]) - s_qrma),
        )
    ok = (
        zero_start and saturates and suppressed and decreasing_tail
        and submaximal and snap_dev <= 1e-9
    )
    report(
        12,
        "entropy: zero start, saturation, diamagnetic suppression, snapshots",
        ok,
        f"S_qrm(3)={es15.s_qrm[-1]:.4f}, S_qrma(3)={es15.s_qrma[-1]:.4f}, "
        f"max n2 S={es2.s_qrm.max():.4f}, snapshot dev {snap_dev:.2e}",
    )
    assert zero_start
    assert saturates
    assert suppressed
    assert decreasing_tail
    assert submaximal
    assert snap_dev <= 1e-9


def test_criterion_13_schmidt_duality():
    rng = np.random.default_rng(999)
    n = 8
    worst = 0.0
    for _ in range(100):
        amp = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        amp /= np.linalg.norm(amp)
        rho = PureState(amp, (2, n)).to_density()
        s_q = von_neumann_entropy(partial_trace(rho, "qubit"))
        s_c = von_neumann_entropy(partial_trace(rho, "cavity"))
        worst = max(worst, abs(s_q - s_c))
    ok = worst <= 1e-8
    report(13, "Schmidt duality over 100 random pure states", ok,
           f"max |S_q - S_c| {worst:.2e}")
    assert ok


def test_criterion_14_truncation_convergence():
    cfg = ModelConfig(g=1.0, n_max=40)
    shift = float(truncation_report(parity_ground_states(cfg, [cfg.g]), 4)[0])
    ok = shift < 1e-8
    report(14, "lowest levels stable under basis doubling 40 -> 80", ok,
           f"max shift {shift:.2e}")
    assert ok


def test_criterion_15_reproduce_preset_determinism(tmp_path):
    out = tmp_path / "bundle"
    args = ["reproduce-paper", "--out", str(out), "--format", "csv,json"]
    start = time.perf_counter()
    assert cli_main(list(args)) == EXIT_OK
    elapsed = time.perf_counter() - start
    first = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert cli_main(list(args)) == EXIT_OK
    second = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    identical = first == second
    names = set(first)
    expected_csvs = {"fig1a.csv", "fig1b.csv", "fig2a.csv", "fig2b.csv",
                     "fig6a.csv", "fig6b.csv", "fig7a.csv", "fig7b.csv",
                     "fig8a.csv", "fig8b.csv"}
    complete = expected_csvs <= names and "manifest.json" in names
    panels = {n for n in names if n.startswith(("fig4", "fig5")) and n.endswith(".csv")}
    ok = identical and complete and len(panels) == 24 and elapsed < 300.0
    report(15, "preset bundle is deterministic and complete", ok,
           f"{len(names)} files, {elapsed:.1f}s")
    assert identical
    assert complete
    assert len(panels) == 24
    assert elapsed < 300.0
    # spot check one artifact's documented schema
    doc = json.loads(first["fig8b.json"])
    assert doc["columns"] == ["g_over_wc", "S_qrm_bits", "S_qrma_bits"]
    assert doc["rows"][0] == [0.0, 0.0, 0.0]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
