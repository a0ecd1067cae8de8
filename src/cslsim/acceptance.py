"""Acceptance suite: end-to-end checks of the package's headline claims.

Each criterion is an independent runner that takes a thread count and
returns its verdict, ``(passed, detail)``, with a one-line quantitative
detail.  :data:`RUNNERS` lists them in their numbered order under their
printed names; the CLI ``verify`` subcommand numbers and times them, and
the test suite runs each as one test.  Statistical criteria use pinned
master seeds and 3-sigma (or wider) bands, so reruns and seed changes
keep a comfortable margin.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ensemble import DensityMatrix, lindblad_propagate, run_ensemble
from .errors import LowEffectiveSampleError
from .ledger import (balance_tolerance, build_ledger, conservation_check,
                     observable_drift)
from .postulate import (CONSERVING_RESIDUAL, VIOLATION_RESIDUAL, MomentumGrid,
                        build_window_state, collapse_residual, gaussian_state,
                        make_superposition, moment_divergence_scan,
                        tail_exponent)
from .scenarios import free_particle_grid, qubit_dephasing, random_dense, two_level_collapse
from .tolerances import QUADRATURE

# Pinned master seeds, one per statistical criterion.
SEED_BORN = 101
SEED_DECAY = 202
SEED_GRID_INTERACTION = 505
SEED_FIELD_ENERGY = 707
SEED_EQUIVALENCE = 1010


def _fit_slope(t: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(t, y, 1)[0])


@lru_cache(maxsize=2)
def _born_rule_stats(threads: int):
    scenario = two_level_collapse()
    return run_ensemble(scenario, 10_000, "cooked", SEED_BORN, threads=threads)


def criterion_born_rule(threads: int) -> tuple[bool, str]:
    """Collapse frequencies reproduce the squared initial weights."""
    stats = _born_rule_stats(threads)
    freq, _ = stats.frequency(1.0)
    band = 3.0 * math.sqrt(0.7 * 0.3 / stats.n_success)
    passed = abs(freq - 0.7) <= band
    detail = f"freq(+1)={freq:.5f}, target 0.70000 +- {band:.5f}"
    return passed, detail


def criterion_off_diagonal_decay(threads: int) -> tuple[bool, str]:
    """Coherence decays at rate (lam/2)(Delta a)^2, deterministically and in MC."""
    scenario = two_level_collapse(weight_upper=0.5, relative_phase=0.9,
                                  lam=1.0, t_end=5.0, steps=1024)
    rho0 = DensityMatrix.from_state(scenario.psi0)
    series = lindblad_propagate(rho0, scenario)
    rho12_0 = rho0.entries[0, 1]
    exact = rho12_0 * np.exp(-2.0 * series.times)
    got = series.rhos[:, 0, 1]
    rel = float(np.max(np.abs(got - exact) / np.abs(exact)))

    mc_scenario = two_level_collapse(weight_upper=0.5, relative_phase=0.9,
                                     lam=0.25, t_end=1.0, steps=400)
    stats = run_ensemble(mc_scenario, 10_000, "cooked", SEED_DECAY,
                         keep_final_states=True, threads=threads)
    states = stats.final_states
    outer = states[:, :, None] * states[:, None, :].conj()
    mc_rho = outer.mean(axis=0)
    dev = outer - mc_rho
    se = np.sqrt(np.mean(dev.real**2 + dev.imag**2, axis=0) / states.shape[0])
    decay = math.exp(-0.5 * mc_scenario.params.lam * 4.0 * mc_scenario.grid.t_end)
    c1, c2 = mc_scenario.psi0.amplitudes
    exact_rho = np.array([[abs(c1) ** 2, c1 * np.conj(c2) * decay],
                          [np.conj(c1) * c2 * decay, abs(c2) ** 2]])
    sigmas = np.abs(mc_rho - exact_rho) / se
    passed = rel <= 1e-8 and bool(np.all(sigmas <= 4.0))
    detail = f"deterministic rel err {rel:.2e} (<=1e-8), MC max dev {sigmas.max():.2f} SE (<=4)"
    return passed, detail


@lru_cache(maxsize=1)
def _random_scenario_pack():
    """Ledgers and drift data for 20 seeded random dense scenarios.

    Shared by the balance and drift criteria so the Lindblad series is
    integrated once per scenario.
    """
    pack = []
    for i in range(20):
        lam_rng = np.random.default_rng(9000 + i)
        lam = 0.1 + 0.9 * float(lam_rng.random())
        scenario = random_dense(3000 + i, dim=8, lam=lam, t_end=2.0, steps=2048)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        series = lindblad_propagate(rho0, scenario)
        ledger = build_ledger(scenario, series=series)
        deviation = conservation_check(ledger)

        energy = series.sys_energy
        formula = observable_drift(scenario.hamiltonian, scenario, series)
        h = series.times[1] - series.times[0]
        idx = np.arange(2, series.times.size - 2, 37)
        d_h = (energy[idx + 1] - energy[idx - 1]) / (2.0 * h)
        d_2h = (energy[idx + 2] - energy[idx - 2]) / (4.0 * h)
        fd = (4.0 * d_h - d_2h) / 3.0
        drift_rel = float(np.max(np.abs(fd - formula[idx])) / np.max(np.abs(formula)))
        pack.append({"tolerance": balance_tolerance(scenario),
                     "deviation": deviation,
                     "drift_rel": drift_rel})
    return pack


def criterion_ledger_balance(threads: int) -> tuple[bool, str]:
    """System plus field energy stays at its initial value."""
    pack = _random_scenario_pack()
    worst = max(item["deviation"] / item["tolerance"] for item in pack)
    passed = worst <= 1.0
    detail = f"20 random scenarios, worst deviation {worst:.3f} of the 1e-6*|H| budget"
    return passed, detail


def criterion_drift_law(threads: int) -> tuple[bool, str]:
    """d<H>/dt matches the double-commutator drift formula."""
    pack = _random_scenario_pack()
    worst = max(item["drift_rel"] for item in pack)
    passed = worst <= 1e-6
    detail = f"20 random scenarios, worst FD-vs-formula rel err {worst:.2e} (<=1e-6)"
    return passed, detail


def criterion_free_particle(threads: int) -> tuple[bool, str]:
    """Kinetic energy of a free packet heats at lam*hbar^2/2m."""
    scenario = free_particle_grid()
    ledger = build_ledger(scenario)
    p = scenario.params
    expected = p.lam * p.hbar**2 / (2.0 * scenario.grid_info.mass)
    slope = _fit_slope(ledger.times, ledger.system)
    field_final = float(ledger.field[-1])
    field_expected = -expected * scenario.grid.t_end
    slope_rel = abs(slope - expected) / expected
    field_rel = abs(field_final - field_expected) / abs(field_expected)
    passed = slope_rel <= 0.05 and field_rel <= 0.05
    detail = (f"slope {slope:.6f} vs {expected:.6f} ({100 * slope_rel:.2f}%), "
              f"field {field_final:.6f} vs {field_expected:.6f} ({100 * field_rel:.2f}%)")
    return passed, detail


def criterion_interaction_zero(threads: int) -> tuple[bool, str]:
    """The terminal coupling-field cross term averages to zero."""
    stats_a = _born_rule_stats(threads)
    za = abs(stats_a.interaction_mean) / stats_a.interaction_se
    grid_scenario = free_particle_grid()
    stats_b = run_ensemble(grid_scenario, 1_500, "cooked", SEED_GRID_INTERACTION,
                           threads=threads)
    zb = abs(stats_b.interaction_mean) / stats_b.interaction_se
    passed = za <= 3.0 and zb <= 3.0
    detail = f"two-level {za:.2f} sigma, free particle {zb:.2f} sigma (<=3)"
    return passed, detail


def criterion_field_energy(threads: int) -> tuple[bool, str]:
    """Per-trajectory field-energy estimator matches the quadrature value."""
    scenario = qubit_dephasing()
    p = scenario.params
    omega = 1.0
    target = omega * (1.0 - math.exp(-2.0 * p.lam * scenario.grid.t_end))
    stats = run_ensemble(scenario, 10_000, "raw", SEED_FIELD_ENERGY,
                         with_field_energy=True, threads=threads)
    z = abs(stats.field_energy_mean - target) / stats.field_energy_se
    ledger = build_ledger(scenario)
    quad_rel = abs(float(ledger.field[-1]) - target) / target
    passed = z <= 3.0 and quad_rel <= QUADRATURE
    detail = (f"estimator {stats.field_energy_mean:.5f} vs {target:.5f} "
              f"({z:.2f} sigma), quadrature rel err {quad_rel:.2e}")
    return passed, detail


def criterion_window_conservation(threads: int) -> tuple[bool, str]:
    """Disjoint momentum windows conserve both generating functions."""
    grid = MomentumGrid(4096, -8.0, 8.0)
    w1 = build_window_state(grid, -6.0, -2.0, 0)
    w2 = build_window_state(grid, 2.0, 6.0, 0)
    amp = 1.0 / math.sqrt(2.0)
    sup = make_superposition(amp, amp, w1, w2)
    b_values = np.linspace(0.05, 5.0, 100)
    a_values = np.linspace(0.05, 5.0, 100)
    worst_p = max(collapse_residual(sup, "momentum", b) for b in b_values)
    worst_e = max(collapse_residual(sup, "energy", a, mass=1.0) for a in a_values)

    g1 = gaussian_state(grid, 1.0, x0=-5.0)
    g2 = gaussian_state(grid, 1.0, x0=5.0)
    sup_g = make_superposition(amp, amp, g1, g2)
    gauss_peak = max(collapse_residual(sup_g, "momentum", b)
                     for b in np.linspace(0.5, 15.0, 100))
    passed = (worst_p <= CONSERVING_RESIDUAL and worst_e <= CONSERVING_RESIDUAL
              and gauss_peak >= VIOLATION_RESIDUAL)
    detail = (f"windows: P {worst_p:.1e}, E {worst_e:.1e} (<=1e-10); "
              f"gaussians: peak {gauss_peak:.3f} (>=1e-4)")
    return passed, detail


def criterion_tail_asymptotics(threads: int) -> tuple[bool, str]:
    """Window-edge zeros set the position tail and moment convergence."""
    grid = MomentumGrid(4096, -8.0, 8.0)
    exponent = tail_exponent(build_window_state(grid, -3.0, 3.0, 0))

    def builder(n):
        return lambda g: build_window_state(g, -3.0, 3.0, n)

    scan0 = moment_divergence_scan(builder(0), 2, grid, doublings=4)
    scan3 = moment_divergence_scan(builder(3), 2, grid, doublings=4)
    passed = (abs(exponent - 1.0) <= 0.1 and scan0.verdict == "divergent"
              and scan3.verdict == "convergent")
    detail = (f"tail exponent {exponent:.3f} (1.0 +- 0.1), "
              f"<x^2> scans: n=0 {scan0.verdict}, n=3 {scan3.verdict}")
    return passed, detail


def criterion_sampler_equivalence(threads: int) -> tuple[bool, str]:
    """Raw reweighting and cooked sampling give the same statistics.

    The literal collapse endpoint of the frequency scenario is too deep
    for raw sampling (the effective sample size collapses to below one
    path in ten thousand), and the runner asserts that refusal; the
    statistical comparison runs at a fifth of that horizon, where both
    modes are healthy.
    """
    scenario = two_level_collapse(t_end=0.5, steps=100)
    cooked = run_ensemble(scenario, 10_000, "cooked", SEED_EQUIVALENCE,
                          threads=threads)
    raw = run_ensemble(scenario, 10_000, "raw", SEED_EQUIVALENCE + 1,
                       threads=threads)
    f_c, se_c = cooked.frequency(1.0)
    f_r, se_r = raw.frequency(1.0)
    z_freq = abs(f_r - f_c) / math.sqrt(se_c**2 + se_r**2)
    z_weight = abs(raw.mean_weight - 1.0) / raw.mean_weight_se

    deep = two_level_collapse()
    try:
        run_ensemble(deep, 200, "raw", SEED_EQUIVALENCE + 2, threads=threads)
        refused = False
    except LowEffectiveSampleError:
        refused = True
    passed = z_freq <= 3.0 and z_weight <= 3.0 and refused
    detail = (f"freq raw {f_r:.4f} vs cooked {f_c:.4f} ({z_freq:.2f} sigma), "
              f"E[weight]-1 at {z_weight:.2f} sigma, deep-horizon raw refused: {refused}")
    return passed, detail


# The criteria in their numbered order, each under its printed name.
RUNNERS = [
    ("born_rule_frequency", criterion_born_rule),
    ("off_diagonal_decay", criterion_off_diagonal_decay),
    ("energy_ledger_balance", criterion_ledger_balance),
    ("drift_law", criterion_drift_law),
    ("free_particle_heating", criterion_free_particle),
    ("interaction_mean_zero", criterion_interaction_zero),
    ("field_energy_estimator", criterion_field_energy),
    ("joint_conservation_windows", criterion_window_conservation),
    ("window_tail_asymptotics", criterion_tail_asymptotics),
    ("sampler_equivalence", criterion_sampler_equivalence),
]
