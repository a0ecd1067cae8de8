"""The three benchmark workloads.

A workload's set-up builds its inputs from the seed: scenarios, their
propagation backends and input density matrices.  Oracles for the checks
are computed on first use, outside the set-up and the timing.  Set-up
returns a list of parts.  Each part is one operation: a group of public cslsim calls that
takes the thread count, plus the checks of their outputs and a digest of
every output bit.

cslsim is called through its module attributes (``ensemble.run_ensemble``
and so on) so that the traced run can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, List

import numpy as np
from cslsim import ensemble, ledger, postulate, propagation, scenarios

import checks

# mc_dense: two chunks of 4096 trajectories per ensemble (d <= 16).
DENSE_TRAJECTORIES = 8192
BORN_STEPS = 400
QUBIT_STEPS = 200
D8_STEPS = 128
# mc_grid: two chunks of 256 trajectories on the 1024-point grid, at the
# shipped step size (t_end / steps = 1/32) over a quarter of its horizon.
GRID_TRAJECTORIES = 512
GRID_STEPS = 64
GRID_T_END = 2.0
# deterministic: 512-point grid, so rho alone is 4 MiB.
LEDGER_SCENARIOS = 3
LEDGER_STEPS = 512
DET_GRID_POINTS = 512
DET_GRID_STEPS = 8
DET_GRID_T_END = 0.25
WINDOW_POINTS = 4096
SCAN_POINTS = 100


@dataclass
class Part:
    """One operation of a workload.

    ``scenario`` is what the call runs (a scenario, or a list of them),
    kept so that the benchmark's tests can build wrong targets.
    """

    name: str
    call: Callable[[int], object]
    verify: Callable[[object], List[checks.Check]]
    digest: Callable[[object], str]
    scenario: object = None


def _seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _build_backends(*scenario_list) -> None:
    """Construct each scenario's propagation backend once.

    ``run_ensemble`` builds its own backend inside the timed call; set-up
    builds it too, as a user validating a scenario would, so that work
    moved between backend construction and the ensemble shows in set-up.
    """
    for sc in scenario_list:
        propagation.make_backend(sc, sc.grid.dt)


# ------------------------------------------------------------------ mc_dense

def setup_mc_dense(seed: int) -> List[Part]:
    s_born, s_qubit, s_d8, s_scenario = _seeds(seed, 4)
    n = DENSE_TRAJECTORIES

    born = scenarios.two_level_collapse(weight_upper=0.7, t_end=2.0,
                                        steps=BORN_STEPS)
    qubit = scenarios.qubit_dephasing(omega=1.0, lam=0.2, t_end=2.0,
                                      steps=QUBIT_STEPS)
    d8 = scenarios.random_dense(s_scenario, dim=8, lam=0.3, t_end=2.0,
                                steps=D8_STEPS)

    _build_backends(born, qubit, d8)

    def verify_born(stats):
        return [checks.born_frequency(stats, 0.7, 1.0)]

    qubit_target = 1.0 * (1.0 - math.exp(-2.0 * 0.2 * 2.0))

    def verify_qubit(stats):
        return [checks.field_energy(stats, qubit_target),
                checks.mean_weight(stats)]

    @cache
    def rho_exact():
        psi = d8.psi0.amplitudes
        return checks.lindblad_expm(d8.hamiltonian.matrix, d8.collapse_op.matrix,
                                    d8.params.lam, d8.params.hbar,
                                    np.outer(psi, psi.conj()), d8.grid.t_end)

    def verify_d8(stats):
        return [checks.final_rho(stats, rho_exact())]

    return [
        Part("born_race",
             lambda t: ensemble.run_ensemble(born, n, "cooked", s_born, threads=t),
             verify_born, checks.stats_digest, born),
        Part("raw_qubit_field_energy",
             lambda t: ensemble.run_ensemble(qubit, n, "raw", s_qubit,
                                             with_field_energy=True, threads=t),
             verify_qubit, checks.stats_digest, qubit),
        Part("dense8_series",
             lambda t: ensemble.run_ensemble(d8, n, "cooked", s_d8,
                                             record_series=True,
                                             keep_final_states=True, threads=t),
             verify_d8, checks.stats_digest, d8),
    ]


# ------------------------------------------------------------------- mc_grid

def setup_mc_grid(seed: int) -> List[Part]:
    (s_grid,) = _seeds(seed, 1)
    grid = scenarios.free_particle_grid(t_end=GRID_T_END, steps=GRID_STEPS)
    _build_backends(grid)
    info, p = grid.grid_info, grid.params
    target = p.lam * p.hbar**2 * grid.grid.t_end / (2.0 * info.mass)
    @cache
    def e0():
        return float(checks.grid_kinetic_energies(
            grid.psi0.amplitudes[None, :], info.dx, info.mass, p.hbar)[0])

    def verify(stats):
        return [checks.interaction_mean(stats),
                checks.grid_heating(stats, e0(), info.dx, info.mass, p.hbar,
                                    target)]

    return [Part("grid_cooked_series",
                 lambda t: ensemble.run_ensemble(grid, GRID_TRAJECTORIES, "cooked",
                                                 s_grid, record_series=True,
                                                 keep_final_states=True, threads=t),
                 verify, checks.stats_digest, grid)]


# ------------------------------------------------------------- deterministic

def setup_deterministic(seed: int) -> List[Part]:
    rng = np.random.default_rng(seed)
    dense = []
    for s in _seeds(seed, LEDGER_SCENARIOS):
        lam = 0.1 + 0.9 * float(rng.random())
        sc = scenarios.random_dense(s, dim=8, lam=lam, t_end=2.0,
                                    steps=LEDGER_STEPS)
        dense.append((sc, ensemble.DensityMatrix.from_state(sc.psi0)))

    two = scenarios.two_level_collapse(weight_upper=0.5,
                                       relative_phase=float(rng.uniform(0.0, math.pi)),
                                       lam=1.0, t_end=5.0, steps=1024)
    two_rho0 = ensemble.DensityMatrix.from_state(two.psi0)

    grid = scenarios.free_particle_grid(
        n_points=DET_GRID_POINTS, t_end=DET_GRID_T_END, steps=DET_GRID_STEPS,
        x0=float(rng.uniform(-2.0, 2.0)), p0=float(rng.uniform(-0.5, 0.5)))
    grid_rho0 = ensemble.DensityMatrix.from_state(grid.psi0)

    mgrid = postulate.MomentumGrid(WINDOW_POINTS, -8.0, 8.0)
    lo, hi = rng.uniform(-0.5, 0.5, size=2)
    amp = 1.0 / math.sqrt(2.0)
    pair = postulate.make_superposition(
        amp, amp, postulate.build_window_state(mgrid, -6.0 + lo, -2.0 + lo, 0),
        postulate.build_window_state(mgrid, 2.0 + hi, 6.0 + hi, 0))
    edge = float(rng.uniform(2.5, 3.5))
    tail_state = postulate.build_window_state(mgrid, -edge, edge, 0)

    # --- dense RK4 + ledger + drift
    def run_dense(threads):
        out = []
        for sc, rho0 in dense:
            series = ensemble.lindblad_propagate(rho0, sc)
            led = ledger.build_ledger(sc, series=series)
            drift = ledger.observable_drift(sc.hamiltonian, sc, series)
            out.append((series, led, drift))
        return out

    @cache
    def oracles():
        return [checks.lindblad_expm(sc.hamiltonian.matrix, sc.collapse_op.matrix,
                                     sc.params.lam, sc.params.hbar, rho0.entries,
                                     sc.grid.t_end) for sc, rho0 in dense]

    def verify_dense(out):
        found = []
        for (sc, _), (series, led, drift), exact in zip(dense, out, oracles()):
            h_norm = float(np.abs(np.linalg.eigvalsh(sc.hamiltonian.matrix)).max())
            found += [checks.ledger_balance(led, h_norm),
                      checks.drift_law(led.system, drift, series.times),
                      checks.final_rho_exact(series.final_rho, exact)]
        return found

    def digest_dense(out):
        return checks.digest(*[a for series, led, drift in out
                               for a in (series.rhos, led.system, led.field, drift)])

    # --- two-level coherence
    def verify_two(series):
        rate = 0.5 * two.params.lam * 2.0**2
        return [checks.coherence_decay(series.times, series.rhos[:, 0, 1], rate)]

    # --- grid split-step density matrix and its ledger
    def run_grid(threads):
        series = ensemble.grid_lindblad_channels(grid_rho0, grid)
        return series, ledger.build_ledger(grid, series=series)

    heat = grid.params.lam * grid.params.hbar**2 / (2.0 * grid.grid_info.mass)

    def verify_grid(out):
        _, led = out
        return [checks.heating_slope(led.times, led.system, heat),
                checks.final_field_energy(float(led.field[-1]),
                                          -heat * grid.grid.t_end)]

    def digest_grid(out):
        series, led = out
        return checks.digest(series.final_rho, led.system, led.field)

    # --- momentum-window postulate scans
    def run_postulate(threads):
        shifts = np.linspace(0.05, 5.0, SCAN_POINTS)
        residuals = np.array(
            [postulate.collapse_residual(pair, "momentum", b) for b in shifts]
            + [postulate.collapse_residual(pair, "energy", a) for a in shifts])
        exponent = postulate.tail_exponent(tail_state)
        verdicts = tuple(postulate.moment_divergence_scan(
            lambda g, n=n: postulate.build_window_state(g, -edge, edge, n),
            2, mgrid, doublings=4).verdict for n in (0, 3))
        return residuals, exponent, verdicts

    def verify_postulate(out):
        residuals, exponent, verdicts = out
        return [checks.at_most("window_residuals", float(residuals.max()), 1e-10),
                checks.tail_exponent(exponent),
                checks.equal("moment_verdicts", verdicts,
                             ("divergent", "convergent"))]

    def digest_postulate(out):
        residuals, exponent, verdicts = out
        return checks.digest(residuals, exponent, verdicts)

    return [
        Part("dense_ledger_drift", run_dense, verify_dense, digest_dense,
             [sc for sc, _ in dense]),
        Part("two_level_coherence",
             lambda t: ensemble.lindblad_propagate(two_rho0, two),
             verify_two, lambda s: checks.digest(s.rhos), two),
        Part("grid_density_ledger", run_grid, verify_grid, digest_grid, grid),
        Part("window_scans", run_postulate, verify_postulate, digest_postulate),
    ]


SETUPS = {
    "mc_dense": setup_mc_dense,
    "mc_grid": setup_mc_grid,
    "deterministic": setup_deterministic,
}
