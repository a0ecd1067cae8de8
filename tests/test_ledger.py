"""Energy-ledger tests: conservation, closed forms, and failure modes.

The system and field entries come from independent formulas (a trace
and a quadrature); their sum staying constant is the headline check,
exercised here on closed-form scenarios and random dense ones.
"""

import numpy as np
import pytest
from oracles import rotating_expectation

from cslsim.ensemble import DensityMatrix, lindblad_propagate, run_ensemble
from cslsim.errors import NumericalFailure
from cslsim.hilbert import (HermitianOperator, double_commutator,
                            interaction_picture)
from cslsim.ledger import (build_ledger, conservation_check,
                           field_energy_quadrature, observable_drift)
from cslsim.scenarios import (free_particle_grid, qubit_dephasing,
                              random_dense, random_hermitian,
                              two_level_collapse)
from cslsim.tolerances import QUADRATURE


def hamiltonian_norm(scenario):
    return float(np.abs(scenario.hamiltonian.spectrum().eigenvalues).max())


class TestConservation:
    @pytest.mark.parametrize("dim,seed", [(4, 210), (6, 211)])
    def test_random_dense_scenarios_balance(self, dim, seed):
        scenario = random_dense(seed, dim=dim, lam=0.3, t_end=2.0, steps=1024)
        ledger = build_ledger(scenario)
        budget = QUADRATURE * hamiltonian_norm(scenario)
        assert conservation_check(ledger) <= budget

    def test_total_is_the_sum_of_the_columns(self):
        ledger = build_ledger(qubit_dephasing(t_end=1.0, steps=128))
        np.testing.assert_array_equal(
            ledger.total, ledger.system + ledger.field + ledger.interaction)


class TestClosedForms:
    def test_qubit_system_and_field_series(self):
        scenario = qubit_dephasing()  # omega = 1, lam = 0.2, T = 2
        ledger = build_ledger(scenario)
        lam = scenario.params.lam
        sys_exact = np.exp(-2.0 * lam * ledger.times)
        field_exact = 1.0 - np.exp(-2.0 * lam * ledger.times)
        assert np.abs(ledger.system - sys_exact).max() <= 1e-10
        assert np.abs(ledger.field - field_exact).max() <= QUADRATURE
        np.testing.assert_array_equal(ledger.interaction, 0.0)
        assert conservation_check(ledger) <= QUADRATURE

    def test_zero_rate_keeps_every_column_constant(self):
        ledger = build_ledger(qubit_dephasing(lam=0.0, t_end=2.0, steps=256))
        assert np.abs(ledger.system - ledger.system[0]).max() <= 1e-9
        np.testing.assert_array_equal(ledger.field, 0.0)
        np.testing.assert_array_equal(ledger.interaction, 0.0)

    def test_zero_hamiltonian_ledger_is_identically_zero(self):
        ledger = build_ledger(two_level_collapse(t_end=1.0, steps=128))
        np.testing.assert_array_equal(ledger.system, 0.0)
        np.testing.assert_array_equal(ledger.field, 0.0)


def test_drift_formula_differentiates_the_rotating_expectation():
    """Richardson finite differences of Tr(q rho_I) against the
    double-commutator drift rate, on a random scenario and observable."""
    scenario = random_dense(210, dim=4, lam=0.3, t_end=2.0, steps=1024)
    series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                scenario)
    q = random_hermitian(np.random.default_rng(4242), 4)
    drift = observable_drift(q, scenario, series)
    rot = rotating_expectation(q, scenario, series)
    h = series.times[1] - series.times[0]
    idx = np.arange(2, series.times.size - 2, 53)
    d_h = (rot[idx + 1] - rot[idx - 1]) / (2.0 * h)
    d_2h = (rot[idx + 2] - rot[idx - 2]) / (4.0 * h)
    fd = (4.0 * d_h - d_2h) / 3.0
    rel = np.max(np.abs(fd - drift[idx])) / np.max(np.abs(drift))
    assert rel <= 1e-9


def test_drift_matches_the_interaction_picture_loop():
    """The eigenbasis contraction against a loop that rotates q by
    interaction_picture and forms the double commutator at every time."""
    scenario = random_dense(3001, dim=8, lam=0.6, t_end=2.0, steps=256)
    series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                scenario)
    lam, hbar = scenario.params.lam, scenario.params.hbar
    for q in (scenario.hamiltonian,
              random_hermitian(np.random.default_rng(31), 8)):
        loop = np.empty(series.times.size)
        for i, t in enumerate(series.times):
            q_rot = interaction_picture(q, scenario.hamiltonian, -t / hbar)
            d = double_commutator(scenario.collapse_op, q_rot)
            loop[i] = -0.5 * lam * float(np.einsum("ij,ji->", series.rhos[i],
                                                   d.matrix).real)
        got = observable_drift(q, scenario, series)
        assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()


def test_free_particle_grid_heats_at_the_predicted_rate():
    scenario = free_particle_grid(n_points=256, dx=0.5, sigma0=4.0,
                                  lam=0.01, t_end=2.0, steps=64)
    ledger = build_ledger(scenario)
    expected = scenario.params.lam * scenario.params.hbar**2 / 2.0
    slope = float(np.polyfit(ledger.times, ledger.system, 1)[0])
    assert slope == pytest.approx(expected, rel=0.01)
    h_norm = float(scenario.grid_info.kinetic_energies(1.0).max())
    assert conservation_check(ledger) <= QUADRATURE * h_norm


def test_quadrature_decimation_guard_trips_on_a_coarse_series():
    scenario = qubit_dephasing(lam=0.2, t_end=2.0, steps=8)
    rho0 = DensityMatrix.from_state(scenario.psi0)
    # 8 steps give a 17-point series: exact per point, but far too coarse
    # for the trapezoid target.
    series = lindblad_propagate(rho0, scenario, steps=8)
    assert series.times.size == 17
    with pytest.raises(NumericalFailure, match="not converged"):
        field_energy_quadrature(scenario, series)


def test_interaction_check_reports_the_ensemble_estimate():
    stats = run_ensemble(two_level_collapse(t_end=0.5, steps=50),
                         400, "cooked", 61)
    assert abs(stats.interaction_mean) <= 5.0 * stats.interaction_se


def test_observable_drift_needs_dense_series():
    scenario = free_particle_grid(n_points=256, dx=0.5, lam=0.01,
                                  t_end=1.0, steps=32)
    series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                scenario)
    q = HermitianOperator(np.diag(scenario.grid_info.positions))
    with pytest.raises(ValueError, match="dense"):
        observable_drift(q, scenario, series)
