"""Ensemble statistics and the deterministic density-matrix evolution.

The stochastic and deterministic halves are tested against each other
and against closed forms: dephasing rates, fixed points, and the exact
unit mean of raw importance weights.
"""

import numpy as np
import pytest

from cslsim.ensemble import (DensityMatrix, ensemble_density_matrix,
                             lindblad_propagate, run_ensemble)
from cslsim.errors import LowEffectiveSampleError, NumericalFailure
from cslsim.hilbert import HermitianOperator
from cslsim.scenarios import (PAULI_X, free_particle_grid, qubit_dephasing,
                              random_dense, two_level_collapse)

# Deterministic series against analytic decay laws.
EXACT_SERIES = 1e-8
# Pinned-seed Monte Carlo results sit well inside these bands; the bands
# are sized at 3-4 standard errors so reruns with nearby seeds also pass.
SEED_RAW_WEIGHT = 321
SEED_RHO = 654


class TestDensityMatrix:
    def test_from_state_is_a_projector(self):
        rho = DensityMatrix.from_state(two_level_collapse().psi0)
        assert rho.purity() == pytest.approx(1.0, rel=1e-12)
        assert float(np.trace(rho.entries).real) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert rho.purity() == pytest.approx(0.25, rel=1e-14)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_expectation(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        op = HermitianOperator(np.diag([1.0, -1.0]))
        assert rho.expectation(op) == pytest.approx(-0.5, rel=1e-14)


class TestLindbladEvolution:
    def test_two_level_coherence_decays_at_half_lam_gap_squared(self):
        scenario = two_level_collapse(weight_upper=0.5, relative_phase=0.9,
                                      lam=0.5, t_end=2.0, steps=512)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        series = lindblad_propagate(rho0, scenario)
        # gap 2 puts the eigenvalues at +-1, so the rate is 2 lam.
        exact = rho0.entries[0, 1] * np.exp(-2.0 * scenario.params.lam
                                            * series.times)
        rel = np.abs(series.rhos[:, 0, 1] - exact) / np.abs(exact)
        assert rel.max() <= EXACT_SERIES

    def test_qubit_transverse_expectation_closed_form(self):
        scenario = qubit_dephasing(lam=0.2, t_end=2.0, steps=512)
        series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                    scenario)
        got = np.einsum("tij,ji->t", series.rhos, PAULI_X).real
        exact = np.exp(-2.0 * scenario.params.lam * series.times)
        assert np.abs(got - exact).max() <= EXACT_SERIES

    def test_purity_never_increases(self):
        scenario = random_dense(501, dim=4, lam=0.4, t_end=1.5, steps=256)
        series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                    scenario)
        purity = np.einsum("tij,tji->t", series.rhos, series.rhos).real
        assert np.all(np.diff(purity) <= 1e-12)

    def test_maximally_mixed_is_a_fixed_point(self):
        scenario = qubit_dephasing(t_end=1.0, steps=128)
        rho0 = DensityMatrix.maximally_mixed(2)
        series = lindblad_propagate(rho0, scenario)
        np.testing.assert_allclose(series.final_rho, 0.5 * np.eye(2),
                                   atol=1e-12)

    def test_unconverged_integration_fails(self):
        scenario = qubit_dephasing(t_end=2.0, steps=1)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        with pytest.raises(NumericalFailure, match="converge"):
            lindblad_propagate(rho0, scenario, steps=1, halving_tol=1e-16,
                               max_refine=2)

    def test_no_refinement_budget_fails_naming_the_step_count(self):
        scenario = two_level_collapse(t_end=0.5, steps=50)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        with pytest.raises(NumericalFailure, match="at 50 steps"):
            lindblad_propagate(rho0, scenario, max_refine=0)


class TestEnsembleStatistics:
    def test_cooked_frequencies_sum_to_one_and_ess_is_n(self):
        scenario = two_level_collapse(t_end=1.0, steps=100)
        stats = run_ensemble(scenario, 500, "cooked", 17)
        assert stats.n_success == 500
        assert float(stats.outcome_frequencies.sum()) == pytest.approx(1.0,
                                                                       abs=1e-12)
        assert stats.effective_sample_size == pytest.approx(500.0, rel=1e-12)
        np.testing.assert_allclose(stats.outcome_values, [-1.0, 1.0],
                                   atol=1e-12)

    def test_raw_weights_average_to_one(self):
        scenario = two_level_collapse(t_end=0.5, steps=100)
        stats = run_ensemble(scenario, 2000, "raw", SEED_RAW_WEIGHT)
        z = abs(stats.mean_weight - 1.0) / stats.mean_weight_se
        assert z <= 3.0
        assert stats.effective_sample_size > 100.0

    def test_series_starts_at_the_initial_expectations(self):
        scenario = two_level_collapse(t_end=0.5, steps=50)
        stats = run_ensemble(scenario, 300, "cooked", 23, record_series=True)
        # <A>(0) = 0.7 - 0.3 with the +-1 eigenvalues; H = 0 throughout.
        assert stats.mean_coupling[0] == pytest.approx(0.4, abs=1e-12)
        np.testing.assert_allclose(stats.mean_hamiltonian, 0.0, atol=1e-12)
        assert stats.times.size == 51

    def test_thread_count_does_not_change_any_bit(self):
        scenario = random_dense(77, dim=24, lam=0.3, t_end=1.0, steps=128)
        one = run_ensemble(scenario, 600, "cooked", 99, record_series=True,
                           threads=1)
        four = run_ensemble(scenario, 600, "cooked", 99, record_series=True,
                            threads=4)
        assert np.array_equal(one.outcome_frequencies, four.outcome_frequencies)
        assert np.array_equal(one.outcome_errors, four.outcome_errors)
        assert np.array_equal(one.mean_coupling, four.mean_coupling)
        assert one.interaction_mean == four.interaction_mean
        assert one.mean_weight == four.mean_weight

    def test_grid_thread_count_does_not_change_any_bit(self):
        # 600 trajectories make three chunks of 256 on the grid.
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0,
                                      lam=0.05, t_end=1.0, steps=32)
        one, two = (run_ensemble(scenario, 600, "cooked", 99, record_series=True,
                                 keep_final_states=True, threads=t)
                    for t in (1, 2))
        assert np.array_equal(one.final_states, two.final_states)
        assert np.array_equal(one.mean_coupling, two.mean_coupling)
        assert np.array_equal(one.mean_hamiltonian, two.mean_hamiltonian)
        assert one.interaction_mean == two.interaction_mean

    def test_frequency_lookup(self):
        scenario = two_level_collapse(t_end=1.0, steps=100)
        stats = run_ensemble(scenario, 400, "cooked", 31)
        f_up, e_up = stats.frequency(1.0)
        f_dn, e_dn = stats.frequency(-1.0)
        assert f_up + f_dn == pytest.approx(1.0, abs=1e-12)
        assert e_up > 0.0 and e_dn > 0.0

    def test_low_effective_sample_refusal_and_override(self):
        deep = two_level_collapse()  # t_end = 5: raw weights degenerate
        with pytest.raises(LowEffectiveSampleError) as exc:
            run_ensemble(deep, 200, "raw", 12)
        assert exc.value.ess < exc.value.floor
        assert exc.value.n == 200
        stats = run_ensemble(deep, 200, "raw", 12, ess_floor=0.0)
        assert stats.effective_sample_size < 100.0

    def test_overflowing_paths_fail_the_run(self):
        hot = two_level_collapse(lam=1e6, t_end=2.0, steps=2)
        with pytest.raises(NumericalFailure, match="survived"):
            run_ensemble(hot, 100, "raw", 42)

    def test_input_validation(self):
        scenario = two_level_collapse(t_end=0.1, steps=5)
        with pytest.raises(ValueError):
            run_ensemble(scenario, 0, "cooked", 1)
        with pytest.raises(ValueError):
            run_ensemble(scenario, 10, "fried", 1)


class TestEnsembleAgainstLindblad:
    def test_final_density_matrix_matches_the_closed_form(self):
        scenario = two_level_collapse(weight_upper=0.6, relative_phase=0.7,
                                      lam=0.25, t_end=1.0, steps=200)
        stats = run_ensemble(scenario, 3000, "cooked", SEED_RHO,
                             keep_final_states=True)
        rho_mc = ensemble_density_matrix(stats)
        c1, c2 = scenario.psi0.amplitudes
        decay = np.exp(-2.0 * scenario.params.lam * scenario.grid.t_end)
        exact = np.array([[abs(c1) ** 2, c1 * np.conj(c2) * decay],
                          [np.conj(c1) * c2 * decay, abs(c2) ** 2]])
        series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0),
                                    scenario)
        np.testing.assert_allclose(series.final_rho, exact, atol=1e-10)
        # Monte Carlo band: ~2x the measured deviation at this seed, well
        # above the n = 3000 standard error.
        assert np.abs(rho_mc.entries - exact).max() <= 0.02

    def test_density_matrix_requires_kept_states(self):
        stats = run_ensemble(two_level_collapse(t_end=0.1, steps=10),
                             50, "cooked", 3)
        with pytest.raises(ValueError, match="keep_final_states"):
            ensemble_density_matrix(stats)
