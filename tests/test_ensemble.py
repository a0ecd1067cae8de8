"""Ensemble statistics and the deterministic density-matrix evolution.

The stochastic and deterministic halves are tested against each other
and against closed forms: dephasing rates, fixed points, and the exact
unit mean of raw importance weights.
"""

import numpy as np
import pytest
import scipy.linalg

from cslsim.ensemble import (DensityMatrix, _grid_channels_once,
                             ensemble_density_matrix, grid_energy_channels,
                             lindblad_propagate, run_ensemble)
from cslsim.errors import LowEffectiveSampleError, NumericalFailure
from cslsim.hilbert import HermitianOperator, expm
from cslsim.noise import trajectory_seed
from cslsim.scenarios import (PAULI_X, free_particle_grid, qubit_dephasing,
                              random_dense, two_level_collapse)
from cslsim.trajectory import evolve

# Deterministic series against analytic decay laws.
EXACT_SERIES = 1e-8
# Pinned-seed Monte Carlo results sit well inside these bands; the bands
# are sized at 3-4 standard errors so reruns with nearby seeds also pass.
SEED_RAW_WEIGHT = 321
SEED_RHO = 654


def maximally_mixed(dim):
    return DensityMatrix(np.eye(dim) / dim)


def purity(rho):
    return float(np.einsum("ij,ji->", rho.entries, rho.entries).real)


def expectation(rho, op):
    return float(np.trace(op.matrix @ rho.entries).real)


def liouvillian_oracle(scenario):
    """L with L vec(rho) = vec(-(i/hbar)[H, rho] - (lam/2)[A, [A, rho]])
    for the row-major vec, built column by column from the equation."""
    h = scenario.hamiltonian.matrix
    a = scenario.collapse_op.matrix
    lam, hbar = scenario.params.lam, scenario.params.hbar
    d = h.shape[0]
    cols = []
    for unit in np.eye(d * d):
        rho = unit.reshape(d, d)
        inner = a @ rho - rho @ a
        out = (-1j / hbar) * (h @ rho - rho @ h) - 0.5 * lam * (a @ inner - inner @ a)
        cols.append(out.reshape(-1))
    return np.array(cols).T


class TestExpm:
    @pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 1e2])
    def test_matches_scipy_on_random_liouvillians(self, norm):
        scenario = random_dense(700, dim=4, lam=0.8)
        liou = liouvillian_oracle(scenario)
        m = liou * (norm / np.abs(liou).sum(axis=0).max())
        exact = scipy.linalg.expm(m)
        assert np.abs(expm(m) - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_jordan_block(self):
        # Not diagonalizable: exp(J) = e^2 [[1, 1, 1/2], [0, 1, 1], [0, 0, 1]].
        j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        closed = np.exp(2.0) * np.array([[1.0, 1.0, 0.5], [0.0, 1.0, 1.0],
                                         [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(expm(j), scipy.linalg.expm(j), rtol=1e-12)
        np.testing.assert_allclose(expm(j), closed, rtol=1e-14)


class TestDensityMatrix:
    def test_from_state_is_a_projector(self):
        rho = DensityMatrix.from_state(two_level_collapse().psi0)
        assert purity(rho) == pytest.approx(1.0, rel=1e-12)
        assert float(np.trace(rho.entries).real) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = maximally_mixed(4)
        assert purity(rho) == pytest.approx(0.25, rel=1e-14)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_only_the_general_constructor_runs_the_eigenvalue_test(self, monkeypatch):
        # |psi><psi| is positive semidefinite by construction.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m) or eigvalsh(m))
        psi = random_dense(5, dim=6).psi0
        rho = DensityMatrix.from_state(psi)
        assert calls == []
        assert not rho.entries.flags.writeable
        np.testing.assert_array_equal(DensityMatrix(rho.entries).entries, rho.entries)
        assert len(calls) == 1

    def test_expectation(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        op = HermitianOperator(np.diag([1.0, -1.0]))
        assert expectation(rho, op) == pytest.approx(-0.5, rel=1e-14)


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
        purities = np.einsum("tij,tji->t", series.rhos, series.rhos).real
        assert np.all(np.diff(purities) <= 1e-12)

    def test_maximally_mixed_is_a_fixed_point(self):
        scenario = qubit_dephasing(t_end=1.0, steps=128)
        rho0 = maximally_mixed(2)
        series = lindblad_propagate(rho0, scenario)
        np.testing.assert_allclose(series.final_rho, 0.5 * np.eye(2),
                                   atol=1e-12)

    def test_inaccurate_propagation_fails(self):
        scenario = random_dense(501, dim=4, lam=0.4, t_end=1.5, steps=256)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        figure = lindblad_propagate(rho0, scenario).achieved_halving_error
        assert figure > 0.0
        with pytest.raises(NumericalFailure, match="not accurate"):
            lindblad_propagate(rho0, scenario, halving_tol=0.5 * figure)

    def test_no_refinement_budget_fails_naming_the_step_count(self):
        # The grid integrator holds the only halving loop.
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0,
                                      lam=0.05, t_end=1.0, steps=32)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        with pytest.raises(NumericalFailure, match="at 32 steps"):
            lindblad_propagate(rho0, scenario, max_refine=0)

    @pytest.mark.parametrize("dim,steps", [(2, 1), (4, 64), (5, 300)])
    def test_dense_series_matches_the_expm_oracle_at_every_time(self, dim, steps):
        scenario = random_dense(600 + dim, dim=dim, lam=0.7, t_end=1.5,
                                steps=steps)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        series = lindblad_propagate(rho0, scenario)
        # 2 * steps intervals, the spacing that the ledger's decimation
        # check and the drift law's finite differences are sized for.
        assert series.times.size == 2 * steps + 1
        assert series.rhos.shape == (2 * steps + 1, dim, dim)
        liou = liouvillian_oracle(scenario)
        for t, rho in zip(series.times, series.rhos):
            exact = (scipy.linalg.expm(liou * t) @ rho0.entries.reshape(-1))
            assert np.abs(rho - exact.reshape(dim, dim)).max() <= 1e-12


# Seam-clear packets: the sector channels use minimum-image distances and
# the split-step the unwrapped ones, so they differ only through coherence
# across the seam, which these packets keep below rounding.
SECTOR_PACKETS = [
    dict(n_points=64, dx=1.0, sigma0=2.5, lam=0.05, x0=-2.0, p0=0.3),
    dict(n_points=128, dx=0.5, sigma0=2.0, lam=0.05, x0=1.0, p0=0.7),
    dict(n_points=256, dx=0.25, sigma0=2.0, lam=0.002, x0=8.0),
]
# Measured floor of the comparison: 1.6e-12 on the system energy and
# 6e-14 on the commutator trace (relative to |t13| below).
SECTOR_MATCH = 1e-11


@pytest.mark.parametrize("packet", SECTOR_PACKETS, ids=lambda k: str(k["n_points"]))
@pytest.mark.parametrize("t_end", [0.5, 1.0, 2.0])
def test_sector_channels_match_the_split_step_final_rho(packet, t_end):
    """The closed-form channels at t_end against Tr(H rho) and
    Tr([A,[A,H]] rho) of the split-step's final rho, both through the
    Fourier-multiplier route H rho = ifft(e * fft(rho))."""
    scenario = free_particle_grid(t_end=t_end, steps=16, **packet)
    info, hbar = scenario.grid_info, scenario.params.hbar
    x, e = info.positions, info.kinetic_energies(hbar)

    def h_left(r):
        return np.fft.ifft(e[:, None] * np.fft.fft(r, axis=0), axis=0)

    rho = _grid_channels_once(scenario, 16)[1]
    diag_g = np.einsum("ii->i", h_left(rho)).real
    sys_e = diag_g.sum()
    t13 = 2.0 * (x * x * diag_g).sum()
    t2 = (x * np.einsum("ii->i", h_left(x[:, None] * rho)).real).sum()
    got = grid_energy_channels(scenario)
    assert got.times[-1] == t_end
    assert abs(got.sys_energy[-1] - sys_e) <= SECTOR_MATCH * abs(sys_e)
    # The transform route cancels two terms of size |t13| (here up to 8
    # times the result), so its own rounding is relative to that size.
    assert abs(got.dc_trace[-1] - (t13 - 2.0 * t2)) <= SECTOR_MATCH * abs(t13)


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

    def test_any_trajectory_replays_from_its_index_seed(self):
        # 4200 trajectories make two chunks of 4096 and 104.
        scenario = random_dense(5, steps=64)
        stats = run_ensemble(scenario, 4200, "cooked", 9, keep_final_states=True)
        for i in (0, 17, 4100, 4199):
            one = evolve(scenario, seed=trajectory_seed(9, i))
            # A one-row batch rounds its matrix products differently.
            np.testing.assert_allclose(one.final_state.normalized().amplitudes,
                                       stats.final_states[i], rtol=0.0, atol=1e-13)

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
