"""Ensemble statistics and the deterministic density-matrix evolution.

The stochastic and deterministic halves are tested against each other
and against closed forms: dephasing rates, fixed points, and the exact
unit mean of raw importance weights.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from oracles import SECTOR_MATCH, ensemble_density_matrix

from cslsim import ensemble
from cslsim.ensemble import (DensityMatrix, _grid_channels_once, grid_energy_channels,
                             lindblad_propagate, run_ensemble)
from cslsim.errors import LowEffectiveSampleError, NumericalFailure
from cslsim.hilbert import HermitianOperator, eigenvalue_groups, expm
from cslsim.ledger import balance_tolerance, build_ledger, conservation_check
from cslsim.noise import block_increments
from cslsim.propagation import evolve_batch, make_backend
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


def spans_two_chunks_and_a_ragged_one(scenario, n):
    """Whether ``n`` trajectories of ``scenario`` fill at least two chunks
    and leave a shorter last one."""
    chunk = ensemble._chunk_size(scenario.dim)
    return n // chunk >= 2 and n % chunk > 0


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

    def test_zero_matrix_is_taken_without_scaling(self):
        # A 1-norm of 0 lies below theta_13, so no log2 of it is taken:
        # the zero Liouvillian of a lam = 0 two-level scenario (H = 0).
        assert np.abs(expm(np.zeros((4, 4), dtype=complex)) - np.eye(4)).max() <= 1e-15
        scenario = two_level_collapse(lam=0.0)
        ledger = build_ledger(scenario)
        assert conservation_check(ledger) <= balance_tolerance(scenario)


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

    def test_from_state_builds_the_projector_once(self):
        # The 4 MiB rho of a 512-point grid: the outer product is the only
        # N x N array from_state allocates.
        psi = free_particle_grid(n_points=512, dx=0.25, sigma0=2.0).psi0
        tracemalloc.start()
        try:
            rho = DensityMatrix.from_state(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rho.entries.nbytes

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

    def test_inaccurate_propagation_fails(self, monkeypatch):
        scenario = random_dense(501, dim=4, lam=0.4, t_end=1.5, steps=256)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        figure = lindblad_propagate(rho0, scenario).achieved_halving_error
        assert 0.0 < figure <= ensemble.DENSE_HALVING_TOL
        monkeypatch.setattr(ensemble, "DENSE_HALVING_TOL", 0.5 * figure)
        with pytest.raises(NumericalFailure, match="not accurate"):
            lindblad_propagate(rho0, scenario)

    def test_a_grid_scenario_is_refused_naming_the_grid_integrator(self):
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0,
                                      lam=0.05, t_end=1.0, steps=32)
        rho0 = DensityMatrix.from_state(scenario.psi0)
        with pytest.raises(ValueError, match="grid_lindblad_channels"):
            lindblad_propagate(rho0, scenario)

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


# The sector channels and the split-step both work on the ring, with
# minimum-image distances, so they agree whatever the coherence across the
# seam; these packets keep it below rounding anyway.
SECTOR_PACKETS = [
    dict(n_points=64, dx=1.0, sigma0=2.5, lam=0.05, x0=-2.0, p0=0.3),
    dict(n_points=128, dx=0.5, sigma0=2.0, lam=0.05, x0=1.0, p0=0.7),
    dict(n_points=256, dx=0.25, sigma0=2.0, lam=0.002, x0=8.0),
]


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

    @pytest.mark.parametrize("mode", ["cooked", "raw"])
    def test_thread_count_does_not_change_any_bit(self, mode):
        # 5500 trajectories make chunks of 2730, 2730 and 40 at d = 24.
        scenario = random_dense(77, dim=24, lam=0.3, t_end=1.0, steps=128)
        assert spans_two_chunks_and_a_ragged_one(scenario, 5500)
        one = run_ensemble(scenario, 5500, mode, 99, record_series=True,
                           threads=1)
        four = run_ensemble(scenario, 5500, mode, 99, record_series=True,
                            threads=4)
        assert np.array_equal(one.outcome_frequencies, four.outcome_frequencies)
        assert np.array_equal(one.outcome_errors, four.outcome_errors)
        assert np.array_equal(one.mean_coupling, four.mean_coupling)
        assert np.array_equal(one.mean_hamiltonian, four.mean_hamiltonian)
        assert one.interaction_mean == four.interaction_mean
        assert one.mean_weight == four.mean_weight

    def test_grid_thread_count_does_not_change_any_bit(self):
        # 2100 trajectories make chunks of 1024, 1024 and 52 on 64 points.
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0,
                                      lam=0.05, t_end=1.0, steps=32)
        assert spans_two_chunks_and_a_ragged_one(scenario, 2100)
        one, two = (run_ensemble(scenario, 2100, "cooked", 99, record_series=True,
                                 keep_final_states=True, threads=t)
                    for t in (1, 2))
        assert np.array_equal(one.final_states, two.final_states)
        assert np.array_equal(one.mean_coupling, two.mean_coupling)
        assert np.array_equal(one.mean_hamiltonian, two.mean_hamiltonian)
        assert one.interaction_mean == two.interaction_mean

    def test_any_trajectory_replays_from_its_index_seed(self):
        # 4200 trajectories make two chunks of 4096 and 104.
        scenario = random_dense(5, steps=64)
        assert ensemble._chunk_size(scenario.dim) == 4096
        stats = run_ensemble(scenario, 4200, "cooked", 9, keep_final_states=True)
        for i in (0, 17, 4100, 4199):
            one = evolve(scenario, 9, i)
            # A one-row batch rounds its matrix products differently.
            np.testing.assert_allclose(one.final_state.amplitudes,
                                       stats.final_states[i], rtol=0.0, atol=1e-13)

    def test_any_grid_trajectory_replays_from_its_index_seed(self):
        # 2100 trajectories make chunks of 1024, 1024 and 52 on 64 points;
        # the replays sit on both sides of both boundaries.
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                      t_end=0.5, steps=16)
        assert spans_two_chunks_and_a_ragged_one(scenario, 2100)
        stats = run_ensemble(scenario, 2100, "cooked", 9, keep_final_states=True)
        for i in (0, 17, 1023, 1024, 2047, 2048, 2099):
            one = evolve(scenario, 9, i)
            # Grid rows do not interact: the replay is exact.
            assert np.array_equal(one.final_state.amplitudes, stats.final_states[i])

    def test_frequency_lookup(self):
        scenario = two_level_collapse(t_end=1.0, steps=100)
        stats = run_ensemble(scenario, 400, "cooked", 31)
        f_up, e_up = stats.frequency(1.0)
        f_dn, e_dn = stats.frequency(-1.0)
        assert f_up + f_dn == pytest.approx(1.0, abs=1e-12)
        assert e_up > 0.0 and e_dn > 0.0

    def test_low_effective_sample_refusal_and_override(self, monkeypatch):
        deep = two_level_collapse()  # t_end = 5: raw weights degenerate
        with pytest.raises(LowEffectiveSampleError) as exc:
            run_ensemble(deep, 200, "raw", 12)
        assert exc.value.floor == ensemble.ESS_FLOOR
        assert exc.value.ess < exc.value.floor
        assert exc.value.n == 200
        monkeypatch.setattr(ensemble, "ESS_FLOOR", 0.0)
        stats = run_ensemble(deep, 200, "raw", 12)
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


def spy_chunks(monkeypatch):
    """Record the trajectory range (lo, hi) and the per-trajectory arrays
    each chunk is given."""
    seen = []
    real = ensemble._run_chunk

    def spy(backend, scenario, lo, hi, *args):
        seen.append((lo, hi, args[-2]))
        return real(backend, scenario, lo, hi, *args)

    monkeypatch.setattr(ensemble, "_run_chunk", spy)
    return seen


def fail_rows(monkeypatch, rows):
    """Flag the trajectories ``rows`` (ensemble indices) as failed in the
    kernel's result, whichever worker thread runs their chunk."""
    local = threading.local()
    real_draws, real_evolve = ensemble.block_increments, ensemble.evolve_batch

    def draws(grid, params, master_seed, lo, hi, out=None):
        local.indices = np.arange(lo, hi)
        return real_draws(grid, params, master_seed, lo, hi, out=out)

    def evolve_batch(*args, **kwargs):
        batch = real_evolve(*args, **kwargs)
        batch.failed |= np.isin(local.indices, rows)
        return batch

    monkeypatch.setattr(ensemble, "block_increments", draws)
    monkeypatch.setattr(ensemble, "evolve_batch", evolve_batch)


class TestChunksAndKeptStates:
    # 2048 points: chunks of 32 rows, so 400 trajectories make 12 full
    # chunks and one of 16.
    GRID = dict(n_points=2048, dx=0.25, sigma0=4.0, lam=0.05, t_end=0.25, steps=8)

    def test_chunks_hold_at_most_2_16_amplitudes_and_4096_rows(self):
        for dim, rows in ((2, 4096), (16, 4096), (24, 2730), (256, 256),
                          (1024, 64), (1 << 16, 1), (1 << 17, 1)):
            assert ensemble._chunk_size(dim) == rows

    def test_grid_above_2_16_points_runs_in_one_row_chunks(self, monkeypatch):
        scenario = free_particle_grid(n_points=1 << 17, t_end=0.01, steps=2)
        seen = spy_chunks(monkeypatch)
        stats = run_ensemble(scenario, 2, "cooked", 4, keep_final_states=True)
        assert [(lo, hi) for lo, hi, _ in seen] == [(0, 1), (1, 2)]
        assert stats.n_success == 2
        assert stats.final_states.shape == (2, 1 << 17)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_kept_states_are_the_survivors_in_index_order(self, monkeypatch, threads):
        scenario = free_particle_grid(**self.GRID)
        n, chunk = 400, ensemble._chunk_size(scenario.dim)
        assert (n // chunk, n % chunk) == (12, 16)
        # Rows 96 .. 127 are the whole fourth chunk; 35 of 400 stay under
        # the 10 % failure limit.
        failed = np.r_[5, 96:128, 200, 399]
        grid, params = scenario.grid, scenario.params
        backend = make_backend(scenario, grid.dt)
        groups, values = eigenvalue_groups(backend.coupling_values)
        want_s, want_w, want_g, want_v = [], [], [], []
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            indices = np.arange(lo, hi)
            batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                                 block_increments(grid, params, 3, lo, hi), mode="raw")
            keep = ~np.isin(indices, failed)
            pops, states = backend.read_out(batch.final_internal)
            want_s.append(states[keep])
            want_w.append(np.exp(batch.log_red)[keep])
            want_g.append(np.argmax(np.add.reduceat(pops, groups[:, 0], axis=1),
                                    axis=1)[keep])
            want_v.append(batch.interaction[keep])

        fail_rows(monkeypatch, failed)
        stats = run_ensemble(scenario, n, "raw", 3, keep_final_states=True,
                             threads=threads)
        n_ok = n - failed.size
        assert (stats.n_success, stats.n_failed) == (n_ok, failed.size)
        assert np.array_equal(stats.final_states, np.concatenate(want_s))
        w = np.concatenate(want_w)
        assert np.array_equal(stats.final_weights, w)
        # The statistics are those of the survivors alone; the run sums
        # the failed rows' zeros too, so they agree to rounding.
        assert stats.effective_sample_size == pytest.approx(
            w.sum() ** 2 / (w**2).sum(), rel=1e-12)
        assert stats.mean_weight == pytest.approx(w.sum() / n_ok, rel=1e-12)
        freqs = np.bincount(np.concatenate(want_g), weights=w,
                            minlength=values.size) / w.sum()
        np.testing.assert_allclose(stats.outcome_frequencies, freqs, rtol=1e-12,
                                   atol=0.0)
        v = np.concatenate(want_v) * w
        assert stats.interaction_mean == pytest.approx(
            v.sum() / n_ok, rel=0.0, abs=1e-12 * np.abs(v).mean())

    def test_a_run_without_failure_returns_the_rows_its_chunks_wrote(self, monkeypatch):
        scenario = free_particle_grid(**self.GRID)
        seen = spy_chunks(monkeypatch)
        stats = run_ensemble(scenario, 100, "cooked", 3, keep_final_states=True,
                             threads=2)
        assert stats.n_failed == 0 and len(seen) == 4
        for lo, hi, (_, weights, _, _, _, states) in seen:
            assert np.shares_memory(states[lo:hi], stats.final_states)
            assert np.shares_memory(weights[lo:hi], stats.final_weights)
            assert np.array_equal(states[lo:hi], stats.final_states[lo:hi])

    def test_replay_of_a_row_in_a_blocks_second_chunk_is_the_kept_state(self):
        # Chunks of 32 rows split each 64-trajectory noise block in two:
        # chunk 96 .. 127 draws and discards rows 64 .. 95 of block 1, and
        # the replay of row 100 draws rows 64 .. 100 alone.
        scenario = free_particle_grid(**self.GRID)
        assert ensemble._chunk_size(scenario.dim) == 32
        stats = run_ensemble(scenario, 128, "cooked", 21, keep_final_states=True,
                             threads=2)
        one = evolve(scenario, 21, 100)
        assert np.array_equal(one.final_state.amplitudes, stats.final_states[100])

    def test_workers_fill_their_own_rows_under_frequent_switches(self):
        # More workers than cores, switching threads every microsecond: a
        # row written by the wrong chunk or lost would change the states.
        scenario = free_particle_grid(**self.GRID)
        one = run_ensemble(scenario, 400, "cooked", 8, keep_final_states=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            four = run_ensemble(scenario, 400, "cooked", 8, keep_final_states=True,
                                threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one.final_states, four.final_states)
        assert np.array_equal(one.final_weights, four.final_weights)

    def test_kept_states_are_held_once(self):
        # The kept states of 512 trajectories on the 1024-point grid are
        # 8 MiB; with them written once, the run's peak was measured at
        # 1.49 times that (three copies of them made it 3.02 times).
        scenario = free_particle_grid(t_end=0.5, steps=16)
        tracemalloc.start()
        try:
            stats = run_ensemble(scenario, 512, "cooked", 1, record_series=True,
                                 keep_final_states=True, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * stats.final_states.nbytes

    def test_a_pooled_run_holds_one_increments_buffer_per_worker(self):
        # Two chunks of 4096 trajectories over 400 steps on two workers:
        # each worker's chunk holds one (400, 4096) array, its increments,
        # which the cooked field values overwrite.  A chunk that drew its
        # own increments and wrote its field values into a second array,
        # with a log-norm series beside them, peaked at 2.06 arrays per
        # worker.
        scenario = two_level_collapse(t_end=2.0, steps=400)
        threads, per_step = 2, scenario.grid.steps * ensemble._chunk_size(2) * 8
        tracemalloc.start()
        try:
            stats = run_ensemble(scenario, 8192, "cooked", 5, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n_success == 8192
        assert peak < 1.25 * threads * per_step

    @pytest.mark.parametrize("mode", ["cooked", "raw"])
    def test_a_series_run_holds_no_per_row_series(self, mode):
        # One chunk of 4096 trajectories over 400 steps: the kernel sums
        # each time's series as it steps, so the increments buffer is the
        # only (S, B) array.  Per-row <A> and <H> series, and in raw mode a
        # log-norm series, peaked at 3.13 and 4.08 buffers.
        scenario = qubit_dephasing(t_end=2.0, steps=400)
        per_step = scenario.grid.steps * ensemble._chunk_size(2) * 8
        tracemalloc.start()
        try:
            stats = run_ensemble(scenario, 4096, mode, 5, record_series=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.n_success == 4096
        assert peak < 1.25 * per_step


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads for the test, so that a cap to one
    shows on any machine; its previous count is restored after.  Yields
    the function that reads the count, through the ensemble's locator."""
    blas = ensemble._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, set_count = blas
    previous = get()
    set_count(2)
    try:
        yield get
    finally:
        set_count(previous)


class TestBlasThreads:
    # d = 8: 4100 trajectories make chunks of 4096 and 4, each running the
    # (B, 8) @ (8, 8) products that OpenBLAS threads.
    N = 4100

    @staticmethod
    def dense8():
        return random_dense(31, dim=8, lam=0.3, t_end=0.5, steps=8)

    @pytest.mark.parametrize("threads, inside", [(1, 2), (2, 1)])
    def test_workers_run_at_one_blas_thread_only_when_pooled(
            self, monkeypatch, two_blas_threads, threads, inside):
        seen = []
        real = ensemble._run_chunk

        def spy(*args):
            seen.append(two_blas_threads())
            return real(*args)

        monkeypatch.setattr(ensemble, "_run_chunk", spy)
        run_ensemble(self.dense8(), self.N, "cooked", 5, threads=threads)
        assert seen == [inside, inside]
        assert two_blas_threads() == 2

    def test_the_count_is_restored_after_a_failing_worker(self, monkeypatch,
                                                          two_blas_threads):
        real = ensemble._run_chunk

        def fail_second(backend, scenario, lo, hi, *args):
            if lo > 0:
                raise NumericalFailure("chunk failed")
            return real(backend, scenario, lo, hi, *args)

        monkeypatch.setattr(ensemble, "_run_chunk", fail_second)
        with pytest.raises(NumericalFailure, match="chunk failed"):
            run_ensemble(self.dense8(), self.N, "cooked", 5, threads=2)
        assert two_blas_threads() == 2

    def test_the_cap_changes_no_bit(self, monkeypatch):
        def run():
            return run_ensemble(self.dense8(), self.N, "cooked", 5, record_series=True,
                                keep_final_states=True, threads=2)

        capped = run()
        monkeypatch.setattr(ensemble, "_openblas_threads", lambda: None)
        free = run()
        assert np.array_equal(capped.final_states, free.final_states)
        assert np.array_equal(capped.outcome_frequencies, free.outcome_frequencies)
        assert np.array_equal(capped.mean_coupling, free.mean_coupling)
        assert np.array_equal(capped.mean_hamiltonian, free.mean_hamiltonian)
        assert capped.interaction_mean == free.interaction_mean


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
