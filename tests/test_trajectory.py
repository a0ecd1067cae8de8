"""Trajectory tests against naive dense reference implementations.

The reference propagator here is deliberately slow and explicit: it
rotates the coupling to each step midpoint with one scipy.linalg.expm
per step and multiplies the reduced factors out in the lab frame.  The
batched kernel must match it to near machine precision, path by path,
not merely in distribution.
"""

import math

import numpy as np
import pytest
from oracles import collapse_metrics, dense_kinetic_hamiltonian
from scipy.linalg import expm

from cslsim import propagation
from cslsim.hilbert import HermitianOperator, StateVector
from cslsim.noise import (CollapseParams, NoisePath, TimeGrid, standard_increments,
                          trajectory_seed)
from cslsim.propagation import GridInfo
from cslsim.scenarios import qubit_dephasing, two_level_collapse
from cslsim.trajectory import Scenario, evolve

# Single-path agreement between the kernel and the expm reference.
PATH_MATCH = 1e-11


def raw_path(grid, params, seed):
    """A raw-measure path: i.i.d. Normal(0, lam/dt) values."""
    return NoisePath(grid, standard_increments(grid, params, seed), "raw")


def naive_reduced_states(scenario, values):
    """Interaction-picture reduced states after each step, by expm products."""
    h = scenario.hamiltonian.matrix
    a = scenario.collapse_op.matrix
    lam = scenario.params.lam
    hbar = scenario.params.hbar
    dt = scenario.grid.dt
    states = [scenario.psi0.amplitudes.astype(complex)]
    for k, w in enumerate(values):
        m = (k + 0.5) * dt
        rot = expm(1j * h * m / hbar)
        a_mid = rot @ a @ rot.conj().T
        step = expm(dt * (w * a_mid - lam * a_mid @ a_mid))
        states.append(step @ states[-1])
    return states


def naive_final_state(scenario, values):
    """Unnormalized lab-frame state at t_end for a given field realization."""
    h = scenario.hamiltonian.matrix
    hbar = scenario.params.hbar
    psi = naive_reduced_states(scenario, values)[-1]
    return expm(-1j * h * scenario.grid.t_end / hbar) @ psi


class TestAgainstDenseReference:
    def test_factorized_kernel_matches_expm_product(self):
        scenario = qubit_dephasing(omega=1.3, lam=0.35, t_end=0.5, steps=50)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(5, 0))
        result = evolve(scenario, path)
        ref = naive_final_state(scenario, path.values)
        assert result.weight == pytest.approx(float(np.vdot(ref, ref).real),
                                              rel=PATH_MATCH)
        np.testing.assert_allclose(result.final_state.amplitudes, ref,
                                   atol=PATH_MATCH)

    def test_kernel_matches_reference_with_nonunit_hbar(self):
        scenario = qubit_dephasing(omega=0.9, lam=0.2, t_end=0.4, steps=32,
                                   hbar=1.7)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(6, 1))
        result = evolve(scenario, path)
        ref = naive_final_state(scenario, path.values)
        np.testing.assert_allclose(result.final_state.amplitudes, ref,
                                   atol=PATH_MATCH)

    def test_recorded_series_matches_reference_states(self):
        scenario = qubit_dephasing(lam=0.3, t_end=0.5, steps=20)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(7, 2))
        result = evolve(scenario, path, record_series=True)
        states = naive_reduced_states(scenario, path.values)
        h = scenario.hamiltonian.matrix
        a = scenario.collapse_op.matrix
        for k, psi in enumerate(states):
            t = k * scenario.grid.dt
            rot = expm(-1j * h * t)
            lab = rot @ psi
            n2 = float(np.vdot(lab, lab).real)
            exp_a = float(np.vdot(lab, a @ lab).real) / n2
            assert result.series_expA[k] == pytest.approx(exp_a, abs=1e-10)
            assert result.series_log_norm2[k] == pytest.approx(math.log(n2),
                                                               abs=1e-10)


class TestClosedForms:
    def test_free_collapse_amplitudes(self):
        # With H = 0 each coupling eigencomponent evolves independently:
        # c_i(T) = exp(sum_k dt (w_k a_i - lam a_i^2)) c_i(0).
        a_vals = np.array([0.7, -0.4, 1.3])
        scenario = Scenario(
            hamiltonian=HermitianOperator(np.zeros((3, 3))),
            collapse_op=HermitianOperator(np.diag(a_vals)),
            psi0=StateVector(np.array([0.6, 0.48, 0.64])),
            params=CollapseParams(lam=0.9),
            grid=TimeGrid(1.0, 40))
        rng = np.random.default_rng(51)
        w = rng.normal(0.0, 2.0, size=40)
        path = NoisePath(scenario.grid, w, "given")
        result = evolve(scenario, path)
        dt = scenario.grid.dt
        log_gain = dt * w.sum() * a_vals - 0.9 * scenario.grid.t_end * a_vals**2
        expected = np.exp(log_gain) * scenario.psi0.amplitudes
        np.testing.assert_allclose(result.final_state.amplitudes, expected,
                                   rtol=1e-10)
        assert result.weight == 1.0  # given paths carry no importance weight

    def test_zero_rate_path_is_purely_unitary(self):
        scenario = qubit_dephasing(omega=1.1, lam=0.0, t_end=0.7, steps=30)
        result = evolve(scenario, seed=3)
        assert np.all(result.w == 0.0)
        assert result.log_reduced_norm2 == pytest.approx(0.0, abs=1e-12)
        ref = expm(-1j * scenario.hamiltonian.matrix * 0.7) @ scenario.psi0.amplitudes
        np.testing.assert_allclose(result.final_state.amplitudes, ref,
                                   atol=1e-11)

    def test_coupling_eigenstate_is_a_fixed_point(self):
        scenario = Scenario(
            hamiltonian=HermitianOperator(np.zeros((2, 2))),
            collapse_op=HermitianOperator(np.diag([1.0, -1.0])),
            psi0=StateVector([1.0, 0.0]),
            params=CollapseParams(lam=1.0),
            grid=TimeGrid(2.0, 100))
        result = evolve(scenario, seed=17)
        # Populations follow the ascending eigenvalue order (-1, +1).
        np.testing.assert_allclose(result.coupling_populations, [0.0, 1.0],
                                   atol=1e-14)
        metrics = collapse_metrics(result.final_state, scenario.collapse_op)
        assert metrics.variance == pytest.approx(0.0, abs=1e-14)
        assert metrics.distance == pytest.approx(0.0, abs=1e-14)


class TestDeterminismAndReplay:
    def test_same_path_same_bits(self):
        scenario = qubit_dephasing(t_end=0.5, steps=40)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(9, 0))
        r1 = evolve(scenario, path)
        r2 = evolve(scenario, path)
        assert np.array_equal(r1.final_state.amplitudes, r2.final_state.amplitudes)
        assert r1.weight == r2.weight

    def test_cooked_seed_determinism(self):
        scenario = two_level_collapse(t_end=1.0, steps=100)
        r1 = evolve(scenario, seed=trajectory_seed(10, 0))
        r2 = evolve(scenario, seed=trajectory_seed(10, 0))
        r3 = evolve(scenario, seed=trajectory_seed(10, 1))
        assert np.array_equal(r1.w, r2.w)
        assert np.array_equal(r1.final_state.amplitudes, r2.final_state.amplitudes)
        assert not np.array_equal(r1.w, r3.w)

    def test_cooked_field_replays_to_the_same_state(self):
        scenario = qubit_dephasing(t_end=1.0, steps=80)
        cooked = evolve(scenario, seed=trajectory_seed(11, 0))
        replay = evolve(scenario, NoisePath(scenario.grid, cooked.w, "given"))
        np.testing.assert_allclose(replay.final_state.amplitudes,
                                   cooked.final_state.amplitudes, atol=1e-12)


class TestCollapseMetrics:
    def test_degenerate_eigenvalues_group_into_subspaces(self):
        coupling = HermitianOperator(np.diag([1.0, 1.0, -1.0]))
        psi = StateVector([0.8, 0.6j, 0.0])
        metrics = collapse_metrics(psi, coupling)
        assert metrics.nearest_eigenvalue == pytest.approx(1.0)
        assert metrics.variance == pytest.approx(0.0, abs=1e-14)
        assert metrics.distance == pytest.approx(0.0, abs=1e-14)

    def test_split_state_metrics(self):
        coupling = HermitianOperator(np.diag([1.0, -1.0]))
        psi = StateVector([math.sqrt(0.7), math.sqrt(0.3)])
        metrics = collapse_metrics(psi, coupling)
        assert metrics.variance == pytest.approx(4 * 0.7 * 0.3, rel=1e-12)
        assert metrics.nearest_eigenvalue == pytest.approx(1.0)
        assert metrics.distance == pytest.approx(0.3, rel=1e-12)


def test_interaction_sample_recomputes_from_the_final_state():
    # With H = 0 the internal frame is the coupling eigenframe, so the
    # terminal functional can be rebuilt from the reported state.
    a_op = HermitianOperator(np.diag([1.5, -0.5, 0.25]))
    scenario = Scenario(
        hamiltonian=HermitianOperator(np.zeros((3, 3))),
        collapse_op=a_op,
        psi0=StateVector(np.array([0.6, 0.48, 0.64])),
        params=CollapseParams(lam=0.5),
        grid=TimeGrid(1.0, 30))
    path = raw_path(scenario.grid, scenario.params, trajectory_seed(12, 0))
    result = evolve(scenario, path)
    pops = np.abs(result.final_state.normalized().amplitudes) ** 2
    a = np.diag(a_op.matrix).real
    v = result.w[-1] * (pops @ a) - 2 * 0.5 * (pops @ (a * a))
    assert result.interaction_sample == pytest.approx(v * result.weight,
                                                      rel=1e-10)


class TestFieldEnergyEstimator:
    def test_matches_naive_two_sided_reference(self, monkeypatch):
        scenario = qubit_dephasing(omega=1.2, lam=0.3, t_end=0.6, steps=30)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(13, 0))
        monkeypatch.setattr(propagation, "_checkpoint_stride", lambda steps: 1)
        got = evolve(scenario, path, record_series=False,
                     with_field_energy=True).field_energy_sample

        h = scenario.hamiltonian.matrix
        a = scenario.collapse_op.matrix
        dt = scenario.grid.dt
        s = scenario.grid.steps
        w = path.values
        phi = naive_reduced_states(scenario, w)
        xi = [None] * (s + 1)
        xi[s] = phi[s]
        lam = scenario.params.lam
        for j in range(s - 1, -1, -1):
            m = (j + 0.5) * dt
            rot = expm(1j * h * m)
            a_mid = rot @ a @ rot.conj().T
            step = expm(dt * (w[j] * a_mid - lam * a_mid @ a_mid))
            xi[j] = step @ xi[j + 1]
        total = 0.0
        for j in range(1, s):
            t = j * dt
            rot = expm(1j * h * t)
            a_t = rot @ a @ rot.conj().T
            total += (w[j] - w[j - 1]) * float(np.vdot(xi[j], a_t @ phi[j]).imag)
        assert got == pytest.approx(total, rel=1e-10)

    def test_checkpoint_stride_does_not_change_the_value(self, monkeypatch):
        scenario = qubit_dephasing(t_end=0.8, steps=64)
        path = raw_path(scenario.grid, scenario.params, trajectory_seed(14, 0))
        # The kernel keeps about sqrt(S) checkpoints by default.
        sparse = evolve(scenario, path, record_series=False,
                        with_field_energy=True).field_energy_sample
        monkeypatch.setattr(propagation, "_checkpoint_stride", lambda steps: 1)
        dense = evolve(scenario, path, record_series=False,
                       with_field_energy=True).field_energy_sample
        assert sparse == pytest.approx(dense, rel=1e-12)


def test_grid_and_dense_backends_agree():
    """Dual route: FFT grid propagation versus the dense spectral kernel."""
    info = GridInfo(n_points=64, dx=0.5, mass=1.3, seam_margin=4)
    x = info.positions
    amp = np.exp(-((x - 1.0) ** 2) / 8.0) * np.exp(0.4j * x)
    amp = amp / np.linalg.norm(amp)
    psi0 = StateVector(amp)
    params = CollapseParams(lam=0.01)
    grid = TimeGrid(1.0, 20)
    scenario_grid = Scenario(hamiltonian=None, collapse_op=None, psi0=psi0,
                             params=params, grid=grid, grid_info=info)
    scenario_dense = Scenario(
        hamiltonian=HermitianOperator(dense_kinetic_hamiltonian(info, params.hbar)),
        collapse_op=HermitianOperator(np.diag(x)),
        psi0=psi0, params=params, grid=grid)
    path = raw_path(grid, params, trajectory_seed(15, 0))
    rg = evolve(scenario_grid, path, record_series=True)
    rd = evolve(scenario_dense, path, record_series=True)
    assert rg.weight == pytest.approx(rd.weight, rel=1e-10)
    np.testing.assert_allclose(rg.final_state.amplitudes,
                               rd.final_state.amplitudes, atol=1e-10)
    np.testing.assert_allclose(rg.series_expA, rd.series_expA, atol=1e-10)
    np.testing.assert_allclose(rg.series_expH, rd.series_expH, atol=1e-10)


def test_cooked_mode_requires_a_seed():
    scenario = two_level_collapse(t_end=0.1, steps=5)
    with pytest.raises(ValueError, match="seed"):
        evolve(scenario, None)


@pytest.mark.parametrize("steps", [20, 10])
def test_a_path_from_another_time_grid_is_refused_naming_both(steps):
    # A path of the right length but another span would run with the
    # wrong variance for the scenario's dt; one of another length would
    # fail only inside the kernel.
    scenario = qubit_dephasing(t_end=1.0, steps=20)
    other = TimeGrid(5.0, steps)
    path = raw_path(other, scenario.params, 3)
    with pytest.raises(ValueError) as exc:
        evolve(scenario, path)
    assert repr(other) in str(exc.value)
    assert repr(scenario.grid) in str(exc.value)
