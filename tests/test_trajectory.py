"""Trajectory tests against naive dense reference implementations.

The reference propagator here is deliberately slow and explicit: it
rotates the coupling to each step midpoint with one scipy.linalg.expm
per step and multiplies the reduced factors out in the lab frame.  The
batched kernel, run on one path of field values, must match it to near
machine precision, path by path, not merely in distribution.  Cooked
trajectories are the replays of ``evolve``.
"""

import math

import numpy as np
import pytest
from oracles import (collapse_metrics, dense_kinetic_hamiltonian, run_path,
                     trajectory_increments)
from scipy.linalg import expm

from cslsim.hilbert import HermitianOperator, StateVector
from cslsim.noise import CollapseParams, TimeGrid
from cslsim.propagation import GridInfo
from cslsim.scenarios import qubit_dephasing, two_level_collapse
from cslsim.trajectory import Scenario, evolve

# Single-path agreement between the kernel and the expm reference.
PATH_MATCH = 1e-11


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
        values = trajectory_increments(scenario.grid, scenario.params, 5, 0)
        batch, final = run_path(scenario, values)
        ref = naive_final_state(scenario, values)
        assert math.exp(batch.log_red[0]) == pytest.approx(float(np.vdot(ref, ref).real),
                                                           rel=PATH_MATCH)
        np.testing.assert_allclose(final, ref, atol=PATH_MATCH)

    def test_kernel_matches_reference_with_nonunit_hbar(self):
        scenario = qubit_dephasing(omega=0.9, lam=0.2, t_end=0.4, steps=32,
                                   hbar=1.7)
        values = trajectory_increments(scenario.grid, scenario.params, 6, 1)
        _, final = run_path(scenario, values)
        ref = naive_final_state(scenario, values)
        np.testing.assert_allclose(final, ref, atol=PATH_MATCH)

    def test_recorded_series_matches_reference_states(self):
        # For one row the kernel's sums are its weight exp(log_red) and
        # that weight times its <A> at each time.
        scenario = qubit_dephasing(lam=0.3, t_end=0.5, steps=20)
        values = trajectory_increments(scenario.grid, scenario.params, 7, 2)
        sums = np.empty((3, 21))
        run_path(scenario, values, series=sums)
        states = naive_reduced_states(scenario, values)
        h = scenario.hamiltonian.matrix
        a = scenario.collapse_op.matrix
        for k, psi in enumerate(states):
            t = k * scenario.grid.dt
            rot = expm(-1j * h * t)
            lab = rot @ psi
            n2 = float(np.vdot(lab, lab).real)
            exp_a = float(np.vdot(lab, a @ lab).real) / n2
            assert sums[1, k] / sums[0, k] == pytest.approx(exp_a, abs=1e-10)
            assert math.log(sums[0, k]) == pytest.approx(math.log(n2), abs=1e-10)


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
        _, final = run_path(scenario, w)
        dt = scenario.grid.dt
        log_gain = dt * w.sum() * a_vals - 0.9 * scenario.grid.t_end * a_vals**2
        expected = np.exp(log_gain) * scenario.psi0.amplitudes
        np.testing.assert_allclose(final, expected, rtol=1e-10)

    def test_zero_rate_path_is_purely_unitary(self):
        scenario = qubit_dephasing(omega=1.1, lam=0.0, t_end=0.7, steps=30)
        result = evolve(scenario, 3, 0)
        assert np.all(result.w == 0.0)
        ref = expm(-1j * scenario.hamiltonian.matrix * 0.7) @ scenario.psi0.amplitudes
        np.testing.assert_allclose(result.final_state.amplitudes, ref,
                                   atol=1e-11)
        # The reduced propagator is the identity: the path keeps its norm.
        batch, final = run_path(scenario, result.w)
        assert batch.log_red[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(final, ref, atol=1e-11)

    def test_coupling_eigenstate_is_a_fixed_point(self):
        scenario = Scenario(
            hamiltonian=HermitianOperator(np.zeros((2, 2))),
            collapse_op=HermitianOperator(np.diag([1.0, -1.0])),
            psi0=StateVector([1.0, 0.0]),
            params=CollapseParams(lam=1.0),
            grid=TimeGrid(2.0, 100))
        result = evolve(scenario, 17, 0)
        # Populations follow the ascending eigenvalue order (-1, +1).
        np.testing.assert_allclose(result.coupling_populations, [0.0, 1.0],
                                   atol=1e-14)
        metrics = collapse_metrics(result.final_state, scenario.collapse_op)
        assert metrics.variance == pytest.approx(0.0, abs=1e-14)
        assert metrics.distance == pytest.approx(0.0, abs=1e-14)


class TestDeterminismAndReplay:
    def test_same_path_same_bits(self):
        scenario = qubit_dephasing(t_end=0.5, steps=40)
        values = trajectory_increments(scenario.grid, scenario.params, 9, 0)
        (b1, f1), (b2, f2) = run_path(scenario, values), run_path(scenario, values)
        assert np.array_equal(f1, f2)
        assert b1.log_red[0] == b2.log_red[0]

    def test_cooked_seed_determinism(self):
        scenario = two_level_collapse(t_end=1.0, steps=100)
        r1 = evolve(scenario, 10, 0)
        r2 = evolve(scenario, 10, 0)
        r3 = evolve(scenario, 10, 1)
        assert np.array_equal(r1.w, r2.w)
        assert np.array_equal(r1.final_state.amplitudes, r2.final_state.amplitudes)
        assert not np.array_equal(r1.w, r3.w)

    def test_cooked_field_replays_to_the_same_state(self):
        scenario = qubit_dephasing(t_end=1.0, steps=80)
        cooked = evolve(scenario, 11, 0)
        _, replay = run_path(scenario, cooked.w)
        np.testing.assert_allclose(StateVector(replay).normalized().amplitudes,
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
    values = trajectory_increments(scenario.grid, scenario.params, 12, 0)
    batch, final = run_path(scenario, values)
    pops = np.abs(StateVector(final).normalized().amplitudes) ** 2
    a = np.diag(a_op.matrix).real
    v = batch.w[0, -1] * (pops @ a) - 2 * 0.5 * (pops @ (a * a))
    assert batch.interaction[0] == pytest.approx(v, rel=1e-10)


class TestFieldEnergyEstimator:
    def test_matches_naive_two_sided_reference(self):
        scenario = qubit_dephasing(omega=1.2, lam=0.3, t_end=0.6, steps=30)
        w = trajectory_increments(scenario.grid, scenario.params, 13, 0)
        got = run_path(scenario, w, with_field_energy=True)[0].field_energy[0]

        h = scenario.hamiltonian.matrix
        a = scenario.collapse_op.matrix
        dt = scenario.grid.dt
        s = scenario.grid.steps
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


def test_grid_and_dense_backends_agree():
    """Dual route: FFT grid propagation versus the dense spectral kernel,
    field energy included, on four paths."""
    info = GridInfo(n_points=64, dx=0.5, mass=1.3)
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
    for index in range(4):
        values = trajectory_increments(grid, params, 15, index)
        sg, sd = np.empty((3, 21)), np.empty((3, 21))
        bg, fg = run_path(scenario_grid, values, series=sg, with_field_energy=True)
        bd, fd = run_path(scenario_dense, values, series=sd, with_field_energy=True)
        assert math.exp(bg.log_red[0]) == pytest.approx(math.exp(bd.log_red[0]),
                                                        rel=1e-10)
        np.testing.assert_allclose(fg, fd, atol=1e-10)
        # The path's <A> and <H> at every time: its sums over its weight.
        np.testing.assert_allclose(sg[1:] / sg[0], sd[1:] / sd[0], atol=1e-10)
        assert bg.field_energy[0] == pytest.approx(bd.field_energy[0], rel=1e-10)

