"""The batched propagation kernel: its work per step, its memory layout and
the frame identity it relies on.

After each step the kernel evaluates <A> once, in the post-step frame, and
uses it both as the series entry and as the next step's cooked drift.  The
drift is defined in the next step's pre-step frame; W G = W^dag makes the
two agree.  The reference below computes the pre-step value from scratch:
an explicit transfer, then exp(+iH dt/2) built independently of the
backend, then the plain position or eigenvalue average.
"""

import math

import numpy as np
import pytest
from oracles import RowMajorSpectral, row_major_evolve, series_sums
from scipy.linalg import expm

from cslsim.ensemble import run_ensemble
from cslsim.errors import NumericalFailure
from cslsim.hilbert import HermitianOperator, StateVector
from cslsim.noise import CollapseParams, TimeGrid, block_increments
from cslsim.propagation import (GridBackend, GridInfo, SpectralBackend, evolve_batch,
                                make_backend)
from cslsim.scenarios import (free_particle_grid, qubit_dephasing, random_dense,
                              two_level_collapse)
from cslsim.trajectory import Scenario, evolve

DRIFT_MATCH = 1e-12
# Field energy against the oracle's reverse sweep, relative to the batch's
# largest |value|.
FIELD_ENERGY_MATCH = 1e-12

BATCH_FIELDS = ("final_internal", "log_red", "w", "failed", "interaction", "field_energy")


def step_major_copy(draws):
    """A copy of the (B, S) ``draws`` held step-major, as
    :func:`block_increments` holds them."""
    return draws.T.copy().T


def random_states(rng, b, d):
    c = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def count_transforms(monkeypatch):
    """Count calls of numpy.fft.fft and numpy.fft.ifft."""
    calls = [0]
    for name in ("fft", "ifft"):
        func = getattr(np.fft, name)

        def counted(*args, _func=func, **kwargs):
            calls[0] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


# (mode, series, with_field_energy, transforms per step, offset):
# entering the frame costs two transforms, and the last step transfers
# nothing and, without series, needs no moments either.  A raw field-energy
# step transfers the state and eta (two transforms each) and takes G A+ of
# the state (four), all but on the last step.
TRANSFORM_CASES = [
    pytest.param("cooked", False, False, 3, -1, id="False"),
    pytest.param("cooked", True, False, 3, 1, id="True"),
    pytest.param("raw", False, True, 8, -6, id="raw-field-energy"),
]


@pytest.mark.parametrize("mode, series, with_field_energy, per_step, offset",
                         TRANSFORM_CASES)
def test_grid_kernel_costs_three_transforms_per_step(monkeypatch, mode, series,
                                                     with_field_energy, per_step, offset):
    scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05)
    dt = 1.0 / 32.0
    backend = GridBackend(scenario.grid_info, dt, scenario.params.hbar)
    calls = count_transforms(monkeypatch)
    rng = np.random.default_rng(3)
    counts = []
    for steps in (16, 32):
        calls[0] = 0
        evolve_batch(backend, TimeGrid(steps * dt, steps), scenario.params,
                     scenario.psi0.amplitudes, rng.standard_normal((5, steps)),
                     mode=mode, series=np.empty((3, steps + 1)) if series else None,
                     with_field_energy=with_field_energy)
        counts.append(calls[0])
    assert counts[1] - counts[0] == per_step * 16
    assert counts[0] == per_step * 16 + offset


def test_grid_final_read_out_is_one_transform_pair(monkeypatch):
    # Keeping the final lab states reuses the transform that gives the
    # outcome populations: one chunk costs the same either way.
    scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                  t_end=0.5, steps=16)
    calls = count_transforms(monkeypatch)
    counts = []
    for keep in (False, True):
        calls[0] = 0
        run_ensemble(scenario, 5, "cooked", 1, record_series=True,
                     keep_final_states=keep)
        counts.append(calls[0])
    assert counts[0] == counts[1]


def test_raw_kernel_reads_step_major_draws_in_place():
    # block_increments' step-major draws are the raw field values as they
    # stand: the kernel neither copies nor writes them.
    scenario = qubit_dephasing(t_end=1.0, steps=20)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, params, 6, 0, 7)
    before = draws.copy()
    batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws,
                         mode="raw", with_field_energy=True)
    assert np.shares_memory(batch.w, draws)
    assert np.array_equal(draws, before)
    # Read-only field values run as a writeable copy does.
    frozen = draws[3:4].copy()
    frozen.flags.writeable = False
    one = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, frozen,
                       mode="raw", with_field_energy=True)
    copy = evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                        draws[3:4].copy(), mode="raw", with_field_energy=True)
    assert one.field_energy[0] == copy.field_energy[0]
    assert one.log_red[0] == copy.log_red[0]
    assert np.array_equal(one.w, frozen)


def test_kernel_flags_rows_that_leave_the_floating_range():
    # H = 0, so each eigencomponent's exponent is dt (w a_i - lam a_i^2):
    # w = +1e6 overflows the exponent limit, w = -1e6 underflows every
    # component to zero.
    scenario = Scenario(
        hamiltonian=HermitianOperator(np.zeros((2, 2))),
        collapse_op=HermitianOperator(np.diag([1.0, 2.0])),
        psi0=StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)),
        params=CollapseParams(lam=1.0),
        grid=TimeGrid(0.1, 10))
    w = np.zeros((3, 10))
    w[1, 4] = 1e6
    w[2, 4] = -1e6
    batch = evolve_batch(make_backend(scenario, scenario.grid.dt), scenario.grid,
                         scenario.params, scenario.psi0.amplitudes, w, mode="raw")
    assert batch.failed.tolist() == [False, True, True]
    for out in (batch.final_internal, batch.log_red, batch.w, batch.interaction):
        assert np.isfinite(out).all()
    # A replay raises instead: one step at lam = 1e4 underflows every
    # component of the cooked path.
    with pytest.raises(NumericalFailure, match="left the floating range"):
        evolve(two_level_collapse(lam=1e4, t_end=1.0, steps=1), 0, 0)


@pytest.mark.parametrize("step", [3, 1], ids=["last-step", "inner-step"])
@pytest.mark.parametrize("exponent", [500.0, 800.0])
def test_a_step_whose_squared_norm_overflows_is_flagged(step, exponent):
    # Upper level a = +1, lam = 1, dt = 1/4: the step exponent dt (w - lam)
    # is ``exponent`` at w = exponent / dt + lam.  The squared norm doubles
    # the exponent, so it overflows from about 354.9, below EXP_LIMIT.
    scenario = two_level_collapse(t_end=1.0, steps=4)
    grid, params = scenario.grid, scenario.params
    w = np.zeros((2, 4))
    w[1, step] = exponent / grid.dt + params.lam
    backend = make_backend(scenario, grid.dt)
    batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, w, mode="raw")
    assert batch.failed.tolist() == [False, True]
    for out in (batch.final_internal, batch.log_red, batch.interaction):
        assert np.isfinite(out).all()
    np.testing.assert_allclose(backend.norm2(batch.final_internal), 1.0, rtol=1e-14)


def test_cooked_field_values_overwrite_the_increments():
    # The grid's rows do not depend on the batch, so each row's field
    # values are those of its replay bit for bit.
    scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                  t_end=0.5, steps=16)
    grid, params = scenario.grid, scenario.params
    draws = block_increments(grid, params, 21, 0, 70)
    increments = draws.copy()
    batch = evolve_batch(make_backend(scenario, grid.dt), grid, params,
                         scenario.psi0.amplitudes, draws, mode="cooked")
    assert np.shares_memory(batch.w, draws) and batch.w.shape == (70, 16)
    assert np.array_equal(batch.w, draws) and not np.array_equal(draws, increments)
    for i in (0, 63, 64, 69):
        assert np.array_equal(batch.w[i], evolve(scenario, 21, i).w), i


def test_flagging_one_row_leaves_the_others_bit_identical():
    scenario = random_dense(6, steps=32)
    backend = make_backend(scenario, scenario.grid.dt)
    w = np.random.default_rng(3).standard_normal((64, 32))
    calm = w.copy()
    w[17, 5] = 1e6

    def run(rows):
        return evolve_batch(backend, scenario.grid, scenario.params,
                            scenario.psi0.amplitudes, rows, mode="raw")

    batch = run(w)
    assert np.flatnonzero(batch.failed).tolist() == [17]
    keep = np.arange(64) != 17
    same_shape = run(calm)
    without = run(w[keep])
    assert not same_shape.failed.any() and not without.failed.any()
    # The terminal <A> is one dot product per row, so a 63-row batch
    # rounds its rows as the 64-row one does.
    for name in ("final_internal", "log_red", "interaction"):
        assert np.array_equal(getattr(batch, name)[keep], getattr(same_shape, name)[keep])
        assert np.array_equal(getattr(batch, name)[keep], getattr(without, name))


@pytest.mark.parametrize("energy", [False, True])
def test_grid_rows_do_not_depend_on_the_batch(energy):
    # Every reduction is one dot product per row, so a row of a 256-row
    # batch gives the same bits as the row alone; a matrix-vector product
    # would block, and round, the rows differently with the batch size.
    scenario = free_particle_grid(n_points=1024, dx=0.25, sigma0=2.0)
    backend = GridBackend(scenario.grid_info, 0.03, scenario.params.hbar)
    c = random_states(np.random.default_rng(12), 256, backend.dim)
    norms = backend.norm2(c)
    state, mean_a, mean_h = backend.advance(c.copy(), energy=energy)
    for i in (0, 3, 255):
        row = c[i:i + 1]
        assert np.array_equal(backend.norm2(row), norms[i:i + 1])
        one = backend.advance(row.copy(), energy=energy)
        assert np.array_equal(one[0], state[i:i + 1])
        assert np.array_equal(one[1], mean_a[i:i + 1])
        if energy:
            assert np.array_equal(one[2], mean_h[i:i + 1])


def test_grid_interaction_of_a_row_does_not_depend_on_the_batch():
    # The terminal interaction w_T <A> - 2 lam <A^2> of a row of a 256-row
    # cooked batch has the bits of the same row run alone.
    scenario = free_particle_grid(n_points=1024, dx=0.25, sigma0=2.0, t_end=0.25, steps=8)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, params, 14, 0, 256)

    def run(rows):
        # Cooked mode consumes its draws: run each on a step-major copy.
        return evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                            step_major_copy(rows), mode="cooked")

    batch = run(draws)
    for i in range(0, 256, 15):
        one = run(draws[i:i + 1])
        assert np.array_equal(one.final_internal, batch.final_internal[i:i + 1]), i
        assert np.array_equal(one.interaction, batch.interaction[i:i + 1]), i


def grid_transfer(scenario, c, dt):
    hbar = scenario.params.hbar
    e = scenario.grid_info.kinetic_energies(hbar)
    return np.fft.ifft(np.fft.fft(c, axis=-1) * np.exp(-1j * e * dt / hbar), axis=-1)


def grid_pre_step_mean(scenario, c, dt):
    hbar = scenario.params.hbar
    e = scenario.grid_info.kinetic_energies(hbar)
    lab = np.fft.ifft(np.fft.fft(c, axis=-1) * np.exp(0.5j * e * dt / hbar), axis=-1)
    return (np.abs(lab) ** 2) @ scenario.grid_info.positions


def dense_transfer(scenario, c, dt):
    """exp(-iH dt) in the coupling eigenbasis, the frame of the kernel's
    states, applied to the rows of ``c``."""
    va = scenario.collapse_op.spectrum().eigenvectors
    g = va.conj().T @ expm(-1j * scenario.hamiltonian.matrix * dt / scenario.params.hbar) @ va
    return c @ g.T


def dense_pre_step_mean(scenario, c, dt):
    a = scenario.collapse_op.matrix
    va = scenario.collapse_op.spectrum().eigenvectors
    rot = expm(0.5j * scenario.hamiltonian.matrix * dt / scenario.params.hbar)
    lab = c @ (rot @ va).T
    return np.einsum("bi,bi->b", lab.conj(), lab @ a.T).real


@pytest.mark.parametrize("kind", ["grid", "dense"])
def test_reused_drift_equals_the_pre_step_mean_after_transfer(kind):
    rng = np.random.default_rng(8)
    if kind == "grid":
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0)
        dt = 0.1
        backend = GridBackend(scenario.grid_info, dt, scenario.params.hbar)
    else:
        scenario = random_dense(41, dim=6, lam=0.3, t_end=1.0, steps=10)
        dt = scenario.grid.dt
        backend = SpectralBackend(scenario.hamiltonian, scenario.collapse_op,
                                  dt, scenario.params.hbar)
    c = random_states(rng, 7, backend.dim)
    if kind == "grid":
        moved = grid_transfer(scenario, c, dt)
        expected = grid_pre_step_mean(scenario, moved, dt)
    else:
        moved = dense_transfer(scenario, c, dt)
        expected = dense_pre_step_mean(scenario, moved, dt)

    state, mean_a, mean_h = backend.advance(c.copy(), energy=False)
    assert mean_h is None
    np.testing.assert_allclose(mean_a, expected, rtol=0.0, atol=DRIFT_MATCH)
    np.testing.assert_allclose(state, moved, rtol=0.0, atol=DRIFT_MATCH)


@pytest.mark.parametrize("kind", ["dense", "grid"])
def test_field_values_give_the_same_bits_in_either_memory_order(kind):
    if kind == "dense":
        scenario = random_dense(71, dim=8, lam=0.3, t_end=1.0, steps=24)
    else:
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                      t_end=0.5, steps=16)
    grid = scenario.grid
    backend = make_backend(scenario, grid.dt)
    step_major = 2.0 * np.random.default_rng(5).standard_normal((grid.steps, 37))

    def run(draws):
        sums = np.empty((3, grid.steps + 1))
        return evolve_batch(backend, grid, scenario.params, scenario.psi0.amplitudes,
                            draws, mode="raw", series=sums, with_field_energy=True), sums

    rows, row_sums = run(np.ascontiguousarray(step_major.T))
    steps, step_sums = run(step_major.T)
    for name in BATCH_FIELDS:
        assert np.array_equal(getattr(rows, name), getattr(steps, name)), name
    assert np.array_equal(row_sums, step_sums)
    # The layouts the kernel promises: step-major field values, and states
    # with the trajectory axis (dense) or the grid axis (grid) contiguous.
    assert steps.w.T.flags.c_contiguous
    contiguous = 0 if kind == "dense" else 1
    assert steps.final_internal.strides[contiguous] == steps.final_internal.itemsize


def assert_field_energy_matches(got, want):
    """The kernel carries the estimator forward, the oracle sweeps it
    backwards: the two sum the same terms in different orders."""
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=FIELD_ENERGY_MATCH * np.abs(want).max())


def test_dense_cooked_series_match_the_row_major_loop_bit_for_bit():
    scenario = random_dense(72, dim=8, lam=0.3, t_end=1.0, steps=40)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    oracle = RowMajorSpectral(scenario.hamiltonian, scenario.collapse_op, grid.dt,
                              params.hbar)
    # 300 rows: not a multiple of any BLAS blocking.
    draws = block_increments(grid, params, 9, 0, 300)
    # Taken first: the cooked kernel writes its field values over ``draws``.
    increments = np.ascontiguousarray(draws)
    sums = np.empty((3, grid.steps + 1))
    got = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws,
                       mode="cooked", series=sums, with_field_energy=True)
    want = row_major_evolve(oracle, grid, params, scenario.psi0.amplitudes,
                            mode="cooked", draws=increments,
                            record_series=True, with_field_energy=True)
    assert_field_energy_matches(got.field_energy, want["field_energy"])
    for name in ("final_internal", "log_red", "w", "interaction"):
        assert np.array_equal(getattr(got, name), want[name]), name
    assert np.array_equal(sums, series_sums(want, "cooked"))
    for ours, theirs in zip(backend.read_out(got.final_internal),
                            oracle.read_out(want["final_internal"])):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("master_seed", [1, 7])
def test_dense_raw_field_energy_matches_the_row_major_sweep_bit_for_bit(master_seed):
    # Two independent noise draws of the same 300 trajectories.
    scenario = qubit_dephasing(omega=1.0, lam=0.2, t_end=1.0, steps=50)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    oracle = RowMajorSpectral(scenario.hamiltonian, scenario.collapse_op, grid.dt,
                              params.hbar)
    draws = block_increments(grid, params, master_seed, 0, 300)
    got = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws,
                       mode="raw", with_field_energy=True)
    want = row_major_evolve(oracle, grid, params, scenario.psi0.amplitudes, mode="raw",
                            draws=np.ascontiguousarray(draws), with_field_energy=True)
    assert_field_energy_matches(got.field_energy, want["field_energy"])
    for name in ("final_internal", "log_red", "w", "interaction"):
        assert np.array_equal(getattr(got, name), want[name]), name


@pytest.mark.parametrize("kind, mode", [("dense", "raw"), ("grid", "cooked")])
def test_series_sums_are_the_per_row_series_weighted_and_reduced(kind, mode):
    # The kernel's (3, S+1) sums against per-row series reduced time by time
    # (oracles.series_sums), bit for bit; the dense cooked case is
    # test_dense_cooked_series_match_the_row_major_loop_bit_for_bit.  The
    # dense per-row series come from the row-major loop.  Grid rows do not
    # depend on the batch, and at the cooked weight 1 a one-row batch's
    # sums are its row's <A> and <H> exactly, so the grid's come from its
    # rows run one at a time.
    if kind == "dense":
        scenario = random_dense(74, dim=8, lam=0.3, t_end=1.0, steps=32)
    else:
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                      t_end=0.5, steps=16)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, params, 12, 0, 130)

    def run(rows):
        sums = np.empty((3, grid.steps + 1))
        evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                     step_major_copy(rows), mode=mode, series=sums)
        return sums

    if kind == "dense":
        oracle = RowMajorSpectral(scenario.hamiltonian, scenario.collapse_op, grid.dt,
                                  params.hbar)
        want = row_major_evolve(oracle, grid, params, scenario.psi0.amplitudes, mode=mode,
                                draws=np.ascontiguousarray(draws), record_series=True)
    else:
        alone = np.array([run(draws[i:i + 1]) for i in range(draws.shape[0])])
        want = dict(series_expA=alone[:, 1], series_expH=alone[:, 2])
    assert np.array_equal(run(draws), series_sums(want, mode))


@pytest.mark.parametrize("step", [3, 1], ids=["last-step", "inner-step"])
def test_a_failed_row_counts_in_the_sums_before_it_fails_only(step):
    # Two raw rows share the path w = 0 until row 1's exponent overflows at
    # step ``step`` + 1, as in test_a_step_whose_squared_norm_overflows_is_flagged.
    # The sums count it at the times before that step, where they are twice
    # the calm row's alone, and not from that step on, where they are the
    # calm row's.
    scenario = two_level_collapse(t_end=1.0, steps=4)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    w = np.zeros((2, 4))
    w[1, step] = 800.0 / grid.dt + params.lam

    def run(rows):
        sums = np.empty((3, 5))
        batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, rows,
                             mode="raw", series=sums)
        return batch, sums

    batch, both = run(w)
    calm = run(w[:1])[1]
    assert batch.failed.tolist() == [False, True]
    np.testing.assert_allclose(both[:, :step + 1], 2.0 * calm[:, :step + 1],
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(both[:, step + 1:], calm[:, step + 1:],
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["dense", "grid"])
def test_cooked_field_energy_is_the_unweighted_estimator_of_its_path(kind):
    # Cooked paths are drawn from the physical measure, so their estimator
    # carries weight 1: it is Im <c_S|eta_S>, which a raw run of the same
    # realized field values gives times that run's weight exp(log_red).
    if kind == "dense":
        scenario = qubit_dephasing(omega=1.0, lam=0.2, t_end=1.0, steps=50)
    else:
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                      t_end=0.5, steps=16)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, params, 17, 0, 200)
    cooked = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws,
                          mode="cooked", with_field_energy=True)
    raw = evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                       step_major_copy(cooked.w), mode="raw", with_field_energy=True)
    assert_field_energy_matches(cooked.field_energy,
                                raw.field_energy * np.exp(-raw.log_red))


def test_cooked_field_energy_estimates_the_deterministic_value():
    # The driven qubit hands the field omega (1 - exp(-2 lam t_end)).  A
    # cooked estimator weighted by exp(log_red) read 1.1668 +- 0.0529 here.
    scenario = qubit_dephasing()
    target = 1.0 - math.exp(-2.0 * scenario.params.lam * scenario.grid.t_end)
    stats = run_ensemble(scenario, 40_000, "cooked", 707, with_field_energy=True,
                         threads=2)
    assert abs(stats.field_energy_mean - target) <= 5.0 * stats.field_energy_se


def test_one_step_field_energy_is_zero_and_keeps_no_states():
    # With one step there is no interior field jump, so eta stays zero.
    scenario = qubit_dephasing(omega=1.0, lam=0.2, t_end=0.5, steps=1)
    stats = run_ensemble(scenario, 300, "raw", 3, with_field_energy=True)
    assert stats.n_success == 300
    assert stats.field_energy_mean == 0.0


@pytest.mark.parametrize("mode", ["raw", "cooked"])
@pytest.mark.parametrize("kind", ["dense", "grid"])
def test_field_energy_of_a_row_does_not_depend_on_the_batch(kind, mode):
    # Rows 100..236 of a 300-row batch, run on their own, give the bits of
    # the same rows in the full batch.  (A dense one-row batch rounds
    # differently: its trajectory axis is then also the contiguous one.)
    if kind == "dense":
        scenario = random_dense(73, dim=8, lam=0.3, t_end=1.0, steps=24)
    else:
        scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                      t_end=0.5, steps=16)
    grid, params = scenario.grid, scenario.params
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, params, 11, 0, 300)

    def run(rows):
        return evolve_batch(backend, grid, params, scenario.psi0.amplitudes,
                            step_major_copy(rows), mode=mode,
                            with_field_energy=True).field_energy

    assert np.array_equal(run(draws[100:237]), run(draws)[100:237])


def test_grid_info_rejects_non_finite_dx():
    # Otherwise every position but x = 0 would be infinite, and x = 0 NaN.
    with pytest.raises(ValueError, match="dx must be positive and finite"):
        GridInfo(1024, dx=math.inf)


def test_grid_info_rejects_a_dx_whose_wavenumbers_overflow():
    # dx is finite and positive, but pi / dx is not: the momenta would
    # start [nan, inf, ...].
    with pytest.raises(ValueError, match="pi / dx finite, got 1e-320"):
        GridInfo(1024, dx=1e-320)


def test_grid_info_rejects_non_finite_mass():
    # Otherwise the kinetic energy would vanish: a packet that never heats.
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        GridInfo(1024, 0.25, mass=math.inf)
