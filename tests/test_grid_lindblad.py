"""The grid density-matrix integrator and the free-particle ledger.

The split-step's kinetic step U rho U^dag transforms along the
contiguous axis only and relies on rho being Hermitian.  It is checked
against the dense product with U = expm(-iHt/hbar) (scipy as an
oracle), and a whole run against the two-axis step it replaced.  The
seam guard is checked on a packet that stays clear of the wrap-around
edge and on one that reaches it, and the halving check on the final rho
on runs that converge only after a refinement or not at all.  The
ledger reads its channels in closed form and never runs the split-step;
its seam estimate is checked against the mass the split-step measures.
"""

import inspect

import numpy as np
import pytest
from oracles import dense_kinetic_hamiltonian
from scipy.linalg import expm

from cslsim import ensemble
from cslsim.ensemble import (GRID_MAX_REFINE, DensityMatrix, grid_lindblad_channels,
                             lindblad_propagate)
from cslsim.errors import NumericalFailure
from cslsim.ledger import build_ledger
from cslsim.propagation import GridInfo
from cslsim.scenarios import free_particle_grid
from cslsim.tolerances import SEAM_MASS

# Both routes round differently; they must agree to near machine precision.
MATCH = 1e-12


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T / n


def two_axis_step(rho, buf, back, scale):
    """The previous kinetic step: column transforms for U rho, then row
    transforms for (U rho) U^dag."""
    phase = back.conj()
    r = rho * scale
    r = np.fft.ifft(phase[:, None] * np.fft.fft(r, axis=0), axis=0)
    r = np.fft.fft(np.fft.ifft(r, axis=1) * back[None, :], axis=1)
    return r, buf


def spy_step_counts(monkeypatch):
    """Record the step count of every split-step run."""
    seen = []
    once = ensemble._grid_channels_once

    def spied(scenario, steps, *args):
        seen.append(steps)
        return once(scenario, steps, *args)

    monkeypatch.setattr(ensemble, "_grid_channels_once", spied)
    return seen


@pytest.mark.parametrize("n_points", [64, 128])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_kinetic_step_matches_the_dense_product(n_points, scale):
    info = GridInfo(n_points=n_points, dx=0.3, mass=1.3)
    hbar, t = 0.8, 0.37
    u = expm(-1j * dense_kinetic_hamiltonian(info, hbar) * t / hbar)
    rho = random_hermitian(np.random.default_rng(n_points), n_points)
    exact = scale * (u @ rho @ u.conj().T)
    back = np.exp(1j * info.kinetic_energies(hbar) * t / hbar)
    got, spare = ensemble._kinetic_step(rho.copy(), np.empty_like(rho), back, scale)
    assert got.shape == spare.shape == rho.shape and got is not spare
    assert np.abs(got - exact).max() <= MATCH * np.abs(exact).max()


def test_whole_run_matches_the_two_axis_route(monkeypatch):
    scenario = free_particle_grid(n_points=128, dx=0.3, sigma0=2.0, lam=0.05,
                                  t_end=1.0, steps=64, x0=1.0, p0=0.7)
    rho0 = DensityMatrix.from_state(scenario.psi0)
    seen = spy_step_counts(monkeypatch)
    new = grid_lindblad_channels(rho0, scenario)
    new_steps = list(seen)
    seen.clear()
    monkeypatch.setattr(ensemble, "_kinetic_step", two_axis_step)
    old = grid_lindblad_channels(rho0, scenario)
    assert new_steps == seen == [64, 128]
    assert np.abs(new.final_rho - old.final_rho).max() <= MATCH * np.abs(old.final_rho).max()


def test_every_transform_runs_along_the_last_axis_four_per_kinetic_step(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        func = getattr(np.fft, name)

        def recorded(a, *args, _func=func, **kwargs):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            calls.append(axis % np.ndim(a) == np.ndim(a) - 1)
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    seen = spy_step_counts(monkeypatch)
    scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                  t_end=1.0, steps=32)
    ensemble.grid_energy_channels(scenario)
    channel_calls = len(calls)
    assert seen == [] and channel_calls > 0
    calls.clear()
    grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [32, 64]
    # A run of s steps makes s + 1 kinetic steps: a half step, s - 1
    # full steps and a closing half step.  The channels add a fixed count.
    assert len(calls) == 4 * sum(s + 1 for s in seen) + channel_calls
    assert all(calls)


def seam_probe(x0):
    return free_particle_grid(n_points=256, dx=0.25, sigma0=2.0, lam=0.002,
                              t_end=8.0, steps=32, x0=x0)


def seam_coherence_probe():
    """A packet whose coherence, not its mass, reaches the seam: its seam
    mass (4.4e-5) stays below SEAM_MASS."""
    return free_particle_grid(n_points=256, dx=0.25, sigma0=2.0, lam=0.2,
                              t_end=8.0, steps=64, p0=0.5)


def test_packet_clear_of_the_seam_converges(monkeypatch):
    scenario = seam_probe(16.0)
    seen = spy_step_counts(monkeypatch)
    series = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [32, 64]
    assert 0.0 < series.seam_mass_max < SEAM_MASS
    assert series.achieved_halving_error < 1e-6


def test_mass_at_the_seam_fails_the_first_halving_naming_it(monkeypatch):
    scenario = seam_probe(24.0)
    seen = spy_step_counts(monkeypatch)
    with pytest.raises(NumericalFailure, match=r"probability mass 2\.\d+e-02 "
                                               r"reached the periodic seam"):
        grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    # No refinement beyond the first halving.
    assert seen == [32, 64]


def test_halving_that_converges_after_one_refinement_reports_the_refined_run(monkeypatch):
    scenario = seam_probe(16.0)
    rho0 = DensityMatrix.from_state(scenario.psi0)
    t_end = scenario.grid.t_end

    def single_halving(steps):
        return grid_lindblad_channels(rho0, scenario, steps=steps, halving_tol=1.0,
                                      max_refine=1)

    # The halving error falls from about 7.8e-7 (16 against 32 steps) to
    # about 4.5e-7 (32 against 64), so a tolerance of 6e-7 needs exactly
    # one refinement.
    tol = 6e-7
    assert single_halving(16).achieved_halving_error > tol
    fine = single_halving(32)
    assert fine.achieved_halving_error < tol

    seen = spy_step_counts(monkeypatch)
    series = grid_lindblad_channels(rho0, scenario, steps=16, halving_tol=tol)
    assert seen == [16, 32, 64]
    np.testing.assert_array_equal(series.times, np.arange(65) * (t_end / 64))
    assert series.sys_energy.size == 65
    # The accuracy figure is the 32-against-64 comparison, not one against
    # the first, coarsest run.
    assert series.achieved_halving_error == fine.achieved_halving_error
    np.testing.assert_array_equal(series.final_rho, fine.final_rho)


def test_a_coarse_final_rho_fails_the_halving_check(monkeypatch):
    # 4 against 8 steps moves the final rho by 9.8e-6, above the default
    # 1e-6, while the energy channels do not depend on the step at all.
    scenario = seam_probe(16.0)
    seen = spy_step_counts(monkeypatch)
    with pytest.raises(NumericalFailure, match=r"did not converge: halving at 8 steps "
                                               r"still moves the final density matrix"):
        grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario,
                               steps=4, max_refine=1)
    assert seen == [4, 8]


def test_seam_coherence_below_the_seam_mass_converges_at_the_first_halving(monkeypatch):
    scenario = seam_coherence_probe()
    seen = spy_step_counts(monkeypatch)
    series = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [64, 128]
    assert series.achieved_halving_error < 1e-6
    assert series.seam_mass_max < SEAM_MASS


def test_the_grid_ledger_never_runs_the_split_step(monkeypatch):
    seen = spy_step_counts(monkeypatch)
    ledger = build_ledger(free_particle_grid())
    assert seen == []
    assert ledger.times.size == 65


def test_the_grid_ledger_refuses_mass_at_the_seam(monkeypatch):
    seen = spy_step_counts(monkeypatch)
    with pytest.raises(NumericalFailure, match=r"probability mass 3\.\d+e-02 "
                                               r"reached the periodic seam"):
        build_ledger(seam_probe(24.0))
    assert seen == []


@pytest.mark.parametrize("scenario", [seam_probe(8.0), seam_probe(16.0),
                                      seam_coherence_probe()],
                         ids=["x0=8", "x0=16", "seam-coherence"])
def test_seam_estimate_matches_the_split_step_mass(scenario):
    measured = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0),
                                      scenario).seam_mass_max
    estimate = ensemble.grid_energy_channels(scenario).seam_mass_max
    assert estimate == pytest.approx(measured, rel=0.02)


def test_both_grid_entry_points_share_one_refinement_cap():
    for entry in (lindblad_propagate, grid_lindblad_channels):
        assert inspect.signature(entry).parameters["max_refine"].default == GRID_MAX_REFINE
