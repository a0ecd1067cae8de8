"""The grid density-matrix integrator and the free-particle ledger.

The split-step works on the ring and steps the N/2 + 1 independent
kappa-sectors of the Hermitian rho.
One sector step is checked against the dense ring-model step
U (C o rho / Tr rho) U^dag with U = expm(-iH dt/hbar) (scipy as an
oracle), a short run against the dense Strang product, and whole runs
against the two-axis, unwrapped split-step it replaced, which agrees on
packets whose coherence stays clear of the seam.  The seam guard is
checked on a packet that stays clear of the wrap-around edge and on one
that reaches it, and the one halving check on the final rho on a run too
coarse to pass it.  The ledger reads its
channels in closed form and never runs the split-step; its seam estimate
is checked against the mass the split-step measures, and its energy
against the final rho's where the coherence reaches the seam.
"""

import numpy as np
import pytest
from oracles import (SECTOR_MATCH, dense_kinetic_hamiltonian, fourier_energy, sectors,
                     two_axis_split_step)
from scipy.linalg import expm

from cslsim import ensemble
from cslsim.ensemble import DensityMatrix, grid_lindblad_channels
from cslsim.errors import NumericalFailure
from cslsim.ledger import build_ledger
from cslsim.propagation import GridInfo
from cslsim.scenarios import free_particle_grid
from cslsim.tolerances import SEAM_MARGIN, SEAM_MASS

# Both routes round differently; they must agree to near machine precision.
MATCH = 1e-12


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T / n


def ring_collapse(info, lam, dt):
    """exp(-(lam dt / 2)(d dx)^2) at the minimum-image offset d, as a
    dense matrix and as the vector over d = (i - j) mod N."""
    n = info.n_points
    d = np.arange(n)
    vector = np.exp(-0.5 * lam * dt * (np.minimum(d, n - d) * info.dx) ** 2)
    i = np.arange(n)[:, None]
    return vector[(i - i.T) % n], vector


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
    # With no collapse the sector step is U rho U^dag / Tr rho.
    info = GridInfo(n_points=n_points, dx=0.3, mass=1.3)
    hbar, t = 0.8, 0.37
    u = expm(-1j * dense_kinetic_hamiltonian(info, hbar) * t / hbar)
    rho = scale * random_hermitian(np.random.default_rng(n_points), n_points)
    exact = u @ rho @ u.conj().T / np.trace(rho).real
    phase = np.exp(-1j * info.kinetic_energies(hbar) * t / hbar)
    got = ensemble._sector_step(sectors(rho), np.ones(n_points),
                                phase * ensemble._skewed(phase.conj()))
    want = sectors(exact)
    assert np.abs(got - want).max() <= MATCH * np.abs(want).max()
    half = got[:n_points // 2 + 1]
    assert np.abs(ensemble._rho_from_sectors(half) - exact).max() <= MATCH * np.abs(exact).max()


@pytest.mark.parametrize("n_points", [16, 32])
def test_sector_step_matches_the_dense_ring_step(n_points):
    # A step on a matrix of trace about 2 whose coherence spans the whole
    # ring: collapse at the minimum-image distance, trace divided out,
    # kinetic step.
    info = GridInfo(n_points=n_points, dx=0.7)
    hbar, lam, dt = 1.0, 0.3, 0.4
    u = expm(-1j * dense_kinetic_hamiltonian(info, hbar) * dt / hbar)
    rho = random_hermitian(np.random.default_rng(n_points + 1), n_points)
    dense, vector = ring_collapse(info, lam, dt)
    exact = u @ (dense * rho) @ u.conj().T / np.trace(rho).real
    phase = np.exp(-1j * info.kinetic_energies(hbar) * dt / hbar)
    got = ensemble._sector_step(sectors(rho), vector, phase * ensemble._skewed(phase.conj()))
    want = sectors(exact)
    assert abs(np.trace(rho).real - 1.0) > 0.5
    assert np.abs(got - want).max() <= MATCH * np.abs(want).max()


@pytest.mark.parametrize("n_points", [16, 32])
def test_short_run_matches_the_dense_ring_strang_product(n_points):
    # A packet as wide as the ring, so that the collapse acts across the
    # seam; two steps are U_h C U C U_h on psi0.
    scenario = free_particle_grid(n_points=n_points, dx=0.5, sigma0=2.0, lam=0.4,
                                  t_end=0.6, steps=2, p0=0.8)
    info, hbar, dt = scenario.grid_info, scenario.params.hbar, 0.3
    h = dense_kinetic_hamiltonian(info, hbar)
    full, half = expm(-1j * h * dt / hbar), expm(-0.5j * h * dt / hbar)
    dense, _ = ring_collapse(info, scenario.params.lam, dt)
    psi = half @ scenario.psi0.amplitudes
    rho = np.outer(psi, psi.conj())
    rho = half @ (dense * (full @ (dense * rho) @ full.conj().T)) @ half.conj().T
    got = ensemble._grid_channels_once(scenario, 2)[1]
    assert np.abs(got - rho).max() <= MATCH * np.abs(rho).max()


# Packets whose coherence stays clear of the seam, where the minimum-image
# and the unwrapped distances give the same run up to rounding (measured:
# 1.7e-15 to 5.3e-15 relative).  The 512-point one has the benchmark's shape.
SEAM_CLEAR_PACKETS = [
    dict(n_points=64, dx=1.0, sigma0=2.5, lam=0.05, t_end=1.0, x0=-2.0, p0=0.3),
    dict(n_points=128, dx=0.5, sigma0=2.0, lam=0.05, t_end=1.0, x0=1.0, p0=0.7),
    dict(n_points=512, dx=0.25, sigma0=4.0, lam=0.002, t_end=0.25, x0=1.0, p0=0.3),
]


def test_whole_run_matches_the_two_axis_route():
    for packet in SEAM_CLEAR_PACKETS:
        scenario = free_particle_grid(steps=16, **packet)
        new = ensemble._grid_channels_once(scenario, 16)[1]
        old = two_axis_split_step(scenario, 16)
        assert np.abs(new - old).max() <= MATCH * np.abs(old).max(), packet["n_points"]


def test_every_transform_runs_along_the_last_axis_two_per_step(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        func = getattr(np.fft, name)

        def recorded(a, *args, _func=func, **kwargs):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            calls.append((axis % np.ndim(a) == np.ndim(a) - 1, np.shape(a)))
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    scenario = free_particle_grid(n_points=64, dx=0.5, sigma0=2.0, lam=0.05,
                                  t_end=1.0, steps=32)
    counts, shapes = [], []
    for steps in (8, 16):
        calls.clear()
        ensemble._grid_channels_once(scenario, steps)
        counts.append(len(calls))
        shapes.append(sorted(shape for _, shape in calls))
    # Each step is one forward and one inverse row pass over the
    # N/2 + 1 stepped sectors; building the sectors, the seam form and the
    # final rho add a fixed count.
    fixed = counts[0] - 2 * 8
    assert counts[1] - counts[0] == 2 * 8 and 0 < fixed <= 4
    for shape in shapes[0]:
        shapes[1].remove(shape)
    assert shapes[1] == [(33, 64)] * (2 * 8)
    calls.clear()
    seen = spy_step_counts(monkeypatch)
    ensemble.grid_energy_channels(scenario)
    channel_calls = len(calls)
    assert seen == [] and channel_calls > 0
    calls.clear()
    grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [32, 64]
    assert len(calls) == sum(2 * s + fixed for s in seen) + channel_calls
    assert all(along for along, _ in calls)


@pytest.mark.parametrize("packet", SEAM_CLEAR_PACKETS, ids=lambda k: str(k["n_points"]))
def test_final_rho_is_hermitian_bit_for_bit(packet):
    rho = ensemble._grid_channels_once(free_particle_grid(steps=16, **packet), 16)[1]
    assert np.array_equal(rho, rho.conj().T)


def seam_probe(x0, steps=32):
    return free_particle_grid(n_points=256, dx=0.25, sigma0=2.0, lam=0.002,
                              t_end=8.0, steps=steps, x0=x0)


def seam_coherence_probe():
    """A packet whose coherence, not its mass, reaches the seam: its seam
    mass (4.5e-5) stays below SEAM_MASS."""
    return free_particle_grid(n_points=256, dx=0.25, sigma0=2.0, lam=0.2,
                              t_end=8.0, steps=64, p0=0.5)


@pytest.mark.parametrize("scenario", [seam_probe(24.0), seam_coherence_probe()],
                         ids=["x0=24", "seam-coherence"])
def test_seam_mass_read_from_the_half_matches_the_full_column(monkeypatch, scenario):
    # After every step: the edge form over all N sectors of column 0,
    # sum_kappa f[kappa] Q[kappa, 0], f = ifft(edge), with the sectors
    # taken from their definition on the rho that the stepped half holds.
    info = scenario.grid_info
    n = info.n_points
    edge = np.zeros(n)
    edge[:SEAM_MARGIN] = edge[n - SEAM_MARGIN:] = 1.0
    form = np.fft.ifft(edge)
    full = []
    step = ensemble._sector_step

    def spied(q, *args):
        out = step(q, *args)
        full.append((form @ sectors(ensemble._rho_from_sectors(q))[:, 0]).real)
        return out

    monkeypatch.setattr(ensemble, "_sector_step", spied)
    seam = ensemble._grid_channels_once(scenario, scenario.grid.steps)[0]
    assert len(full) == scenario.grid.steps
    assert seam == pytest.approx(max(full), rel=1e-12)


def test_packet_clear_of_the_seam_converges(monkeypatch):
    scenario = seam_probe(16.0)
    seen = spy_step_counts(monkeypatch)
    series = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [32, 64]
    assert 0.0 < series.seam_mass_max < SEAM_MASS
    # The finer run is returned, with its gap to the coarser one.
    coarse = ensemble._grid_channels_once(scenario, 32)[1]
    fine = ensemble._grid_channels_once(scenario, 64)[1]
    np.testing.assert_array_equal(series.final_rho, fine)
    assert series.achieved_halving_error == np.abs(fine - coarse).max() < 1e-6


def test_mass_at_the_seam_fails_the_first_halving_naming_it(monkeypatch):
    scenario = seam_probe(24.0)
    seen = spy_step_counts(monkeypatch)
    # On the ring the wrapped packet converges (the halving moves rho by
    # 1.5e-7), so the split-step's own seam mass refuses it: 3.116e-2, the
    # channels' estimate to four digits (2.78e-2 on the unwrapped route).
    with pytest.raises(NumericalFailure, match=r"probability mass 3\.\d+e-02 "
                                               r"reached the periodic seam") as exc:
        grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    # No refinement beyond the first halving.
    assert seen == [32, 64]
    # The refusal is the split-step's, not the channels' estimate.
    mass = ensemble._grid_channels_once(scenario, 64)[0]
    assert f"probability mass {mass:.3e} reached the periodic seam" in str(exc.value)
    assert "in the split-step" in str(exc.value)


def test_a_coarse_final_rho_fails_the_halving_check(monkeypatch):
    # 4 against 8 steps moves the final rho by 9.8e-6, above
    # GRID_HALVING_TOL (1e-6), while the energy channels do not depend on
    # the step at all.  The one comparison fails; nothing is refined.
    scenario = seam_probe(16.0, steps=4)
    seen = spy_step_counts(monkeypatch)
    with pytest.raises(NumericalFailure, match=r"not converged: 4 and 8 steps end "
                                               r"9\.\d+e-06 apart in the final density "
                                               r"matrix \(tolerance 1e-06\); raise "
                                               r"grid\.steps"):
        grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [4, 8]


def test_seam_coherence_below_the_seam_mass_converges_at_the_first_halving(monkeypatch):
    scenario = seam_coherence_probe()
    seen = spy_step_counts(monkeypatch)
    series = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    assert seen == [64, 128]
    assert series.achieved_halving_error < 1e-6
    assert series.seam_mass_max < SEAM_MASS


def test_seam_coherence_final_rho_carries_the_ring_energy():
    # The split-step and the channels share the ring, so the final rho's
    # energy is the channel's, although the coherence reaches the seam
    # (1.1e-4 apart when the split-step used the unwrapped distance).
    scenario = seam_coherence_probe()
    series = grid_lindblad_channels(DensityMatrix.from_state(scenario.psi0), scenario)
    got = fourier_energy(series.final_rho, scenario.grid_info, scenario.params.hbar)
    want = series.sys_energy[-1]
    assert abs(got - want) <= SECTOR_MATCH * abs(want)


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


def test_a_mixed_rho0_is_refused_before_any_split_step(monkeypatch):
    # A 512-point packet mixed with an orthogonal packet at weight 1e-6.
    scenario = free_particle_grid(n_points=512, dx=0.25, sigma0=4.0, lam=0.002,
                                  t_end=0.25, steps=8, x0=1.0, p0=0.3)
    psi = scenario.psi0.amplitudes
    other = free_particle_grid(n_points=512, dx=0.25, sigma0=4.0, x0=-8.0).psi0.amplitudes
    other = other - np.vdot(psi, other) * psi
    other /= np.linalg.norm(other)
    weight = 1e-6
    rho0 = DensityMatrix((1.0 - weight) * np.outer(psi, psi.conj())
                         + weight * np.outer(other, other.conj()))
    seen = spy_step_counts(monkeypatch)
    with pytest.raises(ValueError, match=r"requires rho0 = \|psi0><psi0\|"):
        grid_lindblad_channels(rho0, scenario)
    assert seen == []
