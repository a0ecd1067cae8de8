"""Output checks for the benchmark workloads.

Every check compares a cslsim output with a value computed here, apart
from cslsim (closed forms, a ``scipy.linalg.expm`` oracle, finite
differences, FFT energies of the returned states), or with a property
the method must have.  None compares with a stored copy of an earlier
output.  Each check returns a :class:`Check`; a failed check marks the
operation that produced the output as failed.

Monte Carlo bands.  A band of k standard errors fails by chance with
probability erfc(k / sqrt 2) even on correct code: 2.7e-3 at 3 SE.  The
benchmark runs every workload on tens of seeds (a steadiness proof is
ten seeds twice), and a chance failure on one seed changes the share of
failed operations between two sets of runs.  The bands are therefore
set at 5 SE (5.7e-7 per comparison), which keeps the chance of a false
failure below 1e-4 over a hundred seeds while a wrong target still
lands tens of SE away (see the benchmark's tests).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

MC_BAND = 5.0


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def within_se(name: str, estimate: float, se: float, target: float,
              band: float = MC_BAND) -> Check:
    """|estimate - target| <= band * se."""
    z = abs(estimate - target) / se if se > 0.0 else math.inf
    return Check(name, bool(z <= band),
                 f"{estimate:.6g} vs {target:.6g}: {z:.2f} SE (<= {band})")


def at_most(name: str, value: float, limit: float) -> Check:
    return Check(name, bool(value <= limit), f"{value:.3e} (<= {limit:.1e})")


def equal(name: str, got, want) -> Check:
    return Check(name, got == want, f"{got!r} (want {want!r})")


# ---------------------------------------------------------------- digests

def digest(*values) -> str:
    """SHA-256 over the exact bits of arrays and numbers (None allowed)."""
    h = hashlib.sha256()
    for v in values:
        if v is None:
            h.update(b"none")
        elif isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(np.float64(v).tobytes() if isinstance(v, float)
                     else repr(v).encode())
    return h.hexdigest()


def stats_digest(stats) -> str:
    """Digest of every numeric output of an ``EnsembleStats``."""
    return digest(stats.n_success, stats.n_failed, stats.outcome_values,
                  stats.outcome_frequencies, stats.outcome_errors,
                  stats.effective_sample_size, stats.mean_weight,
                  stats.mean_weight_se, stats.interaction_mean,
                  stats.interaction_se, stats.field_energy_mean,
                  stats.field_energy_se, stats.times, stats.mean_coupling,
                  stats.mean_hamiltonian, stats.final_states,
                  stats.final_weights)


# ---------------------------------------------------------------- oracles

def lindblad_expm(h: np.ndarray, a: np.ndarray, lam: float, hbar: float,
                  rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) rho0 for L rho = -(i/hbar)[H, rho] - (lam/2)[A, [A, rho]].

    Built on the row-major vectorization vec(X rho Y) = (X kron Y^T) vec(rho).
    scipy is imported here, not at the top, so that the set-up timing of
    a fresh process does not include it.
    """
    from scipy.linalg import expm

    d = h.shape[0]
    eye = np.eye(d)
    a2 = a @ a
    liou = ((-1j / hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
            - 0.5 * lam * (np.kron(a2, eye) + np.kron(eye, a2.T)
                           - 2.0 * np.kron(a, a.T)))
    return (expm(liou * t) @ rho0.reshape(-1)).reshape(d, d)


def ensemble_rho_and_se(states: np.ndarray) -> tuple:
    """Mean of |psi><psi| over rows and the standard error of each entry."""
    outer = states[:, :, None] * states[:, None, :].conj()
    mean = outer.mean(axis=0)
    dev = outer - mean
    se = np.sqrt(np.mean(dev.real**2 + dev.imag**2, axis=0) / states.shape[0])
    return mean, se


def grid_kinetic_energies(states: np.ndarray, dx: float, mass: float,
                          hbar: float) -> np.ndarray:
    """<p^2 / 2m> of each normalized row on a periodic grid, by FFT."""
    n = states.shape[-1]
    p = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=dx)
    spec = np.fft.fft(states, axis=-1)
    dens = spec.real**2 + spec.imag**2
    return (dens @ (p * p / (2.0 * mass))) / n


def fd_drift(values: np.ndarray, h: float, idx: np.ndarray) -> np.ndarray:
    """Fourth-order central difference of a uniformly sampled series."""
    d_h = (values[idx + 1] - values[idx - 1]) / (2.0 * h)
    d_2h = (values[idx + 2] - values[idx - 2]) / (4.0 * h)
    return (4.0 * d_h - d_2h) / 3.0


# ------------------------------------------------------- Monte Carlo checks

def born_frequency(stats, weight_upper: float, upper_value: float) -> Check:
    freq, _ = stats.frequency(upper_value)
    se = math.sqrt(weight_upper * (1.0 - weight_upper) / stats.n_success)
    return within_se("born_frequency", freq, se, weight_upper)


def field_energy(stats, target: float) -> Check:
    return within_se("field_energy_estimator", stats.field_energy_mean,
                     stats.field_energy_se, target)


def mean_weight(stats, target: float = 1.0) -> Check:
    return within_se("mean_weight", stats.mean_weight, stats.mean_weight_se,
                     target)


def final_rho(stats, rho_exact: np.ndarray, band: float = MC_BAND) -> Check:
    """Ensemble rho(T) against exp(L T) rho0, entry by entry in SE."""
    rho_mc, se = ensemble_rho_and_se(stats.final_states)
    z = float((np.abs(rho_mc - rho_exact) / se).max())
    return Check("final_rho_vs_expm", bool(z <= band),
                 f"max deviation {z:.2f} SE (<= {band})")


def interaction_mean(stats, target: float = 0.0) -> Check:
    return within_se("interaction_mean", stats.interaction_mean,
                     stats.interaction_se, target)


def grid_heating(stats, e0: float, dx: float, mass: float, hbar: float,
                 target: float) -> Check:
    """<H>(T) - <H>(0) against the heating target, SE from final states."""
    energies = grid_kinetic_energies(stats.final_states, dx, mass, hbar)
    se = float(energies.std() / math.sqrt(energies.size))
    return within_se("grid_heating", float(energies.mean()) - e0, se, target)


# ----------------------------------------------------- deterministic checks

def ledger_balance(ledger, h_norm: float, budget: float = 1e-6) -> Check:
    """System + field energy constant within ``budget`` * |H|."""
    total = ledger.system + ledger.field + ledger.interaction
    dev = float(np.abs(total - total[0]).max())
    return at_most("ledger_balance", dev / h_norm, budget)


def drift_law(energy: np.ndarray, drift: np.ndarray, times: np.ndarray,
              limit: float = 1e-6) -> Check:
    """Predicted d<H>/dt against finite differences of <H>(t)."""
    h = float(times[1] - times[0])
    idx = np.arange(2, times.size - 2, 37)
    err = np.abs(fd_drift(energy, h, idx) - drift[idx]).max()
    return at_most("drift_law", float(err / np.abs(drift).max()), limit)


def final_rho_exact(rho: np.ndarray, rho_exact: np.ndarray,
                    limit: float = 1e-8) -> Check:
    return at_most("rho_vs_expm", float(np.abs(rho - rho_exact).max()), limit)


def coherence_decay(times: np.ndarray, rho01: np.ndarray, rate: float,
                    limit: float = 1e-8) -> Check:
    """rho_01(t) against rho_01(0) exp(-rate t), relative."""
    exact = rho01[0] * np.exp(-rate * times)
    return at_most("coherence_decay",
                   float(np.max(np.abs(rho01 - exact) / np.abs(exact))), limit)


def heating_slope(times: np.ndarray, system: np.ndarray, target: float,
                  limit: float = 1e-6) -> Check:
    slope = float(np.polyfit(times, system, 1)[0])
    return at_most("grid_heating_slope", abs(slope - target) / abs(target), limit)


def final_field_energy(field_end: float, target: float,
                       limit: float = 1e-6) -> Check:
    return at_most("grid_field_energy", abs(field_end - target) / abs(target), limit)


def tail_exponent(exponent: float, target: float = 1.0,
                  limit: float = 0.1) -> Check:
    return at_most("tail_exponent", abs(exponent - target), limit)
