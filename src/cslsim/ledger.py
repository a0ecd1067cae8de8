"""Energy bookkeeping for the collapse model.

The model trades system energy against field energy while their sum stays
constant in ensemble mean.  The three entries are computed by independent
routes and only then added:

* system energy: Tr(H rho(t)) on the deterministic density-matrix series;
* field energy: (lam/2) * integral of Tr([A,[A,H]] rho(t)) dt, a
  quadrature over the same series but through a different formula;
* interaction energy: exactly zero in ensemble mean (the terminal field
  value centers on 2 lam <A>); the deterministic ledger records zero and
  the Monte Carlo estimate of the same functional is reported separately
  (``EnsembleStats.interaction_mean``) as a cross-check.

The headline property is that system + field is constant to quadrature
tolerance for arbitrary scenarios, not just integrable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import (DensityMatrix, LindbladSeries, grid_energy_channels,
                       lindblad_propagate)
from .errors import NumericalFailure
from .hilbert import HermitianOperator
from .tolerances import QUADRATURE
from .trajectory import Scenario


@dataclass(frozen=True)
class EnergyLedger:
    """Time series of the conserved bookkeeping triple."""

    times: np.ndarray
    system: np.ndarray
    field: np.ndarray
    interaction: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.system + self.field + self.interaction


def field_energy_quadrature(scenario: Scenario, series: LindbladSeries) -> np.ndarray:
    """Field energy transferred by time t, as a cumulative quadrature.

    Integrates (lam/2) Tr([A,[A,H]] rho(t')) dt' with the composite
    trapezoid rule on the series grid.  The result at t=0 is exactly
    zero.  The same rule over every second sample gives a coarse
    cumulative integral at the shared times; its largest gap to the fine
    one, divided by 3, estimates the fine rule's error, and the call fails
    when that estimate exceeds :func:`balance_tolerance`, the budget the
    ledger itself is judged by.
    """
    f = 0.5 * scenario.params.lam * series.dc_trace
    t = series.times
    dt = np.diff(t)
    increments = 0.5 * (f[1:] + f[:-1]) * dt
    out = np.concatenate([[0.0], np.cumsum(increments)])

    fc, tc = f[::2], t[::2]
    coarse = np.concatenate([[0.0], np.cumsum(0.5 * (fc[1:] + fc[:-1]) * np.diff(tc))])
    # Richardson: trapezoid error scales by 4 under halving, so the
    # difference overstates the fine-grid error by a factor 3.
    estimate = float(np.abs(out[::2] - coarse).max()) / 3.0
    budget = balance_tolerance(scenario)
    if estimate > budget:
        raise NumericalFailure(
            f"field-energy quadrature not converged: decimation estimates an "
            f"error of {estimate:.3e} (budget {budget:.3e}); raise grid.steps")
    return out


def build_ledger(scenario: Scenario, *,
                 series: Optional[LindbladSeries] = None) -> EnergyLedger:
    """Assemble the full ledger for a scenario.

    Unless a precomputed ``series`` is supplied, dense scenarios run the
    deterministic evolution from their pure initial state on their own
    time grid, and grid scenarios take their exact channels from
    :func:`grid_energy_channels`.
    """
    if series is None and scenario.grid_info is not None:
        series = grid_energy_channels(scenario)
    elif series is None:
        rho0 = DensityMatrix.from_state(scenario.psi0)
        series = lindblad_propagate(rho0, scenario)
    field_series = field_energy_quadrature(scenario, series)
    # The interaction energy is identically zero in ensemble mean.
    return EnergyLedger(times=series.times.copy(), system=series.sys_energy.copy(),
                        field=field_series, interaction=np.zeros_like(series.times))


def conservation_check(ledger: EnergyLedger) -> float:
    """Largest deviation of the total from its initial value."""
    total = ledger.total
    return float(np.abs(total - total[0]).max())


def balance_tolerance(scenario: Scenario) -> float:
    """The ledger's one error budget: the largest deviation of the total
    that a balanced ledger may show, and the largest error that
    :func:`field_energy_quadrature` accepts at any sample.  It is
    ``QUADRATURE`` relative to the energy scale of the Hamiltonian, its
    largest |eigenvalue| (on the grid, its largest kinetic energy), and
    absolute below a scale of 1."""
    if scenario.grid_info is not None:
        h_norm = scenario.grid_info.kinetic_energies(scenario.params.hbar).max()
    else:
        h_norm = np.abs(scenario.hamiltonian.spectrum().eigenvalues).max()
    return QUADRATURE * max(float(h_norm), 1.0)


def observable_drift(q: HermitianOperator, scenario: Scenario,
                     series: LindbladSeries) -> np.ndarray:
    """Predicted drift rate of a conserved-in-isolation observable.

    Returns -(lam/2) Tr([A,[A,q(t)]] rho(t)) with the rotated observable
    q(t) = exp(-iHt/hbar) q exp(iHt/hbar), which equals the time
    derivative of the rotating-frame expectation Tr(q rho_I(t)).  For q
    commuting with H (the system energy itself, or momentum for the free
    particle) the rotation drops out and this is also the derivative of
    the plain expectation.

    Evaluated as Tr(q(t) [A,[A,rho(t)]]) in the eigenbasis of H, where
    q(t)_mn = q_mn exp(-i(E_m - E_n)t/hbar).  The map taking rho to the
    terms q_mn (V^dag [A,[A,rho]] V)_nm, V the eigenvectors of H, is
    linear and fixed, so it is built once as a d^2 x d^2 matrix (row
    (n, m) of each of its three Kronecker terms reads the (n, m) entry of
    a sandwich V^dag X rho Y V).  One (T x d^2)(d^2 x d^2) product then
    gives every term at every time, and the trace is their
    phase-weighted row sum.
    """
    if series.rhos is None:
        raise ValueError("observable drift needs a dense series")
    a = scenario.collapse_op.matrix
    spec = scenario.hamiltonian.spectrum()
    v = spec.eigenvectors
    vh = v.conj().T
    a2 = a @ a
    # (V^dag X rho Y V)_nm = sum_kl (V^dag X)_nk rho_kl (Y V)_lm: row (n, m),
    # column (k, l) of kron(V^dag X, (Y V)^T).
    sandwich = (np.kron(vh @ a2, v.T) + np.kron(vh, (a2 @ v).T)
                - 2.0 * np.kron(vh @ a, (a @ v).T))
    q_eig = vh @ q.matrix @ v
    # Row (n, m) pairs with q_mn, the transpose's (n, m) entry, and with the
    # phase exp(-i(E_m - E_n)t/hbar) = u_n u_m*, u = exp(iEt/hbar): T x d
    # exponentials rather than T x d^2.
    kernel = q_eig.T.reshape(-1, 1) * sandwich
    t = series.times
    u = np.exp(1j * np.outer(t, spec.eigenvalues / scenario.params.hbar))
    phases = (u[:, :, None] * u.conj()[:, None, :]).reshape(t.size, -1)
    terms = series.rhos.reshape(t.size, -1) @ kernel.T
    trace = np.einsum("tj,tj->t", phases, terms)
    return -0.5 * scenario.params.lam * trace.real
