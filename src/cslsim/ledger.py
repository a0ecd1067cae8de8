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
from .hilbert import HermitianOperator, double_commutator
from .tolerances import QUADRATURE
from .trajectory import Scenario


@dataclass(frozen=True)
class EnergyLedger:
    """Time series of the conserved bookkeeping triple."""

    times: np.ndarray
    system: np.ndarray
    field: np.ndarray
    interaction: np.ndarray
    label: str = ""

    @property
    def total(self) -> np.ndarray:
        return self.system + self.field + self.interaction


def system_energy(series: LindbladSeries, hamiltonian: Optional[HermitianOperator]) -> np.ndarray:
    """Tr(H rho(t)) along a deterministic series.

    Grid series carry this as a precomputed channel (their matrices are
    not stored); dense series are traced directly.
    """
    if series.rhos is None:
        if series.sys_energy is None:
            raise ValueError("series carries neither matrices nor an energy channel")
        return series.sys_energy.copy()
    if hamiltonian is None:
        return np.zeros_like(series.times)
    return np.einsum("tij,ji->t", series.rhos, hamiltonian.matrix).real


def _dc_integrand(scenario: Scenario, series: LindbladSeries) -> np.ndarray:
    if series.rhos is None:
        if series.dc_trace is None:
            raise ValueError("series carries neither matrices nor the commutator channel")
        return series.dc_trace.copy()
    if scenario.hamiltonian is None:
        return np.zeros_like(series.times)
    d = double_commutator(scenario.collapse_op, scenario.hamiltonian)
    return np.einsum("tij,ji->t", series.rhos, d.matrix).real


def field_energy_quadrature(scenario: Scenario, series: LindbladSeries) -> np.ndarray:
    """Field energy transferred by time t, as a cumulative quadrature.

    Integrates (lam/2) Tr([A,[A,H]] rho(t')) dt' with the composite
    trapezoid rule on the series grid.  The result at t=0 is exactly
    zero.  A decimation check (recomputing the endpoint value from every
    second sample) must agree to quadrature tolerance, otherwise the
    series is too coarse and the call fails.
    """
    f = 0.5 * scenario.params.lam * _dc_integrand(scenario, series)
    t = series.times
    dt = np.diff(t)
    increments = 0.5 * (f[1:] + f[:-1]) * dt
    out = np.concatenate([[0.0], np.cumsum(increments)])

    if t.size >= 5 and (t.size - 1) % 2 == 0:
        fc, tc = f[::2], t[::2]
        coarse = float(np.sum(0.5 * (fc[1:] + fc[:-1]) * np.diff(tc)))
        scale = max(abs(out[-1]), float(np.abs(f).max()) * (t[-1] - t[0]), 1e-30)
        defect = abs(out[-1] - coarse) / scale
        # Richardson: trapezoid error scales by 4 under halving, so the
        # difference overstates the fine-grid error by a factor 3.
        if defect / 3.0 > QUADRATURE:
            raise NumericalFailure(
                f"field-energy quadrature not converged: decimation moves the "
                f"endpoint by {defect:.3e} relative (tolerance {QUADRATURE})")
    return out


def build_ledger(scenario: Scenario, *, steps: Optional[int] = None,
                 series: Optional[LindbladSeries] = None,
                 label: str = "") -> EnergyLedger:
    """Assemble the full ledger for a scenario.

    Runs the deterministic evolution from the scenario's pure initial
    state unless a precomputed ``series`` is supplied.  Grid scenarios
    take their exact channels from :func:`grid_energy_channels` instead,
    so ``steps`` does not apply to them.
    """
    if series is None and scenario.grid_info is not None:
        series = grid_energy_channels(scenario)
    elif series is None:
        rho0 = DensityMatrix.from_state(scenario.psi0)
        series = lindblad_propagate(rho0, scenario, steps=steps)
    sys_series = system_energy(series, scenario.hamiltonian)
    field_series = field_energy_quadrature(scenario, series)
    # The interaction energy is identically zero in ensemble mean.
    return EnergyLedger(times=series.times.copy(), system=sys_series,
                        field=field_series, interaction=np.zeros_like(series.times),
                        label=label or scenario.label)


def conservation_check(ledger: EnergyLedger) -> float:
    """Largest deviation of the total from its initial value."""
    total = ledger.total
    return float(np.abs(total - total[0]).max())


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
    q(t)_mn = q_mn exp(-i(E_m - E_n)t/hbar): the double commutators of
    the whole series are batched products, and one contraction reads
    every time at once.
    """
    if series.rhos is None:
        raise ValueError("observable drift needs a dense series")
    a = scenario.collapse_op.matrix
    spec = scenario.hamiltonian.spectrum()
    v = spec.eigenvectors
    rhos = series.rhos
    a2 = a @ a
    dc_eig = v.conj().T @ (a2 @ rhos + rhos @ a2 - 2.0 * (a @ rhos @ a)) @ v
    q_eig = v.conj().T @ q.matrix @ v
    omega = np.subtract.outer(spec.eigenvalues, spec.eigenvalues) / scenario.params.hbar
    phases = np.exp(-1j * series.times[:, None, None] * omega)
    trace = np.einsum("mn,tmn,tnm->t", q_eig, phases, dc_eig)
    return -0.5 * scenario.params.lam * trace.real

