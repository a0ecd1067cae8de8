"""Single-trajectory collapse evolution.

A trajectory applies, per time step, the positive Hermitian factor
exp(-(dt / 4 lam) (w_k - 2 lam A_k)^2) with the coupling rotated to the
step midpoint.  The factor splits exactly into a scalar Gaussian piece
and a reduced piece exp(dt (w_k A_k - lam A_k^2)); the squared norm of
the reduced product is the importance weight of the path relative to
the zero-mean Gaussian proposal.  ``evolve`` runs whole paths through
the batched kernel in :mod:`cslsim.propagation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import NumericalFailure
from .hilbert import HermitianOperator, StateVector
from .noise import CollapseParams, NoisePath, TimeGrid, standard_increments
from .propagation import GridInfo, evolve_batch, make_backend
from .tolerances import CONSTRUCTION


@dataclass(frozen=True)
class Scenario:
    """A complete collapse experiment: operators, initial state, parameters.

    For dense scenarios ``hamiltonian`` and ``collapse_op`` are explicit
    Hermitian matrices.  For the periodic-grid particle both are implied
    by ``grid_info`` (kinetic energy diagonal in the transform basis,
    position coupling diagonal on the grid) and the dense fields are left
    unset.
    """

    hamiltonian: Optional[HermitianOperator]
    collapse_op: Optional[HermitianOperator]
    psi0: StateVector
    params: CollapseParams
    grid: TimeGrid
    grid_info: Optional[GridInfo] = None

    def __post_init__(self):
        if self.grid_info is None:
            if self.hamiltonian is None or self.collapse_op is None:
                raise ValueError("dense scenario needs both operators")
            if self.hamiltonian.dim != self.collapse_op.dim:
                raise ValueError("operator dimensions disagree: "
                                 f"{self.hamiltonian.dim} vs {self.collapse_op.dim}")
            if self.psi0.dim != self.collapse_op.dim:
                raise ValueError("initial state dimension does not match operators")
        else:
            if self.psi0.dim != self.grid_info.n_points:
                raise ValueError("initial state dimension does not match grid")
        if abs(math.sqrt(self.psi0.norm2) - 1.0) > CONSTRUCTION:
            raise ValueError(f"initial state must be normalized, norm^2 = {self.psi0.norm2!r}")

    @property
    def dim(self) -> int:
        return self.psi0.dim


@dataclass
class TrajectoryResult:
    """Everything recorded along one path.

    ``final_state`` is the unnormalized end-of-run state in the lab frame
    (its squared norm is the reduced-propagator norm, i.e. the path weight
    relative to the Gaussian measure).  ``weight`` is the statistical
    weight to use in ensemble averages: the importance weight in raw mode,
    1 in cooked mode where paths are already drawn from the physical
    distribution.
    """

    mode: str
    times: np.ndarray
    w: np.ndarray
    weight: float
    log_reduced_norm2: float
    final_state: StateVector
    coupling_populations: np.ndarray
    interaction_sample: float
    series_expA: Optional[np.ndarray] = None
    series_expH: Optional[np.ndarray] = None
    series_log_norm2: Optional[np.ndarray] = None
    field_energy_sample: Optional[float] = None


def evolve(scenario: Scenario, path: Optional[NoisePath] = None, *,
           seed: Union[int, np.random.SeedSequence, None] = None,
           record_series: bool = True, with_field_energy: bool = False) -> TrajectoryResult:
    """Propagate one trajectory.

    Parameters
    ----------
    scenario : Scenario
    path : NoisePath, optional
        Field values to use verbatim (raw or replayed).  When omitted the
        trajectory is cooked: the field is drawn step by step from the
        drifted Gaussian around 2 lam <A>, which requires ``seed``.
    seed : int or SeedSequence
        Entropy for cooked sampling; ignored when ``path`` is given.
    record_series : bool
        Record per-step <A>, <H> and log norm^2.
    with_field_energy : bool
        Also run the reverse sweep and fill ``field_energy_sample``.
        Only meaningful for raw paths, whose ensemble mean it estimates.

    Raises
    ------
    ValueError
        If ``path`` was drawn on another time grid than the scenario's.
    NumericalFailure
        If the path drives the state outside the floating range.
    """
    grid = scenario.grid
    params = scenario.params
    if path is not None and path.grid != grid:
        raise ValueError(f"path drawn on {path.grid} cannot run on the "
                         f"scenario's {grid}")
    backend = make_backend(scenario, grid.dt)
    if path is not None:
        mode, draws = path.mode, path.values
    elif seed is None:
        raise ValueError("cooked evolution needs a seed")
    else:
        mode, draws = "cooked", standard_increments(grid, params, seed)
    # Raw and given paths both run verbatim; only raw ones carry a weight.
    batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws[None, :],
                         mode="cooked" if mode == "cooked" else "raw",
                         record_series=record_series, with_field_energy=with_field_energy)

    if batch.failed[0]:
        raise NumericalFailure(
            "trajectory left the floating range; largest |w| = "
            f"{np.abs(batch.w[0]).max():.4g} over {grid.steps} steps")

    log_red = float(batch.log_red[0])
    weight = math.exp(log_red) if mode == "raw" else 1.0
    populations, psi_lab = backend.read_out(batch.final_internal)
    final_state = StateVector(psi_lab[0] * math.exp(0.5 * log_red))
    v_sample = float(batch.interaction[0]) * weight

    def first(rows):
        return None if rows is None else rows[0].copy()

    return TrajectoryResult(
        mode=mode,
        times=grid.times,
        w=batch.w[0].copy(),
        weight=weight,
        log_reduced_norm2=log_red,
        final_state=final_state,
        coupling_populations=populations[0],
        interaction_sample=v_sample,
        series_expA=first(batch.series_expA),
        series_expH=first(batch.series_expH),
        series_log_norm2=first(batch.log_red_series),
        field_energy_sample=(None if batch.field_energy is None
                             else float(batch.field_energy[0])),
    )

