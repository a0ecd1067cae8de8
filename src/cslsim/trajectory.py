"""Collapse scenarios and the replay of one ensemble trajectory.

A trajectory applies, per time step, the positive Hermitian factor
exp(-(dt / 4 lam) (w_k - 2 lam A_k)^2) with the coupling rotated to the
step midpoint.  The factor splits exactly into a scalar Gaussian piece
and a reduced piece exp(dt (w_k A_k - lam A_k^2)); the squared norm of
the reduced product is the importance weight of the path relative to
the zero-mean Gaussian proposal.  ``evolve`` replays one cooked
trajectory of an ensemble: it draws that trajectory's increments as the
ensemble does and runs them as a one-row batch of the kernel in
:mod:`cslsim.propagation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure
from .hilbert import HermitianOperator, StateVector
from .noise import CollapseParams, TimeGrid, block_increments
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
    """The field and end state of one cooked trajectory.

    ``w`` holds the field value of every step; ``final_state`` is the
    normalized end-of-run state in the lab frame, the state an ensemble
    keeps, and ``coupling_populations`` its populations in the coupling
    eigenbasis.
    """

    w: np.ndarray
    final_state: StateVector
    coupling_populations: np.ndarray


def evolve(scenario: Scenario, master_seed: int, index: int) -> TrajectoryResult:
    """Replay cooked trajectory ``index`` of
    ``run_ensemble(scenario, n, "cooked", master_seed)``.

    The increments are the ensemble's own: :func:`block_increments` draws
    the block of 64 trajectories that holds ``index`` and keeps its row,
    which is run through the kernel as a one-row batch.  On the grid
    the final state equals the kept state of the ensemble bit for bit; on
    a dense scenario the one-row matrix products round differently, so it
    agrees to rounding.

    Raises
    ------
    NumericalFailure
        If the path drives the state outside the floating range.
    """
    grid = scenario.grid
    backend = make_backend(scenario, grid.dt)
    draws = block_increments(grid, scenario.params, master_seed, index, index + 1)
    batch = evolve_batch(backend, grid, scenario.params, scenario.psi0.amplitudes,
                         draws, mode="cooked")
    if batch.failed[0]:
        raise NumericalFailure(
            "trajectory left the floating range; largest |w| = "
            f"{np.abs(batch.w[0]).max():.4g} over {grid.steps} steps")
    populations, psi_lab = backend.read_out(batch.final_internal)
    return TrajectoryResult(w=batch.w[0], final_state=StateVector(psi_lab[0]),
                            coupling_populations=populations[0])
