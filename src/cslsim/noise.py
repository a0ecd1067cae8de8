"""Time discretization and collapse-noise sampling.

The collapse field w(t) is represented as a step function: one value per
interval of a uniform ``TimeGrid``, constant on [t_k, t_{k+1}).  Two
sampling modes exist:

* ``raw``: values are i.i.d. Normal(0, lam/dt).  This is the reference
  Gaussian measure of the model; physical averages are recovered by
  weighting each path with the squared norm of its reduced propagator
  (see the trajectory module).
* ``cooked``: values follow the physical path distribution to leading
  order in dt, i.e. Normal(2*lam*<A(t)>, lam/dt) with the mean taken in
  the current normalized state at the left endpoint of the step.  Cooked
  paths are produced *by* an evolution, not ahead of it, because the mean
  is state dependent.

Seeding contract: every trajectory draws its standardized increments in a
single vectorized call from a generator derived as
``SeedSequence(master_seed, spawn_key=(index,))``.  Results are therefore
reproducible and independent of how trajectories are batched across
workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# Discretization validity: a step must not let the collapse exponent
# explore the full spectral range of the coupling in one go.  Warn when
# dt * lam * (spectral range)^2 exceeds this.
VALIDITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class CollapseParams:
    """Collapse strength and Planck constant.

    ``lam`` has units of 1/(time * [A]^2); the field values w then carry
    units of lam * [A], which is what makes 2*lam*<A> a legal mean.
    """

    lam: float
    hbar: float = 1.0

    def __post_init__(self):
        # lam = 0 is the closed-system limit: no noise, no dissipator.
        # It is legal everywhere except the Gaussian path density, which
        # is singular there.
        if not (self.lam >= 0.0) or not np.isfinite(self.lam):
            raise ValueError(f"collapse rate must be non-negative and finite, got {self.lam}")
        if not (self.hbar > 0.0) or not np.isfinite(self.hbar):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals covering [0, t_end]."""

    t_end: float
    steps: int

    def __post_init__(self):
        if not (self.t_end > 0.0) or not np.isfinite(self.t_end):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0 ... t_S = t_end (length steps + 1)."""
        return np.linspace(0.0, self.t_end, self.steps + 1)

    @property
    def midpoints(self) -> np.ndarray:
        """Interval midpoints, where the evolution evaluates operators."""
        return (np.arange(self.steps) + 0.5) * self.dt

    def check_validity(self, lam: float, spectral_range: float) -> float:
        """Warn if the step size is too coarse for the collapse strength.

        Returns the dimensionless figure dt * lam * range^2; values that
        are not small mean a single step can resolve the full coupling
        spectrum and the step-function representation of w is suspect.
        """
        figure = self.dt * lam * spectral_range**2
        if figure > VALIDITY_THRESHOLD:
            warnings.warn(
                f"coarse time step: dt*lam*range^2 = {figure:.3g} exceeds "
                f"{VALIDITY_THRESHOLD}; collapse discretization may be inaccurate",
                stacklevel=2,
            )
        return figure


@dataclass(frozen=True, eq=False)
class NoisePath:
    """A realized step function w with one value per grid interval."""

    grid: TimeGrid
    values: np.ndarray
    mode: str
    seed: object = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.steps,):
            raise ValueError(
                f"path needs {self.grid.steps} values, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("path values must be finite")
        if self.mode not in ("raw", "cooked", "given"):
            raise ValueError(f"unknown mode {self.mode!r}")
        v = np.array(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def trajectory_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Derive the per-trajectory seed stream from a master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def standard_increments(grid: TimeGrid, params: CollapseParams, seed) -> np.ndarray:
    """Draw the zero-mean part of a path: S values ~ Normal(0, lam/dt).

    ``seed`` may be an int or a ``SeedSequence``.  Exactly one vectorized
    draw is made, which is the whole reproducibility contract: the same
    seed gives the same increments no matter who consumes them.
    """
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(params.lam / grid.dt)
    return rng.standard_normal(grid.steps) * sigma


def sample_raw(grid: TimeGrid, params: CollapseParams, seed) -> NoisePath:
    """Sample a raw-measure path: i.i.d. Normal(0, lam/dt) values."""
    return NoisePath(grid, standard_increments(grid, params, seed), "raw", seed)
