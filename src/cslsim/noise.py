"""Time discretization and collapse-noise sampling.

The collapse field w(t) is represented as a step function: one value per
interval of a uniform ``TimeGrid``, constant on [t_k, t_{k+1}).  The
field is sampled in one of two modes:

* ``raw``: values are i.i.d. Normal(0, lam/dt).  This is the reference
  Gaussian measure of the model; physical averages are recovered by
  weighting each path with the squared norm of its reduced propagator
  (see the ensemble module).
* ``cooked``: values follow the physical path distribution to leading
  order in dt, i.e. Normal(2*lam*<A(t)>, lam/dt) with the mean taken in
  the current normalized state at the left endpoint of the step.  Cooked
  paths are produced *by* an evolution, not ahead of it, because the mean
  is state dependent.

Seeding contract: trajectories are seeded in blocks of 64 consecutive
indices (``_BLOCK``).  Block ``b`` draws from one PCG64 generator,
``default_rng(SeedSequence(master_seed, spawn_key=(b,)))``: its
(64, S) standard normals are drawn trajectory-major, and trajectory
``index`` takes row ``index % 64`` of block ``index // 64``.  The
draws of a trajectory therefore depend only on ``(master_seed, index)``,
not on how trajectories are batched across workers, and any trajectory
of an ensemble can be replayed on its own by drawing its block.

Memory: ``block_increments`` draws into a new array, or into the front of
a caller's flat buffer (``out=``), so that an ensemble worker can reuse
one buffer for every chunk it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


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


# Trajectories per noise stream; part of the seeding contract.
_BLOCK = 64

# Bytes of the tile through which ``block_increments`` draws: a block's
# stream is drawn into the tile a few rows at a time (successive draws
# continue the stream), and each piece is scaled into its columns.  64 KiB
# stays in cache, and stays below glibc's 128 KiB mmap threshold: freeing
# a larger, mmap-backed tile raises that threshold, after which the
# kernel's per-step temporaries fragment the worker threads' heaps (a
# 64-row tile of 400-step draws raised the peak RSS of the three dense
# benchmark parts, run in turn, by 25 MB).
_TILE_BYTES = 1 << 16


def block_increments(grid: TimeGrid, params: CollapseParams, master_seed: int,
                     lo: int, hi: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The zero-mean parts of the paths of trajectories ``lo`` .. ``hi - 1``,
    shape (hi - lo, S), held step-major: the result is the transposed view
    of a C-order (S, hi - lo) array, so the draws of one step are
    contiguous.

    Row ``r`` is row ``(lo + r) % 64`` of ``default_rng(SeedSequence(
    master_seed, spawn_key=((lo + r) // 64,))).standard_normal((64, S))``
    times ``sqrt(lam / dt)``, bit for bit: each block is one PCG64 stream,
    drawn through a small tile.  A range that starts inside a block draws
    and discards the block's rows before ``lo``, and one that ends inside
    a block stops drawing at ``hi``, so a row's draws do not depend on the
    range it is drawn in.

    With ``out``, a contiguous 1-D float64 buffer of at least
    S * (hi - lo) entries, the draws fill its first S * (hi - lo) entries
    and the result is a view of them; the rest of the buffer is left as it
    is.  Without it they go into a new array.

    Raises
    ------
    ValueError
        If ``master_seed`` is negative, not ``0 <= lo <= hi``, or ``out``
        holds fewer than S * (hi - lo) entries.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    size = grid.steps * (hi - lo)
    draws = (np.empty(size) if out is None else out[:size]).reshape(grid.steps, hi - lo)
    sigma = np.sqrt(params.lam / grid.dt)
    tile = np.empty((min(_BLOCK, max(1, _TILE_BYTES // (8 * grid.steps))), grid.steps))
    for first in range(lo - lo % _BLOCK, hi, _BLOCK):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(first // _BLOCK,)))
        stop = min(first + _BLOCK, hi)
        for start in range(first, stop, tile.shape[0]):
            end = min(start + tile.shape[0], stop)
            rows = tile[:end - start]
            rng.standard_normal(out=rows)
            keep = max(lo, start)
            if keep < end:
                np.multiply(rows[keep - start:].T, sigma, out=draws[:, keep - lo:end - lo])
    return draws.T
