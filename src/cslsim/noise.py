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

Seeding contract: trajectory ``index`` of a run at ``master_seed`` draws
its standardized increments in a single vectorized call from a PCG64
generator seeded by ``SeedSequence(master_seed, spawn_key=(index,))``.
``block_increments`` derives the seed words of a whole chunk in one
vectorized pass over its indices, so the draws of a trajectory do not
depend on how trajectories are batched across workers, and any
trajectory of an ensemble can be replayed on its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence


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


# SeedSequence's pool size and hash constants (O'Neill's seed_seq_fe, as
# numpy implements it in numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, mult: int, step: int = _MULT_A) -> tuple:
    """SeedSequence's ``hashmix`` on uint32 arrays: the hashed value and the
    multiplier advanced by ``step`` (``_MULT_B`` when generating state)."""
    value = value ^ mult
    mult = (mult * step) & _MASK32
    value = value * np.uint32(mult)
    return value ^ (value >> 16), mult


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two pool words."""
    z = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return z ^ (z >> 16)


def _spawned_state_words(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(i,)).generate_state(4,
    np.uint64)`` for every ``i`` in ``indices`` at once, shape (B, 4).

    The entropy is the master seed's 32-bit words, zero-padded to the pool
    size because a spawn key is present, followed by the index as the one
    spawn-key word; pool mixing and state generation then follow
    SeedSequence step by step on uint32 arrays, whose products wrap as the
    C code's do.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ValueError("indices must be a 1-D array of integers")
    if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
        raise ValueError("trajectory indices must lie in [0, 2**32): a larger "
                         "index takes two spawn-key words")
    n_run = max(1, (master_seed.bit_length() + 31) // 32)
    run = [np.array([(master_seed >> (32 * k)) & _MASK32], dtype=np.uint32)
           for k in range(n_run)]
    pad = [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - n_run)
    entropy = run + pad + [idx.astype(np.uint32)]

    mult = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, mult = _hashmix(word, mult)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, mult = _hashmix(pool[src], mult)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, mult = _hashmix(word, mult)
            pool[dst] = _mix(pool[dst], hashed)

    # generate_state(4, uint64): eight uint32 words read cyclically from
    # the pool, paired little-endian into 64-bit words.
    mult = _INIT_B
    state = np.empty((idx.size, 8), dtype=np.uint64)
    for k in range(8):
        state[:, k], mult = _hashmix(pool[k % _POOL_SIZE], mult, _MULT_B)
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


class _StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 precomputed state words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self._words.size or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve only PCG64 seeding")
        return self._words


# Bytes of the tile through which ``block_increments`` draws: each
# trajectory is drawn into a row of the tile, and the tile is written into
# its block of columns.  64 KiB stays in cache, and stays below glibc's
# 128 KiB mmap threshold: freeing a larger, mmap-backed tile raises that
# threshold, after which the kernel's per-step temporaries fragment the
# worker threads' heaps (a 64-row tile of 400-step draws raised the peak
# RSS of the three dense benchmark parts, run in turn, by 25 MB).
_TILE_BYTES = 1 << 16


def block_increments(grid: TimeGrid, params: CollapseParams, master_seed: int,
                     indices: np.ndarray) -> np.ndarray:
    """The zero-mean parts of the paths of trajectories ``indices``, shape
    (B, S), held step-major: the result is the transposed view of a
    C-order (S, B) array, so the draws of one step are contiguous.

    Row ``r`` of the result equals ``default_rng(SeedSequence(master_seed,
    spawn_key=(indices[r],))).standard_normal(S) * sqrt(lam / dt)`` bit for
    bit: the seed words of all trajectories are derived in one vectorized
    pass, and each trajectory is one vectorized draw from its own PCG64
    stream into a row of a small tile, which is scaled into place.
    """
    words = _spawned_state_words(master_seed, indices)
    b = words.shape[0]
    sigma = np.sqrt(params.lam / grid.dt)
    draws = np.empty((grid.steps, b))
    per_tile = max(1, _TILE_BYTES // (8 * grid.steps))
    tile = np.empty((min(b, per_tile), grid.steps))
    for lo in range(0, b, per_tile):
        rows = tile[:min(per_tile, b - lo)]
        for row, w in zip(rows, words[lo:lo + per_tile]):
            rng = np.random.Generator(np.random.PCG64(_StateWords(w)))
            rng.standard_normal(out=row)
        np.multiply(rows.T, sigma, out=draws[:, lo:lo + rows.shape[0]])
    return draws.T
