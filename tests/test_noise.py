"""Tests for time discretization and collapse-noise sampling."""

import numpy as np
import pytest
from oracles import trajectory_increments

from cslsim.noise import CollapseParams, TimeGrid, block_increments


class TestCollapseParams:
    def test_rejects_negative_or_non_finite_rate(self):
        with pytest.raises(ValueError):
            CollapseParams(lam=-0.1)
        with pytest.raises(ValueError):
            CollapseParams(lam=np.nan)

    def test_zero_rate_is_the_closed_system_limit(self):
        assert CollapseParams(lam=0.0).lam == 0.0

    def test_rejects_bad_hbar(self):
        with pytest.raises(ValueError):
            CollapseParams(lam=1.0, hbar=0.0)


class TestTimeGrid:
    def test_spacing_and_endpoints(self):
        grid = TimeGrid(2.0, 8)
        assert grid.dt == pytest.approx(0.25)
        assert grid.times[0] == 0.0
        assert grid.times[-1] == 2.0
        assert grid.times.size == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestIncrements:
    def test_seeding_is_reproducible_and_index_dependent(self):
        grid = TimeGrid(1.0, 64)
        params = CollapseParams(lam=0.5)
        a = block_increments(grid, params, 7, np.array([3]))
        b = block_increments(grid, params, 7, np.array([3]))
        c = block_increments(grid, params, 7, np.array([4]))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scale_is_sqrt_lam_over_dt(self):
        grid = TimeGrid(1.0, 20_000)
        params = CollapseParams(lam=0.8)
        draws = block_increments(grid, params, 123, np.array([0]))
        target = params.lam / grid.dt
        # Sample variance of 20000 normals: relative sd about 1%.
        assert np.var(draws) == pytest.approx(target, rel=0.05)
        assert abs(np.mean(draws)) < 3.0 * np.sqrt(target / grid.steps)

    def test_zero_rate_gives_zero_field(self):
        grid = TimeGrid(1.0, 16)
        draws = block_increments(grid, CollapseParams(lam=0.0), 5, np.arange(3))
        assert np.all(draws == 0.0)


class TestBlockIncrements:
    """An ensemble chunk's draws against the per-trajectory streams."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 3**70])
    def test_rows_are_the_per_trajectory_streams_bit_for_bit(self, master):
        grid = TimeGrid(1.5, 24)
        params = CollapseParams(lam=0.4)
        for idx in (np.arange(64), np.arange(4096, 8192), np.array([2**32 - 1])):
            block = block_increments(grid, params, master, idx)
            assert block.shape == (idx.size, grid.steps)
            for row, i in zip(block, idx):
                ref = trajectory_increments(grid, params, master, int(i))
                assert np.array_equal(row, ref)

    def test_seeds_outside_one_spawn_word_are_refused(self):
        grid = TimeGrid(1.0, 8)
        params = CollapseParams(lam=0.4)
        # 2**32 needs a second spawn-key word, which the block path does
        # not derive; it must refuse rather than hand out another stream.
        with pytest.raises(ValueError):
            block_increments(grid, params, 0, np.array([0, 2**32]))
        with pytest.raises(ValueError):
            block_increments(grid, params, 0, np.array([-1]))
        with pytest.raises(ValueError):
            block_increments(grid, params, -1, np.arange(4))

