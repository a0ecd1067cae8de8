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
        a = block_increments(grid, params, 7, 3, 4)
        b = block_increments(grid, params, 7, 3, 4)
        c = block_increments(grid, params, 7, 4, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scale_is_sqrt_lam_over_dt(self):
        grid = TimeGrid(1.0, 20_000)
        params = CollapseParams(lam=0.8)
        draws = block_increments(grid, params, 123, 0, 1)
        target = params.lam / grid.dt
        # Sample variance of 20000 normals: relative sd about 1%.
        assert np.var(draws) == pytest.approx(target, rel=0.05)
        assert abs(np.mean(draws)) < 3.0 * np.sqrt(target / grid.steps)

    def test_zero_rate_gives_zero_field(self):
        grid = TimeGrid(1.0, 16)
        draws = block_increments(grid, CollapseParams(lam=0.0), 5, 0, 3)
        assert np.all(draws == 0.0)


def stream_rows(grid, params, master, lo, hi):
    """Trajectories ``lo`` .. ``hi - 1`` drawn one by one by the oracle."""
    return np.array([trajectory_increments(grid, params, master, i)
                     for i in range(lo, hi)])


class TestBlockIncrements:
    """An ensemble chunk's draws against the per-block streams."""

    GRID = TimeGrid(1.5, 24)
    PARAMS = CollapseParams(lam=0.4)

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 3**70])
    def test_rows_are_the_per_trajectory_streams_bit_for_bit(self, master):
        for lo, hi in ((0, 64), (4096, 8192), (2**32 - 1, 2**32)):
            block = block_increments(self.GRID, self.PARAMS, master, lo, hi)
            assert block.shape == (hi - lo, self.GRID.steps)
            assert np.array_equal(block, stream_rows(self.GRID, self.PARAMS, master, lo, hi))

    def test_negative_master_seed_or_start_is_refused(self):
        with pytest.raises(ValueError):
            block_increments(self.GRID, self.PARAMS, -1, 0, 4)
        with pytest.raises(ValueError):
            block_increments(self.GRID, self.PARAMS, 0, -1, 4)

    @pytest.mark.parametrize("lo, hi", [(2**32 - 3, 2**32 + 3), (2**32 + 60, 2**32 + 70),
                                        (2**38 + 1, 2**38 + 2), (3**50, 3**50 + 5)])
    def test_indices_at_and_above_2_32_are_the_streams(self, lo, hi):
        block = block_increments(self.GRID, self.PARAMS, 5, lo, hi)
        assert np.array_equal(block, stream_rows(self.GRID, self.PARAMS, 5, lo, hi))

    @pytest.mark.parametrize("steps", [24, 900])
    @pytest.mark.parametrize("lo, hi", [(30, 700), (63, 65), (129, 130), (70, 100)])
    def test_ragged_ranges_are_the_streams_bit_for_bit(self, steps, lo, hi):
        # At 900 steps the 64 KiB tile holds 9 rows, so a block is drawn
        # in pieces and a range can start inside a piece.
        grid = TimeGrid(1.5, steps)
        block = block_increments(grid, self.PARAMS, 17, lo, hi)
        assert np.array_equal(block, stream_rows(grid, self.PARAMS, 17, lo, hi))

    @pytest.mark.parametrize("steps", [24, 900])
    def test_a_reused_buffer_holds_the_fresh_draws_bit_for_bit(self, steps):
        # One buffer of 100 rows for the chunks of 30 .. 349, as an ensemble
        # worker reuses it: ragged starts, and a last chunk of 20 rows.
        grid = TimeGrid(1.5, steps)
        buffer = np.full(steps * 100, np.nan)
        for lo in range(30, 350, 100):
            hi = min(lo + 100, 350)
            drawn = block_increments(grid, self.PARAMS, 17, lo, hi, out=buffer)
            assert np.shares_memory(drawn, buffer) and drawn.T.flags.c_contiguous
            assert np.array_equal(drawn, block_increments(grid, self.PARAMS, 17, lo, hi))
        # A partial chunk writes only the front of the buffer.
        buffer[:] = np.nan
        block_increments(grid, self.PARAMS, 17, 330, 350, out=buffer)
        assert not np.isnan(buffer[:steps * 20]).any()
        assert np.isnan(buffer[steps * 20:]).all()

    def test_a_buffer_too_small_is_refused(self):
        with pytest.raises(ValueError):
            block_increments(self.GRID, self.PARAMS, 3, 0, 4, out=np.empty(24 * 4 - 1))

    def test_adjacent_ranges_concatenate_to_one_range(self):
        whole = block_increments(self.GRID, self.PARAMS, 8, 10, 301)
        parts = [block_increments(self.GRID, self.PARAMS, 8, lo, hi)
                 for lo, hi in ((10, 100), (100, 128), (128, 129), (129, 301))]
        assert np.array_equal(np.concatenate(parts), whole)
