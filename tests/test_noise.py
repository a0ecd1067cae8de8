"""Tests for time discretization and collapse-noise sampling."""

import numpy as np
import pytest

from cslsim.noise import (VALIDITY_THRESHOLD, CollapseParams, NoisePath,
                          TimeGrid, sample_raw, standard_increments,
                          trajectory_seed)


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
        np.testing.assert_allclose(grid.midpoints,
                                   0.25 * (np.arange(8) + 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_validity_figure_warns_when_coarse(self):
        grid = TimeGrid(1.0, 2)
        with pytest.warns(UserWarning, match="coarse time step"):
            figure = grid.check_validity(lam=1.0, spectral_range=2.0)
        assert figure == pytest.approx(2.0)
        assert figure > VALIDITY_THRESHOLD

    def test_validity_figure_silent_when_fine(self, recwarn):
        grid = TimeGrid(1.0, 1000)
        figure = grid.check_validity(lam=1.0, spectral_range=2.0)
        assert figure == pytest.approx(0.004)
        assert len(recwarn) == 0


class TestIncrements:
    def test_seeding_is_reproducible_and_index_dependent(self):
        grid = TimeGrid(1.0, 64)
        params = CollapseParams(lam=0.5)
        a = standard_increments(grid, params, trajectory_seed(7, 3))
        b = standard_increments(grid, params, trajectory_seed(7, 3))
        c = standard_increments(grid, params, trajectory_seed(7, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scale_is_sqrt_lam_over_dt(self):
        grid = TimeGrid(1.0, 20_000)
        params = CollapseParams(lam=0.8)
        draws = standard_increments(grid, params, 123)
        target = params.lam / grid.dt
        # Sample variance of 20000 normals: relative sd about 1%.
        assert np.var(draws) == pytest.approx(target, rel=0.05)
        assert abs(np.mean(draws)) < 3.0 * np.sqrt(target / grid.steps)

    def test_zero_rate_gives_zero_field(self):
        grid = TimeGrid(1.0, 16)
        draws = standard_increments(grid, CollapseParams(lam=0.0), 5)
        assert np.all(draws == 0.0)


class TestNoisePath:
    def test_sample_raw_matches_increments(self):
        grid = TimeGrid(2.0, 32)
        params = CollapseParams(lam=1.5)
        path = sample_raw(grid, params, trajectory_seed(1, 0))
        ref = standard_increments(grid, params, trajectory_seed(1, 0))
        assert path.mode == "raw"
        assert np.array_equal(path.values, ref)

    def test_validation(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            NoisePath(grid, np.zeros(5), "raw")
        with pytest.raises(ValueError):
            NoisePath(grid, [0.0, np.inf, 0.0, 0.0], "raw")
        with pytest.raises(ValueError):
            NoisePath(grid, np.zeros(4), "boiled")

    def test_values_read_only(self):
        path = NoisePath(TimeGrid(1.0, 4), np.zeros(4), "given")
        with pytest.raises(ValueError):
            path.values[0] = 1.0
