"""Momentum-window analyzer tests.

Covers the unitary grid transforms, disjoint-support conservation of
both generating functions, position-tail asymptotics of windowed
states and moment divergence under domain growth, each against a
closed form or an exact identity.  Both transforms, the Gaussian
translate overlap, the equal-phase symmetry scan and the generating-
function overlaps are test oracles (``tests/oracles.py``); the
momentum -> position one is a direct sum, so it runs at small n.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (collapse_residual_pair, equal_phase_symmetry, gaussian_translate_overlap,
                     generating_overlap_E, generating_overlap_P, to_momentum, to_position)

from cslsim import postulate
from cslsim.errors import NumericalFailure
from cslsim.postulate import (MomentumGrid, MomentumState, Superposition,
                              build_window_state, collapse_residual,
                              eq1_residual, gaussian_state, make_superposition,
                              moment_divergence_scan, tail_exponent, tail_fit)

GRID = MomentumGrid(4096, -8.0, 8.0)
# Small enough for the direct-sum transform, large enough for a tail fit.
SMALL = MomentumGrid(1024, -8.0, 8.0)

# Exact grid identities (unitarity, disjoint-support cancellations).
EXACT = 1e-12
# Quadrature against continuum closed forms; limited by domain truncation.
CONTINUUM = 1e-6


def random_momentum_state(grid, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2) * grid.dp))
    return MomentumState(grid, phi)


class TestMomentumGrid:
    def test_dual_spacing_identity(self):
        assert GRID.dx * GRID.dp * GRID.n_points == pytest.approx(
            2.0 * math.pi, rel=1e-15)
        assert GRID.momenta[0] == -8.0
        assert GRID.positions.size == GRID.n_points

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentumGrid(100, -1.0, 1.0)  # not a power of two
        with pytest.raises(ValueError):
            MomentumGrid(128, -1.0, 1.0)  # too small
        with pytest.raises(ValueError):
            MomentumGrid(256, 1.0, -1.0)

    def test_rejects_non_finite_p_min(self):
        # Otherwise dp would be inf and dx 0.
        with pytest.raises(ValueError, match="p_min must be finite"):
            MomentumGrid(4096, -math.inf, 8.0)

    def test_rejects_non_finite_p_max(self):
        with pytest.raises(ValueError, match="p_max must be finite"):
            MomentumGrid(4096, -8.0, math.inf)

    def test_rejects_a_span_whose_spacing_overflows(self):
        # Both ends are finite, but p_max - p_min overflows: dp would be
        # inf and dx 0.
        with pytest.raises(ValueError, match="positive finite spacing dp"):
            MomentumGrid(4096, -1e308, 1e308)


def window_states(grid):
    return [build_window_state(grid, -3.0, 3.0, n) for n in (0, 1, 3)] + [
        build_window_state(grid, -1.0, 4.0, 2, b=0.7), random_momentum_state(grid, 5)]


class TestTransforms:
    def test_round_trip_is_the_identity(self):
        state = random_momentum_state(SMALL, 7)
        back = to_momentum(SMALL, to_position(SMALL, state.phi_p))
        np.testing.assert_allclose(back, state.phi_p, atol=EXACT)

    def test_parseval(self):
        state = random_momentum_state(GRID, 8)
        norm_x = float(np.sum(state.position_density()) * GRID.dx)
        assert norm_x == pytest.approx(1.0, abs=EXACT)

    @pytest.mark.parametrize("index", range(5))
    def test_position_density_is_the_direct_sum(self, index):
        state = window_states(SMALL)[index]
        psi = to_position(SMALL, state.phi_p)
        want = psi.real**2 + psi.imag**2
        got = state.position_density()
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    @pytest.mark.parametrize("index", range(5))
    def test_position_moments_are_the_direct_sum(self, index):
        state = window_states(SMALL)[index]
        psi = to_position(SMALL, state.phi_p)
        dens = (psi.real**2 + psi.imag**2) * SMALL.dx
        x = SMALL.positions
        for k in (0, 2):
            want = float(np.sum(dens * x**k))
            assert state.position_moment(k) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("order", [0, 1])
    def test_tail_fit_reads_the_direct_sum_density(self, order, monkeypatch):
        state = build_window_state(SMALL, -3.0, 3.0, order)
        got = tail_fit(state)
        psi = to_position(SMALL, state.phi_p)
        monkeypatch.setattr(MomentumState, "position_density",
                            lambda self: psi.real**2 + psi.imag**2)
        want = tail_fit(state)
        assert got.is_polynomial == want.is_polynomial
        for name in ("exponent", "slope_inner", "slope_outer"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13)

    def test_gaussian_position_spread(self):
        # phi ~ exp(-sigma^2 p^2) renders as |Phi|^2 ~ exp(-x^2 / 2 sigma^2).
        state = gaussian_state(GRID, sigma_x=1.0)
        assert state.position_moment(2) == pytest.approx(1.0, rel=CONTINUUM)
        assert state.position_moment(0) == pytest.approx(1.0, abs=EXACT)


class TestStateConstruction:
    def test_window_support_is_exact(self):
        state = build_window_state(GRID, -3.0, 3.0, 2)
        p = GRID.momenta
        outside = (p < -3.0) | (p > 3.0)
        assert np.all(state.phi_p[outside] == 0.0)

    def test_window_carrier_phase_matches_the_full_grid_formula(self):
        p = GRID.momenta
        p1, p2, n, b = -1.0, 4.0, 2, 0.7
        phi = np.where((p >= p1) & (p <= p2), (p2 - p) ** n * (p - p1) ** n, 0.0)
        phi = phi * np.exp(-1j * p * b)
        phi /= math.sqrt(float(np.sum(phi.real**2 + phi.imag**2) * GRID.dp))
        np.testing.assert_array_equal(build_window_state(GRID, p1, p2, n, b=b).phi_p, phi)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            build_window_state(GRID, -9.0, 0.0, 0)  # leaves the grid
        with pytest.raises(ValueError):
            build_window_state(GRID, -1.0, 1.0, -1)

    def test_state_must_be_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            MomentumState(GRID, np.ones(GRID.n_points, dtype=complex))

    def test_superposition_weight_and_orthogonality_checks(self):
        w1 = build_window_state(GRID, -6.0, -2.0, 0)
        w2 = build_window_state(GRID, 2.0, 6.0, 0)
        with pytest.raises(ValueError, match="must be 1"):
            Superposition(1.0, 1.0, w1, w2)
        overlapping = build_window_state(GRID, -3.0, 3.0, 0)
        with pytest.raises(ValueError, match="orthogonal"):
            Superposition(1.0, 0.0, overlapping,
                          build_window_state(GRID, -1.0, 5.0, 0))

    def test_make_superposition_orthogonalizes(self):
        phi1 = build_window_state(GRID, -3.0, 3.0, 1)
        phi2 = build_window_state(GRID, -1.0, 5.0, 1)
        sup = make_superposition(0.8, 0.6, phi1, phi2)
        assert abs(sup.phi1.overlap(sup.phi2)) <= 1e-10
        assert abs(sup.alpha1) ** 2 + abs(sup.alpha2) ** 2 == pytest.approx(1.0)

    def test_make_superposition_rejects_parallel_branches(self):
        phi = build_window_state(GRID, -2.0, 2.0, 0)
        with pytest.raises(ValueError, match="parallel"):
            make_superposition(0.7, 0.3, phi, phi)


class TestGeneratingFunctions:
    def test_unit_shift_at_zero(self):
        state = random_momentum_state(GRID, 9)
        assert generating_overlap_P(state, state, 0.0) == pytest.approx(1.0,
                                                                        abs=EXACT)
        assert generating_overlap_E(state, state, 0.0) == pytest.approx(1.0,
                                                                        abs=EXACT)

    def test_gaussian_translate_closed_form(self):
        state = gaussian_state(GRID, sigma_x=1.0)
        for b in (0.5, 1.0, 2.5, 4.0):
            got = abs(generating_overlap_P(state, state, b))
            assert got == pytest.approx(gaussian_translate_overlap(1.0, b),
                                        rel=CONTINUUM)

    def test_disjoint_windows_cancel_exactly(self):
        w1 = build_window_state(GRID, -6.0, -2.0, 0)
        w2 = build_window_state(GRID, 2.0, 6.0, 0)
        assert eq1_residual(w1, w2) == 0.0
        sup = make_superposition(math.sqrt(0.5), math.sqrt(0.5), w1, w2)
        for kind in ("momentum", "energy"):
            for value in np.linspace(0.1, 5.0, 20):
                assert collapse_residual(sup, kind, float(value)) == 0.0
                assert collapse_residual_pair(sup, kind, float(value)) == 0.0

    @pytest.mark.parametrize("pair", ["overlapping_windows", "displaced_gaussians"])
    def test_residual_scans_match_the_full_grid_sums(self, pair):
        if pair == "overlapping_windows":
            sup = make_superposition(0.6, 0.8, build_window_state(GRID, -4.0, 1.0, 1),
                                     build_window_state(GRID, -1.0, 4.0, 0))
        else:  # criterion 8's Gaussian pair
            sup = make_superposition(math.sqrt(0.5), math.sqrt(0.5),
                                     gaussian_state(GRID, 1.0, x0=-5.0),
                                     gaussian_state(GRID, 1.0, x0=5.0))
        for kind in ("momentum", "energy"):
            values = np.linspace(0.05, 15.0, 60)
            got = np.array([collapse_residual(sup, kind, v) for v in values])
            want = np.array([collapse_residual_pair(sup, kind, v) for v in values])
            assert want.max() > 1e-3
            assert np.abs(got - want).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize("kind", ["momentum", "energy"])
    def test_overlapping_windows_match_the_two_overlaps(self, kind):
        # Overlapping windows of unequal weights and edge orders: the two
        # cross elements differ, and the residual does not vanish.
        sup = make_superposition(0.8, 0.6j, build_window_state(GRID, -3.0, 2.0, 1),
                                 build_window_state(GRID, -1.0, 4.0, 2, b=0.7))
        for value in (0.3, 1.1, 2.9):
            got = collapse_residual(sup, kind, value, mass=1.7)
            want = collapse_residual_pair(sup, kind, value, mass=1.7)
            assert want > 1e-3
            assert got == pytest.approx(want, rel=EXACT)

    def test_vanishing_branch_weight_kills_the_residual(self):
        g1 = gaussian_state(GRID, 1.0, x0=-5.0)
        g2 = gaussian_state(GRID, 1.0, x0=5.0)
        sup = make_superposition(1.0, 0.0, g1, g2)
        assert collapse_residual(sup, "momentum", 10.0) == 0.0

    def test_displaced_gaussians_violate_conservation(self):
        g1 = gaussian_state(GRID, 1.0, x0=-5.0)
        g2 = gaussian_state(GRID, 1.0, x0=5.0)
        sup = make_superposition(math.sqrt(0.5), math.sqrt(0.5), g1, g2)
        peak = max(collapse_residual(sup, "momentum", float(b))
                   for b in np.linspace(0.5, 15.0, 60))
        # The cross term peaks near the 10-unit separation at |a1 a2|.
        assert peak >= 0.4

    def test_unknown_generator_kind(self):
        g = gaussian_state(GRID, 1.0)
        sup = make_superposition(1.0, 0.0, g, gaussian_state(GRID, 1.0, x0=3.0))
        with pytest.raises(ValueError, match="kind"):
            collapse_residual(sup, "angular", 1.0)


class TestTailAsymptotics:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_edge_zeros_set_the_envelope_exponent(self, order):
        exponent = tail_exponent(build_window_state(GRID, -3.0, 3.0, order))
        target = order + 1.0
        assert abs(exponent - target) <= 0.1 * target

    def test_gaussian_has_no_polynomial_tail(self):
        fit = tail_fit(gaussian_state(GRID, 1.0))
        assert not fit.is_polynomial
        with pytest.raises(ValueError, match="super-polynomial"):
            tail_exponent(gaussian_state(GRID, 1.0))

    def test_too_few_bins_is_a_hard_failure(self, monkeypatch):
        monkeypatch.setattr(postulate, "TAIL_FIT_BINS", 4)
        with pytest.raises(NumericalFailure, match="bins"):
            tail_fit(build_window_state(GRID, -3.0, 3.0, 0))


class TestMomentScans:
    # <x^k> of an order-n windowed state converges exactly when
    # 2(n+1) - k > 1; the difference is always even, so no borderline
    # logarithmic case can appear.
    @pytest.mark.parametrize("order,k,verdict", [
        (0, 2, "divergent"),
        (1, 2, "convergent"),
        (1, 4, "divergent"),
        (2, 4, "convergent"),
        (0, 0, "convergent"),
    ])
    def test_parity_matrix(self, order, k, verdict):
        scan = moment_divergence_scan(
            lambda g: build_window_state(g, -3.0, 3.0, order), k, GRID,
            doublings=4)
        assert scan.verdict == verdict
        assert scan.values.size == 5
        assert np.all(np.diff(scan.domains) > 0.0)

    def test_rejects_odd_moment_order(self):
        with pytest.raises(ValueError, match="even"):
            moment_divergence_scan(
                lambda g: build_window_state(g, -3.0, 3.0, 0), 3, GRID)


def test_equal_phase_pairs_have_symmetric_translation_overlap():
    asymmetry, peak_positive, peak_negative = equal_phase_symmetry(
        envelope1=lambda p: np.exp(-((p - 1.0) ** 2)),
        envelope2=lambda p: np.exp(-0.5 * (p + 1.0) ** 2),
        theta=lambda p: 0.3 * p * p + np.sin(p),
        grid=GRID, b_max=3.0)
    assert asymmetry <= 1e-10
    assert peak_positive == pytest.approx(-peak_negative, rel=1e-12)


class TestGaussianOverlap:
    def test_plain_form_underflows_gracefully(self):
        assert gaussian_translate_overlap(1.0, 200.0) == 0.0

    def test_is_strictly_positive_at_moderate_shifts(self):
        assert gaussian_translate_overlap(1.0, 5.0) > 0.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_translate_overlap(0.0, 1.0)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(b=st.floats(-6.0, 6.0), seed=st.integers(0, 2**31 - 1))
def test_translation_overlap_is_bounded_by_one(b, seed):
    """|<phi2| exp(ibP) |phi1>| <= 1 for any normalized pair."""
    phi1 = random_momentum_state(GRID, seed)
    phi2 = random_momentum_state(GRID, seed + 1)
    assert abs(generating_overlap_P(phi1, phi2, b)) <= 1.0 + 1e-12
