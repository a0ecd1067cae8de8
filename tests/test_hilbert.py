"""Unit tests for the Hilbert-space primitives.

The interaction-picture rotation (a test oracle) is checked against
scipy.linalg.expm as an independent reference and against Pauli-algebra
closed forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import interaction_picture, loop_eigenvalue_groups
from scipy.linalg import expm

from cslsim import hilbert
from cslsim.ensemble import DensityMatrix, lindblad_propagate, run_ensemble
from cslsim.errors import NonHermitianError, ZeroNormError
from cslsim.hilbert import (HermitianOperator, Spectrum, StateVector, double_commutator,
                            eigendecompose, eigenvalue_groups)
from cslsim.ledger import build_ledger, observable_drift
from cslsim.scenarios import random_dense
from cslsim.tolerances import ALGEBRA

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)

# Dense matrix functions should match the scipy reference to near machine
# precision; the eigensolver is the only error source.
DENSE_MATCH = 1e-12


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (g + g.conj().T))


def random_state(rng, dim):
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(a / np.linalg.norm(a))


class TestStateVector:
    def test_norm_and_dim(self):
        psi = StateVector([3.0, 4.0j])
        assert psi.dim == 2
        assert psi.norm2 == pytest.approx(25.0, rel=1e-15)

    def test_normalized(self):
        psi = StateVector([3.0, 4.0]).normalized()
        assert psi.norm2 == pytest.approx(1.0, rel=1e-15)

    def test_zero_norm_is_flagged_and_refuses_normalization(self):
        psi = StateVector([0.0, 0.0])
        assert psi.norm2 == 0.0
        with pytest.raises(ZeroNormError):
            psi.normalized()

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            StateVector([])
        with pytest.raises(ValueError):
            StateVector([[1.0, 0.0]])
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])

    def test_amplitudes_are_read_only(self):
        psi = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError) as exc:
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])
        assert exc.value.asymmetry > exc.value.tolerance

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            HermitianOperator([[np.inf, 0.0], [0.0, 0.0]])

    def test_spectrum_is_cached(self):
        op = HermitianOperator(SX)
        assert op.spectrum() is op.spectrum()

    def test_spectral_range(self):
        op = HermitianOperator(np.diag([-2.0, 0.5, 3.0]))
        assert op.spectral_range() == pytest.approx(5.0, rel=1e-15)


class TestEigendecompose:
    def test_roundtrip_and_ordering(self):
        rng = np.random.default_rng(11)
        op = random_hermitian(rng, 6)
        spec = op.spectrum()
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        v = spec.eigenvectors
        np.testing.assert_allclose((v * spec.eigenvalues) @ v.conj().T, op.matrix,
                                   atol=DENSE_MATCH)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=DENSE_MATCH)

    def test_bitwise_deterministic(self):
        m = 0.5 * (np.arange(16).reshape(4, 4) + np.arange(16).reshape(4, 4).T)
        s1 = eigendecompose(HermitianOperator(m))
        s2 = eigendecompose(HermitianOperator(m))
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def phase_sensitive_outputs():
    """Every dense output that reads a spectrum, from a fresh scenario (so
    its operators compute their spectra anew)."""
    scenario = random_dense(31, dim=6, lam=0.3, t_end=1.0, steps=128)
    cooked = run_ensemble(scenario, 600, "cooked", 5, record_series=True,
                          keep_final_states=True)
    raw = run_ensemble(scenario, 600, "raw", 6, with_field_energy=True)
    series = lindblad_propagate(DensityMatrix.from_state(scenario.psi0), scenario)
    ledger = build_ledger(scenario, series=series)
    drift = observable_drift(scenario.collapse_op, scenario, series)
    return cooked, raw, ledger, drift


def test_eigenvector_phases_reach_no_output(monkeypatch):
    """Each output forms products in which a column phase of an
    eigenvector cancels: rotating every column by a fixed unit phase
    moves them by rounding only.  Every trajectory keeps its outcome, so
    the cooked frequencies (counts) are identical; raw frequencies are
    sums of weights, which round."""
    want = phase_sensitive_outputs()

    def rotated(op):
        w, v = np.linalg.eigh(op.matrix)
        return Spectrum(w, v * np.exp(1j * (0.7 + 1.3 * np.arange(op.dim))))

    monkeypatch.setattr(hilbert, "eigendecompose", rotated)
    got = phase_sensitive_outputs()
    assert np.array_equal(got[0].outcome_frequencies, want[0].outcome_frequencies)
    for stats, ref in zip(got[:2], want[:2]):
        # The sample size is a count; its fraction of the ensemble is O(1).
        assert (stats.effective_sample_size / stats.n_success
                == pytest.approx(ref.effective_sample_size / ref.n_success, rel=0.0, abs=1e-12))
        for name in ("outcome_frequencies", "outcome_errors", "mean_weight",
                     "interaction_mean", "field_energy_mean", "mean_coupling",
                     "mean_hamiltonian", "final_states", "final_weights"):
            a, b = getattr(stats, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            if a is not None:
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12, err_msg=name)
    for name in ("system", "field", "interaction"):
        np.testing.assert_allclose(getattr(got[2], name), getattr(want[2], name),
                                   rtol=0.0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(got[3], want[3], rtol=0.0, atol=1e-12)


class TestInteractionPicture:
    def test_pauli_rotation_oracle(self):
        # exp(i t sx) sz exp(-i t sx) = cos(2t) sz + sin(2t) sy
        a = HermitianOperator(SZ)
        h = HermitianOperator(SX)
        for t in (0.0, 0.3, 1.1, -2.4):
            got = interaction_picture(a, h, t)
            ref = np.cos(2.0 * t) * SZ + np.sin(2.0 * t) * SY
            np.testing.assert_allclose(got.matrix, ref, atol=1e-13)

    def test_spectrum_is_preserved(self):
        rng = np.random.default_rng(31)
        a = random_hermitian(rng, 5)
        h = random_hermitian(rng, 5)
        rotated = interaction_picture(a, h, 0.9)
        np.testing.assert_allclose(rotated.spectrum().eigenvalues,
                                   a.spectrum().eigenvalues, atol=1e-11)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            interaction_picture(HermitianOperator(SZ),
                                HermitianOperator(np.eye(3)), 1.0)


class TestDoubleCommutator:
    def test_pauli_oracle(self):
        # [sz, [sz, sx]] = 4 sx
        got = double_commutator(HermitianOperator(SZ), HermitianOperator(SX))
        np.testing.assert_allclose(got.matrix, 4.0 * SX, atol=1e-14)

    def test_commuting_pair_vanishes(self):
        a = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        b = HermitianOperator(np.diag([5.0, -1.0, 0.0]))
        np.testing.assert_allclose(double_commutator(a, b).matrix, 0.0,
                                   atol=1e-15)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 7),
       t=st.floats(-4.0, 4.0))
def test_heisenberg_picture_consistency(seed, dim, t):
    """<psi| e^{iHt} A e^{-iHt} |psi> equals <A> in the evolved state."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    h = random_hermitian(rng, dim)
    psi = random_state(rng, dim).amplitudes
    evolved = expm(-1j * t * h.matrix) @ psi
    lhs = np.vdot(psi, interaction_picture(a, h, t).matrix @ psi)
    rhs = np.vdot(evolved, a.matrix @ evolved)
    assert lhs == pytest.approx(rhs, abs=10 * ALGEBRA)


@pytest.mark.parametrize("values", [
    np.arange(1024) * 0.25 - 128.0,
    np.array([0.5]),
    np.array([-1.0, 1.0]),
    np.array([0.0, 1e-14, 2e-14, 1.0, 1.0 + 1e-15, 3.0]),
    np.sort(np.repeat(np.random.default_rng(4).standard_normal(5), [1, 3, 7, 2, 1])),
    np.sort(np.round(np.random.default_rng(5).standard_normal(300), 1)),
], ids=["grid", "one", "two", "near-degenerate", "degenerate", "large-groups"])
def test_eigenvalue_groups_match_the_loop(values):
    groups, means = eigenvalue_groups(values)
    want_groups, want_means = loop_eigenvalue_groups(values)
    assert groups.tolist() == [list(g) for g in want_groups]
    # Groups of fewer than 8 values add in the same order; larger ones are
    # summed in sequence, not pairwise, and may differ in the last bit.
    small = np.diff(groups, axis=1)[:, 0] < 8
    assert np.array_equal(means[small], want_means[small])
    np.testing.assert_allclose(means, want_means, rtol=4 * np.finfo(float).eps, atol=0.0)
