"""Finite-dimensional Hilbert space primitives.

Everything downstream (trajectories, ensembles, energy bookkeeping) is
built on three immutable value types defined here -- ``StateVector``,
``HermitianOperator`` and ``Spectrum`` -- plus a handful of pure
operations on them: the eigendecomposition, eigenvalue grouping, the
double commutator, and ``expm``, the exponential of a general
(non-normal, possibly defective) matrix such as a Lindblad generator,
by Pade scaling and squaring.

Determinism contract: the eigendecomposition is ``numpy.linalg.eigh``'s
output, eigenvalues ascending and column j of the eigenvectors belonging
to eigenvalue j, computed once per operator and cached.  Every consumer
forms products in which an eigenvector's phase cancels, and all workers
of an ensemble read the one cached spectrum, so reruns and thread counts
give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import NonHermitianError, ZeroNormError

# Largest exponent handed to np.exp before we call the result an overflow.
EXP_LIMIT = 700.0

# Eigenvalues closer than this (relative to the spectral span) are treated
# as one eigenspace when classifying collapse outcomes.
DEGENERACY_RTOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """A ket with complex amplitudes.

    The amplitudes are stored as an immutable complex128 array.  A state
    with exactly zero norm is legal to construct (it can arise as the
    limit of strong collapse suppression); normalizing it raises
    ``ZeroNormError``.
    States are never normalized behind the caller's back.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("state amplitudes must be a non-empty 1-d array")
        if not np.isfinite(a).all():
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm2(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def normalized(self) -> "StateVector":
        n2 = self.norm2
        if n2 == 0.0:
            raise ZeroNormError("cannot normalize a zero-norm state")
        return StateVector(self.amplitudes / np.sqrt(n2))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``eigenvalues`` are real and ascending; column ``j`` of
    ``eigenvectors`` belongs to ``eigenvalues[j]``.  Both are the output
    of ``numpy.linalg.eigh``, computed once per operator and cached
    (:meth:`HermitianOperator.spectrum`); no eigenvector phase is fixed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _readonly(np.asarray(self.eigenvectors, dtype=np.complex128)))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A self-adjoint matrix, validated on construction.

    The hermiticity check is relative: max |M - M^dag| must not exceed
    ``tolerances.CONSTRUCTION`` times max |M| (with an absolute fallback
    for the zero matrix).  The spectrum is computed once on first use and
    cached; recomputation would return the identical object, so the cache
    is safe under concurrent access.
    """

    matrix: np.ndarray
    _cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("operator must be a square non-empty matrix")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        scale = float(np.max(np.abs(m)))
        tol = tolerances.CONSTRUCTION * max(scale, 1.0)
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > tol:
            raise NonHermitianError(asym, tol)
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> Spectrum:
        if not self._cache:
            self._cache.append(eigendecompose(self))
        return self._cache[0]

    def spectral_range(self) -> float:
        w = self.spectrum().eigenvalues
        return float(w[-1] - w[0])


def eigendecompose(op: HermitianOperator) -> Spectrum:
    """Ascending eigenvalues and orthonormal eigenvectors of ``op``, as
    ``numpy.linalg.eigh`` returns them."""
    return Spectrum(*np.linalg.eigh(op.matrix))


# The 1-norm bound theta_13 below which the degree-13 Pade approximant is
# accurate to double precision, and its coefficients b_0..b_13 (Higham,
# SIAM J. Matrix Anal. Appl. 26 (2005) 1179).
_PADE13_THETA = 5.371920351148152
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by Pade scaling and squaring.

    The algorithm of Higham (2005) at its one degree that covers every
    norm: degree 13 on m / 2^s followed by s squarings, with s the least
    power that brings the 1-norm of ``m`` within theta_13 (s = 0 at or
    below it, the zero matrix included).  It needs no eigendecomposition,
    so it serves non-normal and defective matrices alike.
    """
    m = np.asarray(m)
    eye = np.eye(m.shape[0], dtype=m.dtype)
    norm = float(np.abs(m).sum(axis=0).max())
    s = math.ceil(math.log2(norm / _PADE13_THETA)) if norm > _PADE13_THETA else 0
    m = m / 2.0**s
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m4 @ m2
    b = _PADE13
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def eigenvalue_groups(values: np.ndarray) -> tuple:
    """Group ascending eigenvalues into near-degenerate eigenspaces.

    Consecutive values closer than DEGENERACY_RTOL times the spectral span
    (at least 1) share a group.  Returns ``(groups, means)``: a (k, 2)
    integer array whose rows are the ``(lo, hi)`` slice bounds of each
    group, and the mean eigenvalue of each.
    """
    tol = DEGENERACY_RTOL * max(float(values[-1] - values[0]), 1.0)
    lo = np.concatenate(([0], np.flatnonzero(np.diff(values) > tol) + 1))
    hi = np.append(lo[1:], len(values))
    return np.stack([lo, hi], axis=1), np.add.reduceat(values, lo) / (hi - lo)


def double_commutator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """[a, [a, b]] for Hermitian a, b (itself Hermitian)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    inner = a.matrix @ b.matrix - b.matrix @ a.matrix
    outer = a.matrix @ inner - inner @ a.matrix
    outer = 0.5 * (outer + outer.conj().T)
    return HermitianOperator(outer)

