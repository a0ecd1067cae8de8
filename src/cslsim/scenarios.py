"""Named scenario builders.

Each function returns a fully validated :class:`~cslsim.trajectory.Scenario`
for one of the standard experiments: the two-outcome collapse race, the
driven qubit that trades energy with the field, the free particle on a
periodic grid, and randomized dense scenarios for the conservation
checks.
"""

from __future__ import annotations

import numpy as np

from .hilbert import HermitianOperator, StateVector
from .noise import CollapseParams, TimeGrid
from .propagation import GridInfo
from .trajectory import Scenario

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Spectral range of the random Hermitian operators (see random_dense).
RANDOM_SPECTRAL_RANGE = 2.0


def two_level_collapse(*, weight_upper: float = 0.7, gap: float = 2.0,
                       lam: float = 1.0, t_end: float = 5.0, steps: int = 1000,
                       relative_phase: float = 0.0, hbar: float = 1.0) -> Scenario:
    """Pure collapse race between two eigenvalues at +gap/2 and -gap/2.

    The Hamiltonian is zero, so nothing competes with collapse.  The
    initial state puts ``weight_upper`` of its probability on the upper
    coupling eigenvalue; collapse selects that outcome with exactly that
    frequency in the long run.
    """
    if not 0.0 < weight_upper < 1.0:
        raise ValueError("weight_upper must be strictly between 0 and 1")
    half = 0.5 * gap
    coupling = HermitianOperator(np.diag([half, -half]).astype(complex))
    ham = HermitianOperator(np.zeros((2, 2), dtype=complex))
    amp = np.array([np.sqrt(weight_upper),
                    np.sqrt(1.0 - weight_upper) * np.exp(1j * relative_phase)])
    return Scenario(hamiltonian=ham, collapse_op=coupling, psi0=StateVector(amp),
                    params=CollapseParams(lam=lam, hbar=hbar),
                    grid=TimeGrid(t_end, steps))


def qubit_dephasing(*, omega: float = 1.0, lam: float = 0.2, t_end: float = 2.0,
                    steps: int = 400, hbar: float = 1.0) -> Scenario:
    """Qubit with transverse drive: coupling sigma_z, Hamiltonian omega sigma_x.

    The initial state is the +1 eigenstate of sigma_x, so the system
    energy starts at omega and decays as exp(-2 lam t); the energy
    difference is absorbed by the field.  Closed forms for this scenario
    anchor several oracle tests.
    """
    coupling = HermitianOperator(PAULI_Z)
    ham = HermitianOperator(omega * PAULI_X)
    amp = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return Scenario(hamiltonian=ham, collapse_op=coupling, psi0=StateVector(amp),
                    params=CollapseParams(lam=lam, hbar=hbar),
                    grid=TimeGrid(t_end, steps))


def free_particle_grid(*, n_points: int = 1024, dx: float = 0.25,
                       sigma0: float = 4.0, lam: float = 0.002,
                       t_end: float = 8.0, steps: int = 256,
                       mass: float = 1.0, hbar: float = 1.0,
                       x0: float = 0.0, p0: float = 0.0) -> Scenario:
    """Free particle on a periodic grid, position-coupled collapse.

    The Gaussian packet must start, and stay, well inside the domain;
    the seam monitor in the deterministic integrator flags runs whose
    support reaches the wrap-around edge.
    """
    info = GridInfo(n_points=n_points, dx=dx, mass=mass)
    x = info.positions
    envelope = np.exp(-((x - x0) ** 2) / (4.0 * sigma0**2))
    amp = envelope * np.exp(1j * p0 * x / hbar)
    amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2))
    return Scenario(hamiltonian=None, collapse_op=None, psi0=StateVector(amp),
                    params=CollapseParams(lam=lam, hbar=hbar),
                    grid=TimeGrid(t_end, steps), grid_info=info)


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    """Gaussian-ensemble Hermitian matrix rescaled to ``RANDOM_SPECTRAL_RANGE``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = 0.5 * (g + g.conj().T)
    op = HermitianOperator(m)
    current = op.spectral_range()
    if current == 0.0:
        raise ValueError("degenerate random draw; use another seed")
    return HermitianOperator(m * (RANDOM_SPECTRAL_RANGE / current))


def random_dense(seed: int, *, dim: int = 8, lam: float = 0.3,
                 t_end: float = 2.0, steps: int = 4096,
                 hbar: float = 1.0) -> Scenario:
    """Randomized dense scenario for conservation and drift checks.

    Both operators get unit-scale spectra so tolerances stated relative
    to the Hamiltonian norm are meaningful across seeds.
    """
    rng = np.random.default_rng(seed)
    coupling = random_hermitian(rng, dim)
    ham = random_hermitian(rng, dim)
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amp = amp / np.linalg.norm(amp)
    return Scenario(hamiltonian=ham, collapse_op=coupling, psi0=StateVector(amp),
                    params=CollapseParams(lam=lam, hbar=hbar),
                    grid=TimeGrid(t_end, steps))
