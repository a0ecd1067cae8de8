"""Analyzer for collapse-compatibility of wavefunction pairs.

A collapse rule that replaces a superposition alpha1 |Phi1> + alpha2 |Phi2>
by one branch preserves the full distributions of momentum and kinetic
energy exactly when the two branches have disjoint momentum support:
the pointwise product phi2*(p) phi1(p) is then zero, and with it every
cross matrix element of exp(i b P) and exp(i a P^2 / 2M).  This module
renders that statement, and its tail-behavior cost, on a finite momentum
grid: windowed polynomial states, the generating-function residuals
of a branch pair, position-space tail exponents and moment divergence
under domain doubling.  Everything here uses hbar = 1.

The momentum -> position transform is exactly unitary on the grid
(dx * dp * n = 2 pi), so norms can be checked in either representation.
Every position-space reader here needs only |Phi(x)|^2, so the package
never forms Phi(x) itself: the transform's unimodular p_min phase drops
out, and one inverse FFT gives the density.  A branch pair keeps its
joint product phi2*(p) phi1(p) on its nonzero support, which is empty
for disjoint windows, so their residuals cost nothing per shift and
are exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .tolerances import ALGEBRA

# Constructed pairs must be orthogonal to this level before any residual
# statement about them is meaningful.
ORTHO_TOL = 1e-8

# Verdict thresholds on the worst generating-function residual of a pair:
# at or below the first the pair conserves both generators to grid
# precision; at or above the second it violates them generically.
CONSERVING_RESIDUAL = 1e-10
VIOLATION_RESIDUAL = 1e-4

# Envelope fit band, as fractions of the half-domain X.  The discrete
# transform is periodic, so the tail at x also carries the image of the
# tail at x - 2X; for the slowest admissible falloff (1/x) that image
# reaches tens of percent over the outer quarter of the grid.  Keeping
# the band at or below X/16 caps the contamination near 3% while still
# sitting far outside the core of any windowed state.
TAIL_FIT_INNER = 1.0 / 128.0
TAIL_FIT_OUTER = 1.0 / 16.0
# Logarithmic bins of |x| over the band; a fit needs six of them filled.
TAIL_FIT_BINS = 12

# A fit is rejected as super-polynomial when the local slope steepens by
# more than this between the inner and outer halves of the fit window,
# or when the envelope falls below the relative floor: there the tail has
# dropped so far under the peak (more than twelve orders over less than a
# decade of x) that no admissible power law can explain it and the
# samples are transform rounding noise.
STEEPENING_LIMIT = 1.5
RELATIVE_FLOOR = 1e-12

# Moment-scan thresholds: ratios within 1% of 1 mean converged, ratios
# beyond this limit mean the moment is still growing with the domain.
RATIO_CONVERGED = 0.01
RATIO_DIVERGENT = 1.25


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid and its dual position grid.

    ``n_points`` must be a power of two (>= 256).  The dual grid spacing
    is fixed by dx = 2 pi / (n_points * dp), which makes the discrete
    transform exactly unitary.
    """

    n_points: int
    p_min: float
    p_max: float

    def __post_init__(self):
        n = self.n_points
        if n < 256 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 256, got {n}")
        if not math.isfinite(self.p_min):
            raise ValueError(f"p_min must be finite, got {self.p_min}")
        if not math.isfinite(self.p_max):
            raise ValueError(f"p_max must be finite, got {self.p_max}")
        if not (self.p_max > self.p_min):
            raise ValueError("p_max must exceed p_min")
        if not (0.0 < self.dp < math.inf) or not math.isfinite(self.dx):
            raise ValueError(f"p_max - p_min must give a positive finite spacing dp "
                             f"and a finite dx = 2 pi / (n_points dp), got dp = {self.dp}")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_points

    @property
    def momenta(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_points)

    @property
    def dx(self) -> float:
        return 2.0 * math.pi / (self.n_points * self.dp)

    @property
    def positions(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.dx

@dataclass(frozen=True, eq=False)
class MomentumState:
    """A normalized wavefunction sampled in the momentum representation."""

    grid: MomentumGrid
    phi_p: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi_p, dtype=np.complex128)
        if phi.shape != (self.grid.n_points,):
            raise ValueError("phi_p length must match the grid")
        if not np.isfinite(phi).all():
            raise ValueError("phi_p entries must be finite")
        n2 = float(np.sum(phi.real**2 + phi.imag**2) * self.grid.dp)
        if abs(n2 - 1.0) > ALGEBRA:
            raise ValueError(f"state not normalized: integral |phi|^2 dp = {n2!r}")
        phi = np.array(phi)
        phi.flags.writeable = False
        object.__setattr__(self, "phi_p", phi)

    def position_density(self) -> np.ndarray:
        """|Phi(x)|^2 on the dual grid, Phi the unitary transform of phi_p.

        Phi(x_j) = dp / sqrt(2 pi) * sum_i phi(p_i) exp(i p_i x_j).  With
        p_i = p_min + i dp and x_j = (j - n/2) dx this is
        exp(i p_min x_j) times an unnormalized inverse DFT read at index
        j - n/2: the phase has unit modulus, and the index shift is a
        half rotation of the output.
        """
        core = np.fft.ifft(self.phi_p, norm="forward")
        dens = np.fft.fftshift(core.real**2 + core.imag**2)
        dens *= self.grid.dp**2 / (2.0 * math.pi)
        return dens

    def overlap(self, other: "MomentumState") -> complex:
        _same_grid(self, other)
        return complex(np.vdot(self.phi_p, other.phi_p) * self.grid.dp)

    def position_moment(self, k: int) -> float:
        """<x^k> over the (finite) position domain."""
        dens = self.position_density()
        return float(np.sum(dens * self.grid.positions**k) * self.grid.dx)


def _same_grid(a: MomentumState, b: MomentumState) -> None:
    if a.grid != b.grid:
        raise ValueError("states live on different momentum grids")


def _normalized(grid: MomentumGrid, phi: np.ndarray) -> np.ndarray:
    n2 = float(np.sum(phi.real**2 + phi.imag**2) * grid.dp)
    if n2 == 0.0:
        raise ValueError("cannot normalize a zero wavefunction")
    return phi / math.sqrt(n2)


def build_window_state(grid: MomentumGrid, p1: float, p2: float, n: int,
                       b: float = 0.0) -> MomentumState:
    """Windowed polynomial state: (p2-p)^n (p-p1)^n e^{-ipb} inside [p1, p2].

    Exactly zero outside the window, where the carrier phase is not
    evaluated.  The zeros of order ``n`` at the window edges control the
    position-space tail: the envelope falls off as |x|^{-(n+1)}.
    """
    if not (grid.p_min < p1 < p2 < grid.p_max):
        raise ValueError(f"window [{p1}, {p2}] must lie inside "
                         f"({grid.p_min}, {grid.p_max})")
    if n < 0:
        raise ValueError("the edge-zero order n must be >= 0")
    p = grid.momenta
    inside = (p >= p1) & (p <= p2)
    p_in = p[inside]
    phi = np.zeros(grid.n_points, dtype=np.complex128)
    phi[inside] = ((p2 - p_in) ** n) * ((p_in - p1) ** n) * np.exp(-1j * p_in * b)
    return MomentumState(grid, _normalized(grid, phi))


def gaussian_state(grid: MomentumGrid, sigma_x: float, x0: float = 0.0) -> MomentumState:
    """Gaussian with position spread sigma_x centered at x0, at rest."""
    if sigma_x <= 0.0:
        raise ValueError("sigma_x must be positive")
    p = grid.momenta
    phi = np.exp(-(sigma_x**2) * p ** 2 - 1j * p * x0).astype(np.complex128)
    return MomentumState(grid, _normalized(grid, phi))


@dataclass(frozen=True)
class Superposition:
    """Two-branch superposition with orthogonal, normalized branches.

    Construction forms the joint product phi2*(p) phi1(p) once, which
    gives the orthogonality check its overlap, and keeps its nonzero
    entries with their momenta for :func:`collapse_residual`.  For
    branches with disjoint momentum supports both are empty.
    """

    alpha1: complex
    alpha2: complex
    phi1: MomentumState
    phi2: MomentumState
    _joint_p: np.ndarray = field(init=False, repr=False, compare=False)
    _joint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _same_grid(self.phi1, self.phi2)
        total = abs(self.alpha1) ** 2 + abs(self.alpha2) ** 2
        if abs(total - 1.0) > ALGEBRA:
            raise ValueError(f"|alpha1|^2 + |alpha2|^2 = {total!r}, must be 1")
        grid = self.phi1.grid
        joint = self.phi2.phi_p.conj() * self.phi1.phi_p
        support = np.flatnonzero(joint)
        joint = joint[support]
        # <phi1|phi2> is the conjugate of sum(joint) dp; only its modulus counts.
        if abs(complex(np.sum(joint))) * grid.dp > ORTHO_TOL:
            raise ValueError("branches are not orthogonal; use make_superposition")
        object.__setattr__(self, "_joint_p", grid.momenta[support])
        object.__setattr__(self, "_joint", joint)


def make_superposition(alpha1: complex, alpha2: complex,
                       phi1: MomentumState, phi2: MomentumState) -> Superposition:
    """Build a superposition, orthogonalizing the second branch.

    One projection step: phi2 <- phi2 - <phi1|phi2> phi1, renormalized.
    Fails if the branches were too parallel for that to leave a usable
    direction.
    """
    _same_grid(phi1, phi2)
    ov = phi1.overlap(phi2)
    adjusted = phi2.phi_p - complex(ov) * phi1.phi_p
    n2 = float(np.sum(adjusted.real**2 + adjusted.imag**2) * phi1.grid.dp)
    if n2 < 1e-12:
        raise ValueError("branches are numerically parallel")
    phi2o = MomentumState(phi1.grid, adjusted / math.sqrt(n2))
    scale = math.sqrt(abs(alpha1) ** 2 + abs(alpha2) ** 2)
    return Superposition(alpha1 / scale, alpha2 / scale, phi1, phi2o)


def eq1_residual(phi1: MomentumState, phi2: MomentumState) -> float:
    """Largest pointwise product |phi2*(p) phi1(p)| on the grid.

    Zero exactly when the momentum supports are disjoint, which is the
    condition for a branch replacement to conserve every function of
    momentum.
    """
    _same_grid(phi1, phi2)
    return float(np.max(np.abs(phi2.phi_p.conj() * phi1.phi_p)))


def collapse_residual(sup: Superposition, kind: str, value: float,
                      mass: float = 1.0) -> float:
    """Change of a generating-function expectation under branch replacement.

    The pre-collapse expectation of the generator G in the superposition
    minus the post-collapse mixture value leaves only the cross terms;
    this returns their modulus,

        | alpha1* alpha2 <phi1|G|phi2> + alpha2* alpha1 <phi2|G|phi1> |.

    Both cross matrix elements are kept: the generators are unitary, not
    Hermitian, so the two terms are not conjugates of each other.

    ``kind`` selects the generator: "momentum" for exp(i b P) with
    ``value`` = b, "energy" for exp(i a P^2/2M) with ``value`` = a.
    The generator g(p) is diagonal on the momentum grid, so with the
    joint product x = phi2*(p) phi1(p) the two elements are sum g x dp
    and sum g x* dp.  Both sums run over the support of x, which the
    superposition holds: g is evaluated there only, and for disjoint
    branches the support is empty and the residual exactly 0.0.
    """
    p = sup._joint_p
    if kind == "momentum":
        g = np.exp(1j * value * p)
    elif kind == "energy":
        g = np.exp(1j * value * p * p / (2.0 * mass))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    x = sup._joint
    dp = sup.phi1.grid.dp
    m21 = complex(np.dot(g, x) * dp)   # <phi2|G|phi1>
    m12 = complex(np.vdot(x, g) * dp)  # <phi1|G|phi2>
    cross = (sup.alpha1.conjugate() * sup.alpha2 * m12
             + sup.alpha2.conjugate() * sup.alpha1 * m21)
    return abs(cross)


@dataclass(frozen=True)
class TailFit:
    """Envelope fit of |Phi(x)| over the far field."""

    exponent: float
    is_polynomial: bool
    slope_inner: float
    slope_outer: float


def tail_fit(phi: MomentumState) -> TailFit:
    """Fit the far-field envelope of |Phi(x)| to a power law.

    The envelope is the per-bin maximum of |Phi| over
    ``TAIL_FIT_BINS`` logarithmically spaced bins of |x| in the wrap-safe
    band [X/128, X/16] of the half-domain X, both signs of x pooled.  The
    state must have decayed into its asymptotic regime inside that band,
    which holds for any momentum-windowed state on a grid of the default
    size or larger.  The fit is rejected as non-polynomial when the
    local slope steepens strongly outward or the envelope falls below
    ``RELATIVE_FLOOR`` times the peak of |Phi|.
    """
    dens = phi.position_density()
    x = phi.grid.positions
    absx = np.abs(x)
    x_max = absx.max()
    lo, hi = TAIL_FIT_INNER * x_max, TAIL_FIT_OUTER * x_max
    edges = np.geomspace(lo, hi, TAIL_FIT_BINS + 1)

    centers = []
    env = []
    for i in range(TAIL_FIT_BINS):
        mask = (absx >= edges[i]) & (absx < edges[i + 1])
        if not mask.any():
            continue
        env.append(dens[mask].max())
        centers.append(math.sqrt(edges[i] * edges[i + 1]))
    # The square root is monotone: the largest |Phi| is the root of the
    # largest density, so only the bin maxima are rooted.
    env = np.sqrt(np.array(env))
    centers = np.array(centers)
    if env.size < 6:
        raise NumericalFailure(
            f"tail fit needs more resolution: only {env.size} usable bins")
    if env.min() < RELATIVE_FLOOR * math.sqrt(float(dens.max())):
        return TailFit(exponent=math.inf, is_polynomial=False,
                       slope_inner=-math.inf, slope_outer=-math.inf)

    logs_x = np.log(centers)
    logs_e = np.log(env)
    half = env.size // 2
    s_in = np.polyfit(logs_x[:half], logs_e[:half], 1)[0]
    s_out = np.polyfit(logs_x[half:], logs_e[half:], 1)[0]
    slope = np.polyfit(logs_x, logs_e, 1)[0]
    is_poly = (s_in - s_out) < STEEPENING_LIMIT
    return TailFit(exponent=float(-slope), is_polynomial=bool(is_poly),
                   slope_inner=float(s_in), slope_outer=float(s_out))


def tail_exponent(phi: MomentumState) -> float:
    """Power-law exponent of the position-space envelope.

    Raises
    ------
    ValueError
        If the envelope decays faster than any power (no exponent exists).
    """
    fit = tail_fit(phi)
    if not fit.is_polynomial:
        raise ValueError(
            "envelope decay is super-polynomial; no tail exponent exists "
            f"(slopes {fit.slope_inner:.2f} -> {fit.slope_outer:.2f})")
    return fit.exponent


@dataclass(frozen=True)
class MomentScan:
    """Moment values under domain doubling and the resulting verdict."""

    domains: np.ndarray         # domain sizes L_j
    values: np.ndarray          # <x^k> on each domain
    ratios: np.ndarray
    verdict: str                # "divergent" | "convergent" | "undecided"


def moment_divergence_scan(builder: Callable[[MomentumGrid], MomentumState],
                           k: int, base_grid: MomentumGrid,
                           doublings: int = 4) -> MomentScan:
    """Probe whether <x^k> exists by re-rendering on growing domains.

    ``builder`` must produce the same physical state on any grid.  The
    momentum resolution dp is halved as n doubles, which doubles the
    position domain at fixed dx; a finite moment stabilizes, a divergent
    one keeps growing geometrically.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError("moment order k must be even and non-negative")
    grid = base_grid
    sizes = []
    values = []
    for _ in range(doublings + 1):
        state = builder(grid)
        x = grid.positions
        sizes.append(x[-1] - x[0])
        values.append(state.position_moment(k))
        grid = MomentumGrid(grid.n_points * 2, grid.p_min, grid.p_max)
    values = np.array(values)
    sizes = np.array(sizes)
    ratios = values[1:] / values[:-1]
    last = float(ratios[-1])
    if abs(last - 1.0) <= RATIO_CONVERGED:
        verdict = "convergent"
    elif last >= RATIO_DIVERGENT:
        verdict = "divergent"
    else:
        verdict = "undecided"
    return MomentScan(domains=sizes, values=values, ratios=ratios, verdict=verdict)

