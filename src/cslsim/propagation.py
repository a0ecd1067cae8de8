"""Batched trajectory propagation engine.

The collapse propagator for one step is exp(-(dt/4 lam) (w_k - 2 lam A(m_k))^2)
with A(m_k) the coupling rotated to the step midpoint.  Three identities make
the evolution cheap and stable:

* The step factor splits exactly into a scalar Gaussian factor
  exp(-w_k^2 dt / 4 lam) times the *reduced* factor
  exp(dt (w_k A(m_k) - lam A(m_k)^2)).  Only the reduced factor carries
  operator content, and its norm stays O(1) along a path, so all state
  arithmetic happens in the reduced picture with the scalar tracked in
  log space.
* Successive midpoint frames differ by the constant rotation exp(-iH dt),
  so a whole trajectory is: enter the first midpoint eigenframe of the
  coupling once, then alternate a diagonal collapse factor with a fixed
  frame-transfer G, and leave the frame once at the end.
* With W the A-frame form of exp(+iH dt/2), the cooked drift of step k+1
  is <A> in the pre-step frame, <G c_k| W^dag A W |G c_k>, and W G = W^dag
  turns it into <c_k| W A W^dag |c_k>: the post-step <A> of step k.  One
  evaluation after each step therefore serves both the next drift and
  the ensemble's <A> series.

A backend supplies the frame operations.  Its ``advance`` method maps a
post-step state to the next pre-step state and returns the post-step <A>
(and <H> on request) from the same work.  ``SpectralBackend`` works for
any dense pair (H, A) via their eigendecompositions; ``GridBackend``
specializes the position-coupled particle on a periodic grid, where the
transfer is a Fourier multiplier and the coupling is diagonal on the grid,
so no dense matrix ever appears in the hot loop.  On the grid one forward
transform F of c_k per step serves the transfer ifft(F phase_full), the
position density |ifft(F phase_half)|^2 behind <A>, and <H> from |F|^2:
three transforms per step, computed in place.  Every grid reduction in
the loop (squared norms, <A>, <H>) is one dot product per row
(``numpy.vecdot``), the densities squared in place on the float view
of a complex row: no conjugate copy, no BLAS matrix-vector product
(which OpenBLAS may thread inside each worker), and a row's bits do not
depend on the batch it sits in.  After the last step
``read_out`` gives the normalized coupling populations and the lab-frame
states from one pass over the final internal states (one transform pair
on the grid).

All randomness is injected by the caller as pre-drawn standardized
increments, which keeps results independent of batching.

The field-energy estimator sum_j (w_{j+1} - w_j) Im <c_S| U_{j->S} A+ c_j>
(up to the reduced norms) pairs every field jump with the same bra <c_S|,
so by linearity it is Im <c_S|eta_S> for one vector eta carried forward
beside the state: step k adds (w_k - w_{k-1}) G A+ c_{k-1}, then eta takes
the state's collapse factor, normalization and transfer.

Memory orders.  Every batch array keeps the trajectory-first shape its
callers index, (B, d) for states, but the backend chooses how the array
is laid out (``backend.empty``).  ``SpectralBackend`` holds a batch of
states as C-order (d, B), so each numpy call of a step runs one long
loop over the trajectories instead of B loops of length d;
``GridBackend`` holds it as C-order (B, N), so every transform runs
along a contiguous row.  Per-step arrays (field values and increments)
are held step-major, (S, B) in memory, so a step reads and writes one
contiguous row; the moments are not kept per step at all, only summed
over the batch as each step makes them.  Dense products are row-major
BLAS calls on the trajectory-first view, written back into the
backend's layout: the column-major product G c on the (d, B) memory
would round the last columns of a batch differently with the batch
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import EXP_LIMIT, HermitianOperator
from .noise import CollapseParams, TimeGrid


@dataclass(frozen=True)
class GridInfo:
    """Periodic position grid for a free particle coupled through position.

    The kinetic energy is diagonal in the discrete Fourier basis, the
    coupling (position) is diagonal on the grid.
    """

    n_points: int
    dx: float
    mass: float = 1.0

    def __post_init__(self):
        if self.n_points < 2 or (self.n_points & (self.n_points - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {self.n_points}")
        # The wavenumbers run to pi / dx, which must be finite too.
        if not (0.0 < self.dx < math.inf) or not math.isfinite(math.pi / self.dx):
            raise ValueError(f"dx must be positive and finite, and pi / dx finite, "
                             f"got {self.dx}")
        if not (self.mass > 0.0) or not np.isfinite(self.mass):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    @property
    def positions(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.dx

    def momenta(self, hbar: float) -> np.ndarray:
        """Momentum values in FFT ordering."""
        return 2.0 * np.pi * hbar * np.fft.fftfreq(self.n_points, d=self.dx)

    def kinetic_energies(self, hbar: float) -> np.ndarray:
        p = self.momenta(hbar)
        return p * p / (2.0 * self.mass)


class SpectralBackend:
    """Dense-operator backend built from the eigendecompositions of H and A."""

    def __init__(self, hamiltonian: HermitianOperator, coupling: HermitianOperator,
                 dt: float, hbar: float):
        spec_a = coupling.spectrum()
        spec_h = hamiltonian.spectrum()
        self.dim = coupling.dim
        self.coupling_values = spec_a.eigenvalues.copy()
        self._va = spec_a.eigenvectors
        # P maps H-eigenbasis coefficients to A-eigenbasis coefficients.
        p = self._va.conj().T @ spec_h.eigenvectors
        phase_full = np.exp(-1j * spec_h.eigenvalues * dt / hbar)
        phase_half = np.exp(-1j * spec_h.eigenvalues * (0.5 * dt) / hbar)
        self._g = (p * phase_full) @ p.conj().T
        w = (p * phase_half.conj()) @ p.conj().T  # A-frame form of exp(+iH dt/2)
        self._w = w
        self._a_plus = (w * self.coupling_values) @ w.conj().T
        self._h_tilde = (p * spec_h.eigenvalues) @ p.conj().T
        self._g_coupling = self._g @ self._a_plus

    def enter(self, psi: np.ndarray) -> tuple:
        """Internal state of the lab state ``psi`` before the first step,
        with the <A> and <H> of ``psi``."""
        q = self._va.conj().T @ psi
        pops = q.real**2 + q.imag**2
        n2 = float(pops.sum())
        mean_a = float(pops @ self.coupling_values) / n2
        mean_h = float((q.conj() @ (self._h_tilde @ q)).real) / n2
        return self._w.conj().T @ q, mean_a, mean_h

    def read_out(self, c: np.ndarray) -> tuple:
        """Final read-out of the internal states ``c`` after the last step.

        Returns ``(populations, lab)``: the normalized populations of the
        final Schrodinger states in the A eigenbasis, and those states in
        the lab frame rotated back to time T (i.e. exp(-iHT) times the
        interaction-picture states).
        """
        return (_normalized_populations(c @ self._w.conj()),
                c @ (self._va @ self._w.conj().T).T)

    def empty(self, b: int, dtype=np.complex128) -> np.ndarray:
        """An uninitialized batch array of shape (b, d), held as C-order
        (d, b): the trajectory axis is contiguous."""
        return np.empty((self.dim, b), dtype=dtype).T

    def _product(self, c: np.ndarray, right: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """``c @ right`` in this backend's memory order, into ``out`` (which
        may be ``c``) or a new array.

        The product is the row-major call on the trajectory-first view, then
        copied into place; ``matmul(..., out=...)`` on the trajectory-
        contiguous memory would run the column-major product instead, whose
        rounding depends on the batch size.
        """
        out = self.empty(c.shape[0]) if out is None else out
        out[...] = c @ right
        return out

    @staticmethod
    def norm2(c: np.ndarray) -> np.ndarray:
        """Squared norms of the trajectories ``c``.  On this backend's memory
        the sum over the state axis is not along contiguous memory, so numpy
        adds it in index order."""
        return _abs2(c).sum(axis=1)

    def transfer_coupling(self, c: np.ndarray) -> np.ndarray:
        """G A+ c: the post-step coupling of ``c``, transferred to the next
        step's frame, as a new array."""
        return self._product(c, self._g_coupling.T)

    @staticmethod
    def _expect(bra: np.ndarray, c: np.ndarray, m: np.ndarray) -> np.ndarray:
        """<c|m|c> per trajectory, with ``bra`` the conjugate of ``c``."""
        return np.einsum("bi,bi->b", bra, c @ m.T).real

    def advance(self, c: np.ndarray, *, transfer: bool = True, coupling: bool = True,
                energy: bool = False) -> tuple:
        """Post-step moments of ``c`` and, if ``transfer``, the next pre-step
        state.

        Returns ``(state, mean_a, mean_h)``: ``state`` is ``c`` transferred
        to the next step's frame (``c`` itself when ``transfer`` is false),
        ``mean_a`` the post-step <A> when ``coupling`` is set and ``mean_h``
        the <H> when ``energy`` is set; moments not asked for are None.
        With ``transfer`` set, ``c`` is overwritten by the returned state.
        """
        bra = c.conj() if coupling or energy else None
        mean_a = self._expect(bra, c, self._a_plus) if coupling else None
        mean_h = self._expect(bra, c, self._h_tilde) if energy else None
        if transfer:
            self._product(c, self._g.T, out=c)
        return c, mean_a, mean_h


class GridBackend:
    """FFT backend for a position-coupled particle on a periodic grid."""

    def __init__(self, info: GridInfo, dt: float, hbar: float):
        self.dim = info.n_points
        self.coupling_values = info.positions
        e = info.kinetic_energies(hbar)
        self._energies = e
        self._phase_full = np.exp(-1j * e * dt / hbar)
        self._phase_half = np.exp(-1j * e * (0.5 * dt) / hbar)
        # Weights of the float view (re_0, im_0, re_1, im_1, ...) of a row:
        # squared in place, its dot with these gives <A> and <H>.
        self._x_pairs = np.repeat(self.coupling_values, 2)
        self._e_pairs = np.repeat(e, 2) / self.dim

    def empty(self, b: int, dtype=np.complex128) -> np.ndarray:
        """An uninitialized batch array of shape (b, N), C-order: the grid
        axis is contiguous, as the transforms need."""
        return np.empty((b, self.dim), dtype=dtype)

    def _kinetic(self, c: np.ndarray, phase: np.ndarray) -> np.ndarray:
        f = np.fft.fft(c, axis=-1)
        f *= phase
        return np.fft.ifft(f, axis=-1, out=f)

    def enter(self, psi: np.ndarray) -> tuple:
        """Internal state of the lab state ``psi`` before the first step,
        with the <A> and <H> of ``psi``."""
        f = np.fft.fft(psi, axis=-1)
        pops = psi.real**2 + psi.imag**2
        n2 = float(pops.sum())
        mean_a = float(pops @ self.coupling_values) / n2
        mean_h = float((f.real**2 + f.imag**2) @ self._energies) / (self.dim * n2)
        return np.fft.ifft(f * self._phase_half, axis=-1), mean_a, mean_h

    def read_out(self, c: np.ndarray) -> tuple:
        """Same contract as :meth:`SpectralBackend.read_out`; the coupling
        is diagonal on the grid, so one half-step kinetic transform gives
        both the lab states and their position populations."""
        lab = self._kinetic(c, self._phase_half)
        return _normalized_populations(lab), lab

    @staticmethod
    def norm2(c: np.ndarray) -> np.ndarray:
        """Squared norms of the trajectories ``c``: one conjugating dot
        product per row, with no conjugate copy.  A row's sum depends on
        that row alone, not on the batch it sits in."""
        return np.vecdot(c, c).real

    def transfer_coupling(self, c: np.ndarray) -> np.ndarray:
        """Same contract as :meth:`SpectralBackend.transfer_coupling`, as
        K_half x K_half c with K_half the half-step kinetic transfer."""
        shifted = self._kinetic(c, self._phase_half)
        shifted *= self.coupling_values
        return self._kinetic(shifted, self._phase_half)

    def advance(self, c: np.ndarray, *, transfer: bool = True, coupling: bool = True,
                energy: bool = False) -> tuple:
        """Same contract as :meth:`SpectralBackend.advance`, from one forward
        transform F of ``c``: the transfer is ifft(F phase_full), <A> is read
        from the density of ifft(F phase_half) and <H> from |F|^2.

        With ``transfer`` set, ``c`` is overwritten (it holds F and then the
        transferred state, which is returned).  Both moments are per-row dot
        products on the float view of one work array, squared in place.
        """
        f = np.fft.fft(c, axis=-1, out=c if transfer else None)
        mean_a = mean_h = None
        if coupling or energy:
            shifted = f * self._phase_half
            sq = shifted.view(np.float64)
        if coupling:
            np.fft.ifft(shifted, axis=-1, out=shifted)
            mean_a = np.vecdot(np.square(sq, out=sq), self._x_pairs)
        if energy:
            mean_h = np.vecdot(np.square(f.view(np.float64), out=sq), self._e_pairs)
        if not transfer:
            return c, mean_a, mean_h
        f *= self._phase_full
        return np.fft.ifft(f, axis=-1, out=f), mean_a, mean_h


def _abs2(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """re(z)^2 + im(z)^2, written into ``out`` when given."""
    out = np.square(z.real, out=out)
    out += np.square(z.imag)
    return out


def _normalized_populations(coeffs: np.ndarray) -> np.ndarray:
    """Row-normalized |coeffs|^2."""
    pops = _abs2(coeffs)
    pops /= pops.sum(axis=1, keepdims=True)
    return pops


def make_backend(scenario, dt: float):
    """Pick the propagation backend for a scenario."""
    info = getattr(scenario, "grid_info", None)
    if info is not None:
        return GridBackend(info, dt, scenario.params.hbar)
    return SpectralBackend(scenario.hamiltonian, scenario.collapse_op, dt, scenario.params.hbar)


@dataclass
class BatchResult:
    """Raw arrays produced by one batched propagation.

    States are kept normalized; ``log_red`` accumulates the log squared
    norm of the reduced propagator (the importance weight in raw mode).
    ``interaction`` is the terminal interaction functional
    w_T <A> - 2 lam <A^2> in the final state, unweighted, and
    ``field_energy`` the per-trajectory field-energy estimator
    wt Im <c_S|eta_S> (wt the final weight, :func:`evolve_batch`).

    Shapes are trajectory-first; the memory orders are the kernel's.
    ``final_internal`` is in the backend's order (``backend.empty``):
    trajectory axis contiguous on the dense backend, grid axis contiguous
    on the grid.  ``w`` is the transposed view of a step-major (S, B)
    array; it views the caller's ``draws`` when they are step-major
    (always in cooked mode, which writes the field values over them).
    """

    final_internal: np.ndarray          # (B, d) normalized
    log_red: np.ndarray                 # (B,)
    w: np.ndarray                       # (B, S) realized field values
    failed: np.ndarray                  # (B,) bool
    interaction: np.ndarray             # (B,)
    field_energy: Optional[np.ndarray] = None     # (B,)


def _normalize(c: np.ndarray, n2: np.ndarray) -> None:
    """Divide every trajectory of ``c`` by the root of its squared norm
    ``n2``, in place.  numpy would divide by the real r as a complex
    division by r + 0i, which multiplies both parts by 1/r; multiplying by
    1/r directly gives the same bits without the division's extra work."""
    c *= (1.0 / np.sqrt(n2))[:, None]


def _step_exponent(w_k: np.ndarray, a: np.ndarray, damp: np.ndarray, dt: float,
                   out: np.ndarray) -> np.ndarray:
    """The reduced step exponent dt (w_k a - lam a^2) of every trajectory,
    written into ``out``."""
    np.multiply(w_k[:, None], a, out=out)
    out -= damp
    out *= dt
    return out


def evolve_batch(backend, grid: TimeGrid, params: CollapseParams, psi0: np.ndarray,
                 draws: np.ndarray, *, mode: str, series: Optional[np.ndarray] = None,
                 with_field_energy: bool = False) -> BatchResult:
    """Propagate a batch of trajectories sharing one scenario.

    Parameters
    ----------
    backend : SpectralBackend or GridBackend
    grid, params : discretization and collapse parameters
    psi0 : (d,) normalized initial amplitudes shared by the batch
    draws : (B, S) zero-mean increments in cooked mode, the field values
        themselves in raw mode
    mode : "cooked" (state-dependent drift 2 lam <A> added to ``draws``)
        or "raw" (``draws`` used verbatim)
    series : optional (3, S+1) array; column k receives the sums over the
        batch of wt, wt <A> and wt <H> at time t_k, wt being a row's weight
        then: exp(log_red) in raw mode, 1 in cooked mode, and 0 from the
        step at which the row fails on.
    with_field_energy : also carry the field-energy vector eta forward
        beside the state and give the estimator, so weighted, in
        ``field_energy``; with one step there is no field jump and it is zero

    ``draws`` may have any memory order; step k reads its column k, which
    is contiguous when it is the transposed view of a step-major (S, B)
    array, as :func:`cslsim.noise.block_increments` returns for the B
    trajectories ``lo`` .. ``hi - 1``.  The results do not depend on the
    order.  Cooked mode consumes ``draws``, which must then be a writable
    float64 array: each step's field value overwrites the increment it
    reads, so after the call ``draws`` holds the field values and the
    result's ``w`` is a view of it.  Raw draws are never written; in that
    order they are read in place and ``w`` is a view of them too.

    Notes
    -----
    Each step applies the diagonal collapse factor to the pre-step state
    and then calls ``backend.advance`` once on the normalized post-step
    state c_k.  That call returns the state transferred to the next
    frame together with the post-step <A>, which is both the term of the
    <A> sum and, because W G = W^dag, the cooked drift of step k+1; <H>
    comes from the same call when ``series`` is given.  On the grid
    backend this is one forward FFT of c_k and two inverse ones per step.
    The first drift and the t = 0 sums are the moments of ``psi0``
    itself.  The last step is not transferred:
    ``final_internal`` is the post-step state that ``backend.read_out``
    expects.

    With ``with_field_energy`` each step also carries eta (module
    docstring): on the grid two more transforms transfer it and four give
    G A+ c_k (``backend.transfer_coupling``), taken before c_k moves on.

    Failed rows are flagged, not raised; the ensemble layer decides how
    many failures are tolerable.  A row fails when its step exponent
    exceeds ``EXP_LIMIT / 2`` (the squared norm doubles the exponent, so
    it would overflow from about 354.9; the row's step is then skipped)
    or when its squared norm underflows to zero.
    """
    s = grid.steps
    dt = grid.dt
    lam = params.lam
    if mode not in ("cooked", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    b = draws.shape[0]
    if draws.shape != (b, s):
        raise ValueError(f"draws must have shape (B, {s})")

    d = backend.dim
    a = backend.coupling_values
    damp = lam * a * a  # the deterministic part of the reduced exponent
    cooked = mode == "cooked"

    c0, mean_a, mean_h = backend.enter(np.asarray(psi0, dtype=np.complex128))
    c = backend.empty(b)
    c[...] = c0
    _normalize(c, backend.norm2(c))
    expo = backend.empty(b, dtype=float)

    log_red = np.zeros(b)
    failed = np.zeros(b, dtype=bool)
    # Step-major: row k - 1 holds the field values of step k.
    if cooked:
        # Each step's field value overwrites the increment it reads.
        w_steps = draws.T
    else:
        # Read in place when step-major already; raw mode never writes it.
        w_steps = np.ascontiguousarray(draws.T, dtype=float)

    # eta carries the field-energy estimator's ket (module docstring), in
    # the state's memory order; coupled holds G A+ c_{k-1} for step k.
    eta = np.zeros_like(c) if with_field_energy else None
    coupled = None

    # Each row's weight at the current time (``series`` in the docstring).
    wt = np.ones(b)
    flagged = False

    def weigh():
        if not cooked:
            np.exp(log_red, out=wt)
        if flagged:
            wt[failed] = 0.0
        return wt

    def add_sums(k, mean_a, mean_h):
        # One contiguous copy of <A> and <H>: one dot product gives both sums.
        moments[0], moments[1] = mean_a, mean_h
        series[0, k] = weigh().sum()
        series[1:, k] = np.vecdot(wt, moments)

    if series is not None:
        moments = np.empty((2, b))
        add_sums(0, mean_a, mean_h)

    for k in range(1, s + 1):
        wk = w_steps[k - 1]
        if cooked:
            np.add(2.0 * lam * mean_a, wk, out=wk)
        if coupled is not None:
            coupled *= (wk - w_steps[k - 2])[:, None]
            eta += coupled

        _step_exponent(wk, a, damp, dt, expo)
        # One max over the whole block is far cheaper than a reduction
        # along the short state axis; rows are located only on overflow.
        if expo.max() > EXP_LIMIT / 2:
            bad = expo.max(axis=1) > EXP_LIMIT / 2
            failed |= bad
            flagged = True
            expo[bad] = 0.0
        c *= np.exp(expo, out=expo)
        if eta is not None:
            eta *= expo
        n2 = backend.norm2(c)
        dead = n2 == 0.0
        if dead.any():
            failed |= dead
            flagged = True
            n2[dead] = 1.0
            c[dead] = 0.0
            c[dead, 0] = 1.0
        log_red += np.log(n2)
        _normalize(c, n2)

        last = k == s
        if eta is not None:
            _normalize(eta, n2)
            if not last:
                coupled = backend.transfer_coupling(c)
                eta = backend.advance(eta, coupling=False)[0]
        if series is not None or not last:
            c, mean_a, mean_h = backend.advance(
                c, transfer=not last, coupling=series is not None or cooked,
                energy=series is not None)
            if series is not None:
                add_sums(k, mean_a, mean_h)

    # The coupling is diagonal in the final internal frame, so both moments
    # of the interaction functional are direct sums: one dot product per
    # row of the trajectory-first populations, so a row's value does not
    # depend on the batch it sits in, whatever the backend's memory order.
    pops = _abs2(c, out=np.empty((b, d)))
    interaction = w_steps[-1] * np.vecdot(pops, a) - 2.0 * lam * np.vecdot(pops, a * a)

    field_energy = None
    if eta is not None:
        field_energy = weigh() * np.vecdot(c, eta).imag

    return BatchResult(
        final_internal=c,
        log_red=log_red,
        w=w_steps.T,
        failed=failed,
        interaction=interaction,
        field_energy=field_energy,
    )

