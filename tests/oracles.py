"""Reference implementations shared by the tests.

The package never materializes the grid's kinetic operator: it applies
it as a Fourier multiplier.  The tests build it densely, once, to check
that route against plain matrix products.  The grid split-step is
checked against the two-axis form it had before it moved onto the ring,
kept here, and its kappa-sectors are built from their definition.  The
dense propagation kernel is checked against its earlier row-major form,
kept here with the per-row series the kernel no longer holds, and its
forward-carried field-energy estimator against the reverse sweep over
stored states that the kernel once ran.  The ledger's
drift formula is checked against the rotating-frame expectation it
differentiates, and its one-product route against the stacked double
commutators it replaced.  Eigenvalue grouping is checked against its
earlier loop, and the collapse residual against its two cross elements
computed apart, over the whole grid, by the generating-function
overlaps.  The position density is checked against the momentum ->
position transform summed directly, at small n.

The per-block noise stream, drawn whole in one call, is the reference
that the ensemble's tiled draws over any range of trajectories match bit
for bit, and a field path of given values runs through the kernel as a
one-row batch.

The rest are oracles the package itself has no use for: the
interaction-picture rotation, the position -> momentum transform, the
closed-form Gaussian translate overlap, the equal-phase symmetry scan,
the distance of a state from its nearest collapse outcome, and the
ensemble's density matrix from its kept final states.
"""

import math
from dataclasses import dataclass

import numpy as np

from cslsim.ensemble import DensityMatrix
from cslsim.hilbert import DEGENERACY_RTOL, HermitianOperator, eigenvalue_groups
from cslsim.postulate import MomentumState, make_superposition
from cslsim.propagation import evolve_batch, make_backend


def trajectory_increments(grid, params, master_seed, index):
    """The zero-mean part of the path of trajectory ``index`` at
    ``master_seed``: row ``index % 64`` of the (64, S) normals that block
    ``index // 64`` draws in one call from its own
    ``SeedSequence(master_seed, spawn_key=(index // 64,))``, times
    sqrt(lam/dt)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(index // 64,))
    block = np.random.default_rng(seq).standard_normal((64, grid.steps))
    return block[index % 64] * np.sqrt(params.lam / grid.dt)


def run_path(scenario, values, *, series=None, with_field_energy=False):
    """Run the field ``values`` verbatim (raw mode) as a one-row batch.
    Returns the batch result and the unnormalized lab-frame final state,
    whose squared norm is the path's reduced-propagator weight.  A (3, S+1)
    ``series`` receives the kernel's sums, which for one row are its weight
    exp(log-norm) at each time and that weight times its <A> and <H>."""
    backend = make_backend(scenario, scenario.grid.dt)
    batch = evolve_batch(backend, scenario.grid, scenario.params,
                         scenario.psi0.amplitudes, np.array(values, dtype=float)[None, :],
                         mode="raw", series=series, with_field_energy=with_field_energy)
    _, lab = backend.read_out(batch.final_internal)
    return batch, lab[0] * math.exp(0.5 * batch.log_red[0])


def interaction_picture(a, h, t):
    """Conjugate ``a`` by the propagator of ``h``: exp(iht) a exp(-iht),
    through the eigendecomposition of ``h``, symmetrized."""
    if a.dim != h.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {h.dim}")
    if t == 0.0:
        return a
    spec = h.spectrum()
    u = spec.eigenvectors * np.exp(1j * spec.eigenvalues * t)
    rotated = u @ (spec.eigenvectors.conj().T @ a.matrix @ spec.eigenvectors) @ u.conj().T
    return HermitianOperator(0.5 * (rotated + rotated.conj().T))


def to_position(grid, phi_p):
    """Phi(x_j) = dp / sqrt(2 pi) * sum_i phi(p_i) exp(i p_i x_j), the
    unitary momentum -> position transform, as a direct n x n sum: keep
    n small.  With p_i = p_min + i dp and x_j = (j - n/2) dx, p_i x_j is
    p_min x_j plus 2 pi i (j - n/2) / n, whose turns are reduced mod n
    over the integers, so the phases stay exact far out on the grid."""
    n = grid.n_points
    k = np.arange(n)
    turns = np.outer(k - n // 2, k) % n
    kernel = np.exp((2j * math.pi / n) * turns)
    return ((grid.dp / math.sqrt(2.0 * math.pi)) * np.exp(1j * grid.p_min * grid.positions)
            * (kernel @ phi_p))


def to_momentum(grid, psi_x):
    """Inverse of :func:`to_position`, by FFT."""
    n = grid.n_points
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    core = np.fft.fft(psi_x * np.exp(-1j * grid.p_min * grid.positions))
    return (grid.dx / math.sqrt(2.0 * math.pi)) * signs * core


def gaussian_translate_overlap(sigma, b):
    """|<Gamma| exp(i b P) |Gamma>| = exp(-b^2 / 8 sigma^2) for a Gaussian
    of position spread sigma: positive at every finite shift."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return math.exp(-(b * b) / (8.0 * sigma * sigma))


def generating_overlap_P(phi1, phi2, b):
    """<phi2| exp(i b P) |phi1> by momentum-grid quadrature."""
    if phi1.grid != phi2.grid:
        raise ValueError("states live on different momentum grids")
    p = phi1.grid.momenta
    return complex(np.sum(np.exp(1j * b * p) * phi2.phi_p.conj() * phi1.phi_p)
                   * phi1.grid.dp)


def generating_overlap_E(phi1, phi2, a, mass=1.0):
    """<phi2| exp(i a P^2 / 2 mass) |phi1> by momentum-grid quadrature."""
    if phi1.grid != phi2.grid:
        raise ValueError("states live on different momentum grids")
    p = phi1.grid.momenta
    return complex(np.sum(np.exp(1j * a * p * p / (2.0 * mass))
                          * phi2.phi_p.conj() * phi1.phi_p) * phi1.grid.dp)


def collapse_residual_pair(sup, kind, value, mass=1.0):
    """The collapse residual from the two cross elements computed apart,
    each from its own generator and product."""
    if kind == "momentum":
        m12 = generating_overlap_P(sup.phi2, sup.phi1, value)
        m21 = generating_overlap_P(sup.phi1, sup.phi2, value)
    else:
        m12 = generating_overlap_E(sup.phi2, sup.phi1, value, mass)
        m21 = generating_overlap_E(sup.phi1, sup.phi2, value, mass)
    return abs(sup.alpha1.conjugate() * sup.alpha2 * m12
               + sup.alpha2.conjugate() * sup.alpha1 * m21)


def equal_phase_symmetry(envelope1, envelope2, theta, grid, b_max, n_shifts=201):
    """Scan |I(b)|, I(b) = <phi2| exp(i b P) |phi1>, over b in [-b_max, b_max]
    (``n_shifts`` odd) for the branches R_i(p) exp(i theta(p)),
    orthogonalized.  Returns (largest |I(b)| - |I(-b)|, the positive
    shift of the largest |I|, the negative one)."""
    p = grid.momenta

    def state(envelope):
        phi = envelope(p) * np.exp(1j * theta(p))
        return MomentumState(grid, phi / math.sqrt(float(np.sum(np.abs(phi) ** 2) * grid.dp)))

    phi1 = state(envelope1)
    phi2 = make_superposition(1 / math.sqrt(2), 1 / math.sqrt(2), phi1, state(envelope2)).phi2
    shifts = np.linspace(-b_max, b_max, n_shifts)
    mags = np.array([abs(generating_overlap_P(phi1, phi2, b)) for b in shifts])
    half = n_shifts // 2
    asym = float(np.max(np.abs(mags[half + 1:] - mags[:half][::-1])))
    pos = shifts[half + 1:][np.argmax(mags[half + 1:])]
    neg = shifts[:half][np.argmax(mags[:half])]
    return asym, float(pos), float(neg)


@dataclass(frozen=True)
class CollapseMetrics:
    """How close a state is to a collapse outcome."""

    variance: float
    nearest_eigenvalue: float
    distance: float


def collapse_metrics(psi, coupling):
    """The coupling variance in the normalized ``psi``, the distinct
    eigenvalue nearest to the coupling mean, and one minus the squared
    projection onto that eigenvalue's eigenspace (eigenvalues grouped by
    :func:`cslsim.hilbert.eigenvalue_groups`)."""
    psin = psi.normalized()
    spec = coupling.spectrum()
    vals = spec.eigenvalues
    coeffs = spec.eigenvectors.conj().T @ psin.amplitudes
    probs = coeffs.real**2 + coeffs.imag**2
    mean = float(probs @ vals)
    var = max(float(probs @ (vals * vals)) - mean * mean, 0.0)
    groups, reps = eigenvalue_groups(vals)
    idx = int(np.argmin(np.abs(reps - mean)))
    a, b = groups[idx]
    return CollapseMetrics(variance=var, nearest_eigenvalue=float(reps[idx]),
                           distance=max(1.0 - float(probs[a:b].sum()), 0.0))


def ensemble_density_matrix(stats):
    """Weighted average of |psi><psi| over an ensemble's kept final states."""
    if stats.final_states is None:
        raise ValueError("run the ensemble with keep_final_states=True")
    psi = stats.final_states
    rho = np.einsum("b,bi,bj->ij", stats.final_weights, psi, psi.conj())
    rho /= np.trace(rho).real
    return DensityMatrix(0.5 * (rho + rho.conj().T))


def loop_eigenvalue_groups(values):
    """The grouping loop that :func:`cslsim.hilbert.eigenvalue_groups`
    replaced: ``(groups, means)`` with groups a list of (lo, hi)."""
    tol = DEGENERACY_RTOL * max(float(values[-1] - values[0]), 1.0)
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            groups.append((start, i))
            start = i
    return groups, np.array([values[lo:hi].mean() for lo, hi in groups])


def dense_kinetic_hamiltonian(info, hbar):
    """The periodic grid's kinetic operator as a dense Hermitian matrix."""
    e = info.kinetic_energies(hbar)
    h = np.fft.ifft(e[:, None] * np.fft.fft(np.eye(info.n_points), axis=0), axis=0)
    return 0.5 * (h + h.conj().T)


# Closed-form grid channels against the same quantity read from a
# split-step final rho by the Fourier route.  Measured floor on seam-clear
# packets: 8.7e-13 on the system energy and 4.5e-13 on the commutator
# trace (relative to the size of its cancelling terms); 9.5e-14 on the
# energy where the coherence reaches the seam.
SECTOR_MATCH = 1e-11


def sectors(rho):
    """The kappa-sectors Q[kappa, d] = sum_j exp(-2 pi i kappa j / N)
    rho(j + d, j) of ``rho``, from their definition."""
    n = rho.shape[0]
    j = np.arange(n)[:, None]
    return np.fft.fft(rho[(j + j.T) % n, j], axis=0)


def fourier_energy(rho, info, hbar):
    """Tr(H rho) through the Fourier-multiplier route H rho = ifft(e * fft(rho))."""
    e = info.kinetic_energies(hbar)
    return float(np.einsum("ii->", np.fft.ifft(e[:, None] * np.fft.fft(rho, axis=0),
                                               axis=0)).real)


def two_axis_split_step(scenario, steps):
    """The grid split-step before it moved onto the ring: rho held whole,
    the collapse factor exp(-(lam dt / 2)(x_i - x_j)^2) at the unwrapped
    distance, and the kinetic step U rho U^dag as column transforms for
    U rho, then row transforms for (U rho) U^dag.  Returns the final
    rho."""
    info, params = scenario.grid_info, scenario.params
    dt = scenario.grid.t_end / steps
    x = info.positions
    e = info.kinetic_energies(params.hbar)

    def kinetic(r, t, scale):
        phase = np.exp(-1j * e * t / params.hbar)
        r = np.fft.ifft(phase[:, None] * np.fft.fft(r * scale, axis=0), axis=0)
        return np.fft.fft(np.fft.ifft(r, axis=1) * phase.conj()[None, :], axis=1)

    psi = scenario.psi0.amplitudes
    decay = np.exp(-0.5 * params.lam * dt * np.subtract.outer(x, x) ** 2)
    rho = kinetic(np.outer(psi, psi.conj()), 0.5 * dt, 1.0)
    for k in range(steps):
        rho *= decay
        rho = kinetic(rho, dt if k < steps - 1 else 0.5 * dt, 1.0 / np.trace(rho).real)
    return 0.5 * (rho + rho.conj().T)


def rotating_expectation(q, scenario, series):
    """Tr(q rho_I(t)) along a dense series: the rotating-frame expectation
    whose derivative :func:`cslsim.ledger.observable_drift` predicts."""
    h = scenario.hamiltonian
    hbar = scenario.params.hbar
    out = np.empty(series.times.size)
    for i, t in enumerate(series.times):
        q_rot = interaction_picture(q, h, -t / hbar)
        out[i] = float(np.einsum("ij,ji->", series.rhos[i], q_rot.matrix).real)
    return out


def stacked_drift(q, scenario, series):
    """The drift -(lam/2) Tr(q(t) [A,[A,rho(t)]]) as the ledger formed it
    before its one-product route: the double commutators of the whole
    series as stacked (T, d, d) products, rotated into the eigenbasis of
    H, and contracted with q_mn exp(-i omega_mn t) by one einsum."""
    a = scenario.collapse_op.matrix
    spec = scenario.hamiltonian.spectrum()
    v = spec.eigenvectors
    rhos = series.rhos
    a2 = a @ a
    dc_eig = v.conj().T @ (a2 @ rhos + rhos @ a2 - 2.0 * (a @ rhos @ a)) @ v
    q_eig = v.conj().T @ q.matrix @ v
    omega = np.subtract.outer(spec.eigenvalues, spec.eigenvalues) / scenario.params.hbar
    phases = np.exp(-1j * series.times[:, None, None] * omega)
    trace = np.einsum("mn,tmn,tnm->t", q_eig, phases, dc_eig)
    return -0.5 * scenario.params.lam * trace.real


class RowMajorSpectral:
    """The dense backend's frame operations on C-order (B, d) rows, the
    layout the kernel used before it held batches trajectory-contiguous.
    With :func:`row_major_evolve`, whose per-step arrays are (B, S) columns,
    it is the reference the kernel must match bit for bit; the frame
    operators are built as the package builds them.  The field energy of
    :func:`row_major_field_energy` is a different algorithm, a reverse
    sweep with the adjoint transfer, and agrees with the kernel's to
    rounding only.
    """

    def __init__(self, hamiltonian, coupling, dt, hbar):
        spec_a = coupling.spectrum()
        spec_h = hamiltonian.spectrum()
        self.coupling_values = spec_a.eigenvalues.copy()
        self._va = spec_a.eigenvectors
        p = self._va.conj().T @ spec_h.eigenvectors
        phase_full = np.exp(-1j * spec_h.eigenvalues * dt / hbar)
        phase_half = np.exp(-1j * spec_h.eigenvalues * (0.5 * dt) / hbar)
        self._g = (p * phase_full) @ p.conj().T
        w = (p * phase_half.conj()) @ p.conj().T
        self._w = w
        self._a_plus = (w * self.coupling_values) @ w.conj().T
        self._h_tilde = (p * spec_h.eigenvalues) @ p.conj().T

    def enter(self, psi):
        q = self._va.conj().T @ psi
        pops = q.real**2 + q.imag**2
        n2 = float(pops.sum())
        mean_a = float(pops @ self.coupling_values) / n2
        mean_h = float((q.conj() @ (self._h_tilde @ q)).real) / n2
        return self._w.conj().T @ q, mean_a, mean_h

    def read_out(self, c):
        coeffs = c @ self._w.conj()
        pops = coeffs.real**2 + coeffs.imag**2
        pops /= pops.sum(axis=1, keepdims=True)
        return pops, c @ (self._va @ self._w.conj().T).T

    def transfer(self, c):
        return c @ self._g.T

    def transfer_adjoint(self, c):
        return c @ self._g.conj()

    @staticmethod
    def _expect(c, m):
        return np.einsum("bi,bi->b", c.conj(), c @ m.T).real

    def pair_coupling_post(self, y, c):
        return np.einsum("bi,bi->b", y.conj(), c @ self._a_plus.T)


def row_major_evolve(backend, grid, params, psi0, *, mode, draws,
                     record_series=False, with_field_energy=False):
    """The row-major step loop: returns a dict of the BatchResult fields.
    ``draws`` are the increments (cooked) or the field values (raw).  The
    terminal interaction sums each row's populations by one dot product,
    as the kernel does.  With ``record_series`` the dict also holds each
    row's log-norm, <A> and <H> at every time, as (B, S+1) arrays
    ``log_red_series``, ``series_expA`` and ``series_expH``, which
    :func:`series_sums` reduces as the kernel does.  With
    ``with_field_energy`` it keeps the state of every step and runs
    :func:`row_major_field_energy` over them; the cooked estimator carries
    weight 1, so the sweep's raw-weighted total is divided by exp(log_red)."""
    s, dt, lam = grid.steps, grid.dt, params.lam
    b = draws.shape[0]
    a = backend.coupling_values
    damp = lam * a * a
    cooked = mode == "cooked"
    c0, mean_a, mean_h = backend.enter(np.asarray(psi0, dtype=np.complex128))
    c = np.tile(c0, (b, 1))
    c /= np.sqrt(np.einsum("bi,bi->b", c.conj(), c).real)[:, None]
    log_red = np.zeros(b)
    w_out = np.empty((b, s))
    states = log_series = exp_a = exp_h = None
    if with_field_energy:
        states = np.empty((b, s + 1, c.shape[1]), dtype=np.complex128)
        states[:, 0, :] = c
    if with_field_energy or record_series:
        log_series = np.zeros((b, s + 1))
    if record_series:
        exp_a = np.empty((b, s + 1))
        exp_h = np.empty((b, s + 1))
        exp_a[:, 0] = mean_a
        exp_h[:, 0] = mean_h
    for k in range(1, s + 1):
        wk = 2.0 * lam * mean_a + draws[:, k - 1] if cooked else draws[:, k - 1]
        w_out[:, k - 1] = wk
        c *= np.exp(dt * (wk[:, None] * a[None, :] - damp[None, :]))
        n2 = np.einsum("bi,bi->b", c.conj(), c).real
        log_red += np.log(n2)
        c /= np.sqrt(n2)[:, None]
        if log_series is not None:
            log_series[:, k] = log_red
        if states is not None:
            states[:, k, :] = c
        if record_series or cooked:
            mean_a = backend._expect(c, backend._a_plus)
        if record_series:
            exp_a[:, k] = mean_a
            exp_h[:, k] = backend._expect(c, backend._h_tilde)
        if k < s:
            c = backend.transfer(c)
    pops = c.real**2 + c.imag**2
    out = dict(final_internal=c, log_red=log_red, w=w_out,
               interaction=(w_out[:, -1] * np.vecdot(pops, a)
                            - 2.0 * lam * np.vecdot(pops, a * a)))
    if record_series:
        out.update(log_red_series=log_series, series_expA=exp_a, series_expH=exp_h)
    if with_field_energy:
        total = row_major_field_energy(backend, grid, params, out, states, log_series)
        out["field_energy"] = total / np.exp(log_red) if cooked else total
    return out


def series_sums(out, mode):
    """The (3, S+1) sums over the rows of :func:`row_major_evolve`'s
    series of wt, wt <A> and wt <H> at each time, wt = exp(log-norm) in raw
    mode and 1 in cooked mode (no row fails).  Each time's sums run along
    one contiguous row of a step-major copy, as the kernel's do."""
    a = np.ascontiguousarray(out["series_expA"].T)
    h = np.ascontiguousarray(out["series_expH"].T)
    if mode == "raw":
        wt = np.ascontiguousarray(np.exp(out["log_red_series"]).T)
    else:
        wt = np.ones_like(a)
    return np.stack([wt.sum(axis=1), np.vecdot(wt, a), np.vecdot(wt, h)])


def row_major_field_energy(backend, grid, params, out, states, log_series):
    """The row-major reverse sweep over the fields of :func:`row_major_evolve`,
    the (B, S+1, d) normalized ``states`` of every step and the (B, S+1)
    log-norms ``log_series``, weighted by exp(log_red) as a raw path is."""
    s, dt, lam = grid.steps, grid.dt, params.lam
    a = backend.coupling_values
    damp = lam * a * a
    w = out["w"]
    y = states[:, s, :].copy()
    log_y = out["log_red"].copy()
    total = np.zeros(y.shape[0])
    for j in range(s - 1, 0, -1):
        y = y * np.exp(dt * (w[:, j][:, None] * a[None, :] - damp[None, :]))
        n2 = np.einsum("bi,bi->b", y.conj(), y).real
        log_y += np.log(n2)
        y = backend.transfer_adjoint(y / np.sqrt(n2)[:, None])
        pair = backend.pair_coupling_post(y, states[:, j, :])
        scale = np.exp(0.5 * (log_y + log_series[:, j]))
        total += (w[:, j] - w[:, j - 1]) * (scale * pair.imag)
    return total
