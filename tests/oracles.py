"""Reference implementations shared by the tests.

The package never materializes the grid's kinetic operator: it applies
it as a Fourier multiplier.  The tests build it densely, once, to check
that route against plain matrix products.  The dense propagation kernel
is checked against its earlier row-major form, kept here, and the
ledger's drift formula against the rotating-frame expectation it
differentiates.
"""

import numpy as np

from cslsim.hilbert import interaction_picture


def dense_kinetic_hamiltonian(info, hbar):
    """The periodic grid's kinetic operator as a dense Hermitian matrix."""
    e = info.kinetic_energies(hbar)
    h = np.fft.ifft(e[:, None] * np.fft.fft(np.eye(info.n_points), axis=0), axis=0)
    return 0.5 * (h + h.conj().T)


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


class RowMajorSpectral:
    """The dense backend's frame operations on C-order (B, d) rows, the
    layout the kernel used before it held batches trajectory-contiguous.
    With :func:`row_major_evolve` and :func:`row_major_field_energy`, whose
    per-step arrays are (B, S) columns, it is the reference the kernel must
    match bit for bit; the frame operators are built as the package builds
    them.
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
                     record_series=False, store_every=0):
    """The row-major step loop: returns a dict of the BatchResult fields.
    ``draws`` are the increments (cooked) or the field values (raw)."""
    s, dt, lam = grid.steps, grid.dt, params.lam
    b = draws.shape[0]
    a = backend.coupling_values
    damp = lam * a * a
    cooked = mode == "cooked"
    c0, mean_a, mean_h = backend.enter(np.asarray(psi0, dtype=np.complex128))
    c = np.tile(c0, (b, 1))
    c /= np.sqrt(np.einsum("bi,bi->b", c.conj(), c).real)[:, None]
    log_red = np.zeros(b)
    sum_w2dt = np.zeros(b)
    w_out = np.empty((b, s))
    stored_steps = states = None
    slot = {}
    log_series = exp_a = exp_h = None
    if store_every > 0:
        stored_steps = np.unique(np.concatenate([np.arange(0, s + 1, store_every), [0, s]]))
        states = np.empty((b, stored_steps.size, c.shape[1]), dtype=np.complex128)
        slot = {int(k): i for i, k in enumerate(stored_steps)}
        states[:, 0, :] = c
    if store_every > 0 or record_series:
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
        sum_w2dt += wk * wk * dt
        if log_series is not None:
            log_series[:, k] = log_red
        if k in slot:
            states[:, slot[k], :] = c
        if record_series or cooked:
            mean_a = backend._expect(c, backend._a_plus)
        if record_series:
            exp_a[:, k] = mean_a
            exp_h[:, k] = backend._expect(c, backend._h_tilde)
        if k < s:
            c = backend.transfer(c)
    pops = c.real**2 + c.imag**2
    return dict(final_internal=c, log_red=log_red, sum_w2dt=sum_w2dt, w=w_out,
                interaction=w_out[:, -1] * (pops @ a) - 2.0 * lam * (pops @ (a * a)),
                log_red_series=log_series, states=states, stored_steps=stored_steps,
                series_expA=exp_a, series_expH=exp_h)


def row_major_field_energy(backend, grid, params, out):
    """The row-major reverse sweep over the fields of :func:`row_major_evolve`
    (every step stored)."""
    s, dt, lam = grid.steps, grid.dt, params.lam
    a = backend.coupling_values
    damp = lam * a * a
    w, log_series = out["w"], out["log_red_series"]
    assert out["stored_steps"].tolist() == list(range(s + 1))
    y = out["states"][:, s, :].copy()
    log_y = out["log_red"].copy()
    total = np.zeros(y.shape[0])
    for j in range(s - 1, 0, -1):
        y = y * np.exp(dt * (w[:, j][:, None] * a[None, :] - damp[None, :]))
        n2 = np.einsum("bi,bi->b", y.conj(), y).real
        log_y += np.log(n2)
        y = backend.transfer_adjoint(y / np.sqrt(n2)[:, None])
        pair = backend.pair_coupling_post(y, out["states"][:, j, :])
        scale = np.exp(0.5 * (log_y + log_series[:, j]))
        total += (w[:, j] - w[:, j - 1]) * (scale * pair.imag)
    return total
