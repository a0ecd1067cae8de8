"""Monte Carlo ensembles and the deterministic density-matrix evolution.

The two halves of this module check each other.  ``run_ensemble``
averages many stochastic trajectories; ``lindblad_propagate`` evolves
the closed deterministic equation the ensemble mean must obey,

    d rho / dt = -(i/hbar) [H, rho] - (lam/2) [A, [A, rho]]

in the lab frame.  Their agreement (weighted trajectory average of
|psi><psi| against the evolved rho) is one of the package's headline
verification targets.

Both integrators take the span and the step count from the scenario's
``TimeGrid`` and hold their accuracy contracts as module constants.
Dense scenarios are evolved exactly: the Liouvillian is a fixed
d^2 x d^2 matrix, its exponential over one step is formed once by Pade
scaling and squaring, and its powers give the series; one exponential
over the whole span checks the stepped end point to
``DENSE_HALVING_TOL``.  The periodic grid is too large for that.  Its
energy channels read only the kappa = 0 momentum sector of rho, which
evolves in closed form, so the grid ledger needs no integrator.  Its
final rho comes from a split-step integrator, checked by one halving
comparison of that final rho to ``GRID_HALVING_TOL``.  Each integrator
makes its one comparison and fails above its tolerance.  The split-step
works on the ring (minimum-image collapse distances, the model the
channels use), where both of its steps keep kappa = p - p' fixed: it
holds rho as its kappa-sectors Q[kappa, d], in which the collapse scales
column d and the kinetic step is one transform pair along the contiguous
rows, so a step makes two row passes and no transpose.  rho is
Hermitian, so sector -kappa is the conjugate image of sector kappa, and
only the N/2 + 1 independent sectors kappa = 0 .. N/2 are stepped.
Probability at the periodic seam fails a run and is named.

Determinism: an ensemble is split into chunks whose size depends on the
scenario dimension alone (at most 2^16 amplitudes and 4096 trajectories,
:func:`_chunk_size`), and each chunk is propagated as one batch that
writes its results per trajectory into its own rows of preallocated
arrays (and its series sums into its own slot).  Each statistic is then
reduced once over the rows in index order.  Worker threads only change
who computes a chunk, never the arithmetic, so results are identical
for any thread count.  While more than one worker runs, numpy's bundled
OpenBLAS is held to one thread, so that its own threads do not compete
with the workers for the cores; that count is process-wide, so BLAS
calls that other threads make during a pooled run are single-threaded
too.  The previous count is restored once the workers have joined.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import LowEffectiveSampleError, NumericalFailure
from .hilbert import StateVector, double_commutator, eigenvalue_groups, expm
from .noise import block_increments
from .propagation import evolve_batch, make_backend
from .tolerances import ALGEBRA, SEAM_MARGIN, SEAM_MASS
from .trajectory import Scenario

# Weighted statistics are refused below this effective sample size.
ESS_FLOOR = 100.0

# Fraction of trajectories that must survive for a run to count.
MIN_SUCCESS_FRACTION = 0.9

# Accuracy contracts of the two deterministic integrators, each a bound
# on the largest entry difference of one comparison: the dense stepped
# end point against one exp(L t_end) rho0, and the grid final rho against
# the run at half the step count.
DENSE_HALVING_TOL = 1e-8
GRID_HALVING_TOL = 1e-6

# Trajectories per batch: at most 2^16 amplitudes (1 MiB of complex128
# state) and at most 4096 rows, and at least one row on grids above 2^16
# points.  Set by the scenario dimension alone (never by the worker count)
# so that reduction order, and hence output bits, are stable.
def _chunk_size(dim: int) -> int:
    return max(1, min(4096, (1 << 16) // dim))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles in ``numpy.libs``, or None where that library or its two
    functions are not found (another BLAS, another packaging).  numpy has
    the library loaded already; this only looks the functions up, through
    ctypes as threadpoolctl does."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_count = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_count.argtypes, set_count.restype = (ctypes.c_int,), None
        return get, set_count
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread (a process-wide setting) for
    the block and restore its previous count after; where the library is
    not found, change nothing."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_count = blas
    previous = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(previous)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: square, finite, Hermitian, unit trace
    and positive, held as a read-only complex copy of its entries."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("density matrix must be square and non-empty")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        scale = max(float(np.abs(m).max()), 1.0)
        asym = float(np.abs(m - m.conj().T).max())
        if asym > ALGEBRA * scale:
            raise ValueError(f"density matrix not Hermitian: defect {asym:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ALGEBRA:
            raise ValueError(f"density matrix trace {tr!r} differs from 1")
        m.flags.writeable = False
        if float(np.linalg.eigvalsh(m).min()) < -ALGEBRA:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        """|psi><psi| of the normalized ``psi``.

        The projector onto a validated, normalized state is Hermitian,
        of unit trace and positive semidefinite by construction, so none
        of the general constructor's checks runs: the outer product is
        the only N x N array built.
        """
        a = psi.normalized().amplitudes
        m = np.outer(a, a.conj())
        m.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", m)
        return rho


@dataclass
class EnsembleStats:
    """Aggregated results of a trajectory ensemble.

    ``outcome_values`` lists the distinct coupling eigenvalues; a
    trajectory is assigned to the eigenvalue group holding the largest
    share of its final population.  Frequencies are weighted (weights are
    1 in cooked mode) and sum to 1.  ``interaction_mean`` estimates the
    terminal coupling-field cross term whose ensemble mean the model
    predicts to vanish.
    """

    n_requested: int
    n_success: int
    n_failed: int
    mode: str
    master_seed: int
    outcome_values: np.ndarray
    outcome_frequencies: np.ndarray
    outcome_errors: np.ndarray
    effective_sample_size: float
    mean_weight: float
    mean_weight_se: float
    interaction_mean: float
    interaction_se: float
    field_energy_mean: Optional[float] = None
    field_energy_se: Optional[float] = None
    times: Optional[np.ndarray] = None
    mean_coupling: Optional[np.ndarray] = None
    mean_hamiltonian: Optional[np.ndarray] = None
    final_states: Optional[np.ndarray] = None
    final_weights: Optional[np.ndarray] = None

    def frequency(self, value: float) -> tuple:
        """(weighted frequency, standard error) of the outcome nearest
        ``value``."""
        idx = int(np.argmin(np.abs(self.outcome_values - value)))
        return float(self.outcome_frequencies[idx]), float(self.outcome_errors[idx])


def _mean_se(total: float, total2: float, n: int) -> tuple:
    """Mean and standard error of ``n`` samples from their sum and sum of
    squares."""
    mean = total / n
    return mean, math.sqrt(max(total2 / n - mean**2, 0.0) / n)


def _run_chunk(backend, scenario, lo, hi, mode, master_seed, group_starts, buffer,
               rows, series):
    """Propagate trajectories ``lo`` .. ``hi - 1``, drawing their increments
    into the front of the flat float64 ``buffer``, and write their results
    into rows ``lo:hi`` of the run's per-trajectory arrays ``rows``
    (survived, weight, outcome group, interaction term, field-energy term
    or None, kept state or None); the kernel adds the chunk's series sums
    into its slot ``series``, when given, as it steps.
    ``group_starts`` holds the first coupling index of each outcome group.
    A failed row gets weight 0 and interaction and field-energy terms 0."""
    ok, weights, group, v, f, states = (None if a is None else a[lo:hi] for a in rows)
    grid = scenario.grid
    params = scenario.params
    draws = block_increments(grid, params, master_seed, lo, hi, out=buffer)
    batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, draws,
                         mode=mode, series=series, with_field_energy=f is not None)

    ok[...] = ~batch.failed
    weights[...] = np.where(ok, np.exp(batch.log_red) if mode == "raw" else 1.0, 0.0)
    pops, lab = backend.read_out(batch.final_internal)
    group[...] = np.argmax(np.add.reduceat(pops, group_starts, axis=1), axis=1)
    v[...] = np.where(ok, batch.interaction * weights if mode == "raw"
                      else batch.interaction, 0.0)
    if f is not None:
        f[...] = np.where(ok, batch.field_energy, 0.0)
    if states is not None:
        states[...] = lab


def run_ensemble(scenario: Scenario, n: int, mode: str, master_seed: int, *,
                 record_series: bool = False, keep_final_states: bool = False,
                 with_field_energy: bool = False, threads: int = 1) -> EnsembleStats:
    """Run ``n`` independent trajectories and aggregate their statistics.

    Parameters
    ----------
    scenario : Scenario
    n : int
        Number of trajectories (>= 1).
    mode : {"cooked", "raw"}
        Cooked paths are drawn from the physical measure (weights 1);
        raw paths from the Gaussian proposal, weighted by the reduced
        norm squared.
    master_seed : int
        Trajectory ``i`` draws row ``i % 64`` of the stream of block
        ``i // 64``, seeded by ``SeedSequence(master_seed,
        spawn_key=(i // 64,))`` (see :mod:`cslsim.noise`); its draws
        depend only on ``(master_seed, i)``, so results do not depend on
        ``threads``.
    record_series : bool
        Accumulate weighted time series of <A> and <H>: at each time, the
        weighted mean over the trajectories that have not failed by then.
        A trajectory that fails at step j counts at the times before j.
    keep_final_states : bool
        Retain the normalized final states and their weights.
    with_field_energy : bool
        Carry each trajectory's field-energy estimator forward with its
        state, weighted as the statistics are (1 on cooked paths); its mean
        is the deterministic value in either mode.
    threads : int
        Worker threads for chunk fan-out.  While more than one worker
        runs (``threads > 1`` and more than one chunk), numpy's OpenBLAS
        is held to one thread; the count is process-wide, so BLAS calls
        that other threads make meanwhile are single-threaded too.  The
        previous count is restored when the workers have joined.

    Raises
    ------
    NumericalFailure
        If more than 10% of trajectories fail.
    LowEffectiveSampleError
        If raw-mode weights give an effective sample size below
        ``ESS_FLOOR``.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    if mode not in ("cooked", "raw"):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    backend = make_backend(scenario, scenario.grid.dt)
    groups, values = eigenvalue_groups(backend.coupling_values)
    chunk = _chunk_size(scenario.dim)
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    # One row per trajectory and one series slot per chunk; each chunk
    # writes its own rows and slot, so workers need no lock.
    rows = (np.empty(n, dtype=bool), np.empty(n), np.empty(n, dtype=np.intp),
            np.empty(n), np.empty(n) if with_field_energy else None,
            np.empty((n, scenario.dim), dtype=np.complex128)
            if keep_final_states else None)
    series = (np.empty((len(bounds), 3, scenario.grid.steps + 1))
              if record_series else None)
    # One increments buffer per worker, sized for the largest chunk and
    # allocated here: a chunk takes one, draws into its front and hands it
    # back, so a run holds min(threads, chunks) of them however many
    # chunks it has.
    workers = min(threads, len(bounds))
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(scenario.grid.steps * min(chunk, n)))

    def work(c):
        buffer = buffers.get()
        try:
            _run_chunk(backend, scenario, *bounds[c], mode, master_seed, groups[:, 0],
                       buffer, rows, None if series is None else series[c])
        finally:
            buffers.put(buffer)

    if workers > 1:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(len(bounds))))
    else:
        for c in range(len(bounds)):
            work(c)

    ok, weights, group, v, f, states = rows
    n_success = int(ok.sum())
    n_failed = n - n_success
    if n_success < MIN_SUCCESS_FRACTION * n:
        raise NumericalFailure(
            f"only {n_success} of {n} trajectories survived "
            f"(minimum fraction {MIN_SUCCESS_FRACTION})")

    sum_w = float(weights.sum())
    sum_w2 = float((weights**2).sum())
    ess = sum_w**2 / sum_w2 if sum_w2 > 0.0 else 0.0
    if mode == "raw" and ess < ESS_FLOOR:
        raise LowEffectiveSampleError(ess, ESS_FLOOR, n)

    count_w = np.bincount(group, weights=weights, minlength=values.size)
    count_w2 = np.bincount(group, weights=weights**2, minlength=values.size)
    freqs = count_w / sum_w
    # Delta-method error of the ratio estimator; reduces to the binomial
    # standard error when all weights are 1.
    err = np.sqrt(np.maximum(count_w2 * (1 - freqs) ** 2
                             + (sum_w2 - count_w2) * freqs**2, 0.0)) / sum_w

    mean_weight, mean_weight_se = _mean_se(sum_w, sum_w2, n_success)
    v_mean, v_se = _mean_se(float(v.sum()), float((v**2).sum()), n_success)
    fe_mean = fe_se = None
    if with_field_energy:
        fe_mean, fe_se = _mean_se(float(f.sum()), float((f**2).sum()), n_success)

    times = mean_a_series = mean_h_series = None
    if record_series:
        times = scenario.grid.times
        sums = series.sum(axis=0)
        mean_a_series, mean_h_series = sums[1:] / sums[0]

    final_states = final_weights = None
    if keep_final_states:
        final_states, final_weights = states, weights
        if n_failed:
            final_states, final_weights = states[ok], weights[ok]

    return EnsembleStats(
        n_requested=n, n_success=n_success, n_failed=n_failed, mode=mode,
        master_seed=master_seed,
        outcome_values=values, outcome_frequencies=freqs, outcome_errors=err,
        effective_sample_size=float(ess),
        mean_weight=mean_weight, mean_weight_se=mean_weight_se,
        interaction_mean=v_mean, interaction_se=v_se,
        field_energy_mean=fe_mean, field_energy_se=fe_se,
        times=times, mean_coupling=mean_a_series, mean_hamiltonian=mean_h_series,
        final_states=final_states, final_weights=final_weights,
    )


@dataclass(frozen=True)
class LindbladSeries:
    """Deterministic evolution record.

    Every series carries the two energy channels the ledger reads, the
    system energy Tr(H rho) and the double-commutator trace
    Tr([A,[A,H]] rho) feeding the field-energy quadrature.  For dense
    scenarios the full matrix series is kept too.  For the grid scenario
    only the final matrix is (the series would be prohibitively large),
    and a channels-only series from :func:`grid_energy_channels` has
    none.  All matrices are lab frame.

    ``achieved_halving_error`` is the accuracy figure of the run: the
    largest entry difference (absolute; no entry of rho exceeds 1) between
    the final rho and one exp(L t_end) rho0 (dense) or the grid run at
    half the step count.  Without a final rho it is None.
    """

    times: np.ndarray
    rhos: Optional[np.ndarray]
    final_rho: Optional[np.ndarray]
    achieved_halving_error: Optional[float]
    sys_energy: np.ndarray
    dc_trace: np.ndarray
    seam_mass_max: Optional[float] = None


def _liouvillian(scenario: Scenario) -> np.ndarray:
    """The generator L of d rho/dt = L rho as a d^2 x d^2 matrix.

    Row-major vectorization: vec(X rho Y) = (X kron Y^T) vec(rho), with
    vec(rho) = rho.reshape(-1).
    """
    h = scenario.hamiltonian.matrix
    a = scenario.collapse_op.matrix
    a2 = a @ a
    eye = np.eye(h.shape[0])
    return ((-1j / scenario.params.hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
            - 0.5 * scenario.params.lam * (np.kron(a2, eye) + np.kron(eye, a2.T)
                                           - 2.0 * np.kron(a, a.T)))


def _power_stack(p: np.ndarray, count: int) -> tuple:
    """(p^0, ..., p^(count-1)) stacked as a (count * n, n) array, and
    p^count; ``count`` is a power of two, reached by doubling the stack."""
    stack = np.eye(p.shape[0], dtype=p.dtype)
    top = p
    while stack.shape[0] < count * p.shape[0]:
        stack = np.concatenate([stack, stack @ top])
        top = top @ top
    return stack, top


def _stepped_series(p: np.ndarray, v0: np.ndarray, n_out: int) -> np.ndarray:
    """Rows p^k v0 for k = 0 .. n_out - 1.

    Blocked so that the series costs about 2 sqrt(n_out) BLAS calls, not
    n_out: the block p^0 .. p^(B-1) is formed once and applied in one
    product to the anchors v_0, v_B, v_2B, ..., themselves stepped by
    p^B.  B is near sqrt(n_out) but keeps the block no larger than the
    series itself.
    """
    n = p.shape[0]
    block = 1
    while 4 * block * block <= n_out and 2 * block * n <= n_out:
        block *= 2
    near, p_block = _power_stack(p, block)
    count = -(-n_out // block)
    anchors = np.empty((count, n), dtype=np.complex128)
    anchors[0] = v0
    for j in range(1, count):
        anchors[j] = p_block @ anchors[j - 1]
    out = (near @ anchors.T).reshape(block, n, count)
    return out.transpose(2, 0, 1).reshape(count * block, n)[:n_out]


def lindblad_propagate(rho0: DensityMatrix, scenario: Scenario) -> LindbladSeries:
    """Evolve ``rho`` of a dense scenario under the deterministic ensemble
    equation.

    The exact propagator P = exp(L dt) of the Liouvillian L steps the
    scenario's span t_end on 2 * steps intervals, dt = t_end / (2 * steps),
    and the series holds rho at all 2 * steps + 1 times.  Its accuracy
    figure, ``achieved_halving_error``, is the largest entry difference
    between the stepped final rho and one exp(L t_end) rho0.  The energy
    channels are traced from the series.

    Raises
    ------
    ValueError
        For a grid scenario, whose final rho comes from
        :func:`grid_lindblad_channels`.
    NumericalFailure
        If the accuracy figure exceeds ``DENSE_HALVING_TOL``.
    """
    if scenario.grid_info is not None:
        raise ValueError("lindblad_propagate evolves dense scenarios; the periodic "
                         "grid's density matrix comes from grid_lindblad_channels")
    t_end, steps = scenario.grid.t_end, scenario.grid.steps
    d = rho0.dim
    liou = _liouvillian(scenario)
    v0 = rho0.entries.reshape(-1)
    rhos = _stepped_series(expm(liou * (t_end / (2 * steps))), v0,
                           2 * steps + 1).reshape(-1, d, d)
    # The propagator keeps rho Hermitian only up to rounding.
    rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    exact = (expm(liou * t_end) @ v0).reshape(d, d)
    err = float(np.abs(rhos[-1] - exact).max())
    if not err <= DENSE_HALVING_TOL:
        raise NumericalFailure(
            f"density-matrix propagation not accurate: {2 * steps} exact steps "
            f"end {err:.3e} away from exp(L t) rho0 (tolerance {DENSE_HALVING_TOL})")
    final = DensityMatrix(rhos[-1])  # validates trace/positivity
    h = scenario.hamiltonian
    dc = double_commutator(scenario.collapse_op, h)
    return LindbladSeries(times=np.linspace(0.0, t_end, 2 * steps + 1), rhos=rhos,
                          final_rho=final.entries, achieved_halving_error=err,
                          sys_energy=np.einsum("tij,ji->t", rhos, h.matrix).real,
                          dc_trace=np.einsum("tij,ji->t", rhos, dc.matrix).real)


# The grid channels are read at _GRID_SAMPLES + 1 evenly spaced times, the
# spacing the ledger's decimation check and slope fit are sized for.
_GRID_SAMPLES = 64


def _ring_distance2(info) -> np.ndarray:
    """(d dx)^2 for the minimum-image offset d of each d = (i - j) mod N:
    the squared collapse distance on the ring."""
    n = info.n_points
    d = np.arange(n)
    return (np.where(d > n // 2, d - n, d) * info.dx) ** 2


def grid_energy_channels(scenario: Scenario) -> LindbladSeries:
    """Tr(H rho_t) and Tr([A,[A,H]] rho_t) of the grid scenario in closed
    form, at _GRID_SAMPLES + 1 evenly spaced times over [0, t_end].

    Both operators are circulant (H_ij = c[(i - j) mod N], c = ifft(e);
    [A,[A,H]]_ij = (d dx)^2 H_ij, d the minimum-image offset i - j), so
    they read only the kappa = 0 sector of rho (the p = p' momentum
    diagonal): the sums R(d) = sum_i rho(i + d, i).  The kinetic
    evolution leaves R unchanged and the collapse on the ring multiplies
    it by exp(-lam t (d dx)^2 / 2), from R_0 = ifft(|fft psi0|^2).

    The seam mass is estimated without rho: the free density
    |psi_free(t)|^2 convolved with a Gaussian of variance
    lam hbar^2 t^3 / (3 m^2), the momentum diffusion (Bassi, J. Phys. A 38
    (2005) 3173); its largest edge mass over the samples is
    ``seam_mass_max``.  The series has no final rho.

    Raises
    ------
    NumericalFailure
        If that estimate exceeds ``tolerances.SEAM_MASS``.
    """
    info = scenario.grid_info
    params = scenario.params
    times = np.linspace(0.0, scenario.grid.t_end, _GRID_SAMPLES + 1)
    e = info.kinetic_energies(params.hbar)
    spectrum = np.fft.fft(scenario.psi0.amplitudes)

    r0 = np.fft.ifft(np.abs(spectrum) ** 2)
    xd2 = _ring_distance2(info)
    weighted = np.fft.ifft(e) * r0.conj()
    decay = np.exp(-0.5 * params.lam * np.outer(times, xd2))
    sys_energy = (decay @ weighted).real
    dc_trace = (decay @ (xd2 * weighted)).real

    free = np.fft.ifft(spectrum * np.exp(-1j * np.outer(times, e) / params.hbar))
    k = info.momenta(params.hbar) / params.hbar
    var = params.lam * params.hbar**2 * times**3 / (3.0 * info.mass**2)
    density = np.fft.ifft(np.fft.fft(np.abs(free) ** 2)
                          * np.exp(-0.5 * np.outer(var, k * k))).real
    seam = float((density[:, :SEAM_MARGIN].sum(axis=1)
                  + density[:, -SEAM_MARGIN:].sum(axis=1)).max())
    if seam > SEAM_MASS:
        raise NumericalFailure(
            f"grid evolution not trusted: probability mass {seam:.3e} reached "
            f"the periodic seam (limit {SEAM_MASS}), estimated from the free "
            f"spread and the momentum diffusion")
    return LindbladSeries(times=times, rhos=None, final_rho=None,
                          achieved_halving_error=None, sys_energy=sys_energy,
                          dc_trace=dc_trace, seam_mass_max=seam)


def _skewed(v: np.ndarray) -> np.ndarray:
    """The read-only N x N view S[kappa, p] = v[(p - kappa) mod N] of the
    N-vector ``v``, with no copy: the windows of [v, v] that start at
    N, N - 1, ..., 1."""
    n = v.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v]), n)[n:0:-1]


def _sector_step(q: np.ndarray, collapse: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    """One split step on the kappa-sectors ``q`` of rho, in place.

    The collapse multiplies column d by ``collapse[d]`` and divides by
    the trace q[0, 0], which it leaves unchanged (its factor at d = 0 is
    1).  The kinetic step is one row transform to the momentum pairs
    (p, p - kappa), a multiply by ``kinetic[kappa, p]``
    = u_p conj(u_(p - kappa)) and the inverse row transform.
    """
    q *= collapse / q[0, 0].real
    np.fft.fft(q, axis=-1, out=q)
    q *= kinetic
    return np.fft.ifft(q, axis=-1, out=q)


def _rho_from_sectors(q: np.ndarray) -> np.ndarray:
    """The rho whose kappa-sectors kappa = 0 .. N/2 are the rows of ``q``.

    rho is Hermitian, so Q[-kappa, -d] = exp(2 pi i kappa d / N)
    conj(Q[kappa, d]): what sector -kappa adds to rho is the conjugate
    transpose of what sector kappa adds.  Hence rho = G + G^dag, where G
    has the sectors of ``q``, halved at kappa = 0 and N/2 (each its own
    image), and none past N/2.  One row pass over those sectors, zero
    padded and transposed, gives the diagonals V[d, j] = G(j + d, j); row
    j of [V^T, V^T] read from column N - j is column j of G, which a
    reshape of the flat array with rows of length 2N - 1 lines up.
    """
    h, n = q.shape
    diagonals = np.zeros((n, n), dtype=np.complex128)
    diagonals[:, :h] = q.T
    diagonals[:, [0, h - 1]] *= 0.5
    np.fft.ifft(diagonals, axis=-1, out=diagonals)
    doubled = np.empty((n, 2 * n), dtype=np.complex128)
    doubled[:, :n] = diagonals.T
    doubled[:, n:] = diagonals.T
    g_t = doubled.reshape(-1)[n:].reshape(n, 2 * n - 1)[:, :n]  # g_t[j, i] = G(i, j)
    rho = np.conjugate(g_t, out=diagonals)
    rho += g_t.T
    return rho


def _grid_channels_once(scenario: Scenario, steps: int):
    """Split-step evolution of rho for the grid scenario on the ring.

    rho is held as its kappa-sectors Q[kappa, d]
    = sum_j exp(-2 pi i kappa j / N) rho(j + d, j), in which both steps
    act along the contiguous rows (:func:`_sector_step`): the collapse
    factor exp(-(lam dt / 2)(d dx)^2), d the minimum-image offset, scales
    column d, and the kinetic step multiplies the momentum pair
    (p, p - kappa) by u_p conj(u_(p - kappa)), u = exp(-i e dt / hbar).
    Each row evolves on its own and rho is Hermitian, so only the rows
    kappa = 0 .. N/2 are stepped; the others are their conjugate images,
    which :func:`_rho_from_sectors` adds once at the end.  The first
    kinetic half step acts on psi0 before the sectors are built, from its
    momentum amplitudes phi as phi_p conj(phi_(p - kappa)).  The seam
    mass is a fixed linear form of column d = 0, whose inverse transform
    is the diagonal of rho.  Returns (seam_mass_max, rho): the largest
    probability within ``SEAM_MARGIN`` points of the periodic seam after
    any step, and the final rho.
    """
    info = scenario.grid_info
    params = scenario.params
    n = info.n_points
    half = n // 2 + 1
    dt = scenario.grid.t_end / steps
    e = info.kinetic_energies(params.hbar)
    u_full = np.exp(-1j * e * dt / params.hbar)
    u_half = np.exp(-1j * e * (0.5 * dt) / params.hbar)
    collapse = np.exp(-0.5 * params.lam * dt * _ring_distance2(info))

    edge = np.zeros(n)
    edge[:SEAM_MARGIN] = edge[n - SEAM_MARGIN:] = 1.0
    # sum_j edge[j] ifft(Q[:, 0])[j] = sum_kappa f[kappa] Q[kappa, 0] with
    # f = ifft(edge); the mass is real and Q[N - kappa, 0] = conj(Q[kappa, 0]),
    # so f[N - kappa] folds onto row kappa conjugated.
    f = np.fft.ifft(edge)
    edge_form = f[:half].copy()
    edge_form[1:n - half + 1] += f[:half - 1:-1].conj()
    seam_max = 0.0

    phi = u_half * np.fft.fft(scenario.psi0.amplitudes)
    q = phi * _skewed(phi.conj())[:half]
    np.fft.ifft(q, axis=-1, out=q)
    kinetic = u_full * _skewed(u_full.conj())[:half]
    for k in range(steps):
        if k == steps - 1:
            np.multiply(u_half, _skewed(u_half.conj())[:half], out=kinetic)
        _sector_step(q, collapse, kinetic)
        seam_max = max(seam_max, float((edge_form @ q[:, 0]).real))
    del kinetic  # freed before the final rho is built
    return seam_max, _rho_from_sectors(q)


def grid_lindblad_channels(rho0: DensityMatrix, scenario: Scenario) -> LindbladSeries:
    """Deterministic evolution for the periodic-grid particle.

    ``rho0`` must be the projector onto the scenario's initial state
    (mixed grid inputs are out of scope); since a density matrix is
    positive with unit trace, rho0 psi0 = psi0 holds for that projector
    only, and that is what is checked.  The split-step integrator
    (:func:`_grid_channels_once`, on the ring: minimum-image collapse
    distances, as in the channels) runs the scenario's S steps and 2 S
    steps, and the final rho of the 2 S run is returned; its
    ``achieved_halving_error`` is the largest entry difference between
    the two.  The energy channels come from :func:`grid_energy_channels`,
    and ``seam_mass_max`` is the one the 2 S run measured.

    Raises
    ------
    ValueError
        If ``rho0`` is not the projector onto psi0.
    NumericalFailure
        First, if the 2 S run measured more than ``tolerances.SEAM_MASS``
        of the probability at the periodic seam, whatever the halving
        shows (on the ring a wrapped packet still converges, so only the
        seam mass shows that the periodic grid is at fault); then if the
        halving moves the final rho by ``GRID_HALVING_TOL`` or more; and
        when :func:`grid_energy_channels` refuses the run for its seam
        mass.
    """
    steps = scenario.grid.steps
    psi = scenario.psi0.amplitudes
    if float(np.abs(rho0.entries @ psi - psi).max()) > 1e-9:
        raise ValueError("grid evolution requires rho0 = |psi0><psi0|")

    rho_c = _grid_channels_once(scenario, steps)[1]
    seam2, rho2 = _grid_channels_once(scenario, 2 * steps)
    err = float(np.abs(rho2 - rho_c).max())
    if seam2 > SEAM_MASS:
        raise NumericalFailure(
            f"grid evolution not trusted: probability mass {seam2:.3e} "
            f"reached the periodic seam (limit {SEAM_MASS}) in the split-step; "
            f"halving at {2 * steps} steps moves the final density "
            f"matrix by {err:.3e}")
    if not err < GRID_HALVING_TOL:
        raise NumericalFailure(
            f"grid evolution not converged: {steps} and {2 * steps} steps end "
            f"{err:.3e} apart in the final density matrix (tolerance "
            f"{GRID_HALVING_TOL}); raise grid.steps")
    return replace(grid_energy_channels(scenario), final_rho=rho2,
                   achieved_halving_error=err, seam_mass_max=seam2)
