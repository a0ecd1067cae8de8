"""Monte Carlo ensembles and the deterministic density-matrix evolution.

The two halves of this module check each other.  ``run_ensemble``
averages many stochastic trajectories; ``lindblad_propagate`` evolves
the closed deterministic equation the ensemble mean must obey,

    d rho / dt = -(i/hbar) [H, rho] - (lam/2) [A, [A, rho]]

in the lab frame.  Their agreement (weighted trajectory average of
|psi><psi| against the evolved rho) is one of the package's headline
verification targets.

Dense scenarios are evolved exactly: the Liouvillian is a fixed
d^2 x d^2 matrix, its exponential over one step is formed once by Pade
scaling and squaring, and its powers give the series; one exponential
over the whole span checks the stepped end point.  The periodic grid is
too large for that.  Its energy channels read only the kappa = 0
momentum sector of rho, which evolves in closed form, so the grid
ledger needs no integrator.  Its final rho comes from a split-step
integrator with a halving check on that final rho.  The kinetic step
U rho U^dag runs every Fourier transform along the contiguous last
axis: a pass over the rows gives S = rho U^dag, and since rho is
Hermitian a second row pass over S^dag gives S^dag U^dag = U rho U^dag,
in place between two preallocated buffers.  Probability at the periodic
seam fails a run and is named.

Determinism: an ensemble is split into fixed-size chunks, each chunk is
propagated as one batch, and partial sums are combined in chunk order
with pairwise summation.  Worker threads only change who computes a
chunk, never the arithmetic, so results are identical for any thread
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import LowEffectiveSampleError, NumericalFailure
from .hilbert import StateVector, eigenvalue_groups, expm
from .noise import TimeGrid, block_increments
from .propagation import evolve_batch, field_energy_sweep, make_backend
from .tolerances import ALGEBRA, SEAM_MASS
from .trajectory import Scenario

# Weighted statistics are refused below this effective sample size.
ESS_FLOOR = 100.0

# Fraction of trajectories that must survive for a run to count.
MIN_SUCCESS_FRACTION = 0.9

# Step doublings the grid halving check may make before it gives up; the
# one cap of both grid entry points (lindblad_propagate and
# grid_lindblad_channels).
GRID_MAX_REFINE = 4

# Trajectories per batch.  Fixed per scenario dimension (never per worker
# count) so that reduction order, and hence output bits, are stable.
def _chunk_size(dim: int) -> int:
    return 4096 if dim <= 16 else 256


def _checked_entries(entries) -> np.ndarray:
    """A read-only complex copy of ``entries`` once it is square, finite,
    Hermitian and of unit trace."""
    m = np.array(entries, dtype=np.complex128)
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
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive."""

    entries: np.ndarray

    def __post_init__(self):
        m = _checked_entries(self.entries)
        if float(np.linalg.eigvalsh(m).min()) < -ALGEBRA:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        """|psi><psi| of the normalized ``psi``.

        A projector is positive semidefinite by construction, so only the
        eigenvalue test of the general constructor is skipped; on a
        1024-point grid that test is the costly one.
        """
        a = psi.normalized().amplitudes
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", _checked_entries(np.outer(a, a.conj())))
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


def _run_chunk(backend, scenario, indices, mode, master_seed,
               record_series, with_field_energy, keep_final_states):
    """Propagate one chunk and return its partial sums."""
    grid = scenario.grid
    params = scenario.params
    s = grid.steps
    b = indices.size
    draws = block_increments(grid, params, master_seed, indices)
    store_every = max(1, int(math.sqrt(s))) if with_field_energy else 0
    cooked = mode == "cooked"
    batch = evolve_batch(backend, grid, params, scenario.psi0.amplitudes, mode=mode,
                         increments=draws if cooked else None,
                         given_w=None if cooked else draws,
                         record_series=record_series, store_every=store_every)

    ok = ~batch.failed
    n_ok = int(ok.sum())
    out = {"n_ok": n_ok, "n_failed": int(b - n_ok)}
    if n_ok == 0:
        return out

    if mode == "raw":
        weights = np.exp(batch.log_red)
    else:
        weights = np.ones(b)
    weights = np.where(ok, weights, 0.0)

    pops, states = backend.read_out(batch.final_internal)
    groups, _ = eigenvalue_groups(backend.coupling_values)
    group_pops = np.stack([pops[:, lo:hi].sum(axis=1) for lo, hi in groups], axis=1)
    assign = np.argmax(group_pops, axis=1)

    k = len(groups)
    out["sum_w"] = weights.sum()
    out["sum_w2"] = (weights**2).sum()
    out["count_w"] = np.bincount(assign, weights=weights, minlength=k)
    out["count_w2"] = np.bincount(assign, weights=weights**2, minlength=k)

    v = batch.interaction
    v = np.where(ok, v * weights if mode == "raw" else v, 0.0)
    out["sum_v"] = v.sum()
    out["sum_v2"] = (v**2).sum()

    if with_field_energy:
        f = field_energy_sweep(backend, grid, params, batch)
        f = np.where(ok, f, 0.0)
        out["sum_f"] = f.sum()
        out["sum_f2"] = (f**2).sum()

    if record_series:
        # The series are held step-major.  The sums over trajectories run on
        # trajectory-major copies, so that they add whole rows in order; a
        # sum along contiguous memory would pair terms and change the bits.
        rows = np.ascontiguousarray
        if mode == "raw":
            wt = np.where(ok[:, None], np.exp(rows(batch.log_red_series)), 0.0)
        else:
            wt = np.broadcast_to(ok[:, None].astype(float), (b, s + 1))
        out["sum_wt"] = wt.sum(axis=0)
        out["sum_wA"] = (wt * rows(batch.series_expA)).sum(axis=0)
        out["sum_wH"] = (wt * rows(batch.series_expH)).sum(axis=0)

    if keep_final_states:
        out["states"] = states
        out["weights_row"] = weights
        out["ok_row"] = ok
    return out


def run_ensemble(scenario: Scenario, n: int, mode: str, master_seed: int, *,
                 record_series: bool = False, keep_final_states: bool = False,
                 with_field_energy: bool = False, threads: int = 1,
                 ess_floor: float = ESS_FLOOR) -> EnsembleStats:
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
        Trajectory ``i`` always uses the stream derived from
        ``(master_seed, i)``; results do not depend on ``threads``.
    record_series : bool
        Accumulate weighted time series of <A> and <H>.
    keep_final_states : bool
        Retain normalized final states and weights (needed by
        :func:`ensemble_density_matrix`).
    with_field_energy : bool
        Run per-trajectory reverse sweeps for the field-energy estimator
        (raw mode; its mean over raw paths is the deterministic value).
    threads : int
        Worker threads for chunk fan-out.
    ess_floor : float
        Refuse weighted headline statistics below this effective sample
        size (raw mode only).

    Raises
    ------
    NumericalFailure
        If more than 10% of trajectories fail.
    LowEffectiveSampleError
        If raw-mode weights are too degenerate to report.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    if mode not in ("cooked", "raw"):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    backend = make_backend(scenario, scenario.grid.dt)
    chunk = _chunk_size(scenario.dim)
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]

    def work(span):
        lo, hi = span
        return _run_chunk(backend, scenario, np.arange(lo, hi), mode, master_seed,
                          record_series, with_field_energy, keep_final_states)

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(work, bounds))
    else:
        partials = [work(span) for span in bounds]

    n_failed = sum(p["n_failed"] for p in partials)
    n_success = sum(p["n_ok"] for p in partials)
    if n_success < MIN_SUCCESS_FRACTION * n:
        raise NumericalFailure(
            f"only {n_success} of {n} trajectories survived "
            f"(minimum fraction {MIN_SUCCESS_FRACTION})")
    live = [p for p in partials if p["n_ok"] > 0]

    def total(key):
        return np.sum(np.stack([p[key] for p in live], axis=0), axis=0)

    sum_w = float(total("sum_w"))
    sum_w2 = float(total("sum_w2"))
    ess = sum_w**2 / sum_w2 if sum_w2 > 0.0 else 0.0
    if mode == "raw" and ess < ess_floor:
        raise LowEffectiveSampleError(ess, ess_floor, n)

    count_w = total("count_w")
    count_w2 = total("count_w2")
    freqs = count_w / sum_w
    # Delta-method error of the ratio estimator; reduces to the binomial
    # standard error when all weights are 1.
    err = np.sqrt(np.maximum(count_w2 * (1 - freqs) ** 2
                             + (sum_w2 - count_w2) * freqs**2, 0.0)) / sum_w

    mean_weight = sum_w / n_success
    var_w = max(sum_w2 / n_success - mean_weight**2, 0.0)
    mean_weight_se = math.sqrt(var_w / n_success)

    sum_v = float(total("sum_v"))
    sum_v2 = float(total("sum_v2"))
    v_mean = sum_v / n_success
    v_var = max(sum_v2 / n_success - v_mean**2, 0.0)
    v_se = math.sqrt(v_var / n_success)

    fe_mean = fe_se = None
    if with_field_energy:
        sum_f = float(total("sum_f"))
        sum_f2 = float(total("sum_f2"))
        fe_mean = sum_f / n_success
        fe_var = max(sum_f2 / n_success - fe_mean**2, 0.0)
        fe_se = math.sqrt(fe_var / n_success)

    times = mean_a_series = mean_h_series = None
    if record_series:
        times = scenario.grid.times
        sum_wt = total("sum_wt")
        mean_a_series = total("sum_wA") / sum_wt
        mean_h_series = total("sum_wH") / sum_wt

    final_states = final_weights = None
    if keep_final_states:
        rows_s = [p["states"][p["ok_row"]] for p in live]
        rows_w = [p["weights_row"][p["ok_row"]] for p in live]
        final_states = np.concatenate(rows_s, axis=0)
        final_weights = np.concatenate(rows_w, axis=0)

    _, values = eigenvalue_groups(backend.coupling_values)

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


def ensemble_density_matrix(stats: EnsembleStats) -> DensityMatrix:
    """Weighted average of |psi><psi| over retained final states."""
    if stats.final_states is None:
        raise ValueError("run the ensemble with keep_final_states=True")
    psi = stats.final_states
    w = stats.final_weights
    rho = np.einsum("b,bi,bj->ij", w, psi, psi.conj())
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


@dataclass(frozen=True)
class LindbladSeries:
    """Deterministic evolution record.

    For dense scenarios the full matrix series is kept.  For the grid
    scenario only scalar channels are stored (the matrices would be
    prohibitively large): the system energy Tr(H rho), the
    double-commutator trace Tr([A,[A,H]] rho) feeding the field-energy
    quadrature, and the final matrix (None in a channels-only series from
    :func:`grid_energy_channels`).  All matrices are lab frame.

    ``achieved_halving_error`` is the accuracy figure of the run: the
    largest entry difference between the final rho and a reference,
    relative to the largest entry (at least 1).  The reference is one
    exp(L t_end) rho0 (dense) or the grid run at half the step count;
    without a final rho the figure is None.
    """

    times: np.ndarray
    rhos: Optional[np.ndarray]
    final_rho: Optional[np.ndarray]
    achieved_halving_error: Optional[float]
    sys_energy: Optional[np.ndarray] = None
    dc_trace: Optional[np.ndarray] = None
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


def lindblad_propagate(rho0: DensityMatrix, scenario: Scenario, *,
                       t_end: Optional[float] = None, steps: Optional[int] = None,
                       halving_tol: Optional[float] = None,
                       max_refine: int = GRID_MAX_REFINE) -> LindbladSeries:
    """Evolve ``rho`` under the deterministic ensemble equation.

    Dense scenarios use the exact propagator P = exp(L dt) of the
    Liouvillian L on 2 * ``steps`` intervals, dt = t_end / (2 * steps),
    and return rho at all 2 * ``steps`` + 1 times.  Its accuracy figure,
    ``achieved_halving_error``, is the largest entry difference between
    the stepped final rho and one exp(L t_end) rho0 (relative to the
    largest entry, at least 1); it must stay below ``halving_tol``
    (default 1e-8).  ``max_refine`` does not apply.

    Grid scenarios dispatch to a split-step integrator that keeps the
    final rho and scalar energy channels instead of the (huge) matrix
    series, and checks halving on the final rho (``halving_tol`` default
    1e-6), with at most ``max_refine`` step doublings (default
    ``GRID_MAX_REFINE``, the same cap as a direct
    :func:`grid_lindblad_channels` call); see that function.

    Raises
    ------
    NumericalFailure
        If the dense accuracy figure exceeds ``halving_tol``, or the grid
        halving check still fails at the refinement cap.
    """
    t_end = scenario.grid.t_end if t_end is None else t_end
    steps = scenario.grid.steps if steps is None else steps
    if scenario.grid_info is not None:
        return grid_lindblad_channels(
            rho0, scenario, t_end=t_end, steps=steps,
            halving_tol=1e-6 if halving_tol is None else halving_tol,
            max_refine=max_refine)
    halving_tol = 1e-8 if halving_tol is None else halving_tol

    d = rho0.dim
    liou = _liouvillian(scenario)
    v0 = rho0.entries.reshape(-1)
    rhos = _stepped_series(expm(liou * (t_end / (2 * steps))), v0,
                           2 * steps + 1).reshape(-1, d, d)
    # The propagator keeps rho Hermitian only up to rounding.
    rhos = 0.5 * (rhos + rhos.conj().transpose(0, 2, 1))
    exact = (expm(liou * t_end) @ v0).reshape(d, d)
    scale = max(float(np.abs(rhos).max()), 1.0)
    err = float(np.abs(rhos[-1] - exact).max()) / scale
    if not err <= halving_tol:
        raise NumericalFailure(
            f"density-matrix propagation not accurate: {2 * steps} exact steps "
            f"end {err:.3e} away from exp(L t) rho0 (tolerance {halving_tol})")
    final = DensityMatrix(rhos[-1])  # validates trace/positivity
    return LindbladSeries(times=np.linspace(0.0, t_end, 2 * steps + 1), rhos=rhos,
                          final_rho=final.entries, achieved_halving_error=err)


# The grid channels are read at _GRID_SAMPLES + 1 evenly spaced times, the
# spacing the ledger's decimation check and slope fit are sized for.
_GRID_SAMPLES = 64


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
    n, margin = info.n_points, info.seam_margin
    times = np.linspace(0.0, scenario.grid.t_end, _GRID_SAMPLES + 1)
    e = info.kinetic_energies(params.hbar)
    spectrum = np.fft.fft(scenario.psi0.amplitudes)

    r0 = np.fft.ifft(np.abs(spectrum) ** 2)
    d = np.arange(n)
    xd2 = (np.where(d > n // 2, d - n, d) * info.dx) ** 2
    weighted = np.fft.ifft(e) * r0.conj()
    decay = np.exp(-0.5 * params.lam * np.outer(times, xd2))
    sys_energy = (decay @ weighted).real
    dc_trace = (decay @ (xd2 * weighted)).real

    free = np.fft.ifft(spectrum * np.exp(-1j * np.outer(times, e) / params.hbar))
    k = info.momenta(params.hbar) / params.hbar
    var = params.lam * params.hbar**2 * times**3 / (3.0 * info.mass**2)
    density = np.fft.ifft(np.fft.fft(np.abs(free) ** 2)
                          * np.exp(-0.5 * np.outer(var, k * k))).real
    seam = float((density[:, :margin].sum(axis=1)
                  + density[:, n - margin:].sum(axis=1)).max())
    if seam > SEAM_MASS:
        raise NumericalFailure(
            f"grid evolution not trusted: probability mass {seam:.3e} reached "
            f"the periodic seam (limit {SEAM_MASS}), estimated from the free "
            f"spread and the momentum diffusion")
    return LindbladSeries(times=times, rhos=None, final_rho=None,
                          achieved_halving_error=None, sys_energy=sys_energy,
                          dc_trace=dc_trace, seam_mass_max=seam)


def _kinetic_step(rho: np.ndarray, buf: np.ndarray, back: np.ndarray,
                  scale: float) -> tuple:
    """U (scale rho) U^dag for Hermitian ``rho``, U = F^-1 diag(phase) F,
    ``back`` = conj(phase), with every transform along the last,
    contiguous axis.

    A row v of rho times U^dag is fft(back * ifft(v)), so one pass over
    the rows gives S = rho U^dag; rho is Hermitian, so S^dag U^dag is
    U rho U^dag, and a second row pass over the conjugate transpose of S
    gives it.  Both passes work in place: ``rho`` ends up holding S and
    ``buf`` the result.  Returns (result, spare buffer).
    """
    np.fft.ifft(rho, axis=-1, out=rho)
    rho *= back * scale
    np.fft.fft(rho, axis=-1, out=rho)
    np.conjugate(rho.T, out=buf)
    np.fft.ifft(buf, axis=-1, out=buf)
    buf *= back
    np.fft.fft(buf, axis=-1, out=buf)
    return buf, rho


def _grid_channels_once(scenario: Scenario, steps: int):
    """Split-step evolution of rho for the grid scenario.

    The kinetic half/full steps U rho U^dag are Fourier multipliers,
    applied by :func:`_kinetic_step` along the contiguous axis only,
    in place, between two preallocated N x N buffers.  The collapse step
    is an exact elementwise factor exp(-(lam dt / 2)(x_i - x_j)^2) with
    a unit diagonal: it leaves the trace unchanged, so the trace it
    finds is divided out in the next kinetic step's first multiply.
    Returns (seam_mass_max, rho): the largest probability within
    ``seam_margin`` points of the periodic seam after any step, and the
    final rho.
    """
    info = scenario.grid_info
    params = scenario.params
    dt = scenario.grid.t_end / steps
    x = info.positions
    e = info.kinetic_energies(params.hbar)

    psi = scenario.psi0.amplitudes
    rho = np.outer(psi, psi.conj())
    buf = np.empty_like(rho)

    back_full = np.exp(1j * e * dt / params.hbar)
    back_half = np.exp(1j * e * (0.5 * dt) / params.hbar)
    decay = np.exp(-0.5 * params.lam * dt * np.subtract.outer(x, x) ** 2)

    n_band = info.seam_margin
    edge = np.concatenate([np.arange(n_band), np.arange(info.n_points - n_band, info.n_points)])
    seam_max = 0.0

    rho, buf = _kinetic_step(rho, buf, back_half, 1.0)
    for k in range(steps):
        rho *= decay
        tr = np.einsum("ii->", rho).real
        back = back_full if k < steps - 1 else back_half
        rho, buf = _kinetic_step(rho, buf, back, 1.0 / tr)
        mass = float(np.einsum("ii->i", rho).real[edge].sum())
        seam_max = max(seam_max, mass)

    rho = 0.5 * (rho + rho.conj().T)
    return seam_max, rho


def grid_lindblad_channels(rho0: DensityMatrix, scenario: Scenario, *,
                           t_end: Optional[float] = None, steps: Optional[int] = None,
                           halving_tol: float = 1e-6,
                           max_refine: int = GRID_MAX_REFINE) -> LindbladSeries:
    """Deterministic evolution for the periodic-grid particle.

    ``rho0`` must equal the scenario's pure initial state (mixed grid
    inputs are out of scope).  The split-step integrator gives the final
    rho; the halving check compares the final rho of successive step
    counts, with at most ``max_refine`` step doublings (default
    ``GRID_MAX_REFINE``, the same cap as :func:`lindblad_propagate`).
    The energy channels come from :func:`grid_energy_channels`, and
    ``seam_mass_max`` is the one the split-step measured.

    Raises
    ------
    NumericalFailure
        At once when a halving check fails while more than
        ``tolerances.SEAM_MASS`` of the probability sits at the periodic
        seam (the periodic grid, not the step, is then at fault);
        otherwise when the check still fails at the refinement cap; and
        when :func:`grid_energy_channels` refuses the run for its seam
        mass.
    """
    t_end_eff = scenario.grid.t_end if t_end is None else t_end
    steps_eff = scenario.grid.steps if steps is None else steps
    if t_end_eff != scenario.grid.t_end:
        scenario = replace(scenario, grid=TimeGrid(t_end_eff, steps_eff))
    psi = scenario.psi0.amplitudes
    ref = np.outer(psi, psi.conj())
    if float(np.abs(rho0.entries - ref).max()) > 1e-9:
        raise ValueError("grid evolution requires rho0 = |psi0><psi0|")

    rho_c = _grid_channels_once(scenario, steps_eff)[1]
    err = math.inf
    for _ in range(max_refine):
        seam2, rho2 = _grid_channels_once(scenario, 2 * steps_eff)
        scale = max(float(np.abs(rho2).max()), 1.0)
        err = float(np.abs(rho2 - rho_c).max()) / scale
        if err < halving_tol:
            return replace(grid_energy_channels(scenario), final_rho=rho2,
                           achieved_halving_error=err, seam_mass_max=seam2)
        if seam2 > SEAM_MASS:
            raise NumericalFailure(
                f"grid evolution did not converge: probability mass {seam2:.3e} "
                f"reached the periodic seam (limit {SEAM_MASS}); halving at "
                f"{2 * steps_eff} steps moves the final density matrix by {err:.3e}")
        rho_c = rho2
        steps_eff *= 2
    raise NumericalFailure(
        f"grid evolution did not converge: halving at {steps_eff} steps "
        f"still moves the final density matrix by {err:.3e}")
