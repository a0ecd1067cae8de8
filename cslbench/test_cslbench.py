"""Tests of the benchmark itself.

Each output check runs on the outputs of its own workload, at the
workload's sizes and seed 1, and must pass with the right target and
fail with a deliberately wrong one.  The tracer's self times, counters
and patching are tested on small inputs.

    python3 -m pytest cslbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from cslsim import ensemble, postulate
from cslsim.scenarios import qubit_dephasing

HERE = Path(__file__).resolve().parent
SEED = 1


def outputs(setup):
    parts = {p.name: p for p in setup(SEED)}
    return parts, {name: p.call(1) for name, p in parts.items()}


@pytest.fixture(scope="module")
def mc_dense():
    return outputs(workloads.setup_mc_dense)


@pytest.fixture(scope="module")
def mc_grid():
    return outputs(workloads.setup_mc_grid)


@pytest.fixture(scope="module")
def deterministic():
    return outputs(workloads.setup_deterministic)


def test_every_check_passes_on_every_workload(mc_dense, mc_grid, deterministic):
    for parts, outs in (mc_dense, mc_grid, deterministic):
        for name, part in parts.items():
            found = part.verify(outs[name])
            assert found and all(c.passed for c in found), found


def oracle(sc, *, lam=None, t=None):
    psi = sc.psi0.amplitudes
    return checks.lindblad_expm(sc.hamiltonian.matrix, sc.collapse_op.matrix,
                                sc.params.lam if lam is None else lam, sc.params.hbar,
                                np.outer(psi, psi.conj()),
                                sc.grid.t_end if t is None else t)


# ------------------------------------------------------------ mc_dense

def test_born_frequency_rejects_a_wrong_weight(mc_dense):
    stats = mc_dense[1]["born_race"]
    assert checks.born_frequency(stats, 0.7, 1.0).passed
    assert not checks.born_frequency(stats, 0.65, 1.0).passed


def test_field_energy_rejects_a_sign_error_and_no_transfer(mc_dense):
    stats = mc_dense[1]["raw_qubit_field_energy"]
    target = 1.0 - math.exp(-2.0 * 0.2 * 2.0)
    assert checks.field_energy(stats, target).passed
    assert not checks.field_energy(stats, -target).passed
    assert not checks.field_energy(stats, 0.0).passed


def test_mean_weight_rejects_a_biased_target(mc_dense):
    stats = mc_dense[1]["raw_qubit_field_energy"]
    assert checks.mean_weight(stats).passed
    assert not checks.mean_weight(stats, 1.1).passed


def test_final_rho_rejects_collapse_free_and_early_states(mc_dense):
    parts, outs = mc_dense
    sc, stats = parts["dense8_series"].scenario, outs["dense8_series"]
    assert checks.final_rho(stats, oracle(sc)).passed
    assert not checks.final_rho(stats, oracle(sc, lam=0.0)).passed
    assert not checks.final_rho(stats, oracle(sc, t=0.9 * sc.grid.t_end)).passed


# ------------------------------------------------------------- mc_grid

def test_interaction_mean_rejects_a_target_ten_se_away(mc_grid):
    stats = mc_grid[1]["grid_cooked_series"]
    assert checks.interaction_mean(stats).passed
    assert not checks.interaction_mean(stats, 10.0 * stats.interaction_se).passed


def test_grid_heating_rejects_no_heating_and_double_heating(mc_grid):
    parts, outs = mc_grid
    sc, stats = parts["grid_cooked_series"].scenario, outs["grid_cooked_series"]
    info, hbar = sc.grid_info, sc.params.hbar
    e0 = float(checks.grid_kinetic_energies(sc.psi0.amplitudes[None, :], info.dx,
                                            info.mass, hbar)[0])
    target = sc.params.lam * hbar**2 * sc.grid.t_end / (2.0 * info.mass)
    for wrong, passed in ((target, True), (0.0, False), (2.0 * target, False)):
        assert checks.grid_heating(stats, e0, info.dx, info.mass, hbar,
                                   wrong).passed is passed


# ------------------------------------------------------- deterministic

def test_dense_checks_reject_wrong_ledgers_drifts_and_oracles(deterministic):
    parts, outs = deterministic
    for sc, (series, led, drift) in zip(parts["dense_ledger_drift"].scenario,
                                        outs["dense_ledger_drift"]):
        h_norm = float(np.abs(np.linalg.eigvalsh(sc.hamiltonian.matrix)).max())
        assert checks.ledger_balance(led, h_norm).passed
        skewed = type(led)(led.times, led.system, 1.001 * led.field, led.interaction)
        assert not checks.ledger_balance(skewed, h_norm).passed

        assert checks.drift_law(led.system, drift, series.times).passed
        assert not checks.drift_law(led.system, 1.01 * drift, series.times).passed

        assert checks.final_rho_exact(series.final_rho, oracle(sc)).passed
        wrong = oracle(sc, lam=1.001 * sc.params.lam)
        assert not checks.final_rho_exact(series.final_rho, wrong).passed


def test_coherence_decay_rejects_the_full_gap_rate(deterministic):
    parts, outs = deterministic
    sc, series = parts["two_level_coherence"].scenario, outs["two_level_coherence"]
    rate = 0.5 * sc.params.lam * 2.0**2
    rho01 = series.rhos[:, 0, 1]
    assert checks.coherence_decay(series.times, rho01, rate).passed
    assert not checks.coherence_decay(series.times, rho01, 2.0 * rate).passed


def test_grid_ledger_checks_reject_wrong_signs_and_rates(deterministic):
    parts, outs = deterministic
    sc, (_, led) = parts["grid_density_ledger"].scenario, outs["grid_density_ledger"]
    heat = sc.params.lam * sc.params.hbar**2 / (2.0 * sc.grid_info.mass)
    assert checks.heating_slope(led.times, led.system, heat).passed
    assert not checks.heating_slope(led.times, led.system, 2.0 * heat).passed
    field_end = float(led.field[-1])
    assert checks.final_field_energy(field_end, -heat * sc.grid.t_end).passed
    assert not checks.final_field_energy(field_end, heat * sc.grid.t_end).passed


def test_window_checks_reject_overlapping_windows_and_wrong_tails(deterministic):
    _, outs = deterministic
    residuals, exponent, verdicts = outs["window_scans"]
    assert checks.at_most("window_residuals", float(residuals.max()), 1e-10).passed
    grid = postulate.MomentumGrid(workloads.WINDOW_POINTS, -8.0, 8.0)
    amp = 1.0 / math.sqrt(2.0)
    overlapping = postulate.make_superposition(
        amp, amp, postulate.build_window_state(grid, -6.0, 0.5, 0),
        postulate.build_window_state(grid, -0.5, 6.0, 0))
    worst = max(postulate.collapse_residual(overlapping, "momentum", b)
                for b in np.linspace(0.05, 5.0, 20))
    assert not checks.at_most("window_residuals", worst, 1e-10).passed

    assert checks.tail_exponent(exponent).passed
    assert not checks.tail_exponent(exponent, target=2.0).passed
    assert not checks.equal("moment_verdicts", verdicts,
                            ("convergent", "divergent")).passed


def test_a_thread_dependent_output_fails_its_operation():
    part = workloads.Part("p", None, lambda out: [], checks.digest)
    tally = run.Tally()
    first = tally.record(part, np.array([1.0]))
    tally.record(part, np.array([1.0]), first)
    assert tally.failed == 0
    tally.record(part, np.array([np.nextafter(1.0, 2.0)]), first)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, True)


def test_a_raising_call_fails_without_marking_outputs_wrong():
    part = workloads.Part("p", None, lambda out: [], checks.digest)
    tally = run.Tally()
    tally.record(part, ValueError("boom"))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, False)


# -------------------------------------------------------------- tracer

def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tracing.Tracer()
    tracer.names = ["parent", "child"]
    tracer.spans = [[0, -1, 0.0, 10.0], [1, 0, 1.0, 4.0], [1, 0, 3.0, 6.0],
                    [1, 0, 9.0, 12.0]]
    summary = tracer.summarize(0)
    assert summary["self"]["parent"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert summary["time"]["child"] == pytest.approx(9.0)
    assert summary["calls"]["child"] == 3


def test_fft_calls_are_counted_on_the_enclosing_span_and_unpatched():
    tracer = tracing.Tracer()
    fft = np.fft.fft
    tracer.patch_fft()
    with tracer.span("outer") as sid:
        np.fft.ifft(np.fft.fft(np.ones((4, 8)), axis=1), axis=1)
    tracer.unpatch()
    assert np.fft.fft is fft
    counts = tracer.summarize(sid)["counts"]
    assert counts[("outer", "fft.calls")] == 2
    assert counts[("outer", "fft.points")] == 64
    assert counts[("outer", "fft.rows")] == 8


def traced_counts():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("root") as root:
            sc = qubit_dephasing(t_end=0.5, steps=50)
            ensemble.run_ensemble(sc, 300, "raw", 5, with_field_energy=True, threads=2)
            ensemble.lindblad_propagate(ensemble.DensityMatrix.from_state(sc.psi0), sc)
    finally:
        tracer.unpatch()
    return {k: v for k, v in tracing._pass_values(tracer.summarize(root)).items()
            if not k.endswith("_s") and "per_s" not in k}


def test_traced_counts_repeat_exactly_and_wrappers_come_off():
    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["noise.standard_increments.calls"] == 300
    assert first["propagation.traj_steps"] == 300 * 50
    assert first["ensemble.lindblad_refinements"] >= 1
    assert ensemble.run_ensemble.__module__ == "cslsim.ensemble"
    assert not hasattr(ensemble.run_ensemble, "__wrapped__")


# ------------------------------------------------------- the harness

def test_benchmark_json_names_what_the_runner_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS


def test_run_fails_without_the_cslsim_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "mc_dense", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
