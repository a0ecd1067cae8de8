"""End-to-end command-line tests.

Every test drives ``cslsim.cli.main`` in process with a config file in a
temporary directory, then inspects exit codes, console text and the
written artifacts.  Reruns of the same config must be byte-identical
except for the wall-clock timings inside the manifest.
"""

import json
import math

import numpy as np
import pytest

from cslsim.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from cslsim.reports import format_float, jsonable, sha256_digest, write_csv, write_json


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def two_level_config(prefix="demo"):
    return {
        "kind": "two_level",
        "label": "cli smoke",
        "output": {"prefix": prefix},
        "ensemble": {"n": 200, "mode": "cooked", "master_seed": 42},
        "params": {"weight_upper": 0.7, "gap": 2.0, "lam": 1.0},
        "grid": {"t_end": 0.5, "steps": 50},
    }


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_manifest_digests(out_dir, manifest_path):
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"], "manifest lists no outputs"
    for rel, digest in manifest["outputs"].items():
        assert sha256_digest(out_dir / rel) == digest
    return manifest


class TestRunCommand:
    def test_writes_the_complete_artifact_set(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_level_config())
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            ["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert "wrote 4 files" in stdout

        manifest = check_manifest_digests(out, out / "demo_manifest.json")
        assert manifest["seeds"] == {"master_seed": 42}
        assert set(manifest["outputs"]) == {
            "demo_ensemble.json", "demo_series.csv", "demo_ledger.csv"}

        report = json.loads((out / "demo_ensemble.json").read_text())
        assert report["mode"] == "cooked"
        assert report["n_success"] == 200
        assert report["effective_sample_size"] == 200.0
        freqs = [o["frequency"] for o in report["outcomes"]]
        assert len(freqs) == 2
        assert sum(freqs) == pytest.approx(1.0, abs=1e-12)

        lines = (out / "demo_series.csv").read_text().splitlines()
        assert lines[0] == "t,expA,expH"
        assert len(lines) == 52  # header plus steps + 1 samples

    def test_reruns_are_byte_identical_up_to_timings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_level_config())
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["run", "--config", str(cfg), "--out", str(out)], capsys)
            assert code == EXIT_OK
            outs.append(out)
        for rel in ("demo_ensemble.json", "demo_series.csv", "demo_ledger.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        manifests = [json.loads((o / "demo_manifest.json").read_text())
                     for o in outs]
        for m in manifests:
            m.pop("timings_seconds")
        assert manifests[0] == manifests[1]

    def test_thread_count_does_not_change_the_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_level_config())
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            code, _, _ = run_cli(
                ["run", "--config", str(cfg), "--out", str(out),
                 "--threads", threads], capsys)
            assert code == EXIT_OK
            outs.append(out)
        for rel in ("demo_ensemble.json", "demo_series.csv"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_a_one_step_ledger_exits_with_the_numerical_status(self, tmp_path,
                                                                capsys):
        # The 3-point series is too coarse for the field-energy quadrature.
        doc = {
            "kind": "qubit_dephasing",
            "ensemble": {"n": 200, "mode": "cooked", "master_seed": 7},
            "params": {"omega": 1.0, "lam": 0.2},
            "grid": {"t_end": 2.0, "steps": 1},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_NUMERICAL
        assert stderr.startswith("numerical failure: field-energy quadrature "
                                 "not converged")
        assert not out.exists()

    def test_a_refused_ledger_fails_before_the_ensemble_runs(self, tmp_path,
                                                              capsys, monkeypatch):
        # The packet reaches the seam, which the ledger's estimate catches
        # at a fraction of the ensemble's cost.
        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the ledger")

        monkeypatch.setattr("cslsim.cli.run_ensemble", no_ensemble)
        doc = {
            "kind": "free_particle_grid",
            "ensemble": {"n": 1024, "mode": "cooked", "master_seed": 3},
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 2.0,
                       "lam": 0.002, "x0": 24.0},
            "grid": {"t_end": 8.0, "steps": 256},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_NUMERICAL
        assert "reached the periodic seam" in stderr
        assert not out.exists()


# random_dense(1, dim=2, lam=0.3, t_end=8, steps=96): a quadrature error
# of 2.987e-5 against a budget of 2.864e-6, which the ledger's total would
# show as a drift.
UNRESOLVED_QUADRATURE = {
    "kind": "random_matrix",
    "ensemble": {"n": 10, "mode": "cooked", "master_seed": 5},
    "params": {"seed": 1, "dim": 2, "lam": 0.3},
    "grid": {"t_end": 8.0, "steps": 96},
}


@pytest.mark.parametrize("command", ["ledger", "run"])
def test_an_unresolved_quadrature_is_not_reported_as_drift(tmp_path, capsys,
                                                           command):
    cfg = write_config(tmp_path, UNRESOLVED_QUADRATURE)
    out = tmp_path / "out"
    code, _, stderr = run_cli(
        [command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == EXIT_NUMERICAL
    assert stderr.startswith("numerical failure: field-energy quadrature "
                             "not converged")
    assert "drifts" not in stderr
    assert not out.exists()


class TestConfigRejection:
    def reject(self, tmp_path, capsys, doc, needle, command="run"):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "never"
        code, _, stderr = run_cli(
            [command, "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert needle in stderr
        assert not out.exists(), "rejected config must write nothing"

    def test_missing_master_seed_names_the_field(self, tmp_path, capsys):
        doc = two_level_config()
        del doc["ensemble"]["master_seed"]
        self.reject(tmp_path, capsys, doc, "ensemble.master_seed")

    def test_unknown_field_names_its_dotted_path(self, tmp_path, capsys):
        doc = two_level_config()
        doc["params"]["bogus"] = 1.0
        self.reject(tmp_path, capsys, doc, "params.bogus")

    def test_negative_collapse_rate(self, tmp_path, capsys):
        doc = two_level_config()
        doc["params"]["lam"] = -0.5
        self.reject(tmp_path, capsys, doc, "params.lam")

    def test_bad_ensemble_mode_lists_the_choices(self, tmp_path, capsys):
        doc = two_level_config()
        doc["ensemble"]["mode"] = "grilled"
        self.reject(tmp_path, capsys, doc, "must be one of")

    @pytest.mark.parametrize("ensemble, needle", [
        ({"n": "many", "mode": "cooked", "master_seed": 42}, "ensemble.n"),
        ({"n": 10, "mode": "cooked", "master_seed": 42, "mdoe": "raw"},
         "ensemble.mdoe"),
    ])
    def test_ledger_validates_an_ensemble_section(self, tmp_path, capsys,
                                                  ensemble, needle):
        doc = two_level_config()
        doc["ensemble"] = ensemble
        self.reject(tmp_path, capsys, doc, needle, command="ledger")

    def test_random_matrix_requires_a_seed(self, tmp_path, capsys):
        doc = {
            "kind": "random_matrix",
            "ensemble": {"n": 10, "mode": "cooked", "master_seed": 1},
            "params": {"dim": 4, "lam": 0.2},
            "grid": {"t_end": 0.5, "steps": 20},
        }
        self.reject(tmp_path, capsys, doc, "params.seed")

    def test_grid_size_must_be_a_power_of_two(self, tmp_path, capsys):
        doc = {
            "kind": "free_particle_grid",
            "ensemble": {"n": 10, "mode": "cooked", "master_seed": 1},
            "params": {"n_points": 100, "dx": 0.5, "sigma0": 4.0, "lam": 0.01},
            "grid": {"t_end": 1.0, "steps": 32},
        }
        self.reject(tmp_path, capsys, doc, "power of two")

    def test_postulate_config_is_refused_by_run(self, tmp_path, capsys):
        doc = {"kind": "postulate_analysis"}
        self.reject(tmp_path, capsys, doc, "postulate subcommand")

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        out = tmp_path / "never"
        code, _, stderr = run_cli(
            ["run", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert "invalid JSON" in stderr
        assert not out.exists()

    def test_window_outside_the_grid(self, tmp_path, capsys):
        doc = {
            "kind": "postulate_analysis",
            "params": {
                "grid": {"n_points": 1024, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "windows", "window1": [-9.0, 0.0],
                         "window2": [2.0, 6.0]},
            },
        }
        self.reject(tmp_path, capsys, doc, "params.pair", command="postulate")

    def test_negative_master_seed(self, tmp_path, capsys):
        doc = two_level_config()
        doc["ensemble"]["master_seed"] = -1
        self.reject(tmp_path, capsys, doc, "ensemble.master_seed")

    def test_negative_scenario_seed(self, tmp_path, capsys):
        doc = {
            "kind": "random_matrix",
            "params": {"seed": -3, "dim": 4, "lam": 0.2},
            "grid": {"t_end": 0.5, "steps": 20},
        }
        self.reject(tmp_path, capsys, doc, "params.seed", command="ledger")

    def test_seam_margin_is_not_a_config_field(self, tmp_path, capsys):
        doc = {
            "kind": "free_particle_grid",
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 2.0, "lam": 0.01,
                       "seam_margin": 10},
            "grid": {"t_end": 1.0, "steps": 16},
        }
        self.reject(tmp_path, capsys, doc, "params.seam_margin", command="ledger")

    def test_packet_centre_off_the_ring(self, tmp_path, capsys):
        doc = {
            "kind": "free_particle_grid",
            "ensemble": {"n": 10, "mode": "cooked", "master_seed": 1},
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 2.0, "lam": 0.01,
                       "x0": 1e6},
            "grid": {"t_end": 1.0, "steps": 16},
        }
        self.reject(tmp_path, capsys, doc, "params.x0")

    def test_packet_narrower_than_the_grid(self, tmp_path, capsys):
        # Centred between two grid points, a packet of spread 0.001 has a
        # density of exp(-7812.5) at the nearest one: zero in floating point.
        doc = {
            "kind": "free_particle_grid",
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 0.001, "lam": 0.01,
                       "x0": 0.125},
            "grid": {"t_end": 1.0, "steps": 16},
        }
        self.reject(tmp_path, capsys, doc, "params.sigma0", command="ledger")

    def test_grid_spacing_whose_wavenumbers_overflow(self, tmp_path, capsys):
        doc = {
            "kind": "free_particle_grid",
            "params": {"n_points": 256, "dx": 1e-320, "sigma0": 2.0, "lam": 0.01},
            "grid": {"t_end": 1.0, "steps": 16},
        }
        self.reject(tmp_path, capsys, doc, "params.dx", command="ledger")

    def test_packet_whose_spread_squared_overflows(self, tmp_path, capsys):
        doc = {
            "kind": "free_particle_grid",
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 1e200, "lam": 0.01},
            "grid": {"t_end": 1.0, "steps": 16},
        }
        self.reject(tmp_path, capsys, doc, "params.sigma0", command="ledger")

    def test_parallel_gaussian_branches(self, tmp_path, capsys):
        doc = {
            "kind": "postulate_analysis",
            "params": {
                "grid": {"n_points": 1024, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "gaussians", "sigma": 1.0,
                         "center1": 2.0, "center2": 2.0},
            },
        }
        self.reject(tmp_path, capsys, doc, "params.pair", command="postulate")

    @pytest.mark.parametrize("section", ["tail", "moment"])
    def test_scan_window_outside_the_grid(self, tmp_path, capsys, section):
        doc = {
            "kind": "postulate_analysis",
            "params": {
                "grid": {"n_points": 1024, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "windows", "window1": [-6.0, -2.0],
                         "window2": [2.0, 6.0]},
                section: {"edge_orders": [0], "window": [-3.0, 9.0]},
            },
        }
        self.reject(tmp_path, capsys, doc, f"params.{section}.window",
                    command="postulate")

    def test_zero_threads(self, tmp_path, capsys):
        cfg = write_config(tmp_path, two_level_config())
        code, _, stderr = run_cli(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "x"),
             "--threads", "0"], capsys)
        assert code == EXIT_CONFIG
        assert "--threads" in stderr

    @pytest.mark.parametrize("argv", [
        ["postulate", "--config", "c.json", "--threads", "2"],
        ["ledger", "--config", "c.json", "--verbose"],
        ["verify", "--verbose"],
    ], ids=["postulate-threads", "ledger-verbose", "verify-verbose"])
    def test_a_flag_its_command_does_not_read_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestLedgerCommand:
    def test_closed_system_ledger_passes_with_flat_columns(self, tmp_path,
                                                           capsys):
        doc = {
            "kind": "qubit_dephasing",
            "output": {"prefix": "qd"},
            "params": {"omega": 1.0, "lam": 0.0},
            "grid": {"t_end": 1.0, "steps": 100},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            ["ledger", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert "pass" in stdout

        table = np.genfromtxt(out / "qd_ledger.csv", delimiter=",", names=True)
        # The exact propagator steps the span on 2 * steps intervals.
        assert table.shape[0] == 201
        assert table["t"][0] == 0.0
        assert table["t"][-1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(table["H_w"] == 0.0)
        assert np.all(table["V"] == 0.0)
        assert np.ptp(table["H_A"]) <= 1e-9

        summary = json.loads((out / "qd_ledger_summary.json").read_text())
        assert summary["passed"] is True
        check_manifest_digests(out, out / "qd_manifest.json")

    def test_mass_at_the_seam_exits_with_the_numerical_status(self, tmp_path,
                                                               capsys):
        # The packet starts 8 units from the edge of a 64-unit ring and
        # spreads across the seam within the span.
        doc = {
            "kind": "free_particle_grid",
            "params": {"n_points": 256, "dx": 0.25, "sigma0": 2.0,
                       "lam": 0.002, "x0": 24.0},
            "grid": {"t_end": 8.0, "steps": 32},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["ledger", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_NUMERICAL
        assert stderr.startswith("numerical failure: ")
        assert "reached the periodic seam" in stderr
        assert not out.exists()


class TestPostulateCommand:
    def test_disjoint_windows_conserve_both_generators(self, tmp_path, capsys):
        doc = {
            "kind": "postulate_analysis",
            "output": {"prefix": "win"},
            "params": {
                "grid": {"n_points": 1024, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "windows", "window1": [-6.0, -2.0],
                         "window2": [2.0, 6.0]},
                "scans": {"count": 40, "b_max": 5.0, "a_max": 5.0},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            ["postulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert "conserving but non-localized" in stdout

        report = json.loads((out / "win_report.json").read_text())
        assert report["eq1_residual"] == 0.0
        assert report["verdict"] == "conserving but non-localized"
        assert report["scan_P"]["max_residual"] <= 1e-10
        assert report["scan_E"]["max_residual"] <= 1e-10
        for name in ("win_scan_P.csv", "win_scan_E.csv"):
            assert len((out / name).read_text().splitlines()) == 41
        check_manifest_digests(out, out / "win_manifest.json")

    def test_displaced_gaussians_are_flagged_as_violating(self, tmp_path,
                                                          capsys):
        doc = {
            "kind": "postulate_analysis",
            "output": {"prefix": "gs"},
            "params": {
                "grid": {"n_points": 1024, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "gaussians", "sigma": 1.0,
                         "center1": -5.0, "center2": 5.0},
                "scans": {"count": 60, "b_max": 12.0},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            ["postulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert "generic violation" in stdout
        report = json.loads((out / "gs_report.json").read_text())
        assert report["scan_P"]["max_residual"] >= 1e-4

    def test_tail_and_moment_sections_extend_the_report(self, tmp_path,
                                                        capsys):
        doc = {
            "kind": "postulate_analysis",
            "output": {"prefix": "deep"},
            "params": {
                "grid": {"n_points": 2048, "p_min": -8.0, "p_max": 8.0},
                "pair": {"type": "windows", "window1": [-6.0, -2.0],
                         "window2": [2.0, 6.0]},
                "scans": {"count": 10},
                "tail": {"edge_orders": [0, 1], "window": [-3.0, 3.0]},
                "moment": {"order": 2, "edge_orders": [0, 3],
                           "window": [-3.0, 3.0], "doublings": 2},
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, _ = run_cli(
            ["postulate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == EXIT_OK

        report = json.loads((out / "deep_report.json").read_text())
        fits = {f["edge_order"]: f for f in report["tail_fits"]}
        assert fits[0]["polynomial"] and 0.8 <= fits[0]["exponent"] <= 1.1
        assert fits[1]["polynomial"] and 1.7 <= fits[1]["exponent"] <= 2.1
        scans = {s["edge_order"]: s for s in report["moment_scans"]}
        assert scans[0]["verdict"] == "divergent"
        assert scans[3]["verdict"] == "convergent"
        for name in ("deep_moment_n0.csv", "deep_moment_n3.csv"):
            assert (out / name).exists()
        check_manifest_digests(out, out / "deep_manifest.json")


class TestReportWriters:
    def test_csv_floats_round_trip_exactly(self):
        for value in (1.0 / 3.0, 1e-17, -2.5e8, math.pi, 0.1 + 0.2):
            assert float(format_float(value)) == value

    def test_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(tmp_path / "bad.csv", ["a", "b"],
                      [np.arange(3.0), np.arange(4.0)])

    def test_json_rejects_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": float("nan")})

    def test_jsonable_conversions(self):
        assert jsonable(1.0 + 2.0j) == {"re": 1.0, "im": 2.0}
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable(np.arange(3)) == [0, 1, 2]
        assert jsonable({"k": np.bool_(True)}) == {"k": True}
