"""Command-line front end.

Subcommands
-----------
run
    Monte Carlo ensemble plus deterministic ledger for one scenario
    config; writes the ensemble report JSON, series CSV, ledger CSV and
    a manifest.
ledger
    Deterministic ledger only; prints the conservation deviation and
    pass/fail against tolerance.  Reads the configs ``run`` reads, and
    validates their ``ensemble`` section when one is present.
postulate
    Momentum-window collapse-compatibility analyses; writes a report
    JSON and scan CSVs.
verify
    Full acceptance suite at pinned seeds; numbers, times and prints
    one line per criterion.

Configs are single-scenario JSON documents, schema-validated before any
work starts: a bad config exits with status 2 and the offending field
path, and writes nothing.  Numerical failures exit with status 3.
Flags never override config values; they only choose the config file,
output directory, thread count and verbosity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import run_ensemble
from .errors import ConfigError, NonHermitianError, NumericalFailure, ZeroNormError
from .ledger import balance_tolerance, build_ledger, conservation_check
from .postulate import (CONSERVING_RESIDUAL, VIOLATION_RESIDUAL, MomentumGrid,
                        build_window_state, collapse_residual, eq1_residual,
                        gaussian_state, make_superposition,
                        moment_divergence_scan, tail_fit)
from .propagation import GridInfo
from .reports import (ensemble_report, jsonable, sha256_digest, write_csv,
                      write_json, write_ensemble_series_csv, write_ledger_csv)
from .scenarios import free_particle_grid, qubit_dephasing, random_dense, two_level_collapse
from . import acceptance

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DYNAMICAL_KINDS = ("two_level", "qubit_dephasing", "free_particle_grid",
                   "random_matrix")
ALL_KINDS = DYNAMICAL_KINDS + ("postulate_analysis",)


# The default of a field that has none: a getter given no default
# requires its field.
_REQUIRED = object()


class _Section:
    """A config sub-object consumed field by field.

    Every getter removes the field it reads; :meth:`close` then rejects
    whatever is left, so unknown (usually misspelled) keys fail fast
    with their full dotted path.  A field is required exactly when its
    getter is given no default.
    """

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path or "config", "must be a JSON object")
        self._data = dict(data)
        self._path = path

    def key(self, name: str) -> str:
        return f"{self._path}.{name}" if self._path else name

    def _take(self, name: str, default):
        """Remove field ``name``; return (present, its value or ``default``)."""
        if name in self._data:
            return True, self._data.pop(name)
        if default is _REQUIRED:
            raise ConfigError(self.key(name), "missing required field")
        return False, default

    def section(self, name: str, default=_REQUIRED):
        present, raw = self._take(name, default)
        if not present and raw is None:
            return None
        return _Section(raw, self.key(name))

    def number(self, name: str, default=_REQUIRED, *,
               positive: bool = False) -> float:
        present, raw = self._take(name, default)
        if not present:
            return raw
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(self.key(name), "must be a number")
        value = float(raw)
        if not math.isfinite(value):
            raise ConfigError(self.key(name), "must be finite")
        if positive and value <= 0.0:
            raise ConfigError(self.key(name), "must be positive")
        return value

    def integer(self, name: str, default=_REQUIRED, *, minimum=None) -> int:
        present, raw = self._take(name, default)
        if not present:
            return raw
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(self.key(name), "must be an integer")
        if minimum is not None and raw < minimum:
            raise ConfigError(self.key(name), f"must be >= {minimum}")
        return raw

    def string(self, name: str, default=_REQUIRED, *, choices=None) -> str:
        present, raw = self._take(name, default)
        if not present:
            return raw
        if not isinstance(raw, str):
            raise ConfigError(self.key(name), "must be a string")
        if choices is not None and raw not in choices:
            raise ConfigError(self.key(name),
                              f"must be one of {sorted(choices)}, got {raw!r}")
        return raw

    def number_pair(self, name: str):
        raw = self._take(name, _REQUIRED)[1]
        ok = (isinstance(raw, list) and len(raw) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in raw))
        if not ok:
            raise ConfigError(self.key(name), "must be a list of two numbers")
        return float(raw[0]), float(raw[1])

    def int_list(self, name: str, *, minimum=None):
        raw = self._take(name, _REQUIRED)[1]
        ok = (isinstance(raw, list) and raw
              and all(isinstance(v, int) and not isinstance(v, bool) for v in raw))
        if not ok:
            raise ConfigError(self.key(name), "must be a non-empty list of integers")
        if minimum is not None and any(v < minimum for v in raw):
            raise ConfigError(self.key(name), f"entries must be >= {minimum}")
        return list(raw)

    def close(self) -> None:
        if self._data:
            name = sorted(self._data)[0]
            raise ConfigError(self.key(name), "unknown field")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return data



def _nonnegative(sec: _Section, name: str) -> float:
    value = sec.number(name)
    if value < 0.0:
        raise ConfigError(sec.key(name), "must be non-negative")
    return value

def _grid_args(root: _Section) -> dict:
    grid = root.section("grid")
    out = {"t_end": grid.number("t_end", positive=True),
           "steps": grid.integer("steps", minimum=1)}
    grid.close()
    return out


def build_scenario(root: _Section, kind: str):
    """Construct the scenario a dynamical config describes.

    Returns (scenario, seeds) where seeds holds any construction seed.
    """
    params = root.section("params")
    grid = _grid_args(root)
    seeds = {}
    if kind == "two_level":
        weight = params.number("weight_upper")
        if not 0.0 < weight < 1.0:
            raise ConfigError(params.key("weight_upper"),
                              "must lie strictly between 0 and 1")
        scenario = two_level_collapse(
            weight_upper=weight,
            gap=params.number("gap", positive=True),
            lam=_nonnegative(params, "lam"),
            relative_phase=params.number("relative_phase", default=0.0),
            hbar=params.number("hbar", default=1.0, positive=True),
            **grid)
    elif kind == "qubit_dephasing":
        scenario = qubit_dephasing(
            omega=params.number("omega", positive=True),
            lam=_nonnegative(params, "lam"),
            hbar=params.number("hbar", default=1.0, positive=True),
            **grid)
    elif kind == "free_particle_grid":
        n_points = params.integer("n_points", minimum=2)
        if n_points & (n_points - 1) != 0:
            raise ConfigError(params.key("n_points"), "must be a power of two")
        dx = params.number("dx", positive=True)
        sigma0 = params.number("sigma0", positive=True)
        if not math.isfinite(sigma0 * sigma0):
            raise ConfigError(params.key("sigma0"), "is too wide: its square "
                              "overflows floating point")
        x0 = params.number("x0", default=0.0)
        try:
            ring = GridInfo(n_points=n_points, dx=dx).positions
        except ValueError as exc:
            raise ConfigError(params.key("dx"), str(exc))
        if not ring[0] <= x0 <= ring[-1]:
            raise ConfigError(params.key("x0"),
                              f"must lie on the ring, in [{ring[0]:g}, {ring[-1]:g}]")
        # The packet's density at the grid point nearest x0.
        peak = math.exp(-np.min((ring - x0) ** 2) / (2.0 * sigma0**2))
        if not peak >= sys.float_info.min:
            raise ConfigError(params.key("sigma0"), "is too narrow for the grid: the "
                              "packet's density underflows at every grid point")
        scenario = free_particle_grid(
            n_points=n_points, dx=dx, sigma0=sigma0,
            lam=_nonnegative(params, "lam"),
            mass=params.number("mass", default=1.0, positive=True),
            hbar=params.number("hbar", default=1.0, positive=True),
            x0=x0, p0=params.number("p0", default=0.0),
            **grid)
    elif kind == "random_matrix":
        seed = params.integer("seed", minimum=0)
        seeds["scenario_seed"] = seed
        scenario = random_dense(
            seed,
            dim=params.integer("dim", default=8, minimum=2),
            lam=_nonnegative(params, "lam"),
            hbar=params.number("hbar", default=1.0, positive=True),
            **grid)
    else:
        raise ConfigError("kind", f"unknown scenario kind {kind!r}")
    params.close()
    return scenario, seeds


def _prefix(root: _Section, kind: str) -> str:
    out = root.section("output", None)
    if out is None:
        return kind
    prefix = out.string("prefix", default=kind)
    out.close()
    return prefix


def _read_dynamical(path, ensemble_default):
    """Read and validate a dynamical config in full.

    Returns (echo, kind, prefix, ensemble, scenario, seeds).  The
    ``ensemble`` section is validated whenever present and returned as
    (n, mode, master_seed); when absent it is ``ensemble_default``,
    which is :data:`_REQUIRED` for a subcommand that needs one.
    """
    echo = load_config(path)
    root = _Section(echo, "")
    kind = root.string("kind", choices=ALL_KINDS)
    if kind == "postulate_analysis":
        raise ConfigError("kind",
                          "postulate_analysis configs run under the postulate subcommand")
    root.string("label", default="")
    prefix = _prefix(root, kind)
    ens = root.section("ensemble", ensemble_default)
    ensemble = None
    if ens is not None:
        ensemble = (ens.integer("n", minimum=1),
                    ens.string("mode", choices=("raw", "cooked")),
                    ens.integer("master_seed", minimum=0))
        ens.close()
    scenario, seeds = build_scenario(root, kind)
    root.close()
    return echo, kind, prefix, ensemble, scenario, seeds


def _write_outputs(out, prefix, echo, seeds, timings, outputs) -> None:
    """Make the output directory, write each ``(suffix, writer, *data)``
    of ``outputs`` as ``writer(out/<prefix>_<suffix>, *data)``, then the
    manifest: config echo, version, seeds, wall-clock timings (so the
    manifest alone is not byte-stable) and each output's sha256 digest."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for suffix, writer, *data in outputs:
        path = writer(out_dir / f"{prefix}_{suffix}", *data)
        digests[path.name] = sha256_digest(path)
    write_json(out_dir / f"{prefix}_manifest.json", {
        "config": jsonable(echo),
        "code_version": __version__,
        "seeds": jsonable(seeds),
        "timings_seconds": {k: round(float(v), 6) for k, v in timings.items()},
        "outputs": digests,
    })


def cmd_run(args) -> int:
    echo, _, prefix, (n, mode, master_seed), scenario, seeds = _read_dynamical(
        args.config, _REQUIRED)
    seeds["master_seed"] = master_seed

    timings = {}

    # The ledger is cheap beside the ensemble, so a refused one fails first.
    t0 = time.perf_counter()
    ledger = build_ledger(scenario)
    timings["ledger"] = time.perf_counter() - t0
    if args.verbose:
        print(f"ledger: deviation {conservation_check(ledger):.3e}, "
              f"{timings['ledger']:.2f}s")

    t0 = time.perf_counter()
    stats = run_ensemble(scenario, n, mode, master_seed,
                         record_series=True, threads=args.threads)
    timings["ensemble"] = time.perf_counter() - t0
    if args.verbose:
        print(f"ensemble: {stats.n_success}/{n} trajectories, "
              f"ESS {stats.effective_sample_size:.1f}, "
              f"{timings['ensemble']:.2f}s")

    # The directory is made only once the numerical work has succeeded.
    outputs = [("ensemble.json", write_json, ensemble_report(stats, echo)),
               ("series.csv", write_ensemble_series_csv, stats),
               ("ledger.csv", write_ledger_csv, ledger)]
    _write_outputs(args.out, prefix, echo, seeds, timings, outputs)
    print(f"wrote {len(outputs) + 1} files to {Path(args.out)}")
    return EXIT_OK


def cmd_ledger(args) -> int:
    echo, kind, prefix, _, scenario, seeds = _read_dynamical(args.config, None)

    timings = {}
    t0 = time.perf_counter()
    ledger = build_ledger(scenario)
    timings["ledger"] = time.perf_counter() - t0

    deviation = conservation_check(ledger)
    tolerance = balance_tolerance(scenario)
    passed = deviation <= tolerance
    summary = {
        "kind": kind,
        "max_deviation": deviation,
        "tolerance": tolerance,
        "passed": passed,
        "system_slope": float(np.polyfit(ledger.times, ledger.system, 1)[0]),
        "field_slope": float(np.polyfit(ledger.times, ledger.field, 1)[0]),
        "final_system": float(ledger.system[-1]),
        "final_field": float(ledger.field[-1]),
        "final_total": float(ledger.total[-1]),
    }
    # A ledger out of balance is still written, for inspection.
    _write_outputs(args.out, prefix, echo, seeds, timings,
                   [("ledger.csv", write_ledger_csv, ledger),
                    ("ledger_summary.json", write_json, summary)])
    print(f"conservation deviation {deviation:.3e} "
          f"(tolerance {tolerance:.3e}) -> {'pass' if passed else 'FAIL'}")
    if not passed:
        raise NumericalFailure(
            f"ledger total drifts by {deviation:.3e}, tolerance {tolerance:.3e}")
    return EXIT_OK


def _build_pair(pair: _Section, grid: MomentumGrid):
    """Return (superposition, inputs echo) for a pair spec."""
    kind = pair.string("type", choices=("windows", "gaussians"))
    weight1 = pair.number("weight1", default=0.5)
    if not 0.0 < weight1 < 1.0:
        raise ConfigError(pair.key("weight1"), "must lie strictly between 0 and 1")
    if kind == "windows":
        order = pair.integer("edge_order", default=0, minimum=0)
        w1 = pair.number_pair("window1")
        w2 = pair.number_pair("window2")
        c1 = pair.number("carrier1", default=0.0)
        c2 = pair.number("carrier2", default=0.0)
        inputs = {"type": kind, "edge_order": order, "window1": list(w1),
                  "window2": list(w2)}
    else:
        sigma = pair.number("sigma", positive=True)
        x1 = pair.number("center1")
        x2 = pair.number("center2")
        inputs = {"type": kind, "sigma": sigma, "center1": x1, "center2": x2}
    pair.close()
    try:
        if kind == "windows":
            s1 = build_window_state(grid, w1[0], w1[1], order, c1)
            s2 = build_window_state(grid, w2[0], w2[1], order, c2)
        else:
            s1 = gaussian_state(grid, sigma, x0=x1)
            s2 = gaussian_state(grid, sigma, x0=x2)
        sup = make_superposition(math.sqrt(weight1), math.sqrt(1.0 - weight1), s1, s2)
    except ValueError as exc:
        raise ConfigError("params.pair", str(exc))
    inputs["weight1"] = weight1
    return sup, inputs


def _window(sec: _Section, grid: MomentumGrid):
    """The momentum window ``sec.window``, which must lie inside the grid."""
    lo, hi = sec.number_pair("window")
    if not grid.p_min < lo < hi < grid.p_max:
        raise ConfigError(sec.key("window"), f"[{lo}, {hi}] must be an "
                          f"increasing pair inside ({grid.p_min}, {grid.p_max})")
    return lo, hi


def cmd_postulate(args) -> int:
    echo = load_config(args.config)
    root = _Section(echo, "")
    root.string("kind", choices=("postulate_analysis",))
    root.string("label", default="")
    prefix = _prefix(root, "postulate")
    params = root.section("params")

    gsec = params.section("grid")
    n_points = gsec.integer("n_points", minimum=256)
    p_min = gsec.number("p_min")
    p_max = gsec.number("p_max")
    gsec.close()
    try:
        grid = MomentumGrid(n_points, p_min, p_max)
    except ValueError as exc:
        raise ConfigError("params.grid", str(exc))

    sup, inputs = _build_pair(params.section("pair"), grid)

    scans = params.section("scans", {})
    count = scans.integer("count", default=100, minimum=1)
    b_max = scans.number("b_max", default=5.0, positive=True)
    a_max = scans.number("a_max", default=5.0, positive=True)
    mass = scans.number("mass", default=1.0, positive=True)
    scans.close()

    tail_sec = params.section("tail", None)
    tail_spec = None
    if tail_sec is not None:
        tail_spec = {"orders": tail_sec.int_list("edge_orders", minimum=0),
                     "window": _window(tail_sec, grid)}
        tail_sec.close()

    moment_sec = params.section("moment", None)
    moment_spec = None
    if moment_sec is not None:
        order = moment_sec.integer("order", default=2, minimum=0)
        if order % 2 != 0:
            raise ConfigError(moment_sec.key("order"), "must be even")
        moment_spec = {"order": order,
                       "orders": moment_sec.int_list("edge_orders", minimum=0),
                       "window": _window(moment_sec, grid),
                       "doublings": moment_sec.integer("doublings", default=4,
                                                       minimum=1)}
        moment_sec.close()
    params.close()
    root.close()

    timings = {}
    t0 = time.perf_counter()

    b_values = np.linspace(b_max / count, b_max, count)
    a_values = np.linspace(a_max / count, a_max, count)
    res_p = np.array([collapse_residual(sup, "momentum", b) for b in b_values])
    res_e = np.array([collapse_residual(sup, "energy", a, mass=mass)
                      for a in a_values])
    worst = max(res_p.max(), res_e.max())
    if worst <= CONSERVING_RESIDUAL:
        verdict = "conserving but non-localized"
    elif worst >= VIOLATION_RESIDUAL:
        verdict = "generic violation"
    else:
        verdict = "inconclusive"
    report = {
        "inputs": inputs,
        "grid": {"n_points": n_points, "p_min": p_min, "p_max": p_max},
        "eq1_residual": eq1_residual(sup.phi1, sup.phi2),
        "scan_P": {"count": count, "b_max": b_max,
                   "max_residual": float(res_p.max())},
        "scan_E": {"count": count, "a_max": a_max, "mass": mass,
                   "max_residual": float(res_e.max())},
        "verdict": verdict,
    }

    if tail_spec is not None:
        lo, hi = tail_spec["window"]
        fits = []
        for order in tail_spec["orders"]:
            fit = tail_fit(build_window_state(grid, lo, hi, order))
            fits.append({"edge_order": order,
                         "exponent": fit.exponent if fit.is_polynomial else None,
                         "polynomial": fit.is_polynomial})
        report["tail_fits"] = fits

    moment_tables = {}
    if moment_spec is not None:
        lo, hi = moment_spec["window"]
        k = moment_spec["order"]
        outcomes = []
        for order in moment_spec["orders"]:
            scan = moment_tables[order] = moment_divergence_scan(
                lambda g, n=order: build_window_state(g, lo, hi, n),
                k, grid, doublings=moment_spec["doublings"])
            outcomes.append({"edge_order": order, "moment_order": k,
                             "verdict": scan.verdict,
                             "ratios": [float(r) for r in scan.ratios]})
        report["moment_scans"] = outcomes
    timings["analysis"] = time.perf_counter() - t0

    # The directory is made only once the numerical work has succeeded.
    outputs = [("scan_P.csv", write_csv, ["b", "residual"], [b_values, res_p]),
               ("scan_E.csv", write_csv, ["a", "residual"], [a_values, res_e])]
    outputs += [(f"moment_n{order}.csv", write_csv, ["domain", "moment"],
                 [scan.domains, scan.values])
                for order, scan in moment_tables.items()]
    outputs.append(("report.json", write_json, report))
    _write_outputs(args.out, prefix, echo, {}, timings, outputs)
    print(f"verdict: {verdict} (worst residual {worst:.3e})")
    return EXIT_OK


def cmd_verify(args) -> int:
    print(f"acceptance suite, version {__version__}")
    failed, start = 0, time.perf_counter()
    for number, (name, runner) in enumerate(acceptance.RUNNERS, 1):
        t0 = time.perf_counter()
        passed, detail = runner(args.threads)
        failed += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {number:>2}  {name:<28} "
              f"{time.perf_counter() - t0:7.2f}s  {detail}")
    count, total = len(acceptance.RUNNERS), time.perf_counter() - start
    if failed:
        print(f"{failed} of {count} criteria FAILED ({total:.1f}s)")
        return EXIT_FAILED_CHECK
    print(f"all {count} criteria passed ({total:.1f}s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslsim",
        description="Collapse-dynamics simulator and verification harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags its command reads.
    def command(name, func, summary, config=True, threads=False, verbose=False):
        p = sub.add_parser(name, help=summary)
        if config:
            p.add_argument("--config", required=True, help="scenario config JSON")
            p.add_argument("--out", default=".", help="output directory")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads for ensemble fan-out")
        if verbose:
            p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=func)

    command("run", cmd_run, "Monte Carlo ensemble plus ledger", threads=True,
            verbose=True)
    command("ledger", cmd_ledger, "deterministic energy ledger")
    command("postulate", cmd_postulate, "momentum-window analyses")
    command("verify", cmd_verify, "run the acceptance suite", config=False, threads=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, ZeroNormError, NonHermitianError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
