"""Command-line front end: simulate, optimize, sense, estimate, experiment, validate-config.

Exit codes: 0 success, 2 malformed or unknown configuration, 3 infeasible
problem.  Results go to --out (CSV or JSON chosen by extension).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import beamforming as bf
from . import estimate as est
from . import optimize as opt
from .channel import (channel_mimo, channel_narrowband, db_to_linear, gen_scenario,
                      scenario_from_dict)
from .errors import ConfigError, InfeasibleError
from .experiments import (ExperimentConfig, ResultTable, _line_array, _miso_line_channel,
                          _music_mse_once, _null_design, _recover, emit, read_fields,
                          run_experiment, trial_seed)
from .geometry import MoveRegion

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


# The fields every linear-array reader needs; each reader names the experiment
# whose rules its fields follow (experiments.read_fields).
_LINE = ("n", "aperture", "d_min")


def _build_scenario(doc: dict, seed_override=None):
    try:
        if "generate" in doc:
            kw = read_fields(doc["generate"])
            seed = kw.pop("seed", 0)
            return gen_scenario(seed if seed_override is None else seed_override, **kw)
        return scenario_from_dict(doc)
    except InfeasibleError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad scenario: {e}") from None


def _at_wavelength(sc, lam: float):
    """sc, refused unless it uses the task's wavelength."""
    if sc.wavelength != lam:
        raise ConfigError(f"scenario wavelength {sc.wavelength} != task wavelength {lam}")
    return sc


def _grid_from(doc: dict) -> np.ndarray:
    try:
        if "segment" in doc:
            g = doc["segment"]
            return MoveRegion.segment(g["length"]).grid_points(g["step"])
        if "square" in doc:
            g = doc["square"]
            return MoveRegion.box((g["side"], g["side"], 0.0)).grid_points(g["step"])
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}") from None
    raise ConfigError("grid must specify 'segment' or 'square'")


# A subcommand's reader reads and checks its config against the command line's
# --seed and --workers, then returns run(out), which runs the subcommand, writes
# out if given, and returns the line to print; so validate-config can read a
# config without running it.
def _simulate_map(doc: dict, args):
    sc = _build_scenario(doc.get("scenario", {}), args.seed)
    tx_grid, rx_grid = _grid_from(doc["tx_grid"]), _grid_from(doc["rx_grid"])

    def run(out):
        h = channel_mimo(tx_grid, rx_grid, sc)
        if out:
            est.export_mapping_csv(out, tx_grid[:, :2], rx_grid[:, :2], h)
        return (f"simulated {h.shape[0]}x{h.shape[1]} channel map; "
                f"mean power {np.mean(np.abs(h) ** 2):.6g}")
    return run


# An optimize task reads its fields, then returns the function that runs it and
# returns its report.
def _task_sensing_1d(doc: dict, seed):
    lam, n, a, dmin = _line_array(read_fields(doc, "sensing-1d-mse", _LINE, wavelength=1.0))

    def run():
        x = opt.sensing_1d_optimal(n, a, dmin)
        return {"placement": x.tolist(), "variance": float(np.var(x))}
    return run


def _task_sensing_2d(doc: dict, seed):
    f = read_fields(doc, "sensing-2d-crb", ("n", "side", "d_min"), wavelength=1.0, metric="max")
    n, side, dmin = f["n"], f["side"] * f["wavelength"], f["d_min"] * f["wavelength"]

    def run():
        rep = opt.sensing_2d_ao(n, (side, side), dmin, metric=f["metric"])
        return {"placement": rep.best_placement.tolist(), "metric": rep.best_score,
                "lower_bound": rep.extra["lower_bound"]}
    return run


def _task_null(doc: dict, seed):
    f = read_fields(doc, "beam-null", ("theta0_deg", "null_deg", *_LINE), wavelength=1.0)
    lam, n, a, dmin = _line_array(f)
    angles = np.deg2rad([f["theta0_deg"], *f["null_deg"]])

    def run():
        try:
            x, w = _null_design(angles, n, a, dmin, lam)
        except InfeasibleError as e:
            return {"constructible": False, "reason": str(e)}
        gains = bf.beam_gain(x, w, angles, lam).tolist()
        return {"constructible": True, "placement": x.tolist(), "gain": gains[0],
                "null_gains": gains[1:]}
    return run


def _task_multibeam(doc: dict, seed):
    f = read_fields(doc, "beam-multibeam", ("theta_deg", *_LINE), wavelength=1.0, analog=False)
    lam, n, a, dmin = _line_array(f)
    thetas = np.deg2rad(f["theta_deg"])

    def run():
        rep = opt.multibeam_ao(thetas, n, a, dmin, lam, analog=f["analog"], seed=seed or 0)
        return {"placement": rep.best_placement.tolist(), "max_min_gain": rep.best_score}
    return run


def _task_widebeam(doc: dict, seed):
    f = read_fields(doc, "beam-widebeam", ("theta_min_deg", "theta_max_deg", *_LINE),
                    wavelength=1.0, subregions=24)
    lam, n, a, dmin = _line_array(f)
    angles = np.deg2rad([f["theta_min_deg"], f["theta_max_deg"]])

    def run():
        rep = opt.widebeam_ao(*angles, f["subregions"], n, a, dmin, lam, seed=seed or 0)
        return {"placement": rep.best_placement.tolist(),
                "min_gain": rep.extra["verified_min_gain"]}
    return run


def _task_miso_graph(doc: dict, seed):
    f = read_fields(doc, "miso-graph", ("m", *_LINE), wavelength=1.0)
    lam, n, a, dmin = _line_array(f)
    sc = _at_wavelength(_build_scenario(doc["scenario"], seed), lam)

    def run():
        line = opt.SampledLine.from_channel(_miso_line_channel(sc), a, f["m"], dmin)
        rep = opt.graph_opt_miso(line, n)
        return {"placement": rep.best_placement.tolist(), "score": rep.best_score,
                "indices": rep.extra["indices"].tolist()}
    return run


_OPTIMIZE_TASKS = {"sensing-1d": _task_sensing_1d, "sensing-2d": _task_sensing_2d,
                   "null": _task_null, "multibeam": _task_multibeam,
                   "widebeam": _task_widebeam, "miso-graph": _task_miso_graph}


def _optimize_task(doc: dict, args):
    task = doc.get("task")
    if task is None:
        raise ConfigError("optimize config is missing 'task'")
    if task not in _OPTIMIZE_TASKS:
        raise ConfigError(f"unknown optimize task {task!r}")
    report = _OPTIMIZE_TASKS[task](doc, args.seed)

    def run(out):
        rep = report()
        if out:
            with open(out, "w") as fh:
                json.dump(rep, fh, indent=2)
        return json.dumps(rep)[:400]
    return run


def _sense_trials(doc: dict, args):
    f = read_fields(doc, "sensing-1d-mse", ("u", "snr_db", *_LINE), wavelength=1.0,
                    placement="optimal", snapshots=1, trials=100)
    lam, n, a, dmin = _line_array(f)
    kind, u, snr_db = f["placement"], f["u"], f["snr_db"]
    base = str(args.seed if args.seed is not None else doc.get("seed", 0))

    def run(out):
        x = opt.sensing_1d_optimal(n, a, dmin) if kind == "optimal" else np.arange(n) * dmin
        rows = [[float(t), *_music_mse_once(x, u, snr_db, f["snapshots"], trial_seed(base, t), lam)]
                for t in range(f["trials"])]
        table = ResultTable(columns=["trial", "u_hat", "sq_error", "crb"], rows=rows,
                            metadata={"placement": kind, "snr_db": snr_db})
        if out:
            emit(table, out)
        mse = float(np.mean([r[2] for r in rows]))
        return f"MSE {mse:.6g} vs CRB {rows[0][3]:.6g} over {len(rows)} trials"
    return run


def _estimate_trial(doc: dict, args):
    sc = _build_scenario(doc["scenario"], args.seed)
    f = read_fields(doc, "estimate", ("region_side", "snr_db", "measurements"), wavelength=1.0,
                    eval_step=0.2, power=1.0, grid=16, paths_to_recover=len(sc.tx_paths),
                    method="successive")
    lam, power, method = f["wavelength"], f["power"], f["method"]
    _at_wavelength(sc, lam)
    region = MoveRegion.box((f["region_side"] * lam, f["region_side"] * lam, 0.0))
    grid_pts = region.grid_points(f["eval_step"] * lam)
    sigma2 = power / db_to_linear(f["snr_db"])
    m, g, l = f["measurements"], f["grid"], f["paths_to_recover"]
    base = str(args.seed if args.seed is not None else doc.get("seed", 0))

    def run(out):
        if method == "nearest":
            ms = est.collect_measurements(sc, region, region, "rx-sweep", m, power, sigma2,
                                          trial_seed(base, 4))
            h_true = channel_narrowband(np.zeros_like(grid_pts), grid_pts, sc)
            h_hat = est.nearest_measured_reconstruct(ms, grid_pts)
        else:
            fri = _recover(sc, region, method, m, g, l, power, sigma2, base)
            h_true = channel_mimo(grid_pts, grid_pts, sc)
            h_hat = est.reconstruct_mapping(fri, grid_pts, grid_pts, lam)
        nmse = est.nmse(h_true, h_hat)
        if out:
            emit(ResultTable(columns=["nmse"], rows=[[nmse]],
                             metadata={"method": method, "measurements": m, "grid": g}), out)
        return f"{method} NMSE {nmse:.6g}"
    return run


def _experiment(doc: dict, args):
    cfg = ExperimentConfig.from_dict(doc)

    def run(out):
        table = run_experiment(cfg, workers=args.workers, seed_override=args.seed)
        dest = out or cfg.out
        if dest:
            emit(table, dest)
        return (f"{cfg.experiment}: {len(table.rows)} rows, "
                f"config {table.metadata['config_hash'][:12]}" + (f" -> {dest}" if dest else ""))
    return run


_COMMANDS = {"simulate": _simulate_map, "optimize": _optimize_task, "sense": _sense_trials,
             "estimate": _estimate_trial, "experiment": _experiment}

# validate-config reads a config with the reader of the first subcommand whose
# shape its keys have.  A scenario with no grid, region or measurement count
# reads as an estimate config, the one subcommand that needs a scenario.
_SHAPES = (("experiment", lambda keys: "experiment" in keys),
           ("optimize", lambda keys: "task" in keys),
           ("simulate", lambda keys: bool(keys & {"tx_grid", "rx_grid"})),
           ("estimate", lambda keys: bool(keys & {"region_side", "measurements", "scenario"})),
           ("sense", lambda keys: keys >= {"n", "u", "snr_db"}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="makit",
        description="Movable-antenna channel simulation, placement optimization, "
                    "sensing, and channel acquisition.")
    parser.add_argument("command", choices=[*_COMMANDS, "validate-config"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output file (csv or json)")
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel trial workers (default: MAKIT_WORKERS or 1)")
    args = parser.parse_args(argv)

    try:
        doc = _load_json(args.config)
        if args.command != "validate-config":
            print(_COMMANDS[args.command](doc, args)(args.out))
            return EXIT_OK
        keys = set(doc)
        command = next((c for c, fits in _SHAPES if fits(keys)), None)
        if command is None:
            raise ConfigError("config matches no known subcommand shape")
        _COMMANDS[command](doc, args)
        print(f"ok: {command} config")
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (KeyError, TypeError) as e:
        print(f"config error: missing or malformed field {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
