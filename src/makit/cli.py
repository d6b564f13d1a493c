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
                          _music_mse_once, _null_design, _recover, config_hash, emit,
                          read_fields, run_experiment, trial_seed)
from .geometry import MoveRegion

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None


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


def _simulate_map(doc: dict, seed):
    """Read and check a simulate config; return the function that computes its channel map."""
    sc = _build_scenario(doc.get("scenario", {}), seed)
    tx_grid, rx_grid = _grid_from(doc["tx_grid"]), _grid_from(doc["rx_grid"])

    def run():
        return tx_grid, rx_grid, channel_mimo(tx_grid, rx_grid, sc)
    return run


def _cmd_simulate(doc: dict, out: str | None, seed):
    tx_grid, rx_grid, h = _simulate_map(doc, seed)()
    if out:
        est.export_mapping_csv(out, tx_grid[:, :2], rx_grid[:, :2], h)
    print(f"simulated {h.shape[0]}x{h.shape[1]} channel map; "
          f"mean power {np.mean(np.abs(h) ** 2):.6g}")
    return EXIT_OK


# An optimize task reads its fields, then returns the function that runs it,
# so validate-config can read a task without running it.
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
        gains = [bf.beam_gain(x, w, t, lam) for t in angles]
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


def _optimize_task(doc: dict, seed):
    task = doc.get("task")
    if task is None:
        raise ConfigError("optimize config is missing 'task'")
    if task not in _OPTIMIZE_TASKS:
        raise ConfigError(f"unknown optimize task {task!r}")
    return _OPTIMIZE_TASKS[task](doc, seed)


def _cmd_optimize(doc: dict, out: str | None, seed):
    report = _optimize_task(doc, seed)()
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(json.dumps(report)[:400])
    return EXIT_OK


def _sense_trials(doc: dict, seed):
    """Read and check a sense config; return the function that runs its trials."""
    f = read_fields(doc, "sensing-1d-mse", ("u", "snr_db", *_LINE), wavelength=1.0,
                    placement="optimal", snapshots=1, trials=100)
    lam, n, a, dmin = _line_array(f)
    kind, u, snr_db = f["placement"], f["u"], f["snr_db"]
    base = str(seed if seed is not None else doc.get("seed", 0))

    def run():
        x = opt.sensing_1d_optimal(n, a, dmin) if kind == "optimal" else np.arange(n) * dmin
        rows = [[float(t), *_music_mse_once(x, u, snr_db, f["snapshots"], trial_seed(base, t), lam)]
                for t in range(f["trials"])]
        return ResultTable(columns=["trial", "u_hat", "sq_error", "crb"], rows=rows,
                           metadata={"placement": kind, "snr_db": snr_db})
    return run


def _cmd_sense(doc: dict, out: str | None, seed):
    table = _sense_trials(doc, seed)()
    if out:
        emit(table, out)
    mse = float(np.mean([r[2] for r in table.rows]))
    print(f"MSE {mse:.6g} vs CRB {table.rows[0][3]:.6g} over {len(table.rows)} trials")
    return EXIT_OK


def _estimate_trial(doc: dict, seed):
    """Read and check an estimate config; return the function that runs its recovery."""
    sc = _build_scenario(doc["scenario"], seed)
    f = read_fields(doc, "estimate", ("region_side", "snr_db", "measurements"), wavelength=1.0,
                    eval_step=0.2, power=1.0, grid=16, paths_to_recover=len(sc.tx_paths),
                    method="successive")
    lam, power, method = f["wavelength"], f["power"], f["method"]
    _at_wavelength(sc, lam)
    region = MoveRegion.box((f["region_side"] * lam, f["region_side"] * lam, 0.0))
    grid_pts = region.grid_points(f["eval_step"] * lam)
    sigma2 = power / db_to_linear(f["snr_db"])
    m, g, l = f["measurements"], f["grid"], f["paths_to_recover"]
    base = str(seed if seed is not None else doc.get("seed", 0))

    def run():
        if method == "nearest":
            ms = est.collect_measurements(sc, region, region, "rx-sweep", m, power, sigma2,
                                          trial_seed(base, 4))
            h_true = channel_narrowband(np.zeros_like(grid_pts), grid_pts, sc)
            h_hat = est.nearest_measured_reconstruct(ms, grid_pts)
        else:
            fri = _recover(sc, region, method, m, g, l, power, sigma2, base)
            h_true = channel_mimo(grid_pts, grid_pts, sc)
            h_hat = est.reconstruct_mapping(fri, grid_pts, grid_pts, lam)
        return ResultTable(columns=["nmse"], rows=[[est.nmse(h_true, h_hat)]],
                           metadata={"method": method, "measurements": m, "grid": g})
    return run


def _cmd_estimate(doc: dict, out: str | None, seed):
    table = _estimate_trial(doc, seed)()
    if out:
        emit(table, out)
    print(f"{table.metadata['method']} NMSE {table.rows[0][0]:.6g}")
    return EXIT_OK


def _cmd_experiment(doc: dict, out: str | None, seed, workers):
    cfg = ExperimentConfig.from_dict(doc)
    table = run_experiment(cfg, workers=workers, seed_override=seed)
    dest = out or cfg.out
    if dest:
        emit(table, dest)
    print(f"{cfg.experiment}: {len(table.rows)} rows, config {config_hash(cfg)[:12]}"
          + (f" -> {dest}" if dest else ""))
    return EXIT_OK


def _cmd_validate(doc: dict) -> int:
    if "experiment" in doc:
        cfg = ExperimentConfig.from_dict(doc)
        print(f"ok: experiment {cfg.experiment!r}, hash {config_hash(cfg)[:12]}")
    elif "task" in doc:
        _optimize_task(doc, None)
        print(f"ok: optimize task {doc['task']!r}")
    elif "tx_grid" in doc or "rx_grid" in doc:
        _simulate_map(doc, None)
        print("ok: simulate config")
    elif "region_side" in doc or "measurements" in doc:
        _estimate_trial(doc, None)
        print("ok: estimate config")
    elif "scenario" in doc:
        _build_scenario(doc["scenario"])
        print("ok: scenario config")
    elif {"n", "u", "snr_db"} <= set(doc):
        _sense_trials(doc, None)
        print("ok: sensing config")
    else:
        raise ConfigError("config matches no known subcommand shape")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="makit",
        description="Movable-antenna channel simulation, placement optimization, "
                    "sensing, and channel acquisition.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "optimize", "sense", "estimate", "experiment", "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output file (csv or json)")
        p.add_argument("--seed", type=int, default=None, help="override config seeds")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel trial workers (default: MAKIT_WORKERS or 1)")
    args = parser.parse_args(argv)

    try:
        doc = _load_json(args.config)
        if args.command == "experiment":
            return _cmd_experiment(doc, args.out, args.seed, args.workers)
        if args.command == "validate-config":
            return _cmd_validate(doc)
        run = {"simulate": _cmd_simulate, "optimize": _cmd_optimize, "sense": _cmd_sense,
               "estimate": _cmd_estimate}[args.command]
        return run(doc, args.out, args.seed)
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
