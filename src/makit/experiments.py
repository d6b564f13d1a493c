"""Declarative experiment runner: catalog, seeding, Monte Carlo orchestration, emission.

Every experiment is described by a JSON config naming a catalog entry; runs
are deterministic given the config (per-trial seeds derive from the config
hash), and n-way parallel execution returns tables identical to serial runs
because trial payloads are reduced in trial order.  Catalog entries document
their reference setup and any desk-scale parameter reductions; that text is
copied into the emitted metadata.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import beamforming as bf
from . import estimate as est
from . import optimize as opt
from . import sensing as sn
from .channel import (PathSet, RadiationPattern, Scenario, _complex_normal, _draw_separated,
                      _rician_diagonal, _subcarrier_phases, channel_mimo, channel_narrowband,
                      db_to_linear, frm, gen_scenario, prm_6dma, redraw_prm_phases,
                      sample_directions, tap_of_delay)
from .errors import ConfigError, InfeasibleError
from .geometry import MoveRegion, aom_from_euler

WORKERS_ENV = "MAKIT_WORKERS"

_log = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "ResultTable",
    "CATALOG",
    "config_hash",
    "trial_seed",
    "run_experiment",
    "emit",
    "load_table_csv",
    "load_table_json",
]


# ---------------------------------------------------------------------------
# config, hashing, seeding

@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description: catalog id, parameters, trial plan."""

    experiment: str
    params: dict = field(default_factory=dict)
    trials: int = 1
    seeds: tuple[int, ...] | None = None
    sweep: dict | None = None
    out: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        if "experiment" not in doc:
            raise ConfigError("config is missing the 'experiment' field")
        exp = doc["experiment"]
        if exp not in CATALOG:
            raise ConfigError(f"unknown experiment id {exp!r}; known: {sorted(CATALOG)}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("'params' must be an object")
        unknown = set(params) - set(CATALOG[exp].defaults)
        if unknown:
            raise ConfigError(f"unknown params for {exp!r}: {sorted(unknown)}")
        sweep = doc.get("sweep")
        if sweep is not None:
            if not isinstance(sweep, dict) or "variable" not in sweep or "values" not in sweep:
                raise ConfigError("'sweep' needs 'variable' and 'values'")
            if sweep["variable"] not in CATALOG[exp].defaults:
                raise ConfigError(
                    f"sweep variable {sweep['variable']!r} is not a parameter of {exp!r}")
            vals = sweep["values"]
            try:
                finite = all(np.isfinite(float(v)) for v in vals)
            except (TypeError, ValueError):
                raise ConfigError("sweep values must be numeric") from None
            if not vals or not finite:
                raise ConfigError("sweep values must be nonempty and finite")
            if list(vals) != sorted(vals):
                raise ConfigError("sweep values must be sorted ascending")
        merged = {**CATALOG[exp].defaults, **params}
        for v in sweep["values"] if sweep else [None]:  # the params at each sweep value
            read_fields({**merged, sweep["variable"]: v} if sweep else merged, exp)
        trials = check_field("trials", doc.get("trials", 1))
        seeds = doc.get("seeds")
        if seeds is not None:
            if not isinstance(seeds, (list, tuple)) or not seeds:
                raise ConfigError(f"'seeds' must be a nonempty list of integers, got {seeds!r}")
            seeds = tuple(check_field("seeds", s) for s in seeds)
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if not isinstance(doc.get("out"), (str, type(None))):
            raise ConfigError(f"'out' must be a file name (a string) or null, got {doc['out']!r}")
        return cls(experiment=exp, params=params, trials=trials, seeds=seeds,
                   sweep=sweep, out=doc.get("out"))


def _finite_db(x) -> bool:
    """Whether level x (dB) has a power ratio and an inverse that are finite floats."""
    return max(db_to_linear(x), db_to_linear(-x)) < math.inf


# The rules of config fields: catalog params and sweep values (an (experiment,
# name) key overrides the shared rule), the config's trials and seeds, and every
# CLI reader's fields, every keyword that a scenario's generate block accepts
# included.  A rule is a predicate on numbers or a tuple of the JSON
# values allowed; a field whose rule ends in _EACH takes one value or a list of
# them.  check_field applies a rule, read_fields a config's rules.
_EACH = " or a nonempty list of such"
_RANGES = {
    **dict.fromkeys(("wavelength", "region_side", "region_size", "grid_step", "eval_step",
                     "aperture", "side", "power", "sparse_spacing", "beta", "gain", "distance",
                     "path_loss_exp"),
                    ("a finite number > 0", lambda x: 0 < x < math.inf)),
    "crb_scale_list": ("a finite number > 0" + _EACH, lambda x: 0 < x < math.inf),
    **dict.fromkeys(("n", "m", "n_t", "n_r", "k", "n_paths", "dominant_paths", "grid",
                     "measurements", "paths_to_recover", "subregions", "orientation_grid",
                     "snapshots", "stat_draws", "max_sweeps", "trials", "subcarriers"),
                    ("an integer >= 1", lambda x: x >= 1 and x % 1 == 0)),
    **dict.fromkeys(("diffuse_paths", "seeds", "seed"),
                    ("an integer >= 0", lambda x: x >= 0 and x % 1 == 0)),
    **dict.fromkeys(("theta0_deg", "theta_min_deg", "theta_max_deg"),
                    ("a finite angle in degrees", lambda x: -math.inf < x < math.inf)),
    **dict.fromkeys(("theta_deg", "null_deg"),
                    ("a finite angle in degrees" + _EACH, lambda x: -math.inf < x < math.inf)),
    **dict.fromkeys(("d_min", "bandwidth", "max_delay", "min_sep_bins", "min_sep_cells",
                     "min_component_sep"),
                    ("a finite number >= 0", lambda x: 0 <= x < math.inf)),
    **dict.fromkeys(("analog", "joint", "on_grid"), ("true or false", (True, False))),
    "kappa": ("a number >= 0 (+inf is line of sight only)", lambda x: x >= 0),
    "gain_dbi": ("a number > 10*log10(2) (a cone narrower than a half-space), finite as a ratio",
                 lambda x: 10 * math.log10(2) < x and db_to_linear(x) < math.inf),
    "diffuse_power": ("a number in [0, 1]", lambda x: 0 <= x <= 1),
    "angle_law": ("'halfspace' or 'sphere'", ("halfspace", "sphere")),
    "metric": ("'max' or 'sum'", ("max", "sum")),
    "placement": ("'optimal' or 'dense'", ("optimal", "dense")),
    "method": ("'successive', 'joint' or 'nearest'", ("successive", "joint", "nearest")),
    "snr_db": ("+inf (noiseless) or a number whose power ratio and its inverse are finite",
               lambda x: x == math.inf or _finite_db(x)),
    "u": ("a finite number in [-1, 1]", lambda x: -1 <= x <= 1),
    # a null or a MUSIC spectrum needs two antennas, a planar CRB three off one line
    **dict.fromkeys((("beam-null", "n"), ("sensing-1d-mse", "n")),
                    ("an integer >= 2", lambda x: x >= 2 and x % 1 == 0)),
    **dict.fromkeys((("sensing-2d-crb", "n"), ("isac-tradeoff", "n_r")),
                    ("an integer >= 3", lambda x: x >= 3 and x % 1 == 0)),
    # a noiseless capacity, rate or CRB is infinite or zero, which no row can hold
    **dict.fromkeys(((e, "snr_db") for e in ("mimo-capacity", "multiuser-rate", "sensing-2d-crb",
                                             "isac-tradeoff")),
                    ("a number whose power ratio and its inverse are finite", _finite_db)),
    # the dense baseline of a 1-D sensing array is spaced d_min apart
    ("sensing-1d-mse", "d_min"): ("a finite number > 0", lambda x: 0 < x < math.inf),
    # the joint recovery takes grid**4 atoms
    ("estimation-nmse", "grid"): (
        f"an integer >= 1 with grid**4 <= {est.JOINT_ATOM_CAP}, the joint atom cap",
        lambda x: 1 <= x <= est.JOINT_ATOM_CAP and x % 1 == 0 and x ** 4 <= est.JOINT_ATOM_CAP),
    # the dense and sparse planar baselines (_upa_positions) are square arrays
    **dict.fromkeys((("mimo-capacity", "n_t"), ("mimo-capacity", "n_r"),
                     ("multiuser-rate", "n_r"), ("isac-tradeoff", "n_t")),
                    ("a perfect square integer >= 1",
                     lambda x: x >= 1 and x % 1 == 0 and math.isqrt(int(x)) ** 2 == x))}
# Rules across fields, checked on the checked values (at every sweep value):
# the successive recovery takes paths per side, the joint one paths² atoms; an
# angular region runs from its lower end up; zero forcing needs an antenna per
# user; a wideband path's delay tap stays within the subcarriers, where the DFT
# would alias it onto another; a channel of diffuse power only needs a diffuse path,
# or it is zero.  "estimate" is the CLI subcommand's recovery setup.
_JOINT_RANGES = {
    "estimation-nmse": (
        ("measurements", "n_paths"), "measurements // 2 >= n_paths and measurements >= n_paths**2",
        lambda m, l: m // 2 >= l and m >= l ** 2),
    "estimate": (
        ("method", "measurements", "paths_to_recover", "grid"),
        "measurements // 2 >= paths_to_recover with method 'successive', and measurements >= "
        f"paths_to_recover**2 and grid**4 <= {est.JOINT_ATOM_CAP} (the atom cap) with 'joint'",
        lambda method, m, l, g: (method != "successive" or m // 2 >= l)
        and (method != "joint" or m >= l ** 2 and g ** 4 <= est.JOINT_ATOM_CAP)),
    "beam-widebeam": (("theta_min_deg", "theta_max_deg"), "theta_min_deg <= theta_max_deg",
                      lambda lo, hi: lo <= hi),
    "multiuser-rate": (("k", "n_r"), "k <= n_r", lambda k, n_r: k <= n_r),
    "estimation-region": (("diffuse_power", "diffuse_paths"),
                          "diffuse_power < 1 or diffuse_paths >= 1", lambda p, l: p < 1 or l >= 1),
    **dict.fromkeys(("siso-gain-bounds", "siso-ma-vs-fpa"), (
        ("bandwidth", "max_delay", "subcarriers"), "bandwidth * max_delay <= subcarriers",
        lambda b, tau, m: b * tau <= m))}


def check_field(name: str, value, exp: str | None = None):
    """value under its rule in _RANGES, as ints under an integer rule, as a list under a listed one.

    A numeric rule states its own bounds, finiteness included; NaN fails every
    one, and so does a bool.  A tuple rule takes only its own values, each of
    its own JSON type (so 1 is not true)."""
    rule, ok = _RANGES.get((exp, name)) or _RANGES[name]
    listed = rule.endswith(_EACH)
    items = value if listed and isinstance(value, list) else [value]
    if not items or not all(any(type(t) is type(c) and t == c for c in ok)
                            if isinstance(ok, tuple) else
                            isinstance(t, numbers.Real) and not isinstance(t, bool) and ok(t)
                            for t in items):
        raise ConfigError(f"{name!r} must be {rule}, got {value!r}")
    items = [int(t) for t in items] if "integer" in rule else items
    return items if listed else items[0]


def read_fields(doc: dict, exp: str | None = None, need=(), **defaults) -> dict:
    """doc over defaults with every ruled field under exp's rule (check_field's value), then
    exp's rule across fields; a KeyError names the first field of need missing from doc."""
    for name in need:
        doc[name]
    out = {k: check_field(k, v, exp) if k in _RANGES else v for k, v in {**defaults, **doc}.items()}
    if exp in _JOINT_RANGES:
        names, rule, ok = _JOINT_RANGES[exp]
        vals = {k: out[k] for k in names}
        if not ok(*vals.values()):
            raise ConfigError(f"{exp!r} needs {rule}, got {vals}")
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    """Whitespace-insensitive hash over the semantically meaningful config fields."""
    canon = {
        "experiment": cfg.experiment,
        "params": {**CATALOG[cfg.experiment].defaults, **cfg.params},
        "trials": cfg.trials,
        "seeds": list(cfg.seeds) if cfg.seeds is not None else None,
        "sweep": cfg.sweep,
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trial_seed(base: str, index: int) -> int:
    """Deterministic seed derived from a base string (config hash) and an index."""
    digest = hashlib.sha256(f"{base}:{index}".encode()).hexdigest()
    return int(digest[:16], 16)


@dataclass
class ResultTable:
    """Rectangular numeric results plus reproducibility metadata."""

    columns: list[str]
    rows: list[list[float]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.columns):
                raise ValueError("rows must match the column count")

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows], dtype=float)


_NONFINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _map_json(v, leaf):
    """v with leaf applied to every value that is not a dict or a list."""
    if isinstance(v, dict):
        return {k: _map_json(x, leaf) for k, x in v.items()}
    return [_map_json(x, leaf) for x in v] if isinstance(v, (list, tuple)) else leaf(v)


def emit(table: ResultTable, path) -> None:
    """Write a table as JSON (with metadata) to a .json path, else as CSV (header, numeric rows).
    JSON is strict: a table with ±inf or NaN is written again with them as the strings
    "Infinity", "-Infinity" and "NaN", which load_table_json reads back."""
    path = str(path)
    if path.endswith(".json"):
        doc = {"columns": table.columns, "rows": table.rows, "metadata": table.metadata}
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError:
            text = json.dumps(_map_json(doc, lambda v: json.dumps(v) if isinstance(v, float)
                                        and not math.isfinite(v) else v), indent=2)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(table.columns) + "\n")
            for row in table.rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_table_csv(path) -> ResultTable:
    with open(path) as fh:
        header = fh.readline().strip()
        columns = header.split(",") if header else []
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    return ResultTable(columns=columns, rows=rows)


def load_table_json(path) -> ResultTable:
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    if any(f'"{name}"' in text for name in _NONFINITE):
        doc = _map_json(doc, lambda v: _NONFINITE.get(v, v) if isinstance(v, str) else v)
    return ResultTable(columns=doc["columns"], rows=doc["rows"],
                       metadata=doc.get("metadata", {}))


# ---------------------------------------------------------------------------
# shared numeric helpers

# Powers per block of (x, y) grid points: 512 KB, kept in cache.
_FIELD_BLOCK = 1 << 16


def _field_tables(k_vectors, side, step, wavelength):
    """Path pairs a < b, Z_a conj(Z_b) (P, n) and T = [1; Re E; Im E] (1 + 2P, n^2) of a cubic
    grid, E[p, n i + j] = X_a conj(X_b)[i] Y_a conj(Y_b)[j], from per-axis phases
    X[l, i] = exp(-j 2pi/lam k_l,x x_i) (so Y and Z); E is written into T per axis pair."""
    ax = np.arange(0.0, side + step / 2.0, step)
    x, y, z = np.exp(np.multiply.outer(-2j * np.pi / wavelength * np.asarray(k_vectors).T, ax))
    a, b = np.triu_indices(len(z), 1)
    px, py = x[a] * x[b].conj(), y[a] * y[b].conj()
    t = np.empty((1 + 2 * len(a), len(ax) ** 2))
    t[0] = 1.0
    # [Re E; Im E] = [[Re px, -Im px], [Re px, Im px]] [[Re py, Im py], [Im py, Re py]]
    np.matmul(np.moveaxis(np.array([[px.real, -px.imag], [px.real, px.imag]]), 1, -1),
              np.moveaxis(np.array([[py.real, py.imag], [py.imag, py.real]]), 1, 2),
              out=t[1:].reshape(2, len(a), len(ax), len(ax)))
    return a, b, z[a] * z[b].conj(), t


def _gain_field_minmax(tables, coeffs):
    """Max, min and origin value of sum_c |sum_l c_lc exp(-j 2pi/lam k_l . r)|^2 on a grid.

    tables is the grid's _field_tables; coeffs is (L,), or (L, C) to sum over columns.  With
    G = C C^H and e_l the unit-modulus (x, y) phase, the power at height k is tr G + 2 Re
    sum_{a<b} G_ab Z_a(k) conj(Z_b(k)) e_a conj(e_b): real weights W (n, 1 + 2P) times T give a
    block of (x, y) points in one product, whatever C is.  Rounding can put destructive
    interference just below 0, so values are clamped at 0."""
    a, b, zz, t = tables
    c = np.asarray(coeffs, dtype=complex).reshape(len(coeffs), -1)
    g = c @ c.conj().T
    u = 2.0 * g[a, b][:, None] * zz
    w = np.concatenate([np.full((1, zz.shape[1]), np.trace(g).real), u.real, -u.imag]).T
    rows, points = len(w), t.shape[1]
    blocks = max(1, round(points * rows / _FIELD_BLOCK))  # of about _FIELD_BLOCK values each
    width = max(2, -(-points // blocks))
    buf = np.empty(rows * width)
    hi, lo = -np.inf, np.inf
    for i in reversed(range(0, points, width)):  # the origin's block last
        i = min(i, max(points - 2, 0))  # numpy takes one column to gemv, which rounds unlike gemm
        m = min(width, points - i)
        p = np.matmul(w, t[:, i:i + m], out=buf[:rows * m].reshape(rows, m))
        hi, lo = np.maximum(hi, p.max()), np.minimum(lo, p.min())
    return max(float(hi), 0.0), max(float(lo), 0.0), max(float(p[0, 0]), 0.0)


def _joint_max(tables, coeffs):
    """Largest grid power over all columns of coeffs (L, O), skipping columns that cannot win.

    Column o never exceeds (sum_l |c_lo|)^2 anywhere on the grid.  Columns are
    scored one at a time in descending order of that bound until the next
    bound, widened by 1e-9 for rounding in the computed power, falls below the
    best power found.
    """
    bound = np.sum(np.abs(coeffs), axis=0) ** 2
    best = 0.0
    for o in np.argsort(-bound, kind="stable"):
        if bound[o] * (1.0 + 1e-9) < best:
            break
        best = max(best, _gain_field_minmax(tables, coeffs[:, o])[0])
    return best


def _miso_line_channel(scenario: Scenario):
    """Channel h(xs) of a transmit antenna at each (x, 0, 0) of an (M,) stack xs, the receive
    antenna at its reference point: h = b^H g(x) with b = PRM @ 1 (all-ones FRV at the origin).
    """
    b = scenario.prm @ np.ones(len(scenario.tx_paths), dtype=complex)
    return lambda xs: np.conj(b) @ frm(xs, scenario.tx_paths, scenario.wavelength)


def _upa_positions(side: float, spacing: float, n: int) -> np.ndarray:
    """Square planar array with the given spacing anchored at the region origin."""
    rows = int(round(np.sqrt(n)))
    if rows * rows != n:
        raise ValueError("planar baselines need a square antenna count")
    g = np.arange(rows) * spacing
    return np.column_stack([np.tile(g, rows), np.repeat(g, rows), np.zeros(n)])


# ---------------------------------------------------------------------------
# trial functions (module level so process pools can pickle them)

def _trial_siso_bounds(params, seed, idx):
    lam = params["wavelength"]
    side = params["region_side"] * lam
    sep = params["min_sep_bins"] * lam / (2.0 * side)
    rng = np.random.default_rng(seed)
    n_paths = int(params["n_paths"])
    k = sample_directions(rng, n_paths, params["angle_law"], min_component_sep=sep)
    b = _complex_normal(rng, 1.0 / n_paths, n_paths)
    if params["bandwidth"] > 0:
        gmax, gmin, gfpa = _wideband_gain_minmax(rng, params, k, b, side, lam)
    else:
        gmax, gmin, gfpa = _gain_field_minmax(
            _field_tables(k, side, params["grid_step"] * lam, lam), b)
    upper, lower = opt.siso_gain_bounds(b)
    return [float(idx), gmax, gmin, upper, lower, gfpa]


def _wideband_gain_minmax(rng, params, k, b, side, lam):
    """Subcarrier-averaged channel power extrema over the cubic position grid.

    Paths get uniform random delays and are grouped into taps; through the
    zero-padded DFT, path l enters subcarrier m with coefficient
    b_l exp(-j 2pi m (tap_l - 1) / M), and the grid kernel sums the M columns
    through their (L, L) Gram matrix.  The narrowband bounds still apply per
    tap but not to the average, so only the field extrema are reported.
    """
    m_sub = int(params["subcarriers"])
    delays = rng.uniform(0.0, params["max_delay"], len(b))
    coeffs = b[:, None] * _subcarrier_phases(tap_of_delay(delays, params["bandwidth"]), m_sub)
    tables = _field_tables(k, side, params["grid_step"] * lam, lam)
    hi, lo, origin = _gain_field_minmax(tables, coeffs)
    return hi / m_sub, lo / m_sub, origin / m_sub  # x -> fl(x / M) is monotone


def _trial_dof(params, seed, idx):
    lam = params["wavelength"]
    rng = np.random.default_rng(seed)
    n_paths = int(params["n_paths"])
    k = sample_directions(rng, n_paths, "sphere")
    amp = _complex_normal(rng, 1.0 / n_paths, n_paths)
    # per-path polarization response: amplitude times a random 2x2 rotation
    ang = rng.uniform(0.0, 2.0 * np.pi, n_paths)
    c, s = np.cos(ang), np.sin(ang)
    pprms = np.zeros((n_paths, n_paths, 2, 2), dtype=complex)
    pprms[np.diag_indices(n_paths)] = amp[:, None, None] * np.moveaxis([[c, -s], [s, c]], -1, 0)
    tx_paths = PathSet(sample_directions(rng, n_paths, "sphere"))
    rx_paths = PathSet(k)
    tx_pat = RadiationPattern.isotropic()
    patterns = {"iso": RadiationPattern.isotropic(),
                "dir": RadiationPattern.ideal_directional(params["gain_dbi"])}

    ng = int(params["orientation_grid"])
    yaws = np.linspace(0.0, 2 * np.pi, ng, endpoint=False)
    pitches = np.linspace(-np.pi / 2, np.pi / 2, max(2, ng // 2))
    rolls = np.linspace(0.0, 2 * np.pi, ng, endpoint=False)
    # the fixed antenna (identity) first, then the orientation grid (yaw-major, roll-minor)
    orientations = np.concatenate([np.eye(3)[None], aom_from_euler(
        yaws[:, None, None], pitches[:, None], rolls).reshape(-1, 3, 3)])
    tables = _field_tables(k, params["region_side"] * lam, params["grid_step"] * lam, lam)

    flat = [float(idx)]
    for name, pat in patterns.items():
        sig = prm_6dma(pprms, np.eye(3), orientations, tx_pat, pat, tx_paths, rx_paths)
        bv = np.diagonal(sig, axis1=1, axis2=2).T  # (L, 1 + orientations)
        g_pos, _, g_fpa = _gain_field_minmax(tables, bv[:, 0])
        bv = bv[:, 1:]
        g_orient = float(np.max(np.abs(np.sum(bv, axis=0)) ** 2))
        g_joint = _joint_max(tables, bv) if params["joint"] else max(g_pos, g_orient)
        flat.extend([g_fpa, g_pos, g_orient, g_joint])
    return flat


def _null_design(angles, n, a, dmin, lam):
    """SVO array nulling angles[1:], MRT-weighted toward angles[0]; InfeasibleError if none."""
    x = opt.svo_null_apv(angles[0], angles[1:], n, a, dmin, lam)
    return x, bf.mrt(bf.steering_vector(x, angles[0], lam))


def _line_array(params):
    """(wavelength, n, aperture, d_min) of a linear-array trial, lengths in wavelength units."""
    lam = params["wavelength"]
    return lam, int(params["n"]), params["aperture"] * lam, params["d_min"] * lam


def _planar_array(params):
    """(wavelength, side, d_min, power, sigma2 = 1, square region) of a planar-array trial,
    lengths in wavelength units and power from snr_db."""
    lam = params["wavelength"]
    side, dmin = params["region_side"] * lam, params["d_min"] * lam
    return (lam, side, dmin, db_to_linear(params["snr_db"]), 1.0,
            MoveRegion.box((side, side, 0.0), d_min=dmin))


def _trial_beam_null(params, seed, idx):
    lam, n, a, dmin = _line_array(params)
    th0 = np.deg2rad(params["theta0_deg"])
    angles = np.concatenate([[th0], np.atleast_1d(np.deg2rad(params["null_deg"]))])
    x_fpa = opt.fpa_ula(n, lam)
    a_fpa = bf.steering_vector(x_fpa, angles, lam)
    anull = a_fpa[1:].T
    proj = np.eye(n) - anull @ np.linalg.pinv(anull)
    w_fpa = bf.mrt(proj @ a_fpa[0])
    g_fpa = bf.beam_gain(x_fpa, w_fpa, angles, lam)  # main beam, then the nulls
    try:
        x, w = _null_design(angles, n, a, dmin, lam)
    except InfeasibleError as e:  # the movable array takes the fixed array, if it fits
        if x_fpa[-1] > a or dmin > lam / 2:
            raise InfeasibleError(f"{e}, and the fixed array breaks the region or d_min") from None
        x, w = x_fpa, w_fpa
    g = bf.beam_gain(x, w, angles, lam)
    return [g[0], np.max(g[1:]), g_fpa[0], np.max(g_fpa[1:])]


def _trial_beam_multi(params, seed, idx):
    lam, n, a, dmin = _line_array(params)
    thetas = np.deg2rad(params["theta_deg"])
    rep = opt.multibeam_ao(thetas, n, a, dmin, lam, analog=params["analog"], seed=seed)
    return [rep.best_score, rep.extra["fpa_min_gain"]]


def _trial_beam_wide(params, seed, idx):
    lam, n, a, dmin = _line_array(params)
    lo, hi = np.deg2rad(params["theta_min_deg"]), np.deg2rad(params["theta_max_deg"])
    nsub = int(params["subregions"])
    rep = opt.widebeam_ao(lo, hi, nsub, n, a, dmin, lam, seed=seed)
    return [rep.extra["verified_min_gain"], rep.extra["fpa_verified_min_gain"]]


def _trial_miso_graph(params, seed, idx):
    lam, n, a, dmin = _line_array(params)
    m = int(params["m"])
    sc = gen_scenario(seed, n_paths=int(params["n_paths"]), wavelength=lam,
                      kappa=params["kappa"])
    h = _miso_line_channel(sc)
    rep = opt.graph_opt_miso(opt.SampledLine.from_channel(h, a, m, dmin), n)
    score_fpa = float(np.sum(np.abs(h(opt.fpa_ula(n, lam))) ** 2))
    vals = np.sort(np.abs(h(np.arange(0.0, a + 1e-9, lam / 2.0))) ** 2)
    score_as = float(vals[-n:].sum())
    return [float(idx), float(m), rep.best_score, score_fpa, score_as]


def _trial_mimo_capacity(params, seed, idx):
    lam, side, _, power, sigma2, region = _planar_array(params)
    nt, nr = int(params["n_t"]), int(params["n_r"])
    sc = gen_scenario(seed, n_paths=int(params["n_paths"]), wavelength=lam,
                      kappa=params["kappa"])
    dense_t = _upa_positions(side, lam / 2.0, nt)
    dense_r = _upa_positions(side, lam / 2.0, nr)
    sparse_t = _upa_positions(side, params["sparse_spacing"] * lam, nt)
    sparse_r = _upa_positions(side, params["sparse_spacing"] * lam, nr)
    cap_dense = bf.mimo_capacity(channel_mimo(dense_t, dense_r, sc), power, sigma2)
    cap_sparse = bf.mimo_capacity(channel_mimo(sparse_t, sparse_r, sc), power, sigma2)
    t0, r0 = (dense_t, dense_r) if cap_dense >= cap_sparse else (sparse_t, sparse_r)
    rep = opt.mimo_position_ao(sc, region, region, t0, r0, power, sigma2,
                               max_sweeps=int(params["max_sweeps"]))
    return [float(idx), params["snr_db"], rep.best_score, cap_dense, cap_sparse]


def _trial_multiuser(params, seed, idx):
    lam, side, _, power, sigma2, region = _planar_array(params)
    nr = int(params["n_r"])
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=int(params["n_paths"]), wavelength=lam,
                          kappa=params["kappa"]) for _ in range(int(params["k"]))]
    dense = _upa_positions(side, lam / 2.0, nr)
    sparse = _upa_positions(side, params["sparse_spacing"] * lam, nr)

    def rate_at(pos, draw_users):  # ZF sum rate, power split equally across the users
        _, _, rates = opt.mimo._allocate_and_rate(bf.multiuser_channels(pos, draw_users), "zf",
                                                  "sum", "max", power / len(draw_users), sigma2)
        return float(np.sum(rates))

    r_dense = rate_at(dense, users)
    r_sparse = rate_at(sparse, users)
    init = dense if r_dense >= r_sparse else sparse
    rep = opt.multiuser_position_opt(users, region, init, power, sigma2, combiner="zf",
                                     utility="sum", budget="sum",
                                     max_sweeps=int(params["max_sweeps"]))
    ensembles = [[redraw_prm_phases(u, trial_seed(str(seed), 1000 + d * 131 + ui))
                  for ui, u in enumerate(users)]
                 for d in range(int(params["stat_draws"]))]
    rep_stat = opt.multiuser_position_opt(users, region, init, power, sigma2, combiner="zf",
                                          utility="sum", budget="sum", ensembles=ensembles,
                                          max_sweeps=int(params["max_sweeps"]))
    stat_rate = float(np.mean([rate_at(rep_stat.best_placement, d) for d in ensembles]))
    return [float(idx), params["kappa"], rep.best_score, stat_rate, r_dense, r_sparse]


def _music_mse_once(placement, u_true, snr_db, snapshots, seed, lam):
    power = 1.0
    sigma2 = power / db_to_linear(snr_db)
    setup = sn.SensingSetup(placement=placement, snapshots=snapshots, power=power,
                            noise_power=sigma2, beta=1.0 + 0.0j, u=u_true, wavelength=lam)
    y = sn.simulate_snapshots(setup, seed)
    u_hat = sn.music_1d(y, placement, wavelength=lam).u
    return u_hat, (u_hat - u_true) ** 2, sn.crb_1d(setup)


def _trial_sensing_1d(params, seed, idx):
    lam, n, a, dmin = _line_array(params)
    placements = [
        opt.sensing_1d_optimal(n, a, dmin),
        np.arange(n) * dmin,               # dense uniform array
        np.arange(n) * (a / (n - 1)),      # sparse uniform array spanning the aperture
    ]
    out = [float(idx)]
    for pid, x in enumerate(placements):
        _, se, crb = _music_mse_once(x, params["u"], params["snr_db"],
                                     int(params["snapshots"]), trial_seed(str(seed), pid), lam)
        out.extend([se, crb])
    return out


def _fin_sensing_1d(params, payloads):
    arr = np.asarray(payloads, dtype=float)  # per placement pid: MSE, then CRB
    return [[params["snr_db"], float(pid), float(np.mean(arr[:, 1 + 2 * pid])),
             float(np.mean(arr[:, 2 + 2 * pid])), float(len(payloads))] for pid in range(3)]


def _trial_sensing_2d(params, seed, idx):
    lam, n, power = params["wavelength"], int(params["n"]), 1.0
    side, dmin = params["side"] * lam, params["d_min"] * lam
    sigma2 = power / db_to_linear(params["snr_db"])
    coef = sn._crb_prefactor(sigma2, lam, params["snapshots"], power, n, params["beta"])
    rep = opt.sensing_2d_ao(n, (side, side), dmin, metric="max", coef=coef, seed=seed)
    return [rep.best_score, rep.extra["lower_bound"], rep.extra["gap_db"]]


def _trial_isac(params, seed, idx):
    lam, side, dmin, power, sigma2, region = _planar_array(params)
    nt, nr = int(params["n_t"]), int(params["n_r"])
    sc = gen_scenario(seed, n_paths=int(params["n_paths"]), wavelength=lam,
                      kappa=params["kappa"])
    tx = _upa_positions(side, lam / 2.0, nt)
    coef = sn._crb_prefactor(sigma2, lam, params["snapshots"], power, nr, params["beta"])
    crb_opt = opt.sensing_2d_ao(nr, (side, side), dmin, metric="max", coef=coef)
    rows = []
    rx = np.column_stack([crb_opt.best_placement, np.zeros(nr)])
    for scale in sorted(np.atleast_1d(params["crb_scale_list"]).tolist()):
        eps = crb_opt.best_score * scale
        rep = opt.isac_constrained_opt(sc, tx, region, rx, power, sigma2, mode="com",
                                       threshold=eps, crb_coef=coef,
                                       max_sweeps=int(params["max_sweeps"]))
        rx = rep.best_placement  # warm start the next (looser) threshold
        rows.append([float(scale), rep.extra["capacity"], rep.extra["crb"], eps])
    return rows


def _fin_isac(params, payloads):
    return [r for trial_rows in payloads for r in trial_rows]


def _grid_scenario(rng, params, lam):
    """Estimation scenario whose spatial frequencies sit on (or off) the atom grid.

    Paths are kept at least min_sep_cells grid cells apart in some component
    so they stay resolvable over the measurement region.
    """
    g = int(params["grid"])
    l = int(params["n_paths"])
    sep = params["min_sep_cells"] * 2.0 / g
    grid = est.uv_grid(g)
    inside = np.array([(u, v) for u in grid for v in grid if u * u + v * v <= 1.0])

    def draw_side():
        if params["on_grid"]:
            uv = _draw_separated(lambda: inside[rng.choice(len(inside), size=l, replace=False)],
                                 sep - 1e-12, 5000, "could not draw separated spatial frequencies")
            return PathSet.from_spatial_frequencies(uv)
        return PathSet(sample_directions(rng, l, "halfspace", min_component_sep=sep))

    return Scenario(wavelength=lam, tx_paths=draw_side(), rx_paths=draw_side(),
                    prm=_rician_diagonal(rng, l, params["kappa"], 1.0))


def _recover(sc, region, method, m, g, l, power, sigma2, base):
    """FRI of sc from 'successive' (m // 2 sweeps a side) or 'joint' (m paired) measurements."""
    def sweep(kind, count, i):
        return est.collect_measurements(sc, region, region, kind, count, power, sigma2,
                                        trial_seed(base, i))
    if method == "successive":
        return est.omp_successive(sweep("tx-sweep", m // 2, 1), sweep("rx-sweep", m // 2, 2),
                                  g, l, l, sc.wavelength)
    return est.omp_joint(sweep("paired", m, 3), g, l * l, sc.wavelength)


def _trial_estimation_nmse(params, seed, idx):
    lam = params["wavelength"]
    side = params["region_side"] * lam
    power = 1.0
    sigma2 = power / db_to_linear(params["snr_db"])
    rng = np.random.default_rng(seed)
    sc = _grid_scenario(rng, params, lam)
    region = MoveRegion.box((side, side, 0.0))
    eval_grid = region.grid_points(params["eval_step"] * lam)
    m, g, l = int(params["measurements"]), int(params["grid"]), int(params["n_paths"])
    row = [float(idx), params["snr_db"]]
    for method in ("successive", "joint"):
        fri = _recover(sc, region, method, m, g, l, power, sigma2, str(seed))
        row.append(est.path_nmse(sc, fri, eval_grid, eval_grid))
    return row


def _trial_estimation_region(params, seed, idx):
    """Model-based versus copy-nearest reconstruction on one line-segment draw.

    The channel carries a diffuse residual beyond the paths the model-based
    estimator recovers, the regime where copying nearby measurements is
    competitive at small region sizes.
    """
    lam = params["wavelength"]
    size = params["region_size"] * lam
    l_dom = int(params["dominant_paths"])
    l_dif = int(params["diffuse_paths"])
    g = int(params["grid"])
    power = 1.0
    sigma2 = power / db_to_linear(params["snr_db"])
    rng = np.random.default_rng(seed)
    n_paths = l_dom + l_dif
    k = sample_directions(rng, n_paths, "halfspace")
    dp = params["diffuse_power"]
    b = _complex_normal(rng, np.repeat([(1.0 - dp) / l_dom, dp / max(l_dif, 1)], [l_dom, l_dif]),
                        n_paths)
    sc = Scenario(wavelength=lam, tx_paths=PathSet(np.array([[1.0, 0.0, 0.0]])),
                  rx_paths=PathSet(k), prm=b.reshape(n_paths, 1))
    line = MoveRegion.segment(size)
    ms = est.collect_measurements(sc, line, line, "rx-sweep", int(params["measurements"]),
                                  power, sigma2, trial_seed(str(seed), 1))
    queries = line.grid_points(params["eval_step"] * lam)
    h_true = channel_narrowband(np.zeros_like(queries), queries, sc)

    # model-based: sparse recovery of receive-side frequencies and coefficients
    uv = np.column_stack([est.uv_grid(g), np.zeros(g)])
    sel, coef, _, _ = est.omp(est._atoms(uv, ms.rx_positions, lam, -1).T, ms.pilots, l_dom, sigma2)
    h_model = est._atoms(uv[sel], queries, lam, -1).T @ (coef / np.sqrt(power))

    h_free = est.nearest_measured_reconstruct(ms, queries)
    return [float(idx), params["region_size"],
            est.nmse(h_true, h_model), est.nmse(h_true, h_free)]


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    """Catalog entry; table rows are the trial payloads unless finalize(params, payloads) is set."""

    trial: callable
    columns: tuple[str, ...]
    defaults: dict
    doc: str
    notes: str
    finalize: callable | None = None


CATALOG: dict[str, CatalogEntry] = {}


def _register(name, trial, columns, defaults, doc, notes="", finalize=None):
    CATALOG[name] = CatalogEntry(trial=trial, columns=columns, defaults=defaults,
                                 doc=doc, notes=notes, finalize=finalize)


_register(
    "siso-gain-bounds", _trial_siso_bounds,
    ("trial", "max_gain", "min_gain", "upper_bound", "lower_bound", "fpa_gain"),
    {"n_paths": 4, "region_side": 5.0, "grid_step": 0.05, "wavelength": 1.0,
     "angle_law": "halfspace", "min_sep_bins": 2.0, "bandwidth": 0.0,
     "subcarriers": 64, "max_delay": 3e-7},
    "Grid max/min single-antenna channel power against the closed-form gain bounds.",
    "Reference setup: 3D cubic moving region, half-space path angles, unit total path "
    "power.  min_sep_bins keeps paths that many angular-resolution bins (lambda/2A) "
    "apart so the bounds are attainable inside the finite region; set 0 to disable.",
)
_register(
    "siso-ma-vs-fpa", _trial_siso_bounds,
    ("trial", "max_gain", "min_gain", "upper_bound", "lower_bound", "fpa_gain"),
    {"n_paths": 15, "region_side": 2.0, "grid_step": 0.05, "wavelength": 1.0,
     "angle_law": "halfspace", "min_sep_bins": 0.0, "bandwidth": 0.0,
     "subcarriers": 64, "max_delay": 3e-7},
    "Movable-antenna max gain versus the fixed antenna at the region origin.",
    "Reference curves average many more trials over a range of region sizes.",
)
_register(
    "dof-gain", _trial_dof,
    ("trial", "iso_fpa", "iso_pos", "iso_orient", "iso_joint", "dir_fpa", "dir_pos",
     "dir_orient", "dir_joint"),
    {"n_paths": 4, "region_side": 10.0, "grid_step": 0.25, "orientation_grid": 8,
     "gain_dbi": 6.0, "joint": True, "wavelength": 1.0},
    "Channel power gained by position, orientation, and joint reconfiguration "
    "for isotropic and directional antennas.",
    "Reference setup uses 10^4 channel draws and finer search grids; desk-scale "
    "defaults shrink both (documented deviation).",
)
_register(
    "beam-null", _trial_beam_null,
    ("gain_theta0", "max_null_gain", "fpa_gain_theta0", "fpa_max_null_gain"),
    {"n": 8, "theta0_deg": 90.0, "null_deg": [78.0, 98.0, 170.0], "aperture": 20.0,
     "d_min": 0.5, "wavelength": 1.0},
    "Full-gain beam with exact nulls from array-geometry design, against the "
    "zero-forcing fixed array.",
    "Where no null-steering geometry exists (more nulls than prime factors of n, or "
    "a region too small for it), the movable-array columns repeat the fixed array's "
    "zero-forcing design, since a movable array can take the fixed positions; where "
    "those break the region or d_min, the trial is infeasible.",
)
_register(
    "beam-multibeam", _trial_beam_multi, ("ma_max_min_gain", "fpa_max_min_gain"),
    {"n": 8, "theta_deg": [30.0, 120.0, 160.0], "aperture": 20.0, "d_min": 0.5,
     "analog": False, "wavelength": 1.0},
    "Max-min beam gain over several desired directions versus the fixed array.",
)
_register(
    "beam-widebeam", _trial_beam_wide, ("ma_min_gain", "fpa_min_gain"),
    {"n": 8, "theta_min_deg": 0.0, "theta_max_deg": 180.0, "subregions": 24,
     "aperture": 20.0, "d_min": 0.5, "wavelength": 1.0},
    "Minimum analog beam gain over a continuous angular region versus the fixed array.",
    "A degenerate region (theta_min_deg == theta_max_deg) runs the same alternating "
    "optimization and honours the aperture.",
)
_register(
    "miso-graph", _trial_miso_graph, ("trial", "m", "score_graph", "score_fpa", "score_as"),
    {"n": 8, "m": 48, "aperture": 8.0, "d_min": 0.5, "n_paths": 7, "kappa": 0.0,
     "wavelength": 1.0},
    "Received power of the optimal sampled-line placement versus fixed arrays "
    "with and without antenna selection.",
)
_register(
    "mimo-capacity", _trial_mimo_capacity,
    ("trial", "snr_db", "cap_ma", "cap_dense", "cap_sparse"),
    {"n_t": 4, "n_r": 4, "n_paths": 6, "kappa": 1.0, "region_side": 3.0, "d_min": 0.5,
     "snr_db": 10.0, "sparse_spacing": 3.0, "max_sweeps": 12, "wavelength": 1.0},
    "Optimized movable-array MIMO capacity against dense and sparse planar baselines.",
    "Reference setup sweeps SNR with more trials; positions optimized per "
    "instantaneous channel draw.",
)
_register(
    "multiuser-rate", _trial_multiuser,
    ("trial", "kappa", "rate_ma_inst", "rate_ma_stat", "rate_dense", "rate_sparse"),
    {"k": 4, "n_r": 9, "n_paths": 6, "kappa": 10.0, "region_side": 4.0, "d_min": 0.5,
     "snr_db": 10.0, "sparse_spacing": 2.0, "stat_draws": 10, "max_sweeps": 8,
     "wavelength": 1.0},
    "Multiuser uplink sum rate with instantaneous and statistical placement "
    "optimization against planar baselines.",
    "Reference setup: 12 users, 16 base-station antennas, distance-dependent user "
    "gains; desk-scale defaults shrink users/antennas and use unit gains.",
)
_register(
    "sensing-1d-mse", _trial_sensing_1d, ("snr_db", "placement_id", "mse", "crb", "trials"),
    {"n": 16, "aperture": 10.0, "d_min": 0.5, "u": 0.71, "snapshots": 1,
     "snr_db": 20.0, "wavelength": 1.0},
    "Direction-estimation MSE (subspace estimator) and CRB for the optimal, dense, "
    "and sparse linear placements.",
    finalize=_fin_sensing_1d,
)
_register(
    "sensing-2d-crb", _trial_sensing_2d, ("achieved_max_crb", "lower_bound", "gap_db"),
    {"n": 36, "side": 5.0, "d_min": 0.5, "snapshots": 16, "snr_db": 10.0,
     "beta": 1.0, "wavelength": 1.0},
    "Optimized planar-array worst-axis CRB against the aperture lower bound.",
    "At the defaults the rows do not depend on the seed: of the five starts only the "
    "seed-free corner start keeps d_min, so every seed runs the same descent.",
)
_register(
    "isac-tradeoff", _trial_isac, ("crb_scale", "capacity", "crb", "threshold"),
    {"n_t": 4, "n_r": 16, "n_paths": 6, "kappa": 1.0, "region_side": 5.0, "d_min": 0.5,
     "snr_db": 15.0, "snapshots": 16, "beta": 1.0,
     "crb_scale_list": [1.0, 1.5, 2.0, 4.0, 8.0], "max_sweeps": 10, "wavelength": 1.0},
    "Capacity versus sensing-CRB threshold trade-off for a shared receive array.",
    "Thresholds are swept loosest-last with warm starts so the capacity curve is "
    "nondecreasing in the threshold.",
    finalize=_fin_isac,
)
_register(
    "estimation-nmse", _trial_estimation_nmse,
    ("trial", "snr_db", "nmse_successive", "nmse_joint"),
    {"n_paths": 2, "grid": 16, "region_side": 3.0, "measurements": 128, "snr_db": 25.0,
     "kappa": 0.5, "on_grid": True, "min_sep_cells": 3.0, "eval_step": 0.2,
     "wavelength": 1.0},
    "Reconstruction NMSE of successive versus joint sparse recovery.",
    "Reference setup: 3 paths per side, 256 measurements, 10^4 draws; desk-scale "
    "defaults reduce all three.  min_sep_cells keeps the drawn paths resolvable "
    "over the measurement region.  The error over the eval_step grid is computed "
    "from path Gram matrices (estimate.path_nmse), not from channel maps.",
)
_register(
    "estimation-region", _trial_estimation_region,
    ("trial", "region_size", "nmse_model_based", "nmse_model_free"),
    {"dominant_paths": 2, "diffuse_paths": 10, "diffuse_power": 0.15, "grid": 64,
     "region_size": 2.0, "measurements": 50, "snr_db": 20.0, "eval_step": 0.2,
     "wavelength": 1.0},
    "Model-based versus nearest-measured-position reconstruction on a line segment.",
    "The channel includes a diffuse residual beyond the recovered paths; sparse "
    "recovery then hits a mismatch floor while copying nearby measurements stays "
    "accurate on densely measured (small) regions.",
)


# ---------------------------------------------------------------------------
# runner

def _run_one(args):
    exp, params, seed, idx = args
    return CATALOG[exp].trial(params, seed, idx)


def _resolve_workers(workers: int | None) -> int:
    name, value = ((WORKERS_ENV, os.environ.get(WORKERS_ENV) or "1") if workers is None
                   else ("--workers", workers))
    with contextlib.suppress(ValueError):
        if int(value) >= 1:
            return int(value)
    raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def run_experiment(cfg: ExperimentConfig, workers: int | None = None,
                   seed_override: int | None = None) -> ResultTable:
    """Execute a catalog experiment: sweep x trials with derived per-trial seeds.

    Parallel execution (workers > 1, or the MAKIT_WORKERS environment
    variable) distributes trials over a process pool; payloads are reduced in
    trial order so the table is identical to a serial run.  Rows holding a
    NaN or an infinity are counted in metadata["non_finite_rows"] and logged
    as a warning on the makit logger.
    """
    entry = CATALOG[cfg.experiment]
    h = config_hash(cfg)
    base = str(seed_override) if seed_override is not None else h
    sweep_values = cfg.sweep["values"] if cfg.sweep else [None]
    var = cfg.sweep["variable"] if cfg.sweep else None
    nw = _resolve_workers(workers)

    lead = [var] if var is not None and var not in entry.columns else []
    columns = lead + list(entry.columns)
    all_rows: list[list[float]] = []
    seeds_used: list[int] = []
    if nw > 1:  # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=nw) if nw > 1 else contextlib.nullcontext() as pool:
        for si, sv in enumerate(sweep_values):
            params = {**entry.defaults, **cfg.params}
            if var is not None:
                params[var] = sv
            jobs = []
            for ti in range(cfg.trials):
                gi = si * cfg.trials + ti
                if cfg.seeds is not None and seed_override is None:
                    seed = cfg.seeds[gi % len(cfg.seeds)]
                else:
                    seed = trial_seed(base, gi)
                seeds_used.append(seed)
                jobs.append((cfg.experiment, params, seed, ti))
            payloads = list((pool.map if pool else map)(_run_one, jobs))
            rows = entry.finalize(params, payloads) if entry.finalize else payloads
            if lead:
                rows = [[float(sv)] + list(r) for r in rows]
            all_rows.extend([list(map(float, r)) for r in rows])

    non_finite = sum(not all(map(math.isfinite, r)) for r in all_rows)
    if non_finite:
        _log.warning("%s: %d of %d result rows hold a non-finite value",
                     cfg.experiment, non_finite, len(all_rows))
    return ResultTable(
        columns=columns,
        rows=all_rows,
        metadata={
            "experiment": cfg.experiment,
            "config_hash": h,
            "seeds": seeds_used,
            "version": __version__,
            "params": {**entry.defaults, **cfg.params},
            "sweep": cfg.sweep,
            "trials": cfg.trials,
            "doc": entry.doc,
            "notes": entry.notes,
            "non_finite_rows": non_finite,
        },
    )
