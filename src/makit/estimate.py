"""Channel acquisition from sparse pilot measurements.

Model-based path: orthogonal matching pursuit over a grid of candidate
spatial frequencies recovers each side's wave vectors (successively or
jointly), then least squares recovers the path-response matrix; the full
Tx-to-Rx channel mapping is re-synthesized from the recovered information.
A nearest-measured-position baseline provides the model-free alternative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import PathSet, Scenario, channel_mimo, channel_narrowband, frm
from .geometry import MoveRegion

__all__ = [
    "MeasurementSet",
    "FriEstimate",
    "uv_grid",
    "collect_measurements",
    "omp",
    "omp_successive",
    "omp_joint",
    "ls_prm",
    "nearest_measured_reconstruct",
    "reconstruct_mapping",
    "nmse",
    "path_nmse",
    "export_mapping_csv",
    "load_mapping_csv",
    "save_measurements",
    "load_measurements",
]

JOINT_ATOM_CAP = 2 ** 24
_JOINT_BLOCK = 512  # Tx atoms per block of the joint correlation


@dataclass(frozen=True)
class MeasurementSet:
    """Pilot measurements at visited Tx/Rx position pairs.

    pilots[m] = sqrt(power) * h(tx_positions[m], rx_positions[m]) + noise,
    with noise variance noise_power.  One-side sweeps keep the other side's
    position constant across rows.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray
    pilots: np.ndarray
    power: float
    noise_power: float

    def __post_init__(self):
        t = np.asarray(self.tx_positions, dtype=float).reshape(-1, 3)
        r = np.asarray(self.rx_positions, dtype=float).reshape(-1, 3)
        y = np.asarray(self.pilots, dtype=complex).reshape(-1)
        if not (len(t) == len(r) == len(y)):
            raise ValueError("positions and pilots must have matching counts")
        object.__setattr__(self, "tx_positions", t)
        object.__setattr__(self, "rx_positions", r)
        object.__setattr__(self, "pilots", y)

    def __len__(self) -> int:
        return len(self.pilots)


@dataclass
class FriEstimate:
    """Recovered field-response information: per-side spatial frequencies plus the PRM."""

    tx_uv: np.ndarray
    rx_uv: np.ndarray
    prm: np.ndarray
    residual: float = 0.0
    converged: bool = True
    rank_deficient: bool = False
    poor_fit: bool = False

    def __post_init__(self):
        self.tx_uv = np.asarray(self.tx_uv, dtype=float).reshape(-1, 2)
        self.rx_uv = np.asarray(self.rx_uv, dtype=float).reshape(-1, 2)
        self.prm = np.asarray(self.prm, dtype=complex)
        if np.any(np.abs(self.tx_uv) > 1 + 1e-9) or np.any(np.abs(self.rx_uv) > 1 + 1e-9):
            raise ValueError("spatial frequencies must lie in [-1, 1]")
        if self.prm.shape != (len(self.rx_uv), len(self.tx_uv)):
            raise ValueError("prm shape must match recovered path counts")


def uv_grid(g: int) -> np.ndarray:
    """Quantized spatial-frequency axis: -1 + 2i/G for i = 1..G."""
    return -1.0 + 2.0 * np.arange(1, g + 1) / g


def _uv_pairs(g: int) -> np.ndarray:
    """(G^2, 2) grid of (u, v) pairs; flat index = u-index + G * v-index."""
    grid = uv_grid(g)
    return np.column_stack([np.tile(grid, g), np.repeat(grid, g)])


def collect_measurements(scenario: Scenario, tx_region: MoveRegion, rx_region: MoveRegion,
                         schedule: str, count: int, power: float, noise_power: float,
                         seed) -> MeasurementSet:
    """Simulate pilot training over `count` positions drawn uniformly in the regions.

    schedule 'tx-sweep' moves the Tx antenna with the Rx fixed at its
    reference point; 'rx-sweep' is symmetric; 'paired' moves both.
    """
    if schedule not in ("tx-sweep", "rx-sweep", "paired"):
        raise ValueError(f"unknown schedule {schedule!r}")
    rng = np.random.default_rng(seed)
    t = np.zeros((count, 3)) if schedule == "rx-sweep" else tx_region.sample(rng, count)
    r = np.zeros((count, 3)) if schedule == "tx-sweep" else rx_region.sample(rng, count)
    y = math.sqrt(power) * channel_narrowband(t, r, scenario)
    if noise_power > 0:
        y = y + math.sqrt(noise_power / 2.0) * (rng.standard_normal(count)
                                                + 1j * rng.standard_normal(count))
    return MeasurementSet(t, r, y, power, noise_power)


def _atoms(uv: np.ndarray, positions: np.ndarray, wavelength: float, sign: int = 1) -> np.ndarray:
    """(n_atoms, M) entries exp(sign j 2 pi/lambda uv . p_m): sign +1 for Tx atoms, -1 for Rx
    atoms, since the receive side is conjugated."""
    phase = sign * 2j * np.pi / wavelength * (uv @ positions[:, :2].T)
    return np.exp(phase, out=phase)


def _grid_atoms(g: int, positions: np.ndarray, wavelength: float, sign: int = 1) -> np.ndarray:
    """_atoms of the _uv_pairs(g) grid, as products of per-axis tables: row u + G v is
    ex[u] * ey[v], equal to the direct table within a few ulps."""
    k = sign * 2j * np.pi / wavelength * uv_grid(g)[:, None]
    ex, ey = np.exp(k * positions[:, 0]), np.exp(k * positions[:, 1])
    return (ey[:, None, :] * ex[None, :, :]).reshape(g * g, -1)


def _pursuit(y: np.ndarray, n_atoms: int, noise_power: float, best_atom, sub_dictionary):
    """Greedy loop of omp and omp_joint, with omp's stop rules and return values.

    best_atom(res, chosen) gives (atom, |correlation|) of the atom outside
    `chosen` most correlated with the residual (atom None when none is left);
    sub_dictionary(chosen) gives the (M, k) columns of the chosen atoms.
    """
    m = len(y)
    y_norm = np.linalg.norm(y)
    stop = 1.1 * math.sqrt(m * noise_power)
    res = y.copy()
    chosen: list = []
    converged = True
    coef = np.zeros(0, dtype=complex)
    for _ in range(n_atoms):
        if np.linalg.norm(res) <= max(stop, 1e-12 * y_norm):
            break
        atom, val = best_atom(res, chosen)
        if atom is None or val <= 1e-12 * y_norm * math.sqrt(m):
            converged = False
            break
        chosen.append(atom)
        sub = sub_dictionary(chosen)
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        res = y - sub @ coef
    if len(chosen) < n_atoms and np.linalg.norm(res) > max(stop, 1e-12 * y_norm):
        converged = False
    return chosen, coef, float(np.linalg.norm(res)), converged


def omp(dictionary: np.ndarray, y: np.ndarray, n_atoms: int, noise_power: float = 0.0):
    """Orthogonal matching pursuit on an (M x D) dictionary.

    Stops at n_atoms atoms or when the residual drops below
    1.1 * sqrt(M * noise_power); stagnation (no correlation left) stops early
    with converged=False.  Ties in the correlation argmax take the lowest
    atom index.  Returns (indices, coefficients, residual_norm, converged).
    """
    a = np.asarray(dictionary, dtype=complex)
    a_h = a.conj().T

    def best_atom(res, chosen):
        corr = np.abs(a_h @ res)
        corr[chosen] = -1.0
        j = int(np.argmax(corr))
        return j, corr[j]

    chosen, coef, residual, converged = _pursuit(np.asarray(y, dtype=complex).reshape(-1),
                                                 n_atoms, noise_power, best_atom,
                                                 lambda chosen: a[:, chosen])
    return np.array(chosen, dtype=int), coef, residual, converged


def _side_recovery(ms: MeasurementSet, side: str, g: int, n_paths: int, wavelength: float):
    positions, sign = (ms.tx_positions, 1) if side == "tx" else (ms.rx_positions, -1)
    atoms = _grid_atoms(g, positions, wavelength, sign)
    idx, coef, _, ok = omp(atoms.T, ms.pilots, n_paths, ms.noise_power)
    return _uv_pairs(g)[idx], coef, ok


def _min_cost_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (rows = arange(L)) of a minimum-cost perfect matching of a
    square cost matrix; a NaN or infinite entry raises ValueError.

    The Hungarian method as shortest augmenting paths with row and column
    potentials (Kuhn 1955; Crouse, IEEE TAES 2016), O(L^3): each row in turn
    grows a Dijkstra tree over reduced costs until it reaches a free column,
    then flips the matching along that path.  Column 0 is the tree's root.
    """
    c = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("the cost matrix contains NaN or infinite entries")
    n = len(c)
    u, v = np.zeros(n + 1), np.zeros(n + 1)  # row and column potentials
    row_of = np.zeros(n + 1, dtype=int)      # 1-based row matched to each column, 0 if free
    way = np.zeros(n + 1, dtype=int)         # previous column on the shortest path
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        dist = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            reduced = c[i0 - 1] - u[i0] - v[1:]
            closer = ~used[1:] & (reduced < dist[1:])
            dist[1:][closer] = reduced[closer]
            way[1:][closer] = j0
            j1 = int(np.argmin(np.where(used, np.inf, dist)))
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[~used] -= delta
            j0 = j1
        while j0:  # augment along the path back to the root
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    cols = np.empty(n, dtype=int)
    cols[row_of[1:] - 1] = np.arange(n)
    return np.arange(n), cols


def omp_successive(ms_tx: MeasurementSet, ms_rx: MeasurementSet, g: int,
                   n_tx_paths: int, n_rx_paths: int, wavelength: float) -> FriEstimate:
    """Two per-side sparse recoveries followed by a least-squares PRM fit.

    ms_tx must be a Tx sweep (Rx fixed) and ms_rx an Rx sweep (Tx fixed).
    One-side sweeps only observe row/column aggregates of a general PRM, so
    with equal path counts the geometric (diagonal) model is assumed: the
    per-side recoveries are paired by coefficient consistency (a minimum-cost
    assignment) and the diagonal is re-fit by LS over both pilot sets.  With
    unequal counts the full-PRM minimum-norm fit is returned and flagged
    rank deficient.
    """
    if len(ms_tx) < n_tx_paths or len(ms_rx) < n_rx_paths:
        raise ValueError("need at least as many measurements per side as paths to recover")
    tx_uv, c_t, ok_t = _side_recovery(ms_tx, "tx", g, n_tx_paths, wavelength)
    rx_uv, c_r, ok_r = _side_recovery(ms_rx, "rx", g, n_rx_paths, wavelength)
    power = ms_tx.power
    noise = max(ms_tx.noise_power, ms_rx.noise_power)

    if len(tx_uv) != len(rx_uv):
        t_all = np.vstack([ms_tx.tx_positions, ms_rx.tx_positions])
        r_all = np.vstack([ms_tx.rx_positions, ms_rx.rx_positions])
        y_all = np.concatenate([ms_tx.pilots, ms_rx.pilots])
        prm, residual, rank_def, poor = ls_prm(t_all, r_all, y_all, tx_uv, rx_uv,
                                               power, noise, wavelength)
        return FriEstimate(tx_uv=tx_uv, rx_uv=rx_uv, prm=prm, residual=residual,
                           converged=ok_t and ok_r, rank_deficient=rank_def, poor_fit=poor)

    r_fixed = ms_tx.rx_positions[0]
    t_fixed = ms_rx.tx_positions[0]
    # coefficient of tx atom a: sqrt(P) conj(f_b(r_fixed)) sigma_ab; of rx atom b:
    # sqrt(P) sigma_ab g_a(t_fixed): consistent pairs agree on sigma
    f_at_fixed = _atoms(rx_uv, r_fixed.reshape(1, 3), wavelength, -1)[:, 0]  # conj-phased
    g_at_fixed = _atoms(tx_uv, t_fixed.reshape(1, 3), wavelength)[:, 0]
    s_tx = c_t[:, None] / (math.sqrt(power) * f_at_fixed[None, :])  # (a, b)
    s_rx = c_r[None, :] / (math.sqrt(power) * g_at_fixed[:, None])  # (a, b)
    row, col = _min_cost_assignment(np.abs(s_tx - s_rx) ** 2)
    tx_uv = tx_uv[row]
    rx_uv = rx_uv[col]

    # joint diagonal LS over both sweeps
    g_t = _atoms(tx_uv, ms_tx.tx_positions, wavelength)          # (L, Mt)
    f_t = _atoms(rx_uv, ms_tx.rx_positions, wavelength, -1)      # (L, Mt)
    g_r = _atoms(tx_uv, ms_rx.tx_positions, wavelength)
    f_r = _atoms(rx_uv, ms_rx.rx_positions, wavelength, -1)
    design = math.sqrt(power) * np.vstack([(g_t * f_t).T, (g_r * f_r).T])
    y_all = np.concatenate([ms_tx.pilots, ms_rx.pilots])
    diag, residual, rank_def, poor = _fit(design, y_all, noise)
    return FriEstimate(tx_uv=tx_uv, rx_uv=rx_uv, prm=np.diag(diag), residual=residual,
                       converged=ok_t and ok_r, rank_deficient=rank_def, poor_fit=poor)


def omp_joint(ms: MeasurementSet, g: int, n_paths: int, wavelength: float) -> FriEstimate:
    """Joint recovery of Tx/Rx spatial-frequency pairs and PRM entries.

    The dictionary is the elementwise product of every Tx atom with every Rx
    atom (G^4 combined atoms, correlated lazily in blocks of Tx atoms);
    coefficients of the selected atoms are the scaled PRM entries.  Pilots
    below the noise floor select no atom: the estimate is then empty, and
    reconstruct_mapping maps it to the zero map.
    """
    if g ** 4 > JOINT_ATOM_CAP:
        raise ValueError(f"G^4 = {g ** 4} atoms exceed the {JOINT_ATOM_CAP} cap; use a smaller grid")
    if len(ms) < n_paths:
        raise ValueError("need at least as many measurements as atoms to recover")
    uv = _uv_pairs(g)
    at_c = _grid_atoms(g, ms.tx_positions, wavelength, -1)  # conjugated Tx atoms, (G^2, M)
    ar_c = _grid_atoms(g, ms.rx_positions, wavelength)      # conjugated Rx atoms, (G^2, M)
    # block buffers shared by every step: fresh (block, G^2) temporaries on each step are
    # returned to the OS and page-faulted back in
    rows = min(_JOINT_BLOCK, len(at_c))
    prod, corr_c = np.empty((rows, len(ms)), complex), np.empty((rows, len(ar_c)), complex)
    corr_abs = np.empty((rows, len(ar_c)))

    def best_pair(res, chosen):
        best_val, best_pq = -1.0, None
        for p0 in range(0, len(at_c), _JOINT_BLOCK):
            n = min(_JOINT_BLOCK, len(at_c) - p0)
            np.multiply(at_c[p0:p0 + n], res[None, :], out=prod[:n])
            corr = np.abs(np.matmul(prod[:n], ar_c.T, out=corr_c[:n]), out=corr_abs[:n])
            for (pp, qq) in chosen:
                if p0 <= pp < p0 + len(corr):
                    corr[pp - p0, qq] = -1.0
            flat = int(np.argmax(corr))
            val = float(corr.ravel()[flat])
            if val > best_val:  # the first max, as one argmax over all blocks would take
                best_val = val
                best_pq = (p0 + flat // corr.shape[1], flat % corr.shape[1])
        return best_pq, best_val

    chosen, coef, residual, converged = _pursuit(
        ms.pilots, n_paths, ms.noise_power, best_pair,
        lambda chosen: np.stack([(at_c[p] * ar_c[q]).conj() for p, q in chosen], axis=1))
    tx_idx = sorted({pq[0] for pq in chosen})
    rx_idx = sorted({pq[1] for pq in chosen})
    prm = np.zeros((len(rx_idx), len(tx_idx)), dtype=complex)
    for (pp, qq), c in zip(chosen, coef):
        prm[rx_idx.index(qq), tx_idx.index(pp)] = c / math.sqrt(ms.power)
    return FriEstimate(tx_uv=uv[tx_idx], rx_uv=uv[rx_idx], prm=prm,
                       residual=residual, converged=converged)


def ls_prm(tx_positions, rx_positions, pilots, tx_uv, rx_uv, power: float,
           noise_power: float, wavelength: float):
    """Least-squares PRM from pilots given recovered per-side spatial frequencies.

    Builds the stacked linear system pilots = sqrt(P) (g(t_m)^T kron f(r_m)^H)
    vec(PRM) and solves it in the minimum-norm sense.  Returns
    (prm, residual, rank_deficient, poor_fit); poor_fit flags a residual far
    above the noise floor (wrong wave vectors or model mismatch).
    """
    t = np.asarray(tx_positions, dtype=float).reshape(-1, 3)
    r = np.asarray(rx_positions, dtype=float).reshape(-1, 3)
    y = np.asarray(pilots, dtype=complex).reshape(-1)
    tx_uv = np.asarray(tx_uv, dtype=float).reshape(-1, 2)
    rx_uv = np.asarray(rx_uv, dtype=float).reshape(-1, 2)
    lt, lr = len(tx_uv), len(rx_uv)
    gt = _atoms(tx_uv, t, wavelength)      # (Lt, M)
    fr = _atoms(rx_uv, r, wavelength, -1)  # (Lr, M), already conjugate-phased
    # row m, column (i + j*Lr) = g_j(t_m) * conj(f_i(r_m))
    design = math.sqrt(power) * (gt.T[:, :, None] * fr.T[:, None, :]).reshape(len(y), lt * lr)
    sol, residual, rank_def, poor = _fit(design, y, noise_power)
    return sol.reshape(lr, lt, order="F"), residual, rank_def, poor


def _fit(design: np.ndarray, y: np.ndarray, noise_power: float):
    """Minimum-norm least-squares solution of design @ x = y.

    Returns (x, residual norm, rank_deficient, poor_fit); poor_fit flags a
    squared residual above dof·σ² + 5σ²√dof (+1e-12), dof = rows − columns.
    """
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.linalg.norm(y - design @ sol))
    dof = max(len(y) - design.shape[1], 1)
    poor = residual ** 2 > dof * noise_power + 5.0 * noise_power * math.sqrt(dof) + 1e-12
    return sol, residual, rank < design.shape[1], poor


def nearest_measured_reconstruct(ms: MeasurementSet, query_positions) -> np.ndarray:
    """Model-free channel estimate: copy the nearest measured Rx position's value.

    Each query position gets pilots[argmin distance]/sqrt(P); distance ties
    resolve to the lowest measurement index.
    """
    if len(ms) < 1:
        raise ValueError("need at least one measurement")
    q = np.asarray(query_positions, dtype=float).reshape(-1, 3)
    d = np.linalg.norm(q[:, None, :] - ms.rx_positions[None, :, :], axis=2)
    nearest = np.argmin(d, axis=1)
    return ms.pilots[nearest] / math.sqrt(ms.power)


def reconstruct_mapping(fri: FriEstimate, tx_grid, rx_grid, wavelength: float) -> np.ndarray:
    """Channel map over grid pairs from recovered information: H[q, p] = f^H PRM g.

    An estimate with no recovered paths on either side (channel below the
    noise floor) reconstructs as the zero map.
    """
    if len(fri.tx_uv) == 0 or len(fri.rx_uv) == 0:
        return np.zeros((len(rx_grid), len(tx_grid)), dtype=complex)
    sc = Scenario(wavelength=wavelength,
                  tx_paths=PathSet.from_spatial_frequencies(fri.tx_uv),
                  rx_paths=PathSet.from_spatial_frequencies(fri.rx_uv),
                  prm=fri.prm)
    return channel_mimo(tx_grid, rx_grid, sc)


def nmse(h: np.ndarray, h_hat: np.ndarray) -> float:
    """Normalized squared reconstruction error ||H - Hhat||_F^2 / ||H||_F^2."""
    h = np.asarray(h, dtype=complex)
    h_hat = np.asarray(h_hat, dtype=complex)
    if h.shape != h_hat.shape:
        raise ValueError("shapes do not match")
    denom = np.linalg.norm(h) ** 2
    if denom == 0:
        raise ValueError("reference channel is zero")
    return float(np.linalg.norm(h - h_hat) ** 2 / denom)


def path_nmse(scenario: Scenario, fri: FriEstimate, tx_grid, rx_grid) -> float:
    """nmse of reconstruct_mapping(fri, tx_grid, rx_grid) against the scenario's channel_mimo,
    without building either map; an estimate with no recovered paths scores 1.0.

    Both maps are F^H Sigma G, so ||H - Hhat||_F^2 = tr(D^H P D Q): P and Q are the Gram
    matrices of the Rx and Tx grids' field responses over the union of true and recovered
    wave vectors (equal ones merged exactly), D the difference of the PRMs on that union.
    """
    if len(fri.tx_uv) == 0 or len(fri.rx_uv) == 0:
        return 1.0
    grams, rows = [], []
    for paths, uv, grid in ((scenario.rx_paths, fri.rx_uv, rx_grid),
                            (scenario.tx_paths, fri.tx_uv, tx_grid)):
        k = np.vstack([paths.wave_vectors, PathSet.from_spatial_frequencies(uv).wave_vectors])
        union, at = np.unique(k, axis=0, return_inverse=True)
        f = frm(grid, PathSet(union), scenario.wavelength)
        grams.append(f @ f.conj().T)
        rows.append(np.split(at.reshape(-1), [len(paths.wave_vectors)]))
    (p, q), ((r_true, r_hat), (t_true, t_hat)) = grams, rows
    sigma = np.zeros((len(p), len(q)), dtype=complex)
    np.add.at(sigma, np.ix_(r_true, t_true), scenario.prm)
    diff = sigma.copy()
    np.subtract.at(diff, np.ix_(r_hat, t_hat), fri.prm)
    return float(np.vdot(diff, p @ diff @ q).real / np.vdot(sigma, p @ sigma @ q).real)


def export_mapping_csv(path, tx_grid, rx_grid, h: np.ndarray) -> None:
    """Write a reconstructed map as rows (tx_x, tx_y, rx_x, rx_y, re, im), tx-major order."""
    tx = np.asarray(tx_grid, dtype=float).reshape(len(tx_grid), -1)[:, [0, 1]]
    rx = np.asarray(rx_grid, dtype=float).reshape(len(rx_grid), -1)[:, [0, 1]]
    h = np.asarray(h, dtype=complex).T  # (tx, rx)
    if h.shape != (len(tx), len(rx)):
        raise ValueError(f"map of shape {h.T.shape} for {len(rx)} Rx and {len(tx)} Tx points")
    rows = np.column_stack([np.repeat(tx, len(rx), axis=0), np.tile(rx, (len(tx), 1)),
                            h.real.ravel(), h.imag.ravel()])
    with open(path, "w") as fh:
        fh.write("tx_x,tx_y,rx_x,rx_y,re,im\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def load_mapping_csv(path):
    """Inverse of export_mapping_csv; returns (tx_grid, rx_grid, H)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tx, at_tx = np.unique(rows[:, :2], axis=0, return_inverse=True)
    rx, at_rx = np.unique(rows[:, 2:4], axis=0, return_inverse=True)
    h = np.zeros((len(rx), len(tx)), dtype=complex)
    at = at_rx.reshape(-1), at_tx.reshape(-1)
    h.real[at], h.imag[at] = rows[:, 4], rows[:, 5]  # re + 1j*im would turn an im of -0.0 to 0.0
    return tx, rx, h


def save_measurements(ms: MeasurementSet, path) -> None:
    doc = {
        "tx_positions": ms.tx_positions.tolist(),
        "rx_positions": ms.rx_positions.tolist(),
        "pilots": np.stack([ms.pilots.real, ms.pilots.imag], axis=-1).tolist(),
        "power": ms.power,
        "noise_power": ms.noise_power,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_measurements(path) -> MeasurementSet:
    with open(path) as fh:
        doc = json.load(fh)
    pilots = np.asarray(doc["pilots"], dtype=float)
    return MeasurementSet(np.asarray(doc["tx_positions"]), np.asarray(doc["rx_positions"]),
                          pilots[:, 0] + 1j * pilots[:, 1], doc["power"], doc["noise_power"])
