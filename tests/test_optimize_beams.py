import logging

import numpy as np
import pytest

from makit.beamforming import beam_gain, mrt, steering_vector
from makit.errors import InfeasibleError
from makit.optimize import (fpa_ula, grating_lobe_apv, max_min_awv, multibeam_ao, svo_null_apv,
                            widebeam_ao)
from makit.optimize.beams import _uniform_spacing_starts

LAM = 1.0


def ideal_weight(x, theta0):
    return mrt(steering_vector(x, theta0, LAM))


def null_inner_products(x, theta0, nulls):
    a0 = steering_vector(x, theta0, LAM)
    return [abs(steering_vector(x, t, LAM).conj() @ a0) for t in nulls]


# --- steering-vector-orthogonal null construction

def test_svo_two_element_single_null():
    th0, th1 = np.deg2rad(90.0), np.deg2rad(60.0)
    x = svo_null_apv(th0, [th1], 2, 100.0, 0.5, LAM)
    # analytic orthogonality of a two-element pair: spacing * delta = lam/2 (mod lam)
    delta = abs(np.cos(th1) - np.cos(th0))
    spacing = x[1] - x[0]
    frac = spacing * delta / LAM % 1.0
    assert abs(frac - 0.5) < 1e-9
    w = ideal_weight(x, th0)
    assert beam_gain(x, w, th1, LAM) <= 1e-12


def test_svo_reference_instance():
    # eight antennas, boresight main beam, three nulls, 20-wavelength aperture
    th0 = np.deg2rad(90.0)
    nulls = np.deg2rad([78.0, 98.0, 170.0])
    x = svo_null_apv(th0, nulls, 8, 20.0, 0.5, LAM)
    assert x[0] >= -1e-12 and x[-1] <= 20.0 + 1e-9
    assert np.min(np.diff(np.sort(x))) >= 0.5 - 1e-9
    w = ideal_weight(x, th0)
    assert abs(beam_gain(x, w, th0, LAM) - 8.0) < 1e-9
    for t in nulls:
        assert beam_gain(x, w, t, LAM) <= 1e-10


def test_svo_prime_factorization_threshold():
    # 8 = 2*2*2 supports at most three nulls via the nested construction
    th0 = np.deg2rad(90.0)
    nulls = np.deg2rad([60.0, 70.0, 110.0, 130.0])
    with pytest.raises(InfeasibleError, match="prime"):
        svo_null_apv(th0, nulls, 8, 1000.0, 0.5, LAM)


def test_svo_region_too_small():
    th0 = np.deg2rad(90.0)
    nulls = np.deg2rad([89.0])  # tiny delta: huge required spacing
    with pytest.raises(InfeasibleError, match="no feasible geometry fits the region"):
        svo_null_apv(th0, nulls, 2, 1.0, 0.5, LAM)


def test_svo_null_at_main_beam_rejected():
    with pytest.raises(InfeasibleError, match="coincides with the main-beam direction"):
        svo_null_apv(np.deg2rad(90.0), [np.deg2rad(90.0)], 4, 10.0, 0.5, LAM)


def test_svo_property_random_instances():
    rng = np.random.default_rng(0)
    built = 0
    for _ in range(60):
        n = int(rng.choice([4, 6, 8, 12]))
        k = int(rng.integers(1, 4))
        th0 = rng.uniform(0.3, np.pi - 0.3)
        nulls = []
        while len(nulls) < k:
            t = rng.uniform(0.2, np.pi - 0.2)
            if abs(np.cos(t) - np.cos(th0)) > 0.05 and all(
                    abs(np.cos(t) - np.cos(u)) > 1e-3 for u in nulls):
                nulls.append(t)
        try:
            x = svo_null_apv(th0, nulls, n, 200.0, 0.5, LAM)
        except InfeasibleError:
            continue
        built += 1
        w = ideal_weight(x, th0)
        assert abs(beam_gain(x, w, th0, LAM) - n) < 1e-9
        for t in nulls:
            assert abs(steering_vector(x, t, LAM).conj() @ steering_vector(x, th0, LAM)) \
                <= 1e-10 * n
        assert np.min(np.diff(np.sort(x))) >= 0.5 - 1e-9
    assert built >= 40  # the construction succeeds for most draws at this aperture


# --- grating-lobe construction

def test_grating_half_delta_family():
    th0 = np.pi / 2
    th1 = np.arccos(0.5)  # delta = 1/2
    x = grating_lobe_apv(th0, [th1], 4, 100.0, 0.5, LAM)
    spacing = np.diff(x)
    assert np.allclose(spacing, spacing[0])
    assert abs(spacing[0] / (2.0 * LAM) - round(spacing[0] / (2.0 * LAM))) < 1e-9
    a0 = steering_vector(x, th0, LAM)
    a1 = steering_vector(x, th1, LAM)
    assert abs(abs(a1.conj() @ a0) - 4.0) < 1e-9
    w = ideal_weight(x, th0)
    assert abs(beam_gain(x, w, th1, LAM) - 4.0) < 1e-9


def test_grating_desired_only_main_direction():
    x = grating_lobe_apv(np.pi / 3, [np.pi / 3], 4, 10.0, 0.5, LAM)
    w = ideal_weight(x, np.pi / 3)
    assert abs(beam_gain(x, w, np.pi / 3, LAM) - 4.0) < 1e-12


def test_grating_irrational_delta_rejected():
    th0 = np.pi / 2
    th1 = np.arccos(1.0 / np.sqrt(2.0))
    with pytest.raises(InfeasibleError, match="not rational"):
        grating_lobe_apv(th0, [th1], 4, 1e6, 0.5, LAM)


def test_grating_property_random_rational_instances():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.choice([2, 4, 8]))
        k = int(rng.integers(1, 3))
        th0 = np.pi / 2
        deltas = []
        while len(deltas) < k:
            q = int(rng.integers(1, 9))
            p = int(rng.integers(-q, q + 1))
            if p != 0 and abs(p) <= q and p / q not in deltas:
                deltas.append(p / q)
        thetas = [np.arccos(np.clip(d, -1, 1)) for d in deltas]
        aperture = (n - 1) * 64.0 * LAM  # large enough for any lcm spacing here
        x = grating_lobe_apv(th0, thetas, n, aperture, 0.5, LAM)
        a0 = steering_vector(x, th0, LAM)
        for t in thetas:
            assert abs(abs(steering_vector(x, t, LAM).conj() @ a0) - n) < 1e-9


# --- alternating optimization

def test_multibeam_single_direction_full_gain():
    rep = multibeam_ao([1.2], 6, 10.0, 0.5, LAM, seed=0)
    assert abs(rep.best_score - 6.0) < 1e-9


def test_multibeam_rational_instance_near_construction():
    th0 = np.pi / 2
    th1 = np.arccos(0.5)
    rep = multibeam_ao([th0, th1], 8, 30.0, 0.5, LAM, seed=0)
    built = grating_lobe_apv(th0, [th1], 8, 30.0, 0.5, LAM)
    w = ideal_weight(built, th0)
    bench = min(beam_gain(built, w, t, LAM) for t in (th0, th1))
    assert rep.best_score >= 0.95 * bench


def test_multibeam_reference_instance_beats_fixed_array():
    thetas = np.deg2rad([30.0, 120.0, 160.0])
    rep = multibeam_ao(thetas, 8, 20.0, 0.5, LAM, seed=0)
    x_fpa = fpa_ula(8, LAM)
    _, g_fpa = max_min_awv(x_fpa, thetas, LAM, seed=0)
    assert rep.best_score > g_fpa
    assert np.min(np.diff(np.sort(rep.best_placement))) >= 0.5 - 1e-9
    assert np.all(np.diff(rep.trace) >= -1e-12)


def test_widebeam_degenerate_region_is_matched_beam():
    rep = widebeam_ao(1.0, 1.0, 4, 8, 20.0, 0.5, LAM)
    assert abs(rep.best_score - 8.0) < 1e-9


def test_widebeam_single_angle_runs_the_ao():
    rep = widebeam_ao(1.0, 1.0, 4, 8, 20.0, 0.5, LAM)
    assert rep.stop_reason in ("stalled", "max_sweeps")
    assert abs(rep.extra["verified_min_gain"] - 8.0) < 1e-9


def test_widebeam_single_angle_honours_the_aperture():
    # the lambda/2 array spans 3.5 lambda and no start fits a 0.1 lambda region
    with pytest.raises(InfeasibleError):
        widebeam_ao(1.0, 1.0, 4, 8, 0.1, 0.5, LAM)


@pytest.mark.parametrize("n, aperture, d_min", [(8, 10.0, 0.5), (8, 20.0, 0.3), (2, 0.6, 0.5),
                                                (4, 1.5, 0.5), (4, 1.0, 0.5), (6, 7.3, 0.8),
                                                (1, 20.0, 0.5)])
def test_uniform_spacing_starts_are_pairwise_distinct(n, aperture, d_min):
    starts = _uniform_spacing_starts(n, aperture, d_min, LAM)
    d_lo = max(d_min, LAM / 2)
    if (n - 1) * d_lo <= aperture:  # the tightest array fits, and comes first
        assert starts[0].tobytes() == fpa_ula(n, LAM, d_lo).tobytes()
    else:
        assert starts == []
    assert all(x[-1] <= aperture for x in starts)
    assert len({x.tobytes() for x in starts}) == len(starts)


def test_widebeam_full_region_beats_fixed_array():
    rep = widebeam_ao(0.0, np.pi, 16, 8, 20.0, 0.5, LAM, seed=0)
    x_fpa = fpa_ula(8, LAM)
    centers = (np.arange(16) + 0.5) * np.pi / 16
    w_fpa, _ = max_min_awv(x_fpa, centers, LAM, analog=True, seed=0)
    fine = (np.arange(64) + 0.5) * np.pi / 64
    g_fpa = min(beam_gain(x_fpa, w_fpa, t, LAM) for t in fine)
    assert rep.extra["verified_min_gain"] > g_fpa
    # analog weights: constant modulus
    assert np.allclose(np.abs(rep.extra["weights"]), 1 / np.sqrt(8), atol=1e-9)


def test_widebeam_two_antennas_matches_exhaustive():
    lo, hi = np.deg2rad(80.0), np.deg2rad(100.0)
    nsub = 8
    rep = widebeam_ao(lo, hi, nsub, 2, 4.0, 0.5, LAM, seed=0)
    centers = lo + (np.arange(nsub) + 0.5) * (hi - lo) / nsub
    best = 0.0
    for x2 in np.linspace(0.5, 4.0, 141):
        x = np.array([0.0, x2])
        for phase in np.linspace(0, 2 * np.pi, 181, endpoint=False):
            w = np.array([1.0, np.exp(1j * phase)]) / np.sqrt(2)
            g = min(beam_gain(x, w, t, LAM) for t in centers)
            best = max(best, g)
    assert rep.best_score >= 0.98 * best


def test_beam_ascent_logs_why_it_stopped_without_changing_results(caplog):
    thetas = np.deg2rad([30.0, 120.0, 160.0])
    quiet = multibeam_ao(thetas, 6, 6.0, 0.5, LAM, seed=1, max_sweeps=2)
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("makit").handlers)
    with caplog.at_level(logging.DEBUG, logger="makit"):
        loud = multibeam_ao(thetas, 6, 6.0, 0.5, LAM, seed=1, max_sweeps=2)
    msgs = [r.getMessage() for r in caplog.records if r.name == "makit.optimize.beams"]
    assert any(m.startswith("max_min_awv: ") and "stopped at n_iter=300" in m for m in msgs)
    assert any(m.startswith("_ao_candidates: ") and "chains stopped at max_sweeps=2" in m
               for m in msgs)
    assert loud.best_score == quiet.best_score and loud.trace == quiet.trace
    assert loud.best_placement.tobytes() == quiet.best_placement.tobytes()
    assert loud.extra["weights"].tobytes() == quiet.extra["weights"].tobytes()


@pytest.mark.parametrize("max_sweeps, stop", [(1, "max_sweeps"), (12, "stalled")])
def test_beam_ao_reports_why_it_stopped(max_sweeps, stop):
    # a refinement chain still gains in its first sweep, and all stall before the 12th
    multi = multibeam_ao(np.deg2rad([30.0, 120.0, 160.0]), 6, 6.0, 0.5, LAM,
                         max_sweeps=max_sweeps)
    wide = widebeam_ao(1.0, 2.0, 4, 4, 4.0, 0.5, LAM, seed=0, max_sweeps=max_sweeps)
    assert multi.stop_reason == stop and wide.stop_reason == stop
