import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from makit.beamforming import (beam_gain, gma_positions, gma_rate, mimo_capacity,
                               mmse_combiner, mrt, multiuser_channels, steering_vector,
                               user_sinr_and_rates, water_filling, zf_combiner)
from makit.channel import PathSet, Scenario, gen_scenario, sample_directions
from oracles import ref_gma_rate

LAM = 1.0


def test_steering_vector_broadside_all_ones():
    x = np.arange(4) * 0.5
    assert np.allclose(steering_vector(x, np.pi / 2, LAM), 1.0)


def test_steering_vector_endfire_alternates():
    x = np.arange(4) * LAM / 2
    a = steering_vector(x, 0.0, LAM)
    assert np.allclose(a, [1, -1, 1, -1])


def test_steering_vector_entrywise_oracle():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(0, 5, 6))
    th = rng.uniform(0, np.pi)
    a = steering_vector(x, th, LAM)
    for n in range(6):
        assert abs(a[n] - np.exp(2j * np.pi / LAM * x[n] * np.cos(th))) < 1e-12


def test_beam_gain_matched_filter():
    x = np.arange(8) * 0.5
    th = 1.1
    w = mrt(steering_vector(x, th, LAM))
    assert abs(beam_gain(x, w, th, LAM) - 8.0) < 1e-12


def test_beam_gain_orthogonal_weight():
    x = np.arange(2) * 0.5
    a = steering_vector(x, 1.0, LAM)
    w = np.array([-np.conj(a[1]), np.conj(a[0])]) / np.sqrt(2)
    assert beam_gain(x, w, 1.0, LAM) < 1e-12


def test_beam_gain_cauchy_schwarz_property():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        n = rng.integers(2, 9)
        x = np.sort(rng.uniform(0, 10, n))
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w /= np.linalg.norm(w)
        g = beam_gain(x, w, rng.uniform(0, np.pi), LAM)
        assert g <= n + 1e-9


def test_mrt_basis_vector():
    w = mrt(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.allclose(w, [1, 0, 0])


def test_mrt_scale_invariant_direction():
    rng = np.random.default_rng(2)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    w1 = mrt(h)
    w2 = mrt(3.7j * h)
    # same direction up to a unit phase
    assert abs(abs(w1.conj() @ w2) - 1.0) < 1e-12


def test_mrt_received_power_equals_norm_sq():
    rng = np.random.default_rng(3)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = mrt(h)
    assert abs(abs(h.conj() @ w) ** 2 - np.linalg.norm(h) ** 2) < 1e-12


def test_mrt_zero_vector_raises():
    with pytest.raises(ValueError):
        mrt(np.zeros(3, dtype=complex))


def test_zf_orthonormal_columns_identity():
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 3))
                        + 1j * np.random.default_rng(5).standard_normal((5, 3)))
    w = zf_combiner(q)
    assert np.allclose(w.conj().T @ q, np.eye(3), atol=1e-10)
    assert np.allclose(w, q, atol=1e-10)


def test_zf_single_user_is_mrt_direction():
    rng = np.random.default_rng(6)
    h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).reshape(4, 1)
    w = zf_combiner(h)
    assert abs(abs(mrt(h[:, 0]).conj() @ mrt(w[:, 0])) - 1.0) < 1e-12


def test_zf_random_interference_free():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = zf_combiner(h)
    assert np.linalg.norm(w.conj().T @ h - np.eye(2), 2) <= 1e-10


def test_zf_rank_deficient_raises():
    h = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        zf_combiner(h)


def test_mmse_high_noise_approaches_mrt():
    rng = np.random.default_rng(8)
    h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).reshape(4, 1)
    w = mmse_combiner(h, [1.0], 1e9)
    assert abs(abs(w[:, 0].conj() @ mrt(h[:, 0])) - 1.0) < 1e-6


def test_mmse_single_user_sinr():
    rng = np.random.default_rng(9)
    h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).reshape(4, 1)
    p, s2 = 2.0, 0.3
    w = mmse_combiner(h, [p], s2)
    sinr, _ = user_sinr_and_rates(h, w, [p], s2)
    assert abs(sinr[0] - np.linalg.norm(h) ** 2 * p / s2) < 1e-9


def test_mmse_beats_zf_and_mrt_sinr():
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        p = np.array([1.0, 1.0])
        s2 = 0.5
        w_mmse = mmse_combiner(h, p, s2)
        w_zf = zf_combiner(h)
        w_mrt = h / np.linalg.norm(h, axis=0)
        s_mmse, _ = user_sinr_and_rates(h, w_mmse, p, s2)
        s_zf, _ = user_sinr_and_rates(h, w_zf, p, s2)
        s_mrt, _ = user_sinr_and_rates(h, w_mrt, p, s2)
        assert np.all(s_mmse >= s_zf - 1e-9)
        assert np.all(s_mmse >= s_mrt - 1e-9)


def test_water_filling_single_channel():
    p = water_filling([2.0], 3.0, 1.0)
    assert abs(p[0] - 3.0) < 1e-9


def test_water_filling_equal_values_equal_split():
    p = water_filling([1.5, 1.5, 1.5], 6.0, 0.7)
    assert np.allclose(p, 2.0, atol=1e-9)


def test_water_filling_two_channel_threshold():
    # s = (2, 1): only the strong channel is active while P <= 3/4 sigma2
    s2 = 1.0
    p = water_filling([2.0, 1.0], 0.5, s2)
    assert abs(p[0] - 0.5) < 1e-9
    assert p[1] == 0.0
    # hand-solved two-channel split for a larger budget
    p = water_filling([2.0, 1.0], 2.0, s2)
    mu = (2.0 + s2 / 4 + s2) / 2
    assert abs(p[0] - (mu - s2 / 4)) < 1e-9
    assert abs(p[1] - (mu - s2)) < 1e-9


def test_water_filling_kkt_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = rng.uniform(0.1, 3.0, rng.integers(1, 6))
        total = rng.uniform(0.5, 10.0)
        s2 = rng.uniform(0.1, 2.0)
        p = water_filling(s, total, s2)
        assert abs(p.sum() - total) < 1e-9
        active = p > 0
        levels = p + s2 / s ** 2
        if np.any(active):
            mu = levels[active][0]
            assert np.all(np.abs(levels[active] - mu) < 1e-9)
            assert np.all(s2 / s[~active] ** 2 >= mu - 1e-9)


def test_mimo_capacity_zero_channel():
    assert mimo_capacity(np.zeros((2, 2), dtype=complex), 1.0, 1.0) == 0.0


def test_mimo_capacity_scalar_log():
    c = mimo_capacity(np.array([[1.0 + 0j]]), 3.0, 1.0)
    assert abs(c - np.log2(4.0)) < 1e-12


def test_mimo_capacity_matches_grid_search():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    power, s2 = 2.0, 0.5
    c = mimo_capacity(h, power, s2)
    s = np.linalg.svd(h, compute_uv=False)
    best = 0.0
    for a in np.linspace(0, power, 2001):
        val = np.log2(1 + a * s[0] ** 2 / s2) + np.log2(1 + (power - a) * s[1] ** 2 / s2)
        best = max(best, val)
    assert c >= best - 1e-6
    assert c <= best + 1e-3  # grid resolution tolerance


def test_mimo_capacity_monotone_in_power():
    rng = np.random.default_rng(13)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    caps = [mimo_capacity(h, p, 1.0) for p in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(caps) > 0)


def test_user_sinr_single_user_mrt():
    rng = np.random.default_rng(14)
    h = (rng.standard_normal(5) + 1j * rng.standard_normal(5)).reshape(5, 1)
    w = mrt(h[:, 0]).reshape(5, 1)
    sinr, rates = user_sinr_and_rates(h, w, [2.0], 0.5)
    assert abs(sinr[0] - np.linalg.norm(h) ** 2 * 2.0 / 0.5) < 1e-9
    assert abs(rates[0] - np.log2(1 + sinr[0])) < 1e-12


def test_user_sinr_zf_equal_power():
    rng = np.random.default_rng(15)
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = zf_combiner(h)
    p = 1.7
    sinr, _ = user_sinr_and_rates(h, w, np.full(3, p), 0.9)
    expected = p / (np.linalg.norm(w, axis=0) ** 2 * 0.9)
    assert np.allclose(sinr, expected, atol=1e-9)


def test_user_sinr_term_by_term_oracle():
    rng = np.random.default_rng(16)
    h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    p = rng.uniform(0.5, 2.0, 3)
    s2 = 0.4
    sinr, _ = user_sinr_and_rates(h, w, p, s2)
    for k in range(3):
        sig = abs(w[:, k].conj() @ h[:, k]) ** 2 * p[k]
        interf = sum(abs(w[:, k].conj() @ h[:, q]) ** 2 * p[q] for q in range(3) if q != k)
        noise = np.linalg.norm(w[:, k]) ** 2 * s2
        assert abs(sinr[k] - sig / (interf + noise)) < 1e-9


def test_mmse_vs_zf_sum_rate_ordering():
    rng = np.random.default_rng(17)
    for _ in range(50):
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        p = np.array([1.0, 1.0])
        s2 = 0.5
        _, r_mmse = user_sinr_and_rates(h, mmse_combiner(h, p, s2), p, s2)
        _, r_zf = user_sinr_and_rates(h, zf_combiner(h), p, s2)
        assert np.sum(r_mmse) >= np.sum(r_zf) - 1e-9 >= -1e-9


# --- sliding sparse array rate

def user_set(seed, k, l=4):
    rng = np.random.default_rng(seed)
    return [gen_scenario(rng, n_paths=l, wavelength=LAM, kappa=1.0) for _ in range(k)]


def test_gma_rate_single_user():
    users = user_set(18, 1)
    pbar = [2.0]
    r = gma_rate(0.0, 1, users, pbar, 4, LAM, 10.0)
    h = multiuser_channels(gma_positions(0.0, 1, 4, LAM), users)
    expected = np.log2(1 + pbar[0] * np.linalg.norm(h[:, 0]) ** 2)
    assert abs(r - expected) < 1e-9


def test_gma_rate_eta_one_matches_mmse_rates():
    users = user_set(19, 3)
    pbar = np.array([1.0, 1.5, 0.7])
    pos = gma_positions(0.0, 1, 4, LAM)
    r = gma_rate(0.0, 1, users, pbar, 4, LAM, 10.0)
    h = multiuser_channels(pos, users)
    w = mmse_combiner(h, pbar, 1.0)
    _, rates = user_sinr_and_rates(h, w, pbar, 1.0)
    assert abs(r - rates.sum()) < 1e-9


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), n=st.integers(1, 7), eta=st.integers(1, 3),
       x=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_gma_rate_direct_formula_oracle(k, n, eta, x, seed):
    # the MMSE sum rate against one solve of C_k per user, more users than antennas included
    rng = np.random.default_rng(seed)
    users = [gen_scenario(rng, n_paths=int(rng.integers(1, 5)), wavelength=LAM,
                          kappa=float(rng.uniform(0.0, 10.0))) for _ in range(k)]
    pbar = rng.uniform(0.01, 100.0, k)
    r = gma_rate(x, eta, users, pbar, n, LAM, 30.0)
    ref = ref_gma_rate(x, eta, users, pbar, n, LAM)
    assert abs(r - ref) <= 1e-12 * max(1.0, ref)


def test_gma_rate_infeasible_geometry():
    users = user_set(21, 1)
    with pytest.raises(ValueError):
        gma_rate(0.0, 8, users, [1.0], 4, LAM, 1.0)
