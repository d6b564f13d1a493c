import dataclasses

import numpy as np
import pytest

from makit.channel import (CouplingPair, PathSet, RadiationPattern, Scenario, apply_coupling,
                           cfr, channel_6dma, channel_mimo, channel_narrowband,
                           channel_nearfield, cir, frm, frv_tx, gen_scenario, load_scenario,
                           polarization_gain, prm_6dma, radiation_gain, redraw_prm_phases,
                           sample_directions, save_scenario, scenario_from_dict,
                           scenario_to_dict, tap_of_delay)
from makit.geometry import accs_basis, aom_from_euler

LAM = 1.0


def random_scenario(seed, l=3, **kw):
    return gen_scenario(seed, n_paths=l, wavelength=LAM, **kw)


# --- field response vectors / matrices

def test_frv_origin_all_ones():
    sc = random_scenario(0)
    assert np.allclose(frv_tx(np.zeros(3), sc.tx_paths, LAM), 1.0)


def test_frv_half_wavelength_phase():
    paths = PathSet(np.array([[1.0, 0.0, 0.0]]))
    v = frv_tx([LAM / 2, 0, 0], paths, LAM)
    assert np.allclose(v, [-1.0])


def test_frv_matches_direct_recomputation():
    rng = np.random.default_rng(1)
    paths = PathSet(sample_directions(rng, 3))
    t = rng.uniform(-2, 2, 3)
    v = frv_tx(t, paths, LAM)
    for j in range(3):
        expected = np.exp(2j * np.pi / LAM * paths.wave_vectors[j] @ t)
        assert abs(v[j] - expected) < 1e-12


def test_frv_unit_modulus_property():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        paths = PathSet(sample_directions(rng, 4))
        v = frv_tx(rng.uniform(-5, 5, 3), paths, LAM)
        assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-12


def test_frm_single_column_equals_frv():
    sc = random_scenario(3)
    t = np.array([0.3, -0.2, 0.1])
    assert np.allclose(frm([t], sc.tx_paths, LAM)[:, 0], frv_tx(t, sc.tx_paths, LAM))


def test_frm_identical_positions_identical_columns():
    sc = random_scenario(4)
    t = np.array([0.5, 0.5, 0.0])
    m = frm([t, t], sc.tx_paths, LAM)
    assert np.allclose(m[:, 0], m[:, 1])


def test_frm_columnwise_oracle():
    rng = np.random.default_rng(5)
    sc = random_scenario(5, l=4)
    pos = rng.uniform(-1, 1, (6, 3))
    m = frm(pos, sc.tx_paths, LAM)
    for n in range(6):
        assert np.allclose(m[:, n], frv_tx(pos[n], sc.tx_paths, LAM))


@pytest.mark.parametrize("short, full", [
    (0.37, (0.37, 0.0, 0.0)),
    ((0.37, -0.21), (0.37, -0.21, 0.0)),
    ((0.37, -0.21, 0.0), (0.37, -0.21, 0.0)),
], ids=["x", "xy", "xy0"])
def test_coordinate_rule_shared_by_every_channel(short, full):
    """A bare x is the point (x, 0, 0) and (x, y) is (x, y, 0), on either side of every channel."""
    narrow = random_scenario(20)
    wide = random_scenario(21, bandwidth=1e6, max_delay=2.5e-6)
    near = random_scenario(22, nearfield=True, scatterer_radius=3.0, los_amplitude=0.5 + 0.2j)
    r_short, r_full = np.multiply(short, -1.3), np.multiply(full, -1.3)
    assert np.array_equal(frv_tx(short, narrow.tx_paths, LAM), frv_tx(full, narrow.tx_paths, LAM))
    assert np.array_equal(cir(short, r_short, wide), cir(full, r_full, wide))
    assert channel_nearfield(short, r_short, near) == channel_nearfield(full, r_full, near)
    stacks = [np.tile(np.atleast_1d(p), (4, 1)) for p in (short, r_short, full, r_full)]
    stacked = channel_narrowband(stacks[0], stacks[1], narrow)
    assert np.array_equal(stacked, channel_narrowband(stacks[2], stacks[3], narrow))
    assert np.allclose(stacked, channel_narrowband(full, r_full, narrow), rtol=0, atol=1e-12)


# --- narrowband channels

def test_single_path_amplitude_invariance():
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(sample_directions(np.random.default_rng(6), 1)),
                  rx_paths=PathSet(sample_directions(np.random.default_rng(7), 1)),
                  prm=np.array([[0.3 - 0.4j]]))
    rng = np.random.default_rng(8)
    mags = [abs(channel_narrowband(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3), sc))
            for _ in range(100)]
    assert max(mags) - min(mags) <= 1e-10
    assert abs(mags[0] - 0.5) < 1e-12


def test_channel_at_origin_sums_prm():
    sc = random_scenario(9, l=4)
    h = channel_narrowband(np.zeros(3), np.zeros(3), sc)
    assert abs(h - sc.prm.sum()) < 1e-12


def test_four_path_phase_alignment_hits_l1_bound():
    # closed-form alignment: solve K r + (lam/2pi) c = (lam/2pi) arg(b) for (r, c)
    rng = np.random.default_rng(10)
    k = sample_directions(rng, 4, "sphere")
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sys = np.column_stack([k, np.full(4, LAM / (2 * np.pi))])
    rhs = LAM / (2 * np.pi) * np.angle(b)
    sol = np.linalg.solve(sys, rhs)
    r = sol[:3]
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(k), prm=b.reshape(4, 1))
    h = channel_narrowband(np.zeros(3), r, sc)
    assert abs(abs(h) - np.sum(np.abs(b))) < 1e-9


def test_mimo_1x1_equals_scalar_channel():
    sc = random_scenario(11)
    t = np.array([0.1, 0.2, 0.0])
    r = np.array([-0.3, 0.4, 0.2])
    h = channel_mimo([t], [r], sc)
    assert h.shape == (1, 1)
    assert abs(h[0, 0] - channel_narrowband(t, r, sc)) < 1e-12


def test_mimo_entrywise_consistency():
    rng = np.random.default_rng(12)
    for trial in range(64):
        sc = random_scenario(trial, l=int(rng.integers(1, 6)))
        tx = rng.uniform(0, 2, (4, 3))
        rx = rng.uniform(0, 2, (4, 3))
        h = channel_mimo(tx, rx, sc)
        for i in range(4):
            for j in range(4):
                assert abs(h[i, j] - channel_narrowband(tx[j], rx[i], sc)) <= 1e-12


def test_mimo_rank_bound():
    rng = np.random.default_rng(13)
    sc = random_scenario(13, l=2)
    tx = rng.uniform(0, 3, (5, 3))
    rx = rng.uniform(0, 3, (6, 3))
    h = channel_mimo(tx, rx, sc)
    assert np.linalg.matrix_rank(h, tol=1e-9) <= 2


def test_apply_coupling():
    rng = np.random.default_rng(14)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    eye = CouplingPair(np.eye(2), np.eye(2))
    assert np.allclose(apply_coupling(h, eye), h)
    ct = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cr = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(apply_coupling(h, CouplingPair(ct, cr)), cr @ h @ ct)
    h1 = np.array([[2.0 + 1.0j]])
    out = apply_coupling(h1, CouplingPair(np.array([[0.5j]]), np.array([[2.0]])))
    assert abs(out[0, 0] - 2.0 * (2 + 1j) * 0.5j) < 1e-14


# --- wideband

def test_tap_of_delay_tie_rounds_down():
    assert tap_of_delay(0.0, 1e6) == 1
    assert tap_of_delay(0.5e-6, 1e6) == 1
    assert tap_of_delay(1.0e-6, 1e6) == 1  # boundary tie stays in the lower tap
    assert tap_of_delay(1.1e-6, 1e6) == 2


def test_cir_single_tap_reduces_to_narrowband():
    sc = random_scenario(15, l=3, bandwidth=1e6, max_delay=0.5e-6)
    narrow = Scenario(wavelength=LAM, tx_paths=PathSet(sc.tx_paths.wave_vectors),
                      rx_paths=PathSet(sc.rx_paths.wave_vectors),
                      prm=sum_taps(sc))
    t = np.array([0.3, 0.1, 0.0])
    r = np.array([0.2, -0.4, 0.1])
    taps = cir(t, r, sc)
    assert len(taps) == 1
    assert abs(taps[0] - channel_narrowband(t, r, narrow)) < 1e-12


def sum_taps(sc):
    # reassemble a full diagonal PRM from the per-tap blocks (single-tap case)
    return sc.prms[0]


def test_cir_per_tap_oracle_and_empty_taps():
    rng = np.random.default_rng(16)
    k_t = sample_directions(rng, 4)
    k_r = sample_directions(rng, 4)
    delays = np.array([0.1e-6, 1.4e-6, 1.6e-6, 3.3e-6])  # taps 1, 2, 2, 4; tap 3 empty
    diag = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    prms = (np.diag(diag[:1]), np.diag(diag[1:3]), np.zeros((0, 0)), np.diag(diag[3:]))
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(k_t, delays=delays),
                  rx_paths=PathSet(k_r, delays=delays), prms=prms, bandwidth=1e6)
    t = np.array([0.2, 0.0, 0.1])
    r = np.array([0.0, 0.3, 0.0])
    taps = cir(t, r, sc)
    assert taps[2] == 0.0
    groups = {1: [0], 2: [1, 2], 4: [3]}
    for tau, idx in groups.items():
        g = np.exp(2j * np.pi / LAM * k_t[idx] @ t)
        f = np.exp(2j * np.pi / LAM * k_r[idx] @ r)
        expected = f.conj() @ np.diag(diag[idx]) @ g
        assert abs(taps[tau - 1] - expected) < 1e-12


def test_cfr_impulse_is_flat():
    c = cfr([1.0 + 0j], 8)
    assert np.allclose(c, 1.0)


def test_cfr_parseval():
    rng = np.random.default_rng(17)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    c = cfr(h, 16)
    assert abs(np.linalg.norm(c) ** 2 - 16 * np.linalg.norm(h) ** 2) < 1e-9


def test_cfr_matches_dft_sum():
    rng = np.random.default_rng(18)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = cfr(h, 8)
    for k in range(8):
        direct = sum(h[m] * np.exp(-2j * np.pi * k * m / 8) for m in range(2))
        assert abs(c[k] - direct) < 1e-12


def test_cfr_rejects_too_few_subcarriers():
    with pytest.raises(ValueError):
        cfr(np.ones(4, dtype=complex), 2)


# --- near field

def test_nearfield_los_amplitude():
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  los_amplitude=0.7 + 0.1j, reference_offset=np.array([10.0, 0, 0]),
                  reference_rotation=np.eye(3))
    h = channel_nearfield(np.zeros(3), np.zeros(3), sc)
    assert abs(abs(h) - abs(0.7 + 0.1j)) < 1e-12


def test_nearfield_ray_phase_progression():
    sc = Scenario(wavelength=LAM, tx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  rx_paths=PathSet(np.array([[1.0, 0, 0]])),
                  los_amplitude=1.0 + 0j, reference_offset=np.array([25.0, 0, 0]),
                  reference_rotation=np.eye(3))
    h0 = channel_nearfield(np.zeros(3), np.zeros(3), sc)
    delta = 0.123 * LAM
    h1 = channel_nearfield(np.zeros(3), np.array([delta, 0, 0]), sc)  # along the ray
    assert abs(abs(h1) - abs(h0)) < 1e-12
    dphase = np.angle(h1 / h0)
    assert abs(dphase - 2 * np.pi * delta / LAM % (2 * np.pi)) < 1e-9


def test_nearfield_scatterer_oracle():
    rng = np.random.default_rng(19)
    st = rng.uniform(-3, 3, (2, 3))
    sr = rng.uniform(-3, 3, (2, 3))
    sig = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sc = Scenario(wavelength=LAM,
                  tx_paths=PathSet(sample_directions(rng, 2), scatterers=st),
                  rx_paths=PathSet(sample_directions(rng, 2), scatterers=sr),
                  prm=sig)
    t = rng.uniform(-1, 1, 3)
    r = rng.uniform(-1, 1, 3)
    h = channel_nearfield(t, r, sc)
    expected = 0.0
    for i in range(2):
        for j in range(2):
            pt = np.exp(2j * np.pi / LAM * np.linalg.norm(t - st[j]))
            pr = np.exp(2j * np.pi / LAM * np.linalg.norm(r - sr[i]))
            expected += pr * sig[i, j] * pt
    assert abs(h - expected) < 1e-12


# --- radiation and polarization

def test_radiation_gain_isotropic_unity():
    pat = RadiationPattern.isotropic()
    rng = np.random.default_rng(20)
    for _ in range(100):
        aom = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
        k = sample_directions(rng, 1, "sphere")[0]
        assert abs(radiation_gain(pat, aom, k) - 1.0) < 1e-12


def test_radiation_gain_directional_lobe():
    # 6 dBi power gain inside the cone: field gain sqrt(10^0.6), zero outside
    pat = RadiationPattern.ideal_directional(6.0)
    g = radiation_gain(pat, np.eye(3), np.array([0.0, 0.0, 1.0]))
    assert abs(g - 10 ** 0.3) < 1e-12
    assert radiation_gain(pat, np.eye(3), np.array([1.0, 0.0, 0.0])) == 0.0


def test_directional_cone_energy_matches_isotropic():
    # gain * solid angle = 4 pi  =>  cos(half angle) = 1 - 2/gain
    gp = 10.0 ** 0.6
    cos_half = 1.0 - 2.0 / gp
    pat = RadiationPattern.ideal_directional(6.0)
    inside = np.array([np.sin(np.arccos(cos_half)) - 1e-6, 0.0, cos_half + 1e-6])
    inside /= np.linalg.norm(inside)
    assert radiation_gain(pat, np.eye(3), inside) > 0


def _pol_oracle(f_t, f_r, psi, omega, k_t, k_r, lam2):
    """Independent term-by-term expansion of the polarization product."""
    i_t, j_t = accs_basis(k_t)
    i_r, j_r = accs_basis(k_r)
    kt_a = psi.T @ k_t
    kr_a = omega.T @ k_r
    ih_t, jh_t = accs_basis(kt_a)
    ih_r, jh_r = accs_basis(kr_a)
    gt = np.sqrt(abs(f_t[0](kt_a)) ** 2 + abs(f_t[1](kt_a)) ** 2)
    gr = np.sqrt(abs(f_r[0](kr_a)) ** 2 + abs(f_r[1](kr_a)) ** 2)
    row = np.array([f_r[0](kr_a), f_r[1](kr_a)]) / gr
    mrx = np.array([[ih_r @ omega.T @ i_r, ih_r @ omega.T @ j_r],
                    [jh_r @ omega.T @ i_r, jh_r @ omega.T @ j_r]])
    mtx = np.array([[i_t @ psi @ ih_t, i_t @ psi @ jh_t],
                    [j_t @ psi @ ih_t, j_t @ psi @ jh_t]])
    col = np.array([f_t[0](kt_a), f_t[1](kt_a)]) / gt
    return row @ mrx @ lam2 @ mtx @ col


def test_polarization_identity_case():
    pat = RadiationPattern.isotropic()
    rng = np.random.default_rng(21)
    k_t = sample_directions(rng, 1, "sphere")[0]
    k_r = sample_directions(rng, 1, "sphere")[0]
    g = polarization_gain(pat, pat, np.eye(3), np.eye(3), k_t, k_r, np.eye(2))
    assert abs(g - 1.0) < 1e-12


def test_polarization_cross_polarized_null():
    pat = RadiationPattern.isotropic()
    k = np.array([1.0, 0.0, 0.0])
    # rotate the receive antenna a quarter turn about the path axis (the x axis)
    omega = aom_from_euler(0.0, 0.0, np.pi / 2)
    g = polarization_gain(pat, pat, np.eye(3), omega, k, k, np.eye(2))
    assert abs(g) < 1e-12


def test_polarization_random_oracle():
    rng = np.random.default_rng(22)
    pat = RadiationPattern.isotropic()
    for _ in range(50):
        psi = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
        omega = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
        k_t = sample_directions(rng, 1, "sphere")[0]
        k_r = sample_directions(rng, 1, "sphere")[0]
        lam2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = polarization_gain(pat, pat, psi, omega, k_t, k_r, lam2)
        want = _pol_oracle((pat.f1, pat.f2), (pat.f1, pat.f2), psi, omega, k_t, k_r, lam2)
        assert abs(got - want) < 1e-12


def test_prm_6dma_identity_reproduces_scalars():
    rng = np.random.default_rng(23)
    l = 3
    tx_paths = PathSet(sample_directions(rng, l, "sphere"))
    rx_paths = PathSet(sample_directions(rng, l, "sphere"))
    sig = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    pprms = np.einsum("ij,ab->ijab", sig, np.eye(2)).astype(complex)
    pat = RadiationPattern.isotropic()
    out = prm_6dma(pprms, np.eye(3), np.eye(3), pat, pat, tx_paths, rx_paths)
    assert np.allclose(out, sig, atol=1e-12)


def test_prm_6dma_directional_miss_zeros_column():
    rng = np.random.default_rng(24)
    tx_paths = PathSet(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    rx_paths = PathSet(sample_directions(rng, 2, "sphere"))
    pprms = np.einsum("ij,ab->ijab", np.ones((2, 2)), np.eye(2)).astype(complex)
    dirpat = RadiationPattern.ideal_directional(6.0)
    iso = RadiationPattern.isotropic()
    out = prm_6dma(pprms, np.eye(3), np.eye(3), dirpat, iso, tx_paths, rx_paths)
    # second Tx path (along x) is outside the z-axis lobe
    assert np.all(out[:, 1] == 0)
    assert np.all(np.abs(out[:, 0]) > 0)


def test_prm_6dma_random_product_oracle():
    rng = np.random.default_rng(25)
    l = 2
    tx_paths = PathSet(sample_directions(rng, l, "sphere"))
    rx_paths = PathSet(sample_directions(rng, l, "sphere"))
    pprms = (rng.standard_normal((l, l, 2, 2)) + 1j * rng.standard_normal((l, l, 2, 2)))
    psi = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
    omega = aom_from_euler(*rng.uniform(-np.pi, np.pi, 3))
    pat = RadiationPattern.isotropic()
    out = prm_6dma(pprms, psi, omega, pat, pat, tx_paths, rx_paths)
    for i in range(l):
        for j in range(l):
            gp = polarization_gain(pat, pat, psi, omega, tx_paths.wave_vectors[j],
                                   rx_paths.wave_vectors[i], pprms[i, j])
            assert abs(out[i, j] - gp) < 1e-12  # isotropic radiation gains are 1


def test_channel_6dma_identity_reduces_to_narrowband():
    rng = np.random.default_rng(26)
    l = 3
    tx_paths = PathSet(sample_directions(rng, l, "sphere"))
    rx_paths = PathSet(sample_directions(rng, l, "sphere"))
    sig = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    pprms = np.einsum("ij,ab->ijab", sig, np.eye(2)).astype(complex)
    sc = Scenario(wavelength=LAM, tx_paths=tx_paths, rx_paths=rx_paths, pprms=pprms)
    sc_plain = Scenario(wavelength=LAM, tx_paths=tx_paths, rx_paths=rx_paths, prm=sig)
    t = rng.uniform(-1, 1, 3)
    r = rng.uniform(-1, 1, 3)
    assert abs(channel_6dma(t, r, np.eye(3), np.eye(3), sc)
               - channel_narrowband(t, r, sc_plain)) < 1e-12


def test_channel_6dma_invariant_to_z_rotation_isotropic():
    # the reference-basis construction is equivariant under rotations about z,
    # so the channel is unchanged by such transmit-antenna rotations
    rng = np.random.default_rng(27)
    l = 3
    tx_paths = PathSet(sample_directions(rng, l, "sphere"))
    rx_paths = PathSet(sample_directions(rng, l, "sphere"))
    sig = rng.standard_normal((l, l)) + 1j * rng.standard_normal((l, l))
    pprms = np.einsum("ij,ab->ijab", sig, np.eye(2)).astype(complex)
    sc = Scenario(wavelength=LAM, tx_paths=tx_paths, rx_paths=rx_paths, pprms=pprms)
    positions = rng.uniform(-2, 2, (10, 3))
    base = [abs(channel_6dma(np.zeros(3), p, np.eye(3), np.eye(3), sc)) for p in positions]
    for yaw in (0.7, 2.1, -1.3):
        psi = aom_from_euler(yaw, 0.0, 0.0)
        rot = [abs(channel_6dma(np.zeros(3), p, psi, np.eye(3), sc)) for p in positions]
        assert np.allclose(rot, base, atol=1e-10)
        assert np.argmax(rot) == np.argmax(base)


def test_channel_6dma_directional_rx_alignment_maximizes():
    rng = np.random.default_rng(28)
    k_r = sample_directions(rng, 1, "sphere")
    tx_paths = PathSet(sample_directions(rng, 1, "sphere"))
    rx_paths = PathSet(k_r)
    pprms = np.einsum("ij,ab->ijab", np.ones((1, 1)), np.eye(2)).astype(complex)
    sc = Scenario(wavelength=LAM, tx_paths=tx_paths, rx_paths=rx_paths, pprms=pprms,
                  rx_pattern=RadiationPattern.ideal_directional(6.0))
    # exhaustive rotation grid; include the aligned orientation
    gains = {}
    grid = [aom_from_euler(y, p, r)
            for y in np.linspace(0, 2 * np.pi, 8, endpoint=False)
            for p in np.linspace(-np.pi / 2, np.pi / 2, 5)
            for r in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    # aligned orientation: third ACCS axis along the path direction
    k = k_r[0]
    i_hat, j_hat = accs_basis(k)
    aligned = np.column_stack([i_hat, j_hat, k])
    grid.append(aligned)
    vals = [abs(channel_6dma(np.zeros(3), np.zeros(3), np.eye(3), om, sc)) for om in grid]
    assert np.argmax(vals) == len(grid) - 1 or abs(max(vals) - vals[-1]) < 1e-9


# --- scenario generation

def test_gen_scenario_deterministic():
    a = random_scenario(42, l=5, kappa=2.0)
    b = random_scenario(42, l=5, kappa=2.0)
    assert np.allclose(a.prm, b.prm)
    assert np.allclose(a.tx_paths.wave_vectors, b.tx_paths.wave_vectors)


def test_gen_scenario_kappa_infinity():
    sc = random_scenario(43, l=4, kappa=np.inf)
    d = np.abs(np.diag(sc.prm))
    assert d[0] > 0
    assert np.all(d[1:] == 0)


def test_gen_scenario_prm_is_diagonal():
    sc = random_scenario(44, l=4, kappa=1.0)
    off = sc.prm - np.diag(np.diag(sc.prm))
    assert np.all(off == 0)


def test_gen_scenario_elevation_density():
    import scipy.stats

    rng = np.random.default_rng(45)
    k = sample_directions(rng, 100_000, "halfspace")
    el = np.arcsin(np.clip(k[:, 2], -1, 1))
    edges = np.linspace(-np.pi / 2, np.pi / 2, 21)
    counts, _ = np.histogram(el, edges)
    # expected mass per bin under the cos(theta)/2 elevation density
    probs = (np.sin(edges[1:]) - np.sin(edges[:-1])) / 2.0
    stat, pvalue = scipy.stats.chisquare(counts, probs * len(el))
    assert pvalue > 0.01


def test_gen_scenario_min_separation():
    rng = np.random.default_rng(46)
    k = sample_directions(rng, 6, "halfspace", min_component_sep=0.2)
    d = np.max(np.abs(k[:, None, :] - k[None, :, :]), axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 0.2


def test_redraw_prm_phases_keeps_magnitudes():
    sc = random_scenario(47, l=4, kappa=1.0)
    sc2 = redraw_prm_phases(sc, 7)
    assert np.allclose(np.abs(sc2.prm), np.abs(sc.prm))
    assert not np.allclose(sc2.prm, sc.prm)
    assert np.allclose(sc2.tx_paths.wave_vectors, sc.tx_paths.wave_vectors)


def test_redraw_prm_phases_keeps_every_other_field():
    wide = random_scenario(47, l=4, bandwidth=2e6, max_delay=1.5e-6)
    sc = dataclasses.replace(wide, prm=np.diag([1.0, 0.5j, -0.3, 0.2 + 0.1j]))
    sc2 = redraw_prm_phases(sc, 7)
    assert sc2.bandwidth == sc.bandwidth and len(sc2.prms) == len(sc.prms)
    assert all(a is b for a, b in zip(sc2.prms, sc.prms))
    assert sc2.tx_paths is sc.tx_paths and sc2.rx_paths is sc.rx_paths
    assert np.allclose(np.abs(sc2.prm), np.abs(sc.prm))


# --- serialization

def test_scenario_json_roundtrip(tmp_path):
    sc = random_scenario(48, l=3, kappa=0.5)
    doc = scenario_to_dict(sc)
    back = scenario_from_dict(doc)
    assert np.allclose(back.prm, sc.prm)
    assert np.allclose(back.tx_paths.wave_vectors, sc.tx_paths.wave_vectors)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    again = load_scenario(path)
    assert np.allclose(again.prm, sc.prm)


def test_scenario_wideband_roundtrip(tmp_path):
    sc = random_scenario(49, l=4, bandwidth=2e6, max_delay=1.5e-6)
    path = tmp_path / "wb.json"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert back.bandwidth == sc.bandwidth
    assert len(back.prms) == len(sc.prms)
    for a, b in zip(back.prms, sc.prms):
        assert np.allclose(a, b)
    assert np.allclose(back.tx_paths.delays, sc.tx_paths.delays)


def test_scenario_prm_shape_mismatch_rejected():
    rng = np.random.default_rng(50)
    with pytest.raises(ValueError):
        Scenario(wavelength=LAM, tx_paths=PathSet(sample_directions(rng, 2)),
                 rx_paths=PathSet(sample_directions(rng, 3)), prm=np.eye(2))
