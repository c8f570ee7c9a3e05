import math
import warnings

import numpy as np
import pytest

import wtree.observables
from wtree import (
    DisorderModel,
    GREEN_POLE,
    SingularTransformError,
    TreeSpec,
    ValidationError,
    WT_INFINITY,
    band_support,
    current,
    current_profile,
    cut_seed_disk,
    edge_length,
    edge_psi_ratio,
    fixed_point_R,
    green_diag,
    green_root,
    r_from_m,
    reflection_coeff,
    solve_root_R_batch,
    spectral_density,
    sqrt_upper,
    tree_profile,
    vertex_current_mismatch,
    wt_bound,
)
from wtree.graphmodel import ROOT_EDGE
from oracles import relaxed_gamma


def test_green_diag_examples():
    g = green_diag(complex(0.0, 1.0), complex(0.0, 1.0))
    assert abs(g - complex(0.0, 0.5)) < 1e-15
    assert green_diag(WT_INFINITY, complex(0.0, 1.0)) == 0j
    assert green_diag(complex(0.0, 1.0), WT_INFINITY) == 0j
    assert green_diag(complex(1.0, 0.0), complex(-1.0, 0.0)) == GREEN_POLE


def test_green_root():
    assert abs(green_root(complex(0.0, 1.0), math.pi / 2) - complex(0.0, 1.0)) < 1e-15
    assert green_root(complex(0.0, 1.0), 0.0) == 0j
    with pytest.raises(ValidationError):
        green_root(complex(0.0, 1.0), math.pi)


def test_green_herglotz_pairs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        rp = complex(rng.normal(), abs(rng.normal()) + 1e-6)
        rm = complex(rng.normal(), abs(rng.normal()) + 1e-6)
        assert green_diag(rp, rm).imag > 0.0


def test_reflection_examples():
    z = complex(2.0, 0.05)
    w = sqrt_upper(z)
    # S = iw reflects nothing
    assert abs(reflection_coeff(1j * w, 0j, z)) < 1e-15
    assert reflection_coeff(WT_INFINITY, 0j, z) == complex(-1.0)
    with pytest.raises(SingularTransformError):
        reflection_coeff(-1j * w, 0j, z)


def test_reflection_modulus_dichotomy():
    # |r| = 1 on real S at boundary energies, |r| < 1 when Im S > 0
    rng = np.random.default_rng(8)
    z = complex(2.0, 0.0)
    for _ in range(200):
        s_re = float(rng.normal()) * 3.0
        r = reflection_coeff(complex(s_re, 0.0), 0j, z)
        assert abs(abs(r) - 1.0) < 1e-15
        r2 = reflection_coeff(complex(s_re, abs(rng.normal()) + 1e-9), 0j, z)
        assert abs(r2) < 1.0


def test_reflection_in_band_boundary():
    # mid band the stationary value has Im > 0, so the tree absorbs
    z = complex(2.0, 0.0)
    phi = fixed_point_R(z, 2, 1.0).phi
    assert abs(reflection_coeff(phi, 0j, z)) < 1.0


def test_edge_psi_ratio():
    z = complex(2.0, 0.3)
    w = sqrt_upper(z)
    assert edge_psi_ratio(complex(0.7, 0.2), 0.0, z) == 1.0
    # R0 = iw propagates the pure decaying exponential
    import cmath

    got = edge_psi_ratio(1j * w, 1.3, z)
    assert abs(got - cmath.exp(1j * w * 1.3)) < 1e-12


def test_edge_psi_ratio_derivative():
    z = complex(2.0, 0.2)
    r0 = complex(0.4, 0.9)
    h = 1e-5
    num = (edge_psi_ratio(r0, h, z) - edge_psi_ratio(r0, -h, z)) / (2 * h)
    # psi'(0)/psi(0) = R0
    assert abs(num - r0) < 1e-6


def test_wt_bound():
    z = complex(2.0, 0.1)
    assert wt_bound(z, 2.0) < wt_bound(z, 1.0) < wt_bound(z, 0.5)
    assert wt_bound(z, 1.0) > 0.0
    with pytest.raises(ValidationError):
        wt_bound(complex(2.0, 0.0), 1.0)


@pytest.mark.parametrize("L_e", [0.0, -1.0, math.inf, math.nan])
def test_wt_bound_edge_length_domain(L_e):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            wt_bound(complex(2.0, 0.1), L_e)


def test_current_accessors():
    c = current(complex(0.5, 0.8), 2.0, position=0.3)
    assert c.J == 2.0 * 0.8
    assert c.position == 0.3


def test_current_profile_monotone():
    z = complex(2.0, 0.1)
    phi = fixed_point_R(z, 2, 1.0).phi
    prof = current_profile(phi, complex(1.0, 0.0), 1.0, z, n_pts=10)
    assert len(prof) == 10
    assert abs(prof[0].J - current(phi, 1.0).J) < 1e-14
    js = [p.J for p in prof]
    assert all(a > b for a, b in zip(js, js[1:]))
    assert prof[0].position == 0.0
    assert abs(prof[-1].position - 1.0) < 1e-15
    with pytest.raises(ValidationError):
        current_profile(phi, 1.0, 1.0, z, n_pts=1)


def test_vertex_current_conservation():
    z = complex(2.0, 0.05)
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=17)
    prof = tree_profile(spec, dm, z, seed_m=cut_seed_disk(z, 2, 1.0))
    assert vertex_current_mismatch(prof) < 1e-12


def test_tree_profile_shapes_and_root():
    z = complex(2.0, 0.2)
    spec = TreeSpec(K=3, L=1.0, depth=3)
    dm = DisorderModel(lam=0.05, master_seed=2)
    prof = tree_profile(spec, dm, z)
    assert [len(a) for a in prof.R_near] == [1, 3, 9, 27]
    assert prof.psi_near[0][0] == 1.0
    assert prof.R_far_cut == r_from_m(0j, z)


def test_recursion_inequality_per_sample():
    # current conservation forces sum_f Im R_f <= Im R_0 / |psi(l)|^2
    z = complex(2.0, 0.01)
    spec = TreeSpec(K=2, L=1.0, depth=8)
    for rep in range(20):
        dm = DisorderModel(lam=0.15, dist="uniform", master_seed=100 + rep)
        prof = tree_profile(spec, dm, z, seed_m=cut_seed_disk(z, 2, 1.0))
        r0 = complex(prof.R_near[0][0])
        l0 = float(prof.lengths[0][0])
        ratio = edge_psi_ratio(r0, l0, z)
        lhs = float(prof.R_near[1].imag.sum()) / r0.imag
        assert lhs <= 1.0 / abs(ratio) ** 2 + 1e-10


def test_attrition_bounded_by_lyapunov():
    # mean one-edge current attrition is at most twice the Lyapunov rate;
    # the rate is read off a relaxed pool through the one-edge amplitude
    # ratio, which has no current part, and the gap is the Jensen part
    z = complex(2.0, 0.01)
    K = 2
    spec = TreeSpec(K=K, L=1.0, depth=10)
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=3)
    n = 1500
    seed = cut_seed_disk(z, K, 1.0)
    R = solve_root_R_batch(spec, dm, z, seed_m=seed, replicas=range(n))
    w = sqrt_upper(z)
    m_near = (R - 1j * w) / (R + 1j * w)
    lengths = np.array(
        [edge_length(spec, dm, ROOT_EDGE, replica=i) for i in range(n)]
    )
    m_far = m_near * np.exp(-2j * w * lengths)
    R_far = 1j * w * (1.0 + m_far) / (1.0 - m_far)
    ratio = np.cos(w * lengths) + R * np.sin(w * lengths) / w
    logdrop = np.log(R.imag / (np.abs(ratio) ** 2 * R_far.imag))
    gamma, gamma_se = relaxed_gamma(K, 1.0, z, DisorderModel(lam=0.1, master_seed=101))
    lhs = float(logdrop.mean())
    lhs_se = float(logdrop.std(ddof=1) / math.sqrt(n))
    assert lhs <= 2.0 * (gamma + 3.0 * gamma_se) + 3.0 * lhs_se


def test_density_basic_sweep():
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.1, master_seed=4)
    E = np.linspace(0.5, 7.5, 40)
    pts = spectral_density(spec, dm, E, eta=1e-2)
    assert len(pts) == 40
    for p in pts:
        assert p.status == "ok"
        assert p.rho >= 0.0
        assert p.im_R > 0.0
        assert p.abs_r <= 1.0 + 1e-12


def test_density_gap_decays_with_eta():
    spec = TreeSpec(K=2, L=1.0, depth=4)
    dm = DisorderModel(lam=0.0)
    rows = [
        spectral_density(spec, dm, np.array([9.5]), eta=eta)[0].rho
        for eta in (1e-1, 1e-2, 1e-3)
    ]
    assert rows[0] > rows[1] > rows[2]
    assert rows[2] < 1e-2


@pytest.mark.filterwarnings("error")
def test_density_seed_modes_and_validation():
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.0)
    E = np.array([2.0, 3.0])
    a = spectral_density(spec, dm, E, eta=1e-2, seed_mode="fixed_point")
    b = spectral_density(spec, dm, E, eta=1e-2, seed_mode="disk_zero")
    # clean tree, deep enough: both seeds agree to the truncation decay
    assert abs(a[0].rho - b[0].rho) < 1e-1
    for eta in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            spectral_density(spec, dm, E, eta=eta)
    with pytest.raises(ValidationError):
        spectral_density(spec, dm, np.array([2.0, math.nan]), eta=1e-2)
    with pytest.raises(ValidationError):
        spectral_density(spec, dm, E, eta=1e-2, seed_mode="bogus")
    with pytest.raises(ValidationError):
        spectral_density(spec, dm, E, eta=1e-2, threads=0)
    for replica in (-1, 2**64):
        with pytest.raises(ValidationError):
            spectral_density(spec, dm, E, eta=1e-2, replica=replica)


def test_density_thread_determinism():
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.1, master_seed=4)
    E = np.linspace(0.5, 7.5, 37)
    one = spectral_density(spec, dm, E, eta=1e-2, threads=1)
    three = spectral_density(spec, dm, E, eta=1e-2, threads=3)
    assert one == three


def test_density_failure_isolation():
    # a tree too deep for the visit budget fails per point, not per sweep
    spec = TreeSpec(K=2, L=1.0, depth=30)
    dm = DisorderModel(lam=0.0)
    pts = spectral_density(spec, dm, np.array([2.0, 3.0]), eta=1e-2)
    assert len(pts) == 2
    for p in pts:
        assert p.status != "ok"
        assert "BudgetExceededError" in p.status
        assert math.isnan(p.rho)
    with pytest.raises(ValidationError):
        band_support(pts)


@pytest.mark.filterwarnings("error")
def test_density_failed_points_one_solve_per_sweep(monkeypatch):
    # failed points are read from the sweep's one solve, not re-solved,
    # whatever the thread count
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2].size)
        return solve_root_R_batch(*args, **kwargs)

    monkeypatch.setattr(wtree.observables, "solve_root_R_batch", counting)
    # a NaN cut seed at every negative energy stands in for a degenerate seed
    seed_array = wtree.observables._seed_array

    def nan_below_zero(spec, energies, eta, mode):
        seeds = seed_array(spec, energies, eta, mode)
        seeds[energies < 0] = complex(math.nan, math.nan)
        return seeds

    monkeypatch.setattr(wtree.observables, "_seed_array", nan_below_zero)
    spec = TreeSpec(K=3, L=1.0, depth=4)
    dm = DisorderModel(lam=0.1, master_seed=2)
    E = -np.linspace(0.5, 20.0, 9)
    failed = "NumericalDegeneracyError: tree solve produced non-finite WT values"
    pts = spectral_density(spec, dm, E, eta=1e-2, threads=2)
    assert calls == [9]
    for p in pts:
        assert p.status == failed
        assert math.isnan(p.rho) and math.isnan(p.im_R) and math.isnan(p.abs_r)
    # mixed chunks: only the NaN-seeded energies fail
    calls.clear()
    E = np.array([2.0, -1e6, 3.0, -2e6])
    pts = spectral_density(spec, dm, E, eta=1e-2, threads=2)
    assert calls == [4]
    assert [pts[0], pts[2]] == spectral_density(spec, dm, E[[0, 2]], eta=1e-2)
    assert pts[1].status == pts[3].status == failed


def test_band_support_clean():
    # the lam = 0 sweep must recover the first clean band
    from wtree import ac_bands

    a0, b0 = ac_bands(2, 1.0, 0).intervals[0]
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel(lam=0.0)
    E = np.arange(0.05, 8.5, 0.005)
    pts = spectral_density(spec, dm, E, eta=1e-4)
    lo, hi = band_support(pts)
    assert abs(lo - a0) < 0.03
    assert abs(hi - b0) < 0.03


def test_band_support_alpha_invariance():
    # the AC support does not depend on the root boundary angle
    spec_a = TreeSpec(K=2, L=1.0, depth=2, alpha=math.pi / 2)
    spec_b = TreeSpec(K=2, L=1.0, depth=2, alpha=math.pi / 4)
    dm = DisorderModel(lam=0.0)
    E = np.arange(0.05, 8.5, 0.01)
    lo_a, hi_a = band_support(spectral_density(spec_a, dm, E, eta=1e-4))
    lo_b, hi_b = band_support(spectral_density(spec_b, dm, E, eta=1e-4))
    assert abs(lo_a - lo_b) < 0.05
    assert abs(hi_a - hi_b) < 0.05


def test_band_support_absolute_threshold():
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel(lam=0.0)
    E = np.arange(0.05, 8.5, 0.01)
    pts = spectral_density(spec, dm, E, eta=1e-4)
    # an absolute threshold equal to the default relative one must agree
    thr = 0.01 * max(p.rho for p in pts)
    assert band_support(pts, threshold=thr) == band_support(pts)
    # a threshold above every point leaves nothing to report
    with pytest.raises(ValidationError):
        band_support(pts, threshold=2.0 * max(p.rho for p in pts))
