import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

import wtree.observables
from wtree import (
    DisorderModel,
    GREEN_POLE,
    NumericalDegeneracyError,
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
    # a one-sided second-order difference: the edge has no negative lengths
    num = (4 * edge_psi_ratio(r0, h, z) - edge_psi_ratio(r0, 2 * h, z) - 3.0) / (2 * h)
    # psi'(0)/psi(0) = R0
    assert abs(num - r0) < 1e-6


_ETAS_150 = [1e-2, 1.0, 1e3, 1e4, 1e5, 1e6]


@pytest.mark.parametrize("eta", _ETAS_150)
def test_edge_solution_matches_150_digits(eta):
    # cos(w*l) and sin(w*l) grow like exp(Im(w) l); the edge is kept short
    # enough (Im(w) l <= 150) that psi and J stay in the float range.  The
    # phase of w*l carries a rounding of about |w*l| ulps, so the bound
    # scales with it.  Near-end values stay away from i*w, where the
    # ratio is ill-conditioned in R0 at large Im(w) l.
    z = complex(2.0, eta)
    w = sqrt_upper(z)
    l = min(1.3, 150.0 / w.imag)
    tol = 1e-15 * (8.0 + abs(w * l))
    psi0 = complex(0.6, -0.2)
    for R0 in (complex(0.4, 0.9), 3j * w, 1j * w / 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = edge_psi_ratio(R0, l, z)
            prof = current_profile(R0, psi0, l, z, n_pts=7)
        with mpmath.workdps(150):
            wm, Rm, p0 = mpmath.sqrt(mpmath.mpc(z)), mpmath.mpc(R0), mpmath.mpc(psi0)

            def solution(t):
                x = wm * mpmath.mpf(t)
                return p0 * (mpmath.cos(x) + Rm * mpmath.sin(x) / wm), p0 * (
                    -wm * mpmath.sin(x) + Rm * mpmath.cos(x)
                )

            want = complex(solution(l)[0] / p0)
            J = [float(mpmath.im(mpmath.conj(a) * b)) for a, b in (solution(c.position) for c in prof)]
        assert abs(ratio - want) <= tol * abs(want)
        # J crosses zero along some edges, so it is read against its largest sample
        scale = max(map(abs, J))
        assert all(abs(c.J - j) <= tol * scale for c, j in zip(prof, J))


def test_edge_solution_beyond_float_range():
    # Im(w) l = 1400: the ratio and the currents are not representable
    z = complex(2.0, 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalDegeneracyError):
            edge_psi_ratio(complex(0.4, 0.9), 2.0, z)
        with pytest.raises(NumericalDegeneracyError):
            current_profile(complex(0.4, 0.9), 1.0, 2.0, z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: current_profile(1j, 1.0, math.inf, 2 + 0.01j), id="profile-l-inf"),
        pytest.param(lambda: current_profile(1j, 1.0, -1.0, 2 + 0.01j), id="profile-l-negative"),
        pytest.param(lambda: current_profile(1j, 1.0, math.nan, 2 + 0.01j), id="profile-l-nan"),
        pytest.param(lambda: current_profile(1j, 1.0, 1.0, 2 + 0.01j, n_pts=2.5), id="profile-n_pts"),
        pytest.param(lambda: current_profile(1j, 1.0, 1.0, 2 + 0.01j, n_pts=True), id="profile-bool"),
        pytest.param(lambda: edge_psi_ratio(1j, math.nan, 2 + 0.01j), id="ratio-l-nan"),
        pytest.param(lambda: edge_psi_ratio(1j, -1.0, 2 + 0.01j), id="ratio-l-negative"),
        pytest.param(lambda: edge_psi_ratio(1j, math.inf, 2 + 0.01j), id="ratio-l-inf"),
    ],
)
def test_edge_observables_check_their_edge(call):
    # an invalid edge is a ValidationError before any arithmetic, not a
    # warning followed by a NumericalDegeneracyError
    with pytest.raises(ValidationError):
        call()


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


def _psi_high_precision(prof):
    """|psi| at every near end of ``prof``'s edges, solved again in high precision.

    The R values come from the disk recursion on the profile's own
    lengths and cut seed; psi is then continued with cos(w*l) +
    R*sin(w*l)/w, which cancels about 2 Im(w) l / ln(10) digits on an
    edge of length l, so the arithmetic carries 150 digits beyond that.
    """
    K = prof.K
    lost = 2.0 * sqrt_upper(prof.z).imag * max(float(le.max()) for le in prof.lengths) / math.log(10)
    with mpmath.workdps(150 + math.ceil(lost)):
        w = mpmath.sqrt(mpmath.mpc(prof.z))
        iw = 1j * w
        R_far = [mpmath.mpc(prof.R_far_cut)] * K**prof.depth
        R = [None] * (prof.depth + 1)
        for g in range(prof.depth, -1, -1):
            phases = [mpmath.exp(2j * w * mpmath.mpf(float(l))) for l in prof.lengths[g]]
            m_near = [ph * (r - iw) / (r + iw) for ph, r in zip(phases, R_far)]
            R[g] = [iw * (1 + mn) / (1 - mn) for mn in m_near]
            R_far = [sum(R[g][j * K : (j + 1) * K]) for j in range(len(R[g]) // K)]
        psi = [[mpmath.mpf(1)]]
        for g in range(prof.depth):
            wl = [w * mpmath.mpf(float(l)) for l in prof.lengths[g]]
            ends = [p * (mpmath.cos(x) + r * mpmath.sin(x) / w) for p, x, r in zip(psi[g], wl, R[g])]
            psi.append([e for e in ends for _ in range(K)])
        return [np.array([float(abs(p)) for p in row]) for row in psi]


@pytest.mark.parametrize("eta", _ETAS_150)
def test_tree_profile_psi_at_large_eta(eta):
    # Im(w)*l is about 22 at eta 1e3 and 70 at eta 1e4, where cos(w*l) +
    # R*sin(w*l)/w cancels to nothing in doubles; the disk-picture ratio
    # keeps psi to rounding wherever it is a normal float.  Currents are
    # conserved exactly, so the check must read rounding on that profile;
    # from eta 1e3 R_near is i*w to the last bit, so a far end pulled back
    # from it would be noise.
    z = complex(2.0, eta)
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = tree_profile(spec, dm, z)
        mismatch = vertex_current_mismatch(prof)
    ref = _psi_high_precision(prof)
    for got, want in zip(prof.psi_near, ref):
        normal = want >= np.finfo(float).tiny
        np.testing.assert_allclose(np.abs(got[normal]), want[normal], rtol=1e-12, atol=0)
    assert mismatch <= 1e-12
    if eta == 1e6:
        # every phase exp(2i*w*l) underflows to 0, so no vertex is checked
        assert mismatch == 0.0


@pytest.mark.parametrize("eta", [0.05, 1e3, 1e4])
def test_vertex_current_mismatch_sees_a_perturbed_child(eta):
    # A leaf's R moved by 1e-8, with its and its sibling's amplitudes
    # continued across the parent edge from the moved Kirchhoff sum as
    # tree_profile would: a check whose far end were that sum would read
    # rounding, but the parent's far end comes from its own disk value.
    z = complex(2.0, eta)
    w = sqrt_upper(z)
    prof = tree_profile(TreeSpec(K=2, L=1.0, depth=3), DisorderModel(lam=0.1, master_seed=1), z)
    assert vertex_current_mismatch(prof) < 1e-12
    R = [a.copy() for a in prof.R_near]
    psi = [a.copy() for a in prof.psi_near]
    R[3][1] *= 1.0 + 1e-8
    l0, R0 = prof.lengths[2][0], prof.R_near[2][0]
    psi[3][:2] = psi[2][0] * np.exp(1j * w * l0) * (R0 + 1j * w) / (R[3][:2].sum() + 1j * w)
    assert vertex_current_mismatch(dataclasses.replace(prof, R_near=R, psi_near=psi)) >= 1e-9


def test_vertex_current_mismatch_propagates_nan():
    z = complex(2.0, 0.05)
    spec = TreeSpec(K=2, L=1.0, depth=3)
    prof = tree_profile(spec, DisorderModel(lam=0.1, master_seed=1), z)
    assert vertex_current_mismatch(prof) < 1e-12
    psi = [a.copy() for a in prof.psi_near]
    psi[-1][0] = math.nan
    assert math.isnan(vertex_current_mismatch(dataclasses.replace(prof, psi_near=psi)))


def test_tree_profile_shapes_and_root():
    z = complex(2.0, 0.2)
    spec = TreeSpec(K=3, L=1.0, depth=3)
    dm = DisorderModel(lam=0.05, master_seed=2)
    prof = tree_profile(spec, dm, z)
    assert [len(a) for a in prof.R_near] == [1, 3, 9, 27]
    assert prof.psi_near[0][0] == 1.0
    assert prof.R_far_cut == r_from_m(0j, z)
    # the replica is validated, not wrapped or truncated to uint64
    for replica in (-1, 2**64, 1.5, True):
        with pytest.raises(ValidationError, match="replica"):
            tree_profile(spec, dm, z, replica=replica)


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
    for replica in (-1, 2**64, 1.5, True):
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
