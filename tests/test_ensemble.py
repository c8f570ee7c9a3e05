import math

import numpy as np
import pytest

from wtree import (
    BudgetExceededError,
    DisorderModel,
    InsufficientSamplesError,
    TreeSpec,
    ValidationError,
    check_jensen,
    estimate_gamma,
    estimate_gamma_tilde,
    fluctuation_report,
    gamma_clean,
    pool_init,
    pool_step,
    quantile_width,
    stability_scan,
    stationary_disk,
)

Z_MID = complex(2.0, 0.01)
SPEC6 = TreeSpec(K=2, L=1.0, depth=6)
CLEAN = DisorderModel(lam=0.0)


def _im_R(pool):
    w = complex(np.sqrt(pool.z))
    m = pool.values
    return (1j * w * (1.0 + m) / (1.0 - m)).imag


def test_pool_init_disk_zero():
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=1000, seed_mode="disk_zero")
    assert pool.size == 1000
    assert pool.generation == 0
    assert np.all(pool.values == 0.0)


def test_pool_init_fixed_point():
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=64)
    m_star = stationary_disk(Z_MID, 2, 1.0)
    assert np.all(pool.values == m_star)
    assert abs(m_star) < 1.0


def test_pool_init_validation():
    with pytest.raises(ValidationError):
        pool_init(SPEC6, CLEAN, Z_MID, size=0)
    with pytest.raises(ValidationError):
        pool_init(SPEC6, CLEAN, complex(2.0, 0.0), size=8)
    with pytest.raises(ValidationError):
        pool_init(SPEC6, CLEAN, Z_MID, size=8, seed_mode="bogus")


def test_pool_step_clean_is_stationary():
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=128)
    m_star = stationary_disk(Z_MID, 2, 1.0)
    for _ in range(5):
        pool_step(pool)
        assert np.max(np.abs(pool.values - m_star)) < 1e-12
    assert pool.generation == 5


def test_pool_step_returns_pool_and_stays_in_disk():
    pool = pool_init(SPEC6, DisorderModel(lam=0.2, master_seed=3), Z_MID, size=256)
    out = pool_step(pool)
    assert out is pool
    for _ in range(20):
        pool_step(pool)
    assert np.all(np.abs(pool.values) <= 1.0 + 1e-12)


def test_pool_determinism():
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=11)
    a = pool_init(SPEC6, dm, Z_MID, size=200)
    b = pool_init(SPEC6, dm, Z_MID, size=200)
    for _ in range(50):
        pool_step(a)
        pool_step(b)
    assert np.array_equal(a.values, b.values)
    assert a.resampled == b.resampled


def test_pool_clean_convergence_from_zero():
    # the clean map contracts like exp(-2*gamma0) per generation, so the
    # approach to the stationary point is slow at small eta
    z = complex(2.0, 0.1)
    pool = pool_init(TreeSpec(K=2, L=1.0, depth=1), CLEAN, z, size=16, seed_mode="disk_zero")
    m_star = stationary_disk(z, 2, 1.0)
    for _ in range(400):
        pool_step(pool)
    assert np.max(np.abs(pool.values - m_star)) < 1e-10


def test_pool_clean_convergence_mean_small_eta():
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=16, seed_mode="disk_zero")
    m_star = stationary_disk(Z_MID, 2, 1.0)
    for _ in range(1700):
        pool_step(pool)
    assert abs(pool.values.mean() - m_star) < 1e-6


def test_pool_spread_stabilizes():
    # interquartile spread of Im R settles once the pool is stationary
    z = complex(2.0, 0.1)
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=1)
    pool = pool_init(TreeSpec(K=2, L=1.0, depth=1), dm, z, size=16000)
    deltas = []
    for _ in range(120):
        pool_step(pool)
        im = _im_R(pool)
        deltas.append(float(np.quantile(im, 0.75) - np.quantile(im, 0.25)))
    for g in range(100, 120):
        assert abs(deltas[g] - deltas[g - 1]) / deltas[g] < 0.05
    w1 = float(np.mean(deltas[100:110]))
    w2 = float(np.mean(deltas[110:120]))
    assert abs(w2 - w1) / w2 < 0.02


def test_pool_singular_member_resampled():
    pool = pool_init(SPEC6, DisorderModel(lam=0.1, master_seed=1), Z_MID, size=16)
    pool.values[0] = 1.0
    pool_step(pool)
    assert pool.resampled >= 1
    assert np.all(np.isfinite(pool.values.view(np.float64)))
    assert np.all(np.abs(pool.values) <= 1.0 + 1e-12)


def test_estimate_gamma_clean_exact():
    g0 = gamma_clean(Z_MID, 2, 1.0)
    for source in ("pool", "direct"):
        est = estimate_gamma(SPEC6, CLEAN, Z_MID, n=500, source=source)
        assert abs(est.gamma_hat - g0) < 1e-12
        assert est.stderr <= 1e-13
        assert est.source == source
        assert est.n >= 500


def test_estimate_gamma_positive_under_disorder():
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=1)
    est = estimate_gamma(SPEC6, dm, Z_MID, n=10_000, source="direct")
    assert est.gamma_hat > 3.0 * est.stderr
    assert est.stderr > 0.0


def test_estimate_gamma_orders_with_disorder_strength():
    e05 = estimate_gamma(
        SPEC6, DisorderModel(lam=0.05, master_seed=1), Z_MID, n=10_000, source="direct"
    )
    e20 = estimate_gamma(
        SPEC6, DisorderModel(lam=0.2, master_seed=1), Z_MID, n=10_000, source="direct"
    )
    comb = math.hypot(e05.stderr, e20.stderr)
    assert e05.gamma_hat < e20.gamma_hat + 3.0 * comb


def test_estimate_gamma_pool_vs_direct():
    # the two sources sample the same stationary law; agreement within
    # three combined standard errors
    z = complex(2.0, 0.05)
    spec = TreeSpec(K=2, L=1.0, depth=10)
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=1)
    d = estimate_gamma(spec, dm, z, n=10_000, source="direct")
    p = estimate_gamma(spec, dm, z, n=10_000, source="pool")
    comb = math.hypot(d.stderr, p.stderr)
    assert abs(d.gamma_hat - p.gamma_hat) <= 3.0 * comb


def test_estimate_gamma_validation():
    with pytest.raises(InsufficientSamplesError):
        estimate_gamma(SPEC6, CLEAN, Z_MID, n=1)
    with pytest.raises(ValidationError):
        estimate_gamma(SPEC6, CLEAN, complex(2.0, 0.0), n=100)
    with pytest.raises(ValidationError):
        estimate_gamma(SPEC6, CLEAN, Z_MID, n=100, source="bogus")


def test_gamma_tilde_zero_beta_matches_plain():
    t = estimate_gamma_tilde(SPEC6, CLEAN, Z_MID, n=500, beta_v=0.0)
    p = estimate_gamma(SPEC6, CLEAN, Z_MID, n=500, source="pool")
    assert t.gamma_hat == p.gamma_hat
    assert t.stderr == p.stderr


def test_gamma_tilde_clean_rotation_invariant():
    # the rotated amplitude decays at the same rate: the boundary factor
    # telescopes and vanishes in the stationary state
    g0 = gamma_clean(Z_MID, 2, 1.0)
    t = estimate_gamma_tilde(SPEC6, CLEAN, Z_MID, n=500, beta_v=math.pi / 4)
    assert abs(t.gamma_hat - g0) < 1e-12


def test_gamma_tilde_validation():
    with pytest.raises(ValidationError):
        estimate_gamma_tilde(SPEC6, CLEAN, Z_MID, n=100, beta_v=-0.1)
    with pytest.raises(ValidationError):
        estimate_gamma_tilde(SPEC6, CLEAN, Z_MID, n=100, beta_v=math.pi)


def test_quantile_width_examples():
    w = quantile_width(np.full(100, 3.0), 0.25)
    assert w.delta == 0.0
    w2 = quantile_width([1.0, 2.0], 0.25)
    assert (w2.xi_minus, w2.xi_plus, w2.delta) == (1.0, 2.0, 0.5)


def test_quantile_width_ordering_and_range():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 400))
        a = float(rng.uniform(0.01, 0.5))
        x = np.exp(rng.normal(size=n))
        w = quantile_width(x, a)
        assert 0.0 < w.xi_minus <= w.xi_plus
        assert 0.0 <= w.delta < 1.0


def test_quantile_width_median_bracket():
    # at a = 1/2 with a*n integral the index pair is the median bracket
    w = quantile_width([1.0, 2.0], 0.5)
    assert (w.xi_minus, w.xi_plus) == (1.0, 2.0)
    w4 = quantile_width([1.0, 2.0, 3.0, 4.0], 0.5)
    assert (w4.xi_minus, w4.xi_plus) == (2.0, 3.0)


def test_quantile_width_validation():
    with pytest.raises(ValidationError):
        quantile_width([1.0, 2.0], 0.0)
    with pytest.raises(ValidationError):
        quantile_width([1.0, 2.0], 0.6)
    with pytest.raises(InsufficientSamplesError):
        quantile_width([1.0], 0.25)
    with pytest.raises(ValidationError):
        quantile_width([-1.0, 2.0], 0.25)
    with pytest.raises(ValidationError):
        quantile_width([np.nan, 2.0], 0.25)


def test_jensen_constant_equality():
    x = np.full(50, 2.5)
    for method in ("resample", "enumerate"):
        rep = check_jensen(x, K=2, a=0.25, method=method)
        assert abs(rep.lhs - rep.e_log) < 1e-12
        assert rep.width_term == 0.0
        assert rep.passed


def test_jensen_two_point_enumerate_exact():
    x = np.array([1.0, 2.0])
    rep = check_jensen(x, K=2, a=0.25, method="enumerate")
    lhs_exact = (math.log(1.0) + 2.0 * math.log(1.5) + math.log(2.0)) / 4.0
    assert abs(rep.lhs - lhs_exact) < 1e-12
    assert abs(rep.e_log - math.log(2.0) / 2.0) < 1e-12
    assert rep.slack > 0.0
    assert rep.passed


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("a", [0.125, 0.25, 0.5])
def test_jensen_two_point_all_cells(K, a):
    rep = check_jensen(np.array([1.0, 2.0]), K=K, a=a, method="enumerate")
    assert rep.slack > 0.0
    assert rep.passed


def test_jensen_lognormal_resample():
    rng = np.random.default_rng(7)
    x = np.exp(0.5 * rng.standard_normal(100_000))
    for K in (2, 3):
        for a in (0.125, 0.25, 0.5):
            rep = check_jensen(x, K=K, a=a, method="resample", n_trials=100_000, seed=11)
            assert rep.passed
            assert rep.slack >= -3.0 * rep.stderr


def test_jensen_methods_agree():
    rng = np.random.default_rng(21)
    x = np.exp(0.4 * rng.standard_normal(300))
    en = check_jensen(x, K=2, a=0.25, method="enumerate")
    re = check_jensen(x, K=2, a=0.25, method="resample", n_trials=200_000, seed=5)
    assert abs(en.lhs - re.lhs) <= 4.0 * re.stderr
    assert en.width_term == re.width_term


def test_jensen_budget_and_validation():
    rng = np.random.default_rng(2)
    x = np.exp(rng.standard_normal(300))
    with pytest.raises(BudgetExceededError):
        check_jensen(x, K=3, a=0.25, method="enumerate")
    with pytest.raises(ValidationError):
        check_jensen(x, K=0, a=0.25)
    with pytest.raises(ValidationError):
        check_jensen(x, K=2, a=0.25, method="bogus")
    with pytest.raises(ValidationError):
        check_jensen(np.array([1.0, -2.0]), K=2, a=0.25)


def test_fluctuation_clean_widths_vanish():
    rep = fluctuation_report(SPEC6, CLEAN, Z_MID, n=200)
    assert rep.delta_im == 0.0
    assert rep.delta_mod == 0.0
    assert rep.bound1_ok and rep.bound2_ok
    assert rep.gamma_hat > 0.0


def test_fluctuation_bound_arithmetic():
    rep = fluctuation_report(
        SPEC6, DisorderModel(lam=0.05, master_seed=1), Z_MID, n=2000, a=0.25
    )
    hi = rep.gamma_hat + 3.0 * rep.gamma_stderr
    assert abs(rep.bound1 - 128.0 * hi) < 1e-12
    assert abs(rep.bound2 - 512.0 * 9.0 * 16.0 * hi) < 1e-9
    assert rep.lam == 0.05
    assert rep.n == 2000


def test_fluctuation_bounds_hold_under_disorder():
    for lam in (0.05, 0.1):
        rep = fluctuation_report(
            TreeSpec(K=2, L=1.0, depth=10),
            DisorderModel(lam=lam, dist="uniform", master_seed=1),
            Z_MID,
            n=2000,
            a=0.25,
        )
        assert rep.delta_im**2 <= rep.bound1
        assert rep.delta_mod**2 <= rep.bound2
        assert rep.bound1_ok and rep.bound2_ok
        assert 0.0 <= rep.delta_im < 1.0
        assert 0.0 <= rep.delta_mod < 1.0


def test_fluctuation_pool_source_and_validation():
    rep = fluctuation_report(
        SPEC6, DisorderModel(lam=0.1, master_seed=2), Z_MID, n=500, source="pool", burn_in=50
    )
    assert 0.0 <= rep.delta_im < 1.0
    with pytest.raises(ValidationError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=500, source="bogus")


@pytest.mark.filterwarnings("error")
def test_fluctuation_validates_up_front():
    # checked before any sampling, so no numpy warning escapes first
    with pytest.raises(InsufficientSamplesError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=1)
    with pytest.raises(InsufficientSamplesError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=1, source="pool", burn_in=5)
    with pytest.raises(ValidationError):
        fluctuation_report(SPEC6, CLEAN, complex(2.0, 0.0), n=100)


def test_stability_clean_row_is_zero():
    spec = TreeSpec(K=2, L=1.0, depth=8)
    cells = stability_scan(
        spec, CLEAN, lambdas=[0.0], etas=[1e-3], e_min=1.5, e_max=2.5, eps=0.1, n=300
    )
    assert len(cells) == 1
    assert cells[0].exceedance == 0.0


def test_stability_scan_shape_and_order():
    spec = TreeSpec(K=2, L=1.0, depth=4)
    cells = stability_scan(
        spec,
        DisorderModel(lam=0.0, master_seed=1),
        lambdas=[0.2, 0.05],
        etas=[1e-2, 1e-3],
        e_min=1.5,
        e_max=2.5,
        eps=0.1,
        n=100,
    )
    assert [(c.lam, c.eta) for c in cells] == [
        (0.2, 1e-2),
        (0.2, 1e-3),
        (0.05, 1e-2),
        (0.05, 1e-3),
    ]
    for c in cells:
        assert 0.0 <= c.exceedance <= 1.0
        assert c.stderr > 0.0
        assert c.n == 100


def test_stability_scan_monotone_in_lambda():
    spec = TreeSpec(K=2, L=1.0, depth=8)
    dm = DisorderModel(lam=0.0, dist="uniform", master_seed=1)
    cells = stability_scan(
        spec, dm, lambdas=[0.2, 0.1, 0.05, 0.02], etas=[1e-3],
        e_min=1.5, e_max=2.5, eps=0.1, n=800,
    )
    exc = [c.exceedance for c in cells]
    for i in range(len(exc) - 1):
        comb = math.hypot(cells[i].stderr, cells[i + 1].stderr)
        assert exc[i] >= exc[i + 1] - 3.0 * comb


def test_stability_scan_determinism():
    spec = TreeSpec(K=2, L=1.0, depth=4)
    dm = DisorderModel(lam=0.0, master_seed=9)
    kw = dict(lambdas=[0.1], etas=[1e-2], e_min=1.5, e_max=2.5, eps=0.1, n=200)
    assert stability_scan(spec, dm, **kw) == stability_scan(spec, dm, **kw)


def test_stability_scan_validation():
    spec = TreeSpec(K=2, L=1.0, depth=4)
    kw = dict(lambdas=[0.1], etas=[1e-2], eps=0.1, n=100)
    with pytest.raises(ValidationError):
        stability_scan(spec, CLEAN, e_min=0.0, e_max=2.5, **kw)
    with pytest.raises(ValidationError):
        stability_scan(spec, CLEAN, e_min=2.5, e_max=1.5, **kw)
    with pytest.raises(ValidationError):
        stability_scan(
            spec, CLEAN, lambdas=[0.1], etas=[0.0], e_min=1.5, e_max=2.5, eps=0.1, n=100
        )
    with pytest.raises(ValidationError):
        stability_scan(
            spec, CLEAN, lambdas=[0.1], etas=[1e-2], e_min=1.5, e_max=2.5, eps=0.0, n=100
        )
    with pytest.raises(InsufficientSamplesError):
        stability_scan(
            spec, CLEAN, lambdas=[0.1], etas=[1e-2], e_min=1.5, e_max=2.5, eps=0.1, n=1
        )
